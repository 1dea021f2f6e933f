"""Bench: the parallel sweep executor and the packed/curve fast paths.

Two jobs ride here:

* **Acceptance** — the Table VI policy sweep at ``jobs=4`` must equal
  the ``jobs=1`` sweep, and the one-pass LRU curve must reproduce the
  reference simulator's metrics *exactly* at every paper cache size
  under all four write policies.  Table VI under LRU is one curve job,
  which the executor runs in-process at every ``jobs`` value, so the
  two sweeps' time ratio (best-of-3) is about 1; it is printed, not
  asserted.
* **Timing** — ``test_sweep_throughput`` records the sweep's rate.
  It has no committed baseline: the pipeline benchmark
  (``benchmarks/pipeline``) times this layer end to end as
  ``cache.sweep``.
"""

from __future__ import annotations

import time

from repro.cache.simulator import BlockCacheSimulator
from repro.cache.stream import build_stream
from repro.cache.sweep import (
    PAPER_CACHE_SIZES,
    PAPER_POLICIES,
    cache_size_policy_sweep,
)
from repro.parallel.packed import cached_packed_stream, simulate_packed
from repro.parallel.veccache import stack_curve


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_sweep_speedup_jobs4_vs_serial(trace):
    """Acceptance: the Table VI sweep at jobs=4 equals jobs=1."""
    # Warm the per-log memos so neither side pays stream construction.
    cache_size_policy_sweep(trace, jobs=1)
    cache_size_policy_sweep(trace, jobs=4)

    t_serial, serial = _best_of(lambda: cache_size_policy_sweep(trace, jobs=1))
    t_parallel, parallel = _best_of(
        lambda: cache_size_policy_sweep(trace, jobs=4)
    )
    print(f"jobs=1 {t_serial:.3f}s  jobs=4 {t_parallel:.3f}s  "
          f"ratio {t_serial / t_parallel:.2f}x")
    assert serial.results == parallel.results, "parallel sweep diverged"


def test_stack_curve_exact_at_paper_sizes(trace, bench_once, benchmark):
    """Acceptance: the one-pass curve == the reference simulator, for
    every Table VI cell."""
    stream = build_stream(trace)
    packed = cached_packed_stream(trace, 4096)

    curve = bench_once(
        stack_curve, packed, PAPER_CACHE_SIZES, PAPER_POLICIES,
        flush_epoch=packed.start_time,
    )
    for policy in PAPER_POLICIES:
        for size in PAPER_CACHE_SIZES:
            sim = BlockCacheSimulator(cache_bytes=size, policy=policy)
            ref = sim.run(stream, flush_epoch=trace.start_time)
            got = curve.metrics(size, policy)
            assert got == ref, f"stack curve diverged at {size} bytes, {policy.label}"
            assert got.read_accesses + got.write_accesses == packed.n_accesses
    benchmark.extra_info["accesses"] = packed.n_accesses
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["accesses_per_s"] = round(
            packed.n_accesses / benchmark.stats.stats.min
        )


def test_sweep_throughput(trace, benchmark):
    """Timed, no baseline: parallel Table VI sweep wall time (jobs=4)."""
    cache_size_policy_sweep(trace, jobs=4)  # warm memos
    sweep = benchmark.pedantic(
        cache_size_policy_sweep, args=(trace,), kwargs=dict(jobs=4),
        rounds=3, iterations=1,
    )
    benchmark.extra_info["configs"] = len(sweep.results)
    assert len(sweep.results) == len(PAPER_CACHE_SIZES) * 4
    accesses = cached_packed_stream(trace, 4096).n_accesses
    benchmark.extra_info["accesses"] = accesses
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["accesses_per_s"] = round(
            len(sweep.results) * accesses / benchmark.stats.stats.min
        )


def test_packed_replay_throughput(trace, benchmark):
    """Timed, no baseline: one packed delayed-write replay at 390 KB."""
    packed = cached_packed_stream(trace, 4096)
    run = benchmark.pedantic(
        simulate_packed, args=(packed, 390 * 1024), rounds=3, iterations=1,
    )
    benchmark.extra_info["block_accesses"] = run.metrics.block_accesses
    assert run.metrics.block_accesses == packed.n_accesses
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["accesses_per_s"] = round(
            run.metrics.block_accesses / benchmark.stats.stats.min
        )
