"""Bench: the vectorized cache engine and the sweep built on it.

Two jobs ride here, mirroring ``test_parallel.py``:

* **Acceptance** — the numpy miss-ratio-curve kernel on a dense size
  grid (~320 tracked sizes; the grids Figure 5-style exhibits actually
  want) must stay *bit-identical* to its specification, one packed
  replay per size, checked at a few grid sizes; and the write-through
  sweep at ``jobs=4`` must equal the ``jobs=1`` sweep cell for cell.  Both sweeps run the same single
  curve job, so their time ratio is reported, not asserted.
* **Regression gate** — every benchmark here is compared by
  ``benchmarks/check_regression.py`` against ``benchmarks/BENCH_6.json``
  (``--gate veccache``).

Times and the ``*_per_s`` rates in ``extra_info`` are gated; the rates
let the checker catch a throughput regression even if a future change
also shrinks the measured work.
"""

from __future__ import annotations

import time

from repro.cache.policies import WRITE_THROUGH
from repro.cache.sweep import cache_size_policy_sweep
from repro.parallel.packed import cached_packed_stream, simulate_packed
from repro.parallel.veccache import stack_curve_numpy

#: ~320 geometrically spaced capacities from one block to 16 MB — the
#: grid density at which one replay per size is hopeless and a
#: whole-curve kernel pays off.
DENSE_CAPS = sorted({round(4096 ** (i / 511)) for i in range(512)})
DENSE_SIZES = tuple(c * 4096 for c in DENSE_CAPS)

#: A write-through miss-ratio sweep: 20 cache sizes, one policy, one
#: curve job.
WT_SWEEP_SIZES = tuple(sorted(
    {(16 << 10) * (1 << i) for i in range(10)}
    | {(24 << 10) * (1 << i) for i in range(10)}
))


def _best_of(fn, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_veccache_numpy_curve_speedup(trace, benchmark):
    """Acceptance + gate: the dense-grid curve, bit-identical to one
    packed replay per size at the grid's ends and middle."""
    packed = cached_packed_stream(trace, 4096)
    curve = benchmark.pedantic(
        stack_curve_numpy, args=(packed, DENSE_SIZES), rounds=3, iterations=1,
    )
    for size in (DENSE_SIZES[0], DENSE_SIZES[len(DENSE_SIZES) // 2],
                 DENSE_SIZES[-1]):
        ref = simulate_packed(packed, size, WRITE_THROUGH)
        assert curve.metrics(size) == ref.metrics, f"diverged at {size}"
    benchmark.extra_info["sizes"] = len(DENSE_SIZES)
    if benchmark.stats is not None:
        benchmark.extra_info["accesses_per_s"] = round(
            packed.n_accesses / benchmark.stats.stats.min
        )


def _wt_sweep(trace, jobs):
    return cache_size_policy_sweep(
        trace,
        cache_sizes=WT_SWEEP_SIZES,
        policies=(WRITE_THROUGH,),
        jobs=jobs,
    )


def test_veccache_sweep_numpy(trace, benchmark):
    """Acceptance + gate: the write-through sweep at ``jobs=4`` equals
    the ``jobs=1`` sweep."""
    _wt_sweep(trace, 1)  # warm memos

    t_serial, serial = _best_of(lambda: _wt_sweep(trace, 1))
    t_fast, fast = _best_of(lambda: _wt_sweep(trace, 4))
    assert fast.results == serial.results, "jobs=4 sweep diverged"
    speedup = t_serial / t_fast
    print(f"jobs=1 {t_serial * 1e3:.1f} ms  jobs=4 {t_fast * 1e3:.1f} ms  "
          f"({speedup:.1f}x)")

    sweep = benchmark.pedantic(
        lambda: _wt_sweep(trace, 4), rounds=3, iterations=1,
    )
    packed = cached_packed_stream(trace, 4096)
    benchmark.extra_info["configs"] = len(sweep.results)
    benchmark.extra_info["speedup_vs_serial"] = round(speedup, 1)
    if benchmark.stats is not None:
        benchmark.extra_info["accesses_per_s"] = round(
            len(sweep.results) * packed.n_accesses / benchmark.stats.stats.min
        )
