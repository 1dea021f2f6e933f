"""Bench: the replacement-policy zoo's packed replay throughput.

Every zoo policy (``repro.cache.replacement``) replays the bench trace
through :func:`~repro.parallel.packed.simulate_packed` over a
three-size grid (the "Table VI revisited" working set).  The replays
are pure Python, and all seven run the same loop around a policy
object, so the grid times differ by the policy's own bookkeeping.

Regression gate: ``benchmarks/check_regression.py`` compares every
benchmark here against ``benchmarks/BENCH_7.json`` (``--gate
policies``), times and ``accesses_per_s`` rates both.  The ``lru`` and
``fifo`` baselines are recorded times scaled by the measured cost of
running those two policies through the policy loop (CHANGES.md lists
the runs).
"""

from __future__ import annotations

import pytest

from repro.cache.policies import DELAYED_WRITE
from repro.cache.replacement import REPLACEMENT_NAMES
from repro.parallel.packed import cached_packed_stream, simulate_packed

#: The ranking grid of the table6rev experiment.
GRID_SIZES = (399360, 2 * 1024 * 1024, 8 * 1024 * 1024)


def _replay_grid(packed, replacement: str):
    return [
        simulate_packed(
            packed,
            size,
            DELAYED_WRITE,
            replacement=replacement,
            flush_epoch=packed.start_time,
        )
        for size in GRID_SIZES
    ]


@pytest.mark.parametrize("name", REPLACEMENT_NAMES)
def test_policy_replay_grid(trace, benchmark, name):
    """Regression-gated: one policy's delayed-write replay, three sizes."""
    packed = cached_packed_stream(trace, 4096)
    runs = benchmark.pedantic(
        _replay_grid, args=(packed, name), rounds=3, iterations=1,
    )
    accesses = packed.n_accesses * len(GRID_SIZES)
    for run in runs:
        m = run.metrics
        assert m.read_accesses + m.write_accesses == packed.n_accesses
    # Bigger caches never read more for the stack policies; for the
    # rest this still holds on the bench trace and pins the replays to
    # doing real per-size work.
    reads = [run.metrics.disk_reads for run in runs]
    assert reads == sorted(reads, reverse=True)
    benchmark.extra_info["accesses"] = accesses
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["accesses_per_s"] = round(
            accesses / benchmark.stats.stats.min
        )

