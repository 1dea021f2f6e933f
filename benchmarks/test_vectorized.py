"""Bench: the vectorized (numpy) analysis engine.

Two jobs ride here, mirroring ``test_streaming.py``:

* **Acceptance** — the vectorized analyzer on prebuilt columns must
  clear **10x** the events/s of its pure-Python reference
  (:func:`~repro.analysis.onepass.analyze_columns_python`), both
  measured here on the same columns.
* **Regression gate** — the ``test_vectorized_*`` timings are compared
  against ``benchmarks/BENCH_5.json`` by ``check_regression.py
  --gate vectorized`` in CI.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.cache.stream import build_stream
from repro.trace.columns import TraceColumns

BLOCK_SIZE = 1024


def _best_of(fn, rounds=15):
    """Minimum of *rounds* timings, GC paused — the least noise-sensitive
    statistic available for a sub-10ms kernel on a shared CI runner."""
    best = float("inf")
    result = None
    gc.disable()
    try:
        for _ in range(rounds):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best, result


@pytest.fixture(scope="session")
def columns(trace) -> TraceColumns:
    return TraceColumns.from_log(trace)


def test_vectorized_speedup_vs_python_baseline(columns):
    """Acceptance: >= 10x events/s over the Python reference."""
    from repro.analysis.onepass import analyze_columns_python
    from repro.analysis.vectorized import analyze_columns_numpy

    python_best, _ = _best_of(lambda: analyze_columns_python(columns), rounds=3)
    python_events_per_s = round(len(columns) / python_best)

    for _ in range(2):  # warm-up: first-touch numpy costs
        analyze_columns_numpy(columns)
    best, report = _best_of(lambda: analyze_columns_numpy(columns))
    assert report.accesses, "report came back empty"
    events_per_s = len(columns) / best
    speedup = events_per_s / python_events_per_s
    print(
        f"python baseline {python_events_per_s} ev/s  "
        f"vectorized {events_per_s:,.0f} ev/s  speedup {speedup:.1f}x"
    )
    assert speedup >= 10.0, (
        f"vectorized analyzer below the 10x acceptance bar: {speedup:.1f}x "
        f"({events_per_s:,.0f} vs {python_events_per_s} ev/s)"
    )


def test_vectorized_report_throughput(columns, benchmark):
    """Regression-gated: the full report, vectorized, prebuilt columns."""
    from repro.analysis.vectorized import analyze_columns_numpy

    result = benchmark.pedantic(
        lambda: analyze_columns_numpy(columns), rounds=3, iterations=1
    )
    benchmark.extra_info["events"] = len(columns)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["events_per_s"] = round(
            len(columns) / benchmark.stats.stats.min
        )
    assert result.accesses, "report came back empty"


def test_vectorized_validate_throughput(columns, benchmark):
    """Regression-gated: the whole-trace validator, vectorized."""
    from repro.analysis.vectorized import validate_columns_numpy

    result = benchmark.pedantic(
        lambda: validate_columns_numpy(columns), rounds=3, iterations=1
    )
    benchmark.extra_info["events"] = len(columns)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["events_per_s"] = round(
            len(columns) / benchmark.stats.stats.min
        )
    assert result.event_count == len(columns)


def test_vectorized_pack_throughput(trace, benchmark):
    """Regression-gated: the packed-stream compiler, vectorized."""
    from repro.analysis.vectorized import pack_stream_numpy

    stream = build_stream(trace)
    result = benchmark.pedantic(
        lambda: pack_stream_numpy(stream, BLOCK_SIZE, trace.start_time),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["stream_items"] = len(stream)
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["rows_per_s"] = round(
            len(result.ops) / benchmark.stats.stats.min
        )
    assert len(result.ops), "packed stream came back empty"
