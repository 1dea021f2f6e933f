"""Bench: the out-of-core corpus — pack, streamed analyze, bounded memory.

Two jobs ride here, mirroring ``test_streaming.py``:

* **Timing** — ``test_corpus_pack_throughput`` and
  ``test_corpus_streamed_analyze_throughput`` record their rates.  They
  have no committed baseline: the pipeline benchmark
  (``benchmarks/pipeline``) times ``corpus.validate`` and
  ``corpus.analyze`` end to end.
* **Acceptance** — ``test_corpus_streaming_memory_bounded`` asserts the
  streamed analyzer's peak Python heap stays far below the corpus size:
  the whole point of segment streaming is that analyzing N events costs
  O(segment + distinct ids), not O(N).

Scale: the default run packs ``BASE_EVENTS * REPEATS`` (~200k) events so
CI stays fast.  Set ``BENCH_CORPUS_FULL=1`` to run the acceptance scale
(10^7 events, one timed round) — the bounded-memory assertion and the
events/s numbers are the ISSUE's 10^7-event criterion.
"""

from __future__ import annotations

import os
import random
import tracemalloc
from array import array

import pytest

from repro.corpus import CorpusReader, CorpusWriter, analyze_corpus, validate_corpus
from repro.fuzz.gen import random_trace
from repro.trace.columns import TraceColumns

FULL = os.environ.get("BENCH_CORPUS_FULL") == "1"

#: One block of well-formed events, tiled to reach the target scale.
BASE_EVENTS = 50_000
REPEATS = 200 if FULL else 4
ROUNDS = 1 if FULL else 3
SEGMENT_EVENTS = 65_536


@pytest.fixture(scope="module")
def base_columns() -> TraceColumns:
    log = random_trace(random.Random("bench-corpus"), BASE_EVENTS)
    return TraceColumns.from_log(log)


@pytest.fixture(scope="module")
def tiles(base_columns) -> list[TraceColumns]:
    """*base_columns* repeated end to end, each copy shifted in time past
    the previous one.  Sorted times keep the corpus on the numpy
    collector's streaming path; unshifted copies would make it decline
    (unsorted timestamps) and fall back to loading the whole corpus."""
    base = base_columns
    span = base.times[-1] - base.times[0] + 1.0
    return [
        TraceColumns(
            name=base.name,
            kinds=base.kinds,
            times=array("d", (t + k * span for t in base.times)),
            open_ids=base.open_ids,
            file_ids=base.file_ids,
            user_ids=base.user_ids,
            sizes=base.sizes,
            positions=base.positions,
            flags=base.flags,
        )
        for k in range(REPEATS)
    ]


def _pack(tiles: list[TraceColumns], path: str) -> int:
    with CorpusWriter(path, name="bench", segment_events=SEGMENT_EVENTS) as w:
        for tile in tiles:
            w.append_columns(tile)
        events = w.events_written
    return events


@pytest.fixture(scope="module")
def corpus_path(tiles, tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("corpus") / "bench.bcorpus")
    _pack(tiles, path)
    return path


def test_corpus_pack_throughput(base_columns, tiles, tmp_path, benchmark):
    """Timed, no baseline: bulk column packing, events/s to disk."""
    out = tmp_path / "pack.bcorpus"
    events = benchmark.pedantic(
        lambda: _pack(tiles, str(out)), rounds=ROUNDS, iterations=1
    )
    benchmark.extra_info["events"] = events
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["events_per_s"] = round(
            events / benchmark.stats.stats.min
        )
    assert events == len(base_columns) * REPEATS


def test_corpus_streamed_analyze_throughput(corpus_path, benchmark):
    """Timed, no baseline: the full one-pass report off the corpus,
    segment-streamed (mmap + zero-copy views), events/s per core."""
    with CorpusReader(corpus_path) as reader:
        events = len(reader)
    report = benchmark.pedantic(
        lambda: analyze_corpus(corpus_path), rounds=ROUNDS, iterations=1
    )
    benchmark.extra_info["events"] = events
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["events_per_s"] = round(
            events / benchmark.stats.stats.min
        )
    assert report.activity.total_bytes > 0


def _traced_peak(fn):
    tracemalloc.start()
    result = fn()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, peak


def test_corpus_streaming_memory_bounded(corpus_path, bench_once):
    """Acceptance: the streamed passes never materialize the corpus.

    ``verify`` + ``validate`` are strictly O(segment + live opens):
    their peak heap is bounded far below the corpus size.  ``analyze``
    necessarily returns an O(accesses) report (it *contains* the access
    and transfer lists), so for it the assertion is comparative: the
    streamed pass must peak below the in-RAM pass, which pays the same
    report *plus* the fully materialized columns.
    """
    corpus_bytes = os.path.getsize(corpus_path)
    with CorpusReader(corpus_path) as reader:
        expected_events = len(reader)

    def checked():
        with CorpusReader(corpus_path) as reader:
            reader.verify()
        return validate_corpus(corpus_path)

    report, checked_peak = _traced_peak(lambda: bench_once(checked))
    assert report.event_count == expected_events
    # One segment of column data is ~3.2 MB; allow a couple of segments'
    # worth of working set — far below the file itself.
    assert checked_peak < max(corpus_bytes / 4, 8 * 1024 * 1024), (
        f"verify+validate peaked at {checked_peak} bytes for a "
        f"{corpus_bytes}-byte corpus"
    )

    _streamed, streamed_peak = _traced_peak(
        lambda: analyze_corpus(corpus_path)
    )

    def in_ram():
        from repro.analysis.onepass import analyze_onepass
        from repro.corpus import read_corpus_columns

        return analyze_onepass(read_corpus_columns(corpus_path))

    _materialized, in_ram_peak = _traced_peak(in_ram)
    assert streamed_peak < in_ram_peak, (
        f"streamed analyze peaked at {streamed_peak} bytes, in-RAM at "
        f"{in_ram_peak}"
    )
    print(
        f"{expected_events} events, corpus {corpus_bytes / 1e6:.1f} MB: "
        f"verify+validate peak {checked_peak / 1e6:.1f} MB, analyze peak "
        f"{streamed_peak / 1e6:.1f} MB streamed vs "
        f"{in_ram_peak / 1e6:.1f} MB in-RAM"
    )
