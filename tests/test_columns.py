"""Tests for the columnar trace store."""

import collections
import copy
import gc
import pickle

import pytest

from repro.analysis.onepass import analyze_onepass
from repro.cache.stream import cached_stream
from repro.cache.sweep import cache_size_policy_sweep
from repro.corpus import (
    analyze_corpus,
    pack_trace,
    read_corpus_columns,
    validate_corpus,
)
from repro.parallel.packed import cached_packed_stream
from repro.trace.columns import (
    KIND_LABELS,
    KIND_OPEN,
    TraceColumns,
    cached_columns,
)
from repro.trace.log import TraceLog
from repro.trace.records import AccessMode, OpenEvent

from .test_trace_io import sample_log


class TestColumnarView:
    def test_round_trips_every_event_kind(self):
        log = sample_log()
        cols = TraceColumns.from_log(log)
        assert len(cols) == len(log.events)
        back = cols.to_log()
        assert back.events == log.events
        assert back.name == log.name
        assert back.description == log.description

    def test_lazy_events_match_eager(self, small_trace):
        cols = TraceColumns.from_log(small_trace)
        assert cols.event(0) == small_trace.events[0]
        assert cols.event(len(cols) - 1) == small_trace.events[-1]
        assert list(cols) == small_trace.events

    def test_times_are_exact_floats(self, small_trace):
        cols = TraceColumns.from_log(small_trace)
        assert [e.time for e in small_trace.events] == list(cols.times)

    def test_derived_properties_match_log(self, small_trace):
        cols = TraceColumns.from_log(small_trace)
        assert cols.start_time == small_trace.start_time
        assert cols.end_time == small_trace.end_time
        assert cols.duration == small_trace.duration

    def test_kind_counts(self):
        cols = TraceColumns.from_log(sample_log())
        for label in KIND_LABELS.values():
            expected = sum(1 for e in sample_log().events if e.kind == label)
            assert cols.count(label) == expected
        assert cols.count("no-such-kind") == 0

    def test_empty_log(self):
        cols = TraceColumns.from_log(TraceLog(name="empty"))
        assert len(cols) == 0
        assert cols.start_time == 0.0
        assert cols.duration == 0.0
        assert cols.to_log().events == []

    def test_open_flags_preserved(self):
        for created in (False, True):
            for new_file in (False, True):
                for mode in AccessMode:
                    event = OpenEvent(time=1.0, open_id=1, file_id=2,
                                      user_id=3, size=10, mode=mode,
                                      created=created, new_file=new_file,
                                      initial_pos=4)
                    cols = TraceColumns.from_log(
                        TraceLog(name="t", events=[event])
                    )
                    assert cols.event(0) == event

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            TraceColumns(kinds=bytes([KIND_OPEN]))

    def test_columns_much_smaller_than_objects(self, small_trace):
        cols = TraceColumns.from_log(small_trace)
        # ~49 bytes/row of column data vs hundreds per event object.
        assert cols.nbytes() < 64 * len(cols)

    def test_cached_columns_memoized(self, small_trace):
        assert cached_columns(small_trace) is cached_columns(small_trace)


class TestLoadedLog:
    """A log read from a corpus keeps its columns until ``events`` is read."""

    @pytest.fixture
    def loaded(self, small_trace, tmp_path):
        path = tmp_path / "small.bcorpus"
        pack_trace(small_trace, path)
        return read_corpus_columns(path)

    @pytest.fixture
    def built(self, monkeypatch):
        """The rows whose event objects get built."""
        rows = []
        event = TraceColumns.event

        def counting(cols, i):
            rows.append(i)
            return event(cols, i)

        monkeypatch.setattr(TraceColumns, "event", counting)
        return rows

    def test_paper_path_builds_no_event(self, loaded, built, small_trace):
        log = loaded.to_log()
        assert len(log) == len(small_trace)
        assert log.start_time == small_trace.start_time
        assert log.end_time == small_trace.end_time
        assert log.summary_line() == small_trace.summary_line()
        assert log.count("open") == small_trace.count("open")
        assert cached_columns(log) is loaded
        assert list(cached_stream(log)) == list(cached_stream(small_trace))
        packed = cached_packed_stream(log, 4096)
        assert packed == cached_packed_stream(small_trace, 4096)
        sweep = cache_size_policy_sweep(log, jobs=1)
        assert sweep.results == cache_size_policy_sweep(small_trace, jobs=1).results
        assert analyze_onepass(log).render() == analyze_onepass(small_trace).render()
        assert log.columns is loaded
        assert built == []

    def test_paper_path_leaves_no_cyclic_garbage(self, small_trace, tmp_path):
        # The chain as the pipeline benchmark's paper-a5 round calls it.
        # Whatever it makes must be freed at its last reference: a cycle
        # waits for a generation-2 collection and holds the trace's
        # arrays until then.
        path = tmp_path / "small.bcorpus"
        pack_trace(small_trace, path)

        def chain():
            assert validate_corpus(path).ok
            analyze_corpus(path).render()
            log = read_corpus_columns(path).to_log()
            for _ in cached_stream(log):
                pass
            cached_packed_stream(log, 4096)
            cache_size_policy_sweep(log, jobs=2, replacement="lru")

        chain()  # first calls may import, and imports leave cycles
        gc.collect()
        gc.disable()
        try:
            chain()
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = collections.Counter(type(o).__name__ for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == {}

    def test_events_equal_the_generated_trace(self, loaded, small_trace):
        log = loaded.to_log()
        assert log.events == small_trace.events
        assert log.columns is None  # now an ordinary event-backed log
        assert log == small_trace
        assert repr(log) == repr(small_trace)

    def test_products_rebuilt_once_after_events_are_built(self, loaded):
        log = loaded.to_log()
        before = cached_packed_stream(log, 4096)
        log.events
        after = cached_packed_stream(log, 4096)
        assert after is not before
        assert after == before
        assert cached_packed_stream(log, 4096) is after

    @pytest.mark.parametrize("read_events", [False, True])
    def test_copies_round_trip(self, loaded, small_trace, read_events):
        log = loaded.to_log()
        if read_events:
            log.events
        copies = [copy.deepcopy(log), pickle.loads(pickle.dumps(log))]
        for other in copies:
            assert (other.columns is None) == read_events
            assert other == small_trace
        assert log == small_trace
