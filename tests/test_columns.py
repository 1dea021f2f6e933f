"""Tests for the columnar trace store."""

import pytest

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
