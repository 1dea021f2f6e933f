"""Tests for repro.trace.validate."""

from array import array

import pytest

from repro.trace.columns import KIND_CLOSE, KIND_OPEN, TraceColumns
from repro.trace.log import TraceLog
from repro.trace.records import (
    MAX_TRACE_TIME,
    AccessMode,
    CloseEvent,
    OpenEvent,
    SeekEvent,
    TruncateEvent,
)
from repro.trace.validate import validate, validate_columns, validate_columns_python


def _open(t, oid, size=100, pos=0):
    return OpenEvent(time=t, open_id=oid, file_id=oid, user_id=1, size=size,
                     mode=AccessMode.READ, initial_pos=pos)


def test_clean_trace_passes(simple_trace):
    report = validate(simple_trace)
    assert report.ok
    assert report.event_count == len(simple_trace)
    assert report.open_count == 3
    assert report.unmatched_opens == 0


def test_unclosed_open_counted_not_flagged():
    log = TraceLog.from_events([_open(1.0, 1)])
    report = validate(log)
    assert report.ok
    assert report.unmatched_opens == 1


def test_double_open_id_flagged():
    log = TraceLog.from_events([_open(1.0, 1), _open(2.0, 1)])
    report = validate(log)
    assert not report.ok
    assert any("opened twice" in p for p in report.problems)


def test_close_unknown_open_flagged():
    log = TraceLog.from_events([CloseEvent(time=1.0, open_id=9, final_pos=0)])
    assert any("unknown open_id" in p for p in validate(log).problems)


def test_double_close_flagged():
    log = TraceLog.from_events([
        _open(1.0, 1),
        CloseEvent(time=2.0, open_id=1, final_pos=0),
        CloseEvent(time=3.0, open_id=1, final_pos=0),
    ])
    problems = validate(log).problems
    assert any("closed twice" in p for p in problems)


def test_open_id_reuse_after_close_flagged():
    log = TraceLog.from_events([
        _open(1.0, 1),
        CloseEvent(time=2.0, open_id=1, final_pos=0),
        _open(3.0, 1),
    ])
    assert any("reused after close" in p for p in validate(log).problems)


def test_seek_unknown_open_flagged():
    log = TraceLog.from_events([SeekEvent(time=1.0, open_id=5, prev_pos=0, new_pos=1)])
    assert any("unknown open_id" in p for p in validate(log).problems)


def test_time_going_backwards_flagged():
    # Bypass TraceLog.append ordering check by constructing directly.
    log = TraceLog(events=[_open(2.0, 1), CloseEvent(time=1.0, open_id=1, final_pos=0)])
    assert any("precedes" in p for p in validate(log).problems)


def test_initial_pos_beyond_size_flagged():
    log = TraceLog.from_events([_open(1.0, 1, size=10, pos=20)])
    assert any("beyond" in p for p in validate(log).problems)


def test_negative_truncate_flagged():
    log = TraceLog.from_events([TruncateEvent(time=1.0, file_id=1, new_length=-1)])
    assert any("negative" in p for p in validate(log).problems)


def test_problem_list_bounded():
    events = [CloseEvent(time=float(i), open_id=i, final_pos=0) for i in range(1, 200)]
    report = validate(TraceLog.from_events(events))
    assert len(report.problems) <= report.max_problems + 1


def test_report_str_mentions_status(simple_trace):
    assert "OK" in str(validate(simple_trace))


def test_generated_trace_validates(small_trace):
    assert validate(small_trace).ok


# -- columnar validation ----------------------------------------------------


def _columns(*rows) -> TraceColumns:
    """Build a TraceColumns from raw (kind, time, oid, fid, uid, size,
    pos, flags) tuples — lets tests construct states the event
    dataclasses cannot express (bad flags, unknown kinds)."""
    cols = list(zip(*rows)) if rows else [[]] * 8
    return TraceColumns(
        kinds=bytes(cols[0]),
        times=array("d", cols[1]),
        open_ids=array("q", cols[2]),
        file_ids=array("q", cols[3]),
        user_ids=array("q", cols[4]),
        sizes=array("q", cols[5]),
        positions=array("q", cols[6]),
        flags=bytes(cols[7]),
    )


def test_columns_view_of_clean_trace_validates(simple_trace):
    cols = TraceColumns.from_log(simple_trace)
    report = validate_columns(cols)
    assert report.ok
    assert report.event_count == len(simple_trace)
    assert report.open_count == 3


def test_validate_dispatches_on_columns(small_trace):
    cols = TraceColumns.from_log(small_trace)
    by_cols = validate(cols)
    by_log = validate(small_trace)
    assert by_cols.ok == by_log.ok
    assert by_cols.event_count == by_log.event_count
    assert by_cols.open_count == by_log.open_count
    assert by_cols.unmatched_opens == by_log.unmatched_opens


def test_columns_shared_invariants_match_object_path():
    # Same violations, same problems, whichever view is validated.
    log = TraceLog(events=[
        _open(2.0, 1),
        CloseEvent(time=1.0, open_id=1, final_pos=0),
        CloseEvent(time=1.5, open_id=9, final_pos=0),
    ])
    by_log = validate(log)
    by_cols = validate_columns(TraceColumns.from_log(log))
    assert by_cols.problems == by_log.problems


def test_time_beyond_u32_centiseconds_flagged():
    # MAX_TRACE_TIME is 2^32 - 1 ticks of the tracer's 10 ms clock.
    cols = _columns(
        (KIND_OPEN, MAX_TRACE_TIME + 1.0, 1, 1, 1, 10, 0, int(AccessMode.READ)),
    )
    problems = validate_columns(cols).problems
    assert any("outside the valid trace time range" in p for p in problems)


@pytest.mark.parametrize("time", [-1.0, float("nan")])
def test_negative_and_nan_times_flagged(time):
    cols = _columns((KIND_OPEN, time, 1, 1, 1, 10, 0, int(AccessMode.READ)))
    problems = validate_columns(cols).problems
    assert any("outside the valid trace time range" in p for p in problems)
    assert problems == validate_columns_python(cols).problems


def test_time_in_u32_range_passes():
    cols = _columns(
        (KIND_OPEN, MAX_TRACE_TIME - 1.0, 1, 1, 1, 10, 0, int(AccessMode.READ)),
    )
    assert validate_columns(cols).ok


def test_open_flag_byte_without_mode_bits_flagged():
    cols = _columns((KIND_OPEN, 1.0, 1, 1, 1, 10, 0, 0x4))
    problems = validate_columns(cols).problems
    assert any("no mode bits" in p for p in problems)


def test_open_flag_byte_with_undefined_bits_flagged():
    cols = _columns((KIND_OPEN, 1.0, 1, 1, 1, 10, 0, 0x10 | int(AccessMode.READ)))
    problems = validate_columns(cols).problems
    assert any("undefined bits" in p for p in problems)


def test_nonzero_flags_on_non_open_row_flagged():
    cols = _columns(
        (KIND_OPEN, 1.0, 1, 1, 1, 10, 0, int(AccessMode.READ)),
        (KIND_CLOSE, 2.0, 1, 0, 0, 0, 0, 0x1),
    )
    problems = validate_columns(cols).problems
    assert any("non-open row" in p for p in problems)


def test_unknown_kind_tag_flagged():
    cols = _columns((99, 1.0, 0, 0, 0, 0, 0, 0))
    problems = validate_columns(cols).problems
    assert any("unknown kind tag 99" in p for p in problems)


def test_max_problems_configurable_on_both_paths():
    events = [CloseEvent(time=float(i), open_id=i, final_pos=0)
              for i in range(1, 30)]
    log = TraceLog.from_events(events)
    capped = validate(log, max_problems=5)
    assert capped.max_problems == 5
    assert len(capped.problems) == 6  # 5 + truncation marker
    assert capped.truncated
    cols_capped = validate_columns(TraceColumns.from_log(log), max_problems=5)
    assert cols_capped.problems == capped.problems
