"""Tests for the cache simulator's input stream builder."""

import pytest

from repro.analysis.accesses import Transfer
from repro.analysis.vectorized import build_stream_numpy
from repro.cache.stream import (
    _SLICE_ROWS,
    Invalidation,
    StreamArrays,
    build_stream,
    cached_stream,
)
from repro.corpus import pack_trace, read_corpus_columns
from repro.parallel.packed import pack_stream, pack_stream_python
from repro.trace.columns import TraceColumns
from repro.trace.log import TraceLog
from repro.trace.records import (
    AccessMode,
    CloseEvent,
    ExecEvent,
    OpenEvent,
    SeekEvent,
    TruncateEvent,
    UnlinkEvent,
)


def _open(t, oid, fid=None, size=0, mode=AccessMode.READ, created=False, pos=0):
    return OpenEvent(time=t, open_id=oid, file_id=fid if fid is not None else oid,
                     user_id=1, size=size, mode=mode, created=created,
                     initial_pos=pos)


def _agree(log, include_paging=False):
    """The stream kernel's items and packed rows equal the
    specification's; returns the specification's items."""
    ref = build_stream(log, include_paging=include_paging)
    arrays = build_stream_numpy(TraceColumns.from_log(log), include_paging)
    assert list(arrays) == ref
    for bs in (1, 100, 4096):
        expected = pack_stream_python(ref, bs, start_time=log.start_time)
        assert pack_stream(arrays, bs, start_time=log.start_time) == expected
    return ref


def test_whole_read_becomes_one_transfer():
    log = TraceLog.from_events([
        _open(0.0, 1, size=5000),
        CloseEvent(time=1.0, open_id=1, final_pos=5000),
    ])
    (item,) = _agree(log)
    assert isinstance(item, Transfer)
    assert (item.start, item.end, item.is_write) == (0, 5000, False)
    assert item.time == 1.0


def test_seek_yields_two_transfers_in_order():
    log = TraceLog.from_events([
        _open(0.0, 1, size=100_000),
        SeekEvent(time=0.5, open_id=1, prev_pos=1000, new_pos=50_000),
        CloseEvent(time=1.0, open_id=1, final_pos=51_000),
    ])
    items = _agree(log)
    assert [i.time for i in items] == [0.5, 1.0]
    assert (items[0].start, items[0].end) == (0, 1000)
    assert (items[1].start, items[1].end) == (50_000, 51_000)


def test_creating_open_emits_invalidation_before_its_data():
    log = TraceLog.from_events([
        _open(0.0, 1, fid=7, size=0, mode=AccessMode.WRITE, created=True),
        CloseEvent(time=0.0, open_id=1, final_pos=1000),  # same tick
    ])
    items = _agree(log)
    assert isinstance(items[0], Invalidation)
    assert items[0].from_byte == 0
    assert isinstance(items[1], Transfer)


def test_unlink_and_truncate_become_invalidations():
    log = TraceLog.from_events([
        UnlinkEvent(time=1.0, file_id=3),
        TruncateEvent(time=2.0, file_id=4, new_length=8192),
    ])
    items = _agree(log)
    assert items[0] == Invalidation(1.0, 3, 0)
    assert items[1] == Invalidation(2.0, 4, 8192)


def test_read_write_mode_marks_write():
    log = TraceLog.from_events([
        _open(0.0, 1, size=100, mode=AccessMode.READ_WRITE),
        CloseEvent(time=1.0, open_id=1, final_pos=60),
    ])
    (item,) = _agree(log)
    assert item.is_write


def test_exec_ignored_without_paging_flag():
    log = TraceLog.from_events([ExecEvent(time=1.0, file_id=5, user_id=1, size=4096)])
    assert _agree(log) == []


def test_exec_becomes_whole_file_read_with_paging():
    log = TraceLog.from_events([ExecEvent(time=1.0, file_id=5, user_id=1, size=4096)])
    (item,) = _agree(log, include_paging=True)
    assert isinstance(item, Transfer)
    assert (item.start, item.end, item.is_write) == (0, 4096, False)


def test_zero_size_exec_skipped_with_paging():
    log = TraceLog.from_events([ExecEvent(time=1.0, file_id=5, user_id=1, size=0)])
    assert _agree(log, include_paging=True) == []


def test_stream_is_time_sorted(small_trace):
    items = build_stream(small_trace)
    times = [i.time for i in items]
    assert times == sorted(times)


def test_zero_byte_runs_not_emitted():
    log = TraceLog.from_events([
        _open(0.0, 1, size=100),
        CloseEvent(time=1.0, open_id=1, final_pos=0),
    ])
    assert _agree(log) == []


# -- the stream kernel on inputs random_trace never draws ---------------------


def test_kernel_skips_seek_and_close_without_open():
    # What slicing leaves when the open fell before the window.
    log = TraceLog.from_events([
        SeekEvent(time=0.5, open_id=1, prev_pos=100, new_pos=0),
        CloseEvent(time=1.0, open_id=1, final_pos=200),
        _open(2.0, 2, size=10),
        CloseEvent(time=3.0, open_id=2, final_pos=10),
    ])
    (item,) = _agree(log)
    assert (item.file_id, item.end, item.time) == (2, 10, 3.0)


def test_kernel_bills_a_second_close_nothing():
    log = TraceLog.from_events([
        _open(0.0, 1, size=100),
        CloseEvent(time=1.0, open_id=1, final_pos=100),
        CloseEvent(time=2.0, open_id=1, final_pos=300),
    ])
    (item,) = _agree(log)
    assert (item.start, item.end) == (0, 100)


def test_kernel_reopened_id_starts_a_new_session():
    # The second open replaces the live session: its run starts at the
    # new open's position, and it bills to the new open's file and mode.
    log = TraceLog.from_events([
        _open(0.0, 1, fid=5, size=1000),
        SeekEvent(time=1.0, open_id=1, prev_pos=500, new_pos=800),
        _open(2.0, 1, fid=6, size=50, mode=AccessMode.WRITE, pos=20),
        CloseEvent(time=3.0, open_id=1, final_pos=70),
    ])
    first, second = _agree(log)
    assert (first.file_id, first.start, first.end, first.is_write) == (
        5, 0, 500, False,
    )
    assert (second.file_id, second.start, second.end, second.is_write) == (
        6, 20, 70, True,
    )


def test_kernel_skips_seek_after_close():
    log = TraceLog.from_events([
        _open(0.0, 1, size=100),
        CloseEvent(time=1.0, open_id=1, final_pos=40),
        SeekEvent(time=2.0, open_id=1, prev_pos=90, new_pos=0),
    ])
    (item,) = _agree(log)
    assert (item.end, item.time) == (40, 1.0)


def test_kernel_orders_one_tick_by_row():
    log = TraceLog.from_events([
        _open(1.0, 1, fid=3, size=0, mode=AccessMode.WRITE, created=True),
        _open(1.0, 2, fid=4, size=100),
        CloseEvent(time=1.0, open_id=2, final_pos=100),
        UnlinkEvent(time=1.0, file_id=4),
        CloseEvent(time=1.0, open_id=1, final_pos=10),
    ])
    items = _agree(log)
    assert [type(i).__name__ for i in items] == [
        "Invalidation", "Transfer", "Invalidation", "Transfer",
    ]
    assert [i.file_id for i in items] == [3, 4, 4, 3]


def test_kernel_sorts_a_time_that_goes_backwards():
    log = TraceLog(events=[
        _open(0.0, 1, size=100),
        CloseEvent(time=5.0, open_id=1, final_pos=100),
        UnlinkEvent(time=2.0, file_id=1),
        TruncateEvent(time=5.0, file_id=1, new_length=10),
    ])
    items = _agree(log)
    assert [i.time for i in items] == [2.0, 5.0, 5.0]
    assert isinstance(items[1], Transfer)


def test_ids_past_int64_take_the_specification():
    # A text trace can hold any integer; the int64 columns cannot.
    log = TraceLog.from_events([
        OpenEvent(time=0.0, open_id=1, file_id=7, user_id=1 << 70, size=10,
                  mode=AccessMode.READ, initial_pos=0),
        CloseEvent(time=1.0, open_id=1, final_pos=10),
    ])
    stream = cached_stream(log)
    assert type(stream) is list  # the memo holds build_stream's list
    assert stream == build_stream(log)


def test_nan_times_take_the_specification():
    # The kernel's stable sort is the (time, row) order only when no
    # time is NaN.
    log = TraceLog(events=[
        _open(0.0, 1, size=10),
        UnlinkEvent(time=float("nan"), file_id=2),
        CloseEvent(time=1.0, open_id=1, final_pos=10),
    ])
    stream = cached_stream(log)
    assert type(stream) is list
    assert repr(stream) == repr(build_stream(log))  # NaN != NaN


# -- the memo: the kernel's arrays, or the specification's list ---------------


def test_memo_holds_the_kernel_arrays(small_trace, tmp_path):
    path = tmp_path / "small.bcorpus"
    pack_trace(small_trace, path)
    loaded = read_corpus_columns(path).to_log()
    for log in (loaded, small_trace):
        stream = cached_stream(log)
        assert isinstance(stream, StreamArrays)
        assert cached_stream(log) is stream


@pytest.mark.parametrize("include_paging", [False, True])
def test_memo_iterates_as_the_specification_every_time(
    medium_trace, include_paging
):
    stream = cached_stream(medium_trace, include_paging)
    assert len(stream) > _SLICE_ROWS  # more than one slice of rows
    expected = build_stream(medium_trace, include_paging=include_paging)
    assert list(stream) == expected
    assert list(stream) == expected


def test_kernel_on_an_empty_trace():
    assert _agree(TraceLog()) == []
    assert _agree(TraceLog(), include_paging=True) == []
