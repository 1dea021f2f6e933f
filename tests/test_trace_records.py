"""Tests for repro.trace.records."""

import dataclasses

import pytest

from repro.analysis.accesses import Transfer
from repro.trace.records import (
    AccessMode,
    CloseEvent,
    EVENT_KINDS,
    ExecEvent,
    OpenEvent,
    SeekEvent,
    TruncateEvent,
    UnlinkEvent,
    quantize_time,
)


class TestAccessMode:
    def test_read_is_readable_not_writable(self):
        assert AccessMode.READ.readable
        assert not AccessMode.READ.writable

    def test_write_is_writable_not_readable(self):
        assert AccessMode.WRITE.writable
        assert not AccessMode.WRITE.readable

    def test_read_write_is_both(self):
        assert AccessMode.READ_WRITE.readable
        assert AccessMode.READ_WRITE.writable

    @pytest.mark.parametrize("mode", list(AccessMode))
    def test_label_round_trip(self, mode):
        assert AccessMode.from_label(mode.label) is mode

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            AccessMode.from_label("rwx")


class TestQuantizeTime:
    def test_rounds_to_centiseconds(self):
        assert quantize_time(1.234567) == pytest.approx(1.23)

    def test_rounds_half_up_to_nearest_tick(self):
        assert quantize_time(0.015) == pytest.approx(0.02)

    def test_zero(self):
        assert quantize_time(0.0) == 0.0

    def test_already_quantized_unchanged(self):
        assert quantize_time(5.25) == pytest.approx(5.25)


class TestEventKinds:
    def test_all_seven_kinds_registered(self):
        assert set(EVENT_KINDS) == {
            "open", "close", "seek", "create", "unlink", "trunc", "exec",
        }

    def test_kind_tags_match_classes(self):
        for kind, cls in EVENT_KINDS.items():
            assert cls.kind == kind

    def test_per_event_records_are_slotted(self):
        # The seed-7 64 h A5 trace holds 396,692 events and 240,299
        # stream items: with a __dict__ per event, peak RSS after
        # .to_log() rose from 128 to 146 MB, and with one per Transfer,
        # after a cached_stream that memoized objects from 167 to
        # 178 MB.  The memo now holds arrays, but Transfers are still
        # built in bulk: by build_stream when the kernel declines, by
        # twolevel and netfs, and by every iteration of the arrays.
        unslotted = [
            cls.__name__
            for cls in (*EVENT_KINDS.values(), Transfer)
            if hasattr(cls(*[0] * len(dataclasses.fields(cls))), "__dict__")
        ]
        assert unslotted == []

    def test_events_are_frozen(self):
        event = UnlinkEvent(time=1.0, file_id=2)
        with pytest.raises(AttributeError):
            event.file_id = 3

    def test_open_event_defaults(self):
        event = OpenEvent(
            time=0.0, open_id=1, file_id=1, user_id=1, size=10,
            mode=AccessMode.READ,
        )
        assert not event.created
        assert not event.new_file
        assert event.initial_pos == 0

    def test_events_compare_by_value(self):
        a = CloseEvent(time=1.0, open_id=5, final_pos=100)
        b = CloseEvent(time=1.0, open_id=5, final_pos=100)
        assert a == b

    def test_seek_event_carries_both_positions(self):
        seek = SeekEvent(time=2.0, open_id=1, prev_pos=10, new_pos=90)
        assert (seek.prev_pos, seek.new_pos) == (10, 90)

    def test_exec_event_has_size_for_paging(self):
        ev = ExecEvent(time=1.0, file_id=3, user_id=9, size=24576)
        assert ev.size == 24576

    def test_truncate_event(self):
        ev = TruncateEvent(time=1.0, file_id=3, new_length=0)
        assert ev.new_length == 0
