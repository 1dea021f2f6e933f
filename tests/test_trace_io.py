"""Tests for the text and binary trace serializations."""

import io

import pytest

from repro.trace.columns import TraceColumns
from repro.trace.io_binary import (
    _FLUSH_BYTES,
    MAX_TRACE_TIME,
    BinaryTraceError,
    BinaryTraceWriter,
    iter_binary,
    read_binary,
    read_binary_columns,
    write_binary,
    write_binary_columns,
)
from repro.trace.io_text import (
    TraceFormatError,
    format_event,
    iter_text,
    parse_event_line,
    read_text,
    write_text,
)
from repro.trace.log import TraceLog
from repro.trace.records import (
    AccessMode,
    CloseEvent,
    CreateEvent,
    ExecEvent,
    OpenEvent,
    SeekEvent,
    TruncateEvent,
    UnlinkEvent,
)

ALL_EVENT_SAMPLES = [
    OpenEvent(time=1.25, open_id=7, file_id=3, user_id=2, size=4096,
              mode=AccessMode.READ_WRITE, created=True, new_file=True,
              initial_pos=4096),
    CloseEvent(time=2.5, open_id=7, final_pos=8192),
    SeekEvent(time=2.0, open_id=7, prev_pos=100, new_pos=4000),
    CreateEvent(time=0.5, file_id=3, user_id=2),
    UnlinkEvent(time=3.0, file_id=3),
    TruncateEvent(time=3.5, file_id=4, new_length=1024),
    ExecEvent(time=4.0, file_id=5, user_id=2, size=65536),
]


def sample_log() -> TraceLog:
    return TraceLog.from_events(ALL_EVENT_SAMPLES, name="io-test",
                                description="round trip sample")


class TestTextFormat:
    @pytest.mark.parametrize("event", ALL_EVENT_SAMPLES, ids=lambda e: e.kind)
    def test_event_round_trip(self, event):
        assert parse_event_line(format_event(event)) == event

    def test_log_round_trip_via_file(self, tmp_path):
        path = tmp_path / "t.trace"
        log = sample_log()
        write_text(log, str(path))
        loaded = read_text(str(path))
        assert loaded.name == "io-test"
        assert loaded.description == "round trip sample"
        assert loaded.events == log.events

    def test_log_round_trip_via_stream(self):
        buf = io.StringIO()
        write_text(sample_log(), buf)
        buf.seek(0)
        assert read_text(buf).events == sample_log().events

    def test_iter_text_streams_events(self):
        buf = io.StringIO()
        write_text(sample_log(), buf)
        buf.seek(0)
        assert list(iter_text(buf)) == sample_log().events

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n" + format_event(ALL_EVENT_SAMPLES[4]) + "\n"
        log = read_text(io.StringIO(text))
        assert len(log) == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown event kind"):
            parse_event_line("mystery\t1.0\t2")

    def test_malformed_record_rejected(self):
        with pytest.raises(TraceFormatError, match="malformed"):
            parse_event_line("open\t1.0\tnot-an-int")

    def test_times_written_with_tick_precision(self):
        line = format_event(UnlinkEvent(time=1.239, file_id=1))
        assert "\t1.24\t" in line


class TestBinaryFormat:
    def test_log_round_trip_via_file(self, tmp_path):
        path = tmp_path / "t.btrace"
        log = sample_log()
        write_binary(log, str(path))
        loaded = read_binary(str(path))
        assert loaded.name == log.name
        assert loaded.description == log.description
        assert loaded.events == log.events

    def test_round_trip_via_stream(self):
        buf = io.BytesIO()
        write_binary(sample_log(), buf)
        buf.seek(0)
        assert read_binary(buf).events == sample_log().events

    def test_bad_magic_rejected(self):
        with pytest.raises(BinaryTraceError, match="magic"):
            read_binary(io.BytesIO(b"NOTATRACEFILE ..."))

    def test_truncated_file_rejected(self):
        buf = io.BytesIO()
        write_binary(sample_log(), buf)
        data = buf.getvalue()
        with pytest.raises(BinaryTraceError, match="truncated"):
            read_binary(io.BytesIO(data[: len(data) - 3]))

    def test_binary_is_smaller_than_text(self):
        events = ALL_EVENT_SAMPLES * 100
        log = TraceLog.from_events(events)
        tbuf = io.StringIO()
        write_text(log, tbuf)
        bbuf = io.BytesIO()
        write_binary(log, bbuf)
        assert len(bbuf.getvalue()) < len(tbuf.getvalue().encode())

    def test_empty_log_round_trips(self):
        buf = io.BytesIO()
        write_binary(TraceLog(name="empty"), buf)
        buf.seek(0)
        loaded = read_binary(buf)
        assert loaded.name == "empty"
        assert len(loaded) == 0


class TestTimeEncoding:
    """The u32 centisecond field: overflow rejection and quantization."""

    @staticmethod
    def _log_at(time: float) -> TraceLog:
        return TraceLog.from_events(
            [UnlinkEvent(time=time, file_id=1)], name="clock"
        )

    def test_max_time_round_trips(self):
        buf = io.BytesIO()
        write_binary(self._log_at(MAX_TRACE_TIME), buf)
        buf.seek(0)
        assert read_binary(buf).events[0].time == pytest.approx(
            MAX_TRACE_TIME
        )

    def test_overflowing_time_rejected(self):
        with pytest.raises(BinaryTraceError, match="centisecond"):
            write_binary(self._log_at(MAX_TRACE_TIME + 0.01), io.BytesIO())

    def test_negative_time_rejected(self):
        with pytest.raises(BinaryTraceError, match="centisecond"):
            write_binary(self._log_at(-1.0), io.BytesIO())

    def test_columns_writer_rejects_overflow_too(self):
        cols = TraceColumns.from_log(self._log_at(MAX_TRACE_TIME + 1.0))
        with pytest.raises(BinaryTraceError, match="centisecond"):
            write_binary_columns(cols, io.BytesIO())

    def test_incremental_writer_rejects_overflow_too(self):
        with BinaryTraceWriter(io.BytesIO(), name="t") as writer:
            with pytest.raises(BinaryTraceError, match="centisecond"):
                writer.write(UnlinkEvent(time=MAX_TRACE_TIME + 1.0, file_id=1))

    def test_error_names_the_offending_time(self):
        with pytest.raises(BinaryTraceError, match="rebase the trace clock"):
            write_binary(self._log_at(1e12), io.BytesIO())

    def test_round_trip_keeps_times_monotone_at_10ms_boundary(self):
        # Times already on the 10 ms grid can still differ in the last
        # bit from the decoded cs/100.0 value; what must hold is that a
        # non-decreasing trace stays non-decreasing after a round trip,
        # and that a second round trip is byte-identical to the first.
        times = [round(k * 0.01, 10) for k in range(0, 2000, 7)]
        log = TraceLog.from_events(
            [UnlinkEvent(time=t, file_id=k) for k, t in enumerate(times)],
            name="grid",
        )
        buf = io.BytesIO()
        write_binary(log, buf)
        buf.seek(0)
        once = read_binary(buf)
        decoded = [e.time for e in once.events]
        assert all(a <= b for a, b in zip(decoded, decoded[1:]))
        again = io.BytesIO()
        write_binary(once, again)
        assert again.getvalue() == buf.getvalue()


class TestTruncationDiagnostics:
    """Damaged binary traces must be diagnosed with byte offsets, never a
    bare struct.error / IndexError."""

    @staticmethod
    def _bytes() -> bytes:
        buf = io.BytesIO()
        write_binary(sample_log(), buf)
        return buf.getvalue()

    def test_header_truncation_names_field_and_offset(self):
        data = self._bytes()
        with pytest.raises(BinaryTraceError, match=r"the magic at byte 0"):
            read_binary(io.BytesIO(data[:3]))
        # Magic is 8 bytes; cutting right after it starves the name
        # length field.
        with pytest.raises(
            BinaryTraceError, match=r"the name length at byte 8"
        ):
            read_binary(io.BytesIO(data[:8]))
        with pytest.raises(
            BinaryTraceError, match=r"the trace name at byte 10"
        ):
            read_binary(io.BytesIO(data[:12]))

    def test_event_truncation_names_offset(self):
        data = self._bytes()
        # Cutting mid-record starves a fixed-width field read; the
        # diagnostic names the file offset where bytes ran out.
        with pytest.raises(
            BinaryTraceError, match=r"wanted \d+ bytes for .* at byte \d+"
        ):
            read_binary(io.BytesIO(data[: len(data) - 3]))
        # Cutting exactly at a record boundary starves the next tag and
        # names the event ordinal too.  The boundary is where a file
        # holding only the first six events would end (the header is the
        # same size: only the count value differs).
        six = io.BytesIO()
        write_binary(
            TraceLog.from_events(
                ALL_EVENT_SAMPLES[:6], name="io-test",
                description="round trip sample",
            ),
            six,
        )
        cut = len(six.getvalue())
        with pytest.raises(
            BinaryTraceError, match=r"the tag of event 7 of 7 at byte \d+"
        ):
            read_binary(io.BytesIO(data[:cut]))

    def test_columnar_reader_reports_offsets_too(self):
        data = self._bytes()
        with pytest.raises(
            BinaryTraceError, match=r"event \d+ of 7 is incomplete at byte \d+"
        ):
            read_binary_columns(io.BytesIO(data[: len(data) - 3]))

    def test_inflated_count_is_a_diagnostic_not_memoryerror(self):
        import struct as _struct

        log = sample_log()
        raw = bytearray(self._bytes())
        # The u32 count follows magic, u16+name, u16+desc.
        name = log.name.encode()
        desc = log.description.encode()
        idx = raw.index(name) + len(name) + 2 + len(desc)
        _struct.pack_into("<I", raw, idx, 10_000_000)
        with pytest.raises(BinaryTraceError, match="header claims 10000000"):
            read_binary_columns(io.BytesIO(bytes(raw)))


class TestIterBinary:
    """The streaming event reader behind corpus packing."""

    def _path(self, tmp_path) -> str:
        path = tmp_path / "t.btrace"
        write_binary(sample_log(), str(path))
        return str(path)

    def test_streams_same_events_as_read_binary(self, tmp_path):
        path = self._path(tmp_path)
        with iter_binary(path) as stream:
            assert stream.name == "io-test"
            assert stream.description == "round trip sample"
            assert stream.count == 7
            assert list(stream) == read_binary(path).events

    def test_accepts_open_file_object(self):
        buf = io.BytesIO()
        write_binary(sample_log(), buf)
        buf.seek(0)
        stream = iter_binary(buf)
        assert list(stream) == sample_log().events
        stream.close()
        assert not buf.closed  # not owned, so not closed

    def test_owned_handle_closed_on_exit(self, tmp_path):
        path = self._path(tmp_path)
        with iter_binary(path) as stream:
            fh = stream._fh
        assert fh.closed

    def test_truncation_mid_stream_is_diagnosed(self, tmp_path):
        path = tmp_path / "cut.btrace"
        buf = io.BytesIO()
        write_binary(sample_log(), buf)
        path.write_bytes(buf.getvalue()[:-3])
        with iter_binary(str(path)) as stream:
            with pytest.raises(
                BinaryTraceError, match=r"wanted \d+ bytes for .* at byte \d+"
            ):
                list(stream)

    def test_bad_header_closes_owned_handle(self, tmp_path):
        path = tmp_path / "bad.btrace"
        path.write_bytes(b"NOTATRACE")
        with pytest.raises(BinaryTraceError, match="magic"):
            iter_binary(str(path))


def _iter_all(path):
    with iter_binary(path) as stream:
        return list(stream)


#: Every .btrace reader, as a path -> events function.
_BTRACE_READERS = {
    "read_binary": lambda path: read_binary(path).events,
    "read_binary_columns": lambda path: read_binary_columns(path).to_log().events,
    "iter_binary": _iter_all,
}


class TestTornTrace:
    """A writer that dies before ``close()`` leaves the header count at 0
    with records after it; every reader must say so, not return nothing."""

    @pytest.mark.parametrize("reader", _BTRACE_READERS)
    def test_unclosed_writer_is_an_error_not_an_empty_trace(self, tmp_path, reader):
        path = tmp_path / "torn.btrace"
        writer = BinaryTraceWriter(str(path), name="torn")
        try:
            for event in ALL_EVENT_SAMPLES * (_FLUSH_BYTES // 80):  # > 2 MB
                writer.write(event)
            writer._fh.flush()  # a buffer flush has reached the file
            assert path.stat().st_size > _FLUSH_BYTES
            with pytest.raises(
                BinaryTraceError, match=r"payload left after the 0 events .* at byte \d+"
            ):
                _BTRACE_READERS[reader](str(path))
        finally:
            writer._fh.close()

    @pytest.mark.parametrize("reader", _BTRACE_READERS)
    def test_closed_writer_reads_back(self, tmp_path, reader):
        path = tmp_path / "whole.btrace"
        with BinaryTraceWriter(str(path), name="whole") as writer:
            for event in ALL_EVENT_SAMPLES:
                writer.write(event)
        assert _BTRACE_READERS[reader](str(path)) == ALL_EVENT_SAMPLES

    def test_trailing_bytes_name_their_offset(self):
        buf = io.BytesIO()
        end = write_binary(sample_log(), buf)
        data = buf.getvalue() + b"\x00"
        with pytest.raises(BinaryTraceError, match=f"at byte {end}"):
            read_binary(io.BytesIO(data))
        with pytest.raises(BinaryTraceError, match=f"at byte {end}"):
            read_binary_columns(io.BytesIO(data))
