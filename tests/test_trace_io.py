"""Tests for the text trace serialization (the binary one, ``.bcorpus``,
is tested in ``test_corpus.py``)."""

import io

import pytest

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
        text = (
            "# comment\n\n" + format_event(ALL_EVENT_SAMPLES[4]) + "\n"
            + "# end: 1 events\n"
        )
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


class TestEndLine:
    """A text trace ends with ``# end: N events``; without it, or with the
    wrong N, the readers raise rather than return a shorter trace."""

    @staticmethod
    def _text() -> str:
        buf = io.StringIO()
        write_text(sample_log(), buf)
        return buf.getvalue()

    def test_writer_ends_with_the_event_count(self):
        assert self._text().endswith("\n# end: 7 events\n")

    @pytest.mark.parametrize("reader", [read_text, lambda src: list(iter_text(src))],
                             ids=["read_text", "iter_text"])
    def test_every_line_boundary_cut_raises(self, reader):
        text = self._text()
        lines = text.splitlines(keepends=True)
        for k in range(len(lines)):
            cut = "".join(lines[:k])
            with pytest.raises(TraceFormatError,
                               match=f"ends at byte {len(cut.encode())} "):
                reader(io.StringIO(cut))
        assert len(reader(io.StringIO(text))) == 7

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda t: t.replace("# end: 7", "# end: 8"), "claims 8 events but 7"),
            (lambda t: t.replace("7 events", "7 event"), "malformed end line"),
            (lambda t: t + "unlink\t3.00\t3\n", r"continues at byte \d+, after"),
        ],
        ids=["wrong-count", "malformed", "data-after"],
    )
    def test_damaged_end_line_rejected(self, damage, match):
        with pytest.raises(TraceFormatError, match=match):
            read_text(io.StringIO(damage(self._text())))

    def test_bytes_that_are_not_utf8_are_a_format_error(self, tmp_path):
        path = tmp_path / "old.bin"
        path.write_bytes(b"BSDTRC\x00\x01\xff\xfe\x00")
        with pytest.raises(TraceFormatError, match="not a text trace"):
            read_text(str(path))
