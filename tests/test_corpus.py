"""Tests for repro.corpus — the out-of-core sharded trace container.

Coverage map:

* format: schema digest registration, stat record round trip, padding;
* writer/reader: bit-exact round trips across segment-boundary sizes,
  unicode metadata, empty corpora, zero-copy views, verification;
* diagnostics: every corruption is a :class:`CorpusError` naming a byte
  offset — never a bare ``struct.error`` / ``IndexError`` — and a footer
  statistic that lies under a valid footer crc fails ``verify()``;
* streaming: ``validate_corpus`` (segment by segment) and
  ``analyze_corpus`` (the corpus loaded whole) field-identical to the
  in-RAM references;
* spool: the ``TraceLog``-shaped sink contract, and a spool torn before
  ``close()`` raising in every reader;
* CLI: ``corpus pack/info/verify`` plus ``validate``/``analyze`` on
  ``.bcorpus`` inputs.
"""

from __future__ import annotations

import dataclasses
import io
import random
import struct
import zlib
from types import SimpleNamespace

import pytest

from repro.analysis.onepass import analyze_onepass
from repro.cli.main import main
from repro.corpus import (
    CorpusError,
    CorpusReader,
    CorpusSpool,
    CorpusWriter,
    FORMAT_VERSION,
    SCHEMA_DIGESTS,
    pack_columns,
    pack_trace,
    read_corpus_columns,
    schema_digest,
    validate_corpus,
)
from repro.corpus.format import (
    BYTES_PER_EVENT,
    FOOTER_HEAD,
    FOOTER_MAGIC,
    SEGMENT_REC,
    SegmentStat,
    TRAILER,
    pad_to_8,
)
from repro.corpus.stream import analyze_corpus
from repro.fuzz.gen import random_trace
from repro.trace.columns import KIND_OPEN, TraceColumns
from repro.trace.io_text import TraceFormatError, write_text
from repro.trace.log import TraceLog
from repro.trace.records import CloseEvent, UnlinkEvent
from repro.trace.validate import validate_columns

from .conftest import append_rows

SEG = 8  # tiny segments so small traces span many of them


def fuzz_log(seed: str, n: int = 100) -> TraceLog:
    return random_trace(random.Random(f"corpus-test:{seed}"), n)


def pack_bytes(log: TraceLog, segment_events: int = SEG) -> bytes:
    buf = io.BytesIO()
    pack_columns(TraceColumns.from_log(log), buf, segment_events=segment_events)
    return buf.getvalue()


def _unlinks(*times: float) -> TraceLog:
    """A log of one unlink at each of *times* (in the order given)."""
    return TraceLog(
        events=[UnlinkEvent(time=t, file_id=k + 1) for k, t in enumerate(times)]
    )


# -- format -----------------------------------------------------------------


class TestFormat:
    def test_registered_digest_matches_source(self):
        assert SCHEMA_DIGESTS[FORMAT_VERSION] == schema_digest()

    def test_magics_carry_the_version(self):
        from repro.corpus.format import END_MAGIC, FOOTER_MAGIC, MAGIC

        for magic in (MAGIC, FOOTER_MAGIC, END_MAGIC):
            assert len(magic) == 8
            assert magic[-1] == FORMAT_VERSION

    def test_pad_to_8(self):
        assert [pad_to_8(n) for n in range(9)] == [0, 7, 6, 5, 4, 3, 2, 1, 0]

    def test_segment_stat_pack_round_trip(self):
        stat = SegmentStat(
            offset=64, count=3, time_first=0.5, time_last=9.25,
            user_lo=0, user_hi=12, file_lo=-1, file_hi=99,
            crc32=0xDEADBEEF, flag_hist=tuple(range(16)),
        )
        packed = stat.pack()
        assert len(packed) == SEGMENT_REC.size == 200
        again = SegmentStat.unpack_from(packed, 0)
        assert again == stat
        assert again.data_bytes == 3 * BYTES_PER_EVENT


# -- write / read round trips -----------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize(
        "n", [1, SEG - 1, SEG, SEG + 1, 3 * SEG, 3 * SEG + 1]
    )
    def test_bit_exact_across_segment_boundaries(self, n):
        log = fuzz_log(f"boundary-{n}", n)
        cols = TraceColumns.from_log(log)
        with CorpusReader(pack_bytes(log)) as reader:
            expected_segments = -(-len(cols) // SEG)  # ceil
            assert reader.segment_count == expected_segments
            assert len(reader) == len(cols)
            back = reader.to_columns()
            assert back.kinds == cols.kinds
            assert back.flags == cols.flags
            for column in (
                "times", "open_ids", "file_ids", "user_ids", "sizes",
                "positions",
            ):
                assert list(getattr(back, column)) == list(
                    getattr(cols, column)
                )
            assert list(reader.iter_events()) == log.events

    def test_times_stored_exactly(self):
        # The corpus stores f64 times verbatim: there is no quantization
        # to survive.
        log = TraceLog.from_events(
            [UnlinkEvent(time=0.1 + 0.2, file_id=1)], name="exact"
        )
        with CorpusReader(pack_bytes(log)) as reader:
            assert reader.segment(0).times[0] == 0.1 + 0.2
            assert reader.stats[0].time_first == 0.1 + 0.2

    def test_empty_corpus_round_trips(self):
        buf = io.BytesIO()
        with CorpusWriter(buf, name="empty", description="nothing"):
            pass
        with CorpusReader(buf.getvalue()) as reader:
            assert (reader.name, reader.description) == ("empty", "nothing")
            assert len(reader) == 0
            assert reader.segment_count == 0
            assert len(reader.to_columns()) == 0
            assert reader.verify() == 0

    def test_unicode_metadata_round_trips(self):
        log = fuzz_log("unicode", 5)
        buf = io.BytesIO()
        with CorpusWriter(buf, name="trace éé", description="☃") as w:
            w.append_columns(TraceColumns.from_log(log))
        with CorpusReader(buf.getvalue()) as reader:
            assert reader.name == "trace éé"
            assert reader.description == "☃"

    def test_segments_are_8_aligned(self):
        log = fuzz_log("align", 3 * SEG + 1)
        with CorpusReader(pack_bytes(log)) as reader:
            for stat in reader.stats:
                assert stat.offset % 8 == 0

    def test_negative_segment_index(self):
        log = fuzz_log("negidx", 3 * SEG)
        with CorpusReader(pack_bytes(log)) as reader:
            count = reader.segment_count
            last = reader.segment(-1)
            assert list(last.times) == list(reader.segment(count - 1).times)
            with pytest.raises(IndexError, match="out of range"):
                reader.segment(count)

    def test_zero_copy_views_on_little_endian(self):
        log = fuzz_log("zerocopy", SEG)
        import sys

        with CorpusReader(pack_bytes(log)) as reader:
            cols = reader.segment(0)
            if sys.byteorder == "little":
                assert isinstance(cols.times, memoryview)
                assert cols.times.format == "d"
            # Views stay valid after close(): the buffer is released
            # lazily once the last view dies.
            reader.close()
            assert len(cols.times) == SEG

    def test_reader_from_path_uses_mmap(self, tmp_path):
        log = fuzz_log("mmap", 2 * SEG)
        path = tmp_path / "t.bcorpus"
        pack_columns(TraceColumns.from_log(log), path, segment_events=SEG)
        with CorpusReader(path) as reader:
            assert reader.path == str(path)
            assert list(reader.iter_events()) == log.events
            assert reader.verify() == reader.segment_count

    def test_pack_trace_from_text_path(self, tmp_path):
        log = fuzz_log("text", 2 * SEG + 3)
        src = tmp_path / "t.trace"
        write_text(log, str(src))
        dest = tmp_path / "t.bcorpus"
        writer = pack_trace(src, dest, segment_events=SEG)
        assert writer.events_written == len(log)
        with CorpusReader(dest) as reader:
            assert reader.name == log.name
            assert list(reader.iter_events()) == log.events

    def test_pack_trace_from_log_and_columns(self, tmp_path):
        log = fuzz_log("packsrc", SEG + 2)
        a, b = tmp_path / "a.bcorpus", tmp_path / "b.bcorpus"
        pack_trace(log, a, segment_events=SEG)
        pack_trace(TraceColumns.from_log(log), b, segment_events=SEG)
        assert a.read_bytes() == b.read_bytes()

    def test_read_corpus_columns(self):
        log = fuzz_log("readcols", 2 * SEG)
        cols = read_corpus_columns(pack_bytes(log))
        assert cols.to_log().events == log.events

    def test_writer_rejects_use_after_close(self):
        writer = CorpusWriter(io.BytesIO(), segment_events=SEG)
        writer.close()
        with pytest.raises(CorpusError, match="closed"):
            writer.append_columns(TraceColumns.from_log(fuzz_log("closed", 1)))

    def test_writer_rejects_unknown_event_type(self):
        # A log is packed as its columns, so from_log meets the non-event.
        log = TraceLog(events=[SimpleNamespace(time=1.0)])  # type: ignore[list-item]
        with pytest.raises(TypeError, match="cannot columnarize"):
            pack_trace(log, io.BytesIO())

    def test_writer_rejects_bad_segment_size(self):
        with pytest.raises(ValueError, match="segment_events"):
            CorpusWriter(io.BytesIO(), segment_events=0)


# -- corruption diagnostics --------------------------------------------------


class TestDiagnostics:
    """Satellite: damaged corpora produce CorpusError naming byte offsets."""

    def test_row_naming_no_event_is_a_corpus_row(self):
        # Open row 1883 of a 3,947-event corpus in 1,000-event segments
        # loses its mode bits: streamed or loaded, the error names row
        # 1883 of the corpus, not row 883 of its segment.
        full = TraceColumns.from_log(fuzz_log("global-row", 3947))
        cols = TraceColumns(
            name=full.name,
            **{
                name: getattr(full, name)[:3947]
                for name in ("kinds", "times", "open_ids", "file_ids",
                             "user_ids", "sizes", "positions", "flags")
            },
        )
        assert cols.kinds[1883] == KIND_OPEN
        flags = bytearray(cols.flags)
        flags[1883] = 0
        cols.flags = bytes(flags)
        buf = io.BytesIO()
        pack_columns(cols, buf, segment_events=1000)
        data = buf.getvalue()
        message = "row 1883: open flag byte 0x00 has no mode bits"
        with CorpusReader(data) as reader:
            assert reader.segment_count == 4
            with pytest.raises(TraceFormatError, match=message):
                list(reader.iter_events())
        with pytest.raises(TraceFormatError, match=message):
            read_corpus_columns(data).to_log().events

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bcorpus"
        path.write_bytes(b"")
        with pytest.raises(CorpusError, match="empty file"):
            CorpusReader(path)

    def test_empty_buffer(self):
        with pytest.raises(CorpusError, match="bad magic at byte 0"):
            CorpusReader(b"")

    def test_bad_magic_names_offset(self):
        with pytest.raises(CorpusError, match="bad magic at byte 0"):
            CorpusReader(b"NOTACORP" + b"\x00" * 64)

    def test_shorter_than_trailer(self):
        data = pack_bytes(fuzz_log("short", SEG))
        with pytest.raises(CorpusError, match="shorter than"):
            CorpusReader(data[: TRAILER.size - 1])

    def test_truncation_names_trailer_offset(self):
        data = pack_bytes(fuzz_log("trunc", 2 * SEG))
        cut = len(data) - 5
        with pytest.raises(
            CorpusError, match=f"trailer at byte {cut - TRAILER.size}"
        ):
            CorpusReader(data[:cut])

    def test_footer_crc_mismatch_names_range(self):
        data = bytearray(pack_bytes(fuzz_log("fcrc", 2 * SEG)))
        footer_offset = struct.unpack_from("<Q", data, len(data) - TRAILER.size)[0]
        data[footer_offset + 12] ^= 0xFF
        with pytest.raises(CorpusError, match="footer checksum mismatch"):
            CorpusReader(bytes(data))

    def test_header_corruption_names_range(self):
        # Depending on the damaged byte this trips either the UTF-8
        # decode guard or the header crc; both must be CorpusError
        # diagnostics about the header, never a raw UnicodeDecodeError.
        data = bytearray(pack_bytes(fuzz_log("hcrc", SEG)))
        data[10] ^= 0xFF  # inside the trace-name bytes
        with pytest.raises(CorpusError, match="header"):
            CorpusReader(bytes(data))

    def test_segment_bit_flip_caught_by_verify(self):
        data = bytearray(pack_bytes(fuzz_log("segflip", 2 * SEG)))
        with CorpusReader(bytes(data)) as reader:
            at = reader.stats[1].offset + 3
        data[at] ^= 0x01
        with CorpusReader(bytes(data)) as reader:
            with pytest.raises(
                CorpusError, match="segment 1 checksum mismatch"
            ):
                reader.verify()

    @pytest.mark.parametrize(
        "field",
        ["time_first", "time_last", "user_lo", "user_hi", "file_lo",
         "file_hi", "flag_hist"],
    )
    def test_forged_statistic_caught_by_verify(self, field, tmp_path, capsys):
        # Segment 1's footer record lies, under a recomputed footer crc:
        # every segment crc holds, so reads succeed and only verify()
        # can tell.
        log = fuzz_log("forge", 3 * SEG)
        data = bytearray(pack_bytes(log))
        trailer_at = len(data) - TRAILER.size
        footer_offset, total, nseg, _crc, end = TRAILER.unpack_from(
            data, trailer_at
        )
        at = (
            footer_offset + len(FOOTER_MAGIC) + FOOTER_HEAD.size
            + SEGMENT_REC.size
        )
        stat = SegmentStat.unpack_from(data, at)
        value = getattr(stat, field)
        if field == "flag_hist":
            setattr(stat, field, (value[0] + 1,) + value[1:])
        else:
            setattr(stat, field, value + 1)
        data[at : at + SEGMENT_REC.size] = stat.pack()
        TRAILER.pack_into(
            data, trailer_at, footer_offset, total, nseg,
            zlib.crc32(data[footer_offset:trailer_at]), end,
        )
        with CorpusReader(bytes(data)) as reader:
            assert reader.to_columns().to_log().events == log.events
            with pytest.raises(CorpusError, match=f"segment 1 {field} is "):
                reader.verify()
        path = tmp_path / "forged.bcorpus"
        path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["corpus", "verify", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("corrupt:")
        assert f"segment 1 {field}" in err[0]

    def test_time_bit_flip_raises_on_every_read(self, tmp_path, capsys):
        # The lowest mantissa bit of one event time: a well-formed,
        # different trace unless every segment read checks its crc.
        log = random_trace(random.Random("trace:flip"), 400)
        assert len(log) == 437
        path = tmp_path / "flip.bcorpus"
        pack_trace(log, path, segment_events=128)
        data = bytearray(path.read_bytes())
        with CorpusReader(bytes(data)) as reader:
            data[reader.stats[0].offset + 8 * 5] ^= 0x01
        path.write_bytes(bytes(data))
        mismatch = r"segment 0 checksum mismatch over bytes \[\d+, \d+\)"
        for read in (
            lambda: CorpusReader(path).segment(0),
            lambda: read_corpus_columns(path),
            lambda: validate_corpus(path),
            lambda: analyze_corpus(path),
        ):
            with pytest.raises(CorpusError, match=mismatch):
                read()
        capsys.readouterr()
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "segment 0 checksum mismatch" in err

    def test_footer_lying_about_offsets(self):
        # Rebuild a trailer whose footer_offset points mid-file: the
        # reader must reject it, not misparse.
        data = pack_bytes(fuzz_log("lie", 2 * SEG))
        footer_offset, total, nseg, _crc, end = struct.unpack_from(
            "<QQII8s", data, len(data) - TRAILER.size
        )
        bogus_footer = data[footer_offset:-TRAILER.size]
        bad = (
            data[: len(data) - TRAILER.size]
            + struct.pack(
                "<QQII8s", footer_offset - 8, total, nseg,
                zlib.crc32(data[footer_offset - 8 : -TRAILER.size]), end,
            )
        )
        assert bogus_footer  # the fixture really has a footer
        with pytest.raises(CorpusError):
            CorpusReader(bad)

    def test_empty_segment_record_rejected(self, tmp_path, capsys):
        # A count-0 record appended to the footer at the footer offset,
        # under a fixed-up trailer: offsets, sizes and crcs all hold,
        # and the writer never writes one, so opening must refuse it.
        data = pack_bytes(fuzz_log("empty-seg", 2 * SEG))
        trailer_at = len(data) - TRAILER.size
        footer_offset, total, nseg, _crc, end = TRAILER.unpack_from(
            data, trailer_at
        )
        empty = SegmentStat(
            offset=footer_offset, count=0, time_first=0.0, time_last=0.0,
            user_lo=0, user_hi=0, file_lo=0, file_hi=0, crc32=0,
            flag_hist=(0,) * 16,
        )
        footer = data[footer_offset:trailer_at] + empty.pack()
        path = tmp_path / "empty-segment.bcorpus"
        path.write_bytes(
            data[:footer_offset] + footer + TRAILER.pack(
                footer_offset, total, nseg + 1, zlib.crc32(footer), end
            )
        )
        message = f"segment {nseg} at byte {footer_offset} is empty"
        with pytest.raises(CorpusError, match=message):
            CorpusReader(path)
        for argv in (["corpus", "verify", str(path)], ["stats", str(path)]):
            capsys.readouterr()
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and message in err[0]

    def test_never_a_bare_struct_or_index_error(self):
        data = pack_bytes(fuzz_log("sweep", 2 * SEG))
        rng = random.Random("diag-sweep")
        for _ in range(64):
            cut = rng.randint(0, len(data) - 1)
            try:
                with CorpusReader(data[:cut]) as reader:
                    reader.verify()
                    reader.to_columns()
            except CorpusError:
                continue
            except Exception as exc:  # pragma: no cover - the regression
                pytest.fail(
                    f"truncation at byte {cut} leaked "
                    f"{type(exc).__name__}: {exc}"
                )
            pytest.fail(f"truncation at byte {cut} was accepted")


# -- streaming vs in-RAM ------------------------------------------------------


class TestStreaming:
    def test_analyze_corpus_bit_identical(self):
        log = fuzz_log("stream-analyze", 150)
        cols = TraceColumns.from_log(log)
        with CorpusReader(pack_bytes(log)) as reader:
            streamed = analyze_corpus(reader)
        in_ram = analyze_onepass(cols)
        for f in dataclasses.fields(in_ram):
            assert getattr(streamed, f.name) == getattr(in_ram, f.name), f.name

    def test_analyze_corpus_from_path(self, tmp_path):
        log = fuzz_log("stream-path", 60)
        path = tmp_path / "t.bcorpus"
        pack_columns(TraceColumns.from_log(log), path, segment_events=SEG)
        assert analyze_corpus(path).render() == analyze_onepass(log).render()

    def test_analyze_empty_corpus(self):
        buf = io.BytesIO()
        with CorpusWriter(buf):
            pass
        report = analyze_corpus(buf.getvalue())
        assert report.activity.total_bytes == 0
        assert report.users == {}

    def test_validate_corpus_matches_in_ram(self):
        log = fuzz_log("stream-validate", 150)
        cols = TraceColumns.from_log(log)
        with CorpusReader(pack_bytes(log)) as reader:
            streamed = validate_corpus(reader)
        in_ram = validate_columns(cols)
        assert streamed.problems == in_ram.problems
        assert streamed.event_count == in_ram.event_count
        assert streamed.open_count == in_ram.open_count
        assert streamed.unmatched_opens == in_ram.unmatched_opens

    def test_validate_problem_indices_are_global(self):
        # A close without a matching open in segment 2 must be reported
        # with its trace-wide event index, not its within-segment row.
        events = [
            UnlinkEvent(time=float(i), file_id=i + 1) for i in range(2 * SEG)
        ]
        events.append(CloseEvent(time=100.0, open_id=999, final_pos=0))
        log = TraceLog.from_events(events, name="global-idx")
        streamed = validate_corpus(pack_bytes(log))
        in_ram = validate_columns(TraceColumns.from_log(log))
        assert streamed.problems == in_ram.problems
        assert any(f"event {2 * SEG}" in p for p in streamed.problems)


# -- spool --------------------------------------------------------------------


class TestSpool:
    def test_spool_bounded_buffer_and_round_trip(self):
        log = fuzz_log("spool", 4 * SEG + 1)
        buf = io.BytesIO()
        with CorpusSpool(buf, name=log.name, buffer_events=SEG) as spool:
            append_rows(spool, log)
            assert spool.peak_buffered <= SEG
        with CorpusReader(buf.getvalue()) as reader:
            assert list(reader.iter_events()) == log.events

    def test_spool_rejects_time_disorder(self):
        spool = CorpusSpool(io.BytesIO(), buffer_events=SEG)
        append_rows(spool, _unlinks(2.0))
        with pytest.raises(ValueError, match="time order"):
            append_rows(spool, _unlinks(1.0))

    def test_empty_spool_close_writes_valid_corpus(self):
        # Satellite regression: a synthesis that emits zero events must
        # still leave a readable (empty) corpus behind.
        buf = io.BytesIO()
        spool = CorpusSpool(buf, name="nothing", buffer_events=SEG)
        spool.close()
        with CorpusReader(buf.getvalue()) as reader:
            assert len(reader) == 0
            assert reader.name == "nothing"
        spool.close()  # idempotent
        with pytest.raises(CorpusError, match="closed"):
            append_rows(spool, _unlinks(0.0))

    def test_late_name_and_description_reach_header(self):
        # The generator constructs its tracer first and assigns the
        # description afterwards; the lazy writer must honor that.
        buf = io.BytesIO()
        spool = CorpusSpool(buf, buffer_events=4)
        spool.name = "late-name"
        spool.description = "late description"
        append_rows(spool, fuzz_log("late", 9))
        spool.close()
        with CorpusReader(buf.getvalue()) as reader:
            assert (reader.name, reader.description) == (
                "late-name", "late description"
            )

    def test_bad_buffer_size_rejected(self):
        with pytest.raises(ValueError, match="buffer_events"):
            CorpusSpool(io.BytesIO(), buffer_events=0)

    def test_exactly_one_event_segments(self):
        log = fuzz_log("spool-one", 5)
        buf = io.BytesIO()
        with CorpusSpool(buf, buffer_events=1) as spool:
            append_rows(spool, log)
        with CorpusReader(buf.getvalue()) as reader:
            assert reader.segment_count == len(log.events)
            assert all(stat.count == 1 for stat in reader.stats)
            assert list(reader.iter_events()) == log.events


#: Every corpus reader, as a function of a path or a buffer.
_CORPUS_READERS = {
    "CorpusReader": lambda path: list(CorpusReader(path).iter_events()),
    "read_corpus_columns": lambda path: read_corpus_columns(path).to_log().events,
    "validate_corpus": validate_corpus,
    "analyze_corpus": analyze_corpus,
}


class TestTornTrace:
    """A spool that dies before ``close()`` leaves segments but no footer
    or trailer; every reader must say so, never return a shorter trace."""

    @pytest.mark.parametrize("reader", _CORPUS_READERS)
    def test_unclosed_spool_is_an_error_not_a_shorter_trace(self, tmp_path, reader):
        path = tmp_path / "torn.bcorpus"
        spool = CorpusSpool(str(path), buffer_events=256)
        try:
            append_rows(spool, fuzz_log("torn", 5000))
            assert spool.segments_spooled >= 1
            spool._writer._fh.flush()  # the drained segments reached the file
            with pytest.raises(
                CorpusError, match=r"trailer at byte \d+ does not end with"
            ):
                _CORPUS_READERS[reader](str(path))
        finally:
            spool._writer._fh.close()

    @pytest.mark.parametrize("reader", _CORPUS_READERS)
    def test_closed_spool_reads_back(self, tmp_path, reader):
        log = fuzz_log("whole", 3 * SEG + 1)
        path = tmp_path / "whole.bcorpus"
        with CorpusSpool(str(path), name=log.name, buffer_events=SEG) as spool:
            append_rows(spool, log)
        assert _CORPUS_READERS[reader](str(path)) == _CORPUS_READERS[reader](
            pack_bytes(log)
        )

    def test_trailing_bytes_name_their_offset(self):
        data = pack_bytes(fuzz_log("junk", 2 * SEG)) + b"\x00" * 16
        with pytest.raises(
            CorpusError, match=f"trailer at byte {len(data) - TRAILER.size}"
        ):
            CorpusReader(data)


# -- CLI ----------------------------------------------------------------------


@pytest.fixture
def corpus_file(tmp_path):
    log = fuzz_log("cli", 3 * SEG + 2)
    path = tmp_path / "cli.bcorpus"
    pack_columns(TraceColumns.from_log(log), path, segment_events=SEG)
    return str(path), log


class TestCli:
    def test_corpus_pack_info_verify(self, tmp_path, capsys):
        log = fuzz_log("cli-pack", 2 * SEG)
        text = tmp_path / "in.trace"
        write_text(log, str(text))
        out = tmp_path / "out.bcorpus"
        assert main([
            "corpus", "pack", str(text), "-o", str(out),
            "--segment-events", str(SEG),
        ]) == 0
        printed = capsys.readouterr().out
        assert f"{len(log.events)} events" in printed
        assert "segment(s)" in printed

        assert main(["corpus", "info", str(out), "--segments"]) == 0
        printed = capsys.readouterr().out
        assert str(len(log.events)) in printed and "crc" in printed

        assert main(["corpus", "verify", str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_corpus_pack_requires_bcorpus_suffix(self, tmp_path, capsys):
        rc = main(["corpus", "pack", "x.trace", "-o", str(tmp_path / "y.bin")])
        assert rc == 2  # usage error, matching the other CLI guards
        assert ".bcorpus" in capsys.readouterr().err

    def test_corpus_verify_detects_damage(self, corpus_file, tmp_path, capsys):
        path, _log = corpus_file
        data = bytearray(open(path, "rb").read())
        with CorpusReader(path) as reader:
            data[reader.stats[0].offset] ^= 0x10
        bad = tmp_path / "bad.bcorpus"
        bad.write_bytes(bytes(data))
        assert main(["corpus", "verify", str(bad)]) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_validate_accepts_bcorpus(self, corpus_file, capsys):
        path, _log = corpus_file
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_analyze_accepts_bcorpus(self, corpus_file, capsys):
        path, log = corpus_file
        assert main(["analyze", path, "--report", "activity"]) == 0
        printed = capsys.readouterr().out
        assert str(len(log.events)) in printed

    def test_generate_spools_to_bcorpus(self, tmp_path, capsys):
        out = tmp_path / "gen.bcorpus"
        rc = main([
            "generate", "--profile", "A5", "--hours", "0.05",
            "--seed", "7", "-o", str(out),
        ])
        assert rc == 0
        with CorpusReader(out) as reader:
            assert len(reader) > 0
            reader.verify()
