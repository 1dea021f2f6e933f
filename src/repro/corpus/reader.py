"""Reading sharded corpora: mmap, footer index, zero-copy segment views.

:class:`CorpusReader` opens a corpus back-to-front — trailer, footer,
header — so the cost of opening is O(segments), not O(events).  Each
:meth:`~CorpusReader.segment` call returns a :class:`TraceColumns` whose
numeric columns are ``memoryview.cast`` slices straight into the mmap:
no bytes are copied for the six 8-byte columns (the two byte columns are
copied, as ``TraceColumns`` needs real ``bytes`` for ``.count``).  On a
big-endian host the numeric columns are instead decoded through
byteswapped ``array`` copies; the file stays little-endian either way.

Every structural check that fails raises :class:`CorpusError` naming the
byte offset that disappointed the reader — never a bare ``struct.error``
or ``IndexError``.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import IO, Iterator, Union

from ..trace.columns import TraceColumns
from ..trace.records import TraceEvent
from .format import (
    COLUMN_LAYOUT,
    END_MAGIC,
    FLAG_HIST_BINS,
    FOOTER_HEAD,
    FOOTER_MAGIC,
    HEADER_SEGEVENTS,
    HEADER_STR,
    MAGIC,
    SEGMENT_REC,
    TRAILER,
    CorpusError,
    SegmentStat,
    pad_to_8,
)

__all__ = ["CorpusReader", "read_corpus_columns"]

_PathOrBytes = Union[str, os.PathLike, bytes, bytearray, memoryview]

_BIG_ENDIAN = sys.byteorder == "big"


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CorpusError(message)


class CorpusReader:
    """Random access to a corpus without materializing events.

    *src* is a path (mmapped) or an in-memory buffer.  Opening parses
    and checks the trailer, footer (crc), and header (crc); each
    :meth:`segment` read checks that segment's payload crc, so damaged
    bytes raise instead of reading back as a different trace.  The
    footer statistics are re-derived only on request (:meth:`verify`).
    """

    def __init__(self, src: _PathOrBytes):
        self._fh: IO[bytes] | None = None
        self._mm: mmap.mmap | None = None
        if isinstance(src, (bytes, bytearray, memoryview)):
            self._buf = memoryview(src)
            self.path = "<memory>"
        else:
            self.path = os.fspath(src)
            self._fh = open(self.path, "rb")
            size = os.fstat(self._fh.fileno()).st_size
            if size == 0:
                self._fh.close()
                self._fh = None
                raise CorpusError(f"{self.path}: empty file is not a corpus")
            self._mm = mmap.mmap(
                self._fh.fileno(), 0, access=mmap.ACCESS_READ
            )
            self._buf = memoryview(self._mm)
        try:
            self._parse()
        except Exception:
            self.close()
            raise

    # -- parsing -------------------------------------------------------------

    def _parse(self) -> None:
        buf = self._buf
        size = len(buf)
        _check(
            size >= len(MAGIC) and bytes(buf[: len(MAGIC)]) == MAGIC,
            f"{self.path}: not a corpus file (bad magic at byte 0, "
            f"expected {MAGIC!r})",
        )
        _check(
            size >= TRAILER.size,
            f"{self.path}: truncated corpus: {size} bytes is shorter than "
            f"the {TRAILER.size}-byte trailer",
        )
        trailer_at = size - TRAILER.size
        (
            footer_offset,
            total_events,
            segment_count,
            footer_crc,
            end_magic,
        ) = TRAILER.unpack_from(buf, trailer_at)
        _check(
            end_magic == END_MAGIC,
            f"{self.path}: truncated or corrupt corpus: trailer at byte "
            f"{trailer_at} does not end with {END_MAGIC!r} (the file was "
            "cut off before the writer finished, or the tail was damaged)",
        )
        _check(
            footer_offset < trailer_at,
            f"{self.path}: corrupt trailer at byte {trailer_at}: footer "
            f"offset {footer_offset} does not precede the trailer",
        )
        footer = bytes(buf[footer_offset:trailer_at])
        _check(
            zlib.crc32(footer) == footer_crc,
            f"{self.path}: footer checksum mismatch over bytes "
            f"[{footer_offset}, {trailer_at}): the segment index is "
            "corrupt",
        )
        _check(
            footer[: len(FOOTER_MAGIC)] == FOOTER_MAGIC,
            f"{self.path}: bad footer magic at byte {footer_offset}",
        )
        expected_len = (
            len(FOOTER_MAGIC) + FOOTER_HEAD.size + segment_count * SEGMENT_REC.size
        )
        _check(
            len(footer) == expected_len,
            f"{self.path}: footer at byte {footer_offset} is "
            f"{len(footer)} bytes but {segment_count} segments need "
            f"{expected_len}",
        )
        header_crc, _reserved = FOOTER_HEAD.unpack_from(
            footer, len(FOOTER_MAGIC)
        )

        # Header: name, description, nominal segment size, padding.
        at = len(MAGIC)
        self.name, at = self._read_str(at, "trace name")
        self.description, at = self._read_str(at, "trace description")
        _check(
            at + HEADER_SEGEVENTS.size <= footer_offset,
            f"{self.path}: truncated header at byte {at}: no room for the "
            "segment-size field",
        )
        (self.segment_events,) = HEADER_SEGEVENTS.unpack_from(buf, at)
        at += HEADER_SEGEVENTS.size
        header_end = at + pad_to_8(at)
        _check(
            zlib.crc32(bytes(buf[:header_end])) == header_crc,
            f"{self.path}: header checksum mismatch over bytes "
            f"[0, {header_end}): the name/description block is corrupt",
        )

        stats = []
        rec_at = len(FOOTER_MAGIC) + FOOTER_HEAD.size
        data_at = header_end
        for i in range(segment_count):
            stat = SegmentStat.unpack_from(footer, rec_at)
            rec_at += SEGMENT_REC.size
            _check(
                stat.offset == data_at,
                f"{self.path}: segment {i} claims offset {stat.offset} "
                f"but the previous segment ends at byte {data_at}",
            )
            _check(
                stat.count > 0,
                f"{self.path}: segment {i} at byte {stat.offset} is empty "
                "(a corpus writer never writes an empty segment)",
            )
            data_at += stat.data_bytes + pad_to_8(stat.data_bytes)
            _check(
                data_at <= footer_offset,
                f"{self.path}: segment {i} at byte {stat.offset} runs past "
                f"the footer at byte {footer_offset}",
            )
            stats.append(stat)
        _check(
            data_at == footer_offset,
            f"{self.path}: {footer_offset - data_at} unindexed bytes "
            f"between the last segment (ending at byte {data_at}) and the "
            f"footer at byte {footer_offset}",
        )
        counted = sum(stat.count for stat in stats)
        _check(
            counted == total_events,
            f"{self.path}: trailer claims {total_events} events but the "
            f"segment index counts {counted}",
        )
        self.stats: list[SegmentStat] = stats
        self.total_events = total_events
        self.footer_offset = footer_offset

    def _read_str(self, at: int, what: str) -> tuple[str, int]:
        buf = self._buf
        _check(
            at + HEADER_STR.size <= len(buf),
            f"{self.path}: truncated header: no length field for the "
            f"{what} at byte {at}",
        )
        (n,) = HEADER_STR.unpack_from(buf, at)
        at += HEADER_STR.size
        _check(
            at + n <= len(buf),
            f"{self.path}: truncated header: {what} at byte {at} wants "
            f"{n} bytes past the end of the file",
        )
        try:
            text = bytes(buf[at : at + n]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(
                f"{self.path}: corrupt header: {what} at byte {at} is not "
                f"valid UTF-8 ({exc.reason} at byte {at + exc.start})"
            ) from None
        return text, at + n

    # -- segment access ------------------------------------------------------

    @property
    def segment_count(self) -> int:
        return len(self.stats)

    def __len__(self) -> int:
        return self.total_events

    def segment(self, index: int) -> TraceColumns:
        """Columns for one segment, zero-copy where the host allows.

        The segment's crc is checked first.
        """
        if index < 0:
            index += len(self.stats)
        if not 0 <= index < len(self.stats):
            raise IndexError(
                f"segment {index} out of range ({len(self.stats)} segments)"
            )
        columns = {}
        for name, typecode, view in self._raw_columns(index):
            if typecode == "B":
                columns[name] = bytes(view)
            elif _BIG_ENDIAN:
                column = array(typecode)
                column.frombytes(view)
                column.byteswap()
                columns[name] = column
            else:
                columns[name] = view.cast(typecode)
        return TraceColumns(
            name=self.name, description=self.description, **columns
        )

    def _raw_columns(
        self, index: int
    ) -> Iterator[tuple[str, str, memoryview]]:
        """One segment's columns as ``(name, typecode, bytes)``: views of
        its little-endian bytes in the mmap, after the crc check."""
        data = self._checked_data(index)
        n = self.stats[index].count
        at = 0
        for name, typecode in COLUMN_LAYOUT:
            width = n * struct.calcsize("<" + typecode)
            yield name, typecode, data[at : at + width]
            at += width

    def iter_segments(self) -> Iterator[TraceColumns]:
        for i in range(len(self.stats)):
            yield self.segment(i)

    def iter_events(self) -> Iterator[TraceEvent]:
        """Event objects one at a time, O(segment) memory.

        A row that names no event raises ``TraceFormatError`` with its
        row in the whole corpus, as the loaded columns would.
        """
        base = 0
        for cols in self.iter_segments():
            for i in range(len(cols)):
                yield cols.event(i, base)
            base += len(cols)

    def to_columns(self) -> TraceColumns:
        """Materialize the whole corpus as one in-RAM ``TraceColumns``.

        O(events) memory, 50 bytes per event: what every whole-trace
        consumer reads, ``analyze_corpus`` included.  Each column is
        allocated once, at the trailer's event count, and each
        segment's checked bytes are copied once, into their slice (the
        byte columns are joined).
        """
        n = self.total_events
        numeric = {
            name: array(typecode, [0]) * n
            for name, typecode in COLUMN_LAYOUT
            if typecode != "B"
        }
        parts: dict[str, list[memoryview]] = {
            name: [] for name, typecode in COLUMN_LAYOUT if typecode == "B"
        }
        at = 0
        for index, stat in enumerate(self.stats):
            for name, typecode, view in self._raw_columns(index):
                if typecode == "B":
                    parts[name].append(view)
                    continue
                column = numeric[name]
                start = at * column.itemsize
                with memoryview(column) as out, out.cast("B") as raw:
                    raw[start : start + len(view)] = view
            at += stat.count
        if _BIG_ENDIAN:
            for column in numeric.values():
                column.byteswap()
        return TraceColumns(
            name=self.name,
            description=self.description,
            **{name: b"".join(views) for name, views in parts.items()},
            **numeric,
        )

    # -- verification --------------------------------------------------------

    def _checked_data(self, index: int) -> memoryview:
        """One segment's payload bytes, after checking its crc."""
        stat = self.stats[index]
        data = self._buf[stat.offset : stat.offset + stat.data_bytes]
        _check(
            zlib.crc32(data) == stat.crc32,
            f"{self.path}: segment {index} checksum mismatch over bytes "
            f"[{stat.offset}, {stat.offset + stat.data_bytes})",
        )
        return data

    def verify(self) -> int:
        """Recompute every segment's crc and footer statistics.

        Raises :class:`CorpusError` naming the first segment and footer
        field that disagree with the data; returns the number of
        segments checked.
        """
        for index, stat in enumerate(self.stats):
            cols = self.segment(index)
            for field, got in (
                ("time_first", cols.times[0]),
                ("time_last", cols.times[-1]),
                ("user_lo", min(cols.user_ids)),
                ("user_hi", max(cols.user_ids)),
                ("file_lo", min(cols.file_ids)),
                ("file_hi", max(cols.file_ids)),
                ("flag_hist", tuple(map(cols.flags.count, range(FLAG_HIST_BINS)))),
            ):
                want = getattr(stat, field)
                _check(
                    got == want,
                    f"{self.path}: segment {index} {field} is {got} but the "
                    f"footer recorded {want}",
                )
        return len(self.stats)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the mmap and file handle.

        If zero-copy segment views are still alive the mmap cannot be
        unmapped; the handle is dropped and the OS reclaims the mapping
        when the last view dies.
        """
        buf, self._buf = getattr(self, "_buf", None), None  # type: ignore[assignment]
        if buf is not None:
            buf.release()
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:  # zero-copy views still outstanding
                pass
            self._mm = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CorpusReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"CorpusReader({self.path!r}, events={self.total_events}, "
            f"segments={len(self.stats)})"
        )


def read_corpus_columns(src: _PathOrBytes) -> TraceColumns:
    """Read a whole corpus into one in-RAM ``TraceColumns``."""
    with CorpusReader(src) as reader:
        return reader.to_columns()
