"""Writing sharded corpora: segment buffering, stats, and spooled sinks.

:class:`CorpusWriter` is strictly sequential — header, segments, footer,
trailer — so it needs no seeks and can target a pipe-like object as well
as a path.  It takes columns only (:meth:`CorpusWriter.append_columns`):
column slices accumulate in typed buffers; each time the buffer reaches
``segment_events`` rows it is flushed as one segment, its statistics
computed column-at-a-time at C speed (``min``/``max`` over the typed
arrays, ``count`` over the flag bytes, one ``crc32`` per column chunk)
and recorded for the footer.

:class:`CorpusSpool` is the sink the workload generator writes through
with O(segment) memory, so ``generate(..., spool="out.bcorpus")`` emits
a sharded corpus directly without ever holding the whole trace.  The
kernel tracer hands it rows (:meth:`CorpusSpool.append_row`), which wait
in a flat list and reach the writer a segment at a time as columns, so a
spooled trace builds no event objects at all.

:func:`pack_trace` packs an in-memory log or columns, or a text trace
file, into a corpus; a log is written as its
:func:`~repro.trace.columns.cached_columns`, the one event-to-row
mapping.
"""

from __future__ import annotations

import math
import os
import sys
import zlib
from array import array
from typing import IO, Union

from ..trace.columns import TraceColumns, cached_columns
from ..trace.io_text import read_text
from ..trace.log import TraceLog
from .format import (
    COLUMN_LAYOUT,
    DEFAULT_SEGMENT_EVENTS,
    END_MAGIC,
    FLAG_HIST_BINS,
    FOOTER_HEAD,
    FOOTER_MAGIC,
    HEADER_SEGEVENTS,
    HEADER_STR,
    MAGIC,
    TRAILER,
    CorpusError,
    SegmentStat,
    pad_to_8,
)

__all__ = ["CorpusWriter", "CorpusSpool", "pack_trace", "pack_columns"]

_PathOrFile = Union[str, os.PathLike, IO[bytes]]

_BIG_ENDIAN = sys.byteorder == "big"

#: Values per row: kind, time, open_id, file_id, user_id, size, position,
#: flags (the ``append_row`` argument order).
_ROW = 8


def _le_bytes(column: array | bytearray) -> bytes:
    """The column's buffer as little-endian bytes (the on-disk order)."""
    if _BIG_ENDIAN and isinstance(column, array):
        swapped = array(column.typecode, column)
        swapped.byteswap()
        return swapped.tobytes()
    return bytes(column)


class CorpusWriter:
    """Sequential corpus writer (see the module docstring).

    Not valid until :meth:`close` has written the footer and trailer;
    use as a context manager.
    """

    def __init__(
        self,
        dest: _PathOrFile,
        name: str = "trace",
        description: str = "",
        segment_events: int = DEFAULT_SEGMENT_EVENTS,
    ):
        if segment_events < 1:
            raise ValueError("segment_events must be >= 1")
        self._own = not hasattr(dest, "write")
        fh: IO[bytes] = open(dest, "wb") if self._own else dest  # type: ignore[assignment]
        self._fh = fh
        self.name = name
        self.description = description
        self.segment_events = segment_events
        self.events_written = 0
        self.bytes_written = 0
        self.stats: list[SegmentStat] = []
        self._closed = False
        self._new_buffers()

        nameb = name.encode("utf-8")
        descb = description.encode("utf-8")
        header = b"".join(
            (
                MAGIC,
                HEADER_STR.pack(len(nameb)),
                nameb,
                HEADER_STR.pack(len(descb)),
                descb,
                HEADER_SEGEVENTS.pack(segment_events),
            )
        )
        header += b"\x00" * pad_to_8(len(header))
        self._header_crc = zlib.crc32(header)
        fh.write(header)
        self.bytes_written = len(header)

    @property
    def segments_written(self) -> int:
        return len(self.stats)

    @property
    def buffered_events(self) -> int:
        return len(self._kinds)

    def _new_buffers(self) -> None:
        self._kinds = bytearray()
        self._flags = bytearray()
        self._times = array("d")
        self._open_ids = array("q")
        self._file_ids = array("q")
        self._user_ids = array("q")
        self._sizes = array("q")
        self._positions = array("q")

    # -- appending ----------------------------------------------------------

    def append_columns(self, cols: TraceColumns) -> None:
        """Bulk-append a columnar trace, slicing it into segments.

        Column slices move as raw buffers (``frombytes``), never as
        per-event Python objects.
        """
        if self._closed:
            raise CorpusError("corpus writer is closed")
        n = len(cols)
        at = 0
        kinds = memoryview(cols.kinds)
        flags = memoryview(cols.flags)
        numeric = (
            ("_times", memoryview(cols.times)),
            ("_open_ids", memoryview(cols.open_ids)),
            ("_file_ids", memoryview(cols.file_ids)),
            ("_user_ids", memoryview(cols.user_ids)),
            ("_sizes", memoryview(cols.sizes)),
            ("_positions", memoryview(cols.positions)),
        )
        while at < n:
            take = min(self.segment_events - len(self._kinds), n - at)
            self._kinds += kinds[at : at + take]
            self._flags += flags[at : at + take]
            for attr, view in numeric:
                # re-read per chunk: flush_segment swaps in fresh buffers
                getattr(self, attr).frombytes(view[at : at + take].tobytes())
            self.events_written += take
            at += take
            if len(self._kinds) >= self.segment_events:
                self.flush_segment()

    # -- flushing -----------------------------------------------------------

    def flush_segment(self) -> None:
        """Write the buffered rows out as one segment (no-op when empty)."""
        count = len(self._kinds)
        if count == 0:
            return
        offset = self.bytes_written
        crc = 0
        for name, _typecode in COLUMN_LAYOUT:
            chunk = _le_bytes(getattr(self, "_" + name))
            self._fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
            self.bytes_written += len(chunk)
        pad = pad_to_8(self.bytes_written)
        if pad:
            self._fh.write(b"\x00" * pad)
            self.bytes_written += pad
        self.stats.append(
            SegmentStat(
                offset=offset,
                count=count,
                time_first=self._times[0],
                time_last=self._times[-1],
                user_lo=min(self._user_ids),
                user_hi=max(self._user_ids),
                file_lo=min(self._file_ids),
                file_hi=max(self._file_ids),
                crc32=crc,
                flag_hist=tuple(
                    self._flags.count(v) for v in range(FLAG_HIST_BINS)
                ),
            )
        )
        self._new_buffers()

    def close(self) -> None:
        """Flush the last partial segment and write the footer + trailer."""
        if self._closed:
            return
        self.flush_segment()
        footer = bytearray(FOOTER_MAGIC)
        footer += FOOTER_HEAD.pack(self._header_crc, 0)
        for stat in self.stats:
            footer += stat.pack()
        footer_offset = self.bytes_written
        self._fh.write(footer)
        self.bytes_written += len(footer)
        trailer = TRAILER.pack(
            footer_offset,
            self.events_written,
            len(self.stats),
            zlib.crc32(footer),
            END_MAGIC,
        )
        self._fh.write(trailer)
        self.bytes_written += len(trailer)
        self._closed = True
        if self._own:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "CorpusWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CorpusSpool:
    """A sink that spools rows into a corpus.

    Takes what a producer knows of a log (``name``/``description``) and
    its events as time-ordered rows (:meth:`append_row`, the
    :class:`~repro.unixfs.tracer.KernelTracer` path, which builds no
    event objects), while its :class:`CorpusWriter` drains each full
    segment, so memory stays O(segment) however long the synthesis runs.
    The buffer *is* one segment: ``buffer_events`` doubles as the corpus
    ``segment_events``, and rows wait in a flat list until a full buffer
    drains to the writer as one column slice.  The writer opens at the
    first drain (a full buffer or :meth:`close`), so a description set
    before then still reaches the header.
    """

    def __init__(
        self,
        dest: _PathOrFile,
        name: str = "trace",
        description: str = "",
        buffer_events: int = DEFAULT_SEGMENT_EVENTS,
    ):
        if buffer_events < 1:
            raise ValueError("buffer_events must be >= 1")
        self._dest = dest
        self.name = name
        self.description = description
        self.buffer_events = buffer_events
        self._writer: CorpusWriter | None = None
        # Waiting rows, flattened: _ROW values per event, column order.
        self._rows: list = []
        self._full = _ROW * buffer_events
        self._last_time = -math.inf
        self._closed = False

    def _open(self) -> CorpusWriter:
        self._writer = CorpusWriter(
            self._dest,
            name=self.name,
            description=self.description,
            segment_events=self.buffer_events,
        )
        return self._writer

    def append_row(
        self,
        kind: int,
        time: float,
        open_id: int,
        file_id: int,
        user_id: int,
        size: int,
        position: int,
        flags: int,
    ) -> None:
        """Append one event given as its column values (in time order).

        The row waits in a flat list, much cheaper than eight column
        appends and no object per row; a full buffer drains to the
        writer as one segment.
        """
        if self._closed:
            raise CorpusError("corpus spool is closed")
        if time < self._last_time:
            raise ValueError(
                f"event at t={time} appended after t={self._last_time}; "
                "trace events must be in time order"
            )
        self._last_time = time
        rows = self._rows
        rows += (kind, time, open_id, file_id, user_id, size, position, flags)
        if len(rows) >= self._full:
            self._drain()

    def _drain(self) -> CorpusWriter:
        """Hand the waiting rows to the writer as columns; returns it."""
        writer = self._writer or self._open()
        rows = self._rows
        if rows:
            self._rows = []
            writer.append_columns(
                TraceColumns(
                    kinds=bytes(rows[0::_ROW]),
                    times=array("d", rows[1::_ROW]),
                    open_ids=array("q", rows[2::_ROW]),
                    file_ids=array("q", rows[3::_ROW]),
                    user_ids=array("q", rows[4::_ROW]),
                    sizes=array("q", rows[5::_ROW]),
                    positions=array("q", rows[6::_ROW]),
                    flags=bytes(rows[7::_ROW]),
                )
            )
        return writer

    def __len__(self) -> int:
        written = self._writer.events_written if self._writer is not None else 0
        return written + len(self._rows) // _ROW

    @property
    def events_spooled(self) -> int:
        """Events already written out in full segments."""
        if self._writer is None:
            return 0
        return self._writer.events_written - self._writer.buffered_events

    @property
    def peak_buffered(self) -> int:
        """Most events ever waiting at once: the buffer fills to
        ``buffer_events`` and drains as one segment."""
        return min(len(self), self.buffer_events)

    @property
    def segments_spooled(self) -> int:
        return self._writer.segments_written if self._writer is not None else 0

    def close(self) -> None:
        """Drain the buffer and finalize the corpus (valid even if empty)."""
        if self._closed:
            return
        self._drain().close()
        self._closed = True

    def __enter__(self) -> "CorpusSpool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def pack_columns(
    cols: TraceColumns,
    dest: _PathOrFile,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
) -> CorpusWriter:
    """Pack an in-memory columnar trace into a corpus at *dest*."""
    return pack_trace(cols, dest, segment_events=segment_events)


def pack_trace(
    src,
    dest: _PathOrFile,
    segment_events: int = DEFAULT_SEGMENT_EVENTS,
) -> CorpusWriter:
    """Pack *src* into a corpus at *dest*; returns the closed writer.

    *src* may be a :class:`TraceLog`, a :class:`TraceColumns`, or a path
    to a text trace, which loads through ``read_text`` first.  A log is
    written as its :func:`~repro.trace.columns.cached_columns`.
    """
    if not isinstance(src, (TraceLog, TraceColumns)):
        src = read_text(src)
    cols = src if isinstance(src, TraceColumns) else cached_columns(src)
    with CorpusWriter(
        dest,
        name=src.name,
        description=src.description,
        segment_events=segment_events,
    ) as writer:
        writer.append_columns(cols)
    return writer
