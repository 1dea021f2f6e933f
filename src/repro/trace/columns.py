"""Columnar (struct-of-arrays) trace storage.

A :class:`TraceColumns` holds the same information as a
:class:`~repro.trace.log.TraceLog`, but as eight flat typed columns — one
row per event — instead of one Python object per event.  At multi-day
scale that matters twice over: the columns cost a few tens of bytes per
event (versus a few hundred for a dataclass instance), and a consumer
that loops over primitive ints and floats (the one-pass analyzer, the
binary writer) never touches the allocator or the attribute machinery.
The per-event strings of the paper's kernel records are ids, not paths
(Table II logged ``file_id``/``user_id``, never names), so the only
strings stored are the trace's interned ``name``/``description``.

Column meaning by event kind (unused slots hold zero):

======  ========  =======  =======  ==========  ===========  =====
kind    open_ids  file_ids user_ids sizes       positions    flags
======  ========  =======  =======  ==========  ===========  =====
open    open_id   file_id  user_id  size        initial_pos  mode | created<<2 | new_file<<3
close   open_id   .        .        .           final_pos    .
seek    open_id   .        .        prev_pos    new_pos      .
create  .         file_id  user_id  .           .            .
unlink  .         file_id  .        .           .            .
trunc   .         file_id  .        new_length  .            .
exec    .         file_id  user_id  size        .            .
======  ========  =======  =======  ==========  ===========  =====

This module is the one place that maps between events and rows:
:meth:`TraceColumns.from_log` turns events into rows, and
:func:`row_event` turns one row back into its event (a row with an
unknown kind tag, or an open row with no mode bits, names no event and
raises :class:`~repro.trace.io_text.TraceFormatError`).  The kernel
tracer emits rows and builds its events through :func:`row_event`.

These buffers are the binary format: a ``.bcorpus`` segment
(:mod:`repro.corpus`) stores them verbatim, so a corpus deserializes
straight into columns — and serializes straight out of them — without
ever materializing event objects.
Code that still wants objects gets them lazily: :meth:`TraceColumns.event`
builds one row's dataclass on demand, iteration yields them one at a
time, and :meth:`TraceColumns.to_log` returns a log that keeps these
columns and builds its event list only when ``log.events`` is first read.
Until then the log's derived products come from the columns:
:func:`cached_columns` returns them as they are, and the cache stream and
packed streams are computed from them by numpy kernels.
"""

from __future__ import annotations

from array import array
from typing import Iterator

from .io_text import TraceFormatError
from .log import TraceLog
from .memo import memoize_per_log
from .records import (
    AccessMode,
    CloseEvent,
    CreateEvent,
    ExecEvent,
    OpenEvent,
    SeekEvent,
    TraceEvent,
    TruncateEvent,
    UnlinkEvent,
)

__all__ = [
    "KIND_OPEN",
    "KIND_CLOSE",
    "KIND_SEEK",
    "KIND_CREATE",
    "KIND_UNLINK",
    "KIND_TRUNC",
    "KIND_EXEC",
    "KIND_LABELS",
    "FLAG_MODE_MASK",
    "FLAG_CREATED",
    "FLAG_NEW_FILE",
    "TraceColumns",
    "cached_columns",
    "row_event",
]

KIND_OPEN = 1
KIND_CLOSE = 2
KIND_SEEK = 3
KIND_CREATE = 4
KIND_UNLINK = 5
KIND_TRUNC = 6
KIND_EXEC = 7

KIND_LABELS = {
    KIND_OPEN: "open",
    KIND_CLOSE: "close",
    KIND_SEEK: "seek",
    KIND_CREATE: "create",
    KIND_UNLINK: "unlink",
    KIND_TRUNC: "trunc",
    KIND_EXEC: "exec",
}

#: Open-event flag layout: two mode bits (AccessMode 1..3) plus booleans.
FLAG_MODE_MASK = 0x3
FLAG_CREATED = 0x4
FLAG_NEW_FILE = 0x8

#: An open row's mode bits to its access mode (``None``: no mode bits).
_ROW_MODES = (None, AccessMode.READ, AccessMode.WRITE, AccessMode.READ_WRITE)


def row_event(
    kind: int,
    time: float,
    open_id: int,
    file_id: int,
    user_id: int,
    size: int,
    position: int,
    flags: int,
) -> TraceEvent:
    """The event one row describes (the inverse of
    :meth:`TraceColumns.from_log`; see the module docstring's table).

    Raises :class:`TraceFormatError` for a row that names no event: an
    unknown kind tag, or an open row with no mode bits.
    """
    # Event fields in declaration order (see repro.trace.records).
    if kind == KIND_OPEN:
        mode = _ROW_MODES[flags & FLAG_MODE_MASK]
        if mode is None:
            raise TraceFormatError(f"open flag byte {flags:#04x} has no mode bits")
        return OpenEvent(
            time,
            open_id,
            file_id,
            user_id,
            size,
            mode,
            bool(flags & FLAG_CREATED),
            bool(flags & FLAG_NEW_FILE),
            position,
        )
    if kind == KIND_CLOSE:
        return CloseEvent(time, open_id, position)
    if kind == KIND_SEEK:
        return SeekEvent(time, open_id, size, position)
    if kind == KIND_CREATE:
        return CreateEvent(time, file_id, user_id)
    if kind == KIND_UNLINK:
        return UnlinkEvent(time, file_id)
    if kind == KIND_TRUNC:
        return TruncateEvent(time, file_id, size)
    if kind == KIND_EXEC:
        return ExecEvent(time, file_id, user_id, size)
    raise TraceFormatError(f"unknown kind tag {kind}")


class TraceColumns:
    """A trace as parallel typed columns (see the module docstring)."""

    __slots__ = (
        "name",
        "description",
        "kinds",
        "times",
        "open_ids",
        "file_ids",
        "user_ids",
        "sizes",
        "positions",
        "flags",
        "_kind_hist",
    )

    def __init__(
        self,
        name: str = "trace",
        description: str = "",
        kinds: bytes = b"",
        times: array | None = None,
        open_ids: array | None = None,
        file_ids: array | None = None,
        user_ids: array | None = None,
        sizes: array | None = None,
        positions: array | None = None,
        flags: bytes = b"",
    ):
        self.name = name
        self.description = description
        self.kinds = kinds
        self.times = times if times is not None else array("d")
        self.open_ids = open_ids if open_ids is not None else array("q")
        self.file_ids = file_ids if file_ids is not None else array("q")
        self.user_ids = user_ids if user_ids is not None else array("q")
        self.sizes = sizes if sizes is not None else array("q")
        self.positions = positions if positions is not None else array("q")
        self.flags = flags
        self._kind_hist: tuple[tuple, dict[int, int]] | None = None
        n = len(self.kinds)
        for column in (
            self.times,
            self.open_ids,
            self.file_ids,
            self.user_ids,
            self.sizes,
            self.positions,
            self.flags,
        ):
            if len(column) != n:
                raise ValueError(
                    f"ragged columns: kinds has {n} rows, a column has "
                    f"{len(column)}"
                )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_log(cls, log: TraceLog) -> "TraceColumns":
        """Compile *log* into columns (one pass over the event objects)."""
        n = len(log.events)
        kinds = bytearray(n)
        flags = bytearray(n)
        times = array("d", bytes(8 * n))
        open_ids = array("q", bytes(8 * n))
        file_ids = array("q", bytes(8 * n))
        user_ids = array("q", bytes(8 * n))
        sizes = array("q", bytes(8 * n))
        positions = array("q", bytes(8 * n))
        for i, event in enumerate(log.events):
            times[i] = event.time
            if isinstance(event, OpenEvent):
                kinds[i] = KIND_OPEN
                open_ids[i] = event.open_id
                file_ids[i] = event.file_id
                user_ids[i] = event.user_id
                sizes[i] = event.size
                positions[i] = event.initial_pos
                flags[i] = (
                    int(event.mode)
                    | (FLAG_CREATED if event.created else 0)
                    | (FLAG_NEW_FILE if event.new_file else 0)
                )
            elif isinstance(event, CloseEvent):
                kinds[i] = KIND_CLOSE
                open_ids[i] = event.open_id
                positions[i] = event.final_pos
            elif isinstance(event, SeekEvent):
                kinds[i] = KIND_SEEK
                open_ids[i] = event.open_id
                sizes[i] = event.prev_pos
                positions[i] = event.new_pos
            elif isinstance(event, CreateEvent):
                kinds[i] = KIND_CREATE
                file_ids[i] = event.file_id
                user_ids[i] = event.user_id
            elif isinstance(event, UnlinkEvent):
                kinds[i] = KIND_UNLINK
                file_ids[i] = event.file_id
            elif isinstance(event, TruncateEvent):
                kinds[i] = KIND_TRUNC
                file_ids[i] = event.file_id
                sizes[i] = event.new_length
            elif isinstance(event, ExecEvent):
                kinds[i] = KIND_EXEC
                file_ids[i] = event.file_id
                user_ids[i] = event.user_id
                sizes[i] = event.size
            else:
                raise TypeError(
                    f"cannot columnarize event of type {type(event).__name__}"
                )
        return cls(
            name=log.name,
            description=log.description,
            kinds=bytes(kinds),
            times=times,
            open_ids=open_ids,
            file_ids=file_ids,
            user_ids=user_ids,
            sizes=sizes,
            positions=positions,
            flags=bytes(flags),
        )

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self) -> Iterator[TraceEvent]:
        for i in range(len(self.kinds)):
            yield self.event(i)

    def event(self, i: int) -> TraceEvent:
        """Materialize row *i* as its event dataclass (lazy objects)."""
        try:
            return row_event(
                self.kinds[i],
                self.times[i],
                self.open_ids[i],
                self.file_ids[i],
                self.user_ids[i],
                self.sizes[i],
                self.positions[i],
                self.flags[i],
            )
        except TraceFormatError as exc:
            raise TraceFormatError(f"row {i}: {exc}") from None

    def to_log(self) -> TraceLog:
        """A log over these columns; it builds its events (one
        :meth:`event` per row) on the first read of ``log.events``."""
        return TraceLog._backed_by(self)

    # -- simple derived properties ------------------------------------------

    @property
    def start_time(self) -> float:
        return self.times[0] if len(self.times) else 0.0

    @property
    def end_time(self) -> float:
        return self.times[-1] if len(self.times) else 0.0

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    def count(self, kind: str) -> int:
        """Number of events whose kind label equals *kind*.

        The full per-kind histogram is tallied on first use and cached,
        so N ``count`` calls cost one tally, not N scans.  The cache is
        stamped with the ``kinds`` buffer's identity and length — the
        same staleness convention the per-log memo table uses: replacing
        a column invalidates it, and the immutable ``bytes`` kinds every
        reader and ``from_log`` produce cannot change behind the stamp.
        """
        stamp = (id(self.kinds), len(self.kinds))
        cached = self._kind_hist
        if cached is None or cached[0] != stamp:
            hist: dict[int, int] = {}
            for tag in KIND_LABELS:
                n = self.kinds.count(tag)
                if n:
                    hist[tag] = n
            self._kind_hist = cached = (stamp, hist)
        hist = cached[1]
        for tag, label in KIND_LABELS.items():
            if label == kind:
                return hist.get(tag, 0)
        return 0

    def nbytes(self) -> int:
        """Approximate resident size of the column buffers."""
        return (
            len(self.kinds)
            + len(self.flags)
            + sum(
                col.itemsize * len(col)
                for col in (
                    self.times,
                    self.open_ids,
                    self.file_ids,
                    self.user_ids,
                    self.sizes,
                    self.positions,
                )
            )
        )

    def summary_line(self) -> str:
        return (
            f"{self.name}: {len(self.kinds)} events over "
            f"{self.duration / 3600:.2f} hours (columnar)"
        )


def cached_columns(log: TraceLog) -> TraceColumns:
    """The columns of *log*: the ones it was loaded from while its events
    are unbuilt (no pass, no copy), else a memoized
    :meth:`TraceColumns.from_log` (one build per log)."""
    if log.columns is not None:
        return log.columns
    return memoize_per_log(log, ("columns",), lambda: TraceColumns.from_log(log))
