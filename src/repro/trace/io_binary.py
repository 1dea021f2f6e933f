"""Compact binary trace format.

The paper's tracer kept records small to bound the data volume (~500-600
bytes/minute on the traced VAXes); this module serves the same purpose for
large synthetic traces.  Records are fixed-layout structs behind a one-byte
kind tag; times are stored as centiseconds (the tracer's 10 ms resolution)
in an unsigned 32-bit field, giving a maximum trace span of ~497 days.

File layout::

    magic    8 bytes  b"BSDTRC\\x00\\x01"
    name     u16 length + utf-8 bytes
    desc     u16 length + utf-8 bytes
    count    u64 number of events
    events   count records, each 1-byte tag + struct payload
"""

from __future__ import annotations

import os
import struct
from array import array
from typing import IO, Iterator, Union

from .columns import (
    FLAG_CREATED,
    FLAG_MODE_MASK,
    FLAG_NEW_FILE,
    KIND_CLOSE,
    KIND_CREATE,
    KIND_EXEC,
    KIND_OPEN,
    KIND_SEEK,
    KIND_TRUNC,
    KIND_UNLINK,
    TraceColumns,
)
from .log import TraceLog
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
    "write_binary",
    "read_binary",
    "write_binary_columns",
    "read_binary_columns",
    "iter_binary",
    "BinaryTraceStream",
    "BinaryTraceWriter",
    "TraceSpool",
    "MAGIC",
    "MAX_TRACE_TIME",
]

MAGIC = b"BSDTRC\x00\x01"

_PathOrFile = Union[str, os.PathLike, IO[bytes]]

# Tags are shared with the columnar store so a file deserializes straight
# into a TraceColumns (and back) without any per-event translation.
_TAG_OPEN = KIND_OPEN
_TAG_CLOSE = KIND_CLOSE
_TAG_SEEK = KIND_SEEK
_TAG_CREATE = KIND_CREATE
_TAG_UNLINK = KIND_UNLINK
_TAG_TRUNC = KIND_TRUNC
_TAG_EXEC = KIND_EXEC

_S_OPEN = struct.Struct("<IIIIQBBBQ")  # time_cs open_id file_id user_id size mode created new pos
_S_CLOSE = struct.Struct("<IIQ")  # time_cs open_id final_pos
_S_SEEK = struct.Struct("<IIQQ")  # time_cs open_id prev_pos new_pos
_S_CREATE = struct.Struct("<III")  # time_cs file_id user_id
_S_UNLINK = struct.Struct("<II")  # time_cs file_id
_S_TRUNC = struct.Struct("<IIQ")  # time_cs file_id new_length
_S_EXEC = struct.Struct("<IIIQ")  # time_cs file_id user_id size

_HEADER_COUNT = struct.Struct("<Q")
_HEADER_STR = struct.Struct("<H")


class BinaryTraceError(ValueError):
    """Raised when a binary trace file is corrupt or unrecognized."""


_MAX_CS = 0xFFFFFFFF

#: Largest event time (seconds) the on-disk u32 centisecond field can hold.
MAX_TRACE_TIME = _MAX_CS / 100.0


def _cs(time: float) -> int:
    cs = round(time * 100)
    if not 0 <= cs <= _MAX_CS:
        raise BinaryTraceError(
            f"event time {time!r} s does not fit the u32 centisecond field "
            f"(valid range 0..{MAX_TRACE_TIME:.2f} s, about 497 days); "
            "rebase the trace clock before writing"
        )
    return cs


def _pack_event(event: TraceEvent) -> bytes:
    if isinstance(event, OpenEvent):
        return bytes([_TAG_OPEN]) + _S_OPEN.pack(
            _cs(event.time),
            event.open_id,
            event.file_id,
            event.user_id,
            event.size,
            int(event.mode),
            1 if event.created else 0,
            1 if event.new_file else 0,
            event.initial_pos,
        )
    if isinstance(event, CloseEvent):
        return bytes([_TAG_CLOSE]) + _S_CLOSE.pack(
            _cs(event.time), event.open_id, event.final_pos
        )
    if isinstance(event, SeekEvent):
        return bytes([_TAG_SEEK]) + _S_SEEK.pack(
            _cs(event.time), event.open_id, event.prev_pos, event.new_pos
        )
    if isinstance(event, CreateEvent):
        return bytes([_TAG_CREATE]) + _S_CREATE.pack(
            _cs(event.time), event.file_id, event.user_id
        )
    if isinstance(event, UnlinkEvent):
        return bytes([_TAG_UNLINK]) + _S_UNLINK.pack(_cs(event.time), event.file_id)
    if isinstance(event, TruncateEvent):
        return bytes([_TAG_TRUNC]) + _S_TRUNC.pack(
            _cs(event.time), event.file_id, event.new_length
        )
    if isinstance(event, ExecEvent):
        return bytes([_TAG_EXEC]) + _S_EXEC.pack(
            _cs(event.time), event.file_id, event.user_id, event.size
        )
    raise BinaryTraceError(f"cannot serialize event of type {type(event).__name__}")


def _read_exact(fh: IO[bytes], n: int, what: str = "record data") -> bytes:
    try:
        at = fh.tell()
    except (OSError, ValueError):  # unseekable stream: no offset to report
        at = None
    data = fh.read(n)
    if len(data) != n:
        where = "" if at is None else f" at byte {at}"
        raise BinaryTraceError(
            f"truncated trace file: wanted {n} bytes for {what}{where}, "
            f"got {len(data)}"
        )
    return data


_MAX_I64 = (1 << 63) - 1


def _i64(value: int) -> int:
    """Bound an unsigned on-disk field to the signed 64-bit range.

    The writers never emit values this large (file offsets and sizes are
    far below 2^63), so a set high bit means corruption; letting it
    through would also crash the columnar store's signed arrays with an
    OverflowError (found by fuzzing a flipped high bit).
    """
    if value > _MAX_I64:
        raise BinaryTraceError(
            f"field value {value} exceeds the signed 64-bit range of the "
            "columnar store; corrupt trace file"
        )
    return value


def _unpack_event(tag: int, fh: IO[bytes]) -> TraceEvent:
    if tag == _TAG_OPEN:
        t, oid, fid, uid, size, mode, created, new, pos = _S_OPEN.unpack(
            _read_exact(fh, _S_OPEN.size)
        )
        return OpenEvent(
            time=t / 100.0,
            open_id=oid,
            file_id=fid,
            user_id=uid,
            size=_i64(size),
            mode=AccessMode(mode),
            created=bool(created),
            new_file=bool(new),
            initial_pos=_i64(pos),
        )
    if tag == _TAG_CLOSE:
        t, oid, pos = _S_CLOSE.unpack(_read_exact(fh, _S_CLOSE.size))
        return CloseEvent(time=t / 100.0, open_id=oid, final_pos=_i64(pos))
    if tag == _TAG_SEEK:
        t, oid, prev, new = _S_SEEK.unpack(_read_exact(fh, _S_SEEK.size))
        return SeekEvent(
            time=t / 100.0, open_id=oid, prev_pos=_i64(prev), new_pos=_i64(new)
        )
    if tag == _TAG_CREATE:
        t, fid, uid = _S_CREATE.unpack(_read_exact(fh, _S_CREATE.size))
        return CreateEvent(time=t / 100.0, file_id=fid, user_id=uid)
    if tag == _TAG_UNLINK:
        t, fid = _S_UNLINK.unpack(_read_exact(fh, _S_UNLINK.size))
        return UnlinkEvent(time=t / 100.0, file_id=fid)
    if tag == _TAG_TRUNC:
        t, fid, length = _S_TRUNC.unpack(_read_exact(fh, _S_TRUNC.size))
        return TruncateEvent(time=t / 100.0, file_id=fid, new_length=_i64(length))
    if tag == _TAG_EXEC:
        t, fid, uid, size = _S_EXEC.unpack(_read_exact(fh, _S_EXEC.size))
        return ExecEvent(time=t / 100.0, file_id=fid, user_id=uid, size=_i64(size))
    raise BinaryTraceError(f"unknown event tag {tag}")


def write_binary(log: TraceLog, dest: _PathOrFile) -> int:
    """Write *log* to *dest* in binary form; returns bytes written."""
    own = not hasattr(dest, "write")
    fh: IO[bytes] = open(dest, "wb") if own else dest  # type: ignore[assignment]
    try:
        written = 0
        name = log.name.encode("utf-8")
        desc = log.description.encode("utf-8")
        for chunk in (
            MAGIC,
            _HEADER_STR.pack(len(name)),
            name,
            _HEADER_STR.pack(len(desc)),
            desc,
            _HEADER_COUNT.pack(len(log.events)),
        ):
            fh.write(chunk)
            written += len(chunk)
        for event in log.events:
            data = _pack_event(event)
            fh.write(data)
            written += len(data)
        return written
    finally:
        if own:
            fh.close()


def _read_header(fh: IO[bytes]) -> tuple[str, str, int]:
    """Decode the shared header: (name, description, event count)."""
    magic = _read_exact(fh, len(MAGIC), "the magic")
    if magic != MAGIC:
        raise BinaryTraceError("not a binary trace file (bad magic)")
    (name_len,) = _HEADER_STR.unpack(
        _read_exact(fh, _HEADER_STR.size, "the name length")
    )
    name = _read_exact(fh, name_len, "the trace name").decode("utf-8")
    (desc_len,) = _HEADER_STR.unpack(
        _read_exact(fh, _HEADER_STR.size, "the description length")
    )
    desc = _read_exact(fh, desc_len, "the trace description").decode("utf-8")
    (count,) = _HEADER_COUNT.unpack(
        _read_exact(fh, _HEADER_COUNT.size, "the event count")
    )
    return name, desc, count


def _trailing_payload(count: int, at: int | None) -> BinaryTraceError:
    where = "" if at is None else f" at byte {at}"
    return BinaryTraceError(
        f"payload left after the {count} events the header counts{where}: "
        "a torn write (the count is patched only when the writer closes) "
        "or a corrupt count"
    )


def _check_consumed(fh: IO[bytes], count: int) -> None:
    """Raise when bytes follow the last of the *count* records."""
    try:
        at = fh.tell()
    except (OSError, ValueError):
        at = None
    if fh.read(1):
        raise _trailing_payload(count, at)


def read_binary(src: _PathOrFile) -> TraceLog:
    """Read a binary trace file into a :class:`TraceLog`.

    The records must end exactly where the stream does.
    """
    own = not hasattr(src, "read")
    fh: IO[bytes] = open(src, "rb") if own else src  # type: ignore[assignment]
    try:
        name, desc, count = _read_header(fh)
        events: list[TraceEvent] = []
        for i in range(count):
            tag = _read_exact(fh, 1, f"the tag of event {i + 1} of {count}")[0]
            events.append(_unpack_event(tag, fh))
        _check_consumed(fh, count)
        return TraceLog(name=name, description=desc, events=events)
    finally:
        if own:
            fh.close()


class BinaryTraceStream:
    """Event-at-a-time view of a binary trace file.

    Returned by :func:`iter_binary`: exposes the header fields
    (``name``, ``description``, ``count``) immediately and decodes
    records lazily as it is iterated, so a trace far larger than RAM can
    be consumed with O(1) memory; a full iteration raises if payload
    follows the last record.  Use as a context manager (or call
    :meth:`close`) to release the file handle.
    """

    def __init__(self, src: _PathOrFile):
        self._own = not hasattr(src, "read")
        self._fh: IO[bytes] = open(src, "rb") if self._own else src  # type: ignore[assignment]
        try:
            self.name, self.description, self.count = _read_header(self._fh)
        except Exception:
            self.close()
            raise
        self._consumed = 0

    def __iter__(self) -> Iterator[TraceEvent]:
        while self._consumed < self.count:
            tag = _read_exact(
                self._fh,
                1,
                f"the tag of event {self._consumed + 1} of {self.count}",
            )[0]
            event = _unpack_event(tag, self._fh)
            self._consumed += 1
            yield event
        _check_consumed(self._fh, self.count)

    def close(self) -> None:
        if self._own:
            self._fh.close()

    def __enter__(self) -> "BinaryTraceStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_binary(src: _PathOrFile) -> BinaryTraceStream:
    """Open a binary trace for streaming iteration (see
    :class:`BinaryTraceStream`)."""
    return BinaryTraceStream(src)


# -- columnar fast path ------------------------------------------------------


def _header_bytes(name: str, description: str, count: int) -> bytes:
    nameb = name.encode("utf-8")
    descb = description.encode("utf-8")
    return b"".join(
        (
            MAGIC,
            _HEADER_STR.pack(len(nameb)),
            nameb,
            _HEADER_STR.pack(len(descb)),
            descb,
            _HEADER_COUNT.pack(count),
        )
    )


_FLUSH_BYTES = 1 << 20


def write_binary_columns(cols: TraceColumns, dest: _PathOrFile) -> int:
    """Write a columnar trace; byte-identical to ``write_binary(cols.to_log())``.

    Packs records straight out of the typed columns — no event objects are
    materialized.  Returns bytes written.
    """
    own = not hasattr(dest, "write")
    fh: IO[bytes] = open(dest, "wb") if own else dest  # type: ignore[assignment]
    try:
        header = _header_bytes(cols.name, cols.description, len(cols))
        fh.write(header)
        written = len(header)
        kinds = cols.kinds
        times = cols.times
        open_ids = cols.open_ids
        file_ids = cols.file_ids
        user_ids = cols.user_ids
        sizes = cols.sizes
        positions = cols.positions
        flags = cols.flags
        tag_bytes = [bytes([tag]) for tag in range(8)]
        out = bytearray()
        for i in range(len(kinds)):
            kind = kinds[i]
            t = _cs(times[i])
            out += tag_bytes[kind]
            if kind == _TAG_OPEN:
                fl = flags[i]
                out += _S_OPEN.pack(
                    t,
                    open_ids[i],
                    file_ids[i],
                    user_ids[i],
                    sizes[i],
                    fl & FLAG_MODE_MASK,
                    1 if fl & FLAG_CREATED else 0,
                    1 if fl & FLAG_NEW_FILE else 0,
                    positions[i],
                )
            elif kind == _TAG_CLOSE:
                out += _S_CLOSE.pack(t, open_ids[i], positions[i])
            elif kind == _TAG_SEEK:
                out += _S_SEEK.pack(t, open_ids[i], sizes[i], positions[i])
            elif kind == _TAG_CREATE:
                out += _S_CREATE.pack(t, file_ids[i], user_ids[i])
            elif kind == _TAG_UNLINK:
                out += _S_UNLINK.pack(t, file_ids[i])
            elif kind == _TAG_TRUNC:
                out += _S_TRUNC.pack(t, file_ids[i], sizes[i])
            elif kind == _TAG_EXEC:
                out += _S_EXEC.pack(t, file_ids[i], user_ids[i], sizes[i])
            else:
                raise BinaryTraceError(f"unknown kind tag {kind} at row {i}")
            if len(out) >= _FLUSH_BYTES:
                fh.write(out)
                written += len(out)
                out.clear()
        if out:
            fh.write(out)
            written += len(out)
        return written
    finally:
        if own:
            fh.close()


def read_binary_columns(src: _PathOrFile) -> TraceColumns:
    """Read a binary trace file straight into a :class:`TraceColumns`.

    Decodes the record payload with ``unpack_from`` over one contiguous
    buffer — no per-event objects, no per-record ``read`` calls.  Reads the
    remainder of the stream, so pass a handle positioned at the magic; the
    records must end exactly where the stream does.
    """
    own = not hasattr(src, "read")
    fh: IO[bytes] = open(src, "rb") if own else src  # type: ignore[assignment]
    try:
        name, desc, count = _read_header(fh)
        try:
            payload_at = fh.tell()
        except (OSError, ValueError):
            payload_at = None
        payload = fh.read()
    finally:
        if own:
            fh.close()

    # The count is untrusted input and sizes the column allocations below;
    # bound it by the smallest possible record before allocating (found by
    # fuzzing: an inflated count used to raise MemoryError, not a
    # diagnostic).
    min_record = 1 + _S_UNLINK.size
    if count * min_record > len(payload):
        where = "" if payload_at is None else f" after byte {payload_at}"
        raise BinaryTraceError(
            f"truncated trace file: header claims {count} events "
            f"(>= {count * min_record} bytes) but only {len(payload)} "
            f"payload bytes follow{where}"
        )

    kinds = bytearray(count)
    flags = bytearray(count)
    times = array("d", bytes(8 * count))
    open_ids = array("q", bytes(8 * count))
    file_ids = array("q", bytes(8 * count))
    user_ids = array("q", bytes(8 * count))
    sizes = array("q", bytes(8 * count))
    positions = array("q", bytes(8 * count))
    off = 0
    try:
        for i in range(count):
            tag = payload[off]
            off += 1
            kinds[i] = tag
            if tag == _TAG_OPEN:
                t, oid, fid, uid, size, mode, created, new, pos = _S_OPEN.unpack_from(
                    payload, off
                )
                off += _S_OPEN.size
                if mode == 0 or mode & ~FLAG_MODE_MASK:
                    # The writers only emit AccessMode 1..3; anything else
                    # would alias the created/new-file flag bits when
                    # packed below (found by fuzzing: a flipped mode bit
                    # used to decode as a clean trace with created=True).
                    raise BinaryTraceError(
                        f"invalid access mode {mode} in event {i + 1} of "
                        f"{count}; corrupt trace file"
                    )
                times[i] = t / 100.0
                open_ids[i] = oid
                file_ids[i] = fid
                user_ids[i] = uid
                sizes[i] = size
                positions[i] = pos
                flags[i] = (
                    mode
                    | (FLAG_CREATED if created else 0)
                    | (FLAG_NEW_FILE if new else 0)
                )
            elif tag == _TAG_CLOSE:
                t, oid, pos = _S_CLOSE.unpack_from(payload, off)
                off += _S_CLOSE.size
                times[i] = t / 100.0
                open_ids[i] = oid
                positions[i] = pos
            elif tag == _TAG_SEEK:
                t, oid, prev, new = _S_SEEK.unpack_from(payload, off)
                off += _S_SEEK.size
                times[i] = t / 100.0
                open_ids[i] = oid
                sizes[i] = prev
                positions[i] = new
            elif tag == _TAG_CREATE:
                t, fid, uid = _S_CREATE.unpack_from(payload, off)
                off += _S_CREATE.size
                times[i] = t / 100.0
                file_ids[i] = fid
                user_ids[i] = uid
            elif tag == _TAG_UNLINK:
                t, fid = _S_UNLINK.unpack_from(payload, off)
                off += _S_UNLINK.size
                times[i] = t / 100.0
                file_ids[i] = fid
            elif tag == _TAG_TRUNC:
                t, fid, length = _S_TRUNC.unpack_from(payload, off)
                off += _S_TRUNC.size
                times[i] = t / 100.0
                file_ids[i] = fid
                sizes[i] = length
            elif tag == _TAG_EXEC:
                t, fid, uid, size = _S_EXEC.unpack_from(payload, off)
                off += _S_EXEC.size
                times[i] = t / 100.0
                file_ids[i] = fid
                user_ids[i] = uid
                sizes[i] = size
            else:
                raise BinaryTraceError(f"unknown event tag {tag}")
    except (IndexError, struct.error):
        where = "" if payload_at is None else f" at byte {payload_at + off}"
        raise BinaryTraceError(
            f"truncated trace file: event {i + 1} of {count} is "
            f"incomplete{where}"
        ) from None
    except OverflowError:
        # A u64 field with its high bit set does not fit the signed
        # column arrays; the writers never emit such values.
        raise BinaryTraceError(
            f"field value in event {i + 1} of {count} exceeds the signed "
            "64-bit range of the columnar store; corrupt trace file"
        ) from None
    if off < len(payload):
        raise _trailing_payload(count, None if payload_at is None else payload_at + off)
    return TraceColumns(
        name=name,
        description=desc,
        kinds=bytes(kinds),
        times=times,
        open_ids=open_ids,
        file_ids=file_ids,
        user_ids=user_ids,
        sizes=sizes,
        positions=positions,
        flags=bytes(flags),
    )


# -- incremental writing -----------------------------------------------------


class BinaryTraceWriter:
    """Incremental binary trace writer.

    Writes the header with a zero event count up front, streams packed
    records through an internal buffer, and patches the count in place on
    :meth:`close` — so the destination must be seekable.  Use as a context
    manager, or call :meth:`close` explicitly; the file is not a valid
    trace until the count has been patched.
    """

    def __init__(self, dest: _PathOrFile, name: str = "trace", description: str = ""):
        self._own = not hasattr(dest, "write")
        fh: IO[bytes] = open(dest, "wb") if self._own else dest  # type: ignore[assignment]
        if not (hasattr(fh, "seek") and (not hasattr(fh, "seekable") or fh.seekable())):
            if self._own:
                fh.close()
            raise BinaryTraceError(
                "incremental trace writing needs a seekable destination "
                "(the event count is patched into the header at close)"
            )
        self._fh = fh
        self.name = name
        self.description = description
        self.events_written = 0
        self._buffer = bytearray()
        self._closed = False
        header = _header_bytes(name, description, 0)
        fh.write(header)
        # The count is the last u64 of the header.
        self._count_at = fh.tell() - _HEADER_COUNT.size

    def write(self, event: TraceEvent) -> None:
        """Append one event record."""
        if self._closed:
            raise BinaryTraceError("writer is closed")
        self._buffer += _pack_event(event)
        self.events_written += 1
        if len(self._buffer) >= _FLUSH_BYTES:
            self._flush()

    def _flush(self) -> None:
        if self._buffer:
            self._fh.write(self._buffer)
            self._buffer.clear()

    def close(self) -> None:
        """Flush buffered records and patch the event count."""
        if self._closed:
            return
        self._flush()
        end = self._fh.tell()
        self._fh.seek(self._count_at)
        self._fh.write(_HEADER_COUNT.pack(self.events_written))
        self._fh.seek(end)
        self._closed = True
        if self._own:
            self._fh.close()
        else:
            self._fh.flush()

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TraceSpool:
    """A ``TraceLog``-shaped sink that spools events to a binary file.

    Quacks like a :class:`~repro.trace.log.TraceLog` for producers — it has
    ``name``/``description`` attributes, an ``events`` list, and a
    time-ordered ``append`` — but keeps at most ``buffer_events`` events
    resident: whenever the buffer fills it is packed into an underlying
    :class:`BinaryTraceWriter` and cleared, so generating a multi-day trace
    costs O(buffer) memory instead of O(events).

    The writer (and hence the file header) is created lazily at the first
    drain, so ``name``/``description`` may still be assigned after
    construction, before any events arrive — exactly how the workload
    generator configures its tracer's log.
    """

    def __init__(
        self,
        dest: _PathOrFile,
        name: str = "trace",
        description: str = "",
        buffer_events: int = 8192,
    ):
        if buffer_events < 1:
            raise ValueError("buffer_events must be >= 1")
        self._dest = dest
        self.name = name
        self.description = description
        self.buffer_events = buffer_events
        self.events: list[TraceEvent] = []
        self.events_spooled = 0
        self.peak_buffered = 0
        self._writer: BinaryTraceWriter | None = None
        self._last_time: float | None = None
        self._closed = False

    def append(self, event: TraceEvent) -> None:
        if self._closed:
            raise BinaryTraceError("spool is closed")
        if self._last_time is not None and event.time < self._last_time:
            raise ValueError(
                f"event at t={event.time} appended after t={self._last_time}; "
                "trace events must be in time order"
            )
        self._last_time = event.time
        self.events.append(event)
        if len(self.events) > self.peak_buffered:
            self.peak_buffered = len(self.events)
        if len(self.events) >= self.buffer_events:
            self._drain()

    def extend(self, events) -> None:
        for event in events:
            self.append(event)

    def __len__(self) -> int:
        return self.events_spooled + len(self.events)

    def _drain(self) -> None:
        if self._writer is None:
            self._writer = BinaryTraceWriter(
                self._dest, name=self.name, description=self.description
            )
        for event in self.events:
            self._writer.write(event)
        self.events_spooled += len(self.events)
        self.events.clear()

    def close(self) -> None:
        """Drain the buffer and finalize the file (valid even if empty)."""
        if self._closed:
            return
        self._drain()
        assert self._writer is not None  # _drain always creates it
        self._writer.close()
        self._closed = True

    def __enter__(self) -> "TraceSpool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
