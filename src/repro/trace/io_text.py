"""Text (TSV) trace format.

One event per line, tab-separated, first field the event kind.  Header lines
beginning with ``#`` carry metadata (``# name:``, ``# description:``), and
the last line is ``# end: N events``: the readers require it, with N equal
to the events read, so a file cut short raises :class:`TraceFormatError`
instead of reading back as a shorter trace.  The format is meant to be
greppable and diffable; the binary format is the sharded corpus
(:mod:`repro.corpus`).

Integer fields must fit the corpus's signed 64-bit columns; a value
outside that range makes its line a malformed record.

Field layouts (after the kind tag)::

    open   time open_id file_id user_id size mode created new_file initial_pos
    close  time open_id final_pos
    seek   time open_id prev_pos new_pos
    create time file_id user_id
    unlink time file_id
    trunc  time file_id new_length
    exec   time file_id user_id size
"""

from __future__ import annotations

import os
import re
from typing import IO, Iterator, Union

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
    "TraceFormatError",
    "write_text",
    "read_text",
    "iter_text",
    "format_event",
    "parse_event_line",
]

_PathOrFile = Union[str, os.PathLike, IO[str]]


class TraceFormatError(ValueError):
    """Raised when a trace file cannot be parsed."""


_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _int(field: str) -> int:
    """An integer field, which must fit a signed 64-bit column."""
    value = int(field)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(f"{value} does not fit 64 bits")
    return value


def format_event(event: TraceEvent) -> str:
    """Serialize one event to its TSV line (no trailing newline)."""
    t = f"{event.time:.2f}"
    if isinstance(event, OpenEvent):
        return "\t".join(
            (
                "open",
                t,
                str(event.open_id),
                str(event.file_id),
                str(event.user_id),
                str(event.size),
                event.mode.label,
                "1" if event.created else "0",
                "1" if event.new_file else "0",
                str(event.initial_pos),
            )
        )
    if isinstance(event, CloseEvent):
        return "\t".join(("close", t, str(event.open_id), str(event.final_pos)))
    if isinstance(event, SeekEvent):
        return "\t".join(
            ("seek", t, str(event.open_id), str(event.prev_pos), str(event.new_pos))
        )
    if isinstance(event, CreateEvent):
        return "\t".join(("create", t, str(event.file_id), str(event.user_id)))
    if isinstance(event, UnlinkEvent):
        return "\t".join(("unlink", t, str(event.file_id)))
    if isinstance(event, TruncateEvent):
        return "\t".join(("trunc", t, str(event.file_id), str(event.new_length)))
    if isinstance(event, ExecEvent):
        return "\t".join(
            ("exec", t, str(event.file_id), str(event.user_id), str(event.size))
        )
    raise TraceFormatError(f"cannot serialize event of type {type(event).__name__}")


def parse_event_line(line: str) -> TraceEvent:
    """Parse one TSV line back into an event."""
    fields = line.rstrip("\r\n").split("\t")
    kind = fields[0]
    try:
        if kind == "open":
            return OpenEvent(
                time=float(fields[1]),
                open_id=_int(fields[2]),
                file_id=_int(fields[3]),
                user_id=_int(fields[4]),
                size=_int(fields[5]),
                mode=AccessMode.from_label(fields[6]),
                created=fields[7] == "1",
                new_file=fields[8] == "1",
                initial_pos=_int(fields[9]),
            )
        if kind == "close":
            return CloseEvent(
                time=float(fields[1]),
                open_id=_int(fields[2]),
                final_pos=_int(fields[3]),
            )
        if kind == "seek":
            return SeekEvent(
                time=float(fields[1]),
                open_id=_int(fields[2]),
                prev_pos=_int(fields[3]),
                new_pos=_int(fields[4]),
            )
        if kind == "create":
            return CreateEvent(
                time=float(fields[1]),
                file_id=_int(fields[2]),
                user_id=_int(fields[3]),
            )
        if kind == "unlink":
            return UnlinkEvent(time=float(fields[1]), file_id=_int(fields[2]))
        if kind == "trunc":
            return TruncateEvent(
                time=float(fields[1]),
                file_id=_int(fields[2]),
                new_length=_int(fields[3]),
            )
        if kind == "exec":
            return ExecEvent(
                time=float(fields[1]),
                file_id=_int(fields[2]),
                user_id=_int(fields[3]),
                size=_int(fields[4]),
            )
    except (IndexError, ValueError) as exc:
        raise TraceFormatError(f"malformed {kind!r} record: {line!r}") from exc
    raise TraceFormatError(f"unknown event kind {kind!r} in line {line!r}")


def _open_for_write(dest: _PathOrFile) -> tuple[IO[str], bool]:
    if hasattr(dest, "write"):
        return dest, False  # type: ignore[return-value]
    return open(dest, "w", encoding="utf-8"), True


def _open_for_read(src: _PathOrFile) -> tuple[IO[str], bool]:
    if hasattr(src, "read"):
        return src, False  # type: ignore[return-value]
    # newline="" keeps every byte of a line, so offsets count the file's
    # own bytes.
    return open(src, "r", encoding="utf-8", newline=""), True


def write_text(log: TraceLog, dest: _PathOrFile) -> int:
    """Write *log* to *dest* (path or text file object).  Returns the number
    of events written."""
    fh, should_close = _open_for_write(dest)
    try:
        fh.write(f"# name: {log.name}\n")
        if log.description:
            fh.write(f"# description: {log.description}\n")
        count = 0
        for event in log.events:
            fh.write(format_event(event))
            fh.write("\n")
            count += 1
        fh.write(f"# end: {count} events\n")
        return count
    finally:
        if should_close:
            fh.close()


_END_LINE = re.compile(r"# end: (\d+) events\r?\n?")


def _events(fh: IO[str], header: dict[str, str]) -> Iterator[TraceEvent]:
    """Parse *fh*'s events, checking them against its end line.

    ``# name:``/``# description:`` values land in *header* as they pass.
    """
    offset = 0  # bytes consumed so far
    count = 0
    claimed = None
    try:
        for line in fh:
            at = offset
            offset += len(line.encode("utf-8"))
            if claimed is not None:
                raise TraceFormatError(
                    f"text trace continues at byte {at}, after its end line"
                )
            if line.startswith("#"):
                if line.startswith("# end:"):
                    match = _END_LINE.fullmatch(line)
                    if match is None:
                        raise TraceFormatError(
                            f"malformed end line at byte {at}: {line!r}"
                        )
                    claimed = int(match.group(1))
                elif line.startswith("# name:"):
                    header["name"] = line.split(":", 1)[1].strip()
                elif line.startswith("# description:"):
                    header["description"] = line.split(":", 1)[1].strip()
                continue
            if line.strip():
                yield parse_event_line(line)
                count += 1
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            f"not a text trace: {exc.reason} at or after byte {offset}"
        ) from None
    if claimed is None:
        raise TraceFormatError(
            f"text trace ends at byte {offset} without its '# end: N events' "
            "line: the file was cut short, or predates the end line"
        )
    if claimed != count:
        raise TraceFormatError(
            f"end line claims {claimed} events but {count} were read "
            f"(the file ends at byte {offset})"
        )


def iter_text(src: _PathOrFile) -> Iterator[TraceEvent]:
    """Stream events from a text trace without materializing a list.

    The end-line check runs when the iteration finishes.
    """
    fh, should_close = _open_for_read(src)
    try:
        yield from _events(fh, {})
    finally:
        if should_close:
            fh.close()


def read_text(src: _PathOrFile) -> TraceLog:
    """Read a text trace file into a :class:`TraceLog`."""
    fh, should_close = _open_for_read(src)
    try:
        header = {"name": "trace", "description": ""}
        events = list(_events(fh, header))
        return TraceLog(events=events, **header)
    finally:
        if should_close:
            fh.close()
