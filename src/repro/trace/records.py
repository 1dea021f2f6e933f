"""Trace event records.

These mirror Table II of the paper: the kernel trace package logged seven
logical file-system events (open/create, close, seek, unlink, truncate and
execve) and *no* individual read or write requests.  Because file I/O in UNIX
is implicitly sequential, the positions recorded at open, close and seek fully
determine which bytes were transferred; the analysis layer reconstructs the
byte ranges from these events alone.

All times are seconds since the start of the trace (floats).  The kernel
tracer quantized times to roughly 10 ms; :func:`quantize_time` applies the
same rounding.  ``open_id`` is unique per ``open`` call (disambiguating
concurrent accesses to one file) and ``file_id`` is unique per file.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

__all__ = [
    "AccessMode",
    "OpenEvent",
    "CloseEvent",
    "SeekEvent",
    "CreateEvent",
    "UnlinkEvent",
    "TruncateEvent",
    "ExecEvent",
    "TraceEvent",
    "EVENT_KINDS",
    "MAX_TRACE_TIME",
    "quantize_time",
]

#: Resolution of the kernel tracer's clock, in seconds (the paper quotes
#: "approximately 10 milliseconds").
TIME_RESOLUTION = 0.01

#: Largest valid event time, in seconds (2^32 - 1 ticks of the tracer's
#: clock, about 497 days).  A trace-validity rule: it rejects negative,
#: NaN and absurd times arriving from converters or foreign corpora.
MAX_TRACE_TIME = 0xFFFFFFFF * TIME_RESOLUTION


def quantize_time(time: float) -> float:
    """Round *time* to the tracer's 10 ms clock resolution."""
    return round(time / TIME_RESOLUTION) * TIME_RESOLUTION


class AccessMode(enum.IntEnum):
    """How a file was opened (derived from the open flags)."""

    READ = 1
    WRITE = 2
    READ_WRITE = 3

    @property
    def readable(self) -> bool:
        return self is not AccessMode.WRITE

    @property
    def writable(self) -> bool:
        return self is not AccessMode.READ

    @property
    def label(self) -> str:
        return {1: "r", 2: "w", 3: "rw"}[int(self)]

    @classmethod
    def from_label(cls, label: str) -> "AccessMode":
        try:
            return {"r": cls.READ, "w": cls.WRITE, "rw": cls.READ_WRITE}[label]
        except KeyError:
            raise ValueError(f"unknown access-mode label {label!r}") from None


@dataclass(frozen=True, slots=True)
class OpenEvent:
    """An ``open`` system call.

    ``size`` is the file's size at the time of the open (after any O_TRUNC
    processing).  ``created`` is true when the call created the file or
    truncated an existing file to zero length — in either case the data
    subsequently written is *new* data for lifetime purposes (Figure 4).
    ``new_file`` is true only when the file did not exist before (the
    Table III "create" accounting).  ``initial_pos`` is 0 for ordinary
    opens and the file size for appends.
    """

    time: float
    open_id: int
    file_id: int
    user_id: int
    size: int
    mode: AccessMode
    created: bool = False
    new_file: bool = False
    initial_pos: int = 0

    kind = "open"


@dataclass(frozen=True, slots=True)
class CloseEvent:
    """A ``close`` system call; records the final access position."""

    time: float
    open_id: int
    final_pos: int

    kind = "close"


@dataclass(frozen=True, slots=True)
class SeekEvent:
    """An ``lseek`` that changed the access position within an open file.

    Records both the previous position (bounding the preceding sequential
    run) and the new position (starting the next run).
    """

    time: float
    open_id: int
    prev_pos: int
    new_pos: int

    kind = "seek"


@dataclass(frozen=True, slots=True)
class CreateEvent:
    """A ``creat``-style file creation (paper Table III counts these
    separately from plain opens).  The matching :class:`OpenEvent` with
    ``created=True`` immediately follows; this record exists so traces carry
    the same event mix as Table III."""

    time: float
    file_id: int
    user_id: int

    kind = "create"


@dataclass(frozen=True, slots=True)
class UnlinkEvent:
    """An ``unlink`` (file deletion)."""

    time: float
    file_id: int

    kind = "unlink"


@dataclass(frozen=True, slots=True)
class TruncateEvent:
    """A ``truncate`` (file shortened to ``new_length``)."""

    time: float
    file_id: int
    new_length: int

    kind = "trunc"


@dataclass(frozen=True, slots=True)
class ExecEvent:
    """An ``execve`` (program load); records the program file's size so that
    paging activity can be approximated (Section 6.4 / Figure 7)."""

    time: float
    file_id: int
    user_id: int
    size: int

    kind = "exec"


TraceEvent = Union[
    OpenEvent,
    CloseEvent,
    SeekEvent,
    CreateEvent,
    UnlinkEvent,
    TruncateEvent,
    ExecEvent,
]

#: Map of serialized kind tag -> event class.
EVENT_KINDS = {
    cls.kind: cls
    for cls in (
        OpenEvent,
        CloseEvent,
        SeekEvent,
        CreateEvent,
        UnlinkEvent,
        TruncateEvent,
        ExecEvent,
    )
}
