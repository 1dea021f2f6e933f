"""The cache simulator's input stream.

The simulator consumes a time-ordered sequence of two item kinds derived
from a trace:

* :class:`~repro.analysis.accesses.Transfer` — a billed byte-range
  movement (one per sequential run, at the close/seek that bounded it);
* :class:`Invalidation` — a point after which a file's blocks (from some
  block index up) are dead: an unlink, a truncate, or a truncating open.

Ties in the 10 ms trace clock are broken by original event order, so a
``creat``'s invalidation always precedes the data its open writes.

Section 6.4's paging approximation is implemented here too: with
``include_paging=True`` every ``execve`` event contributes a whole-file
read of the program image at exec time ("we simulated paging activity by
forcing a whole-file read to each program file at the time the program was
executed").

:func:`build_stream` is the specification.  :func:`derive_stream` is what
the memoized products use: it runs the numpy kernel
(:func:`~repro.analysis.vectorized.build_stream_numpy`) over the trace's
columns and gets the stream as :class:`StreamArrays`.
:func:`cached_stream` memoizes those arrays as they are, and
:func:`~repro.parallel.packed.cached_packed_stream` packs them, so no
item object lives longer than the loop that iterates the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Union

from ..analysis.accesses import Run, Transfer  # noqa: F401 (Run re-exported)
from ..trace.columns import TraceColumns
from ..trace.log import TraceLog
from ..trace.memo import memoize_per_log
from ..trace.records import (
    AccessMode,
    CloseEvent,
    ExecEvent,
    OpenEvent,
    SeekEvent,
    TruncateEvent,
    UnlinkEvent,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    import numpy as np

__all__ = [
    "Invalidation",
    "StreamArrays",
    "StreamItem",
    "build_stream",
    "cached_stream",
    "derive_stream",
]


@dataclass(frozen=True, slots=True)
class Invalidation:
    """A file's blocks at or past ``from_byte`` are dead as of ``time``."""

    time: float
    file_id: int
    from_byte: int


StreamItem = Union[Transfer, Invalidation]

#: Rows :class:`StreamArrays` turns into objects per step of an iteration.
_SLICE_ROWS = 4096


@dataclass(frozen=True, eq=False, slots=True)
class StreamArrays:
    """An item stream as parallel arrays, one entry per item in stream
    order.

    An entry is an :class:`Invalidation` where ``invalidate`` is set (its
    ``from_byte`` is in ``starts``) and a :class:`Transfer` elsewhere.
    Iterating yields the items as objects, so anything that takes a
    stream takes this too; each iteration builds them afresh, and a
    caller that needs a list says ``list(...)``.
    """

    invalidate: np.ndarray  # bool
    is_write: np.ndarray  # bool
    file_ids: np.ndarray  # int64
    user_ids: np.ndarray  # int64
    starts: np.ndarray  # int64: a transfer's start, an invalidation's from_byte
    ends: np.ndarray  # int64
    times: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[StreamItem]:
        # One slice of rows at a time: converting whole columns up front
        # would hold seven stream-long lists while the caller iterates.
        columns = (
            self.invalidate, self.is_write, self.file_ids, self.user_ids,
            self.starts, self.ends, self.times,
        )
        for lo in range(0, len(self), _SLICE_ROWS):
            hi = lo + _SLICE_ROWS
            rows = zip(*(c[lo:hi].tolist() for c in columns))
            for inv, write, fid, uid, start, end, t in rows:
                if inv:
                    yield Invalidation(t, fid, start)
                else:
                    yield Transfer(t, fid, uid, start, end, write)


def build_stream(log: TraceLog, include_paging: bool = False) -> list[StreamItem]:
    """Derive the simulator input from *log*.

    Returns items sorted by (time, original event order).  Each open's
    sequential runs become transfers billed at the close/seek that ended
    them; read-write runs count as writes (the tracer cannot split them,
    and they can dirty blocks).
    """
    items: list[tuple[float, int, StreamItem]] = []
    # open_id -> (OpenEvent, current position)
    in_progress: dict[int, tuple[OpenEvent, int]] = {}

    def emit_run(opener: OpenEvent, start: int, end: int, time: float, seq: int) -> None:
        if end > start:
            items.append(
                (
                    time,
                    seq,
                    Transfer(
                        time=time,
                        file_id=opener.file_id,
                        user_id=opener.user_id,
                        start=start,
                        end=end,
                        is_write=opener.mode is not AccessMode.READ,
                    ),
                )
            )

    for seq, event in enumerate(log.events):
        if isinstance(event, OpenEvent):
            if event.created:
                # O_TRUNC/creat: whatever the cache holds for this file is
                # dead before any new data arrives.
                items.append(
                    (event.time, seq, Invalidation(event.time, event.file_id, 0))
                )
            in_progress[event.open_id] = (event, event.initial_pos)
        elif isinstance(event, SeekEvent):
            state = in_progress.get(event.open_id)
            if state is None:
                continue
            opener, pos = state
            emit_run(opener, pos, event.prev_pos, event.time, seq)
            in_progress[event.open_id] = (opener, event.new_pos)
        elif isinstance(event, CloseEvent):
            state = in_progress.pop(event.open_id, None)
            if state is None:
                continue
            opener, pos = state
            emit_run(opener, pos, event.final_pos, event.time, seq)
        elif isinstance(event, UnlinkEvent):
            items.append((event.time, seq, Invalidation(event.time, event.file_id, 0)))
        elif isinstance(event, TruncateEvent):
            items.append(
                (
                    event.time,
                    seq,
                    Invalidation(event.time, event.file_id, event.new_length),
                )
            )
        elif isinstance(event, ExecEvent) and include_paging:
            if event.size > 0:
                items.append(
                    (
                        event.time,
                        seq,
                        Transfer(
                            time=event.time,
                            file_id=event.file_id,
                            user_id=event.user_id,
                            start=0,
                            end=event.size,
                            is_write=False,
                        ),
                    )
                )

    items.sort(key=lambda x: (x[0], x[1]))
    return [item for _, _, item in items]


def derive_stream(
    log: TraceLog, include_paging: bool = False
) -> StreamArrays | list[StreamItem]:
    """The stream of *log*, computed from columns.

    The numpy kernel runs on the columns *log* was loaded from, or, for
    a log of events, on a :meth:`TraceColumns.from_log` pass that is not
    kept.  :func:`build_stream` reruns the derivation only when the
    kernel declines the input, or when an event holds an integer past
    the int64 columns; both give the same items (fuzz pillar 5 checks
    this).
    """
    from ..analysis.vectorized import VectorFallback, build_stream_numpy

    try:
        cols = log.columns
        if cols is None:
            cols = TraceColumns.from_log(log)
        return build_stream_numpy(cols, include_paging)
    except (OverflowError, VectorFallback):
        return build_stream(log, include_paging=include_paging)


def cached_stream(
    log: TraceLog, include_paging: bool = False
) -> StreamArrays | list[StreamItem]:
    """Memoized :func:`derive_stream` (one build per log and paging flag).

    The memo holds what :func:`derive_stream` returns: the kernel's
    :class:`StreamArrays`, or :func:`build_stream`'s list when the kernel
    declines.  Either iterates as the same items, any number of times.
    """
    return memoize_per_log(
        log,
        ("stream", include_paging),
        lambda: derive_stream(log, include_paging),
    )
