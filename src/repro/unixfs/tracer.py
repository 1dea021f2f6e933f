"""The kernel trace hook.

The paper's kernel modification (based on Lukac's trace package) logged the
Table II events from inside the system-call layer.  :class:`KernelTracer`
is our equivalent: the file system calls its ``on_*`` methods from the
corresponding syscalls, and it appends quantized records to a
:class:`~repro.trace.log.TraceLog`.  A :class:`NullTracer` is substituted
when tracing is off, so the syscall layer never branches on a flag.

Every hook emits one *row* — the corpus column layout of
:mod:`repro.trace.columns` — through :meth:`KernelTracer._emit`.  A sink
that takes rows (``append_row``: the corpus spool that
``generate(..., spool="x.bcorpus")`` writes through) receives them as
they are, so spooling builds no per-event objects; any other log
receives the event :func:`~repro.trace.columns.row_event` builds from
the row.

Crucially, there are **no hooks for read and write** — exactly the paper's
design.  Positions captured at open, seek and close are the only record of
data movement.
"""

from __future__ import annotations

from ..trace.columns import (
    FLAG_CREATED,
    FLAG_NEW_FILE,
    KIND_CLOSE,
    KIND_CREATE,
    KIND_EXEC,
    KIND_OPEN,
    KIND_SEEK,
    KIND_TRUNC,
    KIND_UNLINK,
    row_event,
)
from ..trace.log import TraceLog
from ..trace.records import AccessMode, quantize_time

__all__ = ["NullTracer", "KernelTracer"]


class NullTracer:
    """A tracer that records nothing (tracing disabled)."""

    def next_open_id(self) -> int:
        """Open ids are still handed out so the kernel's bookkeeping does
        not depend on whether tracing is enabled."""
        return 0

    def on_open(
        self,
        time: float,
        open_id: int,
        file_id: int,
        user_id: int,
        size: int,
        mode: AccessMode,
        created: bool,
        new_file: bool,
        initial_pos: int,
    ) -> None:
        pass

    def on_close(self, time: float, open_id: int, final_pos: int) -> None:
        pass

    def on_seek(self, time: float, open_id: int, prev_pos: int, new_pos: int) -> None:
        pass

    def on_create(self, time: float, file_id: int, user_id: int) -> None:
        pass

    def on_unlink(self, time: float, file_id: int) -> None:
        pass

    def on_truncate(self, time: float, file_id: int, new_length: int) -> None:
        pass

    def on_exec(self, time: float, file_id: int, user_id: int, size: int) -> None:
        pass


class KernelTracer(NullTracer):
    """Appends Table II records to a trace log.

    Times are quantized to the 10 ms tracer resolution, and made
    non-decreasing after quantization (two syscalls within one tick get the
    same timestamp, as on the real system).
    """

    def __init__(self, log: TraceLog | None = None, name: str = "trace"):
        self.log = log if log is not None else TraceLog(name=name)
        self._next_open_id = 1
        self._last_time = 0.0
        self._rows = getattr(self.log, "append_row", None)

    def next_open_id(self) -> int:
        open_id = self._next_open_id
        self._next_open_id += 1
        return open_id

    def _emit(
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
        """Quantize *time* and hand the row to the sink (the one path
        every hook takes)."""
        t = quantize_time(time)
        if t < self._last_time:
            t = self._last_time
        self._last_time = t
        if self._rows is not None:
            self._rows(kind, t, open_id, file_id, user_id, size, position, flags)
        else:
            self.log.append(
                row_event(kind, t, open_id, file_id, user_id, size, position, flags)
            )

    def on_open(
        self,
        time: float,
        open_id: int,
        file_id: int,
        user_id: int,
        size: int,
        mode: AccessMode,
        created: bool,
        new_file: bool,
        initial_pos: int,
    ) -> None:
        flags = (
            int(mode)
            | (FLAG_CREATED if created else 0)
            | (FLAG_NEW_FILE if new_file else 0)
        )
        self._emit(
            KIND_OPEN, time, open_id, file_id, user_id, size, initial_pos, flags
        )

    def on_close(self, time: float, open_id: int, final_pos: int) -> None:
        self._emit(KIND_CLOSE, time, open_id, 0, 0, 0, final_pos, 0)

    def on_seek(self, time: float, open_id: int, prev_pos: int, new_pos: int) -> None:
        self._emit(KIND_SEEK, time, open_id, 0, 0, prev_pos, new_pos, 0)

    def on_create(self, time: float, file_id: int, user_id: int) -> None:
        self._emit(KIND_CREATE, time, 0, file_id, user_id, 0, 0, 0)

    def on_unlink(self, time: float, file_id: int) -> None:
        self._emit(KIND_UNLINK, time, 0, file_id, 0, 0, 0, 0)

    def on_truncate(self, time: float, file_id: int, new_length: int) -> None:
        self._emit(KIND_TRUNC, time, 0, file_id, 0, new_length, 0, 0)

    def on_exec(self, time: float, file_id: int, user_id: int, size: int) -> None:
        self._emit(KIND_EXEC, time, 0, file_id, user_id, size, 0, 0)
