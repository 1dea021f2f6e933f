"""Pillar 1: the kernel's trace must replay to the kernel's own state.

The paper's tracer records no reads or writes — positions at open, seek
and close are the whole story.  That makes byte conservation checkable
exactly: between two position-recording events a descriptor's offset
moves only forward (reads and writes advance it; any other movement is
an lseek, which is traced), so at every step

    bytes moved through an open  ==  runs already billed by its trace
                                     events
                                  +  (current offset - last recorded
                                     position)

and at close the two sides must meet exactly.  :class:`ReplayChecker`
maintains the right-hand side incrementally from the emitted events —
O(live opens) per syscall, so it runs after *every* fuzzed step — and a
periodic full check layers on :func:`repro.trace.validate.validate`,
:func:`repro.analysis.accesses.reconstruct_accesses` and
:func:`repro.unixfs.check.fsck`.  :func:`check_ops` runs one syscall
sequence under the checker, then the differential oracles over the
kernel's own trace.
"""

from __future__ import annotations

from ..analysis.accesses import reconstruct_accesses
from ..trace.log import TraceLog
from ..trace.records import CloseEvent, OpenEvent, SeekEvent
from ..trace.validate import validate
from ..unixfs.check import fsck
from ..unixfs.fdtable import OpenFile
from ..unixfs.filesystem import FileSystem
from .gen import SyscallOp, apply_ops
from .oracles import canonicalize_times, check_all

__all__ = ["ReplayChecker", "check_ops"]

#: Full validate+fsck cadence, in executed ops.
FULL_CHECK_EVERY = 16


class ReplayChecker:
    """Incremental trace-vs-kernel oracle for one fuzzed file system."""

    def __init__(self, fs: FileSystem, log: TraceLog):
        self.fs = fs
        self.log = log
        self._scanned = 0  # events already folded into the mirror
        self._last_pos: dict[int, int] = {}  # open_id -> last recorded position
        self._billed: dict[int, int] = {}  # open_id -> bytes billed so far
        self._entries: dict[int, OpenFile] = {}  # open_id -> live entry
        self._closed_billed = 0  # total billed at closes (round summary)
        self._closed_opens = 0

    def note_entry(self, entry: OpenFile) -> None:
        """Register a freshly opened descriptor's table entry."""
        self._entries[entry.open_id] = entry

    # -- per-step check ---------------------------------------------------------

    def check_step(self) -> str | None:
        """Fold new trace events in; return a divergence description or None."""
        events = self.log.events
        for i in range(self._scanned, len(events)):
            event = events[i]
            if isinstance(event, OpenEvent):
                if event.open_id in self._last_pos:
                    return f"open_id {event.open_id} traced open twice"
                self._last_pos[event.open_id] = event.initial_pos
                self._billed[event.open_id] = 0
            elif isinstance(event, SeekEvent):
                last = self._last_pos.get(event.open_id)
                if last is None:
                    return f"seek traced on unknown open_id {event.open_id}"
                self._billed[event.open_id] += max(0, event.prev_pos - last)
                self._last_pos[event.open_id] = event.new_pos
            elif isinstance(event, CloseEvent):
                last = self._last_pos.pop(event.open_id, None)
                if last is None:
                    return f"close traced on unknown open_id {event.open_id}"
                billed = self._billed.pop(event.open_id) + max(
                    0, event.final_pos - last
                )
                entry = self._entries.pop(event.open_id, None)
                if entry is None:
                    return f"close traced for untracked open_id {event.open_id}"
                actual = entry.bytes_read + entry.bytes_written
                if billed != actual:
                    return (
                        f"open_id {event.open_id}: trace bills {billed} bytes "
                        f"but the kernel moved {actual}"
                    )
                self._closed_billed += billed
                self._closed_opens += 1
        self._scanned = len(events)

        # Live opens: the trace-so-far plus untraced forward motion must
        # account for every byte moved.
        for open_id, entry in self._entries.items():
            last = self._last_pos.get(open_id)
            if last is None:
                return f"open_id {open_id} live in the kernel but closed in the trace"
            actual = entry.bytes_read + entry.bytes_written
            expected = self._billed[open_id] + (entry.offset - last)
            if entry.offset < last:
                return (
                    f"open_id {open_id}: offset {entry.offset} behind the last "
                    f"traced position {last} with no seek event"
                )
            if actual != expected:
                return (
                    f"open_id {open_id}: kernel moved {actual} bytes but trace "
                    f"accounts for {expected} "
                    f"(billed {self._billed[open_id]}, offset {entry.offset}, "
                    f"last recorded {last})"
                )
        return None

    # -- periodic / end-of-round check ------------------------------------------

    def check_full(self) -> str | None:
        """Validator + access reconstruction + fsck over the whole state."""
        step = self.check_step()
        if step is not None:
            return step
        report = validate(self.log)
        if not report.ok:
            return f"kernel trace fails validate: {report.problems[0]}"
        accesses = reconstruct_accesses(self.log)
        reconstructed = sum(a.bytes_transferred for a in accesses)
        if len(accesses) != self._closed_opens:
            return (
                f"reconstruct_accesses found {len(accesses)} closed accesses "
                f"but the kernel closed {self._closed_opens}"
            )
        if reconstructed != self._closed_billed:
            return (
                f"reconstruct_accesses bills {reconstructed} bytes for closed "
                f"accesses but the incremental mirror billed {self._closed_billed}"
            )
        fsck_report = fsck(self.fs)
        if not fsck_report.ok:
            return f"fsck not clean: {fsck_report.problems[0]}"
        return None


def check_ops(ops: list[SyscallOp]) -> str | None:
    """Run *ops* on a fresh kernel under the replay oracle; returns the
    first divergence or None."""
    checker: ReplayChecker | None = None
    failure: str | None = None

    def on_step(result, _op) -> None:
        nonlocal checker, failure
        if failure is not None:
            return
        if checker is None:
            checker = ReplayChecker(result.fs, result.tracer.log)
        for entry in result.fs.fds.open_files():
            checker.note_entry(entry)
        if result.executed % FULL_CHECK_EVERY == 0:
            failure = checker.check_full()
        else:
            failure = checker.check_step()

    result = apply_ops(ops, on_step=on_step)
    if failure is None and checker is not None:
        failure = checker.check_full()
    # The kernel's own trace must satisfy the differential oracles too.
    return failure or check_all(canonicalize_times(result.tracer.log))
