"""Convert parsed strace calls into the paper's logical trace format.

The conversion deliberately *discards* the read/write records after using
them to track file offsets — producing exactly what the paper's kernel
tracer would have logged: positions at open, seek and close.  (That makes
this converter double as a demonstration of the no-read-write method on
real data: the byte ranges reconstructed downstream are identical to what
the reads and writes actually moved, as the paper argues.)

Approximations forced by what strace gives us:

* **File ids** are assigned per pathname, with a new id after an unlink
  (matching the paper's per-file identity); renames carry the id to the
  new name.
* **File sizes** are not visible at open time; each file's size is
  estimated from the furthest position observed (reads hitting EOF pin it
  exactly).
* **User ids** are synthesized from pids, so "per-user" analyses become
  per-process.
* **Integers past int64** fit no trace row: a call whose pid, return
  value or integer argument lies outside -2^63..2^63-1, or that would
  move a position there, emits no event and counts as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..trace.log import TraceLog
from ..trace.records import (
    AccessMode,
    CloseEvent,
    ExecEvent,
    OpenEvent,
    SeekEvent,
    TruncateEvent,
    UnlinkEvent,
)
from .parser import StraceCall

__all__ = ["ConversionStats", "convert_calls", "convert_file"]

_O_WRONLY = 0o1
_O_RDWR = 0o2
_O_CREAT = 0o100
_O_TRUNC = 0o1000
_O_APPEND = 0o2000

_SEEK_SET, _SEEK_CUR, _SEEK_END = 0, 1, 2

#: The integers a trace row can hold (its columns are int64).
_INT64_RANGE = range(-(1 << 63), 1 << 63)


class _Unrepresentable(Exception):
    """An integer the call carries, or a position it moves to, lies
    outside int64: the call emits no event."""


def _int64(value: int | None) -> int | None:
    """*value*, unless it is an integer a trace row cannot hold."""
    if value is not None and value not in _INT64_RANGE:
        raise _Unrepresentable
    return value


@dataclass
class ConversionStats:
    """What the converter saw and what it kept."""

    calls: int = 0
    opens: int = 0
    reads_folded: int = 0
    writes_folded: int = 0
    skipped: int = 0

    def summary(self) -> str:
        return (
            f"{self.calls} calls -> {self.opens} opens; folded "
            f"{self.reads_folded} reads + {self.writes_folded} writes into "
            f"positions; skipped {self.skipped}"
        )


@dataclass
class _OpenState:
    open_id: int
    file_key: str
    pos: int
    mode: AccessMode


def _flags_of(call: StraceCall) -> int:
    """Parse the symbolic O_* flag argument of open/openat."""
    flag_arg = None
    for part in call.args.split(","):
        if "O_" in part:
            flag_arg = part
            break
    if flag_arg is None:
        return 0
    flags = 0
    mapping = {
        "O_WRONLY": _O_WRONLY,
        "O_RDWR": _O_RDWR,
        "O_CREAT": _O_CREAT,
        "O_TRUNC": _O_TRUNC,
        "O_APPEND": _O_APPEND,
    }
    for token in flag_arg.split("|"):
        flags |= mapping.get(token.strip(), 0)
    return flags


class _Converter:
    def __init__(self, name: str):
        self.log = TraceLog(name=name)
        self.stats = ConversionStats()
        self._t0: float | None = None
        self._next_open_id = 1
        self._next_file_id = 1
        self._file_ids: dict[str, int] = {}
        self._sizes: dict[str, int] = {}
        self._known_paths: set[str] = set()
        # (pid, fd) -> open state
        self._fds: dict[tuple[int, int], _OpenState] = {}
        self._last_time = 0.0

    def _time(self, t: float) -> float:
        if self._t0 is None:
            self._t0 = t
        rel = round((t - self._t0), 2)
        # strace with -f is not globally ordered; clamp to monotonic.
        rel = max(rel, self._last_time)
        self._last_time = rel
        return rel

    def _file_id(self, path: str) -> int:
        fid = self._file_ids.get(path)
        if fid is None:
            fid = self._next_file_id
            self._next_file_id += 1
            self._file_ids[path] = fid
        return fid

    def _open(self, call: StraceCall, path: str | None, flags: int, creat: bool) -> None:
        if call.retval < 0 or path is None:
            self.stats.skipped += 1
            return
        t = self._time(call.time)
        if creat:
            flags |= _O_CREAT | _O_TRUNC | _O_WRONLY
        if flags & _O_RDWR:
            mode = AccessMode.READ_WRITE
        elif flags & _O_WRONLY:
            mode = AccessMode.WRITE
        else:
            mode = AccessMode.READ
        new_file = bool(flags & _O_CREAT) and path not in self._known_paths
        self._known_paths.add(path)
        truncated = bool(flags & _O_TRUNC) and mode.writable
        if truncated or new_file:
            self._sizes[path] = 0
        if new_file and path in self._file_ids:
            # Recreated after unlink: new identity.
            del self._file_ids[path]
        size = self._sizes.get(path, 0)
        created = new_file or truncated
        pos = size if flags & _O_APPEND else 0
        open_id = self._next_open_id
        self._next_open_id += 1
        self._fds[(call.pid, call.retval)] = _OpenState(
            open_id=open_id, file_key=path, pos=pos, mode=mode
        )
        self.log.append(
            OpenEvent(
                time=t,
                open_id=open_id,
                file_id=self._file_id(path),
                user_id=call.pid,
                size=size,
                mode=mode,
                created=created,
                new_file=new_file,
                initial_pos=pos,
            )
        )
        self.stats.opens += 1

    def _advance(self, call: StraceCall, write: bool) -> None:
        state = self._fds.get((call.pid, _int64(call.int_arg(0)) or 0))
        if state is None or call.retval < 0:
            self.stats.skipped += 1
            return
        state.pos = _int64(state.pos + call.retval)
        key = state.file_key
        if write:
            self.stats.writes_folded += 1
            self._sizes[key] = max(self._sizes.get(key, 0), state.pos)
        else:
            self.stats.reads_folded += 1
            self._sizes[key] = max(self._sizes.get(key, 0), state.pos)

    def _lseek(self, call: StraceCall) -> None:
        state = self._fds.get((call.pid, _int64(call.int_arg(0)) or 0))
        if state is None or call.retval < 0:
            self.stats.skipped += 1
            return
        new_pos = call.retval  # lseek returns the absolute offset
        if new_pos != state.pos:
            self.log.append(
                SeekEvent(
                    time=self._time(call.time),
                    open_id=state.open_id,
                    prev_pos=state.pos,
                    new_pos=new_pos,
                )
            )
            state.pos = new_pos
            self._sizes[state.file_key] = max(
                self._sizes.get(state.file_key, 0), new_pos
            )

    def _close(self, call: StraceCall) -> None:
        state = self._fds.pop((call.pid, _int64(call.int_arg(0)) or 0), None)
        if state is None:
            self.stats.skipped += 1
            return
        # If other descriptors still alias this open (dup), defer the
        # close event until the last one goes.
        if any(s is state for s in self._fds.values()):
            return
        self.log.append(
            CloseEvent(
                time=self._time(call.time),
                open_id=state.open_id,
                final_pos=state.pos,
            )
        )

    def _unlink(self, call: StraceCall, path: str | None) -> None:
        if call.retval < 0 or path is None:
            self.stats.skipped += 1
            return
        self.log.append(
            UnlinkEvent(time=self._time(call.time), file_id=self._file_id(path))
        )
        self._file_ids.pop(path, None)
        self._sizes.pop(path, None)
        self._known_paths.discard(path)

    def _truncate(self, call: StraceCall) -> None:
        if call.retval < 0:
            self.stats.skipped += 1
            return
        if call.name == "truncate":
            path = call.path_arg(0)
            length = _int64(call.int_arg(1)) or 0
            if path is None:
                self.stats.skipped += 1
                return
            fid = self._file_id(path)
        else:  # ftruncate
            state = self._fds.get((call.pid, _int64(call.int_arg(0)) or 0))
            if state is None:
                self.stats.skipped += 1
                return
            path = state.file_key
            length = _int64(call.int_arg(1)) or 0
            fid = self._file_id(path)
        self._sizes[path] = min(self._sizes.get(path, 0), length)
        self.log.append(
            TruncateEvent(
                time=self._time(call.time), file_id=fid, new_length=length
            )
        )

    def _rename(self, call: StraceCall) -> None:
        """Carry the file identity (and the open fds pointing at it) from
        the old name to the new one; a rename over an existing target
        kills that target's data, which downstream lifetime analysis sees
        through the next truncating open of the name."""
        if call.retval < 0:
            self.stats.skipped += 1
            return
        old = call.path_arg(0)
        new = call.path_arg(1)
        if old is None or new is None:
            self.stats.skipped += 1
            return
        if old in self._file_ids:
            self._file_ids[new] = self._file_ids.pop(old)
        if old in self._sizes:
            self._sizes[new] = self._sizes.pop(old)
        self._known_paths.discard(old)
        self._known_paths.add(new)
        for state in self._fds.values():
            if state.file_key == old:
                state.file_key = new

    def _dup(self, call: StraceCall) -> None:
        """Alias the new descriptor to the same open state (shared offset,
        one close event when the last of them closes is approximated by
        closing at the first close — strace gives no refcount, so we key
        dup'd descriptors to the same state and tolerate the double
        close)."""
        if call.retval < 0:
            self.stats.skipped += 1
            return
        state = self._fds.get((call.pid, _int64(call.int_arg(0)) or 0))
        if state is None:
            self.stats.skipped += 1
            return
        self._fds[(call.pid, call.retval)] = state

    def _execve(self, call: StraceCall) -> None:
        if call.retval < 0:
            self.stats.skipped += 1
            return
        path = call.path_arg(0)
        if path is None:
            self.stats.skipped += 1
            return
        self.log.append(
            ExecEvent(
                time=self._time(call.time),
                file_id=self._file_id(path),
                user_id=call.pid,
                size=self._sizes.get(path, 0),
            )
        )

    def feed(self, call: StraceCall) -> None:
        self.stats.calls += 1
        try:
            _int64(call.pid)
            _int64(call.retval)
            self._dispatch(call)
        except _Unrepresentable:
            # Nothing was emitted or changed: each handler reads every
            # integer it needs before it acts.
            self.stats.skipped += 1

    def _dispatch(self, call: StraceCall) -> None:
        name = call.name
        if name in ("open", "creat"):
            self._open(call, call.path_arg(0), _flags_of(call), creat=name == "creat")
        elif name == "openat":
            self._open(call, call.path_arg(0), _flags_of(call), creat=False)
        elif name in ("read", "pread64"):
            # pread does not move the offset, but folding it keeps the byte
            # accounting right for the cache simulator; positioned reads
            # are rare in the workloads this tool targets.
            self._advance(call, write=False)
        elif name in ("write", "pwrite64"):
            self._advance(call, write=True)
        elif name in ("lseek", "_llseek"):
            self._lseek(call)
        elif name == "close":
            self._close(call)
        elif name in ("unlink", "unlinkat"):
            self._unlink(call, call.path_arg(0))
        elif name in ("truncate", "ftruncate"):
            self._truncate(call)
        elif name == "execve":
            self._execve(call)
        elif name in ("rename", "renameat", "renameat2"):
            self._rename(call)
        elif name in ("dup", "dup2", "dup3"):
            self._dup(call)
        else:
            self.stats.skipped += 1

    def finish(self) -> TraceLog:
        # Close dangling descriptors at the last observed time so the
        # trace validates (files open at trace end are legal but their
        # trailing run would otherwise be lost).
        seen: set[int] = set()
        for state in list(self._fds.values()):
            if id(state) in seen:
                continue
            seen.add(id(state))
            self.log.append(
                CloseEvent(
                    time=self._last_time, open_id=state.open_id, final_pos=state.pos
                )
            )
        self._fds.clear()
        return self.log


def convert_calls(
    calls: Iterable[StraceCall], name: str = "strace"
) -> tuple[TraceLog, ConversionStats]:
    """Convert parsed calls into a logical trace."""
    converter = _Converter(name)
    for call in calls:
        converter.feed(call)
    return converter.finish(), converter.stats


def convert_file(path: str, name: str | None = None) -> tuple[TraceLog, ConversionStats]:
    """Parse and convert an strace output file."""
    from .parser import parse_file

    return convert_calls(parse_file(path), name=name or path)
