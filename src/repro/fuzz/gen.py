"""The shared input model: seeded generators for traces and syscalls.

Every pillar draws its inputs from here.  The generators are pure
functions of a ``random.Random`` and a length, and the hypothesis
strategies in :func:`trace_strategy`/:func:`ops_strategy` map a drawn
seed and length through them, so every failing example is a plain
generator output that replays from its seed alone.

:func:`random_trace` builds well-formed Table II event lists directly
(every trace it returns passes :func:`repro.trace.validate.validate`
and round-trips exactly through the text format and a corpus).  :func:`random_ops` builds
random-but-valid syscall sequences against a shadow namespace model;
:func:`apply_ops` executes them on a real traced
:class:`~repro.unixfs.filesystem.FileSystem`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..clock import Clock
from ..trace.log import TraceLog
from ..trace.records import (
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
from ..unixfs.content import MemoryContentStore
from ..unixfs.filesystem import FileSystem, Whence
from ..unixfs.tracer import KernelTracer

__all__ = [
    "MAX_FILE_SIZE",
    "MAX_STEP_CS",
    "SyscallOp",
    "OpResult",
    "apply_ops",
    "ops_strategy",
    "random_ops",
    "random_trace",
    "trace_strategy",
]

#: Largest file size/position the generators produce.  Small enough that
#: cache simulations over a fuzzed trace stay fast, large enough to span
#: many 4 KB blocks.
MAX_FILE_SIZE = 1 << 22

#: Largest time step between consecutive events, in centiseconds (the
#: tracer's and the text format's resolution).  Two seconds keeps fuzzed
#: traces well inside ``MAX_TRACE_TIME`` at any budget.
MAX_STEP_CS = 200

_MODES = (AccessMode.READ, AccessMode.WRITE, AccessMode.READ_WRITE)


# -- random well-formed traces -------------------------------------------------


def random_trace(rng: random.Random, n_events: int, name: str = "fuzz") -> TraceLog:
    """A well-formed random trace of roughly *n_events* events.

    Maintains the tracer's invariants by construction: times are
    non-decreasing centiseconds, open ids are unique and referenced only
    while open, ``initial_pos <= size``, and positions are non-negative.
    Event mix and field distributions are arbitrary beyond that — the
    point is to reach states hand-written fixtures do not (backward
    seeks, zero-byte accesses, re-created files, opens left open at
    trace end, truncates racing opens).
    """
    events: list[TraceEvent] = []
    t_cs = 0
    next_open_id = 1
    next_file_id = 1
    files: dict[int, int] = {}  # file_id -> size hint
    opens: dict[int, int] = {}  # open_id -> file_id

    def tick() -> float:
        nonlocal t_cs
        t_cs += rng.randint(0, MAX_STEP_CS)
        return t_cs / 100.0

    def new_file_id() -> int:
        nonlocal next_file_id
        fid = next_file_id
        next_file_id += 1
        return fid

    def do_open() -> None:
        nonlocal next_open_id
        create = not files or rng.random() < 0.3
        if create:
            fid = new_file_id()
            size = 0
            created = True
            new_file = True
            if rng.random() < 0.5:
                # The creat() path logs a CreateEvent before its open.
                events.append(
                    CreateEvent(time=tick(), file_id=fid, user_id=rng.randint(0, 7))
                )
        else:
            fid = rng.choice(list(files))
            size = files[fid]
            created = rng.random() < 0.1  # O_TRUNC reuse
            new_file = False
            if created:
                size = 0
        initial_pos = size if rng.random() < 0.2 else 0  # append vs. plain
        oid = next_open_id
        next_open_id += 1
        events.append(
            OpenEvent(
                time=tick(),
                open_id=oid,
                file_id=fid,
                user_id=rng.randint(0, 7),
                size=size,
                mode=rng.choice(_MODES),
                created=created,
                new_file=new_file,
                initial_pos=initial_pos,
            )
        )
        files[fid] = size
        opens[oid] = fid

    def rand_pos(fid: int) -> int:
        size = files.get(fid, 0)
        limit = max(size * 2, 4 * 4096)
        pos = rng.randint(0, limit)
        return min(pos, MAX_FILE_SIZE)

    while len(events) < n_events:
        roll = rng.random()
        if roll < 0.30 or not opens:
            do_open()
        elif roll < 0.55:
            oid = rng.choice(list(opens))
            fid = opens[oid]
            events.append(
                SeekEvent(
                    time=tick(),
                    open_id=oid,
                    prev_pos=rand_pos(fid),
                    new_pos=rand_pos(fid),
                )
            )
        elif roll < 0.75:
            oid = rng.choice(list(opens))
            fid = opens.pop(oid)
            final = rand_pos(fid)
            if fid in files:  # the file may have been unlinked while open
                files[fid] = max(files[fid], final)
            events.append(CloseEvent(time=tick(), open_id=oid, final_pos=final))
        elif roll < 0.83 and files:
            fid = rng.choice(list(files))
            del files[fid]
            events.append(UnlinkEvent(time=tick(), file_id=fid))
        elif roll < 0.90 and files:
            fid = rng.choice(list(files))
            length = rng.randint(0, files[fid]) if files[fid] else 0
            files[fid] = length
            events.append(
                TruncateEvent(time=tick(), file_id=fid, new_length=length)
            )
        elif files:
            fid = rng.choice(list(files))
            events.append(
                ExecEvent(
                    time=tick(),
                    file_id=fid,
                    user_id=rng.randint(0, 7),
                    size=files[fid],
                )
            )
    # Close a random subset of the still-open ids; traces legitimately
    # end with files open, so some stay that way.
    for oid in list(opens):
        if rng.random() < 0.7:
            fid = opens.pop(oid)
            events.append(
                CloseEvent(time=tick(), open_id=oid, final_pos=rand_pos(fid))
            )
    return TraceLog(name=name, events=events)


# -- random valid syscall sequences --------------------------------------------


@dataclass(frozen=True, slots=True)
class SyscallOp:
    """One syscall in a fuzzed sequence.

    ``fd_slot`` indexes the executor's list of live descriptors at the
    moment the op runs, so the generator never has to predict the fd
    numbers the kernel hands out.
    """

    kind: str
    path: str = ""
    fd_slot: int = 0
    mode: str = "r"
    uid: int = 0
    length: int = 0
    offset: int = 0
    whence: int = 0
    create: bool = False
    truncate: bool = False
    append: bool = False


def random_ops(rng: random.Random, n_ops: int) -> list[SyscallOp]:
    """A random-but-valid syscall sequence of *n_ops* operations.

    Built against a shadow model of the namespace and descriptor table,
    so on a fresh file system every op succeeds.  Each op draws from
    *rng* without looking at *n_ops*, so ``random_ops(rng, k)`` is a
    prefix of ``random_ops(rng, n)`` for ``k <= n``.
    """
    ops: list[SyscallOp] = []
    paths: list[str] = []  # regular files that exist in the shadow model
    dirs = ["/"]
    fd_modes: list[str] = []  # live descriptors, mirroring apply_ops's list
    next_name = 0

    def fresh_path() -> str:
        nonlocal next_name
        next_name += 1
        return f"{rng.choice(dirs)}/f{next_name}".replace("//", "/")

    while len(ops) < n_ops:
        roll = rng.random()
        if roll < 0.22 or (not paths and not fd_modes):
            path = fresh_path()
            if rng.random() < 0.5:
                ops.append(SyscallOp(kind="creat", path=path, uid=rng.randint(0, 7)))
                fd_modes.append("w")
            else:
                mode = rng.choice(("w", "rw"))
                ops.append(
                    SyscallOp(
                        kind="open",
                        path=path,
                        mode=mode,
                        uid=rng.randint(0, 7),
                        create=True,
                        append=rng.random() < 0.2,
                    )
                )
                fd_modes.append(mode)
            paths.append(path)
        elif roll < 0.32 and paths:
            mode = rng.choice(("r", "w", "rw"))
            ops.append(
                SyscallOp(
                    kind="open",
                    path=rng.choice(paths),
                    mode=mode,
                    uid=rng.randint(0, 7),
                    truncate=mode != "r" and rng.random() < 0.15,
                    append=rng.random() < 0.2,
                )
            )
            fd_modes.append(mode)
        elif roll < 0.47 and fd_modes:
            # Pick a descriptor, then an operation its mode permits.
            slot = rng.randrange(len(fd_modes))
            mode = fd_modes[slot]
            kind = {"r": "read", "w": "write"}.get(
                mode, rng.choice(("read", "write"))
            )
            ops.append(
                SyscallOp(
                    kind=kind,
                    fd_slot=slot,
                    length=rng.choice((0, 1, 511, 4096, 4097, 65536)),
                )
            )
        elif roll < 0.57 and fd_modes:
            ops.append(
                SyscallOp(
                    kind="lseek",
                    fd_slot=rng.randrange(len(fd_modes)),
                    offset=rng.randint(0, MAX_FILE_SIZE // 64),
                    whence=int(rng.choice((Whence.SET, Whence.SET, Whence.CUR))),
                )
            )
        elif roll < 0.70 and fd_modes:
            slot = rng.randrange(len(fd_modes))
            ops.append(SyscallOp(kind="close", fd_slot=slot))
            fd_modes.pop(slot)
        elif roll < 0.76 and paths:
            path = rng.choice(paths)
            paths.remove(path)
            ops.append(SyscallOp(kind="unlink", path=path))
        elif roll < 0.82 and paths:
            ops.append(
                SyscallOp(
                    kind="truncate",
                    path=rng.choice(paths),
                    length=rng.choice((0, 1, 4096, 10_000)),
                )
            )
        elif roll < 0.88 and paths:
            ops.append(
                SyscallOp(
                    kind="execve", path=rng.choice(paths), uid=rng.randint(0, 7)
                )
            )
        elif roll < 0.93 and fd_modes:
            slot = rng.randrange(len(fd_modes))
            ops.append(SyscallOp(kind="dup", fd_slot=slot))
            fd_modes.append(fd_modes[slot])
        else:
            path = f"{rng.choice(dirs)}/d{len(dirs)}".replace("//", "/")
            ops.append(SyscallOp(kind="mkdir", path=path))
            dirs.append(path)
    return ops


@dataclass
class OpResult:
    """What :func:`apply_ops` hands back."""

    fs: FileSystem
    tracer: KernelTracer
    executed: int = 0
    open_fds: list[int] = field(default_factory=list)


def apply_ops(
    ops: list[SyscallOp],
    on_step=None,
    clock_step: float = 0.25,
) -> OpResult:
    """Execute *ops* on a fresh traced file system.

    ``on_step(result, op)`` is called after every op — the replay oracle
    hooks in there.  Every :func:`random_ops` output applies cleanly, so
    any exception propagates: an op the kernel rejects is itself a
    finding.
    """
    clock = Clock()
    tracer = KernelTracer(name="fuzz-ops")
    fs = FileSystem(clock=clock, tracer=tracer, content=MemoryContentStore())
    result = OpResult(fs=fs, tracer=tracer)
    fds = result.open_fds
    for op in ops:
        clock.advance(clock_step)
        if op.kind == "open":
            fd = fs.open(
                op.path,
                AccessMode.from_label(op.mode),
                uid=op.uid,
                create=op.create,
                truncate=op.truncate,
                append=op.append,
            )
            fds.append(fd)
        elif op.kind == "creat":
            fds.append(fs.creat(op.path, uid=op.uid))
        elif op.kind == "close":
            fs.close(fds.pop(op.fd_slot))
        elif op.kind == "read":
            fs.read(fds[op.fd_slot], op.length)
        elif op.kind == "write":
            fs.write(fds[op.fd_slot], op.length)
        elif op.kind == "lseek":
            fs.lseek(fds[op.fd_slot], op.offset, Whence(op.whence))
        elif op.kind == "unlink":
            fs.unlink(op.path)
        elif op.kind == "truncate":
            fs.truncate(op.path, op.length)
        elif op.kind == "execve":
            fs.execve(op.path, uid=op.uid)
        elif op.kind == "dup":
            fds.append(fs.dup(fds[op.fd_slot]))
        elif op.kind == "mkdir":
            fs.makedirs(op.path)
        else:
            raise ValueError(f"unknown op kind {op.kind!r}")
        result.executed += 1
        if on_step is not None:
            on_step(result, op)
    return result


# -- hypothesis strategies (lazy import: src never requires hypothesis) --------


def trace_strategy(min_events: int = 1, max_events: int = 160):
    """A hypothesis strategy yielding :func:`random_trace` outputs.

    The default size lets most traces span several of the corpus
    pillar's 32-event segments.  Hypothesis shrinks over the (seed,
    size) pair rather than the event list, which is coarse but faithful:
    any failure it reports is a plain ``random_trace`` output, printed
    as the seed and size that replay it.
    """
    from hypothesis import strategies as st

    return st.builds(
        lambda seed, n: random_trace(random.Random(f"trace:{seed}"), n),
        st.integers(min_value=0, max_value=2**48),
        st.integers(min_value=min_events, max_value=max_events),
    )


def ops_strategy(min_ops: int = 1, max_ops: int = 120):
    """A hypothesis strategy yielding :func:`random_ops` outputs.

    Shrinking the size cuts the sequence to a prefix (see
    :func:`random_ops`), so a shrunk example is still a valid sequence.
    """
    from hypothesis import strategies as st

    return st.builds(
        lambda seed, n: random_ops(random.Random(f"ops:{seed}"), n),
        st.integers(min_value=0, max_value=2**48),
        st.integers(min_value=min_ops, max_value=max_ops),
    )
