"""Shared plumbing for the application models.

An *activity* is a generator (see :mod:`repro.workload.engine`) performing
one user-visible action — a compile, an editor save, a mail check — as a
scripted sequence of file-system calls with small service delays between
them.  The helpers here encode the access shapes the paper measures:

* whole-file read / whole-file write (the dominant patterns, Table V);
* append: open, one reposition to the end, sequential write — the
  "single reposition then transfer" mode the paper attributes to mailbox
  appends;
* partial read at an offset (the ~1 MB administrative files of Figure 2
  are "typically accessed by positioning within the file and then reading
  or writing a small amount of data");
* random-access read-write traffic (the minority mode that makes
  read-write opens mostly non-sequential in Table V).

Positions are what matter — the tracer records no reads or writes, so a
run's length is exactly the distance between repositions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import log

from ...clock import Clock
from ...trace.records import AccessMode
from ...unixfs.filesystem import FileSystem, Whence
from ..namespace import Namespace

__all__ = [
    "AppContext",
    "read_whole",
    "read_whole_slow",
    "write_whole",
    "append_file",
    "read_at",
    "read_prefix",
    "read_scattered",
    "update_in_place",
]

#: User-level I/O granule (a stdio BUFSIZ of the period).
CHUNK = 4096


@dataclass
class AppContext:
    """Everything an application model needs to run."""

    fs: FileSystem
    ns: Namespace
    rng: random.Random
    uid: int
    clock: Clock
    io_delay_mean: float = 0.004  # seconds of "CPU + disk" per chunk
    serial: int = field(default=0)
    _focus: str | None = field(default=None)

    def next_serial(self) -> int:
        """A per-context unique number for temp-file names."""
        self.serial += 1
        return self.serial

    #: Probability that a given I/O step loses the CPU to other processes
    #: for a noticeable stretch (the traced VAXes ran at load average 5–10,
    #: so time-slicing stretched many opens past half a second — the
    #: 0.5–10 s body of Figure 3).
    preempt_prob: float = 0.10
    preempt_max: float = 2.5

    def delay(self) -> float:
        """One service-time sample (never zero: syscalls take time).

        The exponential draw is ``Random.expovariate``'s own expression,
        so it consumes the same ``random()`` and gives the same float.
        """
        rng = self.rng
        d = -log(1.0 - rng.random()) / (1.0 / self.io_delay_mean)
        if d < 0.001:
            d = 0.001
        if rng.random() < self.preempt_prob:
            d += rng.uniform(0.2, self.preempt_max)
        return d

    def size_of(self, path: str) -> int:
        return self.fs.stat(path).size

    def pick_source(self) -> str:
        """The user's working file: development happens in tight
        edit-compile-test loops on one file at a time, so most compiles and
        edits hit the *current* file.  This is what gives recompiled
        objects and re-saved sources their minutes-scale data lifetimes in
        Figure 4 (and the cache its write locality)."""
        sources = self.ns.sources[self.uid]
        if self._focus is None or self.rng.random() < 0.10:
            self._focus = self.rng.choice(sources)
        if self.rng.random() < 0.70:
            return self._focus
        return self.rng.choice(sources)


def read_whole(ctx: AppContext, path: str):
    """Read *path* sequentially from start to end (a whole-file transfer)."""
    fd = ctx.fs.open(path, AccessMode.READ, uid=ctx.uid)
    try:
        size = ctx.fs.fds.get(fd).inode.size
        remaining = size
        while remaining > 0:
            got = min(CHUNK, remaining)
            ctx.fs.read(fd, got)
            remaining -= got
            yield ctx.delay()
    finally:
        ctx.fs.close(fd)


def read_whole_slow(
    ctx: AppContext, path: str, pause_low: float, pause_high: float
):
    """Whole-file read with per-chunk processing pauses.

    Models programs that digest as they read (a mail reader showing
    messages, a troff pass): the open lasts seconds rather than
    milliseconds, populating the 0.5 s – 10 s band of Figure 3 while
    keeping the inter-event gaps well under the paper's 30-second 99th
    percentile.
    """
    fd = ctx.fs.open(path, AccessMode.READ, uid=ctx.uid)
    try:
        size = ctx.fs.fds.get(fd).inode.size
        remaining = size
        while remaining > 0:
            got = min(CHUNK, remaining)
            ctx.fs.read(fd, got)
            remaining -= got
            yield ctx.rng.uniform(pause_low, pause_high)
    finally:
        ctx.fs.close(fd)


def read_scattered(ctx: AppContext, path: str, picks: int, nbytes: int = CHUNK):
    """Archive-style access: hop to several places, reading a little at
    each (``ld`` pulling members out of a library).  Non-sequential
    read-only — the minority mode of Table V, but a real share of the
    bytes because the files are large."""
    fd = ctx.fs.open(path, AccessMode.READ, uid=ctx.uid)
    try:
        size = ctx.fs.fds.get(fd).inode.size
        if size > 0:
            for _ in range(picks):
                offset = ctx.rng.randrange(size)
                ctx.fs.lseek(fd, offset)
                ctx.fs.read(fd, min(nbytes, size - offset))
                yield ctx.delay()
    finally:
        ctx.fs.close(fd)


def read_prefix(ctx: AppContext, path: str, nbytes: int):
    """Read the first *nbytes* (rounded up to the I/O granule) then close.

    This is the ``grep``-stops-early / ``head`` pattern: a sequential but
    not whole-file read whose final position sits on a CHUNK boundary —
    the source of the jumps in Figure 1(a).
    """
    fd = ctx.fs.open(path, AccessMode.READ, uid=ctx.uid)
    try:
        size = ctx.fs.fds.get(fd).inode.size
        want = min(size, -(-nbytes // CHUNK) * CHUNK)
        remaining = want
        while remaining > 0:
            got = min(CHUNK, remaining)
            ctx.fs.read(fd, got)
            remaining -= got
            yield ctx.delay()
    finally:
        ctx.fs.close(fd)


def write_whole(ctx: AppContext, path: str, size: int, create: bool = True):
    """Create/truncate *path* and write *size* bytes sequentially."""
    fd = ctx.fs.open(
        path, AccessMode.WRITE, uid=ctx.uid, create=create, truncate=True
    )
    try:
        remaining = size
        while remaining > 0:
            put = min(CHUNK, remaining)
            ctx.fs.write(fd, put)
            remaining -= put
            yield ctx.delay()
    finally:
        ctx.fs.close(fd)


def append_file(ctx: AppContext, path: str, nbytes: int):
    """Open, reposition once to the end, write *nbytes*, close.

    Counted by the paper as a *sequential* (but not whole-file) write — a
    single reposition before any data moves.
    """
    fd = ctx.fs.open(path, AccessMode.WRITE, uid=ctx.uid, create=True)
    try:
        ctx.fs.lseek(fd, 0, Whence.END)
        remaining = nbytes
        while remaining > 0:
            put = min(CHUNK, remaining)
            ctx.fs.write(fd, put)
            remaining -= put
            yield ctx.delay()
    finally:
        ctx.fs.close(fd)


def read_at(ctx: AppContext, path: str, offset: int, nbytes: int):
    """Open, reposition once, read a little, close (admin-file pattern)."""
    fd = ctx.fs.open(path, AccessMode.READ, uid=ctx.uid)
    try:
        size = ctx.fs.fds.get(fd).inode.size
        offset = min(offset, size)
        if offset:
            ctx.fs.lseek(fd, offset)
        ctx.fs.read(fd, nbytes)
        yield ctx.delay()
    finally:
        ctx.fs.close(fd)


def update_in_place(ctx: AppContext, path: str, touches: int, nbytes: int = 512):
    """Open read-write and hop around: seek, read, seek back, write.

    The non-sequential minority mode; read-write opens in Table V are
    sequential only 19–35% of the time, and this is why.
    """
    fd = ctx.fs.open(path, AccessMode.READ_WRITE, uid=ctx.uid)
    try:
        size = max(1, ctx.fs.fds.get(fd).inode.size)
        hotspots = ctx.ns.admin_hotspots.get(path)
        for _ in range(touches):
            if hotspots:
                offset = min(size - 1, ctx.ns.pick_admin_offset(ctx.rng, path))
            else:
                offset = ctx.rng.randrange(size)
            ctx.fs.lseek(fd, offset)
            ctx.fs.read(fd, min(nbytes, size - offset))
            yield ctx.delay()
            ctx.fs.lseek(fd, offset)
            ctx.fs.write(fd, min(nbytes, size - offset))
            yield ctx.delay()
    finally:
        ctx.fs.close(fd)
