"""The system-call layer of the simulated 4.2 BSD file system.

:class:`FileSystem` ties the substrate together: pathname resolution with a
directory name lookup cache, an inode table with an in-core inode cache, an
FFS-style block/fragment allocator, an open-file table, a live kernel
buffer cache with a 30-second ``sync`` daemon, and the kernel trace hook
that logs the paper's Table II events (and, by design, nothing at read or
write time).

The interface mirrors the 4.2 BSD syscalls the paper traced::

    fs = FileSystem(tracer=KernelTracer())
    fd = fs.open("/tmp/a.out", AccessMode.WRITE, uid=7, create=True)
    fs.write(fd, 8192)             # or real bytes with a MemoryContentStore
    fs.close(fd)
    fs.execve("/tmp/a.out", uid=7)
    fs.unlink("/tmp/a.out")

Write amounts may be given as byte strings or as plain integers; the latter
is what the workload engine uses (no data need exist for a trace study —
only sizes and positions matter).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Union

from ..clock import Clock
from ..trace.records import AccessMode
from .allocator import BlockAllocator, Extent
from .buffercache import BufferCache
from .content import ContentStore, NullContentStore
from .errors import (
    EBADF,
    EEXIST,
    EINVAL,
    EISDIR,
    ENOENT,
    ENOTDIR,
    ENOTEMPTY,
)
from .fdtable import FdTable, OpenFile
from .geometry import DEFAULT_GEOMETRY, Geometry
from .inode import FileType, Inode, InodeCache, InodeTable
from .namei import Dnlc, NameResolver, parent_path
from .tracer import NullTracer

__all__ = ["FileSystem", "Whence", "StatResult"]

#: The open modes a syscall tests by identity (``mode is _READ``): the
#: same answer as ``AccessMode.writable``/``readable``, without a
#: property call per read or write.
_READ = AccessMode.READ
_WRITE = AccessMode.WRITE


def _clock_reader(clock) -> Callable[[], float]:
    """The zero-argument call that reads *clock*: a :class:`Clock`'s
    bound ``now``, any other callable itself, else the object's ``now``."""
    if isinstance(clock, Clock) or not callable(clock):
        return clock.now
    return clock


class Whence(enum.IntEnum):
    """``lseek`` origin, as in <unistd.h>."""

    SET = 0
    CUR = 1
    END = 2


@dataclass(frozen=True)
class StatResult:
    """What ``stat`` returns."""

    inum: int
    file_id: int
    type: FileType
    size: int
    uid: int
    nlink: int
    ctime: float
    mtime: float
    atime: float

    @property
    def is_dir(self) -> bool:
        return self.type is FileType.DIRECTORY


class FileSystem:
    """A simulated 4.2 BSD file system with a kernel trace hook.

    *clock* is a :class:`~repro.clock.Clock`, any zero-argument callable
    returning the time, or an object with a ``now()`` method.  It is
    bound once, here: :attr:`now` reads it, and every syscall reads it
    exactly once (the value :meth:`_count` returns).
    """

    def __init__(
        self,
        geometry: Geometry = DEFAULT_GEOMETRY,
        clock: Union[Clock, Callable[[], float], None] = None,
        tracer: NullTracer | None = None,
        content: ContentStore | None = None,
        buffer_cache: BufferCache | None = None,
        inode_cache: InodeCache | None = None,
        dnlc: Dnlc | None = None,
        sync_interval: float = 30.0,
    ):
        self.geometry = geometry
        self.clock = clock if clock is not None else Clock()
        self.now: Callable[[], float] = _clock_reader(self.clock)
        self.tracer = tracer if tracer is not None else NullTracer()
        self.content = content if content is not None else NullContentStore()
        self.buffer_cache = (
            buffer_cache
            if buffer_cache is not None
            else BufferCache(block_size=geometry.block_size)
        )
        self.inode_cache = inode_cache if inode_cache is not None else InodeCache()
        self.allocator = BlockAllocator(geometry)
        self.inodes = InodeTable()
        self.fds = FdTable()
        self.sync_interval = sync_interval
        self.syscall_counts: dict[str, int] = {}
        self.total_bytes_read = 0
        self.total_bytes_written = 0
        self._extents: dict[int, Extent] = {}
        self._unlinked_open: set[int] = set()  # inums unlinked but still open
        self._last_sync = 0.0

        root = self.inodes.allocate(FileType.DIRECTORY, uid=0, now=self.now())
        self.root_inum = root.inum
        self.resolver = NameResolver(self.inodes, root.inum, dnlc=dnlc)

    # -- internals -------------------------------------------------------------

    def _count(self, syscall: str) -> float:
        """Count one syscall, run the ``update`` daemon when it is due,
        and return the time: the syscall's one clock read."""
        counts = self.syscall_counts
        counts[syscall] = counts.get(syscall, 0) + 1
        now = self.now()
        if now - self._last_sync >= self.sync_interval:
            self._last_sync = now
            self.buffer_cache.sync()
        return now

    def _extent(self, inum: int) -> Extent:
        extent = self._extents.get(inum)
        if extent is None:
            extent = Extent()
            self._extents[inum] = extent
        return extent

    def _set_size(self, inode: Inode, new_size: int) -> None:
        """Resize a regular file's data, keeping the allocator honest."""
        self.allocator.resize(self._extent(inode.inum), new_size)
        inode.size = new_size

    def _release_inode(self, inode: Inode) -> None:
        """Free a dead inode's data (last link gone and no opens left)."""
        self.allocator.resize(self._extent(inode.inum), 0)
        self._extents.pop(inode.inum, None)
        self.content.remove(inode.inum)
        self.inode_cache.invalidate(inode.inum)
        self.buffer_cache.invalidate_file(inode.file_id)
        self.inodes.free(inode.inum)
        self._unlinked_open.discard(inode.inum)

    def _lookup_file(self, path: str) -> Inode:
        inode = self.resolver.resolve(path)
        self.inode_cache.touch(inode.inum)
        return inode

    # -- directory operations ----------------------------------------------------

    def mkdir(self, path: str, uid: int = 0) -> None:
        """Create a directory (parent must exist)."""
        now = self._count("mkdir")
        parent, name = self.resolver.resolve_parent(path)
        if name in parent.entries:
            raise EEXIST(path)
        child = self.inodes.allocate(FileType.DIRECTORY, uid=uid, now=now)
        parent.entries[name] = child.inum
        parent.mtime = now
        parent.size = parent.dir_size()
        self.resolver.dnlc.enter(parent.inum, name, child.inum)

    def makedirs(self, path: str, uid: int = 0) -> None:
        """Create a directory and any missing ancestors."""
        components: list[str] = []
        for part in path.strip("/").split("/"):
            if not part:
                continue
            components.append(part)
            prefix = "/" + "/".join(components)
            if not self.resolver.exists(prefix):
                self.mkdir(prefix, uid=uid)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        now = self._count("rmdir")
        inode = self.resolver.resolve(path)
        if not inode.is_dir:
            raise ENOTDIR(path)
        if inode.inum == self.root_inum:
            raise EINVAL("cannot remove the root directory")
        if inode.entries:
            raise ENOTEMPTY(path)
        parent, name = self.resolver.resolve_parent(path)
        del parent.entries[name]
        parent.mtime = now
        parent.size = parent.dir_size()
        self.resolver.dnlc.remove(parent.inum, name)
        self.inode_cache.invalidate(inode.inum)
        self.inodes.free(inode.inum)

    def listdir(self, path: str) -> list[str]:
        """Names in a directory, sorted."""
        inode = self.resolver.resolve(path)
        if not inode.is_dir:
            raise ENOTDIR(path)
        return sorted(inode.entries)

    # -- open/create/close ---------------------------------------------------------

    def open(
        self,
        path: str,
        mode: AccessMode,
        uid: int = 0,
        create: bool = False,
        truncate: bool = False,
        append: bool = False,
    ) -> int:
        """Open *path*; returns a file descriptor.

        ``create`` makes the file if missing (O_CREAT); ``truncate``
        discards existing contents (O_TRUNC); ``append`` starts the offset
        at end of file (O_APPEND).  The trace record's ``created`` flag is
        set when the call created the file *or* truncated it to zero —
        either way the data written through this descriptor is new data for
        lifetime purposes (paper Figure 4).
        """
        now = self._count("open")
        if truncate and mode is _READ:
            raise EINVAL("O_TRUNC requires write access")
        created = False
        new_file = False
        try:
            inode = self.resolver.resolve(path)
        except ENOENT:
            if not create:
                raise
            parent, name = self.resolver.resolve_parent(path)
            inode = self.inodes.allocate(FileType.REGULAR, uid=uid, now=now)
            parent.entries[name] = inode.inum
            parent.mtime = now
            parent.size = parent.dir_size()
            self.resolver.dnlc.enter(parent.inum, name, inode.inum)
            created = True
            new_file = True
        if inode.is_dir:
            if mode is not _READ:
                raise EISDIR(path)
        elif truncate and not created:
            if inode.size > 0:
                self.buffer_cache.invalidate_file(inode.file_id)
                self.content.truncate(inode.inum, 0)
                self._set_size(inode, 0)
                inode.mtime = now
            created = True  # all subsequent data is new data
        self.inode_cache.touch(inode.inum)

        offset = inode.size if append else 0
        open_id = self.tracer.next_open_id()
        fd = self.fds.next_fd()
        self.fds.insert(OpenFile(fd, inode, mode, open_id, uid, offset, now))
        inode.atime = now
        self.tracer.on_open(
            now, open_id, inode.file_id, uid, inode.size, mode, created,
            new_file, offset,
        )
        return fd

    def creat(self, path: str, uid: int = 0) -> int:
        """The ``creat`` syscall: create/truncate and open write-only."""
        self._count("creat")
        return self.open(path, AccessMode.WRITE, uid=uid, create=True, truncate=True)

    def close(self, fd: int) -> None:
        """Close a descriptor; logs the final position.

        When the descriptor was duplicated, only the close of the *last*
        reference ends the open (and is traced) — matching the kernel,
        whose trace package hooked the file-table release."""
        now = self._count("close")
        entry, last = self.fds.remove(fd)
        if not last:
            return
        self.tracer.on_close(now, entry.open_id, entry.offset)
        inode = entry.inode
        if (
            inode.inum in self._unlinked_open
            and inode.nlink == 0
            and not self.fds.opens_of_inode(inode.inum)
        ):
            self._release_inode(inode)

    # -- data transfer ----------------------------------------------------------

    def read(self, fd: int, length: int) -> bytes:
        """Read up to *length* bytes at the current offset.

        Never traced (the paper's tracer logged no reads); advances the
        offset and runs the blocks through the live buffer cache.
        """
        now = self._count("read")
        if length < 0:
            raise EINVAL(f"negative read length {length}")
        entry = self.fds.get(fd)
        if entry.mode is _WRITE:
            raise EBADF(f"fd {fd} not open for reading")
        inode = entry.inode
        if inode.is_dir:
            raise EISDIR("read on a directory")
        offset = entry.offset
        size = inode.size
        data = self.content.read(inode.inum, offset, length, size)
        actual = size - offset  # bytes left before EOF, capped at length
        if actual > length:
            actual = length
        if actual > 0:
            self.buffer_cache.access(inode.file_id, offset, actual, False)
            entry.offset = offset + actual
            entry.bytes_read += actual
            self.total_bytes_read += actual
            inode.atime = now
        return data

    def write(self, fd: int, data: Union[bytes, bytearray, int]) -> int:
        """Write at the current offset; returns the byte count.

        *data* may be real bytes or a plain count (size-only simulation).
        Extends the file (and its disk allocation) when writing past EOF.
        """
        now = self._count("write")
        if isinstance(data, int):
            length, payload = data, None
            if length < 0:
                raise EINVAL(f"negative write length {length}")
        else:
            length, payload = len(data), bytes(data)
        entry = self.fds.get(fd)
        if entry.mode is _READ:
            raise EBADF(f"fd {fd} not open for writing")
        inode = entry.inode
        if inode.is_dir:
            raise EISDIR("write on a directory")
        if length == 0:
            return 0
        offset = entry.offset
        end = offset + length
        if end > inode.size:
            self._set_size(inode, end)
        if payload is not None:
            self.content.write(inode.inum, offset, payload)
        self.buffer_cache.access(inode.file_id, offset, length, True)
        entry.offset = end
        entry.bytes_written += length
        self.total_bytes_written += length
        inode.mtime = now
        return length

    def lseek(self, fd: int, offset: int, whence: Whence = Whence.SET) -> int:
        """Reposition within an open file; returns the new offset.

        A reposition that actually changes the offset is traced as a seek
        event recording both the previous and the new position (Table II) —
        the pair of positions is what lets the analyzer reconstruct the
        sequential runs on either side.
        """
        now = self._count("lseek")
        entry = self.fds.get(fd)
        if whence is Whence.SET:
            new = offset
        elif whence is Whence.CUR:
            new = entry.offset + offset
        elif whence is Whence.END:
            new = entry.inode.size + offset
        else:
            raise EINVAL(f"bad whence {whence}")
        if new < 0:
            raise EINVAL(f"seek to negative offset {new}")
        if new != entry.offset:
            self.tracer.on_seek(now, entry.open_id, entry.offset, new)
            entry.offset = new
            entry.seeks += 1
        return new

    # -- namespace mutation ---------------------------------------------------------

    def unlink(self, path: str) -> None:
        """Delete a file (defers data release while it is still open)."""
        now = self._count("unlink")
        inode = self._lookup_file(path)
        if inode.is_dir:
            raise EISDIR(path)
        parent, name = self.resolver.resolve_parent(path)
        del parent.entries[name]
        parent.mtime = now
        parent.size = parent.dir_size()
        self.resolver.dnlc.remove(parent.inum, name)
        inode.nlink -= 1
        self.tracer.on_unlink(now, inode.file_id)
        if inode.nlink == 0:
            if self.fds.opens_of_inode(inode.inum):
                self._unlinked_open.add(inode.inum)
            else:
                self._release_inode(inode)

    def truncate(self, path: str, length: int) -> None:
        """Shorten (or sparsely extend) a file by path."""
        now = self._count("truncate")
        if length < 0:
            raise EINVAL(f"truncate to negative length {length}")
        inode = self._lookup_file(path)
        if inode.is_dir:
            raise EISDIR(path)
        if length < inode.size:
            first_dead = -(-length // self.geometry.block_size)
            self.buffer_cache.invalidate_file(inode.file_id, from_block=first_dead)
            self.content.truncate(inode.inum, length)
        self._set_size(inode, length)
        inode.mtime = now
        self.tracer.on_truncate(now, inode.file_id, length)

    def link(self, existing: str, new: str) -> None:
        """Create a hard link: both names refer to the same inode.

        The file's data dies only when the *last* link is unlinked (and no
        descriptors remain) — the nlink accounting the trace's unlink
        semantics rest on.
        """
        now = self._count("link")
        inode = self.resolver.resolve(existing)
        if inode.is_dir:
            raise EISDIR(existing)
        parent, name = self.resolver.resolve_parent(new)
        if name in parent.entries:
            raise EEXIST(new)
        parent.entries[name] = inode.inum
        parent.mtime = now
        parent.size = parent.dir_size()
        self.resolver.dnlc.enter(parent.inum, name, inode.inum)
        inode.nlink += 1

    def dup(self, fd: int) -> int:
        """Duplicate a descriptor: the copy shares the open-file entry, so
        the offset moves together — exactly 4.2 BSD's semantics, and the
        reason the tracer's open id is per-open rather than per-fd."""
        self._count("dup")
        entry = self.fds.get(fd)
        new_fd = self.fds.next_fd()
        self.fds.insert_alias(new_fd, entry)
        return new_fd

    def rename(self, old: str, new: str) -> None:
        """Rename a file or directory (same file id afterwards)."""
        now = self._count("rename")
        inode = self.resolver.resolve(old)
        old_parent, old_name = self.resolver.resolve_parent(old)
        new_parent, new_name = self.resolver.resolve_parent(new)
        existing_inum = new_parent.entries.get(new_name)
        if existing_inum is not None:
            existing = self.inodes.get(existing_inum)
            if existing.is_dir:
                raise EISDIR(new)
            # rename over an existing file replaces it (its data dies).
            self.unlink(new)
        del old_parent.entries[old_name]
        old_parent.mtime = now
        old_parent.size = old_parent.dir_size()
        new_parent.entries[new_name] = inode.inum
        new_parent.mtime = now
        new_parent.size = new_parent.dir_size()
        self.resolver.dnlc.remove(old_parent.inum, old_name)
        self.resolver.dnlc.enter(new_parent.inum, new_name, inode.inum)

    # -- metadata and program load ------------------------------------------------

    def stat(self, path: str) -> StatResult:
        """Return a file's metadata."""
        self._count("stat")
        inode = self._lookup_file(path)
        return StatResult(
            inum=inode.inum,
            file_id=inode.file_id,
            type=inode.type,
            size=inode.size if not inode.is_dir else inode.dir_size(),
            uid=inode.uid,
            nlink=inode.nlink,
            ctime=inode.ctime,
            mtime=inode.mtime,
            atime=inode.atime,
        )

    def exists(self, path: str) -> bool:
        return self.resolver.exists(path)

    def execve(self, path: str, uid: int = 0) -> StatResult:
        """Load a program: traced with the file size so that paging can be
        approximated offline (paper Section 6.4 / Figure 7).  Demand paging
        itself is intentionally not run through the buffer cache, matching
        the traces' exclusion of paging I/O."""
        now = self._count("execve")
        inode = self._lookup_file(path)
        if inode.is_dir:
            raise EISDIR(path)
        inode.atime = now
        self.tracer.on_exec(now, inode.file_id, uid, inode.size)
        return self.stat(path)

    def sync(self) -> int:
        """Flush the buffer cache (the ``sync`` syscall)."""
        self._count("sync")
        return self.buffer_cache.sync()

    # -- accounting -------------------------------------------------------------

    def logical_bytes(self) -> int:
        """Sum of regular-file sizes."""
        return sum(
            i.size for i in self.inodes.live_inodes() if not i.is_dir
        )

    def allocated_bytes(self) -> int:
        """Disk bytes consumed (internal fragmentation included)."""
        return self.allocator.allocated_bytes

    def internal_fragmentation(self) -> int:
        """Allocated-but-unused bytes across all files."""
        return self.allocated_bytes() - self.logical_bytes()
