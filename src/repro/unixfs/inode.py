"""Inodes, the inode table and the in-core inode cache.

An inode records a file's metadata; 4.2 BSD keeps the inodes of open and
recently used files in a main-memory cache so that most opens do not need a
disk read for the i-node (the paper's Section 3.2 lists i-node I/O among the
disk traffic its traces do not capture).  :class:`InodeCache` models that
cache with LRU replacement and hit/miss counters, so the "other accesses"
discussion of Section 8 can be quantified.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field

from .errors import EINVAL, ENOENT

__all__ = ["FileType", "Inode", "InodeTable", "InodeCache", "CacheCounters"]


class FileType(enum.Enum):
    """The inode types this simulation distinguishes."""

    REGULAR = "f"
    DIRECTORY = "d"


#: Size of one on-disk directory entry, used to account directory sizes
#: (4.2 BSD entries are variable-length; 16 bytes is a typical small entry).
DIRECTORY_ENTRY_SIZE = 16


@dataclass(slots=True)
class Inode:
    """One inode.

    ``file_id`` is the stable trace-level identity of the file: it survives
    rename but not unlink+recreate, matching the paper's per-file ids.
    For directories, ``entries`` maps component names to inode numbers.
    ``is_dir`` is fixed with ``type`` when the inode is made (an inode
    never changes type), so the syscalls and pathname walks that test it
    read a plain attribute.
    """

    inum: int
    type: FileType
    uid: int
    file_id: int
    size: int = 0
    nlink: int = 1
    ctime: float = 0.0
    mtime: float = 0.0
    atime: float = 0.0
    entries: dict[str, int] = field(default_factory=dict)
    is_dir: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.is_dir = self.type is FileType.DIRECTORY

    def dir_size(self) -> int:
        """Logical size of a directory (entries * entry size, min one)."""
        return max(1, len(self.entries)) * DIRECTORY_ENTRY_SIZE


class InodeTable:
    """Allocates inode numbers and stores all live inodes."""

    __slots__ = ("_inodes", "_next_inum", "_next_file_id")

    def __init__(self):
        self._inodes: dict[int, Inode] = {}
        self._next_inum = 2  # inum 1 reserved historically; 2 is the root
        self._next_file_id = 1

    def __len__(self) -> int:
        return len(self._inodes)

    def __contains__(self, inum: int) -> bool:
        return inum in self._inodes

    def allocate(self, type: FileType, uid: int, now: float) -> Inode:
        """Create a fresh inode with a new inum and file id."""
        inode = Inode(
            inum=self._next_inum,
            type=type,
            uid=uid,
            file_id=self._next_file_id,
            ctime=now,
            mtime=now,
            atime=now,
        )
        self._next_inum += 1
        self._next_file_id += 1
        self._inodes[inode.inum] = inode
        return inode

    def get(self, inum: int) -> Inode:
        try:
            return self._inodes[inum]
        except KeyError:
            raise ENOENT(f"inode {inum}") from None

    def free(self, inum: int) -> None:
        if inum not in self._inodes:
            raise EINVAL(f"freeing unknown inode {inum}")
        del self._inodes[inum]

    def live_inodes(self) -> list[Inode]:
        return list(self._inodes.values())


@dataclass(slots=True)
class CacheCounters:
    """Hit/miss counters shared by the small kernel caches."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class InodeCache:
    """LRU cache of in-core inodes.

    A miss models a disk read of the i-node; the counters let experiments
    estimate the non-file-data disk traffic the paper's Section 8 flags as
    increasingly important.
    """

    __slots__ = ("capacity", "counters", "_lru")

    def __init__(self, capacity: int = 200):
        if capacity <= 0:
            raise EINVAL("inode cache capacity must be positive")
        self.capacity = capacity
        self.counters = CacheCounters()
        self._lru: OrderedDict[int, None] = OrderedDict()

    def touch(self, inum: int) -> bool:
        """Record an access to *inum*; returns True on a cache hit."""
        if inum in self._lru:
            self._lru.move_to_end(inum)
            self.counters.hits += 1
            return True
        self.counters.misses += 1
        self._lru[inum] = None
        if len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
        return False

    def invalidate(self, inum: int) -> None:
        self._lru.pop(inum, None)

    def __len__(self) -> int:
        return len(self._lru)
