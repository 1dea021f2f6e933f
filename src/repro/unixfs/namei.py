"""Pathname resolution (``namei``) and the directory name lookup cache.

Opening a file in 4.2 BSD walks the pathname one component at a time; each
component costs directory I/O unless the (directory, name) pair is in the
directory name lookup cache, which Leffler et al. measured at an 85% hit
ratio (paper Section 3.2).  This module implements the walk over the
simulated inode tree plus an LRU DNLC with the same structure.
"""

from __future__ import annotations

from collections import OrderedDict

from .errors import EINVAL, ENOENT, ENOTDIR
from .inode import CacheCounters, Inode, InodeTable

__all__ = ["Dnlc", "NameResolver", "split_path", "parent_path"]


def split_path(path: str) -> list[str]:
    """Split an absolute path into components; validates the path."""
    if not path or path[0] != "/":
        raise EINVAL(f"path must be absolute: {path!r}")
    components = path[1:].split("/")
    if "" in components:  # "//", a trailing "/", or the root itself
        components = [c for c in components if c]
    if "." in components or ".." in components:
        raise EINVAL(f"'.' and '..' are not supported: {path!r}")
    return components


def parent_path(path: str) -> tuple[str, str]:
    """Split *path* into (parent directory path, final component)."""
    components = split_path(path)
    if not components:
        raise EINVAL("the root directory has no parent")
    return "/" + "/".join(components[:-1]), components[-1]


class Dnlc:
    """The directory name lookup cache: (dir inum, name) -> inum, LRU."""

    def __init__(self, capacity: int = 400):
        if capacity <= 0:
            raise EINVAL("DNLC capacity must be positive")
        self.capacity = capacity
        self.counters = CacheCounters()
        self._lru: OrderedDict[tuple[int, str], int] = OrderedDict()

    def lookup(self, dir_inum: int, name: str) -> int | None:
        key = (dir_inum, name)
        inum = self._lru.get(key)
        if inum is None:
            self.counters.misses += 1
            return None
        self._lru.move_to_end(key)
        self.counters.hits += 1
        return inum

    def enter(self, dir_inum: int, name: str, inum: int) -> None:
        key = (dir_inum, name)
        self._lru[key] = inum
        self._lru.move_to_end(key)
        if len(self._lru) > self.capacity:
            self._lru.popitem(last=False)

    def remove(self, dir_inum: int, name: str) -> None:
        self._lru.pop((dir_inum, name), None)

    def purge_inum(self, inum: int) -> None:
        """Drop every entry resolving to *inum* (after inode reuse)."""
        doomed = [k for k, v in self._lru.items() if v == inum]
        for key in doomed:
            del self._lru[key]

    def __len__(self) -> int:
        return len(self._lru)


class NameResolver:
    """Walks pathnames over an inode table, consulting the DNLC.

    ``directory_reads`` counts the component lookups that missed the DNLC
    and therefore would have required directory disk I/O — one of the
    "other accesses" of the paper's Section 8.
    """

    def __init__(self, inodes: InodeTable, root_inum: int, dnlc: Dnlc | None = None):
        self.inodes = inodes
        self.root_inum = root_inum
        self.dnlc = dnlc if dnlc is not None else Dnlc()
        self.directory_reads = 0

    def resolve(self, path: str) -> Inode:
        """Resolve an absolute path to its inode (raises ENOENT/ENOTDIR)."""
        inodes = self.inodes
        dnlc = self.dnlc
        inode = inodes.get(self.root_inum)
        for name in split_path(path):
            if not inode.is_dir:
                raise ENOTDIR(path)
            child_inum = dnlc.lookup(inode.inum, name)
            if child_inum is None:
                child_inum = inode.entries.get(name)
                self.directory_reads += 1
                if child_inum is None:
                    raise ENOENT(path)
                dnlc.enter(inode.inum, name, child_inum)
            inode = inodes.get(child_inum)
        return inode

    def resolve_parent(self, path: str) -> tuple[Inode, str]:
        """Resolve the parent directory of *path*; returns (inode, name)."""
        parent, name = parent_path(path)
        inode = self.resolve(parent)
        if not inode.is_dir:
            raise ENOTDIR(parent)
        return inode, name

    def exists(self, path: str) -> bool:
        try:
            self.resolve(path)
            return True
        except (ENOENT, ENOTDIR):
            return False
