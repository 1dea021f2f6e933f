"""The open-file table.

Every successful ``open`` creates an open-file entry holding the access
mode and the current byte offset; the descriptor the caller receives
indexes this table.  Each entry also carries the tracer's ``open_id`` so
that close and seek events can be correlated with their open (paper
Table II).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EBADF, EMFILE
from .inode import Inode
from ..trace.records import AccessMode

__all__ = ["OpenFile", "FdTable"]


@dataclass(slots=True)
class OpenFile:
    """One open-file-table entry."""

    fd: int
    inode: Inode
    mode: AccessMode
    open_id: int
    uid: int
    offset: int = 0
    open_time: float = 0.0
    # Statistics the kernel keeps per open (handy for tests):
    bytes_read: int = 0
    bytes_written: int = 0
    seeks: int = 0
    # Number of descriptors sharing this entry (dup raises it).
    refs: int = 1


class FdTable:
    """Allocates descriptors and maps them to open files.

    The table is global (the simulation does not model per-process
    descriptor spaces; the paper's open ids are global too).  ``max_open``
    bounds simultaneous opens like the kernel's file-table size.
    """

    __slots__ = ("max_open", "_open", "_next_fd")

    def __init__(self, max_open: int = 100_000):
        self.max_open = max_open
        self._open: dict[int, OpenFile] = {}
        self._next_fd = 3  # 0,1,2 reserved out of respect for tradition

    def __len__(self) -> int:
        return len(self._open)

    def insert(self, entry: OpenFile) -> None:
        if len(self._open) >= self.max_open:
            raise EMFILE(f"{self.max_open} files already open")
        self._open[entry.fd] = entry

    def insert_alias(self, fd: int, entry: OpenFile) -> None:
        """Map a second descriptor onto an existing entry (``dup``)."""
        if len(self._open) >= self.max_open:
            raise EMFILE(f"{self.max_open} files already open")
        entry.refs += 1
        self._open[fd] = entry

    def next_fd(self) -> int:
        fd = self._next_fd
        self._next_fd += 1
        return fd

    def get(self, fd: int) -> OpenFile:
        try:
            return self._open[fd]
        except KeyError:
            raise EBADF(f"fd {fd}") from None

    def remove(self, fd: int) -> tuple[OpenFile, bool]:
        """Drop *fd*; returns (entry, was_last_reference)."""
        try:
            entry = self._open.pop(fd)
        except KeyError:
            raise EBADF(f"fd {fd}") from None
        entry.refs -= 1
        return entry, entry.refs == 0

    def open_files(self) -> list[OpenFile]:
        return list(self._open.values())

    def opens_of_inode(self, inum: int) -> list[OpenFile]:
        return [f for f in self._open.values() if f.inode.inum == inum]
