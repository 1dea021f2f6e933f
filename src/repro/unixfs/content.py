"""File content storage strategies.

The trace study only needs file *sizes and positions*, so the workload
engine runs the file system with a :class:`NullContentStore` that tracks
sizes without holding bytes (a multi-gigabyte synthetic workload then costs
no memory).  Tests and examples that want real data use a
:class:`MemoryContentStore`, which behaves like a RAM disk.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = ["ContentStore", "NullContentStore", "MemoryContentStore"]


class ContentStore(ABC):
    """Byte storage keyed by inode number."""

    @abstractmethod
    def read(self, inum: int, offset: int, length: int, file_size: int) -> bytes:
        """Return up to *length* bytes at *offset* (bounded by *file_size*)."""

    @abstractmethod
    def write(self, inum: int, offset: int, data: bytes) -> None:
        """Store *data* at *offset*, extending as needed."""

    @abstractmethod
    def truncate(self, inum: int, length: int) -> None:
        """Discard content beyond *length*."""

    @abstractmethod
    def remove(self, inum: int) -> None:
        """Discard all content for *inum*."""


class NullContentStore(ContentStore):
    """Size-only storage: reads return zero bytes, writes are discarded.

    This is what the kernel of a trace *simulation* needs — the tracer never
    looks at data, only at positions.
    """

    def read(self, inum: int, offset: int, length: int, file_size: int) -> bytes:
        available = file_size - offset
        if available > length:
            available = length
        return bytes(available) if available > 0 else b""

    def write(self, inum: int, offset: int, data: bytes) -> None:
        pass

    def truncate(self, inum: int, length: int) -> None:
        pass

    def remove(self, inum: int) -> None:
        pass


class MemoryContentStore(ContentStore):
    """Real in-memory byte storage (a RAM disk)."""

    def __init__(self):
        self._data: dict[int, bytearray] = {}

    def read(self, inum: int, offset: int, length: int, file_size: int) -> bytes:
        buf = self._data.get(inum, bytearray())
        end = min(offset + length, file_size)
        if offset >= end:
            return b""
        chunk = bytes(buf[offset:end])
        # A file extended by truncate-up or sparse write reads as zeros.
        if len(chunk) < end - offset:
            chunk += b"\x00" * (end - offset - len(chunk))
        return chunk

    def write(self, inum: int, offset: int, data: bytes) -> None:
        buf = self._data.setdefault(inum, bytearray())
        if len(buf) < offset:
            buf.extend(b"\x00" * (offset - len(buf)))
        buf[offset : offset + len(data)] = data

    def truncate(self, inum: int, length: int) -> None:
        buf = self._data.get(inum)
        if buf is not None and len(buf) > length:
            del buf[length:]

    def remove(self, inum: int) -> None:
        self._data.pop(inum, None)

    def bytes_held(self) -> int:
        """Total bytes currently stored (for tests and memory accounting)."""
        return sum(len(b) for b in self._data.values())
