"""``.bpack``: packed streams on disk, mmap-readable like ``.bcorpus``.

A sweep at ``jobs>1`` used to pickle the full :class:`PackedStream`
arrays into every worker (once per worker under ``spawn``, and even the
``fork`` fast path copies them on first write to the refcount pages).
A ``.bpack`` file removes the stream from the payload entirely: the
parent writes the four flat fields once, workers ``mmap`` the file and
cast the columns straight out of the page cache — zero copies, shared
read-only across every process on the host, reusable across runs.

File layout (little-endian, 8-aligned like ``.bcorpus`` segments)::

    header   magic         8 bytes  b"BSDPACK" + version byte
             block_size    u64
             start_time    f64
             n_rows        u64
             n_accesses    u64
    columns  keys          i64 x n_rows   (packed (fid << KEY_SHIFT) | block)
             times         f64 x n_rows
             ops           u8  x n_rows
             padding       zero bytes to the next 8-byte boundary
    trailer  body_crc      u32 crc32 of everything before the trailer
             reserved      u32 zero
             end magic     8 bytes  b"BSDPEND" + version byte

The numeric columns lead and the header is 8-byte sized, so a reader
can ``memoryview.cast`` them with zero copies; the byte column trails.
Columns are stored little-endian; a big-endian host byteswaps copies on
the way in and out (the file never changes with the host).  Everything
here is numpy-free, so the Python replay reads ``.bpack`` files too.

:func:`read_bpack` returns a :class:`PackedStream` whose ``keys`` and
``times`` are memoryviews into the mmap (they keep the mapping alive)
and therefore behaves exactly like an in-RAM stream everywhere one is
consumed: ``tolist()``, ``len``, indexing, ``np.frombuffer`` and
equality against ``array``-backed streams all hold.  The per-process
:func:`cached_bpack` gives sweep workers one verified open per path.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
from array import array
from typing import Union

from .packed import PackedStream

__all__ = [
    "BPACK_MAGIC",
    "BPACK_END_MAGIC",
    "BpackError",
    "write_bpack",
    "read_bpack",
    "cached_bpack",
]

BPACK_MAGIC = b"BSDPACK\x01"
BPACK_END_MAGIC = b"BSDPEND\x01"

_HEADER = struct.Struct("<8sQdQQ")
_TRAILER = struct.Struct("<II8s")

_LITTLE = sys.byteorder == "little"


class BpackError(Exception):
    """A ``.bpack`` file is corrupt, truncated, or unrecognized."""


def _pad8(n: int) -> int:
    return -n % 8


def _column_bytes(column) -> bytes:
    """*column* (``array``/``memoryview``/``bytes``) as little-endian bytes."""
    if isinstance(column, array) and not _LITTLE:
        swapped = array(column.typecode, column)
        swapped.byteswap()
        return swapped.tobytes()
    return bytes(column)


def write_bpack(packed: PackedStream, path: Union[str, os.PathLike]) -> int:
    """Write *packed* to *path* atomically; returns the byte size.

    Atomic via write-to-temp + rename, so two processes racing to
    populate a shared pack cache can only ever observe complete files.
    """
    import zlib

    n = len(packed.ops)
    header = _HEADER.pack(
        BPACK_MAGIC, packed.block_size, packed.start_time, n, packed.n_accesses
    )
    keys = _column_bytes(packed.keys)
    times = _column_bytes(packed.times)
    ops = bytes(packed.ops)
    pad = b"\x00" * _pad8(len(ops))
    crc = 0
    for chunk in (header, keys, times, ops, pad):
        crc = zlib.crc32(chunk, crc)
    trailer = _TRAILER.pack(crc & 0xFFFFFFFF, 0, BPACK_END_MAGIC)
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in (header, keys, times, ops, pad, trailer):
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - only on write failure
            os.unlink(tmp)
    return _HEADER.size + len(keys) + len(times) + len(ops) + len(pad) + _TRAILER.size


def _check(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise BpackError(f"{path}: {message}")


def read_bpack(path: Union[str, os.PathLike], verify: bool = True) -> PackedStream:
    """Map *path* and return it as a zero-copy :class:`PackedStream`.

    The returned stream's ``keys``/``times`` columns are memoryview
    casts into a read-only mmap (which they keep alive); ``ops`` is a
    bytes copy — one byte per row, and the replay loops iterate it
    directly.  ``verify=True`` checks the trailer crc over the whole
    body (one sequential pass; the pages are about to be used anyway).
    On big-endian hosts the columns are byteswapped copies instead.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        try:
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:
            raise BpackError(f"{path}: cannot map: {exc}") from exc
    view = memoryview(mapped)
    size = len(view)
    _check(size >= _HEADER.size + _TRAILER.size, path, "truncated header")
    magic, block_size, start_time, n_rows, n_accesses = _HEADER.unpack_from(view, 0)
    _check(magic == BPACK_MAGIC, path, f"bad magic {magic!r}")
    body = _HEADER.size + 16 * n_rows + n_rows + _pad8(n_rows)
    _check(size == body + _TRAILER.size, path, f"size {size} != expected {body + _TRAILER.size}")
    _check(n_accesses <= n_rows, path, "access count exceeds row count")
    crc_stored, _reserved, end_magic = _TRAILER.unpack_from(view, body)
    _check(end_magic == BPACK_END_MAGIC, path, f"bad end magic {end_magic!r}")
    if verify:
        import zlib

        _check(
            zlib.crc32(view[:body]) & 0xFFFFFFFF == crc_stored,
            path,
            "body crc mismatch",
        )
    at = _HEADER.size
    keys_raw = view[at : at + 8 * n_rows]
    at += 8 * n_rows
    times_raw = view[at : at + 8 * n_rows]
    at += 8 * n_rows
    ops = bytes(view[at : at + n_rows])
    if _LITTLE:
        keys = keys_raw.cast("q")
        times = times_raw.cast("d")
    else:  # pragma: no cover - no big-endian host in CI
        keys = array("q", keys_raw.tobytes())
        keys.byteswap()
        times = array("d", times_raw.tobytes())
        times.byteswap()
    return PackedStream(
        block_size=block_size,
        start_time=start_time,
        ops=ops,
        keys=keys,
        times=times,
        n_accesses=n_accesses,
    )


# Per-process open cache: sweep workers resolve the same path for every
# chunk of jobs; one verified mmap per (path, stat identity) is enough.
_OPEN: dict[tuple[str, int, int], PackedStream] = {}


def cached_bpack(path: Union[str, os.PathLike]) -> PackedStream:
    """Memoized :func:`read_bpack`, keyed by path + size + mtime."""
    path = os.fspath(path)
    st = os.stat(path)
    key = (os.path.abspath(path), st.st_size, st.st_mtime_ns)
    stream = _OPEN.get(key)
    if stream is None:
        if len(_OPEN) >= 16:  # a sweep only ever touches a handful
            _OPEN.clear()
        stream = _OPEN[key] = read_bpack(path)
    return stream
