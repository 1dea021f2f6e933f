"""Per-segment ``.bpack`` shards of a corpus.

A sweep over a corpus-sized trace starts by compiling block-access
streams, and doing that once per worker (or once per run) wastes the
dominant setup cost.  :func:`write_segment_packs` walks a ``.bcorpus``
segment by segment and writes one :mod:`repro.parallel.bpack` file per
segment — the packed stream for that segment's events at one block
size.  Shards are content-addressed by position and parameters (the
filename carries the segment index, block size, and row count), written
atomically, and skipped when already present, so re-running is cheap
and concurrent writers converge on identical files.

Workers then map shard paths through
:func:`repro.parallel.bpack.cached_bpack` and replay zero-copy from the
page cache — the same fan-out shape ``cache/sweep.py`` uses for single
streams, scaled out to one file per segment.
"""

from __future__ import annotations

import os
import re
from typing import Union

from ..cache.stream import build_stream
from ..parallel.bpack import write_bpack
from ..parallel.packed import pack_stream
from .reader import CorpusReader

__all__ = ["segment_pack_path", "write_segment_packs"]

_PathLike = Union[str, os.PathLike]


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name) or "trace"


def segment_pack_path(
    out_dir: _PathLike, name: str, index: int, block_size: int
) -> str:
    """The shard filename for one ``(segment, block size)`` pair."""
    fname = f"{_safe_name(name)}-seg{index:05d}-bs{block_size}.bpack"
    return os.path.join(os.fspath(out_dir), fname)


def write_segment_packs(
    src: _PathLike,
    block_size: int,
    out_dir: _PathLike,
    include_paging: bool = False,
    overwrite: bool = False,
) -> list[str]:
    """Compile every segment of the corpus at *src* into ``.bpack`` shards.

    Returns the shard paths in segment order.  Existing shards are left
    alone unless *overwrite* is set (the writes are atomic, so a present
    file is a complete one).
    """
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    paths: list[str] = []
    with CorpusReader(src) as reader:
        for index in range(reader.segment_count):
            cols = reader.segment(index)
            path = segment_pack_path(out_dir, cols.name, index, block_size)
            if overwrite or not os.path.exists(path):
                log = cols.to_log()
                stream = build_stream(log, include_paging=include_paging)
                packed = pack_stream(stream, block_size, start_time=log.start_time)
                write_bpack(packed, path)
            paths.append(path)
    return paths
