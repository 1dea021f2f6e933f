"""Metadata (i-node and directory) traffic — the paper's Section 8 frontier.

The traces deliberately exclude "the overhead I/O activity needed to
interpret pathnames or to read and write file descriptors", yet the paper
closes on exactly that: "It appears from our data that more than half of
all disk block references could come from these other accesses.  There
are indications that the other accesses can also be handled efficiently
by caching, but more work is needed."

This module does that more work, within the trace's limits.  Every open
implies:

* an **i-node read** — modelled as a 128-byte access into a single large
  i-node-table pseudo-file at offset ``128 * file_id``, so i-nodes of
  nearby files share blocks exactly as they share cylinders on a real
  disk;
* a **directory read** — one block of a per-directory pseudo-file; the
  trace carries no pathnames, so files are clustered into synthetic
  directories of ``files_per_directory`` consecutive file ids (files
  created together live together, which is also how real directories
  fill);
* and, for writable opens, an **i-node write-back at close** — 4.2 BSD
  updated the on-disk i-node when a file changed.

The resulting transfers are interleaved into the normal stream, and the
ordinary cache simulator measures whether caching tames them.  Pseudo
file ids live far above any real file id, so they never collide.
"""

from __future__ import annotations

from ..analysis.accesses import Transfer
from ..trace.log import TraceLog
from ..trace.memo import memoize_per_log
from ..trace.records import AccessMode, CloseEvent, OpenEvent
from .stream import StreamItem, cached_stream

__all__ = [
    "INODE_TABLE_FILE_ID",
    "DIRECTORY_FILE_ID_BASE",
    "metadata_stream",
    "build_stream_with_metadata",
    "cached_stream_with_metadata",
    "is_metadata_item",
]

#: Pseudo-file holding the packed i-node table.
INODE_TABLE_FILE_ID = 10**9
#: Directory pseudo-files start here (one per synthetic directory).
DIRECTORY_FILE_ID_BASE = 2 * 10**9

#: On-disk i-node size in 4.2 BSD (bytes).
INODE_SIZE = 128
#: One directory content block.
DIRECTORY_BLOCK = 512


def metadata_stream(
    log: TraceLog,
    files_per_directory: int = 32,
    inode_writeback: bool = True,
) -> list[StreamItem]:
    """The implied metadata transfers of *log*, in time order."""
    items: list[tuple[float, int, Transfer]] = []
    writable_opens: dict[int, OpenEvent] = {}

    for seq, event in enumerate(log.events):
        if isinstance(event, OpenEvent):
            inode_offset = INODE_SIZE * event.file_id
            items.append(
                (
                    event.time,
                    seq,
                    Transfer(
                        time=event.time,
                        file_id=INODE_TABLE_FILE_ID,
                        user_id=event.user_id,
                        start=inode_offset,
                        end=inode_offset + INODE_SIZE,
                        is_write=False,
                    ),
                )
            )
            directory = DIRECTORY_FILE_ID_BASE + event.file_id // files_per_directory
            items.append(
                (
                    event.time,
                    seq,
                    Transfer(
                        time=event.time,
                        file_id=directory,
                        user_id=event.user_id,
                        start=0,
                        end=DIRECTORY_BLOCK,
                        is_write=False,
                    ),
                )
            )
            if event.mode.writable:
                writable_opens[event.open_id] = event
        elif isinstance(event, CloseEvent) and inode_writeback:
            opener = writable_opens.pop(event.open_id, None)
            if opener is not None:
                inode_offset = INODE_SIZE * opener.file_id
                items.append(
                    (
                        event.time,
                        seq,
                        Transfer(
                            time=event.time,
                            file_id=INODE_TABLE_FILE_ID,
                            user_id=opener.user_id,
                            start=inode_offset,
                            end=inode_offset + INODE_SIZE,
                            is_write=True,
                        ),
                    )
                )

    items.sort(key=lambda x: (x[0], x[1]))
    return [item for _t, _s, item in items]


def build_stream_with_metadata(
    log: TraceLog,
    include_paging: bool = False,
    files_per_directory: int = 32,
    inode_writeback: bool = True,
) -> list[StreamItem]:
    """The normal simulator stream with metadata transfers interleaved."""
    import heapq

    data = cached_stream(log, include_paging=include_paging)
    meta = metadata_stream(
        log,
        files_per_directory=files_per_directory,
        inode_writeback=inode_writeback,
    )
    return list(heapq.merge(data, meta, key=lambda item: item.time))


def cached_stream_with_metadata(
    log: TraceLog,
    include_paging: bool = False,
    files_per_directory: int = 32,
    inode_writeback: bool = True,
) -> list[StreamItem]:
    """Memoized :func:`build_stream_with_metadata` (one build per config)."""
    return memoize_per_log(
        log,
        ("stream+metadata", include_paging, files_per_directory, inode_writeback),
        lambda: build_stream_with_metadata(
            log,
            include_paging=include_paging,
            files_per_directory=files_per_directory,
            inode_writeback=inode_writeback,
        ),
    )


def is_metadata_item(item: StreamItem) -> bool:
    """True for transfers generated by :func:`metadata_stream`."""
    return getattr(item, "file_id", 0) >= INODE_TABLE_FILE_ID
