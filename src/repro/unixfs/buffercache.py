"""The kernel buffer cache.

4.2 BSD dedicates about 10% of main memory (a few hundred kilobytes) to a
least-recently-used cache of disk blocks; the paper's Section 6 credits it
with roughly halving disk traffic, and Section 6.4 compares against the
measured ~15% miss ratio of Leffler et al.  This module is the *live*
buffer cache inside the simulated kernel — it runs during workload
generation and supplies an in-vivo baseline.  The trace-driven cache
simulator in :mod:`repro.cache` is a separate, richer implementation
(write policies, block-size sweeps) that replays traces offline, as the
paper's simulator did.

Blocks are keyed by ``(file_id, block_index)``: the cache is logical, like
the paper's simulations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .errors import EINVAL

__all__ = ["BufferCache", "BufferCacheStats"]


@dataclass
class BufferCacheStats:
    """Counters for the live kernel buffer cache."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    writebacks: int = 0  # dirty blocks pushed to disk (eviction or sync)
    invalidations: int = 0  # blocks dropped by unlink/truncate

    @property
    def accesses(self) -> int:
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def miss_ratio(self) -> float:
        """Disk reads + writebacks over logical block accesses."""
        if not self.accesses:
            return 0.0
        return (self.read_misses + self.writebacks) / self.accesses

    @property
    def read_hit_ratio(self) -> float:
        reads = self.read_hits + self.read_misses
        return self.read_hits / reads if reads else 0.0


class BufferCache:
    """LRU cache of (file_id, block) with dirty bits and periodic sync.

    The kernel invokes :meth:`sync` every 30 seconds (the classical
    ``update`` daemon); eviction of a dirty block also costs a writeback.
    The dirty blocks are kept as a set beside the LRU order, so a sync
    costs O(dirty blocks) rather than a walk over the whole cache, and a
    per-file index keeps unlink/truncate invalidation O(blocks dropped)
    rather than O(cache size).
    """

    def __init__(self, capacity_bytes: int = 400 * 1024, block_size: int = 4096):
        if capacity_bytes < block_size:
            raise EINVAL("buffer cache smaller than one block")
        self.block_size = block_size
        self.capacity_blocks = capacity_bytes // block_size
        self.stats = BufferCacheStats()
        # Cached blocks; insertion order is LRU order (values unused).
        self._lru: OrderedDict[tuple[int, int], None] = OrderedDict()
        # The cached blocks written since their last writeback.
        self._dirty: set[tuple[int, int]] = set()
        # file_id -> set of block indices currently cached.
        self._by_file: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self._lru)

    def access(self, file_id: int, offset: int, length: int, write: bool) -> None:
        """Run one logical transfer through the cache.

        The byte range is split into block accesses; each is a hit or a miss
        and, for writes, marks the block dirty.  A miss inserts the block at
        the MRU end and evicts from the LRU end, writing a dirty victim back.
        """
        if length <= 0:
            return
        lru = self._lru
        dirty = self._dirty
        stats = self.stats
        first = offset // self.block_size
        last = (offset + length - 1) // self.block_size
        for block in range(first, last + 1):
            key = (file_id, block)
            if key in lru:
                lru.move_to_end(key)
                if write:
                    dirty.add(key)
                    stats.write_hits += 1
                else:
                    stats.read_hits += 1
                continue
            if write:
                dirty.add(key)
                stats.write_misses += 1
            else:
                stats.read_misses += 1
            lru[key] = None
            blocks = self._by_file.get(file_id)
            if blocks is None:
                self._by_file[file_id] = {block}
            else:
                blocks.add(block)
            while len(lru) > self.capacity_blocks:
                victim = lru.popitem(last=False)[0]
                victim_blocks = self._by_file[victim[0]]
                victim_blocks.discard(victim[1])
                if not victim_blocks:
                    del self._by_file[victim[0]]
                if victim in dirty:
                    dirty.discard(victim)
                    stats.writebacks += 1

    def invalidate_file(self, file_id: int, from_block: int = 0) -> None:
        """Drop a file's blocks (unlink, or truncate past *from_block*).

        Dirty blocks of a deleted file are discarded without a writeback —
        the effect the paper's delayed-write results hinge on.
        """
        blocks = self._by_file.get(file_id)
        if not blocks:
            return
        doomed = [b for b in blocks if b >= from_block]
        for block in doomed:
            key = (file_id, block)
            del self._lru[key]
            self._dirty.discard(key)
            blocks.discard(block)
            self.stats.invalidations += 1
        if not blocks:
            del self._by_file[file_id]

    def sync(self) -> int:
        """Write all dirty blocks back; returns the number written."""
        written = len(self._dirty)
        self._dirty.clear()
        self.stats.writebacks += written
        return written
