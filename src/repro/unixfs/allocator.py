"""FFS-style block and fragment allocator.

4.2 BSD allocates every block of a file at the full block size except the
last, which is rounded up only to fragments (block/4 here).  The paper
leans on this scheme in Section 6.3: large blocks are good for the cache,
and the fragment scheme keeps them from wasting disk space on the many
small files the traces show.  This allocator implements the scheme with a
best-fit fragment search, so the workload engine runs against a disk whose
space accounting behaves like the real thing (including fragment promotion
when a file's tail grows past a full block).

Blocks are identified by integer block numbers; fragments by
``(block, start_fragment, count)``.  All operations are O(1) amortized
thanks to a run-length index over partially allocated blocks (fragments per
block is at most 8, so per-block bit twiddling is constant time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EINVAL, ENOSPC
from .geometry import Geometry

__all__ = ["Extent", "BlockAllocator", "AllocatorStats"]


@dataclass
class Extent:
    """The on-disk allocation of one file.

    ``blocks`` lists the full blocks; the tail, if any, is ``tail_frags``
    fragments starting at fragment ``tail_start`` of block ``tail_block``.
    """

    blocks: list[int] = field(default_factory=list)
    tail_block: int | None = None
    tail_start: int = 0
    tail_frags: int = 0

    def allocated_frags(self, frags_per_block: int) -> int:
        return len(self.blocks) * frags_per_block + self.tail_frags


@dataclass
class AllocatorStats:
    """Cumulative allocator activity counters."""

    blocks_allocated: int = 0
    blocks_freed: int = 0
    frag_allocations: int = 0
    frag_frees: int = 0
    frag_promotions: int = 0  # tail copied into a full block as the file grew


def _full_mask(fpb: int) -> int:
    return (1 << fpb) - 1


def _max_free_run(mask: int, fpb: int) -> int:
    """Length of the longest run of set (free) bits in an fpb-bit mask."""
    best = run = 0
    for i in range(fpb):
        if mask >> i & 1:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


def _find_free_run(mask: int, n: int, fpb: int) -> int:
    """Start index of the first run of *n* free bits, or -1."""
    run = 0
    for i in range(fpb):
        if mask >> i & 1:
            run += 1
            if run == n:
                return i - n + 1
        else:
            run = 0
    return -1


class BlockAllocator:
    """Allocates full blocks and tail fragments on a fixed-size device."""

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self.stats = AllocatorStats()
        self._fpb = geometry.frags_per_block
        self._full = _full_mask(self._fpb)
        # Free full blocks, used as a LIFO stack (locality-friendly enough
        # for a simulation that never looks at physical addresses).
        self._free_blocks: list[int] = list(range(geometry.total_blocks - 1, -1, -1))
        # Partially allocated blocks: block -> bitmask of FREE fragments.
        self._partial: dict[int, int] = {}
        # Index: max free-run length -> set of partial blocks with that run.
        self._by_run: list[set[int]] = [set() for _ in range(self._fpb + 1)]
        # _max_free_run of every fpb-bit mask (at most 256 of them).
        self._max_run = [_max_free_run(m, self._fpb) for m in range(1 << self._fpb)]
        self._free_frag_count = geometry.total_frags

    # -- capacity ------------------------------------------------------------

    @property
    def free_frags(self) -> int:
        """Free fragments on the device (full blocks included)."""
        return self._free_frag_count

    @property
    def free_bytes(self) -> int:
        return self._free_frag_count * self.geometry.frag_size

    @property
    def allocated_bytes(self) -> int:
        return self.geometry.total_bytes - self.free_bytes

    # -- low-level block/fragment operations ---------------------------------

    def _alloc_block(self) -> int:
        if not self._free_blocks:
            raise ENOSPC("no free blocks")
        block = self._free_blocks.pop()
        self._free_frag_count -= self._fpb
        self.stats.blocks_allocated += 1
        return block

    def _free_block(self, block: int) -> None:
        self._free_blocks.append(block)
        self._free_frag_count += self._fpb
        self.stats.blocks_freed += 1

    def _index_partial(self, block: int, mask: int) -> None:
        self._partial[block] = mask
        self._by_run[self._max_run[mask]].add(block)

    def _unindex_partial(self, block: int) -> int:
        mask = self._partial.pop(block)
        self._by_run[self._max_run[mask]].discard(block)
        return mask

    def _alloc_frags(self, n: int) -> tuple[int, int]:
        """Allocate *n* contiguous fragments; returns (block, start)."""
        if not 0 < n < self._fpb:
            raise EINVAL(f"fragment allocation of {n} frags (fpb={self._fpb})")
        # Best fit: smallest run that holds n, to limit external fragmentation
        # within blocks.
        for run in range(n, self._fpb + 1):
            if self._by_run[run]:
                block = next(iter(self._by_run[run]))
                mask = self._unindex_partial(block)
                start = _find_free_run(mask, n, self._fpb)
                mask &= ~(((1 << n) - 1) << start)
                if mask:
                    self._index_partial(block, mask)
                # A block with no free frags is fully allocated: not indexed.
                self._free_frag_count -= n
                self.stats.frag_allocations += 1
                return block, start
        # No partial block fits: split a fresh full block.
        block = self._alloc_block()
        mask = self._full & ~((1 << n) - 1)
        self._free_frag_count += self._fpb  # _alloc_block already charged it
        self._free_frag_count -= n
        if mask:
            self._index_partial(block, mask)
        self.stats.frag_allocations += 1
        return block, start_of_new_block()

    def _free_frags(self, block: int, start: int, n: int) -> None:
        bits = ((1 << n) - 1) << start
        if block in self._partial:
            mask = self._unindex_partial(block)
        else:
            mask = 0
        if mask & bits:
            raise EINVAL(f"double free of fragments in block {block}")
        mask |= bits
        self._free_frag_count += n
        self.stats.frag_frees += 1
        if mask == self._full:
            # Whole block free again (don't double count frags: _free_block
            # credits the full block, so remove our fragment credit first).
            self._free_frag_count -= self._fpb
            self._free_block(block)
        else:
            self._index_partial(block, mask)

    # -- extent (per-file) operations -----------------------------------------

    def resize(self, extent: Extent, new_size: int) -> None:
        """Grow or shrink *extent* to hold *new_size* bytes.

        Implements the FFS policy: all blocks full-size except a fragment
        tail; a tail that grows past a full block is *promoted* (copied into
        a freshly allocated full block, counted in
        ``stats.frag_promotions``).

        Atomic with respect to ENOSPC: if the device fills mid-growth, the
        extent is restored to an allocation equivalent to what it held
        (same block and fragment counts) before the error propagates.
        """
        if new_size < 0:
            raise EINVAL(f"negative size {new_size}")
        old_blocks = len(extent.blocks)
        old_tail = extent.tail_frags
        try:
            self._resize_inner(extent, new_size)
        except ENOSPC:
            self._restore(extent, old_blocks, old_tail)
            raise

    def _restore(self, extent: Extent, n_blocks: int, tail_frags: int) -> None:
        """Rebuild *extent* to hold the given shape after a failed grow.

        Everything the failed resize freed or allocated is released first,
        so re-allocating the original shape cannot itself fail.
        """
        while extent.blocks:
            self._free_block(extent.blocks.pop())
        if extent.tail_frags:
            self._free_frags(extent.tail_block, extent.tail_start, extent.tail_frags)
            extent.tail_block = None
            extent.tail_start = 0
            extent.tail_frags = 0
        for _ in range(n_blocks):
            extent.blocks.append(self._alloc_block())
        if tail_frags:
            block, start = self._alloc_frags(tail_frags)
            extent.tail_block = block
            extent.tail_start = start
            extent.tail_frags = tail_frags

    def _resize_inner(self, extent: Extent, new_size: int) -> None:
        want_blocks, want_tail = self.geometry.allocation_for(new_size)
        have_blocks = len(extent.blocks)

        # Shrinking the full-block run.
        while have_blocks > want_blocks:
            self._free_block(extent.blocks.pop())
            have_blocks -= 1

        # Tail adjustments first when growing (promotion frees the old tail).
        if want_blocks > have_blocks and extent.tail_frags:
            # The old tail becomes part of a full block: promote.
            self._free_frags(extent.tail_block, extent.tail_start, extent.tail_frags)
            extent.tail_block = None
            extent.tail_start = 0
            extent.tail_frags = 0
            self.stats.frag_promotions += 1

        while have_blocks < want_blocks:
            extent.blocks.append(self._alloc_block())
            have_blocks += 1

        if want_tail != extent.tail_frags:
            if extent.tail_frags:
                self._free_frags(
                    extent.tail_block, extent.tail_start, extent.tail_frags
                )
                extent.tail_block = None
                extent.tail_start = 0
                extent.tail_frags = 0
            if want_tail:
                block, start = self._alloc_frags(want_tail)
                extent.tail_block = block
                extent.tail_start = start
                extent.tail_frags = want_tail

    def release(self, extent: Extent) -> None:
        """Free everything the extent holds (file deletion)."""
        self.resize(extent, 0)


def start_of_new_block() -> int:
    """Fragments carved from a fresh block always start at fragment 0."""
    return 0
