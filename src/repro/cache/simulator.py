"""The trace-driven block-cache simulator (paper Section 6).

Replays a trace's billed transfers and invalidations through a fixed-size
cache of ``block_size`` blocks under one of the paper's write policies,
with a pluggable replacement policy (LRU — the paper's — by default; see
:mod:`repro.cache.replacement` for the zoo).  The semantics follow
Section 6.1 precisely:

* each transferred byte range is divided into block accesses, assumed to
  be made in units of the cache block size;
* a referenced block missing from the cache costs a disk read, **unless
  it is about to be overwritten in its entirety** (or lies wholly beyond
  the file's known end, where there is nothing to read);
* disk writes happen when the policy says so: immediately
  (write-through), at scan time (flush-back), or at eviction
  (delayed-write);
* an unlinked or truncated file's blocks leave the cache at once, and
  dirty ones are discarded *without* being written — the reason
  delayed-write wins: "about 75% of the newly-written blocks were
  overwritten or their files were deleted before the blocks were ejected".

Two semantics knobs exist purely for the ablation benchmarks:
``read_elision=False`` charges a read on every miss, and
``invalidate_on_delete=False`` leaves dead blocks to age out of the cache
(and pay their writebacks).
"""

from __future__ import annotations

from typing import Iterable

from ..trace.log import TraceLog
from .metrics import CacheMetrics, ExposureTracker, ResidencyTracker
from .policies import DELAYED_WRITE, PolicySpec, WritePolicy
from .replacement import make_replacement
from .stream import Invalidation, StreamItem, cached_stream

__all__ = ["BlockCacheSimulator", "simulate_cache"]


class _Entry:
    """Per-block cache state (a tiny mutable record)."""

    __slots__ = ("dirty", "insert_time")

    def __init__(self, dirty: bool, insert_time: float):
        self.dirty = dirty
        self.insert_time = insert_time


class BlockCacheSimulator:
    """One cache configuration, replayable over a stream."""

    __slots__ = (
        "block_size",
        "capacity_blocks",
        "policy",
        "replacement",
        "read_elision",
        "invalidate_on_delete",
        "metrics",
        "residency",
        "exposure",
        "_dirty_count",
        "_cache",
        "_replacer",
        "_by_file",
        "_known_size",
        "_now",
        "_next_flush",
    )

    def __init__(
        self,
        cache_bytes: int,
        block_size: int = 4096,
        policy: PolicySpec = DELAYED_WRITE,
        replacement: str = "lru",
        read_elision: bool = True,
        invalidate_on_delete: bool = True,
        track_residency: bool = False,
        track_exposure: bool = False,
    ):
        if block_size <= 0:
            raise ValueError(f"block size must be positive, got {block_size}")
        if cache_bytes < block_size:
            raise ValueError("cache smaller than one block")
        self.block_size = block_size
        self.capacity_blocks = cache_bytes // block_size
        self.policy = policy
        self.replacement = replacement
        self.read_elision = read_elision
        self.invalidate_on_delete = invalidate_on_delete
        self.metrics = CacheMetrics()
        self.residency = ResidencyTracker() if track_residency else None
        self.exposure = ExposureTracker() if track_exposure else None
        self._dirty_count = 0
        self._cache: dict[tuple[int, int], _Entry] = {}
        # Ordering (who dies next) belongs to the policy object; the
        # dict above only answers membership and per-block dirty state.
        self._replacer = make_replacement(replacement, self.capacity_blocks)
        self._by_file: dict[int, set[int]] = {}
        self._known_size: dict[int, int] = {}
        self._now = 0.0
        # The next flush-back scan's time, carried across run() calls.
        self._next_flush: float | None = None

    # -- cache bookkeeping ----------------------------------------------------

    def _note_dirty(self, delta: int) -> None:
        self._dirty_count += delta
        if self.exposure is not None:
            self.exposure.update(self._now, self._dirty_count)

    def _remove(self, key: tuple[int, int], evicted: bool = False) -> _Entry:
        entry = self._cache.pop(key)
        self._replacer.remove(key, evicted)
        if entry.dirty:
            self._note_dirty(-1)
        blocks = self._by_file[key[0]]
        blocks.discard(key[1])
        if not blocks:
            del self._by_file[key[0]]
        if self.residency is not None:
            self.residency.record(self._now - entry.insert_time)
        return entry

    def _insert(self, key: tuple[int, int], dirty: bool) -> None:
        self._cache[key] = _Entry(dirty, self._now)
        self._replacer.insert(key)
        if dirty:
            self._note_dirty(1)
        self._by_file.setdefault(key[0], set()).add(key[1])
        while len(self._cache) > self.capacity_blocks:
            victim = self._replacer.victim()
            entry = self._remove(victim, evicted=True)
            self.metrics.evictions += 1
            if entry.dirty:
                # Delayed-write / flush-back blocks pay their writeback at
                # ejection; write-through blocks are never dirty.
                self.metrics.disk_writes += 1

    def _flush(self) -> None:
        """A flush-back scan: write out every dirty block."""
        flushed = 0
        for entry in self._cache.values():
            if entry.dirty:
                entry.dirty = False
                self.metrics.disk_writes += 1
                flushed += 1
        if flushed:
            self._note_dirty(-flushed)

    # -- stream item processing ------------------------------------------------

    def _invalidate(self, inval: Invalidation) -> None:
        known = self._known_size.get(inval.file_id, 0)
        self._known_size[inval.file_id] = min(known, inval.from_byte)
        if not self.invalidate_on_delete:
            return
        self.drop_file(inval.file_id, inval.from_byte)

    # -- external cache control (used by the netfs consistency layer) ----------

    def drop_file(
        self, file_id: int, from_byte: int = 0, now: float | None = None
    ) -> None:
        """Drop cached blocks of *file_id* at or past *from_byte*.

        Unlike an :class:`Invalidation`, this does not shrink the file's
        known size: a remote invalidation (callback, lease revocation)
        means our *copy* is stale, not that the data is gone from disk.
        """
        if now is not None and now > self._now:
            self._now = now
        blocks = self._by_file.get(file_id)
        if not blocks:
            return
        first_dead = -(-from_byte // self.block_size)
        doomed = sorted(b for b in blocks if b >= first_dead)
        for block in doomed:
            entry = self._remove((file_id, block))
            self.metrics.invalidated_blocks += 1
            if entry.dirty:
                self.metrics.dirty_blocks_discarded += 1

    def flush_file(self, file_id: int) -> int:
        """Write out every dirty block of *file_id*; returns the count.

        The disk writes are billed to :attr:`metrics` exactly as a
        flush-back scan's are — this is one file's slice of that scan,
        triggered by an ownership-lease recall.
        """
        flushed = 0
        for block in self._by_file.get(file_id, ()):
            entry = self._cache[(file_id, block)]
            if entry.dirty:
                entry.dirty = False
                self.metrics.disk_writes += 1
                flushed += 1
        if flushed:
            self._note_dirty(-flushed)
        return flushed

    def _access(self, file_id: int, block: int, write: bool, covered: bool) -> None:
        key = (file_id, block)
        write_through = self.policy.policy is WritePolicy.WRITE_THROUGH
        entry = self._cache.get(key)
        if entry is not None:
            self._replacer.touch(key)
            if write:
                self.metrics.write_accesses += 1
                if write_through:
                    self.metrics.disk_writes += 1
                elif not entry.dirty:
                    entry.dirty = True
                    self.metrics.dirty_blocks_created += 1
                    self._note_dirty(1)
            else:
                self.metrics.read_accesses += 1
            return
        # Miss.
        if write:
            self.metrics.write_accesses += 1
            if covered and self.read_elision:
                self.metrics.read_elisions += 1
            else:
                self.metrics.disk_reads += 1
            if write_through:
                self.metrics.disk_writes += 1
                self._insert(key, dirty=False)
            else:
                self.metrics.dirty_blocks_created += 1
                self._insert(key, dirty=True)
        else:
            self.metrics.read_accesses += 1
            self.metrics.disk_reads += 1
            self._insert(key, dirty=False)

    def run(
        self, stream: Iterable[StreamItem], flush_epoch: float | None = None
    ) -> CacheMetrics:
        """Replay *stream* (from :func:`~repro.cache.stream.build_stream`
        or :func:`~repro.cache.stream.cached_stream`).

        *flush_epoch* anchors the flush-back scan schedule.  Flush scans
        happen at ``epoch + k * flush_interval``.  Passing
        ``flush_epoch=log.start_time`` pins the schedule to the trace
        start — what a real kernel's periodic ``sync`` daemon does (it
        runs on wall-clock ticks, not relative to the first write); the
        sweeps and :func:`simulate_cache` do.  With ``None`` the first
        item's time is the epoch.  The schedule is fixed by the first
        call and carried across later ones, so replaying a stream one
        item per call equals replaying it whole.
        """
        bs = self.block_size
        flushing = self.policy.policy is WritePolicy.FLUSH_BACK
        next_flush = self._next_flush
        if flushing and next_flush is None and flush_epoch is not None:
            next_flush = flush_epoch + self.policy.flush_interval
        for item in stream:
            self._now = item.time
            if flushing:
                if next_flush is None:
                    next_flush = item.time + self.policy.flush_interval
                while item.time >= next_flush:
                    self._flush()
                    next_flush += self.policy.flush_interval
            if isinstance(item, Invalidation):
                self._invalidate(item)
                continue
            known = self._known_size.get(item.file_id, 0)
            first = item.start // bs
            last = (item.end - 1) // bs
            for block in range(first, last + 1):
                block_start = block * bs
                block_end = block_start + bs
                covered = (
                    item.start <= block_start and item.end >= block_end
                ) or block_start >= known  # nothing on disk beyond EOF
                self._access(item.file_id, block, item.is_write, covered)
            # Any transfer to position ``end`` proves the file extends that
            # far (reads cannot pass EOF), tightening the beyond-EOF
            # write-elision test for later writes.
            if item.end > known:
                self._known_size[item.file_id] = item.end
        self._next_flush = next_flush
        if self.residency is not None:
            self.residency.finish(
                [self._now - e.insert_time for e in self._cache.values()]
            )
        return self.metrics


def simulate_cache(
    log: TraceLog,
    cache_bytes: int,
    block_size: int = 4096,
    policy: PolicySpec = DELAYED_WRITE,
    include_paging: bool = False,
    **kwargs,
) -> CacheMetrics:
    """Convenience one-shot: build the stream from *log* and simulate.

    The stream is memoized per log (see :func:`cached_stream`) and the
    flush-back schedule is anchored at the trace start.
    """
    sim = BlockCacheSimulator(
        cache_bytes=cache_bytes, block_size=block_size, policy=policy, **kwargs
    )
    return sim.run(
        cached_stream(log, include_paging=include_paging),
        flush_epoch=log.start_time,
    )
