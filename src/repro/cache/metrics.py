"""Simulation metrics.

The paper's principal metric is the **miss ratio**: disk I/O operations
over logical block accesses (Section 6.1).  Both numerator terms are
tracked separately (reads caused by misses; writes caused by the write
policy), along with the counters that explain *why* delayed-write wins —
dirty blocks that died in the cache and never touched the disk — and the
block residency-time statistics behind the paper's crash-exposure
discussion (Section 6.2: with a 4 MB cache about 20% of blocks stay in
the cache longer than 20 minutes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CacheMetrics", "ResidencyTracker", "ExposureTracker"]


@dataclass
class CacheMetrics:
    """Counters accumulated over one simulation run."""

    read_accesses: int = 0
    write_accesses: int = 0
    disk_reads: int = 0
    disk_writes: int = 0
    evictions: int = 0
    invalidated_blocks: int = 0
    dirty_blocks_created: int = 0  # transitions clean/absent -> dirty
    dirty_blocks_discarded: int = 0  # dirty blocks dropped by invalidation
    read_elisions: int = 0  # write misses that skipped the disk read

    @property
    def block_accesses(self) -> int:
        """Logical block accesses — the miss ratio's denominator."""
        return self.read_accesses + self.write_accesses

    @property
    def disk_ios(self) -> int:
        return self.disk_reads + self.disk_writes

    @property
    def miss_ratio(self) -> float:
        """Disk I/Os over logical block accesses (the paper's metric)."""
        if not self.block_accesses:
            return 0.0
        return self.disk_ios / self.block_accesses

    @property
    def write_fraction(self) -> float:
        """Writes among logical block accesses (~1/3 in the paper)."""
        if not self.block_accesses:
            return 0.0
        return self.write_accesses / self.block_accesses

    @property
    def dirty_discard_fraction(self) -> float:
        """Of all blocks ever dirtied, how many died in the cache unwritten —
        the paper reports ~75% for large delayed-write caches."""
        if not self.dirty_blocks_created:
            return 0.0
        return self.dirty_blocks_discarded / self.dirty_blocks_created

    def summary(self) -> str:
        return (
            f"{self.block_accesses:,} block accesses "
            f"({100 * self.write_fraction:.0f}% writes), "
            f"{self.disk_reads:,} disk reads + {self.disk_writes:,} disk writes "
            f"= miss ratio {100 * self.miss_ratio:.1f}%"
        )


@dataclass
class ExposureTracker:
    """Time-weighted crash exposure: how much unwritten dirty data sits in
    the cache over time (Section 6.2's objection to pure delayed-write:
    "System crashes could cause large amounts of information to be
    lost.").  ``update`` is called with the current time whenever the
    dirty count changes; the integral divided by elapsed time is the
    average exposure, and ``max_dirty_blocks`` the worst case."""

    _last_time: float = 0.0
    _current_dirty: int = 0
    _integral: float = 0.0  # dirty-blocks x seconds
    max_dirty_blocks: int = 0
    _started: bool = False

    def update(self, now: float, dirty_count: int) -> None:
        if self._started:
            self._integral += self._current_dirty * max(0.0, now - self._last_time)
        self._started = True
        self._last_time = now
        self._current_dirty = dirty_count
        self.max_dirty_blocks = max(self.max_dirty_blocks, dirty_count)

    def average_dirty_blocks(self, duration: float) -> float:
        """Mean dirty-block count over *duration* seconds."""
        if duration <= 0:
            return 0.0
        return self._integral / duration


@dataclass
class ResidencyTracker:
    """Tracks how long blocks stay in the cache.

    ``record`` is called with each block's residency when it leaves the
    cache (eviction or invalidation); :meth:`finish` accounts for blocks
    still resident at the end of the trace (their residency is at least
    the remaining span — they count against any threshold they already
    exceed).
    """

    residencies: list[float] = field(default_factory=list)
    _still_resident: list[float] = field(default_factory=list)

    def record(self, residency: float) -> None:
        self.residencies.append(residency)

    def finish(self, still_resident: list[float]) -> None:
        self._still_resident = list(still_resident)

    @property
    def total_blocks(self) -> int:
        return len(self.residencies) + len(self._still_resident)

    def fraction_longer_than(self, threshold: float) -> float:
        """Fraction of all cache residencies exceeding *threshold* seconds."""
        if not self.total_blocks:
            return 0.0
        over = sum(1 for r in self.residencies if r > threshold)
        over += sum(1 for r in self._still_resident if r > threshold)
        return over / self.total_blocks
