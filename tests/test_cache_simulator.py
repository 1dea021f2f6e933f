"""Tests for the block-cache simulator: hand-computed tiny scenarios."""

import pytest

from repro.analysis.accesses import Transfer
from repro.cache.metrics import ResidencyTracker
from repro.cache.policies import (
    DELAYED_WRITE,
    FLUSH_30S,
    PolicySpec,
    WRITE_THROUGH,
    WritePolicy,
)
from repro.cache.simulator import BlockCacheSimulator
from repro.cache.stream import Invalidation, build_stream
from repro.cache.sweep import PAPER_POLICIES

BS = 4096


def read(t, fid, start, end):
    return Transfer(time=t, file_id=fid, user_id=1, start=start, end=end,
                    is_write=False)


def write(t, fid, start, end):
    return Transfer(time=t, file_id=fid, user_id=1, start=start, end=end,
                    is_write=True)


def sim(cache_blocks=8, policy=DELAYED_WRITE, **kw):
    return BlockCacheSimulator(
        cache_bytes=cache_blocks * BS, block_size=BS, policy=policy, **kw
    )


class TestReads:
    def test_cold_read_misses_then_hits(self):
        s = sim()
        m = s.run([read(0, 1, 0, BS), read(1, 1, 0, BS)])
        assert m.read_accesses == 2
        assert m.disk_reads == 1
        assert m.miss_ratio == pytest.approx(0.5)

    def test_range_split_into_block_accesses(self):
        s = sim()
        m = s.run([read(0, 1, 0, 3 * BS + 1)])
        assert m.read_accesses == 4
        assert m.disk_reads == 4

    def test_lru_eviction(self):
        s = sim(cache_blocks=2)
        m = s.run([
            read(0, 1, 0, BS),       # A miss
            read(1, 2, 0, BS),       # B miss
            read(2, 1, 0, BS),       # A hit (B now LRU)
            read(3, 3, 0, BS),       # C miss, evicts B
            read(4, 2, 0, BS),       # B miss again
        ])
        assert m.disk_reads == 4

    def test_fifo_replacement_differs(self):
        stream = [
            read(0, 1, 0, BS),
            read(1, 2, 0, BS),
            read(2, 1, 0, BS),   # hit, but does not refresh under FIFO
            read(3, 3, 0, BS),   # evicts 1 under FIFO (oldest inserted)
            read(4, 1, 0, BS),
        ]
        lru = sim(cache_blocks=2, replacement="lru").run(list(stream))
        fifo = sim(cache_blocks=2, replacement="fifo").run(list(stream))
        assert lru.disk_reads == 3
        assert fifo.disk_reads == 4


class TestWritePolicies:
    def test_write_through_pays_every_write(self):
        s = sim(policy=WRITE_THROUGH)
        m = s.run([write(0, 1, 0, BS), write(1, 1, 0, BS)])
        assert m.disk_writes == 2
        assert m.disk_reads == 0  # whole-block overwrite elision

    def test_delayed_write_defers_until_eviction(self):
        s = sim(cache_blocks=1, policy=DELAYED_WRITE)
        m = s.run([
            write(0, 1, 0, BS),   # dirty block A
            read(1, 2, 0, BS),    # evicts A -> writeback
        ])
        assert m.disk_writes == 1
        assert m.evictions == 1

    def test_delayed_write_never_writes_deleted_data(self):
        s = sim(policy=DELAYED_WRITE)
        m = s.run([
            write(0, 1, 0, 2 * BS),
            Invalidation(time=1.0, file_id=1, from_byte=0),
        ])
        assert m.disk_writes == 0
        assert m.dirty_blocks_discarded == 2
        assert m.invalidated_blocks == 2

    def test_flush_back_writes_at_interval(self):
        s = sim(policy=FLUSH_30S)
        m = s.run([
            write(0.0, 1, 0, BS),
            read(31.0, 2, 0, BS),   # crosses the 30 s boundary -> flush
            read(32.0, 3, 0, BS),
        ])
        assert m.disk_writes == 1

    def test_flush_back_data_dead_before_flush_never_written(self):
        s = sim(policy=FLUSH_30S)
        m = s.run([
            write(0.0, 1, 0, BS),
            Invalidation(time=5.0, file_id=1, from_byte=0),
            read(31.0, 2, 0, BS),
        ])
        assert m.disk_writes == 0

    def test_rewrite_in_cache_costs_nothing_under_delayed(self):
        s = sim(policy=DELAYED_WRITE)
        m = s.run([write(0, 1, 0, BS), write(1, 1, 0, BS), write(2, 1, 0, BS)])
        assert m.disk_ios == 0
        assert m.dirty_blocks_created == 1

    @pytest.mark.parametrize("policy", PAPER_POLICIES, ids=lambda p: p.label)
    @pytest.mark.parametrize("anchored", [False, True], ids=["first-item", "start"])
    def test_item_by_item_equals_whole_stream(self, small_trace, policy, anchored):
        # The flush clock carries across run() calls, so a caller that
        # feeds one item per call (two-level clients, netfs) still
        # flushes on schedule.
        stream = build_stream(small_trace)
        epoch = small_trace.start_time if anchored else None
        whole = sim(cache_blocks=100, policy=policy).run(stream, epoch)
        s = sim(cache_blocks=100, policy=policy)
        for item in stream:
            s.run([item], flush_epoch=epoch)
        assert s.metrics == whole


class TestReadElision:
    def test_partial_overwrite_of_existing_data_reads_first(self):
        s = sim()
        m = s.run([
            read(0, 1, 0, 2 * BS),                  # file known 2 blocks
            Invalidation(time=1, file_id=2, from_byte=0),  # unrelated
            write(2, 1, 100, 200),                  # partial write, block 0 cached
        ])
        # block 0 still cached -> hit, no extra read.
        assert m.disk_reads == 2

    def test_partial_write_miss_on_known_data_costs_read(self):
        s = sim(cache_blocks=1)
        m = s.run([
            read(0, 1, 0, BS),       # learn the file has a block 0
            read(1, 2, 0, BS),       # evict it
            write(2, 1, 100, 200),   # partial write miss -> read-modify-write
        ])
        assert m.disk_reads == 3

    def test_write_beyond_known_eof_needs_no_read(self):
        s = sim()
        m = s.run([write(0, 1, 0, 100)])  # brand new file, partial block
        assert m.disk_reads == 0
        assert m.read_elisions == 1

    def test_whole_block_overwrite_elides_read(self):
        s = sim()
        m = s.run([
            read(0, 1, 0, BS),
            Invalidation(time=1, file_id=1, from_byte=0),
            write(2, 1, 0, BS),
        ])
        assert m.disk_reads == 1  # only the initial read

    def test_elision_can_be_disabled(self):
        s = sim(read_elision=False)
        m = s.run([write(0, 1, 0, BS)])
        assert m.disk_reads == 1
        assert m.read_elisions == 0


class TestInvalidation:
    def test_truncate_invalidates_only_tail_blocks(self):
        s = sim()
        m = s.run([
            write(0, 1, 0, 3 * BS),
            Invalidation(time=1, file_id=1, from_byte=BS),  # keep block 0
            read(2, 1, 0, BS),
        ])
        assert m.invalidated_blocks == 2
        # block 0 still cached: the read hits.
        assert m.disk_reads == 0

    def test_invalidation_can_be_disabled_for_ablation(self):
        s = sim(cache_blocks=1, invalidate_on_delete=False)
        m = s.run([
            write(0, 1, 0, BS),
            Invalidation(time=1, file_id=1, from_byte=0),
            read(2, 2, 0, BS),  # evicts the (still dirty) dead block
        ])
        assert m.disk_writes == 1  # pays the pointless writeback
        assert m.dirty_blocks_discarded == 0


class TestResidency:
    def test_residency_recorded_on_eviction(self):
        s = sim(cache_blocks=1, track_residency=True)
        s.run([read(0, 1, 0, BS), read(100, 2, 0, BS)])
        tracker = s.residency
        assert tracker.total_blocks == 2
        assert tracker.fraction_longer_than(50) == pytest.approx(0.5)

    def test_still_resident_blocks_counted(self):
        tracker = ResidencyTracker()
        tracker.record(10.0)
        tracker.finish([2000.0])
        assert tracker.fraction_longer_than(1200) == pytest.approx(0.5)


class TestValidation:
    def test_bad_block_size_rejected(self):
        with pytest.raises(ValueError):
            BlockCacheSimulator(cache_bytes=4096, block_size=0)

    def test_cache_smaller_than_block_rejected(self):
        with pytest.raises(ValueError):
            BlockCacheSimulator(cache_bytes=100, block_size=4096)

    def test_unknown_replacement_rejected(self):
        with pytest.raises(ValueError):
            BlockCacheSimulator(cache_bytes=8192, replacement="rand")

    def test_flush_back_requires_interval(self):
        with pytest.raises(ValueError):
            PolicySpec(WritePolicy.FLUSH_BACK)
        with pytest.raises(ValueError):
            PolicySpec(WritePolicy.DELAYED_WRITE, flush_interval=30.0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf"), -float("inf")])
    def test_flush_back_rejects_non_finite_interval(self, interval):
        # A NaN interval used to pass (both comparisons are false) and
        # replay exactly as delayed-write under a "nan sec flush" label.
        with pytest.raises(ValueError, match="finite"):
            PolicySpec(WritePolicy.FLUSH_BACK, interval)

    def test_policy_labels(self):
        assert WRITE_THROUGH.label == "write-through"
        assert FLUSH_30S.label == "30 sec flush"
        assert PolicySpec(WritePolicy.FLUSH_BACK, 300.0).label == "5 min flush"
