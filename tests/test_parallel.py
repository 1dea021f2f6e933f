"""Differential tests for :mod:`repro.parallel`.

The packed fast path and the one-pass LRU curve are only
worth having if they are *bit-identical* to the reference
:class:`~repro.cache.simulator.BlockCacheSimulator` — the sweeps run
them at every ``jobs`` value, so any divergence would corrupt exhibits.
These tests pin that equivalence across policies, sizes, replacement
and flush anchoring, plus the executor's ordering/fallback
contracts, that every caller of the executor really runs on a spawned
pool, and the CLI's ``--jobs`` plumbing.
"""

from __future__ import annotations

import copy
import dataclasses
import multiprocessing
import pickle
import random
import time
from types import SimpleNamespace

import pytest

from repro.analysis import vectorized
from repro.analysis.vectorized import pack_stream_numpy
from repro.cache.policies import (
    DELAYED_WRITE,
    FLUSH_5MIN,
    FLUSH_30S,
    WRITE_THROUGH,
)
from repro.cache.replacement import REPLACEMENT_NAMES
from repro.cache.simulator import BlockCacheSimulator
from repro.cache.stream import Invalidation, Transfer, build_stream, cached_stream
from repro.cache.sweep import (
    PAPER_CACHE_SIZES,
    block_size_sweep,
    cache_size_policy_sweep,
    paging_comparison,
)
from repro.cli.main import main
from repro.corpus import pack_trace, read_corpus_columns
from repro.experiments import run_one
from repro.parallel import executor as executor_module, veccache
from repro.parallel.executor import (
    auto_jobs,
    jobs_context,
    resolve_jobs,
    run_jobs,
)
from repro.parallel.packed import (
    KEY_SHIFT,
    OP_INVALIDATE,
    cached_packed_stream,
    pack_stream,
    pack_stream_python,
    simulate_packed,
)
from repro.parallel.veccache import stack_curve, stack_curve_numpy
from repro.trace.records import UnlinkEvent
from repro.workload import UCBARPA, UCBCAD
from repro.workload.generator import generate, generate_many

from .conftest import count_block_accesses

ALL_POLICIES = (WRITE_THROUGH, FLUSH_30S, FLUSH_5MIN, DELAYED_WRITE)
SIZES = (64 * 1024, 390 * 1024, 4 * 1024 * 1024)


@pytest.fixture(scope="module")
def stream(small_trace):
    return build_stream(small_trace)


@pytest.fixture(scope="module")
def packed(small_trace, stream):
    return pack_stream(stream, 4096, start_time=small_trace.start_time)


def _invalidation_heavy_stream():
    """A hand-built stream that churns files: overlapping writes, reads,
    truncations to varying points and full unlinks, so invalidations hit
    dirty blocks, clean blocks and absent blocks alike."""
    items = []
    t = 0.0
    for i in range(120):
        fid = i % 7
        end = 4096 * (1 + (i * 3) % 6)
        items.append(
            Transfer(time=t, file_id=fid, user_id=1 + i % 3,
                     start=(i % 2) * 4096, end=end, is_write=i % 3 != 2)
        )
        t += 1.0
        if i % 4 == 0:
            items.append(
                Invalidation(time=t, file_id=fid, from_byte=(i % 3) * 4096)
            )
            t += 0.5
    return items


# ---------------------------------------------------------------------------
# Packed stream construction and memoization
# ---------------------------------------------------------------------------


class TestPackedStream:
    def test_access_count_matches_reference(self, stream, packed):
        assert packed.n_accesses == count_block_accesses(stream, 4096)
        assert len(packed) >= packed.n_accesses  # invalidation rows extra

    def test_packs_a_one_shot_iterator(self, small_trace, stream, packed):
        assert pack_stream(
            iter(stream), 4096, start_time=small_trace.start_time
        ) == packed

    def test_numpy_pack_folds_signed_offsets_like_the_reference(self):
        # A hand-built stream may hold negative offsets and truncations;
        # the known-size scan must still fold each file from size 0.
        rng = random.Random(5)
        items = []
        for i in range(300):
            fid = rng.randrange(4)
            if rng.random() < 0.3:
                items.append(
                    Invalidation(float(i), fid, rng.randrange(-3 * 4096, 3 * 4096))
                )
            else:
                start = rng.randrange(-4 * 4096, 4 * 4096)
                end = start + rng.randrange(1, 3 * 4096)
                items.append(
                    Transfer(float(i), fid, 1, start, end, rng.random() < 0.6)
                )
        for bs in (512, 4096):
            assert pack_stream_numpy(items, bs) == pack_stream_python(items, bs)

    @pytest.mark.parametrize("cut", ["event", "between", "before", "after"])
    def test_slice_stream_is_a_prefix(self, small_trace, cut):
        # A warm-up is the full run minus a replay of
        # log.slice(log.start_time, T), which holds because the slice's
        # stream is exactly the full stream's rows before T.
        events = small_trace.events
        mid = len(events) // 2
        while events[mid + 1].time == events[mid].time:
            mid += 1
        t = {
            "event": events[mid].time,
            "between": (events[mid].time + events[mid + 1].time) / 2,
            "before": events[0].time - 1.0,
            "after": events[-1].time + 1.0,
        }[cut]
        full = cached_packed_stream(small_trace, 4096)
        sliced = small_trace.slice(small_trace.start_time, t)
        part = cached_packed_stream(sliced, 4096)
        rows = len(part)
        assert rows == sum(1 for time in full.times if time < t)
        assert part.ops == full.ops[:rows]
        assert part.keys == full.keys[:rows]
        assert part.times == full.times[:rows]
        assert part.n_accesses == rows - part.ops.count(OP_INVALIDATE)
        if sliced.events:
            assert part.start_time == full.start_time
        if cut == "after":
            assert rows == len(full)
        elif cut != "before":
            assert 0 < rows < len(full)

    def test_memoized_per_log_and_block_size(self, small_trace):
        a = cached_packed_stream(small_trace, 4096)
        assert cached_packed_stream(small_trace, 4096) is a
        assert cached_packed_stream(small_trace, 1024) is not a
        assert cached_packed_stream(small_trace, 4096, include_paging=True) is not a

    def test_cached_stream_identity(self, small_trace):
        assert cached_stream(small_trace) is cached_stream(small_trace)

    def test_packs_reuse_the_memoized_stream(self, small_trace, monkeypatch):
        # The kernel runs once per (log, paging flag), not once per pack.
        log = copy.deepcopy(small_trace)
        calls = []
        kernel = vectorized.build_stream_numpy

        def counting(cols, include_paging=False):
            calls.append(include_paging)
            return kernel(cols, include_paging)

        monkeypatch.setattr(vectorized, "build_stream_numpy", counting)
        stream = cached_stream(log)
        for bs in (1024, 4096, 16384):
            packed = cached_packed_stream(log, bs)
            assert packed == pack_stream_python(
                stream, bs, start_time=log.start_time
            )
        assert calls == [False]
        cached_stream(log, include_paging=True)
        cached_packed_stream(log, 4096, include_paging=True)
        assert calls == [False, True]

    @pytest.fixture(params=["events", "loaded"])
    def own_log(self, request, small_trace, tmp_path):
        """A log of the small trace's events to mutate: a copy, or one
        loaded from a corpus whose events were read before the test."""
        if request.param == "events":
            return copy.deepcopy(small_trace)
        path = tmp_path / "small.bcorpus"
        pack_trace(small_trace, path)
        log = read_corpus_columns(path).to_log()
        assert log.events == small_trace.events
        return log

    def test_append_invalidates_memo(self, own_log):
        log = own_log
        before = cached_packed_stream(log, 4096)
        assert cached_packed_stream(log, 4096) is before
        log.append(UnlinkEvent(time=log.events[-1].time + 1.0, file_id=1))
        after = cached_packed_stream(log, 4096)
        assert after is not before
        assert len(after) >= len(before)

    def test_in_place_replacement_invalidates_memo(self, own_log):
        # Same length, same list object — only one element swapped for a
        # different event.  The stamp's id-sum term must catch this.
        log = own_log
        before = cached_stream(log)
        original = log.events[-1]  # keep alive so ids cannot collide
        log.events[-1] = dataclasses.replace(original)
        assert log.events[-1] is not original
        after = cached_stream(log)
        assert after is not before


# ---------------------------------------------------------------------------
# simulate_packed vs the reference simulator
# ---------------------------------------------------------------------------


class TestPackedEquivalence:
    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label)
    @pytest.mark.parametrize("size", SIZES)
    def test_metrics_identical(self, small_trace, stream, packed, policy, size):
        sim = BlockCacheSimulator(cache_bytes=size, policy=policy)
        ref = sim.run(stream, flush_epoch=small_trace.start_time)
        got = simulate_packed(
            packed, size, policy, flush_epoch=packed.start_time
        )
        assert got.metrics == ref

    def test_fifo_identical(self, stream, packed):
        sim = BlockCacheSimulator(cache_bytes=128 * 1024,
                                  policy=DELAYED_WRITE, replacement="fifo")
        ref = sim.run(stream)
        got = simulate_packed(packed, 128 * 1024, DELAYED_WRITE,
                              replacement="fifo")
        assert got.metrics == ref

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.label)
    def test_invalidation_heavy(self, policy):
        items = _invalidation_heavy_stream()
        packed = pack_stream(items, 4096)
        for size in (16 * 1024, 64 * 1024):
            sim = BlockCacheSimulator(cache_bytes=size, policy=policy)
            ref = sim.run(items)
            got = simulate_packed(packed, size, policy)
            assert got.metrics == ref
            assert got.metrics.invalidated_blocks > 0

    def test_flush_epoch_anchoring(self):
        # One dirty block at t=17, another at t=40, flush every 30 s.
        items = [
            Transfer(time=17.0, file_id=1, user_id=1, start=0, end=4096,
                     is_write=True),
            Transfer(time=40.0, file_id=2, user_id=1, start=0, end=4096,
                     is_write=True),
        ]
        packed = pack_stream(items, 4096, start_time=0.0)
        # Anchored to the trace start: a flush fires at t=30 and writes
        # the first block back.
        anchored = simulate_packed(packed, 1 << 20, FLUSH_30S, flush_epoch=0.0)
        assert anchored.metrics.disk_writes == 1
        # Legacy anchoring (first item time): first flush due at t=47,
        # after the trace ends, so nothing is written back.
        legacy = simulate_packed(packed, 1 << 20, FLUSH_30S)
        assert legacy.metrics.disk_writes == 0
        # Each matches the reference simulator under the same anchoring.
        for epoch, expected in ((0.0, anchored), (None, legacy)):
            sim = BlockCacheSimulator(cache_bytes=1 << 20, policy=FLUSH_30S)
            assert sim.run(items, flush_epoch=epoch) == expected.metrics


# ---------------------------------------------------------------------------
# The drop index
# ---------------------------------------------------------------------------


def _drops_by_scan(packed):
    """The drop index by a per-file scan in row order: per invalidation
    row, the sorted keys of its file at or past its cut that were
    accessed since an invalidation last covered them."""
    live = {}
    drops = []
    for op, key in zip(packed.ops, packed.keys):
        keys = live.setdefault(key >> KEY_SHIFT, set())
        if op != OP_INVALIDATE:
            keys.add(key)
            continue
        doomed = sorted(k for k in keys if k >= key)
        keys.difference_update(doomed)
        drops.append(doomed)
    return drops


def _index_rows(packed):
    """``packed.drop_index()`` as one list of keys per invalidation row."""
    keys, bounds = packed.drop_index()
    return [list(keys[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _read(time, fid, first, last=None):
    """A read of blocks *first*..*last* (4 KB) of file *fid*."""
    last = first if last is None else last
    return Transfer(time=time, file_id=fid, user_id=1, start=first * 4096,
                    end=(last + 1) * 4096, is_write=False)


def _write(time, fid, first, last=None):
    return dataclasses.replace(_read(time, fid, first, last), is_write=True)


def _cut(time, fid, from_byte=0):
    return Invalidation(time=time, file_id=fid, from_byte=from_byte)


def _key(fid, block):
    return (fid << KEY_SHIFT) + block


class TestDropIndex:
    """``simulate_packed``'s policy-free drop index.  Each stream's index
    is pinned, matches a per-file scan, and replays to the simulator's
    metrics under every zoo policy at capacities small enough to evict
    between the accesses and the cuts."""

    def _check(self, items, expected):
        packed = pack_stream(items, 4096)
        assert _index_rows(packed) == expected
        assert _drops_by_scan(packed) == expected
        for name in REPLACEMENT_NAMES:
            for cap in (1, 2, 8):
                for policy in (WRITE_THROUGH, FLUSH_30S, DELAYED_WRITE):
                    sim = BlockCacheSimulator(
                        cap * 4096, 4096, policy, replacement=name
                    )
                    got = simulate_packed(
                        packed, cap * 4096, policy, replacement=name
                    )
                    assert got.metrics == sim.run(items), (name, cap, policy)
        return packed

    def test_cut_with_no_earlier_access_to_its_file(self):
        self._check(
            [_write(0.0, 1, 0, 1), _cut(1.0, 2), _read(2.0, 2, 0)], [[]]
        )

    def test_cut_at_block_zero_and_mid_file(self):
        self._check(
            [
                _write(0.0, 1, 0, 2),
                _read(1.0, 2, 0),
                _cut(2.0, 1, 5000),  # first dead block: 2
                _cut(3.0, 1, 0),
            ],
            [[_key(1, 2)], [_key(1, 0), _key(1, 1)]],
        )

    def test_cut_clamped_to_the_block_limit(self):
        # A cut past every block drops nothing, and its clamped key must
        # not read as the next file's block 0.
        packed = self._check(
            [_read(0.0, 2, 0, 1), _read(1.0, 1, 0), _cut(2.0, 1, 1 << 50)],
            [[]],
        )
        assert packed.keys[-1] >> KEY_SHIFT == 1
        assert simulate_packed(packed, 1 << 20).metrics.invalidated_blocks == 0

    def test_two_cuts_of_one_file_in_a_row(self):
        self._check(
            [_write(0.0, 1, 0, 3), _cut(1.0, 1, 8192), _cut(2.0, 1, 0)],
            [[_key(1, 2), _key(1, 3)], [_key(1, 0), _key(1, 1)]],
        )

    def test_reaccess_after_a_drop(self):
        self._check(
            [
                _write(0.0, 1, 0, 1),
                _cut(1.0, 1),
                _read(2.0, 1, 1),
                _read(3.0, 3, 0, 2),
                _cut(4.0, 1),
            ],
            [[_key(1, 0), _key(1, 1)], [_key(1, 1)]],
        )

    def test_empty_stream(self):
        self._check([], [])

    def test_invalidations_only(self):
        self._check([_cut(0.0, 1), _cut(1.0, 2, 4096), _cut(2.0, 1)], [[], [], []])

    def test_invalidation_heavy_stream_matches_the_scan(self):
        packed = pack_stream(_invalidation_heavy_stream(), 4096)
        assert _index_rows(packed) == _drops_by_scan(packed)

    def test_index_is_not_part_of_the_stream(self):
        items = _invalidation_heavy_stream()
        built, fresh = pack_stream(items, 4096), pack_stream(items, 4096)
        shown = repr(built)
        index = built.drop_index()
        assert built.drop_index() is index  # built once, then kept
        assert built == fresh and repr(built) == shown

    @pytest.mark.parametrize("build_first", [False, True])
    def test_pickle_round_trip(self, build_first):
        # Sweep workers receive their streams pickled, through the pool
        # initializer, with or without an index the parent built.
        packed = pack_stream(_invalidation_heavy_stream(), 4096)
        if build_first:
            packed.drop_index()
        clone = pickle.loads(pickle.dumps(packed))
        assert clone == packed
        for name in REPLACEMENT_NAMES:
            for size in (8 * 1024, 32 * 1024):
                assert (
                    simulate_packed(clone, size, DELAYED_WRITE, replacement=name)
                    == simulate_packed(packed, size, DELAYED_WRITE, replacement=name)
                ), (name, size)
        assert clone.drop_index() == packed.drop_index()

    def test_overlong_stream_is_refused(self, monkeypatch):
        packed = pack_stream(_invalidation_heavy_stream(), 4096)
        monkeypatch.setattr(veccache, "_ROW_LIMIT", len(packed))
        with pytest.raises(ValueError, match="row encoding"):
            simulate_packed(packed, 8 * 1024)


# ---------------------------------------------------------------------------
# The one-pass LRU curve
# ---------------------------------------------------------------------------


def _assert_curve_is_simulator(items, packed, sizes):
    """Every (size, policy) cell of one four-policy kernel curve equals
    its own BlockCacheSimulator run, flush-anchored at the stream's
    start time; returns the curve.  The kernel is called directly, so a
    decline fails the test."""
    curve = stack_curve_numpy(packed, sizes, ALL_POLICIES)
    for policy in ALL_POLICIES:
        for size in sizes:
            sim = BlockCacheSimulator(cache_bytes=size, policy=policy)
            ref = sim.run(items, flush_epoch=packed.start_time)
            assert curve.metrics(size, policy) == ref, (policy.label, size)
    return curve


class TestStackCurve:
    def test_matches_reference_across_paper_sizes(self, stream, packed):
        curve = stack_curve(packed, PAPER_CACHE_SIZES)
        for size in PAPER_CACHE_SIZES:
            sim = BlockCacheSimulator(cache_bytes=size, policy=WRITE_THROUGH)
            assert curve.metrics(size) == sim.run(stream)

    def test_invalidation_heavy(self):
        items = _invalidation_heavy_stream()
        packed = pack_stream(items, 4096)
        sizes = (8 * 1024, 16 * 1024, 64 * 1024, 1 << 20)
        curve = stack_curve(packed, sizes)
        for size in sizes:
            sim = BlockCacheSimulator(cache_bytes=size, policy=WRITE_THROUGH)
            assert curve.metrics(size) == sim.run(items)

    def test_write_back_policies_at_paper_sizes(self, small_trace, stream, packed):
        # Every Table VI cell, all four write policies, from one curve.
        curve = stack_curve(packed, PAPER_CACHE_SIZES, ALL_POLICIES)
        for policy in ALL_POLICIES:
            for size in PAPER_CACHE_SIZES:
                assert curve.metrics(size, policy) == _simulated(
                    small_trace, size, policy
                ), (policy.label, size)

    @pytest.mark.parametrize("anchored", [True, False], ids=["start", "first-row"])
    def test_write_back_flush_anchors(self, small_trace, stream, packed, anchored):
        # The curve anchors flush scans at the stream's start time: the
        # trace start, or the first row's time for a stream packed so.
        if not anchored:
            packed = pack_stream(stream, 4096, start_time=stream[0].time)
        _assert_curve_is_simulator(stream, packed, PAPER_CACHE_SIZES)

    def test_unanchored_pack_flushes_from_its_first_row(self):
        # Absolute (strace-style) times, packed without a start time: an
        # anchor at 0.0 would put ~57 million empty 30 s flush boundaries
        # before the first row, and the simulator would disagree.
        items = [
            Transfer(time=1.7e9 + 7.0 * i, file_id=i % 3, user_id=1,
                     start=(i % 4) * 4096, end=(i % 4 + 2) * 4096,
                     is_write=i % 3 == 0)
            for i in range(20)
        ]
        packed = pack_stream(items, 4096)
        assert len(packed) == 40
        assert packed.start_time == items[0].time
        for policy in (FLUSH_30S, FLUSH_5MIN):
            began = time.perf_counter()
            curve = stack_curve(packed, SIZES, (policy,))
            assert time.perf_counter() - began < 1.0
            for size in SIZES:
                sim = BlockCacheSimulator(cache_bytes=size, policy=policy)
                assert curve.metrics(size, policy) == sim.run(items)

    @pytest.mark.parametrize("knobs", [{}])
    def test_write_back_invalidation_heavy(self, knobs):
        items = _invalidation_heavy_stream()
        packed = pack_stream(items, 4096, **knobs)
        curve = _assert_curve_is_simulator(
            items, packed, (8 * 1024, 16 * 1024, 64 * 1024, 1 << 20)
        )
        assert curve.metrics(1 << 20, DELAYED_WRITE).dirty_blocks_discarded > 0

    def test_trace_ending_with_dirty_blocks(self):
        # Five blocks written in the last seconds: at 1 MB they are all
        # still dirty when the trace ends, so no disk write pays for them.
        items = [
            Transfer(time=float(i), file_id=i % 3, user_id=1, start=0,
                     end=8192, is_write=i % 2 == 0)
            for i in range(12)
        ] + [
            Transfer(time=100.0 + i, file_id=10 + i, user_id=1, start=0,
                     end=4096, is_write=True)
            for i in range(5)
        ]
        packed = pack_stream(items, 4096, start_time=0.0)
        curve = _assert_curve_is_simulator(items, packed, (4096, 3 * 4096, 1 << 20))
        big = curve.metrics(1 << 20, DELAYED_WRITE)
        assert big.dirty_blocks_created > big.disk_writes == 0

    def test_gap_of_several_flush_intervals(self):
        # A 200 s silence holds six 30 s boundaries; the first write after
        # it must see the block flushed clean, however large the cache.
        items = [
            Transfer(time=t, file_id=1, user_id=1, start=0, end=8192,
                     is_write=True)
            for t in (1.0, 2.0, 3.0, 203.0, 204.0, 215.5)
        ]
        packed = pack_stream(items, 4096, start_time=0.0)
        curve = _assert_curve_is_simulator(items, packed, (4096, 1 << 20))
        flushed = curve.metrics(1 << 20, FLUSH_30S)
        assert flushed.dirty_blocks_created == 6
        assert flushed.disk_writes == 4

    @pytest.mark.parametrize("is_write", [False, True], ids=["read-only", "write-only"])
    def test_one_sided_streams(self, is_write):
        items = [
            Transfer(time=float(i), file_id=i % 4, user_id=1,
                     start=(i % 3) * 4096, end=(i % 3 + 2) * 4096,
                     is_write=is_write)
            for i in range(60)
        ]
        packed = pack_stream(items, 4096, start_time=0.0)
        _assert_curve_is_simulator(
            items, packed, (4096, 2 * 4096, 5 * 4096, 64 * 4096)
        )

    def test_single_size(self, stream, packed):
        _assert_curve_is_simulator(stream, packed, (390 * 1024,))

    def test_unknown_size_rejected(self, packed):
        curve = stack_curve(packed, (64 * 1024,))
        with pytest.raises(KeyError):
            curve.metrics(999)


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


def _scale(payload, job):
    return payload * job


def _boom(payload, job):
    raise RuntimeError("worker bug")


@pytest.fixture(scope="module")
def pool_trace():
    return generate(UCBARPA, seed=5, duration=600.0).trace


#: Every caller of run_jobs, as (trace, jobs) -> its whole answer.
POOL_CALLERS = {
    "block_size_sweep": lambda log, jobs: block_size_sweep(
        log, block_sizes=(1024, 4096), cache_sizes=SIZES, jobs=jobs
    ),
    "generate_many": lambda log, jobs: generate_many(
        [(UCBARPA, 1), (UCBCAD, 2)], duration=60.0, jobs=jobs
    ),
    "netfs": lambda log, jobs: run_one("netfs", log, jobs=jobs),
}


class TestExecutor:
    def test_serial_and_parallel_agree_in_order(self):
        jobs_list = list(range(20))
        serial = run_jobs(_scale, jobs_list, payload=3, jobs=1)
        parallel = run_jobs(_scale, jobs_list, payload=3, jobs=2)
        assert serial == parallel == [3 * j for j in jobs_list]

    def test_single_job_stays_serial(self):
        assert run_jobs(_scale, [5], payload=2, jobs=8) == [10]

    def test_resolve_jobs_validation(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        assert resolve_jobs(None) == 1  # serial without an ambient context

    def test_jobs_context_is_ambient_and_restored(self):
        with jobs_context(3):
            assert resolve_jobs(None) == 3
            with jobs_context(1):
                assert resolve_jobs(None) == 1
            assert resolve_jobs(None) == 3
        assert resolve_jobs(None) == 1

    def test_auto_jobs_bounds(self):
        assert 1 <= auto_jobs() <= executor_module.MAX_JOBS

    def test_dead_pool_falls_back_to_serial(self, monkeypatch):
        class DeadPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", DeadPool)
        jobs_list = list(range(6))
        assert run_jobs(_scale, jobs_list, payload=2, jobs=4) == [
            2 * j for j in jobs_list
        ]

    def test_unpicklable_worker_starts_no_pool(self, monkeypatch):
        # A worker that cannot cross a pickle runs serially without a
        # pool: every chunk of such a pool fails to pickle, and its
        # workers can hang interpreter exit.
        built = []

        class SpyPool:
            def __init__(self, *args, **kwargs):
                built.append(kwargs)
                raise AssertionError("pool built for an unpicklable worker")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", SpyPool)
        results = run_jobs(lambda payload, job: 2 * job, range(6), jobs=2)
        assert results == [2 * j for j in range(6)]
        assert built == []

    def test_worker_bug_reraises_serially(self):
        with pytest.raises(RuntimeError, match="worker bug"):
            run_jobs(_boom, [1, 2], payload=None, jobs=2)

    def test_payload_global_cleared(self):
        run_jobs(_scale, list(range(4)), payload=7, jobs=2)
        assert executor_module._payload is None

    @pytest.mark.parametrize("caller", sorted(POOL_CALLERS))
    def test_spawn_pool_reruns_nothing(self, caller, pool_trace, monkeypatch):
        # Under spawn the worker, the payload and every result cross a
        # pickle.  A lambda or closure worker falls back to the
        # (identical) serial rerun, so count the reruns.  A worker that
        # passes its result back through module state leaves the
        # parent's copy empty or stale, so run the pool first, on a
        # trace no other test replays, and compare with serial after.
        run = POOL_CALLERS[caller]
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(
            executor_module, "multiprocessing",
            SimpleNamespace(get_context=lambda: spawn),
        )
        reruns = []
        run_serial = executor_module._run_serial

        def spy(*call):
            reruns.append(call)
            return run_serial(*call)

        monkeypatch.setattr(executor_module, "_run_serial", spy)
        pooled = run(pool_trace, 2)
        assert reruns == []
        assert pooled == run(pool_trace, 1)


# ---------------------------------------------------------------------------
# Sweeps: every cell == a reference simulator run, at every jobs value
# ---------------------------------------------------------------------------


def _simulated(log, cache_bytes, policy, block_size=4096, replacement="lru",
               include_paging=False):
    """One reference-simulator cell, anchored like the sweeps."""
    sim = BlockCacheSimulator(cache_bytes=cache_bytes, block_size=block_size,
                              policy=policy, replacement=replacement)
    stream = cached_stream(log, include_paging=include_paging)
    return sim.run(stream, flush_epoch=log.start_time)


class TestSweepParity:
    def test_policy_sweep(self, small_trace):
        for jobs in (1, 2):
            sweep = cache_size_policy_sweep(small_trace, jobs=jobs)
            for size in PAPER_CACHE_SIZES:
                for policy in ALL_POLICIES:
                    assert sweep.results[(size, policy.label)] == _simulated(
                        small_trace, size, policy
                    ), (jobs, size, policy.label)

    def test_policy_sweep_non_lru(self, small_trace):
        for jobs in (1, 2):
            sweep = cache_size_policy_sweep(
                small_trace, cache_sizes=SIZES, jobs=jobs, replacement="2q"
            )
            for size in SIZES:
                for policy in ALL_POLICIES:
                    assert sweep.results[(size, policy.label)] == _simulated(
                        small_trace, size, policy, replacement="2q"
                    ), (jobs, size, policy.label)

    @pytest.mark.parametrize("replacement", ["lru", "fifo"])
    def test_block_size_sweep(self, small_trace, replacement):
        stream = cached_stream(small_trace)
        for jobs in (1, 2):
            sweep = block_size_sweep(
                small_trace, jobs=jobs, replacement=replacement
            )
            for bs in sweep.block_sizes:
                assert sweep.no_cache[bs] == count_block_accesses(stream, bs)
                for cache in sweep.cache_sizes:
                    assert sweep.results[(bs, cache)] == _simulated(
                        small_trace, cache, DELAYED_WRITE, block_size=bs,
                        replacement=replacement,
                    ), (jobs, bs, cache)

    def test_block_size_sweep_write_through(self, small_trace):
        # Write-through LRU cells come from one curve per block size.
        for jobs in (1, 2):
            sweep = block_size_sweep(
                small_trace, block_sizes=(1024, 8192), policy=WRITE_THROUGH,
                jobs=jobs,
            )
            for bs in sweep.block_sizes:
                for cache in sweep.cache_sizes:
                    assert sweep.results[(bs, cache)] == _simulated(
                        small_trace, cache, WRITE_THROUGH, block_size=bs
                    ), (jobs, bs, cache)

    @pytest.mark.parametrize("replacement", ["lru", "fifo"])
    def test_paging_comparison(self, small_trace, replacement):
        for jobs in (1, 2):
            comparison = paging_comparison(
                small_trace, jobs=jobs, replacement=replacement
            )
            for size in PAPER_CACHE_SIZES:
                assert comparison.ignored[size] == _simulated(
                    small_trace, size, DELAYED_WRITE, replacement=replacement
                ), (jobs, size)
                assert comparison.simulated[size] == _simulated(
                    small_trace, size, DELAYED_WRITE, replacement=replacement,
                    include_paging=True,
                ), (jobs, size)


# ---------------------------------------------------------------------------
# CLI --jobs plumbing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("parallel_cli") / "a5.trace"
    rc = main(["generate", "--profile", "A5", "--hours", "0.2",
               "--seed", "3", "-o", str(path)])
    assert rc == 0
    return str(path)


class TestCLIJobs:
    def test_sweep_serial_jobs_flag(self, trace_file, capsys):
        assert main(["sweep", trace_file, "--kind", "policy",
                     "--jobs", "1"]) == 0
        assert "write-through" in capsys.readouterr().out

    def test_sweep_parallel_jobs_flag(self, trace_file, capsys):
        assert main(["sweep", trace_file, "--kind", "policy",
                     "--jobs", "2"]) == 0
        assert "write-through" in capsys.readouterr().out

    def test_experiment_jobs_flag(self, trace_file, capsys):
        assert main(["experiment", trace_file, "--id", "table6",
                     "--jobs", "1"]) == 0

    def test_rejects_nonpositive_jobs(self, trace_file, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", trace_file, "--kind", "policy", "--jobs", "0"])
