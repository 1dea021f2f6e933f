"""Differential tests for the vectorized cache engine and its plumbing.

:mod:`repro.parallel.veccache` claims bit-identity with its
specification, one LRU :func:`~repro.parallel.packed.simulate_packed`
replay per cache size and write policy
(:func:`~repro.parallel.veccache.stack_curve_python`); the sweeps and
the CLI run the fast path silently, so any divergence would corrupt
Figure 5/6/7 exhibits.  These tests pin
that equivalence where the kernel is most at risk — hole-heavy streams,
empty and single-block edges — plus the sweep fan-out, the
packed-stream memo, and the CLI plumbing.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.policies import (
    DELAYED_WRITE,
    FLUSH_5MIN,
    FLUSH_30S,
    WRITE_THROUGH,
)
from repro.cache.simulator import BlockCacheSimulator
from repro.cache.stream import Invalidation, Transfer, build_stream
from repro.cache.sweep import (
    block_size_sweep,
    cache_size_policy_sweep,
    paging_comparison,
)
from repro.cli.main import main
from repro.fuzz.gen import random_trace
from repro.parallel.packed import (
    cached_packed_stream,
    pack_stream,
    pack_stream_python,
    simulate_packed,
)
from repro.parallel.veccache import (
    replay_packed,
    stack_curve,
    stack_curve_numpy,
    stack_curve_python,
)

SIZES = (4096, 8 * 4096, 64 * 4096)
POLICIES = (WRITE_THROUGH, FLUSH_30S, FLUSH_5MIN, DELAYED_WRITE)


def _hole_heavy_stream():
    """Unlink/truncation-dominated: more invalidation rows than access
    rows, files deleted mid-flight and immediately recreated, truncation
    points walking through partially-cached files.  This maximizes hole
    traffic on the hole stack — exactly where the vectorized
    removal-sequence reconstruction can go wrong."""
    items = []
    t = 0.0
    for i in range(160):
        fid = i % 5
        end = 4096 * (1 + (i * 7) % 9)
        items.append(
            Transfer(time=t, file_id=fid, user_id=1 + i % 2,
                     start=(i % 3) * 4096, end=end, is_write=i % 4 != 1)
        )
        t += 1.0
        # Two invalidations per access on average: a truncation to a
        # moving point, then every third round a full unlink.
        items.append(
            Invalidation(time=t, file_id=fid, from_byte=((i * 5) % 7) * 4096)
        )
        t += 0.25
        if i % 3 == 0:
            items.append(Invalidation(time=t, file_id=fid, from_byte=0))
            t += 0.25
        if i % 11 == 0:  # a file nobody cached, then its unlink
            items.append(
                Invalidation(time=t, file_id=100 + i, from_byte=0)
            )
            t += 0.25
    return items


def _assert_curves_identical(packed, sizes):
    ref = stack_curve_python(packed, sizes, POLICIES)
    fast = stack_curve_numpy(packed, sizes, POLICIES)
    for policy in POLICIES:
        for size in sizes:
            where = f"size={size}, {policy.label}"
            assert fast.metrics(size, policy) == ref.metrics(size, policy), where


# ---------------------------------------------------------------------------
# Hole-heavy and edge-case differentials
# ---------------------------------------------------------------------------


class TestHoleHeavyDifferential:
    @pytest.mark.parametrize("kwargs", [{}])
    def test_matches_oracle_across_knobs(self, kwargs):
        packed = pack_stream(_hole_heavy_stream(), 4096, **kwargs)
        _assert_curves_identical(packed, SIZES)

    def test_random_traces_with_small_caches(self):
        # Tiny caches keep the stack boundaries inside the hole churn.
        sizes = tuple(c * 512 for c in (1, 2, 3, 7, 50))
        for seed in range(4):
            log = random_trace(random.Random(f"veccache:{seed}"), 300)
            packed = pack_stream(
                build_stream(log), 512, start_time=log.start_time
            )
            _assert_curves_identical(packed, sizes)


class TestEdgeCases:
    def test_empty_stream(self):
        packed = pack_stream([], 4096)
        _assert_curves_identical(packed, SIZES)
        run = simulate_packed(packed, 4096, WRITE_THROUGH)
        assert run.metrics.read_accesses == 0
        assert run.metrics.disk_reads == 0

    def test_invalidations_only(self):
        items = [
            Invalidation(time=float(i), file_id=i % 3, from_byte=0)
            for i in range(20)
        ]
        packed = pack_stream(items, 4096)
        assert packed.n_accesses == 0
        _assert_curves_identical(packed, SIZES)

    def test_single_block_single_access(self):
        items = [Transfer(time=0.0, file_id=1, user_id=1,
                          start=0, end=100, is_write=False)]
        packed = pack_stream(items, 4096)
        _assert_curves_identical(packed, (4096,))
        run = simulate_packed(packed, 4096, WRITE_THROUGH)
        assert run.metrics.disk_reads == 1

    def test_one_block_cache_thrash(self):
        # Alternating keys through a one-block cache: every access
        # misses and evicts; depth bookkeeping has no slack here.
        items = [
            Transfer(time=float(i), file_id=i % 2, user_id=1,
                     start=0, end=100, is_write=False)
            for i in range(30)
        ]
        packed = pack_stream(items, 4096)
        _assert_curves_identical(packed, (4096, 2 * 4096))


# ---------------------------------------------------------------------------
# Dispatchers
# ---------------------------------------------------------------------------


class TestDispatch:
    def test_python_engine_is_the_oracle(self):
        # A file id past the kernel's key range makes it decline, and
        # the dispatcher answers with one packed replay per size.
        items = [
            Transfer(time=float(i), file_id=(1 << 32) + i % 3, user_id=1,
                     start=0, end=8192, is_write=i % 2 == 0)
            for i in range(12)
        ]
        packed = pack_stream(items, 4096)
        got = stack_curve(packed, SIZES, (WRITE_THROUGH,))
        for size in SIZES:
            ref = simulate_packed(packed, size, WRITE_THROUGH)
            assert got.metrics(size) == ref.metrics

    def test_auto_engine_matches_python(self):
        packed = pack_stream(_hole_heavy_stream(), 4096)
        got = stack_curve(packed, SIZES)
        for size in SIZES:
            ref = simulate_packed(packed, size, WRITE_THROUGH)
            assert got.metrics(size) == ref.metrics

    def test_replay_stateful_policy_falls_back(self):
        # `replay_packed`, the pipeline benchmark's name for one replay,
        # answers a stateful (delayed-write) cell like the simulator.
        stream = _hole_heavy_stream()
        packed = pack_stream(stream, 4096)
        sim = BlockCacheSimulator(8 * 4096, 4096, DELAYED_WRITE)
        ref = sim.run(stream, flush_epoch=0.0)
        got = replay_packed(packed, 8 * 4096, DELAYED_WRITE, flush_epoch=0.0)
        assert got.metrics == ref


# ---------------------------------------------------------------------------
# Packed-stream memo
# ---------------------------------------------------------------------------


class TestEngineKeyedMemo:
    def test_same_engine_shares_one_entry(self, small_trace):
        a = cached_packed_stream(small_trace, 4096)
        assert cached_packed_stream(small_trace, 4096) is a
        assert a == pack_stream_python(
            build_stream(small_trace), 4096, start_time=small_trace.start_time
        )


# ---------------------------------------------------------------------------
# Sweep fan-out: jobs=2 equals jobs=1
# ---------------------------------------------------------------------------

SWEEP_SIZES = (64 * 1024, 394 * 1024)


class TestSweepFanout:
    def test_policy_sweep_parity(self, small_trace):
        serial = cache_size_policy_sweep(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=1
        )
        pooled = cache_size_policy_sweep(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=2
        )
        assert pooled.results == serial.results

    def test_block_size_sweep_parity(self, small_trace):
        serial = block_size_sweep(
            small_trace, block_sizes=(1024, 4096),
            cache_sizes=SWEEP_SIZES, jobs=1,
        )
        pooled = block_size_sweep(
            small_trace, block_sizes=(1024, 4096),
            cache_sizes=SWEEP_SIZES, jobs=2,
        )
        assert pooled.results == serial.results
        assert pooled.no_cache == serial.no_cache

    def test_paging_comparison_parity(self, small_trace):
        serial = paging_comparison(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=1
        )
        pooled = paging_comparison(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=2
        )
        assert pooled.ignored == serial.ignored
        assert pooled.simulated == serial.simulated


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("veccache_cli") / "a5.trace"
    rc = main(["generate", "--profile", "A5", "--hours", "0.2",
               "--seed", "3", "-o", str(path)])
    assert rc == 0
    return str(path)


class TestCLIEngine:
    def test_sweep_numpy_engine_matches_python(self, trace_file, capsys):
        # --jobs 1 runs the same jobs as --jobs 2, in-process.
        assert main(["sweep", trace_file, "--kind", "policy", "--jobs", "2"]) == 0
        fast = capsys.readouterr().out
        assert main(["sweep", trace_file, "--kind", "policy", "--jobs", "1"]) == 0
        assert capsys.readouterr().out == fast
