"""Differential tests for the vectorized cache engine and its plumbing.

:mod:`repro.parallel.veccache` claims bit-identity with its
specification, one LRU :func:`~repro.parallel.packed.simulate_packed`
replay per cache size and write policy
(:func:`~repro.parallel.veccache.stack_curve_python`); the sweeps and
the CLI run the fast path silently, so any divergence would corrupt
Figure 5/6/7 exhibits.  These tests pin
that equivalence where the kernel is most at risk — hole-heavy streams,
empty and single-block edges — plus the ``.bpack`` on-disk format, the
zero-copy sweep fan-out (``pack_dir``/payload resolution), the
packed-stream memo, and the ``--pack-cache`` CLI plumbing.
"""

from __future__ import annotations

import dataclasses
import os
import random

import pytest

from repro.cache.policies import (
    DELAYED_WRITE,
    FLUSH_5MIN,
    FLUSH_30S,
    WRITE_THROUGH,
)
from repro.cache.stream import Invalidation, Transfer, build_stream
from repro.cache.sweep import (
    _pack_ref,
    block_size_sweep,
    cache_size_policy_sweep,
    paging_comparison,
)
from repro.cli.main import main
from repro.corpus import (
    CorpusReader,
    pack_trace,
    segment_pack_path,
    write_segment_packs,
)
from repro.fuzz.gen import random_trace
from repro.parallel.bpack import (
    BpackError,
    cached_bpack,
    read_bpack,
    write_bpack,
)
from repro.parallel.executor import resolve_payload
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
from repro.trace.log import TraceLog

SIZES = (4096, 8 * 4096, 64 * 4096)
POLICIES = (WRITE_THROUGH, FLUSH_30S, FLUSH_5MIN, DELAYED_WRITE)
KNOBS = (
    {},
    {"read_elision": False},
    {"invalidate_on_delete": False},
    {"read_elision": False, "invalidate_on_delete": False},
)


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


def _assert_curves_identical(packed, sizes, **kwargs):
    ref = stack_curve_python(packed, sizes, POLICIES, **kwargs)
    fast = stack_curve_numpy(packed, sizes, POLICIES, **kwargs)
    for policy in POLICIES:
        for size in sizes:
            where = f"size={size}, {policy.label}"
            assert fast.metrics(size, policy) == ref.metrics(size, policy), where
            assert fast.checkpoint(size, policy) == ref.checkpoint(
                size, policy
            ), where


# ---------------------------------------------------------------------------
# Hole-heavy and edge-case differentials
# ---------------------------------------------------------------------------


class TestHoleHeavyDifferential:
    @pytest.mark.parametrize("kwargs", KNOBS)
    def test_matches_oracle_across_knobs(self, kwargs):
        packed = pack_stream(_hole_heavy_stream(), 4096)
        _assert_curves_identical(packed, SIZES, **kwargs)

    def test_matches_oracle_with_checkpoint(self):
        packed = pack_stream(_hole_heavy_stream(), 4096)
        mid = packed.times[len(packed) // 2]
        _assert_curves_identical(packed, SIZES, checkpoint_time=mid)

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
        run = replay_packed(packed, 4096, WRITE_THROUGH)
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
        run = replay_packed(packed, 4096, WRITE_THROUGH)
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
        packed = pack_stream(_hole_heavy_stream(), 4096)
        ref = simulate_packed(packed, 8 * 4096, DELAYED_WRITE, flush_epoch=0.0)
        got = replay_packed(packed, 8 * 4096, DELAYED_WRITE, flush_epoch=0.0)
        assert got == ref


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
# .bpack on-disk format
# ---------------------------------------------------------------------------


class TestBpack:
    @pytest.fixture()
    def packed(self):
        return pack_stream(_hole_heavy_stream(), 4096)

    def test_round_trip(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        got = read_bpack(path)
        assert got == packed
        assert got.n_accesses == packed.n_accesses
        assert got.start_time == packed.start_time

    def test_round_trip_empty(self, tmp_path):
        path = tmp_path / "empty.bpack"
        empty = pack_stream([], 4096)
        write_bpack(empty, path)
        assert read_bpack(path) == empty

    def test_replay_from_disk_matches_memory(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        disk = read_bpack(path)
        ref = stack_curve(packed, SIZES, (WRITE_THROUGH,))
        got = stack_curve(disk, SIZES, (WRITE_THROUGH,))
        for size in SIZES:
            assert got.metrics(size) == ref.metrics(size)

    def test_truncated_file_rejected(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(BpackError):
            read_bpack(path)

    def test_bad_magic_rejected(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(BpackError):
            read_bpack(path)

    def test_corrupt_body_fails_crc(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        data = bytearray(path.read_bytes())
        data[60] ^= 0x01  # inside the keys column
        path.write_bytes(bytes(data))
        with pytest.raises(BpackError):
            read_bpack(path)

    def test_cached_bpack_identity_and_staleness(self, tmp_path, packed):
        path = tmp_path / "s.bpack"
        write_bpack(packed, path)
        a = cached_bpack(path)
        assert cached_bpack(path) is a
        smaller = pack_stream(_hole_heavy_stream()[:40], 4096)
        write_bpack(smaller, path)  # different size + mtime
        b = cached_bpack(path)
        assert b is not a
        assert b == smaller


# ---------------------------------------------------------------------------
# Corpus shards
# ---------------------------------------------------------------------------


class TestSegmentPacks:
    @pytest.fixture()
    def corpus(self, tmp_path):
        log = random_trace(random.Random("packs"), 400)
        dest = tmp_path / "t.bcorpus"
        pack_trace(log, dest, segment_events=64)
        return dest

    def test_one_shard_per_segment(self, corpus, tmp_path):
        paths = write_segment_packs(corpus, 4096, tmp_path / "packs")
        with CorpusReader(corpus) as reader:
            assert len(paths) == reader.segment_count
            cols = reader.segment(0)
            expected = segment_pack_path(tmp_path / "packs", cols.name, 0, 4096)
            log0 = cols.to_log()
        assert paths[0] == expected
        ref = pack_stream(
            build_stream(log0), 4096, start_time=log0.start_time
        )
        assert read_bpack(paths[0]) == ref

    def test_rerun_is_idempotent(self, corpus, tmp_path):
        out = tmp_path / "packs"
        paths = write_segment_packs(corpus, 4096, out)
        stamps = [os.stat(p).st_mtime_ns for p in paths]
        assert write_segment_packs(corpus, 4096, out) == paths
        assert [os.stat(p).st_mtime_ns for p in paths] == stamps
        rewritten = write_segment_packs(corpus, 4096, out, overwrite=True)
        assert rewritten == paths
        assert read_bpack(paths[0]) is not None


# ---------------------------------------------------------------------------
# Zero-copy sweep fan-out
# ---------------------------------------------------------------------------

SWEEP_SIZES = (64 * 1024, 394 * 1024)


class TestSweepFanout:
    def test_policy_sweep_parity(self, small_trace, tmp_path):
        serial = cache_size_policy_sweep(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=1
        )
        packed = cache_size_policy_sweep(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=2, pack_dir=tmp_path,
        )
        assert packed.results == serial.results
        assert any(p.endswith(".bpack") for p in os.listdir(tmp_path))

    def test_block_size_sweep_parity(self, small_trace, tmp_path):
        serial = block_size_sweep(
            small_trace, block_sizes=(1024, 4096),
            cache_sizes=SWEEP_SIZES, jobs=1,
        )
        packed = block_size_sweep(
            small_trace, block_sizes=(1024, 4096),
            cache_sizes=SWEEP_SIZES, jobs=2, pack_dir=tmp_path,
        )
        assert packed.results == serial.results
        assert packed.no_cache == serial.no_cache

    def test_paging_comparison_parity(self, small_trace, tmp_path):
        serial = paging_comparison(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=1
        )
        packed = paging_comparison(
            small_trace, cache_sizes=SWEEP_SIZES, jobs=2, pack_dir=tmp_path
        )
        assert packed.ignored == serial.ignored
        assert packed.simulated == serial.simulated

    def test_pack_dir_reused_across_runs(self, small_trace, tmp_path):
        cache_size_policy_sweep(
            small_trace, cache_sizes=SWEEP_SIZES[:1], jobs=2,
            pack_dir=tmp_path,
        )
        shards = sorted(tmp_path.iterdir())
        stamps = [s.stat().st_mtime_ns for s in shards]
        cache_size_policy_sweep(
            small_trace, cache_sizes=SWEEP_SIZES[:1], jobs=2,
            pack_dir=tmp_path,
        )
        assert sorted(tmp_path.iterdir()) == shards
        assert [s.stat().st_mtime_ns for s in shards] == stamps

    def test_pack_dir_keys_on_times(self, small_trace, tmp_path):
        # Same accesses at different times: equal keys/ops columns, but
        # flush-back results differ, so the shards must not be shared.
        slow = TraceLog(
            name=small_trace.name,
            description=small_trace.description,
            events=[dataclasses.replace(e, time=e.time * 3)
                    for e in small_trace.events],
        )
        fast_p = cached_packed_stream(small_trace, 4096)
        slow_p = cached_packed_stream(slow, 4096)
        assert (fast_p.ops, fast_p.keys) == (slow_p.ops, slow_p.keys)
        assert _pack_ref(fast_p, tmp_path, "t") != _pack_ref(slow_p, tmp_path, "t")

        args = dict(cache_sizes=(390 * 1024,), policies=(FLUSH_30S,), jobs=2)
        first = cache_size_policy_sweep(small_trace, pack_dir=tmp_path, **args)
        second = cache_size_policy_sweep(slow, pack_dir=tmp_path, **args)
        fresh = cache_size_policy_sweep(slow, **args)
        assert second.results == fresh.results
        assert fresh.results != first.results

    def test_resolve_payload_protocol(self):
        class Plain:
            pass

        plain = Plain()
        assert resolve_payload(plain) is plain
        assert resolve_payload(None) is None

        class Deferred:
            def __payload_resolve__(self):
                return {"resolved": True}

        assert resolve_payload(Deferred()) == {"resolved": True}


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
    def test_sweep_engine_and_pack_cache(self, trace_file, tmp_path, capsys):
        pack_dir = tmp_path / "packs"
        assert main(["sweep", trace_file, "--kind", "policy", "--jobs", "2",
                     "--pack-cache", str(pack_dir)]) == 0
        assert "write-through" in capsys.readouterr().out
        assert any(
            name.endswith(".bpack") for name in os.listdir(pack_dir)
        )

    def test_sweep_numpy_engine_matches_python(self, trace_file, capsys):
        # --jobs 1 runs the same jobs as --jobs 2, in-process.
        assert main(["sweep", trace_file, "--kind", "policy", "--jobs", "2"]) == 0
        fast = capsys.readouterr().out
        assert main(["sweep", trace_file, "--kind", "policy", "--jobs", "1"]) == 0
        assert capsys.readouterr().out == fast
