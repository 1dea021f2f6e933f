"""Unit tests for the replacement-policy zoo (repro.cache.replacement).

Each policy gets a scripted scenario pinning its defining behavior
(second chance, aging, ghost promotion, adaptivity, arm switching);
the integration half replays the shared ``small_trace`` through the
full simulator and the packed replayer for every policy and demands
bit-identical metrics — the same contract fuzz pillar 6 checks on
generated traces.
"""

from __future__ import annotations

import pytest

from repro.cache.policies import DELAYED_WRITE, FLUSH_30S, WRITE_THROUGH
from repro.cache.replacement import (
    REPLACEMENT_NAMES,
    REPLACEMENT_POLICIES,
    ArcPolicy,
    ClockPolicy,
    EnsemblePolicy,
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    TwoQPolicy,
    make_replacement,
    validate_replacement,
)
from repro.cache.simulator import BlockCacheSimulator
from repro.cache.stream import cached_stream
from repro.parallel.packed import cached_packed_stream, simulate_packed


def _fill(policy, keys):
    for key in keys:
        policy.insert(key)


class TestRegistry:
    def test_names_and_classes_agree(self):
        assert REPLACEMENT_NAMES == ("lru", "fifo", "clock", "lfu", "2q",
                                     "arc", "ensemble")
        for name, cls in REPLACEMENT_POLICIES.items():
            assert cls.name == name
            assert isinstance(make_replacement(name, 8), cls)

    def test_validate_rejects_unknown(self):
        assert validate_replacement("arc") == "arc"
        with pytest.raises(ValueError, match="ensemble"):
            validate_replacement("belady")

    def test_simulator_rejects_unknown(self):
        with pytest.raises(ValueError):
            BlockCacheSimulator(8 * 4096, replacement="belady")


class TestLru:
    def test_recency_order(self):
        p = LruPolicy(3)
        _fill(p, "abc")
        p.touch("a")
        assert p.victim() == "b"
        p.remove("b", evicted=True)
        assert p.victim() == "c"


class TestFifo:
    def test_touch_never_reorders(self):
        p = FifoPolicy(3)
        _fill(p, "abc")
        p.touch("a")
        p.touch("a")
        assert p.victim() == "a"


class TestClock:
    def test_second_chance(self):
        p = ClockPolicy(3)
        _fill(p, "abc")
        # Every bit is set, so the hand sweeps a full rotation (clearing
        # a, b, c) and lands back on the oldest: FIFO when all are hot.
        assert p.victim() == "a"
        p.remove("a", evicted=True)
        # b and c now have clear bits; a touch spares b one rotation.
        p.touch("b")
        assert p.victim() == "c"


class TestLfu:
    def test_evicts_least_frequent(self):
        p = LfuPolicy(3)
        _fill(p, "abc")
        p.touch("a")
        p.touch("a")
        p.touch("c")
        assert p.victim() == "b"

    def test_counts_survive_eviction(self):
        p = LfuPolicy(2)
        p.insert("a")
        p.touch("a")
        p.touch("a")
        p.insert("b")
        p.remove("b", evicted=True)
        # b's count (1) persisted; back in the cache it is still colder
        # than thrice-seen a.
        p.insert("b")
        assert p.victim() == "b"


class TestTwoQ:
    def test_ghost_hit_promotes_to_am(self):
        p = TwoQPolicy(4)  # kin=1, kout=2
        _fill(p, "abc")  # all in A1in, over kin
        assert p.victim() == "a"
        p.remove("a", evicted=True)  # a becomes an A1out ghost
        p.insert("a")  # ghost hit: straight to Am
        p.touch("a")
        # A1in (b, c) still exceeds kin, so probation drains first.
        assert p.victim() == "b"
        p.remove("b", evicted=True)
        p.remove("c", evicted=True)
        # Only Am remains: a is the main-queue LRU now.
        assert p.victim() == "a"

    def test_invalidation_leaves_no_ghost(self):
        p = TwoQPolicy(8)
        p.insert("a")
        p.remove("a")  # evicted=False: invalidated, not ejected
        p.insert("a")
        # No ghost was kept, so this is a first-timer again (A1in, and
        # with Am empty it is the next victim).
        assert p.victim() == "a"


class TestArc:
    def test_b1_ghost_hit_grows_p(self):
        p = ArcPolicy(2)
        p.insert("a")
        p.touch("a")  # a proves reuse: T2
        p.insert("b")  # T1 = [b], T2 = [a]
        p.insert("c")  # complete miss; REPLACE must run
        victim = p.victim()
        assert victim == "b"  # |T1| > p: recency side pays
        p.remove(victim, evicted=True)  # b ghosts into B1
        assert p._p == 0
        p.insert("b")  # B1 ghost hit
        assert p._p == 1  # recency target grew
        assert "b" in p._t2  # and the block came back as "seen twice"

    def test_full_t1_without_ghosts_ejects_directly(self):
        p = ArcPolicy(2)
        _fill(p, ["a", "b", "c"])  # |T1| hits c with B1 empty
        victim = p.victim()
        assert victim == "a"
        p.remove(victim, evicted=True)
        # The paper's Case A: ejected outright, no B1 ghost.
        assert "a" not in p._b1

    def test_frequency_hits_move_to_t2(self):
        p = ArcPolicy(4)
        _fill(p, ["a", "b"])
        p.touch("a")
        assert "a" in p._t2 and "b" in p._t1

    def test_directory_stays_bounded(self):
        p = ArcPolicy(4)
        for i in range(64):
            key = f"k{i}"
            p.insert(key)
            while len(p._t1) + len(p._t2) > 4:
                p.remove(p.victim(), evicted=True)
        assert len(p._t1) + len(p._b1) <= 4
        assert len(p._t1) + len(p._t2) + len(p._b1) + len(p._b2) <= 8


class TestEnsemble:
    def test_deterministic_replay(self):
        def drive():
            p = EnsemblePolicy(4)
            victims = []
            resident = set()
            for i in range(3000):
                key = (i * 7) % 11
                if key in resident:
                    p.touch(key)
                else:
                    resident.add(key)
                    p.insert(key)
                    if len(resident) > 4:
                        v = p.victim()
                        resident.discard(v)
                        p.remove(v, evicted=True)
                victims.append(p.victim() if resident else None)
            return victims

        assert drive() == drive()

    def test_arms_track_membership(self):
        p = EnsemblePolicy(4)
        _fill(p, range(4))
        p.remove(2)
        for arm in p._arms:
            # Every arm must agree on residency, whichever is active.
            assert arm.victim() in (0, 1, 3)


@pytest.mark.parametrize("name", REPLACEMENT_NAMES)
@pytest.mark.parametrize(
    "write_policy", [WRITE_THROUGH, FLUSH_30S, DELAYED_WRITE],
    ids=lambda p: p.label,
)
def test_packed_replay_matches_full_simulator(small_trace, name, write_policy):
    stream = cached_stream(small_trace)
    packed = cached_packed_stream(small_trace, 4096)
    for cache_bytes in (399360, 2 * 1024 * 1024):
        sim = BlockCacheSimulator(
            cache_bytes, 4096, write_policy, replacement=name
        )
        sim.run(stream, flush_epoch=small_trace.start_time)
        run = simulate_packed(
            packed,
            cache_bytes,
            write_policy,
            replacement=name,
            flush_epoch=small_trace.start_time,
        )
        assert run.metrics == sim.metrics


def test_policies_actually_differ(small_trace):
    """The zoo is not seven spellings of LRU: the small cache separates
    at least recency (lru) from pure insertion order (fifo)."""
    packed = cached_packed_stream(small_trace, 4096)
    reads = {
        name: simulate_packed(
            packed, 399360, DELAYED_WRITE, replacement=name
        ).metrics.disk_reads
        for name in REPLACEMENT_NAMES
    }
    assert reads["lru"] != reads["fifo"]
    assert len(set(reads.values())) >= 3
