"""The ``repro.fuzz`` pillars as hypothesis properties, and tests of
the harness itself.

:class:`TestPillarProperties` holds one property per pillar, drawing
from the shared input model (:func:`repro.fuzz.gen.trace_strategy`,
:func:`repro.fuzz.gen.ops_strategy`).  Hypothesis shrinks, stores and
replays any failing example.  The properties set no ``max_examples``, so
the profile picks the depth: the default profile is the smoke run of
tier-1, and ``--hypothesis-profile=fuzz-nightly`` (``conftest.py``) is
the deep run::

    pytest tests/test_fuzz.py --hypothesis-profile=fuzz-nightly --hypothesis-seed=N

:class:`TestZooOracles` holds three more properties beside pillar 6, one
per fast path inside the replacement zoo, each against a brute-force or
eager oracle.  The other classes cover the input model (determinism,
validity, golden encodings) and each pillar's check on fixed inputs.
"""

from __future__ import annotations

import hashlib
import io
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import replacement
from repro.cache.policies import DELAYED_WRITE, FLUSH_30S, WRITE_THROUGH
from repro.cache.replacement import (
    ENSEMBLE_EXPLORE_ONE_IN,
    ENSEMBLE_WINDOW,
    LFU_AGING_PERIOD,
    REPLACEMENT_NAMES,
    ArcPolicy,
    ClockPolicy,
    EnsemblePolicy,
    FifoPolicy,
    LfuPolicy,
    LruPolicy,
    TwoQPolicy,
    make_replacement,
)
from repro.cache.simulator import BlockCacheSimulator
from repro.cache.stream import Invalidation, Transfer
from repro.corpus import pack_trace
from repro.fuzz.corpus import (
    CorpusFaultPlan,
    check_corpus_corruption,
    check_corpus_roundtrip,
    check_corpus_streaming,
)
from repro.fuzz.engines import check_engines
from repro.fuzz.faults import NetfsFaults, check_netfs_convergence
from repro.fuzz.gen import (
    SyscallOp,
    apply_ops,
    ops_strategy,
    random_ops,
    random_trace,
    trace_strategy,
)
from repro.fuzz.oracles import canonicalize_times, check_all
from repro.fuzz.policies import check_policies
from repro.fuzz.replay import check_ops
from repro.parallel.packed import KEY_SHIFT, OP_INVALIDATE, pack_stream, simulate_packed
from repro.trace.io_text import read_text, write_text
from repro.trace.log import TraceLog
from repro.trace.records import AccessMode, CloseEvent, OpenEvent, quantize_time
from repro.trace.validate import validate
from repro.unixfs.check import fsck
from repro.unixfs.errors import UnixFsError

#: Seeds for the checks that take one besides their input.
seeds = st.integers(min_value=0, max_value=2**32 - 1)


# -- the pillars as properties -------------------------------------------------


class TestPillarProperties:
    """One property per pillar; each asserts its check finds nothing.

    No deadline: an example's time grows with its drawn size, and the
    first one pays the kernels' warm-up.
    """

    @given(ops_strategy())
    @settings(deadline=None)
    def test_kernel_replay(self, ops):
        # Pillar 1: replay oracle after every syscall, validate + fsck,
        # then the pillar-2 oracles over the kernel's own trace.
        assert check_ops(ops) is None

    @given(trace_strategy())
    @settings(deadline=None)
    def test_trace_oracles(self, log):
        # Pillar 2: text round trip, one-pass analyzer, cache engines.
        assert check_all(log) is None

    @given(trace_strategy(), seeds)
    @settings(deadline=None)
    def test_netfs_convergence(self, log, seed):
        # Pillar 3: lossy RPC converges to the clean run's counters.
        assert check_netfs_convergence(log, seed=seed) is None

    @given(trace_strategy(), seeds)
    @settings(deadline=None)
    def test_corpus_codec(self, log, seed):
        # Pillar 4: round trip, streaming, and corruption.
        assert check_corpus_roundtrip(log) is None
        assert check_corpus_streaming(log) is None
        detail, _cases = check_corpus_corruption(log, CorpusFaultPlan(seed))
        assert detail is None

    @given(trace_strategy(), seeds)
    @settings(deadline=None)
    def test_engine_differential(self, log, seed):
        # Pillar 5: every numpy kernel vs its Python specification.
        assert check_engines(log, seed=seed) is None

    @given(trace_strategy(), seeds)
    @settings(deadline=None)
    def test_policy_differential(self, log, seed):
        # Pillar 6: every zoo policy, packed replay vs full simulator.
        assert check_policies(log, seed=seed) is None


# -- oracles for the zoo's internals (beside pillar 6) -------------------------


def _drive(policies, rng, capacity, keyspace, n_ops, remove_one_in):
    """Drive *policies* through one random op sequence as a cache host
    does; returns each policy's victims.  Keys come from a small key
    space, so evicted keys come back; one op in *remove_one_in*
    invalidates a resident key.  When the victims differ, the hosts
    stop at once."""
    resident: list = []
    victims = [[] for _ in policies]
    for _ in range(n_ops):
        if resident and rng.randrange(remove_one_in) == 0:
            key = resident.pop(rng.randrange(len(resident)))
            for p in policies:
                p.remove(key)
            continue
        key = rng.randrange(keyspace)
        if key in resident:
            for p in policies:
                p.touch(key)
            continue
        resident.append(key)
        for p in policies:
            p.insert(key)
        if len(resident) > capacity:
            chosen = [p.victim() for p in policies]
            for got, v in zip(victims, chosen):
                got.append(v)
            if len(set(chosen)) > 1:
                return victims
            resident.remove(chosen[0])
            for p in policies:
                p.remove(chosen[0], evicted=True)
    return victims


class _LfuOracle:
    """LFU by brute force: per key a count, a last tick and an aging
    period, and the victim the resident key with the smallest
    ``(count, last tick)``."""

    def __init__(self):
        self.tick = 0
        self.count: dict = {}
        self.last: dict = {}
        self.period: dict = {}
        self.resident: set = set()

    def _ref(self, key):
        self.tick += 1
        period = self.tick // replacement.LFU_AGING_PERIOD
        aged = period - self.period.get(key, period)
        self.count[key] = (self.count.get(key, 0) >> aged) + 1
        self.last[key] = self.tick
        self.period[key] = period

    def touch(self, key):
        self._ref(key)

    def insert(self, key):
        self.resident.add(key)
        self._ref(key)

    def victim(self):
        return min(self.resident, key=lambda k: (self.count[k], self.last[k]))

    def remove(self, key, evicted=False):
        self.resident.remove(key)


class _EagerEnsemble:
    """The ensemble driving all six arms on every op."""

    def __init__(self, capacity):
        self.arms = tuple(
            cls(capacity)
            for cls in (
                LruPolicy, FifoPolicy, ClockPolicy, LfuPolicy, TwoQPolicy, ArcPolicy
            )
        )
        self.active = 0
        self.accesses = 0
        self.window_miss = 0
        self.arm_acc = [0] * 6
        self.arm_miss = [0] * 6
        self.rng = 0x9E3779B97F4A7C15

    def _rand(self, bound):
        self.rng = (
            self.rng * replacement._LCG_MULT + replacement._LCG_INC
        ) & replacement._LCG_MASK
        return (self.rng >> 33) % bound

    def _account(self, miss):
        window = replacement.ENSEMBLE_WINDOW
        self.accesses += 1
        self.window_miss += miss
        if self.accesses % window:
            return
        self.arm_acc[self.active] += window
        self.arm_miss[self.active] += self.window_miss
        self.window_miss = 0
        if self._rand(ENSEMBLE_EXPLORE_ONE_IN) == 0:
            self.active = self._rand(6)
            return
        rates = [m / a if a else -1.0 for m, a in zip(self.arm_miss, self.arm_acc)]
        self.active = rates.index(min(rates))

    def touch(self, key):
        for arm in self.arms:
            arm.touch(key)
        self._account(False)

    def insert(self, key):
        for arm in self.arms:
            arm.insert(key)
        self._account(True)

    def victim(self):
        return self.arms[self.active].victim()

    def remove(self, key, evicted=False):
        for arm in self.arms:
            arm.remove(key, evicted)


def _random_items(rng):
    """A short item stream over a few files that churns them: transfers
    at unaligned offsets, and cuts at block 0, mid-block, past the end
    and past every block."""
    items = []
    for i in range(rng.randrange(1, 200)):
        fid = rng.randrange(1, 6)
        if rng.randrange(4) == 0:
            cut = rng.choice(
                (0, rng.randrange(9 * 4096), rng.randrange(9) * 4096, 1 << 50)
            )
            items.append(Invalidation(time=float(i), file_id=fid, from_byte=cut))
            continue
        start = rng.randrange(8 * 4096)
        end = start + 1 + rng.randrange(3 * 4096)
        items.append(Transfer(time=float(i), file_id=fid, user_id=1, start=start,
                              end=end, is_write=rng.randrange(2) == 0))
    return items


def _replay_checking_drops(packed, capacity, name):
    """A replay host that keeps the per-file index of resident keys and,
    at every invalidation row, checks that the drop index's resident
    candidates are exactly the keys that index's scan would drop."""
    policy = make_replacement(name, capacity)
    resident: set = set()
    by_file: dict = {}
    candidates, bounds = packed.drop_index()
    spans = zip(bounds, bounds[1:])
    for op, key in zip(packed.ops, packed.keys):
        fid = key >> KEY_SHIFT
        if op == OP_INVALIDATE:
            scan = sorted(k for k in by_file.get(fid, ()) if k >= key)
            lo, hi = next(spans)
            assert [k for k in candidates[lo:hi] if k in resident] == scan
            for k in scan:
                resident.remove(k)
                by_file[fid].remove(k)
                policy.remove(k)
            continue
        if key in resident:
            policy.touch(key)
            continue
        resident.add(key)
        by_file.setdefault(fid, set()).add(key)
        policy.insert(key)
        if len(resident) > capacity:
            v = policy.victim()
            resident.remove(v)
            by_file[v >> KEY_SHIFT].remove(v)
            policy.remove(v, evicted=True)
    assert next(spans, None) is None


class TestZooOracles:
    """Oracles for what the zoo's fast paths replaced: bucketed LFU,
    the lazily replayed ensemble arms and ``simulate_packed``'s drop
    index.  Pillar 6 compares two hosts of the same policy objects, so
    a drift inside a policy needs its own oracle."""

    @given(
        seeds,
        st.integers(min_value=1, max_value=64),
        st.sampled_from((2, 7, 64, LFU_AGING_PERIOD)),
        st.integers(min_value=1, max_value=3),
    )
    @settings(deadline=None)
    def test_lfu_matches_brute_force(self, seed, capacity, period, periods):
        rng = random.Random(seed)
        keyspace = rng.randrange(1, 3 * capacity + 3)
        n_ops = period * periods + rng.randrange(period + 1)
        with mock.patch.object(replacement, "LFU_AGING_PERIOD", period):
            fast, oracle = _drive(
                (LfuPolicy(capacity), _LfuOracle()), rng, capacity,
                keyspace, n_ops, remove_one_in=rng.choice((5, 50, n_ops + 1)),
            )
        assert fast == oracle

    @given(
        seeds,
        st.integers(min_value=1, max_value=64),
        st.sampled_from((3, 16, 64, ENSEMBLE_WINDOW)),
    )
    @settings(deadline=None)
    def test_lazy_ensemble_matches_eager(self, seed, capacity, window):
        # Shorter windows switch arms more often: every arm gets to be
        # active, and arms fall behind and catch up many times.
        rng = random.Random(seed)
        keyspace = rng.randrange(1, 4 * capacity + 3)
        n_ops = 3 * ENSEMBLE_WINDOW + rng.randrange(ENSEMBLE_WINDOW)
        with mock.patch.object(replacement, "ENSEMBLE_WINDOW", window):
            lazy, eager = _drive(
                (EnsemblePolicy(capacity), _EagerEnsemble(capacity)), rng,
                capacity, keyspace, n_ops, remove_one_in=rng.choice((4, 40)),
            )
        assert lazy == eager

    @given(seeds, st.integers(min_value=1, max_value=64))
    @settings(deadline=None)
    def test_drop_index_matches_per_file_scan(self, seed, capacity):
        rng = random.Random(seed)
        items = _random_items(rng)
        packed = pack_stream(items, 4096)
        name = rng.choice(REPLACEMENT_NAMES)
        _replay_checking_drops(packed, capacity, name)
        policy = rng.choice((WRITE_THROUGH, FLUSH_30S, DELAYED_WRITE))
        sim = BlockCacheSimulator(capacity * 4096, 4096, policy, replacement=name)
        run = simulate_packed(packed, capacity * 4096, policy, replacement=name)
        assert run.metrics == sim.run(items)


# -- input model ---------------------------------------------------------------


class TestGenerators:
    def test_random_trace_is_deterministic(self):
        a = random_trace(random.Random("trace:x"), 60)
        b = random_trace(random.Random("trace:x"), 60)
        assert a.events == b.events

    def test_random_trace_validates(self):
        for seed in range(10):
            log = random_trace(random.Random(f"trace:{seed}"), 80)
            assert validate(log).ok, f"seed {seed}"

    def test_random_ops_is_deterministic(self):
        a = random_ops(random.Random("ops:x"), 50)
        b = random_ops(random.Random("ops:x"), 50)
        assert a == b

    def test_random_ops_all_execute(self):
        # The shadow model mirrors the executor exactly, so on a fresh
        # file system every op applies and the result passes fsck.
        for seed in range(10):
            result = apply_ops(random_ops(random.Random(f"ops:{seed}"), 60))
            assert result.executed == 60, f"seed {seed}"
            assert fsck(result.fs).ok, f"seed {seed}"

    def test_op_that_does_not_apply_raises(self):
        with pytest.raises(UnixFsError):
            apply_ops([SyscallOp(kind="unlink", path="/missing")])

    @given(
        st.integers(min_value=0, max_value=2**48),
        st.integers(min_value=0, max_value=150),
        st.integers(min_value=0, max_value=150),
    )
    def test_random_ops_shorter_is_a_prefix(self, seed, a, b):
        # Hypothesis shrinks ops_strategy's length; a shorter sequence
        # must be a prefix of the longer one, so it stays valid.
        k, n = sorted((a, b))
        longer = random_ops(random.Random(f"ops:{seed}"), n)
        assert random_ops(random.Random(f"ops:{seed}"), k) == longer[:k]


class TestGoldenEncodings:
    """SHA-256 digests of the ``.bcorpus`` encoding for fixed generator
    seeds.

    These pin both the generator's output and the on-disk format: any
    change to either — a segment layout, the magic, the event mix — shows
    up here before it silently invalidates old trace files.
    """

    GOLDEN = {
        "golden:1": (
            111,
            "e9f88b3e5c1f19329f1c6a0da040dac8ad58436562d8b8a528cb9b40af98fa16",
        ),
        "golden:2": (
            107,
            "aac3778a070c0c683968323b8f05e24946806c0148169cf02815da1419889c8d",
        ),
        "golden:3": (
            112,
            "ef539888a10ce853b0208f73fcc68b13b97b40c71a88e0804df4e7ff67c97ff7",
        ),
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_digest(self, seed):
        log = random_trace(random.Random(f"trace:{seed}"), 100)
        buf = io.BytesIO()
        pack_trace(log, buf)
        events, digest = self.GOLDEN[seed]
        assert len(log.events) == events
        assert hashlib.sha256(buf.getvalue()).hexdigest() == digest


# -- replay oracle -------------------------------------------------------------


class TestReplayOracle:
    def test_clean_sequences_pass(self):
        for seed in range(5):
            ops = random_ops(random.Random(f"ops:{seed}"), 60)
            assert check_ops(ops) is None, f"seed {seed}"

    def test_tampered_log_is_flagged(self):
        from repro.fuzz.replay import ReplayChecker

        result = apply_ops(random_ops(random.Random("ops:tamper"), 30))
        log = result.tracer.log
        # A close for an open id the kernel never issued.
        log.events.append(
            CloseEvent(time=log.end_time + 1.0, open_id=999_999, final_pos=0)
        )
        checker = ReplayChecker(result.fs, log)
        assert checker.check_step() is not None


# -- differential oracles ------------------------------------------------------


class TestDifferentialOracles:
    def test_clean_traces_pass(self):
        for seed in range(5):
            log = random_trace(random.Random(f"trace:{seed}"), 80)
            assert check_all(log) is None, f"seed {seed}"

    def test_canonicalize_times_fixes_kernel_quantization(self):
        # quantize_time returns n*0.01, the text reader n/100.0; the
        # two differ in the last ulp for ~14% of centisecond values
        # (n=35 is one) — without canonicalization, exact round-trip
        # comparison of a kernel trace would be a false positive.
        assert quantize_time(0.35) != 35 / 100.0
        log = TraceLog(
            name="t",
            events=[
                OpenEvent(time=quantize_time(0.35), open_id=1, file_id=1,
                          user_id=0, size=0, mode=AccessMode.READ)
            ],
        )
        fixed = canonicalize_times(log)
        assert fixed.events[0].time == 35 / 100.0
        buf = io.StringIO()
        write_text(fixed, buf)
        buf.seek(0)
        assert read_text(buf).events == fixed.events


# -- netfs fault injection -----------------------------------------------------


class TestNetfsFaults:
    def test_convergence_under_faults(self):
        log = random_trace(random.Random("trace:netfs"), 60)
        assert check_netfs_convergence(log, seed=3) is None

    def test_drop_decisions_are_order_independent(self):
        faults = NetfsFaults(seed=1)
        a = [faults._die(rpc_id, "drop") for rpc_id in range(50)]
        b = [faults._die(rpc_id, "drop") for rpc_id in reversed(range(50))]
        assert a == list(reversed(b))


# -- corpus codec --------------------------------------------------------------


class TestCorpusPillar:
    """Pillar 4: the out-of-core corpus codec oracles."""

    def _trace(self, seed: str, n: int = 90) -> TraceLog:
        return random_trace(random.Random(f"corpus-pillar:{seed}"), n)

    def test_clean_traces_pass_all_corpus_oracles(self):
        for seed in ("a", "b", "c"):
            log = self._trace(seed)
            assert check_corpus_roundtrip(log) is None
            assert check_corpus_streaming(log) is None

    def test_corruption_plan_all_detected(self):
        plan = CorpusFaultPlan(seed="plan-1", cases=24)
        detail, cases = check_corpus_corruption(self._trace("plan"), plan)
        assert detail is None, detail
        assert cases == 24

    def test_corruption_plan_is_deterministic(self):
        from repro.fuzz.corpus import _pack_via_columns
        from repro.trace.columns import TraceColumns

        data = _pack_via_columns(
            TraceColumns.from_log(self._trace("det")), 32
        )
        labels = [
            label for label, _ in CorpusFaultPlan("x", cases=12).corruptions(data)
        ]
        again = [
            label for label, _ in CorpusFaultPlan("x", cases=12).corruptions(data)
        ]
        assert labels == again
        assert len(labels) == 12
