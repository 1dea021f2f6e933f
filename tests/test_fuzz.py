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

The other classes cover the input model (determinism, validity, golden
encodings) and each pillar's check on fixed inputs.
"""

from __future__ import annotations

import hashlib
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

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
        # Pillar 4: write-path equivalence, streaming, and corruption.
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

    def test_roundtrip_flags_injected_codec_bug(self, monkeypatch):
        # Break the event-append path only: the write-path equivalence
        # oracle must notice the two writers no longer agree.
        from repro.corpus import writer as corpus_writer

        original = corpus_writer.CorpusWriter.append

        def buggy(self, event):
            original(self, event)
            if self._flags:  # append may have just flushed the segment
                self._flags[-1] ^= 0x01  # flip a flag bit after the fact

        monkeypatch.setattr(corpus_writer.CorpusWriter, "append", buggy)
        detail = check_corpus_roundtrip(self._trace("inject"))
        assert detail is not None
        assert "different bytes" in detail

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
