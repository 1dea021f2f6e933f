"""Tests for the ``repro.fuzz`` harness itself.

Covers the input model (determinism, validity, golden encodings), the
replay oracle, the differential oracles, netfs fault injection, ddmin
shrinking, the repro corpus, and an end-to-end ``run_fuzz``.
"""

from __future__ import annotations

import hashlib
import io
import random

import pytest

from repro.corpus import pack_trace
from repro.fuzz.faults import NetfsFaults, check_netfs_convergence
from repro.fuzz.gen import SyscallOp, apply_ops, random_ops, random_trace
from repro.fuzz.oracles import Divergence, canonicalize_times, check_all
from repro.fuzz.runner import FuzzConfig, _check_ops, run_fuzz
from repro.fuzz.shrink import ddmin, load_corpus, replay_corpus, write_corpus_entry
from repro.trace.io_text import read_text, write_text
from repro.trace.log import TraceLog
from repro.trace.records import AccessMode, CloseEvent, OpenEvent, quantize_time
from repro.trace.validate import validate
from repro.unixfs.check import fsck


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
        # file system nothing is skipped and the result passes fsck.
        for seed in range(10):
            result = apply_ops(random_ops(random.Random(f"ops:{seed}"), 60))
            assert result.skipped == 0, f"seed {seed}"
            assert fsck(result.fs).ok, f"seed {seed}"

    def test_syscall_op_json_round_trip(self):
        ops = random_ops(random.Random("ops:json"), 30)
        assert [SyscallOp.from_json(op.to_json()) for op in ops] == ops


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
            assert _check_ops(ops) is None, f"seed {seed}"

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

    def test_divergence_summary_mentions_repro(self):
        d = Divergence(pillar="io", detail="boom", seed="1:2",
                       shrunk_events=3, corpus_entry="trace-1-2")
        s = d.summary()
        assert "io" in s and "boom" in s and "1:2" in s and "trace-1-2" in s


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


# -- shrinking and the corpus --------------------------------------------------


class TestShrink:
    def test_ddmin_reaches_the_minimal_core(self):
        items = list(range(100))
        calls = []

        def still_fails(candidate):
            calls.append(len(candidate))
            return 37 in candidate and 73 in candidate

        assert sorted(ddmin(items, still_fails)) == [37, 73]

    def test_ddmin_single_culprit(self):
        assert ddmin(list(range(64)), lambda c: 5 in c) == [5]

    def test_corpus_round_trip(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        log = random_trace(random.Random("trace:corpus"), 20)
        ops = random_ops(random.Random("ops:corpus"), 10)
        write_corpus_entry(corpus, name="a", pillar="io", detail="d",
                           seed="s", events=list(log.events))
        write_corpus_entry(corpus, name="b", pillar="replay", detail="d2",
                           seed="s2", ops=ops)
        entries = {e["name"]: e for e in load_corpus(corpus)}
        assert entries["a"]["log"].events == log.events
        assert entries["b"]["op_list"] == ops

    def test_replay_corpus_reports_still_failing(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        log = random_trace(random.Random("trace:replay"), 15)
        write_corpus_entry(corpus, name="x", pillar="io", detail="d",
                           seed="s", events=list(log.events))
        replayed, failing = replay_corpus(
            corpus,
            check_events=lambda _log: ("io", "still broken"),
            check_ops=lambda _ops: None,
        )
        assert replayed == 1
        assert failing == [("x", "io", "still broken")]
        replayed, failing = replay_corpus(
            corpus,
            check_events=lambda _log: None,
            check_ops=lambda _ops: None,
        )
        assert replayed == 1 and failing == []


# -- end to end ----------------------------------------------------------------


class TestRunFuzz:
    def test_small_budget_run_is_clean_and_deterministic(self):
        a = run_fuzz(FuzzConfig(seed=11, budget=300))
        b = run_fuzz(FuzzConfig(seed=11, budget=300))
        assert a.ok, [d.summary() for d in a.divergences]
        assert (a.rounds, a.steps, a.ops_executed, a.events_checked,
                a.corpus_corruptions) == (
            b.rounds, b.steps, b.ops_executed, b.events_checked,
            b.corpus_corruptions,
        )
        assert a.rounds >= 1
        assert "OK" in a.summary()

    def test_corpus_is_replayed_first(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        log = random_trace(random.Random("trace:seeded"), 15)
        write_corpus_entry(corpus, name="old", pillar="io", detail="fixed",
                           seed="s", events=list(log.events))
        report = run_fuzz(FuzzConfig(seed=1, budget=1, corpus=corpus))
        assert report.corpus_replayed == 1
        assert report.ok  # the stored repro passes on current code

    def test_cli_smoke(self, capsys):
        from repro.cli.main import main

        assert main(["fuzz", "--seed", "1", "--budget", "60"]) == 0
        out = capsys.readouterr().out
        assert "fuzz: OK" in out


class TestCorpusPillar:
    """Pillar 4: the out-of-core corpus codec oracles."""

    def _trace(self, seed: str, n: int = 90) -> TraceLog:
        return random_trace(random.Random(f"corpus-pillar:{seed}"), n)

    def test_clean_traces_pass_all_corpus_oracles(self):
        from repro.fuzz.corpus import (
            check_corpus_roundtrip,
            check_corpus_streaming,
        )

        for seed in ("a", "b", "c"):
            log = self._trace(seed)
            assert check_corpus_roundtrip(log) is None
            assert check_corpus_streaming(log) is None

    def test_check_corpus_all_flags_injected_codec_bug(self, monkeypatch):
        # Break the event-append path only: the write-path equivalence
        # oracle must notice the two writers no longer agree.
        from repro.corpus import writer as corpus_writer
        from repro.fuzz.corpus import check_corpus_all

        original = corpus_writer.CorpusWriter.append

        def buggy(self, event):
            original(self, event)
            if self._flags:  # append may have just flushed the segment
                self._flags[-1] ^= 0x01  # flip a flag bit after the fact

        monkeypatch.setattr(corpus_writer.CorpusWriter, "append", buggy)
        found = check_corpus_all(self._trace("inject"))
        assert found is not None
        pillar, detail = found
        assert pillar == "corpus"
        assert "different bytes" in detail

    def test_corruption_plan_all_detected(self):
        from repro.fuzz.corpus import CorpusFaultPlan, check_corpus_corruption

        plan = CorpusFaultPlan(seed="plan-1", cases=24)
        detail, cases = check_corpus_corruption(self._trace("plan"), plan)
        assert detail is None, detail
        assert cases == 24

    def test_corruption_plan_is_deterministic(self):
        from repro.fuzz.corpus import CorpusFaultPlan, _pack_via_columns
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

    def test_runner_counts_corpus_work(self):
        report = run_fuzz(FuzzConfig(seed=3, budget=400))
        assert report.ok, [d.summary() for d in report.divergences]
        assert report.corpus_events > 0
        assert report.corpus_corruptions > 0
        assert "corpus codec" in report.summary()
