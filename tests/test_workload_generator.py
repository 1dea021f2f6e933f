"""Tests for namespace building, profiles and the trace generator."""

import random

import pytest

from repro.clock import Clock
from repro.corpus import CorpusReader, pack_trace, read_corpus_columns
from repro.trace.records import OpenEvent
from repro.trace.validate import validate
from repro.unixfs.filesystem import FileSystem
from repro.unixfs.geometry import Geometry
from repro.workload.distributions import BurstyThinkTime
from repro.workload.generator import (
    SpoolSummary,
    generate,
    generate_many,
    generate_trace,
)
from repro.workload.namespace import NamespaceConfig, build_namespace
from repro.workload.profiles import PROFILES, UCBARPA, UCBCAD, UCBERNIE, MachineProfile


@pytest.fixture
def built():
    fs = FileSystem(
        clock=Clock(), geometry=Geometry(total_bytes=256 * 1024 * 1024)
    )
    ns = build_namespace(fs, NamespaceConfig(n_users=4), random.Random(3))
    return fs, ns


class TestNamespace:
    def test_all_categories_populated(self, built):
        _fs, ns = built
        cfg = ns.config
        assert len(ns.commands) == cfg.commands
        assert len(ns.headers) == cfg.headers
        assert len(ns.libraries) == cfg.libraries
        assert len(ns.admin_files) == cfg.admin_files
        assert len(ns.status_files) == cfg.hosts
        assert set(ns.etc_files) >= {"passwd", "termcap", "motd"}
        for uid in range(1, 5):
            assert len(ns.sources[uid]) == cfg.sources_per_user
            assert len(ns.docs[uid]) == cfg.docs_per_user
            assert uid in ns.mailboxes

    def test_every_path_exists_on_fs(self, built):
        fs, ns = built
        paths = (
            ns.commands + ns.headers + ns.libraries + ns.admin_files
            + ns.status_files + list(ns.etc_files.values())
        )
        for uid in ns.sources:
            paths += ns.sources[uid] + ns.docs[uid] + [ns.mailboxes[uid]]
        for path in paths:
            assert fs.exists(path), path

    def test_admin_files_are_about_a_megabyte(self, built):
        fs, ns = built
        for path in ns.admin_files:
            assert fs.stat(path).size == 1024 * 1024

    def test_popular_picks_are_skewed(self, built):
        _fs, ns = built
        rng = random.Random(0)
        picks = [ns.pick_command(rng) for _ in range(500)]
        counts = sorted(
            (picks.count(c) for c in set(picks)), reverse=True
        )
        assert counts[0] > 5 * counts[-1]

    def test_pick_headers_unique(self, built):
        _fs, ns = built
        rng = random.Random(0)
        headers = ns.pick_headers(rng, 8)
        assert len(headers) == len(set(headers)) == 8

    def test_admin_hotspot_offsets_within_file(self, built):
        _fs, ns = built
        rng = random.Random(0)
        for path in ns.admin_files:
            for _ in range(50):
                assert 0 <= ns.pick_admin_offset(rng, path) < 1024 * 1024


class TestProfiles:
    @pytest.mark.parametrize("profile", [UCBARPA, UCBERNIE, UCBCAD],
                             ids=lambda p: p.name)
    def test_mix_weights_sum_to_one(self, profile):
        assert sum(w for _n, w in profile.activity_mix) == pytest.approx(1.0)

    def test_buffer_cache_is_tenth_of_memory(self):
        assert UCBARPA.buffer_cache_bytes == UCBARPA.memory_bytes // 10

    def test_lookup_by_trace_and_machine_name(self):
        assert PROFILES["A5"] is PROFILES["ucbarpa"]
        assert PROFILES["C4"].name == "ucbcad"

    def test_namespace_user_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MachineProfile(
                name="x", trace_name="X", description="", n_users=5,
                memory_bytes=1 << 20,
                activity_mix=(("shell", 1.0),),
                think=BurstyThinkTime(),
                namespace=NamespaceConfig(n_users=3),
            )


class TestGenerator:
    def test_deterministic_for_same_seed(self):
        a = generate_trace(UCBARPA, seed=5, duration=300.0)
        b = generate_trace(UCBARPA, seed=5, duration=300.0)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = generate_trace(UCBARPA, seed=5, duration=300.0)
        b = generate_trace(UCBARPA, seed=6, duration=300.0)
        assert a.events != b.events

    def test_trace_validates_and_spans_duration(self, small_trace):
        assert validate(small_trace).ok
        assert small_trace.end_time <= 1200.0 + 1e-6
        assert small_trace.duration > 600.0

    def test_trace_name_follows_profile(self, small_trace):
        assert small_trace.name == "A5"

    def test_setup_traffic_not_in_trace(self, small_trace):
        # The namespace is built before the tracer attaches, so the first
        # event should be user activity, not hundreds of creates at t=0.
        first_creates = [
            e for e in small_trace.events[:50]
            if isinstance(e, OpenEvent) and e.new_file
        ]
        assert len(first_creates) < 30

    def test_result_carries_system_state(self):
        result = generate(UCBARPA, seed=1, duration=60.0)
        assert result.fs.syscall_counts["open"] > 0
        assert result.engine_resumptions > 0
        assert result.profile is UCBARPA

    def test_all_three_profiles_generate(self):
        for profile in (UCBARPA, UCBERNIE, UCBCAD):
            log = generate_trace(profile, seed=2, duration=120.0)
            assert validate(log).ok
            assert len(log) > 0


class TestSpooledGeneration:
    def test_spool_writes_identical_file_with_bounded_memory(self, tmp_path):
        import io

        reference = generate(UCBARPA, seed=9, duration=300.0)
        path = tmp_path / "spooled.bcorpus"
        result = generate(UCBARPA, seed=9, duration=300.0, spool=str(path),
                          spool_buffer=64)
        assert result.trace is None
        assert result.spool_path == str(path)
        assert result.events_spooled == len(reference.trace)
        # O(buffer) memory: never more than the buffer resident at once.
        assert 0 < result.peak_buffered <= 64
        buf = io.BytesIO()
        pack_trace(reference.trace, buf, segment_events=64)
        assert path.read_bytes() == buf.getvalue()

    def test_spooled_trace_reads_back(self, tmp_path):
        path = tmp_path / "a.bcorpus"
        generate(UCBARPA, seed=4, duration=120.0, spool=str(path))
        log = read_corpus_columns(path).to_log()
        assert log.name == "A5"
        assert validate(log).ok


class TestGenerateMany:
    def test_parallel_matches_serial(self):
        pairs = [(UCBARPA, 1), (UCBERNIE, 1), (UCBARPA, 2)]
        serial = generate_many(pairs, duration=60.0, jobs=1)
        parallel = generate_many(pairs, duration=60.0, jobs=3)
        assert [t.events for t in serial] == [t.events for t in parallel]
        assert [t.name for t in serial] == ["A5", "E3", "A5"]

    def test_spooled_outputs(self, tmp_path):
        pairs = [(UCBARPA, 1), (UCBCAD, 2)]
        outputs = [str(tmp_path / "a.bcorpus"), str(tmp_path / "c.bcorpus")]
        summaries = generate_many(pairs, duration=60.0, jobs=2,
                                  outputs=outputs, spool_buffer=128)
        assert all(isinstance(s, SpoolSummary) for s in summaries)
        assert [s.trace_name for s in summaries] == ["A5", "C4"]
        assert [s.seed for s in summaries] == [1, 2]
        for summary, path in zip(summaries, outputs):
            assert summary.path == path
            with CorpusReader(path) as reader:
                assert len(reader) == summary.events
                assert reader.segment_count == summary.segments > 0
            assert summary.peak_buffered <= 128

    def test_output_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="outputs"):
            generate_many([(UCBARPA, 1)], outputs=[])


class TestCorpusSpool:
    """Generation straight into a sharded .bcorpus corpus."""

    def test_bcorpus_spool_bit_identical_to_in_memory(self, tmp_path):
        path = tmp_path / "a.bcorpus"
        result = generate(UCBARPA, seed=3, duration=120.0,
                          spool=str(path), spool_buffer=64)
        reference = generate(UCBARPA, seed=3, duration=120.0)
        assert result.events_spooled == len(reference.trace)
        assert 0 < result.peak_buffered <= 64
        assert result.segments_spooled == -(-len(reference.trace) // 64)
        with CorpusReader(path) as reader:
            assert reader.name == "A5"
            assert list(reader.iter_events()) == reference.trace.events
            reader.verify()

    def test_spooled_rows_are_the_packed_trace_bytes(self, tmp_path):
        # The tracer writes rows straight into the corpus columns; the
        # file must be byte for byte the in-memory trace packed with the
        # same segment size.
        spooled = tmp_path / "spooled.bcorpus"
        generate(UCBARPA, seed=3, duration=300.0, spool=str(spooled),
                 spool_buffer=64)
        packed = tmp_path / "packed.bcorpus"
        pack_trace(generate(UCBARPA, seed=3, duration=300.0).trace, packed,
                   segment_events=64)
        assert spooled.read_bytes() == packed.read_bytes()

    def test_empty_generation_leaves_valid_corpus(self, tmp_path):
        # Zero-duration synthesis: the spool must still close into a
        # readable, empty corpus (the empty-segment-flush edge).
        path = tmp_path / "empty.bcorpus"
        result = generate(UCBARPA, seed=5, duration=0.0,
                          spool=str(path), spool_buffer=64)
        assert result.events_spooled == 0
        with CorpusReader(path) as reader:
            assert len(reader) == 0

    def test_buffer_boundary_off_by_one(self, tmp_path):
        # Spool with a buffer of exactly the event count, one less, and
        # one more: all must produce the same decoded events.
        reference = generate(UCBARPA, seed=6, duration=60.0)
        n = len(reference.trace)
        assert n > 2
        for buffer_events in (n - 1, n, n + 1):
            path = tmp_path / f"b{buffer_events}.bcorpus"
            generate(UCBARPA, seed=6, duration=60.0,
                     spool=str(path), spool_buffer=buffer_events)
            with CorpusReader(path) as reader:
                assert list(reader.iter_events()) == reference.trace.events


class TestGenerateManyRejections:
    def test_duplicate_profile_seed_pairs_rejected(self):
        with pytest.raises(ValueError, match="identical traces"):
            generate_many([(UCBARPA, 1), (UCBARPA, 1)], duration=60.0)

    def test_same_profile_different_seeds_allowed(self):
        results = generate_many([(UCBARPA, 1), (UCBARPA, 2)], duration=60.0,
                                jobs=1)
        assert len(results) == 2

    def test_duplicate_output_paths_rejected(self, tmp_path):
        out = str(tmp_path / "same.bcorpus")
        with pytest.raises(ValueError, match="clobber"):
            generate_many([(UCBARPA, 1), (UCBCAD, 2)], duration=60.0,
                          outputs=[out, out])
