"""Differential tests: the fused one-pass analyzer must be bit-identical
to the per-module reference functions it replaces.

The per-module analyses stay in the tree precisely so these tests can
compare against them; any divergence — even in the last bit of a float —
is a bug in the fast path.
"""

import gc
import weakref

import pytest

from repro.analysis.accesses import iter_transfers, reconstruct_accesses
from repro.analysis.activity import analyze_activity
from repro.analysis.burstiness import analyze_burstiness
from repro.analysis.lifetimes import (
    collect_lifetimes,
    daemon_spike_fraction,
    lifetime_cdfs,
)
from repro.analysis.onepass import analyze_onepass
from repro.analysis.opentimes import open_time_cdf, open_time_summary
from repro.analysis.popularity import analyze_popularity
from repro.analysis.sequentiality import analyze_sequentiality, run_length_cdfs
from repro.analysis.sizes import file_size_cdfs, size_summary
from repro.analysis.users import per_user_summary, render_user_table
from repro.trace.columns import TraceColumns
from repro.trace.log import TraceLog
from repro.trace.records import (
    AccessMode,
    CloseEvent,
    CreateEvent,
    ExecEvent,
    OpenEvent,
    SeekEvent,
    TruncateEvent,
    UnlinkEvent,
)

from .conftest import make_simple_trace


def assert_matches_reference(log: TraceLog, source=None) -> None:
    """Field-for-field equality between the fused pass and the nine
    reference analyses, with no tolerance."""
    r = analyze_onepass(log if source is None else source)

    accesses = reconstruct_accesses(log)
    assert r.accesses == accesses
    assert r.transfers == list(iter_transfers(log))
    assert r.lifetimes == collect_lifetimes(log)
    assert r.activity == analyze_activity(log)
    assert r.sequentiality == analyze_sequentiality(log)
    assert (r.run_length_by_runs, r.run_length_by_bytes) == run_length_cdfs(log)
    assert r.open_times == open_time_cdf(log)
    assert (r.size_by_accesses, r.size_by_bytes) == file_size_cdfs(log)
    assert r.popularity == analyze_popularity(log)
    assert r.users == per_user_summary(log)
    assert list(r.users) == list(per_user_summary(log))  # dict insertion order
    assert r.burstiness == analyze_burstiness(log)
    assert (r.lifetime_by_files, r.lifetime_by_bytes) == lifetime_cdfs(log)
    assert r.daemon_spike == daemon_spike_fraction(collect_lifetimes(log))
    assert r.trace_name == log.name
    assert r.duration == log.duration


class TestDifferential:
    def test_generated_trace(self, small_trace):
        assert_matches_reference(small_trace)

    def test_simple_trace(self, simple_trace):
        assert_matches_reference(simple_trace)

    def test_empty_trace(self):
        assert_matches_reference(TraceLog(name="empty"))

    def test_accepts_columns_directly(self, simple_trace):
        cols = TraceColumns.from_log(simple_trace)
        assert_matches_reference(simple_trace, source=cols)

    def test_unclosed_open_is_ignored_like_reference(self):
        log = TraceLog.from_events(
            name="unclosed",
            events=[
                OpenEvent(time=0.0, open_id=1, file_id=5, user_id=1,
                          size=100, mode=AccessMode.READ),
                OpenEvent(time=0.1, open_id=2, file_id=6, user_id=2,
                          size=200, mode=AccessMode.WRITE, created=True,
                          new_file=True),
                CloseEvent(time=0.5, open_id=2, final_pos=200),
            ],
        )
        assert_matches_reference(log)

    def test_orphan_close_and_seek(self):
        log = TraceLog.from_events(
            name="orphans",
            events=[
                SeekEvent(time=0.1, open_id=99, prev_pos=0, new_pos=10),
                CloseEvent(time=0.2, open_id=98, final_pos=0),
                CreateEvent(time=0.3, file_id=7, user_id=1),
                UnlinkEvent(time=0.4, file_id=7),
            ],
        )
        assert_matches_reference(log)

    def test_truncate_and_exec(self):
        log = TraceLog.from_events(
            name="misc",
            events=[
                OpenEvent(time=0.0, open_id=1, file_id=5, user_id=3,
                          size=4096, mode=AccessMode.READ_WRITE),
                SeekEvent(time=0.2, open_id=1, prev_pos=2048, new_pos=0),
                CloseEvent(time=0.4, open_id=1, final_pos=4096),
                TruncateEvent(time=0.5, file_id=5, new_length=0),
                ExecEvent(time=0.6, file_id=8, user_id=3, size=65536),
            ],
        )
        assert_matches_reference(log)

    def test_duplicate_creating_opens(self):
        # Two creating opens for one file: the second must not reset the
        # lifetime, exactly as collect_lifetimes behaves.
        log = TraceLog.from_events(
            name="recreate",
            events=[
                OpenEvent(time=0.0, open_id=1, file_id=9, user_id=1,
                          size=0, mode=AccessMode.WRITE, created=True,
                          new_file=True),
                CloseEvent(time=0.2, open_id=1, final_pos=512),
                OpenEvent(time=1.0, open_id=2, file_id=9, user_id=1,
                          size=512, mode=AccessMode.WRITE, created=True,
                          new_file=False),
                CloseEvent(time=1.2, open_id=2, final_pos=1024),
                UnlinkEvent(time=5.0, file_id=9),
            ],
        )
        assert_matches_reference(log)

    def test_uid_zero_user(self):
        # uid 0 (root) must not be confused with "no owner".
        log = TraceLog.from_events(
            name="root-user",
            events=[
                OpenEvent(time=0.0, open_id=1, file_id=1, user_id=0,
                          size=100, mode=AccessMode.READ),
                CloseEvent(time=0.3, open_id=1, final_pos=100),
            ],
        )
        assert_matches_reference(log)

    def test_custom_windows(self, simple_trace):
        r = analyze_onepass(simple_trace, long_window=120.0,
                            short_window=5.0, burst_window=2.0)
        assert r.activity == analyze_activity(simple_trace, long_window=120.0,
                                              short_window=5.0)
        assert r.burstiness == analyze_burstiness(simple_trace, window=2.0)

    def test_bad_burst_window_rejected(self, simple_trace):
        with pytest.raises(ValueError, match="window must be positive"):
            analyze_onepass(simple_trace, burst_window=0.0)


class TestRender:
    def test_render_matches_per_module_sections(self, simple_trace):
        r = analyze_onepass(simple_trace)
        lifetimes = collect_lifetimes(simple_trace)
        dead = [lt for lt in lifetimes if lt.lifetime is not None]
        spike = daemon_spike_fraction(lifetimes)
        by_acc, by_bytes = file_size_cdfs(simple_trace)
        expected = "\n".join(
            [
                analyze_activity(simple_trace).render(),
                analyze_sequentiality(simple_trace).render(),
                open_time_summary(open_time_cdf(simple_trace)),
                size_summary(by_acc, by_bytes),
                render_user_table(per_user_summary(simple_trace)),
                analyze_burstiness(simple_trace).render(),
                f"{len(lifetimes)} new files, {len(dead)} died during the "
                f"trace; {100 * spike:.0f}% of lifetimes in the 179-181 s "
                "daemon band",
            ]
        )
        assert r.render() == expected

    def test_render_leaves_kernel_lifetimes_lazy(self, small_trace):
        # Both lifetime counts come from lifetime_by_files, so render()
        # never builds the kernel report's Lifetime objects.
        r = analyze_onepass(small_trace)
        assert "lifetimes" in r.__dict__["_lazy"]
        text = r.render()
        assert "lifetimes" in r.__dict__["_lazy"]
        dead = [lt for lt in r.lifetimes if lt.lifetime is not None]
        assert f"{len(r.lifetimes)} new files, {len(dead)} died" in text

    def test_kernel_report_freed_at_its_last_reference(self, small_trace):
        # A lazy thunk that closed over the report would make it a
        # reference cycle, which only a cyclic collection frees.
        gc.disable()
        try:
            r = analyze_onepass(small_trace)
            assert "_lazy" in r.__dict__
            ref = weakref.ref(r)
            r.render()
            del r
            assert ref() is None
            r = analyze_onepass(small_trace)
            ref = weakref.ref(r)
            r.accesses, r.transfers, r.popularity
            del r
            assert ref() is None
        finally:
            gc.enable()


def test_simple_trace_spot_checks():
    """Absolute (not just differential) checks on the hand-built trace."""
    log = make_simple_trace()
    r = analyze_onepass(log)
    assert len(r.accesses) == 3
    assert len(r.lifetimes) == 1
    # born at the close of the creating open (2.4 s), unlinked at 30.0 s
    assert r.lifetimes[0].lifetime == pytest.approx(27.6)
    whole = [a for a in r.accesses if a.whole_file]
    assert len(whole) >= 1
    assert set(r.users) == {1, 2}
