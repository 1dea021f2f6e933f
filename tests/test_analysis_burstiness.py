"""Tests for the burstiness analysis."""

import pytest

from repro.analysis.burstiness import analyze_burstiness
from repro.trace.log import TraceLog
from repro.trace.records import AccessMode, CloseEvent, OpenEvent


def _open(t, oid, uid=1, size=1000):
    return OpenEvent(time=t, open_id=oid, file_id=oid, user_id=uid, size=size,
                     mode=AccessMode.READ)


class TestBurstiness:
    def test_single_burst(self):
        events = []
        for i in range(10):  # ten opens in one second, then silence
            events.append(_open(0.1 * i, i))
            events.append(CloseEvent(time=0.1 * i + 0.05, open_id=i,
                                     final_pos=1000))
        events.append(_open(100.0, 99))
        events.append(CloseEvent(time=100.1, open_id=99, final_pos=0))
        log = TraceLog.from_events(events)
        report = analyze_burstiness(log, window=10.0)
        assert report.peak_open_rate == pytest.approx(1.0)  # 10 opens / 10 s
        assert report.peak_to_mean > 5.0
        assert report.idle_window_fraction > 0.5

    def test_uniform_activity_peak_near_mean(self):
        events = []
        for i in range(20):
            events.append(_open(10.0 * i, i))
            events.append(CloseEvent(time=10.0 * i + 1, open_id=i, final_pos=100))
        log = TraceLog.from_events(events)
        report = analyze_burstiness(log, window=10.0)
        assert report.peak_to_mean < 2.5
        assert report.idle_window_fraction < 0.2

    def test_max_user_rate(self):
        log = TraceLog.from_events([
            _open(0.0, 1, uid=7, size=50_000),
            CloseEvent(time=1.0, open_id=1, final_pos=50_000),
        ])
        report = analyze_burstiness(log, window=10.0)
        assert report.max_user_rate == pytest.approx(5000.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            analyze_burstiness(TraceLog(), window=0)

    def test_generated_trace_is_bursty(self, medium_trace):
        report = analyze_burstiness(medium_trace)
        # Section 8: "file system activity is bursty".
        assert report.peak_to_mean > 3.0
        assert 0.0 < report.idle_window_fraction < 0.9

    def test_render(self, small_trace):
        assert "peak" in analyze_burstiness(small_trace).render()

