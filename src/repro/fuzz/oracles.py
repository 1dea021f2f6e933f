"""Pillar 2: differential oracles over serialization, analysis, caching.

Each oracle takes a trace and returns ``None`` or a first-divergence
description.  They are the machine-checked versions of the repo's
standing bit-identical claims:

* the text format round-tripping to the original events
  (:func:`check_io`);
* :func:`~repro.analysis.onepass.analyze_onepass` vs the nine
  per-module reference analyses, field for field (:func:`check_analysis`);
* :class:`~repro.cache.simulator.BlockCacheSimulator` vs
  :func:`~repro.parallel.packed.simulate_packed` and
  :func:`~repro.parallel.veccache.stack_curve` across write policies
  (:func:`check_cache`).
"""

from __future__ import annotations

import dataclasses
import io

from ..analysis.accesses import iter_transfers, reconstruct_accesses
from ..analysis.activity import analyze_activity
from ..analysis.burstiness import analyze_burstiness
from ..analysis.lifetimes import (
    collect_lifetimes,
    daemon_spike_fraction,
    lifetime_cdfs,
)
from ..analysis.onepass import analyze_onepass
from ..analysis.opentimes import open_time_cdf
from ..analysis.popularity import analyze_popularity
from ..analysis.sequentiality import analyze_sequentiality, run_length_cdfs
from ..analysis.sizes import file_size_cdfs
from ..analysis.users import per_user_summary
from ..cache.policies import DELAYED_WRITE, FLUSH_30S, WRITE_THROUGH
from ..cache.simulator import BlockCacheSimulator
from ..cache.stream import build_stream
from ..parallel.packed import pack_stream, simulate_packed
from ..parallel.veccache import stack_curve
from ..trace.columns import TraceColumns
from ..trace.io_text import read_text, write_text
from ..trace.log import TraceLog

__all__ = [
    "canonicalize_times",
    "check_all",
    "check_analysis",
    "check_cache",
    "check_io",
]

#: Cache sizes the cache oracle sweeps — one smaller than most fuzzed
#: working sets (evictions happen) and one larger (they mostly don't).
ORACLE_CACHE_SIZES = (64 * 1024, 1024 * 1024)

ORACLE_BLOCK_SIZE = 4096

_ORACLE_POLICIES = (WRITE_THROUGH, FLUSH_30S, DELAYED_WRITE)


# -- serialization -------------------------------------------------------------


def canonicalize_times(log: TraceLog) -> TraceLog:
    """Rewrite event times into the ``cs / 100.0`` floats the text format
    reads back.

    The kernel tracer quantizes with ``round(t / 0.01) * 0.01``, which for
    ~14% of centisecond values differs from ``cs / 100.0`` in the last
    bit (0.01 is not a binary fraction), while the text format writes
    two decimals that parse back as ``cs / 100.0``.  The round-trip
    oracle needs times the format can represent exactly, so kernel
    traces pass through here first; :func:`repro.fuzz.gen.random_trace`
    output is already canonical.
    """
    events = [
        dataclasses.replace(event, time=round(event.time * 100) / 100.0)
        for event in log.events
    ]
    return TraceLog(name=log.name, description=log.description, events=events)


def check_io(log: TraceLog) -> str | None:
    """The text format round trip."""
    text_buf = io.StringIO()
    write_text(log, text_buf)
    text_buf.seek(0)
    from_text = read_text(text_buf)
    if from_text.events != log.events:
        at = _first_event_mismatch(from_text.events, log.events)
        return f"text round trip differs at event {at}"
    return None


def _first_event_mismatch(a: list, b: list) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


# -- analysis ------------------------------------------------------------------


def check_analysis(log: TraceLog) -> str | None:
    """The fused one-pass analyzer vs every per-module reference, both on
    the event log and on its columnar view."""
    for source_label, source in (("events", log), ("columns", TraceColumns.from_log(log))):
        r = analyze_onepass(source)
        lifetimes = collect_lifetimes(log)
        pairs = (
            ("accesses", r.accesses, reconstruct_accesses(log)),
            ("transfers", r.transfers, list(iter_transfers(log))),
            ("lifetimes", r.lifetimes, lifetimes),
            ("activity", r.activity, analyze_activity(log)),
            ("sequentiality", r.sequentiality, analyze_sequentiality(log)),
            (
                "run_length_cdfs",
                (r.run_length_by_runs, r.run_length_by_bytes),
                run_length_cdfs(log),
            ),
            ("open_times", r.open_times, open_time_cdf(log)),
            (
                "file_size_cdfs",
                (r.size_by_accesses, r.size_by_bytes),
                file_size_cdfs(log),
            ),
            ("popularity", r.popularity, analyze_popularity(log)),
            ("users", r.users, per_user_summary(log)),
            ("burstiness", r.burstiness, analyze_burstiness(log)),
            (
                "lifetime_cdfs",
                (r.lifetime_by_files, r.lifetime_by_bytes),
                lifetime_cdfs(log),
            ),
            ("daemon_spike", r.daemon_spike, daemon_spike_fraction(lifetimes)),
        )
        for name, fused, reference in pairs:
            if fused != reference:
                return (
                    f"analyze_onepass({source_label}) disagrees with the "
                    f"{name} reference"
                )
        if list(r.users) != list(per_user_summary(log)):
            return (
                f"analyze_onepass({source_label}) users dict ordered "
                "differently from per_user_summary"
            )
    return None


# -- cache simulation ----------------------------------------------------------


def check_cache(
    log: TraceLog,
    cache_sizes: tuple[int, ...] = ORACLE_CACHE_SIZES,
    block_size: int = ORACLE_BLOCK_SIZE,
) -> str | None:
    """Reference simulator vs packed replayer vs LRU curve."""
    stream = build_stream(log)
    packed = pack_stream(stream, block_size, start_time=log.start_time)
    curve = stack_curve(packed, cache_sizes, _ORACLE_POLICIES)
    for policy in _ORACLE_POLICIES:
        for cache_bytes in cache_sizes:
            ref = BlockCacheSimulator(
                cache_bytes=cache_bytes, block_size=block_size, policy=policy
            )
            ref.run(stream, flush_epoch=log.start_time)
            fast = simulate_packed(
                packed, cache_bytes, policy, flush_epoch=log.start_time
            )
            stacked = curve.metrics(cache_bytes, policy)
            for name, got in (
                ("simulate_packed", fast.metrics),
                ("stack_curve", stacked),
            ):
                if ref.metrics != got:
                    return (
                        f"{name} diverges from BlockCacheSimulator "
                        f"(policy={policy.label}, cache={cache_bytes}): "
                        f"{_metrics_diff(ref.metrics, got)}"
                    )
    return None


def _metrics_diff(a, b) -> str:
    fields = (
        "read_accesses", "write_accesses", "disk_reads", "disk_writes",
        "evictions", "invalidated_blocks", "dirty_blocks_created",
        "dirty_blocks_discarded", "read_elisions",
    )
    for name in fields:
        left, right = getattr(a, name), getattr(b, name)
        if left != right:
            return f"{name} {left} vs {right}"
    return "metrics differ"


def check_all(log: TraceLog) -> str | None:
    """Run every trace-level oracle; returns the first divergence or None."""
    return check_io(log) or check_analysis(log) or check_cache(log)
