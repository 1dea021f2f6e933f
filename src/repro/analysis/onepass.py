"""Every reference-pattern result in one report.

:func:`analyze_onepass` produces the whole report — accesses, activity,
sequentiality, open times, sizes, popularity, users, burstiness and
lifetimes — from one columnar trace
(:class:`~repro.trace.columns.TraceColumns`).  The numpy kernel
(:func:`~repro.analysis.vectorized.analyze_columns_numpy`) computes it in
one scan of the columns.

:func:`analyze_columns_python` is the specification: it materializes
the event log and assembles the report from the per-module analyzers,
sharing one :func:`~repro.analysis.accesses.reconstruct_accesses` result
among the analyses that take it.  Bit-identity with the kernel is the
contract — every field, including the users dict's iteration order
(``tests/test_onepass.py`` and fuzz pillar 5 check it).  Production runs
the specification only when the kernel raises
:class:`~repro.analysis.vectorized.VectorFallback` on an input it cannot
replicate bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..trace.columns import TraceColumns, cached_columns
from ..trace.log import TraceLog
from .accesses import (
    FileAccess,
    Transfer,
    reconstruct_accesses,
    transfers_from_accesses,
)
from .activity import ActivityReport, analyze_activity
from .burstiness import BurstinessReport, analyze_burstiness
from .cdf import Cdf
from .lifetimes import (
    Lifetime,
    collect_lifetimes,
    daemon_spike_fraction,
    lifetime_cdfs,
)
from .opentimes import open_time_cdf, open_time_summary
from .popularity import PopularityReport, popularity_from_accesses
from .sequentiality import (
    SequentialityReport,
    run_length_cdfs,
    sequentiality_from_accesses,
)
from .sizes import file_size_cdfs, size_summary
from .users import UserSummary, per_user_summary, render_user_table

__all__ = [
    "OnePassReport",
    "analyze_columns_python",
    "analyze_onepass",
]


@dataclass
class OnePassReport:
    """Every reference-pattern result for one trace."""

    trace_name: str
    duration: float
    accesses: list[FileAccess]
    transfers: list[Transfer]
    lifetimes: list[Lifetime]
    activity: ActivityReport
    sequentiality: SequentialityReport
    run_length_by_runs: Cdf
    run_length_by_bytes: Cdf
    open_times: Cdf
    size_by_accesses: Cdf
    size_by_bytes: Cdf
    popularity: PopularityReport
    users: dict[int, UserSummary]
    burstiness: BurstinessReport
    lifetime_by_files: Cdf
    lifetime_by_bytes: Cdf
    daemon_spike: float

    # The vectorized engine defers the object-heavy fields (accesses,
    # transfers, lifetimes, popularity) behind thunks in ``_lazy``:
    # building tens of thousands of dataclass instances eagerly would
    # cost more than its entire scan.  A thunk takes the report as its
    # argument (it never closes over it, so the report is no reference
    # cycle).  Reports built by the pure-Python path never carry
    # ``_lazy`` and never enter this hook.
    def __getattr__(self, name: str):
        lazy = self.__dict__.get("_lazy")
        if lazy and name in lazy:
            value = lazy.pop(name)(self)
            setattr(self, name, value)
            return value
        raise AttributeError(name)

    def __getstate__(self):
        for name in ("accesses", "transfers", "lifetimes", "popularity"):
            getattr(self, name)  # materialize for pickling/copying
        state = dict(self.__dict__)
        state.pop("_lazy", None)
        return state

    def render(self) -> str:
        """The full report, section for section what ``repro-fs analyze
        all`` prints."""
        return "\n".join(
            [
                self.activity.render(),
                self.sequentiality.render(),
                open_time_summary(self.open_times),
                size_summary(self.size_by_accesses, self.size_by_bytes),
                render_user_table(self.users),
                self.burstiness.render(),
                self.lifetime_summary(),
            ]
        )

    def lifetime_summary(self) -> str:
        """The one-line lifetimes section."""
        # Both counts come from the lifetime CDF (every new file is in its
        # total, every death in its cumulative weight), so the line never
        # materializes a kernel report's lifetime objects.
        by_files = self.lifetime_by_files
        died = int(by_files.cum[-1]) if by_files.cum else 0
        return (
            f"{int(by_files.total)} new files, {died} died during the "
            f"trace; {100 * self.daemon_spike:.0f}% of lifetimes in the "
            "179-181 s daemon band"
        )


def analyze_onepass(
    source: Union[TraceLog, TraceColumns],
    long_window: float = 600.0,
    short_window: float = 10.0,
    burst_window: float = 10.0,
) -> OnePassReport:
    """Run every reference-pattern analysis over *source*.

    Accepts a :class:`TraceLog` (columnarized through the per-log memo) or
    a :class:`TraceColumns` directly, e.g. straight from
    :func:`~repro.corpus.read_corpus_columns`.

    The numpy kernel does the scan; :func:`analyze_columns_python` reruns
    it only when the kernel cannot replicate an exotic input bit for bit.
    Both produce identical reports.
    """
    from .vectorized import VectorFallback, analyze_columns_numpy

    cols = cached_columns(source) if isinstance(source, TraceLog) else source
    try:
        return analyze_columns_numpy(cols, long_window, short_window, burst_window)
    except VectorFallback:
        return analyze_columns_python(cols, long_window, short_window, burst_window)


def analyze_columns_python(
    cols: TraceColumns,
    long_window: float = 600.0,
    short_window: float = 10.0,
    burst_window: float = 10.0,
) -> OnePassReport:
    """The pure-Python specification of
    :func:`~repro.analysis.vectorized.analyze_columns_numpy`: the
    per-module analyzers, run on ``cols.to_log()``."""
    log = cols.to_log()
    accesses = reconstruct_accesses(log)
    lifetimes = collect_lifetimes(log)
    by_runs, by_bytes = run_length_cdfs(log, accesses)
    size_by_accesses, size_by_bytes = file_size_cdfs(log, accesses)
    lt_by_files, lt_by_bytes = lifetime_cdfs(None, lifetimes)
    return OnePassReport(
        trace_name=log.name,
        duration=log.duration,
        accesses=accesses,
        transfers=transfers_from_accesses(accesses),
        lifetimes=lifetimes,
        activity=analyze_activity(log, long_window, short_window),
        sequentiality=sequentiality_from_accesses(log.name, accesses),
        run_length_by_runs=by_runs,
        run_length_by_bytes=by_bytes,
        open_times=open_time_cdf(log, accesses),
        size_by_accesses=size_by_accesses,
        size_by_bytes=size_by_bytes,
        popularity=popularity_from_accesses(accesses),
        users=per_user_summary(log, accesses),
        burstiness=analyze_burstiness(log, burst_window),
        lifetime_by_files=lt_by_files,
        lifetime_by_bytes=lt_by_bytes,
        daemon_spike=daemon_spike_fraction(lifetimes),
    )
