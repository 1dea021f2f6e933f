"""The fused one-pass reference-pattern analyzer.

The per-module analyses each replay the whole trace: accesses, activity,
sequentiality, open times, sizes, popularity, users, burstiness and
lifetimes add up to roughly fourteen full passes over a list of per-event
Python objects.  :func:`analyze_onepass` produces every one of those
results from a **single** loop over a columnar trace
(:class:`~repro.trace.columns.TraceColumns`): the collectors' state
machines are fused into one dispatch on the kind tag, reading primitive
ints and floats out of flat arrays instead of attributes off event
objects.

Bit-identity, not just approximate agreement, is the contract — the
per-module functions stay in the tree as the differential reference
(``tests/test_onepass.py`` checks every field).  Three rules make that
possible:

* the columns store event times as exact floats (centisecond rounding
  happens only in the binary codec), so every arithmetic input is the
  same float the reference sees;
* each collector's state transitions are transcribed exactly, in event
  order, so every list, set and dict is built by the same sequence of
  insertions — which pins down iteration order and therefore
  float-summation order;
* everything after the loop (windowed statistics, CDF construction,
  table assembly) *is* the reference code, called on the identically
  ordered intermediate data rather than re-implemented.

The loop itself lives in :class:`OnePassCollector`, whose state persists
across :meth:`~OnePassCollector.feed` calls: feeding a trace one
columnar segment at a time (the out-of-core corpus path,
:func:`repro.corpus.analyze_corpus`) executes the identical sequence of
state transitions as feeding it whole, so the streamed report is
bit-identical too.  The only whole-trace facts the loop needs — the
start time and duration, for window placement — are constructor inputs,
recoverable for a corpus from its footer index without touching event
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from ..trace.columns import (
    FLAG_CREATED,
    FLAG_MODE_MASK,
    FLAG_NEW_FILE,
    KIND_CLOSE,
    KIND_CREATE,
    KIND_EXEC,
    KIND_OPEN,
    KIND_SEEK,
    KIND_TRUNC,
    KIND_UNLINK,
    TraceColumns,
    cached_columns,
)
from ..trace.log import TraceLog
from ..trace.records import AccessMode
from .accesses import FileAccess, Run, Transfer, transfers_from_accesses
from .activity import ActivityReport, _window_analysis
from .burstiness import BurstinessReport, assemble_burstiness
from .cdf import Cdf
from .lifetimes import Lifetime, daemon_spike_fraction, lifetime_cdfs
from .opentimes import open_time_cdf_from_accesses, open_time_summary
from .popularity import PopularityReport, popularity_from_accesses
from .sequentiality import (
    SequentialityReport,
    run_length_cdfs_from_accesses,
    sequentiality_from_accesses,
)
from .sizes import file_size_cdfs_from_accesses, size_summary
from .users import UserSummary, fold_access_into_user, render_user_table

__all__ = [
    "OnePassReport",
    "OnePassCollector",
    "analyze_columns_python",
    "analyze_onepass",
]

_MODE = (None, AccessMode.READ, AccessMode.WRITE, AccessMode.READ_WRITE)


@dataclass
class OnePassReport:
    """Every reference-pattern result, from one pass over the trace."""

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
    # cost more than its entire scan.  Reports built by the pure-Python
    # path never carry ``_lazy`` and never enter this hook.
    def __getattr__(self, name: str):
        lazy = self.__dict__.get("_lazy")
        if lazy and name in lazy:
            value = lazy.pop(name)()
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
        dead = [lt for lt in self.lifetimes if lt.lifetime is not None]
        return "\n".join(
            [
                self.activity.render(),
                self.sequentiality.render(),
                open_time_summary(self.open_times),
                size_summary(self.size_by_accesses, self.size_by_bytes),
                render_user_table(self.users),
                self.burstiness.render(),
                f"{len(self.lifetimes)} new files, {len(dead)} died during "
                f"the trace; {100 * self.daemon_spike:.0f}% of lifetimes in "
                "the 179-181 s daemon band",
            ]
        )


class OnePassCollector:
    """Resumable state of the fused loop: feed columns, then finish.

    *start* and *duration* must describe the **whole** trace that will be
    fed (they size the burstiness windows before the first event
    arrives); everything else accumulates incrementally, so
    ``feed(seg_0); feed(seg_1); ...`` runs the exact transition sequence
    of one ``feed(whole)``.
    """

    def __init__(
        self,
        name: str,
        start: float,
        duration: float,
        long_window: float = 600.0,
        short_window: float = 10.0,
        burst_window: float = 10.0,
    ):
        if burst_window <= 0:
            raise ValueError(f"window must be positive, got {burst_window}")
        self.name = name
        self.start = start
        self.duration = duration
        self.long_window = long_window
        self.short_window = short_window
        self.burst_window = burst_window
        self.events_fed = 0

        # accesses (reconstruct_accesses)
        self.in_progress: dict[int, FileAccess] = {}
        self.position: dict[int, int] = {}
        self.finished: list[FileAccess] = []
        # lifetimes (collect_lifetimes); the reference's `position`
        # bookkeeping has no observable effect on its output, so it is
        # not replicated
        self.creating: dict[int, int] = {}  # open_id -> file_id
        self.pending: dict[int, Lifetime] = {}
        self.done: list[Lifetime] = []
        # activity (analyze_activity's event attribution)
        self.open_owner: dict[int, int] = {}
        self.event_marks: list[tuple[float, int]] = []
        self.users_seen: set[int] = set()
        # users (per_user_summary's event loop)
        self.users: dict[int, UserSummary] = {}
        # burstiness windows (analyze_burstiness)
        self.b_duration = max(duration, burst_window)
        self.nb = max(1, math.ceil(self.b_duration / burst_window))
        self.opens_w = [0] * self.nb
        self.busy = [False] * self.nb

    def feed(self, cols: TraceColumns) -> None:
        """Run the fused loop over one columnar chunk of the trace."""
        kinds = cols.kinds
        times = cols.times
        open_ids = cols.open_ids
        file_ids = cols.file_ids
        user_ids = cols.user_ids
        sizes = cols.sizes
        positions = cols.positions
        flags = cols.flags
        n = len(kinds)
        start = self.start
        burst_window = self.burst_window
        nb = self.nb
        opens_w = self.opens_w
        busy = self.busy
        in_progress = self.in_progress
        position = self.position
        finished = self.finished
        creating = self.creating
        pending = self.pending
        done = self.done
        open_owner = self.open_owner
        event_marks = self.event_marks
        users_seen = self.users_seen
        users = self.users

        for i in range(n):
            kind = kinds[i]
            t = times[i]
            bslot = int((t - start) / burst_window)
            if bslot >= nb:
                bslot = nb - 1
            busy[bslot] = True
            uid_mark: int | None = None
            if kind == KIND_OPEN:
                oid = open_ids[i]
                fid = file_ids[i]
                uid = user_ids[i]
                fl = flags[i]
                pos0 = positions[i]
                created = bool(fl & FLAG_CREATED)
                # positional construction: same objects as the reference's
                # keyword form, without the kwargs overhead per event
                in_progress[oid] = FileAccess(
                    oid, fid, uid, _MODE[fl & FLAG_MODE_MASK], t, t,
                    sizes[i], created, bool(fl & FLAG_NEW_FILE), pos0,
                )
                position[oid] = pos0
                if created:
                    birth = pending.pop(fid, None)
                    if birth is not None:  # previous data overwritten
                        done.append(
                            Lifetime(birth.file_id, birth.birth_time,
                                     birth.bytes_written, t)
                        )
                    creating[oid] = fid
                open_owner[oid] = uid
                uid_mark = uid
                user = users.get(uid)
                if user is None:
                    user = users[uid] = UserSummary(user_id=uid)
                user.opens += 1
                if t < user.first_event:
                    user.first_event = t
                if t > user.last_event:
                    user.last_event = t
                opens_w[bslot] += 1
            elif kind == KIND_CLOSE:
                oid = open_ids[i]
                fpos = positions[i]
                access = in_progress.pop(oid, None)
                if access is not None:
                    pos = position.pop(oid)
                    if fpos > pos:
                        access.runs.append(Run(pos, fpos, t))
                    access.close_time = t
                    finished.append(access)
                fid = creating.pop(oid, None)
                if fid is not None:
                    pending[fid] = Lifetime(fid, t, max(fpos, 0), None)
                uid_mark = open_owner.get(oid)
            elif kind == KIND_SEEK:
                oid = open_ids[i]
                access = in_progress.get(oid)
                if access is not None:
                    prev = sizes[i]
                    pos = position[oid]
                    if prev > pos:
                        access.runs.append(Run(pos, prev, t))
                    access.seeks += 1
                    if access.runs:
                        access.seek_after_data = True
                    position[oid] = positions[i]
                uid_mark = open_owner.get(oid)
            elif kind == KIND_CREATE:
                uid_mark = user_ids[i]
            elif kind == KIND_EXEC:
                uid = user_ids[i]
                uid_mark = uid
                user = users.get(uid)
                if user is None:
                    user = users[uid] = UserSummary(user_id=uid)
                user.execs += 1
                if t < user.first_event:
                    user.first_event = t
                if t > user.last_event:
                    user.last_event = t
            elif kind == KIND_UNLINK:
                birth = pending.pop(file_ids[i], None)
                if birth is not None:
                    done.append(
                        Lifetime(birth.file_id, birth.birth_time,
                                 birth.bytes_written, t)
                    )
            elif kind == KIND_TRUNC:
                if sizes[i] == 0:
                    birth = pending.pop(file_ids[i], None)
                    if birth is not None:
                        done.append(
                            Lifetime(birth.file_id, birth.birth_time,
                                     birth.bytes_written, t)
                        )
            if uid_mark is not None:
                users_seen.add(uid_mark)
                event_marks.append((t, uid_mark))
        self.events_fed += n

    def finish(self) -> OnePassReport:
        """Assemble the report from the accumulated state.

        Epilogues: from here on this is the reference code itself, run on
        the identically ordered intermediate data.
        """
        start = self.start
        duration = self.duration
        burst_window = self.burst_window
        nb = self.nb

        self.finished.sort(key=lambda a: a.close_time)
        accesses = self.finished
        self.done.extend(self.pending.values())  # censored survivors
        self.done.sort(key=lambda lt: lt.birth_time)
        lifetimes = self.done
        users = self.users

        transfers = transfers_from_accesses(accesses)
        byte_marks = [(tr.time, tr.user_id, tr.length) for tr in transfers]
        total_bytes = sum(tr.length for tr in transfers)
        activity = ActivityReport(
            trace_name=self.name,
            duration=duration,
            total_bytes=total_bytes,
            total_users=len(self.users_seen),
            ten_minute=_window_analysis(
                self.long_window, duration, start, self.event_marks, byte_marks
            ),
            ten_second=_window_analysis(
                self.short_window, duration, start, self.event_marks, byte_marks
            ),
        )

        user_bytes: dict[tuple[int, int], int] = {}
        for tr in transfers:
            bslot = int((tr.time - start) / burst_window)
            if bslot >= nb:
                bslot = nb - 1
            key = (bslot, tr.user_id)
            user_bytes[key] = user_bytes.get(key, 0) + tr.length
        burstiness = assemble_burstiness(
            burst_window, self.b_duration, self.opens_w, self.busy, user_bytes
        )

        for access in accesses:
            user = users.get(access.user_id)
            if user is None:
                user = users[access.user_id] = UserSummary(
                    user_id=access.user_id
                )
            fold_access_into_user(user, access)

        by_runs, by_bytes = run_length_cdfs_from_accesses(accesses)
        size_by_accesses, size_by_bytes = file_size_cdfs_from_accesses(accesses)
        lt_by_files, lt_by_bytes = lifetime_cdfs(None, lifetimes)

        return OnePassReport(
            trace_name=self.name,
            duration=duration,
            accesses=accesses,
            transfers=transfers,
            lifetimes=lifetimes,
            activity=activity,
            sequentiality=sequentiality_from_accesses(self.name, accesses),
            run_length_by_runs=by_runs,
            run_length_by_bytes=by_bytes,
            open_times=open_time_cdf_from_accesses(accesses),
            size_by_accesses=size_by_accesses,
            size_by_bytes=size_by_bytes,
            popularity=popularity_from_accesses(accesses),
            users=users,
            burstiness=burstiness,
            lifetime_by_files=lt_by_files,
            lifetime_by_bytes=lt_by_bytes,
            daemon_spike=daemon_spike_fraction(lifetimes),
        )


def analyze_onepass(
    source: Union[TraceLog, TraceColumns],
    long_window: float = 600.0,
    short_window: float = 10.0,
    burst_window: float = 10.0,
) -> OnePassReport:
    """Run every reference-pattern analysis in one loop over *source*.

    Accepts a :class:`TraceLog` (columnarized through the per-log memo) or
    a :class:`TraceColumns` directly, e.g. straight from
    :func:`~repro.trace.io_binary.read_binary_columns`.

    The numpy kernel does the scan; this module's loop reruns it only
    when the kernel cannot replicate an exotic input bit for bit.  Both
    produce identical reports.
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
    """The pure-Python reference of
    :func:`~repro.analysis.vectorized.analyze_columns_numpy`: one
    :class:`OnePassCollector` pass over *cols*."""
    n = len(cols.kinds)
    start = cols.times[0] if n else 0.0
    duration = (cols.times[-1] - start) if n else 0.0
    collector = OnePassCollector(
        cols.name,
        start,
        duration,
        long_window=long_window,
        short_window=short_window,
        burst_window=burst_window,
    )
    collector.feed(cols)
    return collector.finish()
