"""Trace integrity checking.

A well-formed trace satisfies the invariants the kernel tracer guarantees:
times are non-decreasing, every close/seek refers to a previously opened
``open_id``, an ``open_id`` is opened at most once and closed at most once,
and positions never go negative.  The workload generator is tested against
these invariants, and traces converted from foreign sources (strace) are
validated before analysis.

Two entry points share the checks: :func:`validate` walks a
:class:`~repro.trace.log.TraceLog`'s event objects, and
:func:`validate_columns` walks a
:class:`~repro.trace.columns.TraceColumns` view directly — flat typed
columns, no event-object materialization — which is how ``repro-fs
validate`` checks each segment of a ``.bcorpus`` without paying a
per-event dataclass.  The columnar path additionally checks the
storage-level invariants the object view cannot express: every time must
lie in ``0..MAX_TRACE_TIME`` (which also rejects NaN), kind tags must be
known, and flag bytes must hold only defined bits (open rows: a valid
mode plus the created/new-file bits; every other row: zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .columns import (
    FLAG_CREATED,
    FLAG_MODE_MASK,
    FLAG_NEW_FILE,
    KIND_CLOSE,
    KIND_LABELS,
    KIND_OPEN,
    KIND_SEEK,
    KIND_TRUNC,
    TraceColumns,
)
from .log import TraceLog
from .records import (
    MAX_TRACE_TIME,
    CloseEvent,
    OpenEvent,
    SeekEvent,
    TruncateEvent,
)

__all__ = [
    "ValidationReport",
    "validate",
    "validate_columns",
    "validate_columns_into",
    "validate_columns_python",
]

DEFAULT_MAX_PROBLEMS = 50

_VALID_FLAG_BITS = FLAG_MODE_MASK | FLAG_CREATED | FLAG_NEW_FILE


@dataclass
class ValidationReport:
    """Result of :func:`validate`: counts plus a bounded list of problems."""

    event_count: int = 0
    open_count: int = 0
    unmatched_opens: int = 0  # opens never closed (legal: file open at trace end)
    problems: list[str] = field(default_factory=list)
    max_problems: int = DEFAULT_MAX_PROBLEMS

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def truncated(self) -> bool:
        """True when further problems were dropped past ``max_problems``."""
        return len(self.problems) > self.max_problems

    def add(self, message: str) -> None:
        if len(self.problems) < self.max_problems:
            self.problems.append(message)
        elif len(self.problems) == self.max_problems:
            self.problems.append("... further problems suppressed")

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.problems)} problem(s)"
        return (
            f"validation: {status}; {self.event_count} events, "
            f"{self.open_count} opens, {self.unmatched_opens} never closed"
        )


class _OpenTracker:
    """Shared open/close/seek bookkeeping for both validation paths."""

    __slots__ = ("report", "open_positions", "closed", "last_time")

    def __init__(self, report: ValidationReport):
        self.report = report
        self.open_positions: dict[int, int] = {}
        self.closed: set[int] = set()
        self.last_time = float("-inf")

    def time(self, i: int, t: float) -> None:
        if t < self.last_time:
            self.report.add(
                f"event {i}: time {t} precedes previous {self.last_time}"
            )
        self.last_time = t

    def open(self, i: int, open_id: int, size: int, initial_pos: int) -> None:
        report = self.report
        report.open_count += 1
        if open_id in self.open_positions:
            report.add(f"event {i}: open_id {open_id} opened twice")
        if open_id in self.closed:
            report.add(f"event {i}: open_id {open_id} reused after close")
        if size < 0 or initial_pos < 0:
            report.add(f"event {i}: negative size/position on open")
        if initial_pos > size:
            report.add(
                f"event {i}: open initial_pos {initial_pos} beyond "
                f"size {size}"
            )
        self.open_positions[open_id] = initial_pos

    def seek(self, i: int, open_id: int, prev_pos: int, new_pos: int) -> None:
        if open_id not in self.open_positions:
            self.report.add(f"event {i}: seek on unknown open_id {open_id}")
        if prev_pos < 0 or new_pos < 0:
            self.report.add(f"event {i}: negative seek position")
        self.open_positions[open_id] = new_pos

    def close(self, i: int, open_id: int, final_pos: int) -> None:
        if open_id not in self.open_positions:
            self.report.add(f"event {i}: close on unknown open_id {open_id}")
        else:
            del self.open_positions[open_id]
        if open_id in self.closed:
            self.report.add(f"event {i}: open_id {open_id} closed twice")
        self.closed.add(open_id)
        if final_pos < 0:
            self.report.add(f"event {i}: negative final position on close")

    def truncate(self, i: int, new_length: int) -> None:
        if new_length < 0:
            self.report.add(f"event {i}: truncate to negative length")

    def finish(self) -> ValidationReport:
        self.report.unmatched_opens = len(self.open_positions)
        return self.report


def validate(
    log: TraceLog | TraceColumns,
    max_problems: int = DEFAULT_MAX_PROBLEMS,
) -> ValidationReport:
    """Check *log* against the tracer invariants and return a report.

    Accepts either an event-object :class:`TraceLog` or a columnar
    :class:`TraceColumns` view (dispatched to :func:`validate_columns`,
    which never materializes event objects).  The event-object walk has
    no flat buffers to vectorize and runs in Python.
    """
    if isinstance(log, TraceColumns):
        return validate_columns(log, max_problems=max_problems)
    report = ValidationReport(
        event_count=len(log.events), max_problems=max_problems
    )
    tracker = _OpenTracker(report)

    for i, event in enumerate(log.events):
        tracker.time(i, event.time)
        if isinstance(event, OpenEvent):
            tracker.open(i, event.open_id, event.size, event.initial_pos)
        elif isinstance(event, SeekEvent):
            tracker.seek(i, event.open_id, event.prev_pos, event.new_pos)
        elif isinstance(event, CloseEvent):
            tracker.close(i, event.open_id, event.final_pos)
        elif isinstance(event, TruncateEvent):
            tracker.truncate(i, event.new_length)
    return tracker.finish()


def validate_columns(
    cols: TraceColumns,
    max_problems: int = DEFAULT_MAX_PROBLEMS,
) -> ValidationReport:
    """Check a columnar trace directly against the tracer invariants.

    Checks the flat columns — no event objects are built — and layers on
    the storage-level checks: the valid time range, known kind tags, and
    flag bytes holding only defined bits.  The numpy kernel accepts every
    input; :func:`validate_columns_python` is its Python reference (fuzz
    pillar 5 checks that they agree).
    """
    # Imported lazily: analysis.vectorized imports this module.
    from ..analysis.vectorized import validate_columns_numpy

    return validate_columns_numpy(cols, max_problems)


def validate_columns_python(
    cols: TraceColumns,
    max_problems: int = DEFAULT_MAX_PROBLEMS,
) -> ValidationReport:
    """The pure-Python reference of :func:`validate_columns`: one
    :func:`validate_columns_into` pass over *cols*."""
    report = ValidationReport(event_count=len(cols), max_problems=max_problems)
    tracker = _OpenTracker(report)
    validate_columns_into(cols, tracker)
    return tracker.finish()


def validate_columns_into(
    cols: TraceColumns,
    tracker: _OpenTracker,
    base: int = 0,
) -> None:
    """Fold one columnar chunk into an ongoing validation.

    The streaming building block behind :func:`validate_columns` (and the
    corpus path, :func:`repro.corpus.validate_corpus`): *tracker* carries
    the open/close state across chunks and *base* is the chunk's global
    index of row 0, so problem messages name the same event numbers the
    in-RAM path would.  The caller owns ``tracker.finish()``.
    """
    report = tracker.report
    kinds = cols.kinds
    times = cols.times
    open_ids = cols.open_ids
    sizes = cols.sizes
    positions = cols.positions
    flags = cols.flags

    for row in range(len(kinds)):
        i = base + row
        kind = kinds[row]
        t = times[row]
        tracker.time(i, t)
        if not 0.0 <= t <= MAX_TRACE_TIME:
            report.add(
                f"event {i}: time {t} s outside the valid trace time "
                f"range (0..{MAX_TRACE_TIME:.2f} s)"
            )
        if kind not in KIND_LABELS:
            report.add(f"event {i}: unknown kind tag {kind}")
            continue
        fl = flags[row]
        if kind == KIND_OPEN:
            mode = fl & FLAG_MODE_MASK
            if mode == 0:
                report.add(f"event {i}: open flag byte {fl:#04x} has no mode bits")
            if fl & ~_VALID_FLAG_BITS:
                report.add(
                    f"event {i}: open flag byte {fl:#04x} sets undefined bits"
                )
            tracker.open(i, open_ids[row], sizes[row], positions[row])
        else:
            if fl != 0:
                report.add(
                    f"event {i}: non-open row has nonzero flag byte {fl:#04x}"
                )
            if kind == KIND_SEEK:
                tracker.seek(i, open_ids[row], sizes[row], positions[row])
            elif kind == KIND_CLOSE:
                tracker.close(i, open_ids[row], positions[row])
            elif kind == KIND_TRUNC:
                tracker.truncate(i, sizes[row])
