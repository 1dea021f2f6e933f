"""Trace integrity checking.

A well-formed trace satisfies the invariants the kernel tracer guarantees:
times are non-decreasing, every close/seek refers to a previously opened
``open_id``, an ``open_id`` is opened at most once and closed at most once,
and positions never go negative.  The workload generator is tested against
these invariants, and traces converted from foreign sources (strace) are
validated before analysis.

Every trace is checked through its columns.  :func:`validate` takes a
:class:`~repro.trace.log.TraceLog` (checked as its
:func:`~repro.trace.columns.cached_columns`) or a
:class:`~repro.trace.columns.TraceColumns`, and :func:`validate_columns`
runs the numpy validator over them — the validator that
:func:`repro.corpus.validate_corpus` folds a ``.bcorpus`` through segment
by segment — so a trace gets the same report whichever format it was read
from.  Besides the tracer invariants, the rows must meet the storage-level
ones: every time must lie in ``0..MAX_TRACE_TIME`` (which also rejects
NaN), kind tags must be known, and flag bytes must hold only defined bits
(open rows: a valid mode plus the created/new-file bits; every other row:
zero).  :func:`validate_columns_python` is the one Python specification
of all these checks, a single loop over the rows.
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
    cached_columns,
)
from .log import TraceLog
from .records import MAX_TRACE_TIME

__all__ = [
    "ValidationReport",
    "validate",
    "validate_columns",
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


def validate(
    log: TraceLog | TraceColumns,
    max_problems: int = DEFAULT_MAX_PROBLEMS,
) -> ValidationReport:
    """Check *log* against the tracer invariants and return a report.

    *log* is a :class:`TraceLog`, checked as its
    :func:`~repro.trace.columns.cached_columns`, or a
    :class:`TraceColumns`; either way :func:`validate_columns` checks
    the rows, so a text trace and its corpus get the same report.
    """
    cols = log if isinstance(log, TraceColumns) else cached_columns(log)
    return validate_columns(cols, max_problems=max_problems)


def validate_columns(
    cols: TraceColumns,
    max_problems: int = DEFAULT_MAX_PROBLEMS,
) -> ValidationReport:
    """Check a columnar trace directly against the tracer invariants.

    Checks the flat columns — no event objects are built — against the
    tracer invariants and the storage-level checks: the valid time range,
    known kind tags, and flag bytes holding only defined bits.  The numpy
    kernel accepts every input; :func:`validate_columns_python` is its
    Python specification (fuzz pillar 5 checks that they agree).
    """
    # Imported lazily: analysis.vectorized imports this module.
    from ..analysis.vectorized import validate_columns_numpy

    return validate_columns_numpy(cols, max_problems)


def validate_columns_python(
    cols: TraceColumns,
    max_problems: int = DEFAULT_MAX_PROBLEMS,
) -> ValidationReport:
    """The pure-Python specification of :func:`validate_columns`: one
    loop over the rows, emitting each row's problems in check order."""
    report = ValidationReport(event_count=len(cols), max_problems=max_problems)
    add = report.add
    present: set[int] = set()  # open ids opened (or sought) and not closed
    closed: set[int] = set()  # open ids ever closed
    last_time = float("-inf")
    rows = zip(
        cols.kinds, cols.times, cols.open_ids, cols.sizes, cols.positions, cols.flags
    )
    for i, (kind, t, oid, size, pos, fl) in enumerate(rows):
        if t < last_time:
            add(f"event {i}: time {t} precedes previous {last_time}")
        last_time = t
        if not 0.0 <= t <= MAX_TRACE_TIME:
            add(
                f"event {i}: time {t} s outside the valid trace time "
                f"range (0..{MAX_TRACE_TIME:.2f} s)"
            )
        if kind not in KIND_LABELS:
            add(f"event {i}: unknown kind tag {kind}")
            continue
        if kind == KIND_OPEN:
            if (fl & FLAG_MODE_MASK) == 0:
                add(f"event {i}: open flag byte {fl:#04x} has no mode bits")
            if fl & ~_VALID_FLAG_BITS:
                add(f"event {i}: open flag byte {fl:#04x} sets undefined bits")
            report.open_count += 1
            if oid in present:
                add(f"event {i}: open_id {oid} opened twice")
            if oid in closed:
                add(f"event {i}: open_id {oid} reused after close")
            if size < 0 or pos < 0:
                add(f"event {i}: negative size/position on open")
            if pos > size:
                add(f"event {i}: open initial_pos {pos} beyond size {size}")
            present.add(oid)
            continue
        if fl != 0:
            add(f"event {i}: non-open row has nonzero flag byte {fl:#04x}")
        if kind == KIND_SEEK:
            if oid not in present:
                add(f"event {i}: seek on unknown open_id {oid}")
            if size < 0 or pos < 0:
                add(f"event {i}: negative seek position")
            present.add(oid)
        elif kind == KIND_CLOSE:
            if oid in present:
                present.remove(oid)
            else:
                add(f"event {i}: close on unknown open_id {oid}")
            if oid in closed:
                add(f"event {i}: open_id {oid} closed twice")
            closed.add(oid)
            if pos < 0:
                add(f"event {i}: negative final position on close")
        elif kind == KIND_TRUNC and size < 0:
            add(f"event {i}: truncate to negative length")
    report.unmatched_opens = len(present)
    return report
