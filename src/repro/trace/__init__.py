"""Trace records, files and first-order statistics.

This package defines the logical trace format of the paper's Table II (no
individual reads or writes — positions recorded at open/close/seek bound
exactly which bytes moved), plus the text serialization, the columnar
store, integrity validation, the Table III summary statistics and the
Section 3.1 inter-event-interval analysis.  The one binary serialization
is the sharded corpus, :mod:`repro.corpus` (``.bcorpus``).
"""

from .columns import TraceColumns, cached_columns
from .intervals import IntervalStats, event_intervals, interval_stats
from .io_text import iter_text, read_text, write_text
from .log import TraceLog
from .ops import filter_files, filter_users, merge, renumber_opens, shift_time
from .records import (
    AccessMode,
    CloseEvent,
    CreateEvent,
    EVENT_KINDS,
    ExecEvent,
    OpenEvent,
    SeekEvent,
    TraceEvent,
    TruncateEvent,
    UnlinkEvent,
    quantize_time,
)
from .stats import TraceStats, compute_stats, total_bytes_transferred
from .validate import ValidationReport, validate, validate_columns

__all__ = [
    "AccessMode",
    "OpenEvent",
    "CloseEvent",
    "SeekEvent",
    "CreateEvent",
    "UnlinkEvent",
    "TruncateEvent",
    "ExecEvent",
    "TraceEvent",
    "EVENT_KINDS",
    "quantize_time",
    "TraceLog",
    "read_text",
    "write_text",
    "iter_text",
    "TraceColumns",
    "cached_columns",
    "validate",
    "validate_columns",
    "ValidationReport",
    "compute_stats",
    "TraceStats",
    "total_bytes_transferred",
    "interval_stats",
    "event_intervals",
    "IntervalStats",
    "filter_users",
    "filter_files",
    "merge",
    "shift_time",
    "renumber_opens",
]
