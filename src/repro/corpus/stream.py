"""Streaming analysis and validation over a corpus, segment by segment.

Both entry points fold segments through the same state machines the
in-RAM paths use — :class:`~repro.analysis.vectorized.VectorizedCollector`
and :class:`~repro.analysis.vectorized.VectorizedValidator` — so their
results are **bit-identical** to loading the whole corpus into one
``TraceColumns`` and running ``analyze_onepass`` / ``validate_columns``
on it, while peak memory stays O(segment) plus O(live analysis state).
The whole-trace facts the analyzer needs up front (start time and
duration, which size the burstiness windows) come from the footer
index, not from event data.

The one deliberate exception: when the numpy collector declines a
corpus, :func:`analyze_corpus` loads it whole and runs the pure-Python
specification (:func:`~repro.analysis.onepass.analyze_columns_python`),
so memory is then O(corpus).
"""

from __future__ import annotations

import os
from typing import Union

from ..analysis.onepass import OnePassReport, analyze_columns_python
from ..analysis.vectorized import (
    VectorFallback,
    VectorizedCollector,
    VectorizedValidator,
)
from ..trace.validate import DEFAULT_MAX_PROBLEMS, ValidationReport
from .reader import CorpusReader

__all__ = ["analyze_corpus", "validate_corpus"]

_ReaderOrPath = Union[CorpusReader, str, os.PathLike]


def _open(src: _ReaderOrPath) -> tuple[CorpusReader, bool]:
    if isinstance(src, CorpusReader):
        return src, False
    return CorpusReader(src), True


def analyze_corpus(
    src: _ReaderOrPath,
    long_window: float = 600.0,
    short_window: float = 10.0,
    burst_window: float = 10.0,
) -> OnePassReport:
    """Run the full one-pass analysis over a corpus without loading it.

    *src* is a :class:`CorpusReader` (left open) or a path (opened and
    closed here).  The report is bit-identical to
    ``analyze_onepass(reader.to_columns())`` — checked continuously by
    the fuzz harness's corpus pillar.  :func:`analyze_corpus_numpy`
    streams the segments; when it cannot replicate the input bit for
    bit, the whole corpus is loaded and the pure-Python specification
    runs on it.
    """
    reader, own = _open(src)
    try:
        try:
            return analyze_corpus_numpy(
                reader, long_window, short_window, burst_window
            )
        except VectorFallback:
            # Degraded mode, declined inputs only: O(corpus) memory.
            return analyze_columns_python(
                reader.to_columns(), long_window, short_window, burst_window
            )
    finally:
        if own:
            reader.close()


def analyze_corpus_numpy(
    reader: CorpusReader,
    long_window: float = 600.0,
    short_window: float = 10.0,
    burst_window: float = 10.0,
) -> OnePassReport:
    """Fold every segment through one :class:`VectorizedCollector`.

    Each segment's columns are viewed zero-copy (straight into the
    mmap); the burstiness windows are sized from the footer index.
    Raises :class:`VectorFallback` when the input needs the pure-Python
    path.
    """
    stats = reader.stats
    start = stats[0].time_first if stats else 0.0
    duration = (stats[-1].time_last - start) if stats else 0.0
    collector = VectorizedCollector(
        reader.name,
        start,
        duration,
        long_window=long_window,
        short_window=short_window,
        burst_window=burst_window,
    )
    for cols in reader.iter_segments():
        collector.feed(cols)
    return collector.finish()


def validate_corpus(
    src: _ReaderOrPath,
    max_problems: int = DEFAULT_MAX_PROBLEMS,
) -> ValidationReport:
    """Check every tracer invariant across a corpus, segment by segment.

    Problem messages carry global event indices (the validator state and
    the index base persist across segment boundaries), so the report
    matches ``validate_columns(reader.to_columns())`` exactly.
    """
    reader, own = _open(src)
    try:
        validator = VectorizedValidator(len(reader), max_problems=max_problems)
        base = 0
        for cols in reader.iter_segments():
            validator.feed(cols, base)
            base += len(cols.kinds)
        return validator.finish()
    finally:
        if own:
            reader.close()
