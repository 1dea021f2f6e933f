"""Analysis and validation over a corpus.

:func:`validate_corpus` streams: it folds segments through
:class:`~repro.analysis.vectorized.VectorizedValidator`, the validator
``validate_columns`` runs, with a running global event index, so its
report is **bit-identical** to validating the whole corpus in RAM while
its memory stays O(segment).

:func:`analyze_corpus` does not: the one-pass report holds per-access
arrays, so analysis is O(events) however a trace is fed.  It loads the
corpus into one ``TraceColumns`` and runs
:func:`~repro.analysis.onepass.analyze_onepass` on it, which reruns the
pure-Python specification when the numpy kernel declines the input.
"""

from __future__ import annotations

import os
from typing import Union

from ..analysis.onepass import OnePassReport, analyze_onepass
from ..analysis.vectorized import VectorizedValidator
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
    """Run the full one-pass analysis over a corpus.

    *src* is a :class:`CorpusReader` (left open) or a path (opened and
    closed here).  The report is ``analyze_onepass(reader.to_columns())``;
    the reader is closed before the analysis runs.
    """
    reader, own = _open(src)
    try:
        cols = reader.to_columns()
    finally:
        if own:
            reader.close()
    return analyze_onepass(cols, long_window, short_window, burst_window)


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
