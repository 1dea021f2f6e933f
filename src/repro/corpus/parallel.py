"""Parallel-by-segment execution over one corpus.

:func:`map_segments` shards a corpus *within* one file: each job is
``(segment_index,)`` against a payload of ``(corpus_path, fn)``, run
through :func:`repro.parallel.run_jobs`, which guarantees results come
back in segment order regardless of completion order — so a sharded run
is deterministically identical to the serial loop.  Workers open the
corpus themselves (an mmap cannot usefully cross a pickle boundary) and
cache the reader per process, so a worker that handles many segments
parses the footer once.

Two module-level segment functions ship with the machinery because the
CLI needs them picklable: :func:`segment_kind_counts` (``corpus info``)
and :func:`verify_segment_job` (``corpus verify``).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Sequence, Union

from ..parallel.executor import run_jobs
from ..trace.columns import TraceColumns
from ..trace.npview import column_views, np
from .format import CorpusError
from .reader import CorpusReader

__all__ = ["map_segments", "segment_kind_counts", "verify_segment_job"]

_PathLike = Union[str, os.PathLike]

# Per-process reader cache: one parsed footer per (worker, corpus path).
_READERS: dict[str, CorpusReader] = {}


def _cached_reader(path: str) -> CorpusReader:
    reader = _READERS.get(path)
    if reader is None:
        if len(_READERS) >= 4:  # workers only ever see a path or two
            for stale in _READERS.values():
                stale.close()
            _READERS.clear()
        reader = _READERS[path] = CorpusReader(path)
    return reader


def _segment_job(payload: tuple[str, Callable[..., Any]], index: int) -> Any:
    path, fn = payload
    reader = _cached_reader(path)
    return fn(reader.segment(index), reader.stats[index], index)


def map_segments(
    fn: Callable[..., Any],
    path: _PathLike,
    jobs: int | None = None,
    indices: Sequence[int] | None = None,
) -> list[Any]:
    """Run ``fn(columns, stat, index)`` over each segment of the corpus.

    *fn* must be a module-level function (it crosses the process
    boundary) and its result picklable.  Results are returned in segment
    order — identical to the serial loop — whatever the completion
    order; *jobs* follows the :func:`~repro.parallel.executor.run_jobs`
    convention (``None`` = ambient context, serial by default).
    *indices* restricts the run to a subset of segments, preserving the
    order given.
    """
    path = os.fspath(path)
    if indices is None:
        with CorpusReader(path) as reader:
            segment_count = reader.segment_count
        indices = range(segment_count)
    return run_jobs(_segment_job, list(indices), payload=(path, fn), jobs=jobs)


def segment_kind_counts(
    cols: TraceColumns, stat: Any, index: int
) -> dict[int, int]:
    """Per-segment tally of kind tags (the ``corpus info`` detail rows)."""
    return {kind: n for kind in range(1, 8) if (n := cols.kinds.count(kind))}


def verify_segment_job(cols: TraceColumns, stat: Any, index: int) -> str:
    """Re-derive one segment's footer statistics from its data.

    Returns ``"ok"``; a mismatch raises :class:`CorpusError`.  The
    segment's crc was already checked when the worker's reader served
    *cols* (:meth:`CorpusReader.segment` checks it on every read).  The
    footer it checks against is what
    :class:`~repro.corpus.writer.CorpusWriter` computed when it wrote the
    segment.
    """
    n = len(cols.kinds)
    if n != stat.count:
        raise CorpusError(
            f"segment {index}: {n} rows decoded but footer recorded "
            f"{stat.count}"
        )
    v = column_views(cols)
    checks = (
        ("first time", float(v.times[0]), stat.time_first),
        ("last time", float(v.times[n - 1]), stat.time_last),
        ("min user id", int(v.user_ids.min()), stat.user_lo),
        ("max user id", int(v.user_ids.max()), stat.user_hi),
        ("min file id", int(v.file_ids.min()), stat.file_lo),
        ("max file id", int(v.file_ids.max()), stat.file_hi),
    )
    hist = tuple(
        np.bincount(v.flags, minlength=len(stat.flag_hist))[
            : len(stat.flag_hist)
        ].tolist()
    )
    for label, got, want in checks:
        if got != want:
            raise CorpusError(
                f"segment {index}: {label} is {got} but footer recorded "
                f"{want}"
            )
    if hist != tuple(stat.flag_hist):
        raise CorpusError(
            f"segment {index}: flag histogram {hist} does not match "
            f"footer {tuple(stat.flag_hist)}"
        )
    return "ok"
