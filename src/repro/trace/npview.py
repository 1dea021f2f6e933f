"""Zero-copy numpy views over :class:`~repro.trace.columns.TraceColumns`.

The vectorized engine (:mod:`repro.analysis.vectorized`) consumes trace
columns as flat ``numpy`` arrays.  This module is the only place that
knows how to get them: ``np.frombuffer`` over the existing buffers —
``array('d')``/``array('q')`` for in-RAM traces, ``memoryview`` slices
straight into the mmap for ``.bcorpus`` segments, ``bytes`` for the kind
and flag columns — so building the views copies nothing and costs O(1)
per column regardless of trace length.

Native dtypes are correct on every host: in-RAM ``array`` columns are
native-endian by construction, and :class:`~repro.corpus.reader.CorpusReader`
already normalizes segment columns to native order (zero-copy casts on
little-endian hosts, byteswapped copies on big-endian ones).

numpy is a required dependency: every dispatch site runs its numpy
kernel, and the pure-Python reference runs only when the kernel raises
:class:`~repro.analysis.vectorized.VectorFallback` on an input it cannot
reproduce bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - types only
    from .columns import TraceColumns

__all__ = [
    "ColumnViews",
    "as_f64",
    "as_i64",
    "as_u8",
    "column_views",
    "np",
    "resolve_engine",
]


def resolve_engine(engine: str = "auto") -> str:
    """``"numpy"``, the one engine, for ``"auto"`` or ``"numpy"``.

    Kept for benchmark scripts that record which engine they timed;
    nothing in the package dispatches on it.
    """
    if engine not in ("auto", "numpy"):
        raise ValueError(f"unknown engine {engine!r}; numpy is the only engine")
    return "numpy"


def as_f64(column):
    """A zero-copy float64 view of an 8-byte-per-row float column."""
    return np.frombuffer(column, dtype=np.float64)


def as_i64(column):
    """A zero-copy int64 view of an 8-byte-per-row integer column."""
    return np.frombuffer(column, dtype=np.int64)


def as_u8(column):
    """A zero-copy uint8 view of a byte column (kinds, flags)."""
    return np.frombuffer(column, dtype=np.uint8)


class ColumnViews:
    """The eight columns of one :class:`TraceColumns`, as numpy views.

    Views alias the source buffers: a write through the backing
    ``array`` is visible here (and the views themselves inherit the
    buffer's writability — read-only over ``bytes`` and ``ACCESS_READ``
    mmaps).  Kernels treat them as immutable inputs.
    """

    __slots__ = (
        "kinds",
        "times",
        "open_ids",
        "file_ids",
        "user_ids",
        "sizes",
        "positions",
        "flags",
    )

    def __init__(self, cols: "TraceColumns"):
        self.kinds = as_u8(cols.kinds)
        self.times = as_f64(cols.times)
        self.open_ids = as_i64(cols.open_ids)
        self.file_ids = as_i64(cols.file_ids)
        self.user_ids = as_i64(cols.user_ids)
        self.sizes = as_i64(cols.sizes)
        self.positions = as_i64(cols.positions)
        self.flags = as_u8(cols.flags)

    def __len__(self) -> int:
        return len(self.kinds)


def column_views(cols: "TraceColumns") -> ColumnViews:
    """Zero-copy numpy views over *cols*."""
    return ColumnViews(cols)
