"""Memory gates for the numpy kernels on the paper's path.

Each kernel's tracemalloc peak while it runs, above the inputs it is
handed, in bytes per input row, on one seeded trace: a 4 h seed-7 A5
trace spooled to a corpus once per module.  numpy reports its array
buffers to tracemalloc, so the count covers every temporary a kernel
makes, and it reads the same on every host, unlike a time.  Each bound
is ~15% above the peak measured with numpy 2.4 on Python 3.11; the
headroom is for other numpy and Python versions.  A kernel that holds
its temporaries past their last use, or widens its row indices back to
int64, crosses its bound.
"""

from __future__ import annotations

import gc
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.analysis.vectorized import (
    VectorizedCollector,
    build_stream_numpy,
    pack_stream_numpy,
)
from repro.cache.sweep import PAPER_CACHE_SIZES, PAPER_POLICIES
from repro.corpus import CorpusReader
from repro.parallel.veccache import stack_curve_numpy
from repro.workload.generator import generate
from repro.workload.profiles import UCBARPA

BLOCK_SIZE = 4096

#: kernel -> (its input rows, the call, bytes per row allowed).  The
#: measured peaks: load 50.2 (the columns themselves are 50 bytes a
#: row), analyze 137.0, stream 53.6, pack 65.8 and curve 85.7.
KERNELS = {
    "load": (lambda x: x.events, lambda x: x.reader.to_columns(), 58),
    "analyze": (
        lambda x: x.events,
        lambda x: VectorizedCollector(x.cols).finish().render(),
        158,
    ),
    "stream": (lambda x: x.events, lambda x: build_stream_numpy(x.cols), 62),
    "pack": (
        lambda x: len(x.stream),
        lambda x: pack_stream_numpy(x.stream, BLOCK_SIZE),
        76,
    ),
    "curve": (
        lambda x: len(x.packed),
        lambda x: stack_curve_numpy(x.packed, PAPER_CACHE_SIZES, PAPER_POLICIES),
        99,
    ),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "A5.bcorpus"
    generate(UCBARPA, seed=7, duration=4 * 3600.0, spool=path)
    with CorpusReader(path) as reader:
        cols = reader.to_columns()
        stream = build_stream_numpy(cols)
        yield SimpleNamespace(
            reader=reader,
            events=len(cols),
            cols=cols,
            stream=stream,
            packed=pack_stream_numpy(stream, BLOCK_SIZE),
        )


def _peak_bytes(call) -> int:
    """The tracemalloc peak while *call* runs, above what was traced
    before it (its result is dropped when it returns)."""
    gc.collect()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("kernel", list(KERNELS))
def test_kernel_peak_per_row(kernel, inputs):
    rows_of, run, bound = KERNELS[kernel]
    rows = rows_of(inputs)
    assert rows > 10_000
    per_row = _peak_bytes(lambda: run(inputs)) / rows
    assert per_row <= bound, (
        f"{kernel}: {per_row:.1f} bytes per row at its peak, bound {bound}"
    )
