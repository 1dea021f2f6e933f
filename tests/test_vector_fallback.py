"""The input-driven fallback at every engine dispatcher.

Each dispatcher runs its numpy kernel and reruns the pure-Python
specification only when the kernel raises :class:`VectorFallback` on an
input it cannot reproduce bit for bit.  For every dispatcher, one input
here makes the kernel decline, and so does a row count at the int32
limit of each kernel that holds row numbers in int32; the tests check
that it does, and that the dispatcher's answer equals the
specification's: the per-module
analyzers (:func:`analyze_columns_python`), :func:`build_stream` (for
the stream kernel :func:`build_stream_numpy`), :func:`pack_stream_python`,
or one :func:`simulate_packed` replay per cache size and write policy.
An inventory of ``src/repro`` keeps the list of dispatchers complete.
"""

from __future__ import annotations

import ast
import dataclasses
import random
from array import array
from pathlib import Path

import pytest

from repro.analysis import vectorized
from repro.analysis.onepass import analyze_columns_python, analyze_onepass
from repro.analysis.vectorized import (
    VectorFallback,
    analyze_columns_numpy,
    build_stream_numpy,
    pack_stream_numpy,
)
from repro.cache.sweep import PAPER_POLICIES
from repro.cache.stream import Transfer, build_stream, derive_stream
from repro.corpus import analyze_corpus
from repro.corpus.writer import pack_columns
from repro.fuzz.gen import random_trace
from repro.parallel.packed import pack_stream, pack_stream_python, simulate_packed
from repro.parallel.veccache import stack_curve, stack_curve_numpy
from repro.trace.columns import TraceColumns
from repro.trace.log import TraceLog

SIZES = (4096, 8 * 4096, 64 * 4096)
REPO_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def _regressing_columns() -> TraceColumns:
    """A random trace with one timestamp moved before its predecessor."""
    cols = TraceColumns.from_log(random_trace(random.Random("fallback"), 120))
    times = array("d", cols.times)
    mid = len(times) // 2
    times[mid] = times[mid - 1] - 5.0
    return TraceColumns(
        name=cols.name,
        kinds=cols.kinds,
        times=times,
        open_ids=cols.open_ids,
        file_ids=cols.file_ids,
        user_ids=cols.user_ids,
        sizes=cols.sizes,
        positions=cols.positions,
        flags=cols.flags,
    )


def _wide_file_ids_packed():
    """A packed stream whose file ids lie past the cache kernel's range."""
    items = [
        Transfer(time=float(i), file_id=(1 << 32) + i % 3, user_id=1,
                 start=(i % 4) * 4096, end=(i % 4 + 2) * 4096,
                 is_write=i % 3 == 0)
        for i in range(40)
    ]
    return pack_stream(items, 4096)


def _analyze_onepass(tmp_path):
    cols = _regressing_columns()
    return (
        lambda: analyze_columns_numpy(cols),
        lambda: analyze_onepass(cols),
        lambda: analyze_columns_python(cols),
    )


def _derive_stream(tmp_path):
    # A NaN time has no place in the (time, row) order the kernel sorts
    # by; the reference's tuple sort still gives a deterministic answer.
    events = list(random_trace(random.Random("fallback-stream"), 80).events)
    mid = len(events) // 2
    events[mid] = dataclasses.replace(events[mid], time=float("nan"))
    log = TraceLog(name="nan", events=events)
    return (
        lambda: build_stream_numpy(TraceColumns.from_log(log)),
        lambda: derive_stream(log),
        lambda: build_stream(log),
    )


def _pack_stream(tmp_path):
    stream = build_stream(random_trace(random.Random("fallback-pack"), 80))
    block_size = (1 << 32) + 4096
    return (
        lambda: pack_stream_numpy(stream, block_size),
        lambda: pack_stream(stream, block_size),
        lambda: pack_stream_python(stream, block_size),
    )


def _stack_curve(tmp_path):
    packed = _wide_file_ids_packed()

    def dispatched():
        curve = stack_curve(packed, SIZES, PAPER_POLICIES)
        return [curve.metrics(s, p) for p in PAPER_POLICIES for s in SIZES]

    def replayed():
        return [
            simulate_packed(packed, s, p, flush_epoch=packed.start_time).metrics
            for p in PAPER_POLICIES
            for s in SIZES
        ]

    return (
        lambda: stack_curve_numpy(packed, SIZES, PAPER_POLICIES),
        dispatched,
        replayed,
    )


#: Each dispatcher that catches VectorFallback, and its declining case.
CASES = {
    "analyze_onepass": _analyze_onepass,
    "derive_stream": _derive_stream,
    "pack_stream": _pack_stream,
    "stack_curve": _stack_curve,
}


@pytest.mark.parametrize(
    "case", list(CASES.values()), ids=lambda case: case.__name__.lstrip("_")
)
def test_declined_input_gets_the_reference_answer(case, tmp_path):
    kernel, dispatcher, reference = case(tmp_path)
    with pytest.raises(VectorFallback):
        kernel()
    assert dispatcher() == reference()


def test_analyze_corpus_of_a_declined_corpus(tmp_path):
    # analyze_corpus catches nothing itself: the corpus is loaded whole
    # and analyze_onepass's fallback answers with the specification.
    cols = _regressing_columns()
    path = tmp_path / "regress.bcorpus"
    pack_columns(cols, path, segment_events=32)
    assert analyze_corpus(path) == analyze_columns_python(cols)


def _rows_of(seed: str) -> TraceColumns:
    return TraceColumns.from_log(random_trace(random.Random(seed), 120))


def _analyzer_rows():
    cols = _rows_of("rows-analyze")
    return len(cols), (
        lambda: analyze_columns_numpy(cols),
        lambda: analyze_onepass(cols),
        lambda: analyze_columns_python(cols),
    )


def _stream_rows():
    log = _rows_of("rows-stream").to_log()
    return len(log), (
        lambda: build_stream_numpy(TraceColumns.from_log(log)),
        lambda: derive_stream(log),
        lambda: build_stream(log),
    )


def _pack_rows():
    stream = build_stream(_rows_of("rows-pack").to_log())
    rows = len(pack_stream_python(stream, 4096))
    return rows, (
        lambda: pack_stream_numpy(stream, 4096),
        lambda: pack_stream(stream, 4096),
        lambda: pack_stream_python(stream, 4096),
    )


#: The kernels that hold row numbers in int32, each with an input and
#: its row count (the pack kernel counts its output rows).
ROW_LIMIT_CASES = {
    "analyze_onepass": _analyzer_rows,
    "derive_stream": _stream_rows,
    "pack_stream": _pack_rows,
}


@pytest.mark.parametrize(
    "case", list(ROW_LIMIT_CASES.values()), ids=lambda case: case.__name__.lstrip("_")
)
def test_rows_at_the_int32_limit_get_the_reference_answer(case, monkeypatch):
    # Lowering the limit to the input's row count stands in for a
    # 2**31-row input, which no test can build.
    rows, (kernel, dispatcher, reference) = case()
    kernel()  # the input itself is one the kernel takes
    monkeypatch.setattr(vectorized, "_ROW_LIMIT", rows)
    with pytest.raises(VectorFallback, match="int32 row numbers"):
        kernel()
    assert dispatcher() == reference()


def _catches_vector_fallback(node: ast.AST) -> bool:
    """An ``except`` clause naming VectorFallback, alone or in a tuple."""
    if not isinstance(node, ast.ExceptHandler) or node.type is None:
        return False
    return any(
        getattr(name, "id", getattr(name, "attr", None)) == "VectorFallback"
        for name in ast.walk(node.type)
    )


def test_every_dispatcher_has_a_case():
    # The fuzz pillars catch VectorFallback to compare kernel and
    # reference directly; every other catch is a production dispatcher.
    dispatchers = []
    for path in sorted(REPO_PACKAGE.rglob("*.py")):
        if path.relative_to(REPO_PACKAGE).parts[0] == "fuzz":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dispatchers += [
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(_catches_vector_fallback, ast.walk(fn)))
        ]
    assert sorted(dispatchers) == sorted(CASES)
