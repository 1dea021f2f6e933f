"""The input-driven fallback at every engine dispatcher.

Each dispatcher runs its numpy kernel and reruns the pure-Python
specification only when the kernel raises :class:`VectorFallback` on an
input it cannot reproduce bit for bit.  For every dispatcher, one input
here makes the kernel decline; the test checks that it does, and that
the dispatcher's answer equals the specification's: the per-module
analyzers (:func:`analyze_columns_python`), :func:`pack_stream_python`,
or one :func:`simulate_packed` replay per cache size.  The delayed-write
``replay_packed`` fallback is covered in ``tests/test_veccache.py``.
An inventory of ``src/repro`` keeps the list of dispatchers complete.
"""

from __future__ import annotations

import ast
import random
from array import array
from pathlib import Path

import pytest

from repro.analysis.onepass import analyze_columns_python, analyze_onepass
from repro.analysis.vectorized import (
    VectorFallback,
    analyze_columns_numpy,
    pack_stream_numpy,
)
from repro.cache.policies import WRITE_THROUGH
from repro.cache.stream import Transfer, build_stream
from repro.corpus import CorpusReader, analyze_corpus
from repro.corpus.stream import analyze_corpus_numpy
from repro.corpus.writer import pack_columns
from repro.fuzz.gen import random_trace
from repro.parallel.packed import pack_stream, pack_stream_python, simulate_packed
from repro.parallel.veccache import (
    replay_packed,
    simulate_packed_numpy,
    stack_curve,
    stack_curve_numpy,
)
from repro.trace.columns import TraceColumns

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


def _analyze_corpus(tmp_path):
    cols = _regressing_columns()
    path = tmp_path / "regress.bcorpus"
    pack_columns(cols, path, segment_events=32)

    def kernel():
        with CorpusReader(path) as reader:
            return analyze_corpus_numpy(reader)

    return (
        kernel,
        lambda: analyze_corpus(path),
        lambda: analyze_columns_python(cols),
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
        curve = stack_curve(packed, SIZES, checkpoint_time=20.0)
        return [(curve.metrics(s), curve.checkpoint(s)) for s in SIZES]

    def replayed():
        runs = [
            simulate_packed(packed, s, WRITE_THROUGH, checkpoint_time=20.0)
            for s in SIZES
        ]
        return [(run.metrics, run.checkpoint) for run in runs]

    return (lambda: stack_curve_numpy(packed, SIZES), dispatched, replayed)


def _replay_write_through(tmp_path):
    packed = _wide_file_ids_packed()
    return (
        lambda: simulate_packed_numpy(packed, 8 * 4096, WRITE_THROUGH),
        lambda: replay_packed(packed, 8 * 4096, WRITE_THROUGH),
        lambda: simulate_packed(packed, 8 * 4096, WRITE_THROUGH),
    )


#: Each dispatcher that catches VectorFallback, and its declining case.
CASES = {
    "analyze_onepass": _analyze_onepass,
    "analyze_corpus": _analyze_corpus,
    "pack_stream": _pack_stream,
    "stack_curve": _stack_curve,
    "replay_packed": _replay_write_through,
}


@pytest.mark.parametrize(
    "case", list(CASES.values()), ids=lambda case: case.__name__.lstrip("_")
)
def test_declined_input_gets_the_reference_answer(case, tmp_path):
    kernel, dispatcher, reference = case(tmp_path)
    with pytest.raises(VectorFallback):
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
