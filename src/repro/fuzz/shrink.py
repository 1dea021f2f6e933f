"""Shrinking and the repro corpus.

:func:`ddmin` is the classic delta-debugging loop over a sequence:
remove ever-smaller chunks (halving granularity, bisection-style) while
the caller's predicate still reports the *same* failure, then retry
single elements until a pass removes nothing.  The predicate receives a
candidate subsequence and must return True only when the original
oracle still fails for the original reason — dropping events can break
trace well-formedness, and a differently-failing trace is a different
bug, not a smaller repro.

The corpus is a flat directory: each entry is a ``<name>.json``
metadata file plus, for event repros, a ``<name>.bcorpus`` trace, whose
exact times replay the repro bit for bit.  :func:`replay_corpus` loads
every entry and re-runs its oracle — repros found on earlier runs are
the first thing a new run checks.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Sequence

from ..corpus.reader import read_corpus_columns
from ..corpus.writer import pack_trace
from ..trace.log import TraceLog
from .gen import SyscallOp

__all__ = ["ddmin", "load_corpus", "replay_corpus", "write_corpus_entry"]


def ddmin(items: Sequence, still_fails: Callable[[list], bool]) -> list:
    """Minimize *items* under *still_fails* (which must hold for *items*)."""
    current = list(items)
    chunk = max(len(current) // 2, 1)
    while chunk >= 1:
        removed_any = True
        while removed_any and len(current) > 1:
            removed_any = False
            start = 0
            while start < len(current):
                candidate = current[:start] + current[start + chunk:]
                if candidate and still_fails(candidate):
                    current = candidate
                    removed_any = True
                else:
                    start += chunk
        if chunk == 1:
            break
        chunk //= 2
    return current


# -- corpus --------------------------------------------------------------------


def write_corpus_entry(
    corpus: str,
    name: str,
    pillar: str,
    detail: str,
    seed: str,
    events: list | None = None,
    ops: list[SyscallOp] | None = None,
) -> str:
    """Write one repro; returns the entry's basename."""
    os.makedirs(corpus, exist_ok=True)
    meta = {"pillar": pillar, "detail": detail, "seed": seed}
    if events is not None:
        log = TraceLog(name=name, events=list(events))
        pack_trace(log, os.path.join(corpus, f"{name}.bcorpus"))
        meta["trace"] = f"{name}.bcorpus"
    if ops is not None:
        meta["ops"] = [op.to_json() for op in ops]
    with open(os.path.join(corpus, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return name


def load_corpus(corpus: str) -> list[dict]:
    """Load every corpus entry's metadata (and its trace, if any)."""
    entries = []
    if not corpus or not os.path.isdir(corpus):
        return entries
    for fname in sorted(os.listdir(corpus)):
        if not fname.endswith(".json"):
            continue
        path = os.path.join(corpus, fname)
        with open(path, encoding="utf-8") as fh:
            meta = json.load(fh)
        meta["name"] = fname[: -len(".json")]
        if "trace" in meta:
            path = os.path.join(corpus, meta["trace"])
            meta["log"] = read_corpus_columns(path).to_log()
        if "ops" in meta:
            meta["op_list"] = [SyscallOp.from_json(op) for op in meta["ops"]]
        entries.append(meta)
    return entries


def replay_corpus(
    corpus: str,
    check_events: Callable[[TraceLog], tuple[str, str] | None],
    check_ops: Callable[[list[SyscallOp]], tuple[str, str] | None],
) -> tuple[int, list[tuple[str, str, str]]]:
    """Re-run every stored repro; returns (replayed, still-failing list).

    Each still-failing item is ``(entry name, pillar, detail)``.  Entries
    that now pass are left in place — they document fixed bugs and cost
    one replay each.
    """
    replayed = 0
    failing: list[tuple[str, str, str]] = []
    for entry in load_corpus(corpus):
        replayed += 1
        if "log" in entry:
            result = check_events(entry["log"])
            if result is not None:
                failing.append((entry["name"], result[0], result[1]))
        if "op_list" in entry:
            result = check_ops(entry["op_list"])
            if result is not None:
                failing.append((entry["name"], result[0], result[1]))
    return replayed, failing
