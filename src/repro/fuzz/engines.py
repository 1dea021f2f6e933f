"""Pillar 5: the vectorized engine vs the pure-Python reference.

Every numpy kernel in :mod:`repro.analysis.vectorized` claims
bit-identity with its pure-Python twin; this pillar is the machine check
of that claim on every seeded trace:

* :func:`~repro.analysis.vectorized.analyze_columns_numpy` vs
  :func:`~repro.analysis.onepass.analyze_columns_python` (the per-module
  analyzers), field for field including the users dict order;
* :func:`~repro.analysis.vectorized.validate_columns_numpy` vs
  :func:`~repro.trace.validate.validate_columns_python` on the clean
  trace *and* on a deterministically spoiled copy (mutations drawn from
  the check's seed hit every problem family: time regressions,
  out-of-range and NaN times, unknown kinds, bad flag bytes, negative
  fields, duplicated open ids), at several ``max_problems`` including
  the suppression boundary;
* :func:`~repro.analysis.vectorized.build_stream_numpy` vs
  :func:`~repro.cache.stream.build_stream`, item for item, with paging
  off and on;
* :func:`~repro.analysis.vectorized.pack_stream_numpy` vs
  :func:`~repro.parallel.packed.pack_stream_python`, row for row, at two
  block sizes with paging off and on, packing both the reference's
  objects and the stream kernel's arrays;
* the vectorized cache engine (:mod:`repro.parallel.veccache`) vs
  :func:`~repro.parallel.veccache.stack_curve_python` (one
  :func:`~repro.parallel.packed.simulate_packed` replay per size and
  policy): the full miss/hit/eviction curve at seed-chosen cache sizes
  (small ones included — they maximize hole traffic) under seed-chosen
  write policies, exact :class:`~repro.cache.metrics.CacheMetrics` per
  size and policy.

A kernel may decline an input by raising
:class:`~repro.analysis.vectorized.VectorFallback`; production then
runs the reference, so there is nothing to compare and the check passes.
"""

from __future__ import annotations

import random
from array import array

from ..analysis.onepass import analyze_columns_python
from ..analysis.vectorized import (
    VectorFallback,
    analyze_columns_numpy,
    build_stream_numpy,
    pack_stream_numpy,
    validate_columns_numpy,
)
from ..cache.policies import (
    DELAYED_WRITE,
    FLUSH_5MIN,
    FLUSH_30S,
    WRITE_THROUGH,
    PolicySpec,
    WritePolicy,
)
from ..cache.stream import build_stream
from ..parallel.packed import pack_stream_python
from ..parallel.veccache import stack_curve_numpy, stack_curve_python
from ..trace.columns import KIND_CLOSE, KIND_OPEN, KIND_SEEK, TraceColumns
from ..trace.log import TraceLog
from ..trace.validate import validate_columns_python

__all__ = ["check_engines"]

#: Every OnePassReport field with a == comparison (the lazy object
#: fields materialize on access, which is the point: the differential
#: must cover them too).
_REPORT_FIELDS = (
    "accesses",
    "transfers",
    "lifetimes",
    "activity",
    "sequentiality",
    "run_length_by_runs",
    "run_length_by_bytes",
    "open_times",
    "size_by_accesses",
    "size_by_bytes",
    "popularity",
    "users",
    "burstiness",
    "lifetime_by_files",
    "lifetime_by_bytes",
    "daemon_spike",
)

_PACK_BLOCK_SIZES = (4096, 100)


def _reports_differ(fast, ref, label: str) -> str | None:
    for name in _REPORT_FIELDS:
        if getattr(fast, name) != getattr(ref, name):
            return f"{label}: numpy engine disagrees on {name}"
    if list(fast.users) != list(ref.users):
        return f"{label}: numpy engine orders the users dict differently"
    return None


def _spoiled_copy(cols: TraceColumns, rng: random.Random) -> TraceColumns:
    """A mutated clone covering every validator problem family."""
    out = TraceColumns(
        name=cols.name,
        kinds=bytearray(cols.kinds),
        times=array("d", cols.times),
        open_ids=array("q", cols.open_ids),
        file_ids=array("q", cols.file_ids),
        user_ids=array("q", cols.user_ids),
        sizes=array("q", cols.sizes),
        positions=array("q", cols.positions),
        flags=bytearray(cols.flags),
    )
    n = len(out)
    for _ in range(max(4, n // 4)):
        r = rng.randrange(n)
        choice = rng.randrange(12)
        if choice == 0:
            out.times[r] = -rng.random() * 10.0
        elif choice == 1:
            out.times[r] = 2.0**33
        elif choice == 2:
            out.times[r] = float("nan")
        elif choice == 3:
            out.kinds[r] = rng.randrange(100, 256)
        elif choice == 4:
            out.flags[r] = rng.randrange(1, 256)
        elif choice == 5:
            out.flags[r] = 0  # open rows: no mode bits
        elif choice == 6:
            out.sizes[r] = -rng.randrange(1, 100)
        elif choice == 7:
            out.positions[r] = -rng.randrange(1, 100)
        elif choice == 8:
            out.open_ids[r] = out.open_ids[rng.randrange(n)]
        elif choice == 9:
            out.kinds[r] = KIND_CLOSE
        elif choice == 10:
            out.kinds[r] = KIND_SEEK
        else:
            out.kinds[r] = KIND_OPEN
            out.positions[r] = out.sizes[r] + rng.randrange(1, 1000)
    for _ in range(max(2, n // 16)):
        r = rng.randrange(1, n) if n > 1 else 0
        out.times[r] = out.times[r - 1] - 1.0
    return out


def _validators_differ(cols: TraceColumns, max_problems: int, label: str) -> str | None:
    fast = validate_columns_numpy(cols, max_problems)
    ref = validate_columns_python(cols, max_problems)
    if fast != ref:
        return (
            f"{label}: numpy validator disagrees at "
            f"max_problems={max_problems} ({fast} vs {ref})"
        )
    return None


def check_engines(log: TraceLog, seed: int | str = 0) -> str | None:
    """Compare every vectorized kernel against its Python twin on *log*.

    Returns ``None`` or a first-divergence description.  Deterministic
    per ``(log, seed)``.
    """
    rng = random.Random(f"engines:{seed}")
    cols = TraceColumns.from_log(log)
    n = len(cols)

    # Analyzer: the kernel against the per-module specification.
    ref = analyze_columns_python(cols)
    try:
        detail = _reports_differ(analyze_columns_numpy(cols), ref, "analyze")
    except VectorFallback:
        detail = None  # production reruns the reference: nothing to compare
    if detail is not None:
        return detail

    # Validator: the clean trace, then a spoiled copy at several caps
    # (the spoiled run crosses the suppression boundary).
    detail = _validators_differ(cols, 50, "validate[clean]")
    if detail is not None:
        return detail
    if n:
        spoiled = _spoiled_copy(cols, rng)
        for max_problems in (1, 8, 50):
            detail = _validators_differ(
                spoiled, max_problems, "validate[spoiled]"
            )
            if detail is not None:
                return detail

    # Stream kernel and packed-stream compiler, paging off and on: the
    # kernel's items, then the rows packed from the reference's objects
    # and from the kernel's arrays, against the references.
    for paging in (False, True):
        stream = build_stream(log, include_paging=paging)
        sources = [stream]
        try:
            arrays = build_stream_numpy(cols, paging)
        except VectorFallback:
            pass
        else:
            if list(arrays) != stream:
                return f"build_stream(include_paging={paging}): numpy kernel diverges"
            sources.append(arrays)
        for bs in _PACK_BLOCK_SIZES:
            ref_p = pack_stream_python(stream, bs, start_time=log.start_time)
            for source in sources:
                try:
                    fast = pack_stream_numpy(source, bs, start_time=log.start_time)
                except VectorFallback:
                    continue
                if fast != ref_p:
                    return (
                        f"pack_stream(block_size={bs}, paging={paging}, "
                        f"{type(source).__name__}): numpy engine diverges"
                    )
            if not paging:
                detail = _curves_differ(ref_p, rng, f"veccache[bs={bs}]")
                if detail is not None:
                    return detail
    return None


def _curves_differ(packed, rng: random.Random, label: str) -> str | None:
    """The vectorized cache engine vs per-size, per-policy packed replays."""
    bs = packed.block_size
    # Seed-chosen capacities, small ones first: a 1-2 block cache keeps
    # the stack boundary pointers inside the hole churn, which is where
    # the vectorized removal-sequence reconstruction can go wrong.
    caps = sorted({1, 2, rng.randrange(1, 64), rng.randrange(1, 2048)})
    sizes = tuple(c * bs for c in caps)
    # Seed-chosen write policies: the paper's four plus a flush interval
    # short enough to fall between the rows of a small trace.
    short = PolicySpec(WritePolicy.FLUSH_BACK, rng.choice((2.0, 7.5, 20.0)))
    pool = (WRITE_THROUGH, FLUSH_30S, FLUSH_5MIN, DELAYED_WRITE, short)
    policies = tuple(rng.sample(pool, rng.randrange(1, len(pool) + 1)))
    ref = stack_curve_python(packed, sizes, policies)
    try:
        fast = stack_curve_numpy(packed, sizes, policies)
    except VectorFallback:
        # The kernel declined this input (out-of-range keys); dispatch
        # would rerun the specification, so there is nothing to compare.
        return None
    for policy in policies:
        for size in sizes:
            where = f"{size} bytes, {policy.label}"
            if fast.metrics(size, policy) != ref.metrics(size, policy):
                return f"{label}: curve metrics diverge at {where}"
    return None
