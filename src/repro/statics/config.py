"""Scope lists for the domain rules.

The linter encodes *this repository's* invariants, so the scopes are
named here rather than guessed per file.  Rules consult these tuples via
:func:`in_packages`; tests monkeypatch them to point at fixture modules.
"""

from __future__ import annotations

__all__ = [
    "DETERMINISM_PACKAGES",
    "ORDER_PINNED_PACKAGES",
    "SIMULATOR_PACKAGES",
    "HOT_MODULES",
    "TRACE_COLUMN_ATTRS",
    "PACKED_COLUMN_ATTRS",
    "COLUMN_ATTRS",
    "COLUMN_ORACLE_MODULES",
    "COLUMN_RULE_EXEMPT_PACKAGES",
    "in_packages",
]

#: Packages whose output is pinned by differential oracles and the
#: paper-figure reproductions: wall-clock reads and unseeded randomness
#: here silently corrupt Figures between runs.
DETERMINISM_PACKAGES: tuple[str, ...] = (
    "repro.unixfs",
    "repro.cache",
    "repro.netfs",
    "repro.workload",
    "repro.analysis",
    "repro.fuzz",  # every failure must be replayable from (seed, round)
)

#: Packages whose *iteration order* feeds bit-identical comparisons
#: (the one-pass analyzer and packed replayer are pinned to reference
#: modules field by field).  Iterating a bare ``set`` there trades on
#: hash order.
ORDER_PINNED_PACKAGES: tuple[str, ...] = DETERMINISM_PACKAGES + (
    "repro.parallel",
    "repro.trace",
)

#: Simulator code where a float ``==``/``!=`` is a latent epsilon bug:
#: simulated clocks are sums of float intervals.
SIMULATOR_PACKAGES: tuple[str, ...] = (
    "repro.cache",
    "repro.netfs",
    "repro.disk",
    "repro.parallel",
)

#: Modules on replay/simulation hot paths: every class here must declare
#: ``__slots__`` (directly or via ``@dataclass(slots=True)``) so
#: per-instance dicts never show up millions of times in a sweep.
HOT_MODULES: tuple[str, ...] = (
    "repro.cache.replacement",
    "repro.cache.simulator",
    "repro.cache.stream",
    "repro.parallel.packed",
    "repro.netfs.events",
    "repro.trace.columns",
    "repro.trace.records",
)


#: The eight column attributes of ``TraceColumns`` (the struct-of-arrays
#: row layout shared with ``.bcorpus`` segments and the numpy views).
TRACE_COLUMN_ATTRS: frozenset[str] = frozenset(
    {
        "kinds",
        "times",
        "open_ids",
        "file_ids",
        "user_ids",
        "sizes",
        "positions",
        "flags",
    }
)

#: The flat columns of ``PackedStream`` (one row per block access or
#: invalidation).  ``times`` is shared with the trace layout above, so
#: only the two packed-specific names are listed; together they widen
#: ``REP-H003`` to the cache-simulation half (:mod:`repro.parallel`),
#: where a new per-op Python loop outside the oracle modules is exactly
#: the regression the vectorized engine exists to prevent.
PACKED_COLUMN_ATTRS: frozenset[str] = frozenset({"ops", "keys"})

#: Every column attribute ``REP-H003`` tracks (trace + packed layouts).
COLUMN_ATTRS: frozenset[str] = TRACE_COLUMN_ATTRS | PACKED_COLUMN_ATTRS

#: Modules allowed to loop row-at-a-time over trace columns: the
#: columnar store and codecs themselves, plus the pure-Python reference
#: implementations the vectorized engine is differenced against (the
#: oracle discipline of DESIGN.md — the slow path must stay readable
#: and row-at-a-time *because* it is the spec).  Everywhere else a
#: per-event loop over a column is a latent hot-path regression: route
#: it through :mod:`repro.analysis.vectorized` or justify it with a
#: ``repro: allow[REP-H003]`` comment.
COLUMN_ORACLE_MODULES: tuple[str, ...] = (
    "repro.corpus.reader",
    "repro.corpus.stream",
    "repro.corpus.writer",
    "repro.parallel.packed",
    "repro.trace.columns",
    "repro.trace.io_binary",
    "repro.trace.validate",
)


#: Packages ``REP-H003`` skips outright.  The linter itself walks
#: Python ASTs, whose node fields (``ast.Compare.ops``,
#: ``ast.Dict.keys``) collide with the packed-stream column names —
#: and nothing in it ever touches a trace.
COLUMN_RULE_EXEMPT_PACKAGES: tuple[str, ...] = ("repro.statics",)


def in_packages(module: str, packages: tuple[str, ...]) -> bool:
    """True when dotted *module* is one of *packages* or inside one."""
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )
