"""repro.statics — an AST-based invariant linter for this repository.

The runtime correctness story (differential oracles, fsck after long
syntheses) rests on invariants no oracle enforces: seeded randomness
only, deterministic iteration order, picklable payloads across
``repro.parallel``, hot-path classes with ``__slots__``, and the trace
schema staying in lock-step across ``records.py`` / ``columns.py`` /
``io_binary.py``.  This package makes each of those a static, CI-checked
property.

Beyond the per-file syntactic rules, the linter is flow-aware: a
project-wide call graph (:mod:`repro.statics.callgraph`) and an
intraprocedural taint interpreter (:mod:`repro.statics.dataflow`) power
rules that follow values through assignments and modules — RNG
provenance, time-unit mixing, and the cross-module engine-parity
contract around every ``try``/``except VectorFallback`` dispatch.

Entry points::

    repro-fs lint src tests --format json --baseline .statics-baseline.json
    repro-fs lint --changed origin/main          # scoped, pre-commit speed
    repro-fs lint src tests --format sarif       # GitHub code scanning

    from repro.statics import lint_paths
    report = lint_paths(["src"])
    assert report.ok

Rule catalog (see DESIGN.md sections 9 and 14 for the full prose):

=========  ========  =====================================================
id         severity  invariant
=========  ========  =====================================================
REP-D001   error     no wall-clock / OS-entropy reads in deterministic code
REP-D002   error     no unseeded randomness (module-level ``random``)
REP-D003   error     no bare-set iteration / bare ``popitem`` when order
                     is pinned
REP-D004   error     no module-level RNG reached through dataflow aliases
REP-D005   error     no draws from an RNG constructed unseeded upstream
REP-U001   error     float-seconds and u32-centiseconds never mix without
                     an explicit ``* 100`` / ``/ 100`` conversion
REP-P001   error     sweep-executor workers must pickle by reference
REP-P002   error     workers must not mutate module-level state
REP-H001   warning   hot-path classes must define ``__slots__``
REP-H002   error     no float ``==``/``!=`` in simulator code
REP-H003   warning   no per-event loops over trace columns outside the
                     reference-oracle modules (vectorize instead)
REP-S001   error     trace schema agrees across records/columns/io_binary
REP-S002   error     corpus on-disk schema digest matches SCHEMA_DIGESTS
REP-E001   error     every ``VectorFallback`` dispatch keeps a pure-python
                     oracle twin with a matching signature (call-graph
                     checked)
REP-E002   error     every engine dispatch has a fuzz-pillar differential
REP-A000   error     suppressions must name a rule id and a justification
REP-A001   error     no stale suppressions (allow comments matching nothing)
REP-A002   error     file fails to parse (engine-generated)
=========  ========  =====================================================

Findings are suppressed in place with
``# repro: allow[RULE-ID] -- justification`` and grandfathered in bulk
via a committed baseline file (``repro-fs lint --update-baseline``
rewrites it).
"""

from .baseline import load_baseline, write_baseline
from .callgraph import CallGraph, build_callgraph, extract_facts, load_or_build
from .context import ModuleContext, module_name_for
from .dataflow import FlowResult, TaintPolicy, analyze_flow
from .engine import LintReport, collect_files, lint_paths
from .findings import Finding, Severity
from .registry import CROSS_RULES, RULES, rule_catalog
from .reporters import render_json, render_sarif, render_text
from .rules_engines import check_engine_parity, check_fuzz_coverage
from .rules_schema import check_corpus_schema, check_trace_schema

__all__ = [
    "Finding",
    "Severity",
    "LintReport",
    "ModuleContext",
    "module_name_for",
    "CallGraph",
    "build_callgraph",
    "extract_facts",
    "load_or_build",
    "FlowResult",
    "TaintPolicy",
    "analyze_flow",
    "collect_files",
    "lint_paths",
    "load_baseline",
    "write_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_catalog",
    "check_corpus_schema",
    "check_trace_schema",
    "check_engine_parity",
    "check_fuzz_coverage",
    "RULES",
    "CROSS_RULES",
]
