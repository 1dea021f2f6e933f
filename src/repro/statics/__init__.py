"""repro.statics — an AST-based invariant linter for this repository.

The runtime correctness story (differential oracles, fsck after long
syntheses) rests on invariants no oracle enforces: seeded randomness
only, deterministic iteration order, picklable payloads across
``repro.parallel``, hot-path classes with ``__slots__``, and the trace
schema staying in lock-step across ``records.py`` and ``columns.py``.
This package makes each of those a static, CI-checked property.

Every rule reads one file's AST, or, for the schema rules, the few
files that share one on-disk schema.  Whole-program properties (RNG
provenance through aliases, seconds-vs-centiseconds mixing, engine
parity) are left to the tier-1 tests, which catch each of those defect
classes; DESIGN.md section 14 maps each to its tests.

Entry points::

    repro-fs lint src tests --format json
    repro-fs lint src tests --format sarif       # GitHub code scanning

    from repro.statics import lint_paths
    report = lint_paths(["src"])
    assert report.ok

Rule catalog (see DESIGN.md section 9 for the full prose):

=========  ========  =====================================================
id         severity  invariant
=========  ========  =====================================================
REP-D001   error     no wall-clock / OS-entropy reads in deterministic code
REP-D002   error     no unseeded randomness (module-level ``random``)
REP-D003   error     no bare-set iteration / bare ``popitem`` when order
                     is pinned
REP-P001   error     sweep-executor workers must pickle by reference
REP-P002   error     workers must not mutate module-level state
REP-H001   warning   hot-path classes must define ``__slots__``
REP-H002   error     no float ``==``/``!=`` in simulator code
REP-H003   warning   no per-event loops over trace columns outside the
                     reference-oracle modules (vectorize instead)
REP-S001   error     trace schema agrees between records and columns
REP-S002   error     corpus on-disk schema digest matches SCHEMA_DIGESTS
REP-A000   error     suppressions must name a rule id and a justification
REP-A001   error     no stale suppressions (allow comments matching nothing)
REP-A002   error     file fails to parse (engine-generated)
=========  ========  =====================================================

Findings are suppressed in place, one site at a time, with
``# repro: allow[RULE-ID] -- justification``.
"""

from .context import ModuleContext, module_name_for
from .engine import LintReport, collect_files, lint_paths
from .findings import Finding, Severity
from .registry import CROSS_RULES, RULES, rule_catalog
from .reporters import render_json, render_sarif, render_text
from .rules_schema import check_corpus_schema, check_trace_schema

__all__ = [
    "Finding",
    "Severity",
    "LintReport",
    "ModuleContext",
    "module_name_for",
    "collect_files",
    "lint_paths",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_catalog",
    "check_corpus_schema",
    "check_trace_schema",
    "RULES",
    "CROSS_RULES",
]
