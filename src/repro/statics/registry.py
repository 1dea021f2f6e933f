"""The rule registry.

Per-module rules receive a :class:`~repro.statics.context.ModuleContext`
and yield findings.  Cross-artifact rules receive the whole set of
scanned files — that is how the trace-schema drift check sees
``records.py``, ``columns.py`` and ``io_binary.py`` together.

Rules register themselves at import time via the decorators; the engine
imports the rule modules and iterates :data:`RULES` / :data:`CROSS_RULES`.
The findings the engine raises itself are declared in
:data:`ENGINE_RULES`, so :func:`rule_catalog` lists every id the linter
can emit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .context import ModuleContext
from .findings import Finding, Severity

__all__ = [
    "Rule",
    "CrossRule",
    "RULES",
    "CROSS_RULES",
    "ENGINE_RULES",
    "rule",
    "cross_rule",
    "rule_catalog",
]

ModuleCheck = Callable[[ModuleContext], Iterator[Finding]]
CrossCheck = Callable[[Iterable[Path]], Iterator[Finding]]


@dataclass(frozen=True, slots=True)
class Rule:
    """One per-module invariant check."""

    id: str
    title: str
    severity: Severity
    check: ModuleCheck


@dataclass(frozen=True, slots=True)
class CrossRule:
    """One cross-artifact invariant check over the scanned file set."""

    id: str
    title: str
    severity: Severity
    check: CrossCheck


RULES: dict[str, Rule] = {}
CROSS_RULES: dict[str, CrossRule] = {}

#: Findings the engine emits with no check function: (severity, title).
ENGINE_RULES: dict[str, tuple[Severity, str]] = {
    "REP-A001": (Severity.ERROR, "stale suppression comment"),
    "REP-A002": (Severity.ERROR, "file does not parse or cannot be read"),
}


def rule(rule_id: str, title: str, severity: Severity = Severity.ERROR):
    """Register a per-module rule; the decorated function is its check."""

    def decorator(fn: ModuleCheck) -> ModuleCheck:
        if rule_id in RULES or rule_id in CROSS_RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = Rule(rule_id, title, severity, fn)
        return fn

    return decorator


def cross_rule(rule_id: str, title: str, severity: Severity = Severity.ERROR):
    """Register a cross-artifact rule run once per lint invocation."""

    def decorator(fn: CrossCheck) -> CrossCheck:
        if rule_id in RULES or rule_id in CROSS_RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        CROSS_RULES[rule_id] = CrossRule(rule_id, title, severity, fn)
        return fn

    return decorator


def rule_catalog() -> list[tuple[str, str, str]]:
    """(id, severity, title) rows for every rule id the linter can emit."""
    rows = [(r.id, str(r.severity), r.title) for r in RULES.values()]
    rows += [(r.id, str(r.severity), r.title) for r in CROSS_RULES.values()]
    rows += [
        (rule_id, str(severity), title)
        for rule_id, (severity, title) in ENGINE_RULES.items()
    ]
    return sorted(rows)
