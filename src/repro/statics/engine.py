"""The lint engine: collect files, run rules, apply suppressions.

The engine is deterministic end to end (files sorted, findings sorted),
for the obvious reason that a determinism linter had better not flake.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .context import ModuleContext
from .findings import Finding, Severity
from .registry import CROSS_RULES, RULES, rule, rule_catalog

# Importing the rule modules populates the registry.
from . import rules_determinism  # noqa: F401
from . import rules_hotpath  # noqa: F401
from . import rules_parallel  # noqa: F401
from . import rules_schema  # noqa: F401

__all__ = ["LintReport", "collect_files", "lint_paths"]


def _known_rule_ids() -> set[str]:
    return {rule_id for rule_id, _severity, _title in rule_catalog()}


@rule("REP-A000", "malformed suppression comment")
def check_suppression_hygiene(ctx: ModuleContext) -> Iterator[Finding]:
    known = _known_rule_ids()
    for line, supp in sorted(ctx.suppressions.items()):
        if not supp.justification:
            yield Finding(
                rule_id="REP-A000",
                path=ctx.display_path,
                line=line,
                col=1,
                severity=Severity.ERROR,
                message="suppression comment has no justification; write "
                "`# repro: allow[RULE-ID] -- why this is safe`",
            )
        unknown = sorted(supp.rule_ids - known)
        if unknown:
            yield Finding(
                rule_id="REP-A000",
                path=ctx.display_path,
                line=line,
                col=1,
                severity=Severity.ERROR,
                message=f"suppression names unknown rule id(s) "
                f"{', '.join(unknown)}",
            )


@dataclass(slots=True)
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def suppressed_count(self) -> int:
        return len(self.suppressed)


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand *paths* into a sorted, de-duplicated list of .py files.

    Inside a directory, ``__pycache__`` and hidden directories are
    skipped; the directory named in *paths* is scanned whatever its own
    path looks like (``..``, ``.ci``).  A path that does not exist
    raises :class:`FileNotFoundError` rather than scanning nothing.
    """
    seen: set[Path] = set()
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not any(
                    part == "__pycache__" or part.startswith(".")
                    for part in p.relative_to(path).parts[:-1]
                )
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                out.append(candidate)
    return out


def _parse_error_finding(path: Path, exc: SyntaxError) -> Finding:
    return Finding(
        rule_id="REP-A002",
        path=str(path),
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1,
        severity=Severity.ERROR,
        message=f"file does not parse: {exc.msg}",
    )


def _stale_suppression_findings(
    contexts: dict[str, ModuleContext],
) -> list[Finding]:
    """``REP-A001``: allow comments that matched no finding this run.

    Suppressions naming only unknown rule ids are REP-A000's to report,
    not stale.
    """
    known = _known_rule_ids()
    out: list[Finding] = []
    for ctx in contexts.values():
        for line, supp in sorted(ctx.suppressions.items()):
            if line in ctx.used_suppressions:
                continue
            named = sorted(supp.rule_ids & known)
            if not named:
                continue
            out.append(
                Finding(
                    rule_id="REP-A001",
                    path=ctx.display_path,
                    line=line,
                    col=1,
                    severity=Severity.ERROR,
                    message=f"suppression for {', '.join(named)} no longer "
                    "matches any finding; delete the stale "
                    "`# repro: allow` comment",
                )
            )
    return out


def lint_paths(paths: Iterable[str | Path]) -> LintReport:
    """Lint every .py file under *paths*; returns the full report."""
    files = collect_files(paths)
    report = LintReport(files_scanned=len(files))
    contexts: dict[str, ModuleContext] = {}
    raw_findings: list[Finding] = []

    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
            ctx = ModuleContext(path, source, display_path=str(path))
        except SyntaxError as exc:
            raw_findings.append(_parse_error_finding(path, exc))
            continue
        except (OSError, UnicodeDecodeError) as exc:
            raw_findings.append(
                Finding(
                    rule_id="REP-A002",
                    path=str(path),
                    line=1,
                    col=1,
                    severity=Severity.ERROR,
                    message=f"file could not be read: {exc}",
                )
            )
            continue
        contexts[ctx.display_path] = ctx
        for rule_obj in RULES.values():
            raw_findings.extend(rule_obj.check(ctx))

    for cross in CROSS_RULES.values():
        raw_findings.extend(cross.check(files))

    def _apply(finding: Finding) -> None:
        ctx = contexts.get(finding.path)
        supp = (
            ctx.suppression_for(finding.rule_id, finding.line)
            if ctx is not None
            else None
        )
        if supp is not None:
            report.suppressed.append(
                Finding(
                    rule_id=finding.rule_id,
                    path=finding.path,
                    line=finding.line,
                    col=finding.col,
                    severity=finding.severity,
                    message=finding.message,
                    suppressed_by=supp.justification,
                )
            )
        else:
            report.findings.append(finding)

    for finding in raw_findings:
        _apply(finding)

    # Staleness is judged after every rule finding has had its chance
    # to consume a suppression; the stale findings themselves can be
    # suppressed (on their own line) like any other.
    for finding in _stale_suppression_findings(contexts):
        _apply(finding)

    report.findings.sort(key=lambda f: f.sort_key())
    report.suppressed.sort(key=lambda f: f.sort_key())
    return report
