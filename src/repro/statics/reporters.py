"""Text, JSON and SARIF reporters for lint results."""

from __future__ import annotations

import json

from .engine import LintReport
from .findings import Severity
from .registry import rule_catalog

__all__ = ["render_text", "render_json", "render_sarif"]


def render_text(report: LintReport) -> str:
    lines = [f.render() for f in sorted(report.findings, key=lambda f: f.sort_key())]
    errors = sum(1 for f in report.findings if f.severity is Severity.ERROR)
    warnings = len(report.findings) - errors
    summary = (
        f"{len(report.findings)} finding(s) "
        f"({errors} error(s), {warnings} warning(s)) in "
        f"{report.files_scanned} file(s); "
        f"{report.suppressed_count} suppressed"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    payload = {
        "version": 1,
        "files_scanned": report.files_scanned,
        "suppressed": report.suppressed_count,
        "findings": [
            {
                "rule": f.rule_id,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "severity": str(f.severity),
                "message": f.message,
                "fingerprint": f.fingerprint,
            }
            for f in sorted(report.findings, key=lambda f: f.sort_key())
        ],
    }
    return json.dumps(payload, indent=2)


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0, the schema GitHub code scanning ingests.

    Suppressed findings are omitted — SARIF is the PR-annotation
    surface, and those are by definition accepted."""
    rules = [
        {
            "id": rule_id,
            "name": rule_id.replace("-", ""),
            "shortDescription": {"text": title},
            "defaultConfiguration": {
                "level": "error" if severity == "error" else "warning"
            },
        }
        for rule_id, severity, title in rule_catalog()
    ]
    index = {entry["id"]: i for i, entry in enumerate(rules)}
    results = [
        {
            "ruleId": f.rule_id,
            "ruleIndex": index.get(f.rule_id, -1),
            "level": "error" if f.severity is Severity.ERROR else "warning",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace("\\", "/"),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col,
                        },
                    }
                }
            ],
            "partialFingerprints": {"reproStaticsFingerprint/v1": f.fingerprint},
        }
        for f in sorted(report.findings, key=lambda f: f.sort_key())
    ]
    payload = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-statics",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2)
