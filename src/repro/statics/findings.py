"""Lint findings.

A :class:`Finding` is one rule violation at one source location.  Its
*message* deliberately excludes the line number: the JSON and SARIF
reporters fingerprint findings by ``(rule, path, message)`` so that code
scanning tracks one finding across unrelated edits that shift lines.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field

__all__ = ["Severity", "Finding"]


class Severity(enum.Enum):
    """How bad a finding is.  Both levels fail the lint; the split exists
    so reporters can order output and humans can triage."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at ``path:line:col``."""

    rule_id: str
    path: str
    line: int
    col: int
    severity: Severity
    message: str
    #: Justification text when the finding was suppressed (allow comment).
    suppressed_by: str | None = field(default=None, compare=False)

    @property
    def fingerprint(self) -> str:
        """Line-number-free identity (SARIF ``partialFingerprints``)."""
        raw = f"{self.rule_id}|{self.path}|{self.message}"
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} {self.severity}: {self.message}"
        )

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)
