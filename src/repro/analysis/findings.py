"""Finding records produced by the static-analysis rules.

A :class:`Finding` is one rule violation at one source location. Findings
are value objects: hashable, totally ordered by location, and round-trip
through plain dicts for the ``--format json`` output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Severity", "Finding"]


class Severity(str, enum.Enum):
    """How bad a finding is. Values double as the JSON ``severity`` field."""

    ERROR = "error"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation.

    Attributes
    ----------
    path:
        Source file, relative to the lint root when possible.
    line, col:
        1-based line and 0-based column (the :mod:`ast` convention).
    rule_id:
        Stable rule identifier (``REP101``, ``REP203``, ...).
    message:
        Human-readable description of the violation.
    severity:
        :class:`Severity` of the rule that produced the finding.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: Severity = Severity.ERROR

    def to_dict(self) -> dict:
        """Flat dict for JSON output (and :meth:`from_dict` round-trips)."""
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, record: dict) -> Finding:
        return cls(
            path=record["path"],
            line=int(record["line"]),
            col=int(record.get("col", 0)),
            rule_id=record["rule"],
            message=record["message"],
            severity=Severity(record.get("severity", "error")),
        )

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity.value}] {self.message}"
        )
