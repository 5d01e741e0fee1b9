"""Finding records, severities, and stable fingerprints.

A finding's *fingerprint* identifies it across revisions for the
baseline mechanism: it hashes the rule code, file, enclosing symbol, and
message — but **not** the line number, so unrelated edits that shift
lines do not invalidate a committed baseline.  Two identical findings in
the same symbol share a fingerprint; the baseline stores a count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Ordering for sorting mixed-severity reports (most severe first).
_SEVERITY_RANK = {SEVERITY_ERROR: 0, SEVERITY_WARNING: 1}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    severity: str
    path: str  # project-root-relative, "/" separated
    line: int
    col: int
    message: str
    #: Dotted name of the enclosing function/class ("" at module level).
    symbol: str = ""
    #: How the finding was (not) suppressed: "" | "pragma" | "baseline".
    suppressed_by: str = field(default="", compare=False)

    def fingerprint(self) -> str:
        """Stable identity for baselining (line-number independent)."""
        raw = "\x1f".join((self.code, self.path, self.symbol, self.message))
        return hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }


def sort_findings(findings: list[Finding]) -> list[Finding]:
    """Deterministic report order: path, line, column, code."""
    return sorted(
        findings,
        key=lambda f: (f.path, f.line, f.col, f.code, f.message),
    )


def severity_rank(severity: str) -> int:
    return _SEVERITY_RANK.get(severity, 99)
