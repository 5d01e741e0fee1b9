"""Drive the rule registry over a file tree and render the report.

The pipeline per file: read → parse (`RL900` on syntax errors) → run
enabled rules → drop pragma-suppressed findings → drop baseline-matched
findings.  The runner returns both the *active* findings (what fails the
build) and the suppressed ones (so ``--format json`` can show the full
picture and ``--write-baseline`` can capture everything).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint import pragmas as pragmas_mod
from repro.lint.baseline import Baseline
from repro.lint.findings import SEVERITY_ERROR, Finding, sort_findings
from repro.lint.rules import RULES, ModuleInfo, run_rules

#: Directory names never descended into.
_SKIP_DIRS = {".git", "__pycache__", ".ruff_cache", ".pytest_cache", "build"}

PARSE_ERROR_CODE = "RL900"


@dataclass
class LintResult:
    active: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    stale_baseline: dict[str, dict[str, object]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.active


def iter_python_files(targets: list[str | Path]) -> list[Path]:
    out: list[Path] = []
    for target in targets:
        p = Path(target)
        if p.is_file() and p.suffix == ".py":
            out.append(p)
        elif p.is_dir():
            out.extend(
                f
                for f in sorted(p.rglob("*.py"))
                if not (_SKIP_DIRS & set(f.parts))
            )
    # de-dup while keeping deterministic order
    seen: set[Path] = set()
    uniq: list[Path] = []
    for f in out:
        r = f.resolve()
        if r not in seen:
            seen.add(r)
            uniq.append(f)
    return uniq


def lint_file(
    path: Path, project_root: Path, enabled: set[str] | None = None
) -> tuple[list[Finding], list[Finding]]:
    """Lint one file → (active, pragma-suppressed) findings."""
    try:
        relpath = str(path.resolve().relative_to(project_root.resolve()))
    except ValueError:
        relpath = str(path)
    relpath = relpath.replace("\\", "/")
    source = path.read_text(encoding="utf-8")
    try:
        mod = ModuleInfo(path=str(path), relpath=relpath, source=source)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    code=PARSE_ERROR_CODE,
                    severity=SEVERITY_ERROR,
                    path=relpath,
                    line=exc.lineno or 1,
                    col=(exc.offset or 0) + 1,
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            [],
        )
    findings = run_rules(mod, enabled=enabled)
    line_pragmas = pragmas_mod.parse_pragmas(source)
    active: list[Finding] = []
    suppressed: list[Finding] = []
    for f in findings:
        if pragmas_mod.is_suppressed(line_pragmas, f.line, f.code):
            suppressed.append(
                Finding(**{**f.__dict__, "suppressed_by": "pragma"})
            )
        else:
            active.append(f)
    return active, suppressed


def run_lint(
    targets: list[str | Path],
    project_root: Path,
    enabled: set[str] | None = None,
    baseline: Baseline | None = None,
) -> LintResult:
    result = LintResult()
    if baseline is not None:
        baseline.reset()
    for path in iter_python_files(targets):
        active, suppressed = lint_file(path, project_root, enabled=enabled)
        result.files_checked += 1
        result.suppressed.extend(suppressed)
        for f in sort_findings(active):
            if baseline is not None and baseline.matches(f):
                result.suppressed.append(
                    Finding(**{**f.__dict__, "suppressed_by": "baseline"})
                )
            else:
                result.active.append(f)
    result.active = sort_findings(result.active)
    result.suppressed = sort_findings(result.suppressed)
    if baseline is not None:
        result.stale_baseline = baseline.stale_entries()
    return result


# -- rendering -----------------------------------------------------------------


def render_text(result: LintResult, stream=None) -> None:
    stream = stream or sys.stdout
    for f in result.active:
        print(
            f"{f.location()}: {f.severity}: {f.code} {f.message}"
            + (f"  [{f.symbol}]" if f.symbol else ""),
            file=stream,
        )
    n_err = sum(1 for f in result.active if f.severity == SEVERITY_ERROR)
    n_warn = len(result.active) - n_err
    print(
        f"repro-lint: {result.files_checked} files, "
        f"{n_err} error(s), {n_warn} warning(s), "
        f"{len(result.suppressed)} suppressed"
        + (" -- PASS" if result.ok else " -- FAIL"),
        file=stream,
    )
    if result.stale_baseline:
        print(
            f"note: {len(result.stale_baseline)} stale baseline "
            "entr(y/ies) no longer match any finding; regenerate with "
            "--write-baseline to drop them",
            file=stream,
        )


def render_json(result: LintResult, stream=None) -> None:
    stream = stream or sys.stdout
    payload = {
        "pass": result.ok,
        "files_checked": result.files_checked,
        "rules": {
            code: {
                "name": rule.name,
                "severity": rule.severity,
                "summary": rule.summary,
            }
            for code, rule in sorted(RULES.items())
        },
        "findings": [f.to_dict() for f in result.active],
        "suppressed": [
            {**f.to_dict(), "suppressed_by": f.suppressed_by}
            for f in result.suppressed
        ],
        "stale_baseline": result.stale_baseline,
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")
