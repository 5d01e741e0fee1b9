"""repro.lint — domain-aware static analysis for the MRBC engine.

Rule families: ``RL1xx`` determinism, ``RL2xx`` CONGEST protocol,
``RL3xx`` Gluon delayed synchronization, ``RL4xx`` observability /
resilience hygiene.  Every rule is a per-file AST pass.  See
``docs/STATIC_ANALYSIS.md`` for the full rule table and the paper
invariants each encodes.

Programmatic entry points::

    from repro.lint import lint_main          # CLI (repro lint ...)
    from repro.lint import run_lint, RULES    # library use
"""

from repro.lint.baseline import Baseline
from repro.lint.cli import lint_main
from repro.lint.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
    sort_findings,
)
from repro.lint.runner import LintResult, lint_file, run_lint
from repro.lint.rules import RULES, ModuleInfo, run_rules

__all__ = [
    "Baseline",
    "Finding",
    "LintResult",
    "ModuleInfo",
    "RULES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "lint_file",
    "lint_main",
    "run_lint",
    "run_rules",
    "sort_findings",
]
