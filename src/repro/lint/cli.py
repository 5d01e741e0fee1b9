"""``repro lint`` — the command-line front end.

Examples::

    repro lint src tests                     # config-driven baseline, text
    repro lint src --format json             # machine-readable report
    repro lint src tests --no-baseline       # show everything, incl. baselined
    repro lint src tests --write-baseline    # (re)capture + prune report
    repro lint --list-rules

Exit status: 0 when no *new* findings remain after pragma and baseline
suppression, 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.baseline import Baseline
from repro.lint.config import find_project_root, load_config
from repro.lint.findings import SEVERITY_ERROR
from repro.lint.rules import RULES
from repro.lint.runner import PARSE_ERROR_CODE, render_json, render_text, run_lint


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Domain-aware static analysis: determinism (RL1xx), CONGEST "
            "protocol conformance (RL2xx), delayed-sync safety (RL3xx), "
            "obs/resilience hygiene (RL4xx)."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=[],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    p.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help=(
            "baseline file suppressing pre-existing findings "
            "(default: [tool.repro-lint].baseline if it exists)"
        ),
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline; report every finding",
    )
    p.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "write all current findings to the baseline file (pruning and "
            "reporting stale entries) and exit 0"
        ),
    )
    p.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run exclusively (e.g. RL101,RL203)",
    )
    p.add_argument(
        "--disable",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to skip",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule registry and exit"
    )
    return p


def _split_codes(raw: str | None) -> set[str]:
    if not raw:
        return set()
    return {tok.strip() for tok in raw.split(",") if tok.strip()}


def _report_baseline_prune(old: Baseline, new: Baseline) -> None:
    """Explain every entry --write-baseline dropped, and why."""
    pruned = {
        fp: entry for fp, entry in old.entries.items() if fp not in new.entries
    }
    if not pruned:
        return
    print(f"repro lint: pruned {len(pruned)} stale baseline entr(y/ies):")
    for fp in sorted(pruned):
        entry = pruned[fp]
        code = str(entry.get("code", "?"))
        reason = (
            "rule retired" if code not in RULES else "finding fixed or renamed"
        )
        print(f"  - {fp}  {code} at {entry.get('where', '?')}  ({reason})")


def lint_main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for code, rule in sorted(RULES.items()):
            print(f"{code}  {rule.severity:<7}  {rule.name}: {rule.summary}")
        print(
            f"{PARSE_ERROR_CODE}  {SEVERITY_ERROR:<7}  parse-error: file does "
            "not parse, so no rule can check it"
        )
        return 0

    targets = args.paths or ["src"]
    missing = [t for t in targets if not Path(t).exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    root = find_project_root(targets[0])
    cfg = load_config(root)

    enabled = cfg.enabled_codes(list(RULES))
    select = _split_codes(args.select)
    if select:
        enabled = {c for c in select if c in RULES}
    enabled -= _split_codes(args.disable)

    baseline_path = (
        Path(args.baseline) if args.baseline else cfg.baseline_path
    )

    if args.write_baseline:
        result = run_lint(targets, project_root=root, enabled=enabled)
        new = Baseline.from_findings(result.active)
        if baseline_path.is_file():
            _report_baseline_prune(Baseline.load(baseline_path), new)
        new.dump(baseline_path)
        print(
            f"repro lint: wrote {len(result.active)} finding(s) to "
            f"{baseline_path}"
        )
        return 0

    baseline = None
    if not args.no_baseline:
        if args.baseline and not baseline_path.is_file():
            print(
                f"repro lint: baseline not found: {baseline_path}",
                file=sys.stderr,
            )
            return 2
        if baseline_path.is_file():
            baseline = Baseline.load(baseline_path)

    result = run_lint(
        targets, project_root=root, enabled=enabled, baseline=baseline
    )
    if args.format == "json":
        render_json(result)
    else:
        render_text(result)
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(lint_main())
