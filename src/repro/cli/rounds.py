"""``repro rounds``: round-complexity breakdowns and conformance checks."""

from __future__ import annotations

import argparse
import json

from repro.cli.common import (
    add_logging_flags,
    add_run_flags,
    emit_report,
    load_run,
    log,
    run_spec,
    setup_logging,
)
from repro.runspec import ALGORITHMS, execute


def _render_curve(series: list[int], width: int = 40) -> str:
    """One-line unicode bar sparkline for a frontier-size series."""
    if not series:
        return "(empty)"
    peak = max(max(series), 1)
    blocks = " ▁▂▃▄▅▆▇█"
    return "".join(
        blocks[min(len(blocks) - 1, round(v / peak * (len(blocks) - 1)))]
        for v in series[:width]
    )


def _print_breakdown(args, ledger) -> None:
    from repro.analysis.reporting import format_table

    if args.format == "json":
        doc = ledger.summary()
        if args.per_round:
            doc["per_round"] = ledger.per_round()
        print(json.dumps(doc, indent=2, sort_keys=True))
        return

    rows = [
        [u.unit, u.phase, u.label or "-", u.num_rounds, u.terminated_by,
         u.max_frontier, u.total_settled]
        for u in ledger.units()
    ]
    print(format_table(
        ["unit", "phase", "label", "rounds", "terminated by",
         "max frontier", "settled"],
        rows,
        title="rounds by unit (one per phase x source batch)",
    ))
    by_phase = ledger.rounds_by_phase()
    print(format_table(
        ["phase", "rounds"],
        [[ph, n] for ph, n in sorted(by_phase.items())]
        + [["TOTAL", ledger.total_rounds()]],
        title="rounds by phase",
    ))
    if args.curves:
        print("convergence curves (frontier size per round):")
        for u in ledger.units():
            curve = _render_curve(u.convergence())
            print(f"  {u.phase:>9} {u.label or '-':<10} {curve}")
    if args.per_round:
        print(format_table(
            ["unit", "phase", "round", "frontier", "settled",
             "active sources", "stage depth"],
            [[r["unit"], r["phase"], r["round"], r.get("frontier", 0),
              r.get("settled", 0), r.get("active_sources", 0),
              r.get("stage_depth", 0)]
             for r in ledger.per_round()],
            title="algorithm state by round",
        ))
    if ledger.recovery_rounds():
        print(f"recovery rounds (fault overhead): {ledger.recovery_rounds()}")


def rounds_main(argv: list[str]) -> int:
    """``repro rounds``: per-batch/phase round breakdowns, ``--check``.

    Without ``--check``, runs one algorithm under a
    :class:`~repro.obs.rounds.RoundLedger` and prints the round-complexity
    breakdown (per phase × source-batch unit, optionally per round, with
    frontier-size convergence curves).  With ``--check`` and no
    ``--graph``, runs the :data:`~repro.analysis.roundcheck
    .DEFAULT_ROUND_SUITE` conformance suite; with both, checks just the
    given configuration.  The exit code is the PASS/FAIL verdict.
    """
    p = argparse.ArgumentParser(
        prog="repro rounds",
        description="Round-efficiency observability: per-batch round "
                    "accounting, convergence curves, bound conformance",
    )
    p.add_argument("algorithm", nargs="?", choices=ALGORITHMS,
                   default="mrbc", help="algorithm to run (default: mrbc)")
    p.add_argument("--graph", metavar="SPEC", default=None,
                   help="edge-list file or generator spec; omit with "
                        "--check to run the default conformance suite")
    add_run_flags(p, sources=8, hosts=4, batch=4, seed=7)
    p.add_argument("--check", action="store_true",
                   help="run predicted-vs-measured round-bound checks "
                        "(exit code is the verdict)")
    p.add_argument("--slack", type=int, default=None, metavar="S",
                   help="extra rounds allowed over Diam + k (default: 2)")
    p.add_argument("--per-round", action="store_true",
                   help="include the per-round algorithm-state breakdown")
    p.add_argument("--curves", action="store_true",
                   help="print frontier-size convergence sparklines per unit")
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="output format (default: table)")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="with --check: also write the JSON report here")
    add_logging_flags(p)
    args = p.parse_args(argv)
    setup_logging(args.verbose, args.quiet)

    if args.check:
        from repro.analysis.roundcheck import (
            DEFAULT_ROUND_SUITE,
            DEFAULT_SLACK,
            render_rounds_report,
            run_conformance,
        )

        if args.graph is None:
            cases = list(DEFAULT_ROUND_SUITE)
        else:
            cases = [run_spec(p, args, args.algorithm, args.graph)]
        report = run_conformance(
            cases,
            progress=lambda c: log.info("checking %s ...", c.name),
            slack=DEFAULT_SLACK if args.slack is None else args.slack,
        )
        return emit_report(args, report, render_rounds_report)

    if args.graph is None:
        p.error("--graph is required unless --check runs the default suite")
    from repro.obs.rounds import RoundLedger

    spec = run_spec(p, args, args.algorithm, args.graph)
    g, sources = load_run(spec)
    ledger = RoundLedger()
    execute(spec, g, sources, rounds=ledger)
    _print_breakdown(args, ledger)
    return 0
