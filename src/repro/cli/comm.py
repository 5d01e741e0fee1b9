"""``repro comm``: communication-volume breakdowns and conformance checks."""

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


def _print_breakdown(args, ledger) -> None:
    from repro.analysis.reporting import format_table
    from repro.obs.comm import PLANE_CONGEST, PLANE_GLUON

    plane = PLANE_CONGEST if args.algorithm == "mrbc-congest" else PLANE_GLUON
    if args.format == "json":
        doc = ledger.summary(top=args.top)
        if args.per_round:
            doc["per_round"] = ledger.per_round(plane)
        if args.matrix and plane == PLANE_GLUON:
            doc["host_matrix"] = ledger.host_matrix(args.hosts)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return

    rows = [
        [ph, t.messages, t.values, t.words, t.payload_bytes]
        for ph, t in ledger.phase_totals(plane).items()
    ]
    tot = ledger.totals(plane)
    rows.append(["TOTAL", tot.messages, tot.values, tot.words, tot.payload_bytes])
    print(format_table(
        ["phase", "messages", "values", "words", "payload bytes"],
        rows,
        title=f"communication by phase ({plane} plane)",
    ))
    if args.per_round:
        print(format_table(
            ["run", "phase", "round", "channels", "messages", "values", "bytes"],
            [[r["run"], r["phase"], r["round"], r["channels"],
              r["messages"], r["values"], r["payload_bytes"]]
             for r in ledger.per_round(plane)],
            title="communication by round",
        ))
    if args.top:
        print(format_table(
            ["src", "dst", "messages", "values", "bytes"],
            [[src, dst, t.messages, t.values, t.payload_bytes]
             for (src, dst), t in ledger.top_channels(plane, args.top)],
            title=f"top {args.top} channels by bytes",
        ))
    if args.matrix and plane == PLANE_GLUON:
        m = ledger.host_matrix(args.hosts)
        print(format_table(
            ["src\\dst", *[f"h{h}" for h in range(args.hosts)]],
            [[f"h{src}", *row] for src, row in enumerate(m)],
            title="host x host payload bytes",
        ))
    if plane == PLANE_CONGEST:
        words, where = ledger.max_channel_words()
        at = (
            f" ({where.src}->{where.dst} in round {where.round_index})"
            if where is not None else ""
        )
        print(
            f"max channel load: {words} words/round{at}; "
            f"bound B = {ledger.bound_words} words/round; "
            f"violations: {len(ledger.violations)}"
        )


def comm_main(argv: list[str]) -> int:
    """``repro comm``: per-phase/round/channel comm breakdowns, ``--check``.

    Without ``--check``, runs one algorithm under a
    :class:`~repro.obs.comm.CommLedger` and prints the volume breakdown
    (per phase, optionally per round, top-k hottest channels, host×host
    matrix).  With ``--check`` and no ``--graph``, runs the
    :data:`~repro.analysis.commcheck.DEFAULT_CHECK_SUITE` conformance
    suite; with both, checks just the given configuration.  The exit code
    is the PASS/FAIL verdict.
    """
    p = argparse.ArgumentParser(
        prog="repro comm",
        description="Communication-volume observability: breakdowns, "
                    "CONGEST bound checking, model conformance",
    )
    p.add_argument("algorithm", nargs="?", choices=ALGORITHMS,
                   default="mrbc", help="algorithm to run (default: mrbc)")
    p.add_argument("--graph", metavar="SPEC", default=None,
                   help="edge-list file or generator spec; omit with "
                        "--check to run the default conformance suite")
    add_run_flags(p, sources=8, hosts=4, batch=8, seed=7)
    p.add_argument("--check", action="store_true",
                   help="run predicted-vs-measured conformance checks "
                        "(exit code is the verdict)")
    p.add_argument("--per-round", action="store_true",
                   help="include the per-round breakdown")
    p.add_argument("--top", type=int, default=5, metavar="K",
                   help="hottest channels to list (default: 5, 0 to hide)")
    p.add_argument("--matrix", action="store_true",
                   help="print the host x host byte matrix (Gluon plane)")
    p.add_argument("--bound-factor", type=int, default=None, metavar="C",
                   help="CONGEST budget constant c in B = c*ceil(log2 n) for "
                        "the breakdown; --check always uses 4 (default: 4)")
    p.add_argument("--hard-fail", action="store_true",
                   help="raise on a CONGEST bound violation instead of "
                        "recording it")
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="output format (default: table)")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="with --check: also write the JSON report here")
    add_logging_flags(p)
    args = p.parse_args(argv)
    setup_logging(args.verbose, args.quiet)

    if args.check:
        from repro.analysis.commcheck import (
            DEFAULT_CHECK_SUITE,
            render_comm_report,
            run_conformance,
        )

        if args.bound_factor is not None:
            p.error("--bound-factor applies to the breakdown only; "
                    "--check uses the default c = 4")
        if args.graph is None:
            cases = list(DEFAULT_CHECK_SUITE)
        else:
            cases = [run_spec(p, args, args.algorithm, args.graph)]
        report = run_conformance(
            cases, progress=lambda c: log.info("checking %s ...", c.name)
        )
        return emit_report(args, report, render_comm_report)

    if args.graph is None:
        p.error("--graph is required unless --check runs the default suite")
    from repro.obs.comm import DEFAULT_BOUND_FACTOR, CommLedger, congest_bound_words

    spec = run_spec(p, args, args.algorithm, args.graph)
    g, sources = load_run(spec)
    if args.algorithm == "mrbc-congest":
        factor = DEFAULT_BOUND_FACTOR if args.bound_factor is None else args.bound_factor
        ledger = CommLedger(
            bound_words=congest_bound_words(g.num_vertices, factor),
            hard_fail=args.hard_fail,
        )
    else:
        ledger = CommLedger()
    execute(spec, g, sources, comm=ledger)
    _print_breakdown(args, ledger)
    return 0
