"""``repro trace``: record a run with full telemetry."""

from __future__ import annotations

import argparse
import json
import os

from repro import obs
from repro.analysis.reporting import render_phase_breakdown
from repro.cli.common import (
    TRACEABLE,
    add_logging_flags,
    add_run_flags,
    load_run,
    log,
    run_spec,
    setup_logging,
)
from repro.cluster.model import ClusterModel
from repro.runspec import execute


def trace_main(argv: list[str]) -> int:
    """``repro trace <algo>``: record a run with full telemetry.

    Writes ``events.jsonl`` (spans, per-round samples, metric snapshots)
    and ``manifest.json`` (versioned run manifest with per-phase totals)
    into ``--out``, then prints the per-phase computation/communication
    breakdown — the Figure 2 split — derived from the manifest.
    """
    p = argparse.ArgumentParser(
        prog="repro trace",
        description="Run an engine algorithm with telemetry recording on",
    )
    p.add_argument("algorithm", choices=TRACEABLE,
                   help="engine algorithm to trace")
    p.add_argument("--graph", required=True, metavar="SPEC",
                   help="edge-list file, or generator spec "
                        "(rmat:scale:ef | grid:r:c | webcrawl:core:tails | er:n:deg)")
    add_run_flags(p)
    p.add_argument("--out", "-o", default="trace-out", metavar="DIR",
                   help="output directory for events.jsonl + manifest.json")
    p.add_argument("--format", choices=("table", "json"), default="table",
                   help="phase breakdown output format (default: table)")
    p.add_argument("--chrome", metavar="PATH", default=None,
                   help="also export a Chrome trace-event file "
                        "(open at https://ui.perfetto.dev)")
    p.add_argument("--stragglers", action="store_true",
                   help="also print per-phase straggler/critical-path attribution")
    p.add_argument("--by", choices=("time", "bytes"), default="time",
                   help="straggler attribution metric: model-bound time "
                        "or byte volume (default: time)")
    add_logging_flags(p)
    args = p.parse_args(argv)
    setup_logging(args.verbose, args.quiet)

    spec = run_spec(p, args, args.algorithm, args.graph)
    g, sources = load_run(spec)
    model = ClusterModel(args.hosts)
    os.makedirs(args.out, exist_ok=True)
    events_path = os.path.join(args.out, "events.jsonl")
    manifest_path = os.path.join(args.out, "manifest.json")

    sink = obs.FileSink(events_path)
    ledger = obs.CommLedger()
    rledger = obs.RoundLedger()
    with obs.session(sink, model=model, comm=ledger, rounds=rledger) as tele:
        with tele.span(
            f"run:{args.algorithm}",
            kind="run",
            algorithm=args.algorithm,
            graph=args.graph,
            hosts=args.hosts,
            sources=int(sources.size),
        ):
            res = execute(spec, g, sources)
        model.time_by_phase(res.run)  # emits per-phase sim_time events

    man = obs.build_manifest(
        args.algorithm,
        res.run,
        model,
        ledger=ledger,
        rounds=rledger,
        graph_spec=args.graph,
        num_vertices=g.num_vertices,
        num_edges=g.num_edges,
        num_hosts=args.hosts,
        num_sources=int(sources.size),
        batch_size=args.batch if args.algorithm == "mrbc" else None,
        partition_policy="cvc",
        seed=args.seed,
    )
    obs.write_manifest(man, manifest_path)
    log.info("wrote %d events to %s", sink.events_written, events_path)
    log.info("wrote manifest to %s", manifest_path)
    if args.chrome:
        doc = obs.export_chrome_trace(events_path, args.chrome)
        log.info(
            "wrote Chrome trace (%d events) to %s — open at "
            "https://ui.perfetto.dev",
            len(doc["traceEvents"]), args.chrome,
        )
    if args.format == "json":
        from repro.analysis.reporting import phase_breakdown_dict

        doc = phase_breakdown_dict(man.to_dict())
        if args.stragglers:
            from repro.analysis.tracediff import phase_stragglers

            doc["stragglers"] = [
                s.to_dict()
                for s in phase_stragglers(
                    obs.read_events(events_path), by=args.by
                )
            ]
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_phase_breakdown(man.to_dict()))
        if args.stragglers:
            from repro.analysis.tracediff import phase_stragglers, render_stragglers

            print(render_stragglers(
                phase_stragglers(obs.read_events(events_path), by=args.by)
            ))
    return 0
