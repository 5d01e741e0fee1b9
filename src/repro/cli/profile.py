"""``repro profile``: run with phase-scoped profiling and report."""

from __future__ import annotations

import argparse
import os

from repro import obs
from repro.analysis.reporting import format_table
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


def profile_main(argv: list[str]) -> int:
    """``repro profile <algo>``: run with phase-scoped profiling and report.

    Runs the engine with the opt-in profiler attached (cProfile and/or
    tracemalloc scoped to phase spans), then prints the per-phase top-N
    hotspot / peak-memory digests and the metrics summary.
    """
    from repro.obs.profile import aggregate_profile_events

    p = argparse.ArgumentParser(
        prog="repro profile",
        description="Run an engine algorithm under the phase-scoped profiler",
    )
    p.add_argument("algorithm", choices=TRACEABLE,
                   help="engine algorithm to profile")
    p.add_argument("--graph", required=True, metavar="SPEC",
                   help="edge-list file, or generator spec "
                        "(rmat:scale:ef | grid:r:c | webcrawl:core:tails | er:n:deg)")
    add_run_flags(p)
    p.add_argument("--mode", choices=("cpu", "memory", "all"), default="cpu",
                   help="what to profile (default: cpu)")
    p.add_argument("--top", type=int, default=10,
                   help="hotspots / allocation sites per phase (default: 10)")
    p.add_argument("--out", "-o", default=None, metavar="DIR",
                   help="also record events.jsonl (with profile events) into DIR")
    add_logging_flags(p)
    args = p.parse_args(argv)
    setup_logging(args.verbose, args.quiet)

    spec = run_spec(p, args, args.algorithm, args.graph)
    g, sources = load_run(spec)
    model = ClusterModel(args.hosts)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        sink = obs.FileSink(os.path.join(args.out, "events.jsonl"))
    else:
        sink = obs.MemorySink()

    with obs.session(
        sink, model=model, profile=args.mode, profile_top=args.top
    ) as tele:
        with tele.span(
            f"run:{args.algorithm}", kind="run", algorithm=args.algorithm,
            graph=args.graph, hosts=args.hosts,
        ):
            execute(spec, g, sources)

    if isinstance(sink, obs.MemorySink):
        events = sink.events
    else:
        events = obs.read_events(sink.path)
    digests = aggregate_profile_events(events)
    if not digests:
        log.warning("no profile events recorded")
        return 1
    print(f"profile: {args.algorithm} on {args.hosts} hosts "
          f"(mode={args.mode}, top {args.top})")
    for phase, agg in digests.items():
        print()
        if agg["hotspots"]:
            rows = [
                [h["function"], h["location"], h["ncalls"],
                 f"{h['tottime_s']:.4f}", f"{h['cumtime_s']:.4f}"]
                for h in agg["hotspots"][: args.top]
            ]
            print(format_table(
                ["function", "location", "ncalls", "tottime (s)", "cumtime (s)"],
                rows,
                title=f"phase {phase}: hotspots "
                      f"({agg['spans']} span(s), wall {agg['wall_s']:.4f}s)",
            ))
        if agg["memory"] is not None:
            mem = agg["memory"]
            rows = [
                [a["location"], a["size_diff_bytes"], a["count_diff"]]
                for a in mem["allocations"][: args.top]
            ]
            print(format_table(
                ["allocation site", "Δbytes", "Δblocks"],
                rows,
                title=f"phase {phase}: memory "
                      f"(peak {mem['peak_bytes']} traced bytes)",
            ))

    summary = tele.metrics.summary()
    if summary:
        rows = []
        for row in summary:
            labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
            name = f"{row['name']}{{{labels}}}" if labels else row["name"]
            if row["type"] == "histogram":
                rows.append([name, row["type"], row["count"],
                             f"{row['mean']:.3f}", f"{row['p50']:.3f}",
                             f"{row['p90']:.3f}", f"{row['max']:.3f}"])
            else:
                rows.append([name, row["type"], "-",
                             f"{row['value']:.3f}", "-", "-", "-"])
        print()
        print(format_table(
            ["series", "type", "count", "mean/value", "p50", "p90", "max"],
            rows,
            title="metrics summary",
        ))
    return 0
