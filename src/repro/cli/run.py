"""``repro`` (default command): run algorithms and print BC rankings."""

from __future__ import annotations

import argparse
from dataclasses import replace

import numpy as np

from repro.analysis.reporting import format_table
from repro.baselines.abbc import abbc, abbc_simulated_time
from repro.baselines.brandes import brandes_bc
from repro.baselines.mfbc import mfbc
from repro.cli.common import (
    ALGORITHMS,
    add_logging_flags,
    add_run_flags,
    load_run,
    log,
    run_spec,
    setup_logging,
)
from repro.cluster.model import ClusterModel
from repro.graph.digraph import DiGraph
from repro.runspec import RunSpec, execute


def _run_one(
    spec: RunSpec, g: DiGraph, sources: np.ndarray
) -> tuple[np.ndarray, dict[str, object]]:
    model = ClusterModel(spec.hosts)
    if spec.algorithm == "brandes":
        return brandes_bc(g, sources=sources), {"rounds": "-", "time (s)": "-"}
    if spec.algorithm == "abbc":
        res = abbc(g, sources=sources)
        return res.bc, {
            "rounds": "-",
            "time (s)": f"{abbc_simulated_time(res, g):.5f}",
        }
    if spec.algorithm == "mfbc":
        res = mfbc(g, sources=sources, batch_size=spec.batch, num_hosts=spec.hosts)
        return res.bc, {
            "rounds": res.iterations,
            "time (s)": f"{model.time_run(res.run).total:.5f}",
        }
    res = execute(spec, g, sources)
    return res.bc, {
        "rounds": res.total_rounds,
        "time (s)": f"{model.time_run(res.run).total:.5f}",
    }


def run_main(argv: list[str]) -> int:
    """The default command: run algorithms and print BC rankings."""
    p = argparse.ArgumentParser(
        prog="repro", description="Min-Rounds BC reproduction CLI"
    )
    p.add_argument("graph", nargs="?", help="edge-list file (u v per line)")
    p.add_argument(
        "--generate", metavar="SPEC",
        help="generate a graph instead: rmat:scale:ef | grid:r:c | "
             "webcrawl:core:tails | er:n:deg",
    )
    p.add_argument(
        "--algorithm", "-a", nargs="+", default=["mrbc"],
        choices=ALGORITHMS, help="algorithms to run (default: mrbc)",
    )
    add_run_flags(p)
    p.add_argument("--top", type=int, default=10,
                   help="print this many top-BC vertices")
    add_logging_flags(p)
    args = p.parse_args(argv)
    setup_logging(args.verbose, args.quiet)

    if bool(args.graph) == bool(args.generate):
        p.error("provide exactly one of: a graph file, or --generate SPEC")
    spec = run_spec(p, args, args.algorithm[0], args.graph or args.generate)
    g, sources = load_run(spec)

    rows = []
    bc_by_algo: dict[str, np.ndarray] = {}
    for algo in args.algorithm:
        log.debug("running %s on %d sources", algo, sources.size)
        bc, stats = _run_one(replace(spec, algorithm=algo), g, sources)
        bc_by_algo[algo] = bc
        rows.append([algo, len(sources), stats["rounds"], stats["time (s)"]])
    print(format_table(["algorithm", "sources", "rounds", "time (s)"], rows))

    first = args.algorithm[0]
    for other in args.algorithm[1:]:
        if not np.allclose(
            bc_by_algo[first], bc_by_algo[other], atol=1e-6, equal_nan=True
        ):
            log.warning("%s and %s disagree", first, other)
            return 1

    bc = bc_by_algo[first]
    order = np.argsort(bc)[::-1][: args.top]
    print(format_table(
        ["vertex", "BC"],
        [[int(v), f"{bc[v]:.4f}"] for v in order],
        title=f"top {args.top} by betweenness ({first})",
    ))
    return 0
