"""``repro`` (default command): run algorithms and print BC rankings."""

from __future__ import annotations

import argparse

import numpy as np

from repro.analysis.reporting import format_table
from repro.baselines.abbc import abbc, abbc_simulated_time
from repro.baselines.brandes import brandes_bc
from repro.baselines.mfbc import mfbc
from repro.baselines.sbbc import sbbc_engine
from repro.cli.common import (
    ALGORITHMS,
    _generate,
    add_logging_flags,
    log,
    setup_logging,
)
from repro.cluster.model import ClusterModel
from repro.core.mrbc import mrbc_engine
from repro.core.sampling import sample_sources
from repro.engine.partition import partition_graph
from repro.graph.digraph import DiGraph
from repro.graph.io import read_edge_list


def _run_one(
    algo: str,
    g: DiGraph,
    sources: np.ndarray,
    hosts: int,
    batch: int,
) -> tuple[np.ndarray, dict[str, object]]:
    model = ClusterModel(hosts)
    if algo == "brandes":
        return brandes_bc(g, sources=sources), {"rounds": "-", "time (s)": "-"}
    if algo == "abbc":
        res = abbc(g, sources=sources)
        return res.bc, {
            "rounds": "-",
            "time (s)": f"{abbc_simulated_time(res, g):.5f}",
        }
    if algo == "mfbc":
        res = mfbc(g, sources=sources, batch_size=batch, num_hosts=hosts)
        return res.bc, {
            "rounds": res.iterations,
            "time (s)": f"{model.time_run(res.run).total:.5f}",
        }
    pg = partition_graph(g, hosts, "cvc")
    if algo == "sbbc":
        res = sbbc_engine(g, sources=sources, partition=pg)
    else:
        res = mrbc_engine(g, sources=sources, batch_size=batch, partition=pg)
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
    p.add_argument("--sources", "-k", type=int, default=None,
                   help="number of sampled sources (default: all vertices)")
    p.add_argument("--hosts", type=int, default=8, help="simulated hosts")
    p.add_argument("--batch", type=int, default=16, help="MRBC batch size")
    p.add_argument("--top", type=int, default=10,
                   help="print this many top-BC vertices")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    add_logging_flags(p)
    args = p.parse_args(argv)
    setup_logging(args.verbose, args.quiet)

    if bool(args.graph) == bool(args.generate):
        p.error("provide exactly one of: a graph file, or --generate SPEC")
    g = _generate(args.generate) if args.generate else read_edge_list(args.graph)
    log.info("graph: %s", g)

    if args.sources is None:
        sources = np.arange(g.num_vertices, dtype=np.int64)
    else:
        sources = sample_sources(g, args.sources, seed=args.seed)

    rows = []
    bc_by_algo: dict[str, np.ndarray] = {}
    for algo in args.algorithm:
        log.debug("running %s on %d sources", algo, sources.size)
        bc, stats = _run_one(algo, g, sources, args.hosts, args.batch)
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
