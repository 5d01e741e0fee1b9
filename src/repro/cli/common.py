"""Shared helpers for the ``repro`` CLI subcommands.

Diagnostics go through :mod:`logging` (logger ``repro``); ``--verbose``
enables debug output and ``--quiet`` silences everything below errors, so
CLI chatter composes with the telemetry sinks instead of interleaving raw
stderr writes with them.
"""

from __future__ import annotations

import argparse
import logging
import sys

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.io import load_graph
from repro.runspec import RunSpec

ALGORITHMS = ("mrbc", "sbbc", "abbc", "mfbc", "brandes")
#: Algorithms that run on the engine and can therefore be traced.
TRACEABLE = ("mrbc", "sbbc")

log = logging.getLogger("repro")


def add_logging_flags(p: argparse.ArgumentParser) -> None:
    """Attach the shared ``--verbose``/``--quiet`` diagnostics flags."""
    g = p.add_mutually_exclusive_group()
    g.add_argument(
        "--verbose", "-v", action="store_true",
        help="debug-level diagnostics on stderr",
    )
    g.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress diagnostics below errors",
    )


def setup_logging(verbose: bool = False, quiet: bool = False) -> None:
    """Configure the ``repro`` logger for CLI use (stderr, level by flags)."""
    level = (
        logging.ERROR if quiet else logging.DEBUG if verbose else logging.INFO
    )
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger("repro")
    root.handlers[:] = [handler]
    root.setLevel(level)
    root.propagate = False


def _load_graph_arg(spec: str) -> DiGraph:
    """A ``--graph`` value (:func:`~repro.graph.io.load_graph`); a bad spec exits 1."""
    try:
        return load_graph(spec)
    except ValueError as exc:
        raise SystemExit(str(exc))


def add_run_flags(
    p: argparse.ArgumentParser,
    *,
    sources: int | None = None,
    hosts: int = 8,
    batch: int = 16,
    seed: int = 0,
) -> None:
    """Attach the ``--sources/--hosts/--batch/--seed`` block of a
    :class:`~repro.runspec.RunSpec`, with this command's defaults."""
    every = "all vertices" if sources is None else sources
    p.add_argument("--sources", "-k", type=int, default=sources,
                   help="number of sampled sources, capped at the vertex "
                        f"count (default: {every})")
    p.add_argument("--hosts", type=int, default=hosts, help="simulated hosts")
    p.add_argument("--batch", type=int, default=batch,
                   help="sources per MRBC batch")
    p.add_argument("--seed", type=int, default=seed, help="sampling seed")


def run_spec(
    p: argparse.ArgumentParser, args: argparse.Namespace, algorithm: str, graph: str
) -> RunSpec:
    """The spec the run flags describe; a value it rejects is an argparse error."""
    try:
        return RunSpec(f"{algorithm}-{graph}", algorithm, graph,
                       args.hosts, args.sources, args.batch, args.seed)
    except ValueError as exc:
        p.error(str(exc))


def load_run(spec: RunSpec) -> tuple[DiGraph, np.ndarray]:
    """``spec.load()`` for a CLI: a bad graph spec exits 1."""
    try:
        g, sources = spec.load()
    except ValueError as exc:
        raise SystemExit(str(exc))
    log.info("graph: %s", g)
    return g, sources


def emit_report(args: argparse.Namespace, report, render) -> int:
    """Write ``--report``, print ``report`` per ``--format``; return the verdict."""
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        log.info("wrote JSON report to %s", args.report)
    print(report.to_json() if args.format == "json" else render(report))
    return 0 if report.ok else 1
