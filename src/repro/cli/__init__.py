"""Command-line interface: run any BC algorithm on an edge-list file.

Examples
--------
Compute exact BC with MRBC on a generated graph and print the top ranks::

    python -m repro --generate rmat:8:8 --algorithm mrbc --top 10

Compare algorithms on an edge-list file with 16 sampled sources::

    python -m repro graph.txt --algorithm mrbc sbbc --sources 16 --hosts 8

Record a traced run — JSONL event stream, run manifest, and a Figure 2
style per-phase computation/communication breakdown::

    python -m repro trace mrbc --graph rmat:8:8 --sources 16 --out trace/

Run a fault experiment — inject a deterministic fault plan, recover, and
verify the result against exact Brandes (exit code is the verdict)::

    python -m repro faults drop --algorithm mrbc --graph er:30:3 --sources 6

Run a seeded chaos campaign — engines × fault kinds × recovery policies,
each scenario verified bit-exact (or exactly salvaged) against the
fault-free run (exit code is the verdict)::

    python -m repro chaos --seed 7 --campaign smoke --report chaos-report.json

Run the pinned benchmark suite, snapshot it at the repo root, and gate
against a stored baseline (exit code is the verdict)::

    python -m repro bench --smoke --compare benchmarks/baselines/BENCH_smoke.json

Profile a run phase by phase (cProfile hotspots / tracemalloc peaks)::

    python -m repro profile mrbc --graph rmat:8:8 --sources 16 --mode all

Diff two recorded runs, or export one for Perfetto::

    python -m repro compare traceA/ traceB/
    python -m repro trace mrbc --graph rmat:8:8 --chrome out.trace.json

Statically check determinism / CONGEST protocol / delayed-sync
invariants against the committed baseline (exit code is the verdict)::

    python -m repro lint src tests --format json

Inspect communication volume (per phase/round/channel) or run the
predicted-vs-measured conformance suite (exit code is the verdict)::

    python -m repro comm mrbc --graph er:60:3 --matrix --top 5
    python -m repro comm --check --report comm-report.json

Inspect round complexity (per phase × source batch, with convergence
curves) or check the measured rounds against the paper's Diam + k
budgets (exit code is the verdict)::

    python -m repro rounds mrbc --graph er:60:3 --curves
    python -m repro rounds --check --report rounds-report.json

Chart the benchmark trajectory across committed snapshots — wall-clock
medians and deterministic/comm/round counts per case, ordered by commit
lineage, regressions flagged::

    python -m repro trend --format json

Each subcommand lives in its own module (:mod:`repro.cli.run`,
:mod:`repro.cli.trace`, :mod:`repro.cli.faults`, :mod:`repro.cli.chaos`,
:mod:`repro.cli.bench`, :mod:`repro.cli.profile`,
:mod:`repro.cli.compare`, :mod:`repro.cli.lint`, :mod:`repro.cli.comm`,
:mod:`repro.cli.rounds`, :mod:`repro.cli.trend`);
shared flags and graph loading are in
:mod:`repro.cli.common`, and the run, ``trace``, ``profile``, ``comm``
and ``rounds`` commands call their engine through
:func:`repro.runspec.execute`.  This package re-exports every historical
``repro.cli`` name, so imports written against the old single-module CLI
keep working.
"""

from __future__ import annotations

import sys

from repro.cli.bench import bench_main
from repro.cli.common import (
    ALGORITHMS,
    TRACEABLE,
    _load_graph_arg as _generate,  # historical import site (tests, scripts)
    _load_graph_arg as _load_graph_arg,
    add_logging_flags,
    log,
    setup_logging,
)
from repro.cli.chaos import chaos_main
from repro.cli.comm import comm_main
from repro.cli.compare import compare_main
from repro.cli.faults import faults_main
from repro.cli.profile import profile_main
from repro.cli.rounds import rounds_main
from repro.cli.run import _run_one as _run_one, run_main
from repro.cli.trace import trace_main
from repro.cli.trend import trend_main

__all__ = [
    "ALGORITHMS",
    "TRACEABLE",
    "add_logging_flags",
    "bench_main",
    "chaos_main",
    "comm_main",
    "compare_main",
    "faults_main",
    "log",
    "main",
    "profile_main",
    "rounds_main",
    "run_main",
    "setup_logging",
    "trace_main",
    "trend_main",
]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "faults":
        return faults_main(argv[1:])
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    if argv and argv[0] == "bench":
        return bench_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.cli.lint import lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "comm":
        return comm_main(argv[1:])
    if argv and argv[0] == "rounds":
        return rounds_main(argv[1:])
    if argv and argv[0] == "trend":
        return trend_main(argv[1:])
    return run_main(argv)
