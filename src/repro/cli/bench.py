"""``repro bench``: run the pinned suite, snapshot it, gate regressions."""

from __future__ import annotations

import argparse
import os

from repro.analysis.reporting import format_table
from repro.cli.common import add_logging_flags, log, setup_logging


def bench_main(argv: list[str]) -> int:
    """``repro bench``: run the pinned suite, snapshot it, gate regressions.

    Runs the pinned engine-configuration matrix (``--smoke`` for the
    CI-sized subset), writes a versioned ``BENCH_<git-sha>.json`` at the
    repo root (or ``--out``), and prints the per-case table.  With
    ``--compare BASELINE`` the fresh snapshot is diffed against the stored
    one — any change to the deterministic counts (rounds, bytes, pair
    messages) fails, as does a wall-clock median regression beyond the
    noise threshold — and the exit code is the verdict.
    """
    from repro.obs import bench

    p = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the pinned benchmark suite and gate regressions",
    )
    p.add_argument("--smoke", action="store_true",
                   help="run the small CI suite instead of the default one")
    p.add_argument("--repeats", type=int, default=3,
                   help="timed repetitions per case (default: 3)")
    p.add_argument("--warmup", type=int, default=1,
                   help="untimed warmup runs per case (default: 1)")
    p.add_argument("--cases", metavar="SUBSTR", default=None,
                   help="only run cases whose name contains SUBSTR")
    p.add_argument("--out", "-o", default=None, metavar="PATH",
                   help="snapshot path (default: <repo root>/BENCH_<sha>.json)")
    p.add_argument("--compare", metavar="BASELINE", default=None,
                   help="diff against a stored snapshot; exit 1 on regression")
    p.add_argument("--wall", choices=("auto", "always", "never"), default="auto",
                   help="wall-clock gating: auto skips when the baseline "
                        "came from a different machine (default: auto)")
    p.add_argument("--wall-threshold", type=float, default=3.0,
                   help="fail when the median grows by more than this many "
                        "IQRs of noise (default: 3.0)")
    add_logging_flags(p)
    args = p.parse_args(argv)
    setup_logging(args.verbose, args.quiet)

    suite = bench.SMOKE_SUITE if args.smoke else bench.DEFAULT_SUITE
    suite_name = "smoke" if args.smoke else "default"
    if args.cases:
        suite = tuple(c for c in suite if args.cases in c.name)
        if not suite:
            p.error(f"no bench case name contains {args.cases!r}")

    doc = bench.run_suite(
        suite,
        repeats=args.repeats,
        warmup=args.warmup,
        suite_name=suite_name,
        progress=lambda c: log.info(
            "bench case %s (%s on %s, %d hosts)",
            c.name, c.algorithm, c.graph, c.hosts,
        ),
    )
    out = args.out or os.path.join(
        bench.repo_root(), bench.bench_filename(doc["git_sha"])
    )
    bench.write_bench(doc, out)
    log.info("wrote bench snapshot to %s", out)

    rows = [
        [
            c["name"],
            c["deterministic"]["rounds"],
            c["deterministic"]["bytes"],
            c["deterministic"]["pair_messages"],
            f"{c['deterministic']['sim_total_s']:.5f}",
            f"{c['wall_s']['median']:.4f}",
            f"{c['wall_s']['iqr']:.4f}",
        ]
        for c in doc["cases"]
    ]
    print(format_table(
        ["case", "rounds", "bytes", "msgs", "sim (s)",
         "wall p50 (s)", "IQR (s)"],
        rows,
        title=f"bench suite: {suite_name} ({args.repeats} repeats, "
              f"sha {(doc['git_sha'] or 'nogit')[:12]})",
    ))

    if args.compare is None:
        return 0
    baseline = bench.load_bench(args.compare)
    cmp = bench.compare_bench(
        doc, baseline, wall=args.wall, wall_threshold=args.wall_threshold
    )
    print(bench.render_comparison(cmp))
    return 0 if cmp.ok else 1
