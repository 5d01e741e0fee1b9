"""End-to-end benchmark of the BC engines: one fresh process per workload.

    PYTHONPATH=src python benchmarks/e2e/run.py     # every workload in turn
    python3 benchmarks/e2e/run.py --workload sbbc-rmat --seed 3 --seconds 20 --trace 0

Workloads run one after another, each measured by ``harness.py`` in its
own child process limited to one BLAS/OpenMP thread.  Prints one
``workload metric value unit`` line per metric, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced rep with ``--trace 1``.  Run records and spans go
to ``--out``.  Exits non-zero when any rep fails its checks, and without
printing a result when the program's source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
#: A child still running after this long is killed and the run fails.
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(name: str, args: argparse.Namespace) -> dict | None:
    """Measure one workload in a child process; its record, or None."""
    cmd = [
        sys.executable,
        str(HERE / "harness.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(args.out),
    ]
    try:
        proc = subprocess.run(
            cmd, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    p.add_argument("--seed", type=int, default=1, help="draws the sources")
    p.add_argument("--seconds", type=float, default=20, help="timed-rep budget per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=HERE / "out")
    args = p.parse_args(argv)
    # Turn SIGTERM into an exception so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir():
        print(f"no program source tree at {SRC}", file=sys.stderr)
        return 2

    section = "per_layer" if args.trace else "end_to_end"
    records = []
    for name in [args.workload] if args.workload else list(WORKLOADS):
        rec = run_child(name, args)
        if rec is None:
            return 1
        records.append(rec)
        for s in ("end_to_end", "per_layer"):
            for metric, m in rec[s].items():
                print(f"{name} {metric} {m['value']} {m['unit']}")
        for err in rec["errors"]:
            print(f"{name}: {err}", file=sys.stderr)

    if len(records) == 1:
        metrics = records[0][section]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in records for k, m in r[section].items()}
    ok = all(r["correct"] for r in records)
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
