"""Cross-snapshot benchmark trajectory (``repro trend``).

``repro bench`` leaves one ``BENCH_<sha12>.json`` snapshot per commit at
the repo root; ``repro bench --compare`` gates one snapshot against one
baseline.  This module reads the *whole committed series* and charts the
trajectory: per case, the wall-clock median and the deterministic /
comm-ledger / round-ledger counts across snapshots ordered by commit
lineage (``git rev-list`` position of each snapshot's ``git_sha``, with
``created_unix`` as the fallback for snapshots whose commit is unknown
to the local history).

Snapshots are heterogeneous by design — suites grew over time, the
``comm`` and ``rounds`` sections appeared mid-series — so the trend is
grouped per *case name*: a case contributes one point per snapshot that
ran it, and count columns are shown from the first snapshot that carried
them.  Snapshots from when MRBC/SBBC had a second execution tier (up to
``BENCH_b05e6a269e54.json``) ran each unsuffixed case on the per-vertex
dict tier and its columnar twin as ``<case>@array``; the unsuffixed name
runs the columnar tier today, so the twin is that snapshot's point for
``<case>`` and the dict-tier entry is skipped (its speedup field under
``wall_s`` is not read either).  Between consecutive points of the same
case the step is classified:

- any gated deterministic / comm / rounds count change is a **change**
  (the behavioural drift ``--compare`` would have flagged at the time);
- a wall-clock median move beyond the noise budget (same rule as
  :func:`repro.obs.bench.compare_bench`: ``threshold × max(IQRs,
  floor)``) is a **regression** or **improvement**;
- anything else is steady.

Wall medians across snapshots come from whatever machine ran them;
points whose environment fingerprint differs from the previous point are
marked so a "regression" across a machine swap is not over-read.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
from dataclasses import dataclass, field
from typing import Any

from repro.obs.bench import (
    GATED_COMM_COUNTS,
    GATED_COUNTS,
    GATED_ROUND_COUNTS,
    load_bench,
    repo_root,
)

#: Case-name suffix of the columnar twins in two-tier-era snapshots.
ARRAY_TWIN_SUFFIX = "@array"

#: Same noise rule as ``compare_bench``: a wall move must exceed
#: ``threshold × max(IQR_prev, IQR_cur, floor)`` to be a trend step.
WALL_THRESHOLD = 3.0
WALL_FLOOR_S = 0.005


@dataclass
class TrendPoint:
    """One case × snapshot observation."""

    sha: str  #: the snapshot's full git SHA (or "nogit")
    order: int  #: lineage position, 0 = oldest
    suite: str
    wall_median_s: float | None
    wall_iqr_s: float | None
    deterministic: dict[str, Any] = field(default_factory=dict)
    comm: dict[str, Any] | None = None
    rounds: dict[str, Any] | None = None
    environment: dict[str, str] = field(default_factory=dict)
    #: Step classification vs the previous point of the same case:
    #: "first" | "steady" | "change" | "regression" | "improvement".
    step: str = "first"
    #: Human-readable step details (which counts moved, by how much).
    deltas: list[str] = field(default_factory=list)
    env_changed: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "sha": self.sha,
            "order": self.order,
            "suite": self.suite,
            "wall_median_s": self.wall_median_s,
            "wall_iqr_s": self.wall_iqr_s,
            "deterministic": self.deterministic,
            "comm": self.comm,
            "rounds": self.rounds,
            "step": self.step,
            "deltas": self.deltas,
            "env_changed": self.env_changed,
        }


@dataclass
class TrendReport:
    """The full trajectory: snapshots in lineage order, cases over them."""

    snapshots: list[dict[str, Any]] = field(default_factory=list)
    cases: dict[str, list[TrendPoint]] = field(default_factory=dict)

    @property
    def regressions(self) -> list[tuple[str, TrendPoint]]:
        return [
            (name, pt)
            for name, pts in sorted(self.cases.items())
            for pt in pts
            if pt.step == "regression"
        ]

    @property
    def changes(self) -> list[tuple[str, TrendPoint]]:
        return [
            (name, pt)
            for name, pts in sorted(self.cases.items())
            for pt in pts
            if pt.step == "change"
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": 1,
            "snapshots": self.snapshots,
            "cases": {
                name: [pt.to_dict() for pt in pts]
                for name, pts in sorted(self.cases.items())
            },
            "regressions": len(self.regressions),
            "changes": len(self.changes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def find_snapshots(root: str | None = None) -> list[str]:
    """Committed ``BENCH_*.json`` files at the repo root (not baselines)."""
    root = root or repo_root()
    return sorted(glob.glob(os.path.join(root, "BENCH_*.json")))


def _rev_list_order(root: str) -> dict[str, int]:
    """SHA → position in first-parent history, 0 = oldest."""
    try:
        out = subprocess.run(
            ["git", "rev-list", "--first-parent", "--reverse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {}
    if out.returncode != 0:
        return {}
    return {sha: i for i, sha in enumerate(out.stdout.split())}


def order_snapshots(
    docs: list[tuple[str, dict[str, Any]]], root: str | None = None
) -> list[tuple[str, dict[str, Any]]]:
    """Sort (path, doc) pairs by commit lineage, oldest first.

    Snapshots whose ``git_sha`` is in the local history sort by their
    ``git rev-list`` position; unknown-SHA snapshots fall back to
    ``created_unix`` and interleave by timestamp rank against the known
    ones' timestamps (a snapshot from a rebased-away commit still lands
    roughly where it was taken).
    """
    root = root or repo_root()
    positions = _rev_list_order(root)

    def key(item: tuple[str, dict[str, Any]]) -> tuple[int, float]:
        _path, doc = item
        sha = doc.get("git_sha") or ""
        created = float(doc.get("created_unix") or 0.0)
        if sha in positions:
            return (positions[sha], created)
        # Unknown commit: order purely by timestamp, after any known
        # commit with an earlier timestamp (rank via a large base so the
        # two keyspaces cannot collide on the int component).
        return (len(positions), created)

    return sorted(docs, key=key)


def _fmt_delta(field_name: str, old: Any, new: Any) -> str:
    return f"{field_name}: {old} -> {new}"


def _classify(
    prev: TrendPoint,
    cur: TrendPoint,
    wall_threshold: float,
    wall_floor_s: float,
) -> None:
    """Stamp ``cur.step``/``cur.deltas`` from the previous point."""
    deltas: list[str] = []
    for f in GATED_COUNTS:
        if prev.deterministic.get(f) != cur.deterministic.get(f):
            deltas.append(
                _fmt_delta(f, prev.deterministic.get(f), cur.deterministic.get(f))
            )
    if prev.comm is not None and cur.comm is not None:
        for f in GATED_COMM_COUNTS:
            if prev.comm.get(f) != cur.comm.get(f):
                deltas.append(_fmt_delta(f"comm.{f}", prev.comm.get(f), cur.comm.get(f)))
    if prev.rounds is not None and cur.rounds is not None:
        for f in GATED_ROUND_COUNTS:
            if prev.rounds.get(f) != cur.rounds.get(f):
                deltas.append(
                    _fmt_delta(f"rounds.{f}", prev.rounds.get(f), cur.rounds.get(f))
                )
    cur.env_changed = prev.environment != cur.environment
    if deltas:
        cur.step = "change"
        cur.deltas = deltas
        return
    pm, cm = prev.wall_median_s, cur.wall_median_s
    if pm is None or cm is None:
        cur.step = "steady"
        return
    floor = max(wall_floor_s, 0.1 * pm)
    noise = max(prev.wall_iqr_s or 0.0, cur.wall_iqr_s or 0.0, floor)
    budget = wall_threshold * noise
    if cm > pm + budget:
        cur.step = "regression"
        cur.deltas = [f"wall median {pm:.4f}s -> {cm:.4f}s"]
    elif cm < pm - budget:
        cur.step = "improvement"
        cur.deltas = [f"wall median {pm:.4f}s -> {cm:.4f}s"]
    else:
        cur.step = "steady"


def build_trend(
    paths: list[str] | None = None,
    root: str | None = None,
    wall_threshold: float = WALL_THRESHOLD,
    wall_floor_s: float = WALL_FLOOR_S,
) -> TrendReport:
    """Load, order, and classify the committed snapshot series."""
    root = root or repo_root()
    if paths is None:
        paths = find_snapshots(root)
    docs = [(p, load_bench(p)) for p in paths]
    ordered = order_snapshots(docs, root)
    report = TrendReport()
    for i, (path, doc) in enumerate(ordered):
        sha = doc.get("git_sha") or "nogit"
        report.snapshots.append(
            {
                "path": os.path.basename(path),
                "sha": sha,
                "suite": doc.get("suite", "?"),
                "order": i,
                "cases": len(doc.get("cases", [])),
                "created_unix": doc.get("created_unix"),
            }
        )
        names = {case["name"] for case in doc.get("cases", [])}
        for case in doc.get("cases", []):
            if case["name"] + ARRAY_TWIN_SUFFIX in names:
                continue  # dict-tier run; its columnar twin is the point
            name = case["name"].removesuffix(ARRAY_TWIN_SUFFIX)
            wall = case.get("wall_s", {})
            pt = TrendPoint(
                sha=sha,
                order=i,
                suite=doc.get("suite", "?"),
                wall_median_s=wall.get("median"),
                wall_iqr_s=wall.get("iqr"),
                deterministic=case.get("deterministic", {}),
                comm=case.get("comm"),
                rounds=case.get("rounds"),
                environment=doc.get("environment", {}),
            )
            series = report.cases.setdefault(name, [])
            if series:
                _classify(series[-1], pt, wall_threshold, wall_floor_s)
            series.append(pt)
    return report


def render_trend(report: TrendReport) -> str:
    """Text tables: the snapshot series, then one row per case × point."""
    from repro.analysis.reporting import format_table

    lines = [
        format_table(
            ["order", "snapshot", "suite", "cases", "sha"],
            [
                [s["order"], s["path"], s["suite"], s["cases"], s["sha"][:12]]
                for s in report.snapshots
            ],
            title="bench snapshots (commit-lineage order)",
        )
    ]
    rows: list[list[object]] = []
    for name, pts in sorted(report.cases.items()):
        for pt in pts:
            wall = (
                f"{pt.wall_median_s:.4f}s" if pt.wall_median_s is not None else "-"
            )
            rounds = pt.rounds.get("total") if pt.rounds else "-"
            comm = pt.comm.get("payload_bytes") if pt.comm else "-"
            step = pt.step + (" (env changed)" if pt.env_changed else "")
            rows.append(
                [
                    name,
                    pt.sha[:12],
                    wall,
                    pt.deterministic.get("rounds", "-"),
                    comm,
                    rounds,
                    step,
                    "; ".join(pt.deltas) or "-",
                ]
            )
    lines.append(
        format_table(
            ["case", "sha", "wall median", "engine rounds", "comm bytes",
             "ledger rounds", "step", "detail"],
            rows,
            title="per-case trajectory",
        )
    )
    n_reg, n_chg = len(report.regressions), len(report.changes)
    lines.append(
        f"trend: {len(report.snapshots)} snapshots, "
        f"{len(report.cases)} cases, "
        f"{n_chg} count change(s), {n_reg} wall regression(s)"
    )
    return "\n".join(lines)
