"""The bench trajectory: a pinned suite, versioned snapshots, regression gates.

``repro bench`` runs a pinned matrix of engine configurations
(mrbc/sbbc × graph shapes × host counts), repeats each case after a
warmup, and writes one ``BENCH_<git-sha>.json`` snapshot at the repo
root.  Each case records two kinds of numbers:

- **deterministic counts** off the engine run (rounds, bytes, pair
  messages, items synced, load imbalance) plus the simulated cluster
  time — bit-identical across same-seed runs, so *any* drift is a real
  behavioural change;
- **wall-clock samples** (median/IQR over the repeats) — the local
  simulation cost, inherently noisy, gated with noise-aware thresholds.

``repro bench --compare baseline.json`` diffs a fresh snapshot against a
stored one: any change to the gated counts fails, a wall-clock median
more than ``threshold × IQR`` above the baseline fails (only when the
environment fingerprints match, unless forced), and the exit code is the
verdict — which is what lets CI hold the performance line the paper's
claims rest on.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.manifest import git_sha
from repro.obs.metrics import quantile
from repro.runspec import RunSpec, execute

#: Bumped on any incompatible snapshot schema change; readers refuse newer.
BENCH_VERSION = 1

#: Per-case deterministic fields where *any* drift fails the compare gate.
GATED_COUNTS = ("rounds", "bytes", "pair_messages")

#: Per-case comm-ledger fields gated the same way (only when the baseline
#: snapshot carries a ``comm`` section — pre-ledger baselines still compare).
GATED_COMM_COUNTS = (
    "messages",
    "values",
    "payload_bytes",
    "reduce_bytes",
    "broadcast_bytes",
)

#: Per-case round-ledger fields gated the same way (only when the baseline
#: snapshot carries a ``rounds`` section — pre-ledger baselines still compare).
GATED_ROUND_COUNTS = (
    "total",
    "forward",
    "backward",
    "recovery",
    "units",
    "max_unit_rounds",
    "max_frontier",
    "settled",
)


#: The default suite: the paper's three graph regimes (random power-law,
#: web-crawl with long tails, high-diameter road) for both engines, plus a
#: host-count and a batch-size variation for MRBC.
DEFAULT_SUITE: tuple[RunSpec, ...] = (
    RunSpec("mrbc-er200-h8", "mrbc", "er:200:4", hosts=8, sources=32, batch=16),
    RunSpec("mrbc-er200-h4", "mrbc", "er:200:4", hosts=4, sources=32, batch=16),
    RunSpec("mrbc-web-h8", "mrbc", "webcrawl:120:80", hosts=8, sources=32, batch=16),
    RunSpec("mrbc-road-h8", "mrbc", "grid:16:16", hosts=8, sources=32, batch=16),
    RunSpec("mrbc-rmat-h8", "mrbc", "rmat:8:8", hosts=8, sources=32, batch=16),
    RunSpec("mrbc-rmat-h8-b8", "mrbc", "rmat:8:8", hosts=8, sources=32, batch=8),
    RunSpec("sbbc-er200-h8", "sbbc", "er:200:4", hosts=8, sources=32, batch=16),
    RunSpec("sbbc-road-h8", "sbbc", "grid:16:16", hosts=8, sources=32, batch=16),
    RunSpec("sbbc-rmat-h8", "sbbc", "rmat:8:8", hosts=8, sources=32, batch=16),
)

#: The CI-sized suite: seconds, not minutes, but still both engines and
#: both the low- and high-diameter regimes.  SBBC ignores ``batch``; its
#: cases keep the 16 their snapshot ``config`` has always recorded.
SMOKE_SUITE: tuple[RunSpec, ...] = (
    RunSpec("mrbc-er60-h4", "mrbc", "er:60:3", hosts=4, sources=8, batch=8),
    RunSpec("mrbc-road8-h4", "mrbc", "grid:8:8", hosts=4, sources=8, batch=8),
    RunSpec("sbbc-er60-h4", "sbbc", "er:60:3", hosts=4, sources=8, batch=16),
    RunSpec("sbbc-road8-h4", "sbbc", "grid:8:8", hosts=4, sources=8, batch=16),
)


def environment_fingerprint() -> dict[str, str]:
    """Where the wall-clock numbers came from (not part of the identity)."""
    return {
        "hostname": platform.node(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def run_case(case: RunSpec, repeats: int = 3, warmup: int = 1) -> dict[str, Any]:
    """Run one case ``warmup + repeats`` times; record counts and wall times.

    Every repetition runs with a fresh :class:`~repro.obs.comm.CommLedger`
    and :class:`~repro.obs.rounds.RoundLedger` attached (null sink —
    accounting only), so the snapshot's ``comm`` and ``rounds`` sections
    gate communication and round-complexity regressions alongside the
    engine's deterministic counts.
    """
    from repro.cluster.model import ClusterModel
    from repro.obs.comm import CommLedger
    from repro.obs.rounds import RoundLedger

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    g, sources = case.load()
    samples: list[float] = []
    res = None
    ledger = None
    rledger = None
    for i in range(warmup + repeats):
        ledger = CommLedger()
        rledger = RoundLedger()
        t0 = time.perf_counter()
        res = execute(case, g, sources, comm=ledger, rounds=rledger)
        dt = time.perf_counter() - t0
        if i >= warmup:
            samples.append(dt)
    deterministic = dict(res.run.deterministic_signature())
    sim = ClusterModel(case.hosts).time_run(res.run)
    deterministic.update(
        sim_computation_s=sim.computation,
        sim_communication_s=sim.communication,
        sim_total_s=sim.total,
    )
    return {
        "name": case.name,
        "config": {
            "algorithm": case.algorithm,
            "graph": case.graph,
            "hosts": case.hosts,
            "sources": int(sources.size),
            "batch": case.batch,
            "seed": case.seed,
            "num_vertices": g.num_vertices,
            "num_edges": g.num_edges,
        },
        "deterministic": deterministic,
        "comm": ledger.bench_counts(),
        "rounds": rledger.bench_counts(),
        "wall_s": {
            "samples": [round(s, 6) for s in samples],
            "median": round(quantile(samples, 0.5), 6),
            "iqr": round(quantile(samples, 0.75) - quantile(samples, 0.25), 6),
        },
    }


def run_suite(
    cases: "tuple[RunSpec, ...] | list[RunSpec]",
    repeats: int = 3,
    warmup: int = 1,
    suite_name: str = "default",
    progress: Callable[[RunSpec], None] | None = None,
) -> dict[str, Any]:
    """Run every case and assemble one versioned bench snapshot document."""
    recorded = []
    for case in cases:
        if progress is not None:
            progress(case)
        recorded.append(run_case(case, repeats=repeats, warmup=warmup))
    return {
        "bench_version": BENCH_VERSION,
        "suite": suite_name,
        "git_sha": git_sha(),
        "created_unix": time.time(),
        "repeats": repeats,
        "warmup": warmup,
        "environment": environment_fingerprint(),
        "cases": recorded,
    }


def deterministic_view(doc: dict[str, Any]) -> dict[str, Any]:
    """The snapshot minus clocks and machine identity.

    Two same-seed runs of the same tree must produce byte-identical JSON
    for this view — the determinism contract ``repro bench`` is tested
    against and the part ``--compare`` gates hard.
    """
    out = {
        k: v
        for k, v in doc.items()
        if k not in ("created_unix", "environment", "git_sha")
    }
    out["cases"] = [
        {k: v for k, v in case.items() if k != "wall_s"}
        for case in doc.get("cases", [])
    ]
    return out


# -- snapshot files ----------------------------------------------------------------


def bench_filename(sha: str | None) -> str:
    """``BENCH_<sha12>.json`` (or ``BENCH_nogit.json`` outside a checkout)."""
    return f"BENCH_{(sha or 'nogit')[:12]}.json"


def repo_root() -> str:
    """Git toplevel of the cwd, falling back to the cwd itself."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return os.getcwd()
    top = out.stdout.strip()
    return top if out.returncode == 0 and top else os.getcwd()


def write_bench(doc: dict[str, Any], path: str | os.PathLike) -> None:
    """Write a snapshot as canonical (sorted-key) pretty JSON."""
    parent = os.path.dirname(os.fspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_bench(path: str | os.PathLike) -> dict[str, Any]:
    """Load a snapshot written by :func:`write_bench` (version-checked)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    v = doc.get("bench_version")
    if v != BENCH_VERSION:
        raise ValueError(
            f"unsupported bench snapshot version {v!r} "
            f"(this reader understands {BENCH_VERSION})"
        )
    return doc


# -- comparison / regression gating ------------------------------------------------


@dataclass
class CaseComparison:
    """Verdict for one case present in both snapshots."""

    name: str
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class BenchComparison:
    """Outcome of diffing a fresh snapshot against a baseline."""

    cases: list[CaseComparison] = field(default_factory=list)
    #: Baseline cases the new snapshot no longer runs (a failure: the
    #: suite silently shrank) and cases new to this snapshot (fine).
    missing: list[str] = field(default_factory=list)
    added: list[str] = field(default_factory=list)
    wall_gated: bool = False
    wall_skip_reason: str | None = None

    @property
    def ok(self) -> bool:
        return not self.missing and all(c.ok for c in self.cases)


def compare_bench(
    new: dict[str, Any],
    baseline: dict[str, Any],
    wall: str = "auto",
    wall_threshold: float = 3.0,
    wall_floor_s: float = 0.005,
) -> BenchComparison:
    """Gate a fresh snapshot against a baseline.

    Deterministic counts (:data:`GATED_COUNTS`) must match exactly; other
    deterministic drift (sim times, items synced) is reported as a note.
    Wall-clock gating fails a case whose median grew by more than
    ``wall_threshold × max(IQR_baseline, IQR_new, noise_floor)``, where
    the noise floor is ``max(wall_floor_s, 10% of the baseline median)``
    — sub-100ms smoke cases jitter far more than their IQR suggests on a
    loaded machine.  With ``wall="auto"`` the gate only applies when both
    snapshots carry the same environment fingerprint (medians from
    different machines are not comparable); ``"always"``/``"never"``
    force it either way.
    """
    if wall not in ("auto", "always", "never"):
        raise ValueError(f"wall must be auto|always|never, got {wall!r}")
    base_by = {c["name"]: c for c in baseline.get("cases", [])}
    new_by = {c["name"]: c for c in new.get("cases", [])}
    cmp = BenchComparison(
        missing=sorted(set(base_by) - set(new_by)),
        added=sorted(set(new_by) - set(base_by)),
    )
    if wall == "always":
        cmp.wall_gated = True
    elif wall == "never":
        cmp.wall_skip_reason = "disabled (--wall never)"
    else:
        same_env = new.get("environment") == baseline.get("environment")
        cmp.wall_gated = same_env
        if not same_env:
            cmp.wall_skip_reason = (
                "environment fingerprints differ (wall medians from "
                "different machines are not comparable; force with --wall always)"
            )

    for name in sorted(set(base_by) & set(new_by)):
        b, n = base_by[name], new_by[name]
        cc = CaseComparison(name)
        bdet, ndet = b.get("deterministic", {}), n.get("deterministic", {})
        for f in GATED_COUNTS:
            if ndet.get(f) != bdet.get(f):
                cc.failures.append(
                    f"{f} changed: {bdet.get(f)} -> {ndet.get(f)}"
                )
        for f in sorted(set(bdet) | set(ndet)):
            if f in GATED_COUNTS:
                continue
            if ndet.get(f) != bdet.get(f):
                cc.notes.append(f"{f}: {bdet.get(f)} -> {ndet.get(f)}")
        bcomm, ncomm = b.get("comm"), n.get("comm")
        if bcomm is not None and ncomm is not None:
            for f in GATED_COMM_COUNTS:
                if ncomm.get(f) != bcomm.get(f):
                    cc.failures.append(
                        f"comm.{f} changed: {bcomm.get(f)} -> {ncomm.get(f)}"
                    )
        elif bcomm is not None and ncomm is None:
            cc.failures.append("comm section missing from the new snapshot")
        elif bcomm is None and ncomm is not None:
            cc.notes.append("comm: no baseline yet (pre-ledger snapshot)")
        brnd, nrnd = b.get("rounds"), n.get("rounds")
        if brnd is not None and nrnd is not None:
            for f in GATED_ROUND_COUNTS:
                if nrnd.get(f) != brnd.get(f):
                    cc.failures.append(
                        f"rounds.{f} changed: {brnd.get(f)} -> {nrnd.get(f)}"
                    )
        elif brnd is not None and nrnd is None:
            cc.failures.append("rounds section missing from the new snapshot")
        elif brnd is None and nrnd is not None:
            cc.notes.append("rounds: no baseline yet (pre-ledger snapshot)")
        if cmp.wall_gated:
            bw, nw = b.get("wall_s", {}), n.get("wall_s", {})
            bm, nm = bw.get("median"), nw.get("median")
            if bm is not None and nm is not None:
                floor = max(wall_floor_s, 0.1 * bm)
                noise = max(bw.get("iqr", 0.0), nw.get("iqr", 0.0), floor)
                budget = wall_threshold * noise
                if nm > bm + budget:
                    cc.failures.append(
                        f"wall median regressed: {bm:.4f}s -> {nm:.4f}s "
                        f"(> {wall_threshold:g}x noise {noise:.4f}s)"
                    )
                elif nm < bm - budget:
                    cc.notes.append(
                        f"wall median improved: {bm:.4f}s -> {nm:.4f}s"
                    )
        cmp.cases.append(cc)
    return cmp


def render_comparison(cmp: BenchComparison) -> str:
    """Human-readable comparison report with a final PASS/FAIL line."""
    from repro.analysis.reporting import format_table

    rows: list[list[object]] = []
    for cc in cmp.cases:
        detail = "; ".join(cc.failures) or "; ".join(cc.notes) or "-"
        rows.append([cc.name, "FAIL" if cc.failures else "ok", detail])
    for name in cmp.missing:
        rows.append([name, "FAIL", "case missing from the new snapshot"])
    for name in cmp.added:
        rows.append([name, "new", "no baseline yet"])
    lines = [format_table(["case", "status", "detail"], rows,
                          title="bench comparison")]
    if cmp.wall_skip_reason:
        lines.append(f"wall-clock gate skipped: {cmp.wall_skip_reason}")
    lines.append(f"bench verdict: {'PASS' if cmp.ok else 'FAIL'}")
    return "\n".join(lines)
