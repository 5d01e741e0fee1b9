"""Predicted-vs-measured communication conformance (``repro comm --check``).

The :class:`~repro.obs.comm.CommLedger` measures who sent what; this
module checks the measurements against what the theory and the rest of
the stack *predict*, producing a PASS/FAIL report:

- **ledger ↔ engine reconciliation** — Gluon ledger totals must equal the
  authoritative :class:`~repro.engine.stats.EngineRun` accounting exactly
  (total bytes, pair messages, and the per-host ``bytes_out``/``bytes_in``
  arrays), and CONGEST ledger totals must equal the network's
  :class:`~repro.congest.messages.MessageStats`, summed over the batches;
- **α/β model conformance** — rebuilding the per-round per-host traffic
  from the ledger's channel records and pricing it with the
  :class:`~repro.cluster.model.ClusterModel` constants must reproduce the
  model's wire / serialization / barrier+message terms within
  :data:`REL_TOL` (the documented tolerance: the two sums associate
  floats in different orders);
- **CONGEST bandwidth bound** — no channel may carry more than
  ``B = c·⌈log₂ n⌉`` words in any round (Theorem 1's per-message budget),
  and no round may use more than the 2m directed channels that exist;
- **delayed-sync savings** — the paper's delayed-synchronization
  optimization must show up as a measured byte *reduction* (MRBC with
  ``delayed_sync=True`` vs the eager ablation).

The default suite (:data:`DEFAULT_CHECK_SUITE`) is CI-sized: both graph
regimes (random, high-diameter road) across the Gluon engines and the
CONGEST implementation.  Fault injection is deliberately absent — the
reconciliation invariants are defined on fault-free runs (retransmit
traffic is recorded too, but perturbed-channel *deliveries* are not
re-measured).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.obs.comm import (
    PLANE_CONGEST,
    PLANE_GLUON,
    CommLedger,
    congest_bound_words,
)
from repro.runspec import RunSpec, execute

#: Relative tolerance for the α/β float reconstructions.  The ledger
#: reconstruction and ``ClusterModel.time_run`` sum the same per-round
#: terms in different association orders, so they agree to rounding, not
#: bit-exactly; counts are still compared exactly.
REL_TOL = 1e-9


@dataclass
class CheckResult:
    """One predicted-vs-measured comparison."""

    case: str
    check: str
    predicted: Any
    measured: Any
    ok: bool
    tolerance: str = "exact"
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "case": self.case,
            "check": self.check,
            "predicted": self.predicted,
            "measured": self.measured,
            "ok": self.ok,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


@dataclass
class CommReport:
    """All checks of one conformance run, with the overall verdict."""

    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": 1,
            "verdict": "PASS" if self.ok else "FAIL",
            "checks": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


#: CI-sized: seconds total, both engines and both graph regimes, plus
#: batched CONGEST MRBC on both.  Every case takes :class:`RunSpec`'s CI-sized defaults (4 hosts, 8
#: sources, batch 8, seed 7).
DEFAULT_CHECK_SUITE: tuple[RunSpec, ...] = (
    RunSpec("mrbc-er60", "mrbc", "er:60:3"),
    RunSpec("mrbc-road8", "mrbc", "grid:8:8"),
    RunSpec("sbbc-er60", "sbbc", "er:60:3"),
    RunSpec("congest-er60", "mrbc-congest", "er:60:3"),
    RunSpec("congest-road8", "mrbc-congest", "grid:8:8"),
)


def _rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- gluon-side checks -------------------------------------------------------------


def check_engine_ledger(case: str, run: Any, ledger: CommLedger) -> list[CheckResult]:
    """Ledger ↔ :class:`EngineRun` reconciliation (exact)."""
    totals = ledger.totals(PLANE_GLUON)
    out: list[CheckResult] = [
        CheckResult(
            case,
            "ledger-bytes-vs-run",
            predicted=run.total_bytes,
            measured=totals.payload_bytes,
            ok=totals.payload_bytes == run.total_bytes,
            detail="ledger payload bytes must equal EngineRun.total_bytes",
        ),
        CheckResult(
            case,
            "ledger-messages-vs-run",
            predicted=run.total_pair_messages,
            measured=totals.messages,
            ok=totals.messages == run.total_pair_messages,
            detail="one ledger record per aggregated pair message",
        ),
    ]
    led_out, led_in = ledger.per_host_bytes(run.num_hosts)
    run_out = [0] * run.num_hosts
    run_in = [0] * run.num_hosts
    for rs in run.rounds:
        for h in range(run.num_hosts):
            run_out[h] += int(rs.bytes_out[h])
            run_in[h] += int(rs.bytes_in[h])
    out.append(
        CheckResult(
            case,
            "ledger-per-host-bytes-vs-run",
            predicted={"out": run_out, "in": run_in},
            measured={"out": led_out, "in": led_in},
            ok=led_out == run_out and led_in == run_in,
            detail="channel records must reconstruct the per-host byte arrays",
        )
    )
    return out


def check_alpha_beta(
    case: str, run: Any, ledger: CommLedger, model: Any
) -> list[CheckResult]:
    """α/β conformance: price the ledger's traffic, match the model's terms."""
    c = model.constants
    wire = 0.0
    ser = 0.0
    msg = 0.0
    for rc in ledger.rounds(PLANE_GLUON):
        out_b = [0] * run.num_hosts
        in_b = [0] * run.num_hosts
        out_m = [0] * run.num_hosts
        in_m = [0] * run.num_hosts
        for (src, dst), t in rc.pairs.items():
            out_b[src] += t.payload_bytes
            in_b[dst] += t.payload_bytes
            out_m[src] += t.messages
            in_m[dst] += t.messages
        max_bytes = max(o + i for o, i in zip(out_b, in_b))
        max_msgs = max(o + i for o, i in zip(out_m, in_m))
        wire += max_bytes * c.wire_per_byte
        ser += max_bytes * c.serialize_per_byte
        msg += max_msgs * c.per_message
    barrier = run.num_rounds * model.barrier_latency() + msg
    sim = model.time_run(run)
    tol = f"relative {REL_TOL:g}"
    return [
        CheckResult(
            case,
            "alpha-beta-wire",
            predicted=wire,
            measured=sim.wire,
            ok=_rel_close(wire, sim.wire),
            tolerance=tol,
            detail="ledger-reconstructed max-host bytes x wire_per_byte",
        ),
        CheckResult(
            case,
            "alpha-beta-serialization",
            predicted=ser,
            measured=sim.serialization,
            ok=_rel_close(ser, sim.serialization),
            tolerance=tol,
            detail="ledger-reconstructed max-host bytes x serialize_per_byte",
        ),
        CheckResult(
            case,
            "alpha-beta-barrier-msg",
            predicted=barrier,
            measured=sim.barrier,
            ok=_rel_close(barrier, sim.barrier),
            tolerance=tol,
            detail="rounds x barrier latency + max-host messages x per_message",
        ),
    ]


def check_delayed_sync(
    case: str, bytes_delayed: int, bytes_eager: int
) -> CheckResult:
    """The §4.2 optimization must be a measured byte reduction (≤ eager)."""
    saved = bytes_eager - bytes_delayed
    return CheckResult(
        case,
        "delayed-sync-savings",
        predicted=f"<= {bytes_eager}",
        measured=bytes_delayed,
        ok=bytes_delayed <= bytes_eager,
        detail=f"delayed sync saved {saved} bytes vs the eager ablation",
    )


# -- CONGEST-side checks -----------------------------------------------------------


def check_congest_bound(
    case: str, ledger: CommLedger, bound_words: int
) -> CheckResult:
    """No channel may exceed B = c·⌈log₂ n⌉ words in any round."""
    words, where = ledger.max_channel_words()
    detail = "no CONGEST traffic recorded"
    if where is not None:
        detail = (
            f"max channel {where.src}->{where.dst} in round "
            f"{where.round_index}; {len(ledger.violations)} violation(s)"
        )
    return CheckResult(
        case,
        "congest-channel-bound",
        predicted=f"<= {bound_words} words/round",
        measured=words,
        ok=words <= bound_words and not ledger.violations,
        detail=detail,
    )


def check_congest_channels(
    case: str, ledger: CommLedger, num_channels: int
) -> CheckResult:
    """Per round, at most one message per directed channel (2m total)."""
    peak = ledger.max_round_messages(PLANE_CONGEST)
    return CheckResult(
        case,
        "congest-round-channels",
        predicted=f"<= {num_channels} (directed channels)",
        measured=peak,
        ok=peak <= num_channels,
        detail="the outbox is keyed by channel: one combined message each",
    )


def check_congest_stats(case: str, res: Any, ledger: CommLedger) -> list[CheckResult]:
    """Ledger ↔ :class:`MessageStats` reconciliation (exact).

    ``res`` is a batched CONGEST result: the stats of every batch's
    forward and accumulation runs sum to the ledger's totals.
    """
    totals = ledger.totals(PLANE_CONGEST)
    stats = [s for b in res.batches for s in (b.stats_forward, b.stats_backward)]
    out: list[CheckResult] = []
    for attr, detail in (
        ("messages", "one ledger record per channel send"),
        ("values", "combined payload values per channel"),
        ("words", "machine words per payload_words()"),
    ):
        predicted = sum(getattr(s, attr) for s in stats)
        measured = getattr(totals, attr)
        out.append(CheckResult(
            case,
            f"ledger-{attr}-vs-stats",
            predicted=predicted,
            measured=measured,
            ok=measured == predicted,
            detail=detail,
        ))
    return out


# -- suite driver ------------------------------------------------------------------


def run_case_checks(case: RunSpec) -> list[CheckResult]:
    """Run one case's engine under a fresh ledger and evaluate its checks."""
    g, sources = case.load()

    if case.algorithm == "mrbc-congest":
        bound = congest_bound_words(g.num_vertices)
        ledger = CommLedger(bound_words=bound)
        res = execute(case, g, sources, comm=ledger)
        ug = g.to_undirected()
        num_channels = sum(
            len(ug.out_neighbors(v)) for v in range(g.num_vertices)
        )
        return [
            check_congest_bound(case.name, ledger, bound),
            check_congest_channels(case.name, ledger, num_channels),
            *check_congest_stats(case.name, res, ledger),
        ]

    from repro.cluster.model import ClusterModel

    ledger = CommLedger()
    res = execute(case, g, sources, comm=ledger)
    results = [
        *check_engine_ledger(case.name, res.run, ledger),
        *check_alpha_beta(case.name, res.run, ledger, ClusterModel(case.hosts)),
    ]
    if case.algorithm == "mrbc":
        eager_ledger = CommLedger()
        execute(replace(case, delayed_sync=False), g, sources, comm=eager_ledger)
        results.append(
            check_delayed_sync(
                case.name,
                ledger.totals(PLANE_GLUON).payload_bytes,
                eager_ledger.totals(PLANE_GLUON).payload_bytes,
            )
        )
    return results


def run_conformance(
    cases: "tuple[RunSpec, ...] | list[RunSpec]" = DEFAULT_CHECK_SUITE,
    progress: Callable[[RunSpec], None] | None = None,
) -> CommReport:
    """Run the conformance suite and assemble the PASS/FAIL report."""
    report = CommReport()
    for case in cases:
        if progress is not None:
            progress(case)
        report.results.extend(run_case_checks(case))
    return report


def render_comm_report(report: CommReport) -> str:
    """Text table with one row per check and a final verdict line."""
    from repro.analysis.reporting import format_table

    def fmt(v: Any) -> str:
        if isinstance(v, float):
            return f"{v:.6g}"
        if isinstance(v, dict):
            return "per-host arrays"
        return str(v)

    rows = [
        [r.case, r.check, fmt(r.predicted), fmt(r.measured),
         "ok" if r.ok else "FAIL", r.tolerance]
        for r in report.results
    ]
    table = format_table(
        ["case", "check", "predicted", "measured", "status", "tolerance"],
        rows,
        title="communication conformance",
    )
    return f"{table}\ncommcheck verdict: {'PASS' if report.ok else 'FAIL'}"
