"""Predicted-vs-measured round-bound conformance (``repro rounds --check``).

The :class:`~repro.obs.rounds.RoundLedger` measures how many BSP /
CONGEST rounds each source batch actually took; this module checks the
measurements against what §4 of the paper predicts, producing a PASS/FAIL
report:

- **ledger ↔ engine reconciliation** — ledger round totals (overall and
  per phase) must equal the authoritative :class:`~repro.engine.stats
  .EngineRun` accounting exactly; CONGEST ledger totals must equal the
  batched result's round sum;
- **per-batch round budget** — every forward (and backward) pass over a
  batch of ``k`` sources must finish within ``Diam + k + slack`` rounds,
  the engine-level form of Lemma 8's ``k + H`` bound (``H`` measured as
  the largest finite distance from the case's sources, ``slack`` absorbs
  the detector's trailing all-quiet round);
- **Lemma 8 batch bound (CONGEST)** — each batch's forward + accumulation
  network runs must finish within ``2(k + H) + slack`` rounds, the
  Theorem 1 part II per-batch quantity;
- **quiescence** — on fault-free runs every phase unit must terminate by
  quiescence detection, never by hitting its round limit;
- **work efficiency** — forward fires settle each reachable ``(source,
  vertex)`` pair exactly once (ledger ``settled`` equals the count of
  finite distances), and backward fires settle each non-source pair
  exactly once — the "every pair fires once" invariant behind the round
  bound's work term;
- **delayed-sync round neutrality** — §4.3's delayed synchronization
  saves bytes; it must not *cost* rounds (MRBC with ``delayed_sync=True``
  takes no more rounds than the eager ablation).

The default suite (:data:`DEFAULT_ROUND_SUITE`) is CI-sized: both graph
regimes (random, high-diameter road) across both Gluon engines and the
batched CONGEST implementation.  Fault injection is deliberately absent —
the budgets are defined on fault-free runs (recovery rounds are ledgered
separately and excluded from the per-batch counts by construction).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

import numpy as np

from repro.analysis.commcheck import CheckResult, CommReport
from repro.obs.rounds import RoundLedger, UnitRounds
from repro.runspec import RunSpec, execute

#: Extra rounds allowed on top of the theoretical ``Diam + k`` budget:
#: one trailing all-quiet round for the quiescence detector, one for the
#: batch's startup round.  Deliberately small — the paper's bound is the
#: point, and the engines meet it tightly (see ``tests/test_rounds.py``).
DEFAULT_SLACK = 2


#: A round report has the comm report's shape: schema 1, verdict, checks.
RoundReport = CommReport


#: CI-sized: seconds total, both engines and both graph regimes, plus the
#: batched CONGEST implementation (the Lemma 8 bound holds per batch).
#: Batch 4 splits each case's 8 sources into two MRBC batches.
DEFAULT_ROUND_SUITE: tuple[RunSpec, ...] = (
    RunSpec("mrbc-er60", "mrbc", "er:60:3", batch=4),
    RunSpec("mrbc-road8", "mrbc", "grid:8:8", batch=4),
    RunSpec("sbbc-er60", "sbbc", "er:60:3", batch=4),
    RunSpec("sbbc-road8", "sbbc", "grid:8:8", batch=4),
    RunSpec("congest-er60", "mrbc-congest", "er:60:3", batch=4),
    RunSpec("congest-road8", "mrbc-congest", "grid:8:8", batch=4),
)


# -- engine-side checks ------------------------------------------------------------


def check_ledger_run(case: str, run: Any, ledger: RoundLedger) -> list[CheckResult]:
    """Ledger ↔ :class:`EngineRun` reconciliation (exact)."""
    by_phase = ledger.rounds_by_phase()
    run_by_phase = {
        p: run.rounds_in_phase(p) for p in sorted(by_phase)
    }
    return [
        CheckResult(
            case,
            "ledger-rounds-vs-run",
            predicted=run.num_rounds,
            measured=ledger.total_rounds(),
            ok=ledger.total_rounds() == run.num_rounds,
            detail="one ledger row per EngineRun round, crashes included",
        ),
        CheckResult(
            case,
            "ledger-phase-rounds-vs-run",
            predicted=run_by_phase,
            measured=by_phase,
            ok=by_phase == run_by_phase,
            detail="per-phase ledger rows must match effective_phase counts",
        ),
    ]


def check_round_budget(
    case: str,
    units: list[UnitRounds],
    diameter: int,
    default_k: int,
    slack: int,
) -> list[CheckResult]:
    """Every phase unit must finish within ``Diam + k + slack`` rounds.

    ``k`` is read from the unit's attrs when the driver recorded it
    (MRBC batches), else 1 for per-source units (SBBC), else
    ``default_k``.  The backward pass reverses the forward schedule, so
    the same budget applies to it (Theorem 1 part II's factor 2).
    """
    out: list[CheckResult] = []
    worst = 0
    worst_budget = 0
    worst_margin = float("-inf")
    ok = True
    for u in units:
        if "k" in u.attrs:
            k = int(u.attrs["k"])
        elif "source" in u.attrs:
            k = 1
        else:
            k = default_k
        budget = diameter + k + slack
        if u.num_rounds - budget > worst_margin:
            worst, worst_budget = u.num_rounds, budget
            worst_margin = u.num_rounds - budget
        if u.num_rounds > budget:
            ok = False
            out.append(
                CheckResult(
                    case,
                    "round-budget",
                    predicted=f"<= {budget} (Diam {diameter} + k {k} + slack {slack})",
                    measured=u.num_rounds,
                    ok=False,
                    detail=f"unit {u.phase} {u.label} exceeded its budget",
                )
            )
    if ok:
        out.append(
            CheckResult(
                case,
                "round-budget",
                predicted=f"<= Diam {diameter} + k + slack {slack} per unit",
                measured=worst,
                ok=True,
                detail=f"worst unit used {worst} of {worst_budget} rounds",
            )
        )
    return out


def check_quiescence(case: str, units: list[UnitRounds]) -> CheckResult:
    """Fault-free units must end by quiescence, never by round limit."""
    bad = [
        f"{u.phase} {u.label}: {u.terminated_by}"
        for u in units
        if u.terminated_by not in ("quiescence", "stopped")
    ]
    return CheckResult(
        case,
        "unit-quiescence",
        predicted="every unit terminates by quiescence",
        measured=bad or "all quiescent",
        ok=not bad,
        detail="round-limit termination means the bound was never reached",
    )


def check_work_efficiency(
    case: str, ledger: RoundLedger, dist: np.ndarray, num_sources: int
) -> list[CheckResult]:
    """Each reachable (source, vertex) pair fires exactly once per phase.

    Forward fires settle every finite-distance pair; backward fires settle
    every finite pair except the sources themselves (a source has no
    dependency contribution to receive).
    """
    finite = int((np.asarray(dist) >= 0).sum())
    fwd = ledger.total_settled("forward")
    bwd = ledger.total_settled("backward")
    return [
        CheckResult(
            case,
            "work-efficiency-forward",
            predicted=finite,
            measured=fwd,
            ok=fwd == finite,
            detail="forward fires must equal the finite-distance pair count",
        ),
        CheckResult(
            case,
            "work-efficiency-backward",
            predicted=finite - num_sources,
            measured=bwd,
            ok=bwd == finite - num_sources,
            detail="backward fires cover every finite pair except the sources",
        ),
    ]


def check_delayed_rounds(
    case: str, rounds_delayed: int, rounds_eager: int
) -> CheckResult:
    """§4.3's delayed sync saves bytes; it must not cost rounds."""
    return CheckResult(
        case,
        "delayed-sync-rounds",
        predicted=f"<= {rounds_eager}",
        measured=rounds_delayed,
        ok=rounds_delayed <= rounds_eager,
        detail="delayed sync must not inflate the round count vs eager",
    )


# -- CONGEST-side checks -----------------------------------------------------------


def check_lemma8_batches(
    case: str,
    ledger: RoundLedger,
    diameter: int,
    slack: int,
) -> CheckResult:
    """Each batch's network runs stay within ``2(k + H) + slack`` rounds.

    Groups the ledger's "congest" units by their ``batch`` attr (one
    forward k-SSP run plus one Alg. 5 accumulation run each) and compares
    the per-batch sum against Lemma 8's two-phase budget.
    """
    per_batch: dict[Any, int] = {}
    k_of: dict[Any, int] = {}
    for u in ledger.units("congest"):
        b = u.attrs.get("batch")
        per_batch[b] = per_batch.get(b, 0) + u.num_rounds
        k_of[b] = int(u.attrs.get("k", 1))
    bad: list[str] = []
    worst = 0
    worst_budget = 0
    worst_margin = float("-inf")
    for b, rounds in per_batch.items():
        budget = 2 * (k_of[b] + diameter) + slack
        if rounds - budget > worst_margin:
            worst, worst_budget = rounds, budget
            worst_margin = rounds - budget
        if rounds > budget:
            bad.append(f"batch {b}: {rounds} > {budget}")
    return CheckResult(
        case,
        "lemma8-batch-rounds",
        predicted=f"<= 2(k + H {diameter}) + slack {slack} per batch",
        measured=bad or worst,
        ok=not bad,
        detail=(
            f"worst batch used {worst} of {worst_budget} rounds"
            if not bad
            else "per-batch round budget exceeded"
        ),
    )


def check_ledger_congest(case: str, res: Any, ledger: RoundLedger) -> CheckResult:
    """Ledger ↔ :class:`BatchedMRBCResult` reconciliation (exact)."""
    return CheckResult(
        case,
        "ledger-rounds-vs-result",
        predicted=res.total_rounds,
        measured=ledger.total_rounds(),
        ok=ledger.total_rounds() == res.total_rounds,
        detail="one ledger row per CONGEST network round, across batches",
    )


# -- suite driver ------------------------------------------------------------------


def run_case_checks(case: RunSpec, slack: int = DEFAULT_SLACK) -> list[CheckResult]:
    """Run one case under a fresh ledger; budgets allow ``slack`` extra rounds."""
    from repro.graph.properties import estimate_diameter

    g, sources = case.load()
    # The paper's H: the largest finite distance from any case source — an
    # upper bound on every batch's eccentricity.
    diameter = estimate_diameter(g, sources)
    ledger = RoundLedger()
    res = execute(case, g, sources, rounds=ledger)

    if case.algorithm == "mrbc-congest":
        return [
            check_ledger_congest(case.name, res, ledger),
            check_lemma8_batches(case.name, ledger, diameter, slack),
            check_quiescence(case.name, ledger.units()),
        ]

    results = [
        *check_ledger_run(case.name, res.run, ledger),
        *check_round_budget(
            case.name, ledger.units(), diameter, case.batch, slack
        ),
        check_quiescence(case.name, ledger.units()),
        *check_work_efficiency(
            case.name, ledger, res.dist, int(sources.size)
        ),
    ]
    if case.algorithm == "mrbc":
        eager = RoundLedger()
        execute(replace(case, delayed_sync=False), g, sources, rounds=eager)
        results.append(
            check_delayed_rounds(
                case.name, ledger.total_rounds(), eager.total_rounds()
            )
        )
    return results


def run_conformance(
    cases: "tuple[RunSpec, ...] | list[RunSpec]" = DEFAULT_ROUND_SUITE,
    progress: Callable[[RunSpec], None] | None = None,
    slack: int = DEFAULT_SLACK,
) -> RoundReport:
    """Run the conformance suite and assemble the PASS/FAIL report."""
    report = RoundReport()
    for case in cases:
        if progress is not None:
            progress(case)
        report.results.extend(run_case_checks(case, slack=slack))
    return report


def render_rounds_report(report: RoundReport) -> str:
    """Text table with one row per check and a final verdict line."""
    from repro.analysis.reporting import format_table

    def fmt(v: Any) -> str:
        if isinstance(v, float):
            return f"{v:.6g}"
        if isinstance(v, dict):
            return str(dict(sorted(v.items())))
        if isinstance(v, list):
            return "; ".join(str(x) for x in v)
        return str(v)

    rows = [
        [r.case, r.check, fmt(r.predicted), fmt(r.measured),
         "ok" if r.ok else "FAIL"]
        for r in report.results
    ]
    table = format_table(
        ["case", "check", "predicted", "measured", "status"],
        rows,
        title="round-bound conformance",
    )
    return f"{table}\nroundcheck verdict: {'PASS' if report.ok else 'FAIL'}"
