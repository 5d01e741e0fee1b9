"""Min-Rounds BC in the CONGEST model: the paper's Algorithms 3 + 4 + 5.

This module orchestrates the two network phases:

1. **Forward** — :class:`~repro.core.apsp.DirectedAPSPProgram` (Alg. 3,
   optionally with Alg. 4's finalizer, or the k-SSP variant of Lemma 8
   with global termination detection).
2. **Backward** — :class:`~repro.core.accumulation.AccumulationProgram`
   (Alg. 5), scheduled by reversing the forward timestamps.

and returns distances, shortest-path counts, dependencies, BC values, and
the exact round/message statistics that Theorem 1 and Lemma 8 bound.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.congest.messages import MessageStats
from repro.congest.network import CongestNetwork
from repro.core.accumulation import AccumulationProgram, schedule_summary
from repro.core.apsp import APSPVertexState, DirectedAPSPProgram, flatmap_occupancy
from repro.core.sampling import resolve_sources
from repro.graph.digraph import DiGraph
from repro.resilience.supervisor import run_congest_with_restart

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.context import ResilienceContext

#: Sentinel distance for "unreachable" in dense output arrays.
UNREACHABLE = -1


@dataclass
class APSPResult:
    """Forward-phase output."""

    #: ``dist[i, v]`` = δ(sources[i], v), or :data:`UNREACHABLE`.
    dist: np.ndarray
    #: ``sigma[i, v]`` = number of shortest paths from sources[i] to v.
    sigma: np.ndarray
    #: Source vertex ids, in row order of ``dist``/``sigma``.
    sources: np.ndarray
    #: Per-vertex forward state (predecessors, timestamps) for Alg. 5.
    states: list[APSPVertexState]
    rounds: int
    last_send_round: int
    terminated_by: str
    stats: MessageStats
    #: Diameter computed by Algorithm 4 (None when the finalizer was off
    #: or never completed).
    diameter: int | None


@dataclass
class MRBCResult:
    """Full MRBC output (forward + accumulation)."""

    bc: np.ndarray
    dist: np.ndarray
    sigma: np.ndarray
    #: ``delta[i, v]`` = δ_{sources[i]}•(v).
    delta: np.ndarray
    sources: np.ndarray
    forward_rounds: int
    backward_rounds: int
    stats_forward: MessageStats
    stats_backward: MessageStats
    diameter: int | None

    @property
    def total_rounds(self) -> int:
        """Forward plus backward rounds (the Theorem 1 part II quantity)."""
        return self.forward_rounds + self.backward_rounds

    @property
    def total_messages(self) -> int:
        """Total channel messages across both phases."""
        return self.stats_forward.messages + self.stats_backward.messages


def directed_apsp(
    g: DiGraph,
    sources: np.ndarray | list[int] | None = None,
    use_finalizer: bool = False,
    known_n: bool = True,
    detect_termination: bool = True,
    resilience: "ResilienceContext | None" = None,
) -> APSPResult:
    """Run the forward phase (Alg. 3 / Lemma 8 k-SSP) and collect results.

    Parameters mirror Theorem 1's three cases:

    - full APSP with ``use_finalizer=True`` → ``min{2n, n + 5D}`` rounds;
    - full APSP with ``use_finalizer=False`` → at most ``2n`` rounds (and
      at most ``mn`` forward messages, Theorem 1 part I.2);
    - ``sources`` given (k-SSP) with ``detect_termination=True`` →
      ``k + H`` rounds and ``mk`` messages (Lemma 8).

    With a ``resilience`` context, channel faults from its plan are
    guarded per channel, and an injected host crash restarts the whole
    network run (programs rebuild from the immutable inputs, so the
    replay is exact).
    """
    n = g.num_vertices
    src = resolve_sources(sources, g.num_vertices)
    k_ssp = sources is not None
    source_set: frozenset[int] | None = frozenset(src.tolist()) if k_ssp else None
    if k_ssp and use_finalizer:
        raise ValueError("the finalizer applies only to full APSP")

    # Upper bound on rounds: 2n for full APSP (Alg. 3 Step 7); k + n for
    # k-SSP (H <= n - 1 always, plus slack for the detector's final round).
    max_rounds = 2 * n if not k_ssp else len(src) + n + 1
    tele = obs.current()
    with tele.span(
        "phase:apsp", kind="phase", phase="apsp", k=int(src.size)
    ) as sp:

        def phase_body() -> tuple[CongestNetwork, "NetworkRunResult"]:
            net = CongestNetwork(
                g,
                lambda v: DirectedAPSPProgram(
                    sources=source_set, use_finalizer=use_finalizer, known_n=known_n
                ),
                expose_n=known_n,
                resilience=resilience,
            )
            return net, net.run(
                max_rounds,
                detect_quiescence=detect_termination,
                detect_stopped=use_finalizer,
            )

        net, run = run_congest_with_restart(resilience, phase_body)
        if sp is not None:
            states_for_occ = [
                p.state for p in net.programs  # type: ignore[union-attr]
            ]
            sp.set(rounds=run.rounds_executed, **flatmap_occupancy(states_for_occ))
            hist = tele.metrics.histogram("congest.flatmap_entries")
            for st in states_for_occ:
                hist.observe(len(st.entries))

    k = src.size
    dist = np.full((k, n), UNREACHABLE, dtype=np.int64)
    sigma = np.zeros((k, n), dtype=np.float64)
    row_of = {int(s): i for i, s in enumerate(src)}
    states: list[APSPVertexState] = []
    diameter: int | None = None
    for v, prog in enumerate(net.programs):
        assert isinstance(prog, DirectedAPSPProgram)
        st = prog.state
        states.append(st)
        for s, d in st.dist.items():
            i = row_of[s]
            dist[i, v] = d
            sigma[i, v] = st.sigma[s]
        if prog.finalizer is not None and prog.finalizer.diameter is not None:
            diameter = prog.finalizer.diameter
    return APSPResult(
        dist=dist,
        sigma=sigma,
        sources=src,
        states=states,
        rounds=run.rounds_executed,
        last_send_round=run.last_send_round,
        terminated_by=run.terminated_by,
        stats=run.stats,
        diameter=diameter,
    )


def mrbc_congest(
    g: DiGraph,
    sources: np.ndarray | list[int] | None = None,
    use_finalizer: bool = False,
    known_n: bool = True,
    resilience: "ResilienceContext | None" = None,
) -> MRBCResult:
    """Compute betweenness centrality with Min-Rounds BC (CONGEST model).

    ``sources=None`` computes exact BC (all-pairs); a source subset gives
    the sampled approximation the paper's evaluation uses (k-SSP + Alg. 5).
    Returns per-vertex BC plus the exact round/message accounting.

    With a ``resilience`` context, each network phase (forward,
    accumulation) is a restart unit: an injected crash rebuilds the
    phase's programs and replays it, bounded by the context's restart
    budget (and backoff, when a recovery policy is attached).
    """
    fwd = directed_apsp(
        g,
        sources=sources,
        use_finalizer=use_finalizer,
        known_n=known_n,
        detect_termination=True,
        resilience=resilience,
    )
    n = g.num_vertices
    # R: every τ_sv must satisfy A_sv = R - τ_sv >= 0, so the tightest
    # valid R is max τ_sv.  (A vertex with no out-neighbors still consumes
    # a timestamp even though no channel message leaves it, so max τ can
    # exceed the network's last_send_round.)
    R = max(
        (max(st.tau.values()) for st in fwd.states if st.tau),
        default=1,
    )

    acc_programs: list[AccumulationProgram] = []

    def factory(v: int) -> AccumulationProgram:
        prog = AccumulationProgram(fwd.states[v], R)
        return prog

    tele = obs.current()
    with tele.span(
        "phase:accumulation", kind="phase", phase="accumulation", R=R
    ) as sp:
        # The accumulation programs only read the (immutable) forward
        # states and reset their own accumulators in setup(), so a crash
        # restart can rebuild the whole network safely.
        def acc_body():
            net = CongestNetwork(g, factory, expose_n=known_n, resilience=resilience)
            return net, net.run(R + 1, detect_quiescence=True)

        net, run = run_congest_with_restart(resilience, acc_body)
        acc_programs = net.programs  # type: ignore[assignment]
        if sp is not None:
            sp.set(rounds=run.rounds_executed, **schedule_summary(acc_programs))

    k = fwd.sources.size
    row_of = {int(s): i for i, s in enumerate(fwd.sources)}
    delta = np.zeros((k, n), dtype=np.float64)
    bc = np.zeros(n, dtype=np.float64)
    for v, prog in enumerate(acc_programs):
        assert isinstance(prog, AccumulationProgram)
        for s, d in prog.delta.items():
            delta[row_of[s], v] = d
        bc[v] = prog.bc_contribution()
    return MRBCResult(
        bc=bc,
        dist=fwd.dist,
        sigma=fwd.sigma,
        delta=delta,
        sources=fwd.sources,
        forward_rounds=fwd.rounds,
        backward_rounds=run.rounds_executed,
        stats_forward=fwd.stats,
        stats_backward=run.stats,
        diameter=fwd.diameter,
    )


@dataclass
class BatchedMRBCResult:
    """Aggregate of per-batch CONGEST MRBC runs (the theory-level analogue
    of the engine's Table 1 accounting)."""

    bc: np.ndarray
    sources: np.ndarray
    batch_size: int
    total_rounds: int
    total_messages: int
    per_batch_rounds: list[int]
    #: The per-batch CONGEST runs, in batch order.
    batches: list[MRBCResult]

    def rounds_per_source(self) -> float:
        """Table 1's metric at the CONGEST level."""
        return self.total_rounds / max(1, self.sources.size)


def mrbc_congest_batched(
    g: DiGraph,
    sources: np.ndarray | list[int],
    batch_size: int = 32,
) -> BatchedMRBCResult:
    """Run CONGEST MRBC over size-``batch_size`` source batches.

    Each batch is one Lemma 8 execution (k-SSP + Algorithm 5): at most
    ``2(k + H)`` rounds and ``2mk`` messages.  The totals across batches
    are what the paper's Table 1 reports per source — this function lets
    the round comparison against :func:`repro.baselines.sbbc_congest.
    sbbc_congest` be made purely inside the CONGEST model.
    """
    from repro.core.batching import iter_batches

    src = resolve_sources(sources, g.num_vertices)
    bc = np.zeros(g.num_vertices, dtype=np.float64)
    total_rounds = 0
    total_messages = 0
    per_batch: list[int] = []
    batches: list[MRBCResult] = []
    rledger = obs.current().rounds
    for b0, batch in enumerate(iter_batches(src, batch_size)):
        # Label this batch's network runs in the round ledger, so the
        # per-batch rounds-vs-2(k+H) comparison is readable off it.
        ctx = (
            rledger.context(batch=b0, k=int(len(batch)))
            if rledger is not None
            else nullcontext()
        )
        with ctx:
            res = mrbc_congest(g, sources=batch)
        bc += res.bc
        batches.append(res)
        per_batch.append(res.total_rounds)
        total_rounds += res.total_rounds
        total_messages += res.total_messages
    return BatchedMRBCResult(
        bc=bc,
        sources=src,
        batch_size=batch_size,
        total_rounds=total_rounds,
        total_messages=total_messages,
        per_batch_rounds=per_batch,
        batches=batches,
    )
