"""Synchronous Brandes BC as a CONGEST algorithm (one source at a time).

The paper's round comparison (Table 1) is measured on the D-Galois engine;
this module provides the same comparison at the CONGEST level: the obvious
distributed Brandes runs, per source, a level-synchronous BFS (one round
per level) followed by a level-synchronous accumulation (one round per
level in reverse) — ``2·ecc(s) + O(1)`` rounds per source against MRBC's
``2(k + H)`` rounds per *batch* of k sources.  The tests use both to show
the round gap is intrinsic to the algorithms, not to the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.congest.messages import MessageStats
from repro.congest.network import CongestNetwork
from repro.congest.program import VertexContext, VertexProgram
from repro.core.sampling import resolve_sources
from repro.graph.digraph import DiGraph
from repro.resilience.supervisor import run_congest_with_restart

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.context import ResilienceContext


class _BFSPhase(VertexProgram):
    """Level-synchronous BFS with σ counting from one source."""

    def __init__(self, source: int) -> None:
        self._source = source

    def setup(self, ctx: VertexContext) -> None:
        super().setup(ctx)
        self.dist = 0 if ctx.vid == self._source else -1
        self.sigma = 1.0 if ctx.vid == self._source else 0.0
        self.preds: list[int] = []
        self._settled_round = 1 if ctx.vid == self._source else 0
        self._announced = False
        self._incoming: list[tuple[int, float]] = []

    def compute_sends(self, rnd: int) -> list[tuple[int, tuple[Any, ...]]]:
        # A vertex settled in round r announces (dist, σ) in round r —
        # its σ is complete because all its predecessors announced
        # simultaneously in round r-1.
        if self.dist >= 0 and not self._announced and rnd == self._settled_round:
            self._announced = True
            payload = ("lvl", self.dist, self.sigma)
            return [(int(t), payload) for t in self.ctx.out_neighbors]
        return []

    def handle_message(self, rnd: int, sender: int, payload: tuple[Any, ...]) -> None:
        _tag, d, sigma = payload
        if self.dist == -1:
            self.dist = d + 1
            self._settled_round = rnd + 1
        if self.dist == d + 1:
            self.sigma += sigma
            self.preds.append(sender)

    def has_pending_work(self, rnd: int) -> bool:
        return self.dist >= 0 and not self._announced


class _AccumulationPhase(VertexProgram):
    """Level-synchronous reverse sweep: level L fires in round 1, etc."""

    def __init__(self, bfs: _BFSPhase, max_level: int, source: int) -> None:
        self._bfs = bfs
        self._max_level = max_level
        self._source = source

    def setup(self, ctx: VertexContext) -> None:
        super().setup(ctx)
        self.delta = 0.0
        self._fired = False
        d = self._bfs.dist
        self._fire_round = (
            self._max_level - d + 1 if d > 0 else 0  # source never fires
        )

    def compute_sends(self, rnd: int) -> list[tuple[int, tuple[Any, ...]]]:
        if self._fire_round and rnd == self._fire_round and not self._fired:
            self._fired = True
            coeff = (1.0 + self.delta) / self._bfs.sigma
            return [(u, ("acc", coeff)) for u in sorted(set(self._bfs.preds))]
        return []

    def handle_message(self, rnd: int, sender: int, payload: tuple[Any, ...]) -> None:
        _tag, coeff = payload
        self.delta += self._bfs.sigma * coeff

    def has_pending_work(self, rnd: int) -> bool:
        return bool(self._fire_round) and not self._fired


@dataclass
class SBBCCongestResult:
    """Output of :func:`sbbc_congest`."""

    bc: np.ndarray
    dist: np.ndarray
    sigma: np.ndarray
    sources: np.ndarray
    forward_rounds: int
    backward_rounds: int
    stats_forward: MessageStats
    stats_backward: MessageStats

    @property
    def total_rounds(self) -> int:
        """All CONGEST rounds across sources and phases."""
        return self.forward_rounds + self.backward_rounds


def sbbc_congest(
    g: DiGraph,
    sources: np.ndarray | list[int] | None = None,
    resilience: "ResilienceContext | None" = None,
) -> SBBCCongestResult:
    """Level-synchronous Brandes BC in the CONGEST model.

    With a ``resilience`` context, channel faults are guarded per channel
    and each per-source network phase (BFS, accumulation) restarts from
    scratch on an injected crash, bounded by the context's budgets.
    """
    n = g.num_vertices
    src = resolve_sources(sources, n)

    bc = np.zeros(n)
    dist_all = np.full((src.size, n), -1, dtype=np.int64)
    sigma_all = np.zeros((src.size, n))
    fwd = bwd = 0
    stats_f = MessageStats()
    stats_b = MessageStats()
    for i, s in enumerate(src.tolist()):

        def bfs_body(s: int = int(s)):
            net = CongestNetwork(g, lambda v: _BFSPhase(s), resilience=resilience)
            return net, net.run(n + 1, detect_quiescence=True)

        net, run = run_congest_with_restart(resilience, bfs_body)
        fwd += run.rounds_executed
        stats_f.messages += run.stats.messages
        stats_f.values += run.stats.values
        stats_f.words += run.stats.words

        bfs_programs: list[_BFSPhase] = net.programs  # type: ignore[assignment]
        max_level = max((p.dist for p in bfs_programs), default=0)
        for v, p in enumerate(bfs_programs):
            dist_all[i, v] = p.dist
            sigma_all[i, v] = p.sigma

        def acc_body(s: int = int(s), max_level: int = max_level):
            net2 = CongestNetwork(
                g,
                lambda v: _AccumulationPhase(bfs_programs[v], max_level, s),
                resilience=resilience,
            )
            return net2, net2.run(max_level + 2, detect_quiescence=True)

        net2, run2 = run_congest_with_restart(resilience, acc_body)
        bwd += run2.rounds_executed
        stats_b.messages += run2.stats.messages
        stats_b.values += run2.stats.values
        stats_b.words += run2.stats.words
        for v, p in enumerate(net2.programs):  # type: ignore[assignment]
            if v != s:
                bc[v] += p.delta

    return SBBCCongestResult(
        bc=bc,
        dist=dist_all,
        sigma=sigma_all,
        sources=src,
        forward_rounds=fwd,
        backward_rounds=bwd,
        stats_forward=stats_f,
        stats_backward=stats_b,
    )
