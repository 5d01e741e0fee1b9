"""Asynchronous-Brandes BC (ABBC) — worklist-driven shared-memory Brandes.

ABBC (Prountzos & Pingali 2013, the Lonestar implementation the paper
measures) runs Brandes' algorithm asynchronously: the SSSP phase is a
data-driven worklist of relaxations with no level barriers, and the
dependency phase is likewise worklist-driven, a vertex firing once all its
DAG successors have contributed.  There are no BSP rounds — which is
exactly why it dominates on huge-diameter graphs (road networks), where
synchronous algorithms execute enormous numbers of nearly-empty rounds —
but it is restricted to a single shared-memory host (paper footnote 2), so
it cannot scale out and runs out of memory on large graphs.

The implementation below executes the real asynchronous schedule with a
FIFO worklist (counting genuine wasted work: re-relaxations that a later
shorter path invalidates) and reports the operation counts;
:func:`abbc_simulated_time` converts them to single-host time with a
contention model (power-law hubs serialize updates, matching §5.3's
observation that ABBC loses on power-law inputs due to contention).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.sampling import resolve_sources
from repro.graph.digraph import DiGraph


@dataclass
class ABBCResult:
    """Output of :func:`abbc`."""

    bc: np.ndarray
    dist: np.ndarray
    sigma: np.ndarray
    sources: np.ndarray
    #: Useful edge relaxations performed.
    useful_ops: int
    #: Wasted relaxations (work invalidated by later shorter paths) —
    #: the price of asynchrony.
    wasted_ops: int
    #: Peak per-source state in machine words (for the OOM model).
    memory_words: int
    out_of_memory: bool = False

    @property
    def total_ops(self) -> int:
        """All edge relaxations, useful and wasted."""
        return self.useful_ops + self.wasted_ops


def _async_sssp(
    g: DiGraph, source: int, counters: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """Asynchronous SSSP with σ maintenance over a FIFO worklist.

    FIFO order on an unweighted graph approximates BFS but permits
    out-of-order relaxations; when a shorter path arrives later, the
    vertex's σ and its downstream propagations are redone (counted as
    wasted work), exactly the wasted-work profile of the Lonestar
    asynchronous implementation.
    """
    n = g.num_vertices
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    preds: list[list[int]] = [[] for _ in range(n)]
    dist[source] = 0
    sigma[source] = 1.0
    wl: deque[int] = deque([source])
    in_wl = np.zeros(n, dtype=bool)
    in_wl[source] = True
    while wl:
        v = int(wl.popleft())
        in_wl[v] = False
        dv = int(dist[v])
        sv = float(sigma[v])
        for w in g.out_neighbors(v):
            w = int(w)
            nd = dv + 1
            dw = dist[w]
            if dw == -1 or nd < dw:
                if dw != -1:
                    counters["wasted"] += len(preds[w])
                dist[w] = nd
                sigma[w] = sv
                preds[w] = [v]
                counters["useful"] += 1
                if not in_wl[w]:
                    wl.append(w)
                    in_wl[w] = True
            elif nd == dw and v not in preds[w]:
                sigma[w] += sv
                preds[w].append(v)
                counters["useful"] += 1
                if not in_wl[w]:
                    # σ changed: downstream must be re-propagated.
                    wl.append(w)
                    in_wl[w] = True
            else:
                counters["wasted"] += 1
    # Re-propagation above can leave σ inconsistent when FIFO order raced;
    # fix up σ deterministically from the final DAG (level order), still
    # counting the work.
    order = np.argsort(dist, kind="stable")
    sigma2 = np.zeros(n, dtype=np.float64)
    sigma2[source] = 1.0
    for v in order:
        v = int(v)
        if dist[v] <= 0:
            continue
        s = 0.0
        for u in preds[v]:
            s += sigma2[u]
        sigma2[v] = s
        counters["useful"] += len(preds[v])
    return dist, sigma2, preds


def _async_dependencies(
    g: DiGraph,
    dist: np.ndarray,
    sigma: np.ndarray,
    preds: list[list[int]],
    counters: dict[str, int],
) -> np.ndarray:
    """Worklist-driven accumulation: fire once all successors contributed."""
    n = g.num_vertices
    nsucc = np.zeros(n, dtype=np.int64)
    for v in range(n):
        for u in preds[v]:
            nsucc[u] += 1
    delta = np.zeros(n, dtype=np.float64)
    wl: deque[int] = deque(
        v for v in range(n) if dist[v] >= 0 and nsucc[v] == 0
    )
    while wl:
        w = int(wl.popleft())
        coeff = (1.0 + delta[w]) / sigma[w]
        for v in preds[w]:
            delta[v] += sigma[v] * coeff
            counters["useful"] += 1
            nsucc[v] -= 1
            if nsucc[v] == 0:
                wl.append(v)
    return delta


def abbc(
    g: DiGraph,
    sources: np.ndarray | list[int] | None = None,
    memory_limit_words: int | None = None,
) -> ABBCResult:
    """Run Asynchronous-Brandes BC (single shared-memory host).

    ``memory_limit_words`` models the single-host memory ceiling: the
    paper's Table 2 marks ABBC out-of-memory ("-") on graphs that do not
    fit one host.  When the estimated working set exceeds the limit, the
    result carries ``out_of_memory=True`` with NaN BC values.
    """
    n = g.num_vertices
    src = resolve_sources(sources, n)

    # Working set: CSR (2 words/edge, both directions) + per-vertex labels
    # (dist, σ, δ, worklist flags ≈ 6 words) + predecessor lists (≈ 1 word
    # per DAG edge ≈ m).
    memory_words = 5 * g.num_edges + 8 * n
    if memory_limit_words is not None and memory_words > memory_limit_words:
        return ABBCResult(
            bc=np.full(n, np.nan),
            dist=np.full((src.size, n), -1, dtype=np.int64),
            sigma=np.zeros((src.size, n)),
            sources=src,
            useful_ops=0,
            wasted_ops=0,
            memory_words=memory_words,
            out_of_memory=True,
        )

    counters = {"useful": 0, "wasted": 0}
    bc = np.zeros(n, dtype=np.float64)
    dist_all = np.full((src.size, n), -1, dtype=np.int64)
    sigma_all = np.zeros((src.size, n), dtype=np.float64)
    for i, s in enumerate(src.tolist()):
        dist, sigma, preds = _async_sssp(g, int(s), counters)
        delta = _async_dependencies(g, dist, sigma, preds, counters)
        delta[s] = 0.0
        bc += delta
        dist_all[i] = dist
        sigma_all[i] = sigma
    return ABBCResult(
        bc=bc,
        dist=dist_all,
        sigma=sigma_all,
        sources=src,
        useful_ops=counters["useful"],
        wasted_ops=counters["wasted"],
        memory_words=memory_words,
    )


def abbc_simulated_time(
    result: ABBCResult,
    g: DiGraph,
    threads: int = 48,
    op_cost: float = 4.0e-6,
) -> float:
    """Single-host simulated time with a hub-contention model.

    Parallel efficiency degrades as high-degree hubs serialize atomic
    label updates: efficiency = 1 / (1 + hub_skew), where ``hub_skew`` is
    the max in-degree over the mean degree — large for power-law graphs,
    ~1 for road networks.  This reproduces §5.3: ABBC substantially
    outperforms the BSP algorithms on road networks but "is slower than
    the others due to contention" on power-law inputs.

    ``op_cost`` is scale-matched to :class:`repro.cluster.model.
    CostConstants` (see the calibration note there); it is deliberately
    higher than the BSP engines' per-op cost because every asynchronous
    relaxation pays worklist and atomic-update overhead.
    """
    if result.out_of_memory:
        return float("inf")
    n, m = g.num_vertices, g.num_edges
    mean_deg = max(1.0, m / max(1, n))
    hub_skew = float(g.in_degrees().max(initial=1)) / mean_deg
    efficiency = 1.0 / (1.0 + hub_skew)
    return result.total_ops * op_cost / (threads * efficiency)
