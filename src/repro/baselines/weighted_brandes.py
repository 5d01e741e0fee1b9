"""Weighted betweenness centrality: Brandes with Dijkstra SSSP.

Paper Algorithm 1, line 3: "run Dijkstra SSSP from s (or BFS if G is
unweighted)".  This module is the weighted counterpart of
:mod:`repro.baselines.brandes` and the correctness oracle for the weighted
code paths of the ABBC and MFBC baselines (§5: both "can also handle
weighted graphs").

Floating-point caution: two weighted paths may have lengths equal in exact
arithmetic but not in floats; σ counting uses a relative tolerance when
classifying "equal distance" predecessors, and the test suite uses integer
weights (exact in float64) for strict validation.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.core.sampling import resolve_sources
from repro.graph.weighted import WeightedDiGraph

#: Relative tolerance for "same shortest-path length" comparisons.
REL_TOL = 1e-12


def _close(a: float, b: float) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def dijkstra_sssp(
    wg: WeightedDiGraph, source: int
) -> tuple[np.ndarray, np.ndarray, list[list[int]], list[int]]:
    """Dijkstra SSSP DAG from ``source``.

    Returns ``(dist, sigma, preds, order)``: distances (``inf`` when
    unreachable), shortest-path counts, SP-DAG predecessor lists, and the
    settle order (non-decreasing distance) for the accumulation phase.
    """
    n = wg.num_vertices
    dist = np.full(n, np.inf)
    sigma = np.zeros(n)
    preds: list[list[int]] = [[] for _ in range(n)]
    order: list[int] = []
    settled = np.zeros(n, dtype=bool)

    dist[source] = 0.0
    sigma[source] = 1.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        dv, v = heapq.heappop(heap)
        if settled[v]:
            continue
        settled[v] = True
        order.append(v)
        nbrs, ws = wg.out_edges(v)
        for w, wt in zip(nbrs.tolist(), ws.tolist()):
            nd = dv + wt
            if nd < dist[w] and not _close(nd, dist[w]):
                dist[w] = nd
                sigma[w] = sigma[v]
                preds[w] = [v]
                heapq.heappush(heap, (nd, w))
            elif _close(nd, dist[w]) and not settled[w]:
                if v not in preds[w]:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
    return dist, sigma, preds, order


def weighted_brandes_dependencies(
    wg: WeightedDiGraph, source: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distances, σ, and dependencies δ_s• for one source (weighted)."""
    dist, sigma, preds, order = dijkstra_sssp(wg, source)
    delta = np.zeros(wg.num_vertices)
    for w in reversed(order):
        coeff = (1.0 + delta[w]) / sigma[w]
        for v in preds[w]:
            delta[v] += sigma[v] * coeff
    return dist, sigma, delta


def weighted_brandes_bc(
    wg: WeightedDiGraph, sources: np.ndarray | list[int] | None = None
) -> np.ndarray:
    """Weighted betweenness centrality (exact, or sampled-source sum)."""
    n = wg.num_vertices
    bc = np.zeros(n)
    for s in resolve_sources(sources, n).tolist():
        _, _, delta = weighted_brandes_dependencies(wg, s)
        delta[s] = 0.0
        bc += delta
    return bc
