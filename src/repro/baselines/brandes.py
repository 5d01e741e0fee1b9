"""Brandes' sequential betweenness centrality (paper Algorithms 1-2).

This is the library's correctness oracle: every distributed implementation
(MRBC CONGEST, MRBC engine, SBBC, ABBC, MFBC) is validated against it in
the test suite.  For unweighted graphs the SSSP step is a BFS; vertices are
processed in non-increasing distance order for the dependency accumulation

    δ_s•(v) = Σ_{w : v ∈ P_s(w)} (σ_sv / σ_sw) · (1 + δ_s•(w))

and ``BC(v) = Σ_{s ≠ v} δ_s•(v)``.  When a source subset is given, the
result is the sampled approximation of Bader et al. that the paper's
evaluation uses (identical sources ⇒ identical approximate values across
algorithms, as in §5.1).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.sampling import resolve_sources
from repro.graph.digraph import DiGraph


def brandes_sssp(
    g: DiGraph, source: int
) -> tuple[np.ndarray, np.ndarray, list[list[int]], list[int]]:
    """BFS SSSP DAG from ``source``.

    Returns ``(dist, sigma, preds, order)`` where ``dist`` uses −1 for
    unreachable, ``sigma`` counts shortest paths, ``preds[v]`` lists v's
    predecessors in the SP DAG, and ``order`` lists reached vertices in
    non-decreasing distance (the accumulation stack, bottom to top).
    """
    n = g.num_vertices
    dist = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    preds: list[list[int]] = [[] for _ in range(n)]
    order: list[int] = []

    dist[source] = 0
    sigma[source] = 1.0
    q: deque[int] = deque([source])
    while q:
        v = q.popleft()
        order.append(v)
        dv = dist[v]
        for w in g.out_neighbors(v):
            w = int(w)
            if dist[w] == -1:
                dist[w] = dv + 1
                q.append(w)
            if dist[w] == dv + 1:
                sigma[w] += sigma[v]
                preds[w].append(v)
    return dist, sigma, preds, order


def brandes_dependencies(
    g: DiGraph, source: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distances, σ, and dependencies δ_s• for one source."""
    dist, sigma, preds, order = brandes_sssp(g, source)
    delta = np.zeros(g.num_vertices, dtype=np.float64)
    for w in reversed(order):
        coeff = (1.0 + delta[w]) / sigma[w]
        for v in preds[w]:
            delta[v] += sigma[v] * coeff
    return dist, sigma, delta


def brandes_bc(
    g: DiGraph, sources: np.ndarray | list[int] | None = None
) -> np.ndarray:
    """Betweenness centrality of every vertex.

    ``sources=None`` gives exact BC; a subset gives the sampled
    approximation (sum of betweenness scores over the sampled sources).
    """
    n = g.num_vertices
    bc = np.zeros(n, dtype=np.float64)
    for s in resolve_sources(sources, n).tolist():
        _, _, delta = brandes_dependencies(g, s)
        delta[s] = 0.0  # Alg. 2 line 5: the source itself gets no credit
        bc += delta
    return bc
