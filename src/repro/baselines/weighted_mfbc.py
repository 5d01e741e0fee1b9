"""Weighted Maximal-Frontier BC: Bellman-Ford sparse-matrix formulation.

MFBC's defining trait (§1: it "uses the Bellman-Ford algorithm to compute
shortest paths from each vertex") is exactly what lets it handle weighted
graphs: the forward phase iterates tropical-semiring relaxations of the
whole frontier until a fixpoint, with σ recomputed per iteration, and the
backward phase walks the distinct distance values in decreasing order.

Like the unweighted :mod:`repro.baselines.mfbc`, the numerics are exact
(validated against weighted Brandes); per-iteration costs are charged to
an :class:`~repro.engine.stats.EngineRun` the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.mfbc import _account_iteration
from repro.core.batching import iter_batches
from repro.core.sampling import resolve_sources
from repro.engine.stats import EngineRun
from repro.graph.weighted import WeightedDiGraph

#: Tolerance for equal-length weighted paths (see weighted_brandes).
REL_TOL = 1e-12


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    finite = np.isfinite(a) & np.isfinite(b)
    out = a == b  # covers matching infinities
    tol = REL_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.where(finite, np.abs(a - b) <= tol, out)


@dataclass
class WeightedMFBCResult:
    """Output of :func:`weighted_mfbc`."""

    bc: np.ndarray
    dist: np.ndarray
    sigma: np.ndarray
    sources: np.ndarray
    run: EngineRun
    iterations: int


def weighted_mfbc(
    wg: WeightedDiGraph,
    sources: np.ndarray | list[int] | None = None,
    batch_size: int = 32,
    num_hosts: int = 8,
) -> WeightedMFBCResult:
    """Weighted MFBC over batches of sources (Bellman-Ford forward phase)."""
    g = wg.graph
    n = g.num_vertices
    src = resolve_sources(sources, n)

    esrc, edst = g.edges()
    ew = wg.weights
    out_deg = g.out_degrees()

    run = EngineRun(num_hosts=num_hosts)
    bc = np.zeros(n)
    dist_all = np.full((src.size, n), np.inf)
    sigma_all = np.zeros((src.size, n))
    iterations = 0

    for b0, batch in enumerate(iter_batches(src, batch_size)):
        k = batch.size
        dist = np.full((n, k), np.inf)
        cols = np.arange(k)
        dist[batch, cols] = 0.0

        # -- forward: Bellman-Ford to a distance fixpoint.  The frontier is
        # the set of vertices whose distance improved last iteration.
        active = np.zeros((n, k), dtype=bool)
        active[batch, cols] = True
        while active.any():
            rows = np.nonzero(active.any(axis=1))[0]
            nnz = int(active.sum())
            _account_iteration(
                run, "forward", nnz, int(out_deg[rows].sum()) * k, num_hosts, n * k
            )
            iterations += 1
            # Relax every edge whose tail is active for some source.
            cand = dist[esrc] + ew[:, None]  # (m, k)
            improved = cand < dist[edst] - REL_TOL
            improved &= active[esrc]
            if not improved.any():
                break
            new_active = np.zeros_like(active)
            er, ec = np.nonzero(improved)
            # np.minimum.at handles multiple improving edges per target.
            np.minimum.at(dist, (edst[er], ec), cand[er, ec])
            new_active[edst[er], ec] = True
            active = new_active

        # σ via one pass over edges per distinct distance level (exact SP
        # DAG counting on the converged distances).
        sigma = np.zeros((n, k))
        sigma[batch, cols] = 1.0
        finite = np.isfinite(dist)
        for col in range(k):
            ds = dist[:, col]
            levels = np.unique(ds[finite[:, col]])
            for lev in levels[1:]:  # source level 0 already seeded
                at = np.nonzero(_close(ds, np.full(n, lev)) & finite[:, col])[0]
                for v in at.tolist():
                    nbrs, ws = wg.in_edges(v)
                    if nbrs.size == 0:
                        continue
                    pred = _close(ds[nbrs] + ws, np.full(nbrs.size, lev))
                    sigma[v, col] = float(sigma[nbrs[pred], col].sum())

        # -- backward: distinct distances in decreasing order.
        delta = np.zeros((n, k))
        for col in range(k):
            ds = dist[:, col]
            fin = finite[:, col]
            levels = np.unique(ds[fin])[::-1]
            for lev in levels:
                if lev == 0.0:
                    break
                at = np.nonzero(_close(ds, np.full(n, lev)) & fin)[0]
                _account_iteration(
                    run, "backward", at.size, at.size * 4, num_hosts, n
                )
                iterations += 1
                for v in at.tolist():
                    coeff = (1.0 + delta[v, col]) / sigma[v, col]
                    nbrs, ws = wg.in_edges(v)
                    if nbrs.size == 0:
                        continue
                    pred = _close(ds[nbrs] + ws, np.full(nbrs.size, lev))
                    pn = nbrs[pred]
                    delta[pn, col] += sigma[pn, col] * coeff

        base = b0 * batch_size
        for i in range(k):
            dist_all[base + i] = dist[:, i]
            sigma_all[base + i] = sigma[:, i]
            d = delta[:, i].copy()
            d[batch[i]] = 0.0
            bc += d

    return WeightedMFBCResult(
        bc=bc,
        dist=dist_all,
        sigma=sigma_all,
        sources=src,
        run=run,
        iterations=iterations,
    )
