"""Maximal-Frontier BC (MFBC) — sparse-matrix BC (Solomonik et al. 2017).

MFBC formulates Brandes' algorithm as sparse-matrix–sparse-matrix products
over a batch of ``k`` sources: the forward phase is a Bellman-Ford-style
multi-source relaxation (for unweighted graphs, one SpMM per BFS level
where the frontier matrix carries path counts), and the backward phase is
one SpMM per level in reverse carrying dependency coefficients.  The
"maximal frontier" refers to processing every updated vertex each
iteration; unlike MRBC there is no pipelining — every iteration is a full
collective over the whole batch.

The numerical computation here is exact (validated against Brandes).  The
distributed cost is accounted per iteration the way CTF executes it on a
``pr × pc`` processor grid: the frontier matrix is replicated along grid
rows and the result reduced along grid columns, so each iteration moves
``O(nnz(frontier) · (pr + pc))`` words and synchronizes the whole grid a
constant number of times.  That full-replication cost per iteration is why
MFBC loses to both SBBC and MRBC on most inputs (paper §5.3: "Both SBBC
and MRBC outperform MFBC by significant margins").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.core.batching import iter_batches
from repro.core.sampling import resolve_sources
from repro.engine.stats import EngineRun
from repro.graph.builders import to_scipy_csr
from repro.graph.digraph import DiGraph

#: Bytes per nonzero moved in a frontier replication (value + row index).
NNZ_BYTES = 12
#: Grid collectives per SpMM iteration (broadcast + reduce + barrier).
COLLECTIVES_PER_ITER = 3
#: CTF tensor-contraction overhead factor: every SpMM repacks, pads, and
#: redistributes its block-cyclic operands, costing several passes over
#: the dense batch state per iteration.
DENSE_OVERHEAD = 4


@dataclass
class MFBCResult:
    """Output of :func:`mfbc`."""

    bc: np.ndarray
    dist: np.ndarray
    sigma: np.ndarray
    sources: np.ndarray
    batch_size: int
    run: EngineRun
    #: SpMM iterations (forward + backward), the MFBC analogue of rounds.
    iterations: int

    @property
    def total_rounds(self) -> int:
        """Iterations count as BSP rounds for cross-algorithm comparison."""
        return self.iterations


def _grid_shape(num_hosts: int) -> tuple[int, int]:
    pr = int(np.floor(np.sqrt(num_hosts)))
    while num_hosts % pr != 0:
        pr -= 1
    return pr, num_hosts // pr


def _account_iteration(
    run: EngineRun,
    phase: str,
    frontier_nnz: int,
    flops: int,
    num_hosts: int,
    dense_cells: int,
) -> None:
    """Charge one SpMM iteration to the run's statistics.

    ``dense_cells`` is the full ``n × k`` label matrix: the maximal-frontier
    formulation has no update tracking, so every iteration sweeps the whole
    batch state (the cost pipelining avoids) — this is the term that makes
    MFBC lose to MRBC/SBBC in the paper's Table 2.
    """
    rs = run.new_round(phase)
    pr, pc = _grid_shape(num_hosts)
    # Work is spread across the grid; the straggler does ~1/H of the flops
    # plus its share of the dense batch-state sweep.
    per_host_flops = (flops + frontier_nnz) // max(1, num_hosts) + 1
    per_host_dense = DENSE_OVERHEAD * dense_cells // max(1, num_hosts) + 1
    for oc in rs.compute:
        oc.edge_ops += per_host_flops
        # Charged at data-structure cost: CTF repacks/redistributes the
        # full tensor blocks on every contraction.
        oc.struct_ops += per_host_dense
    if num_hosts > 1:
        per_host_bytes = (frontier_nnz * NNZ_BYTES * (pr + pc)) // num_hosts + 1
        rs.bytes_out += per_host_bytes
        rs.bytes_in += per_host_bytes
        rs.msgs_out += COLLECTIVES_PER_ITER
        rs.msgs_in += COLLECTIVES_PER_ITER
        rs.pair_messages += COLLECTIVES_PER_ITER * num_hosts
    rs.items_synced += frontier_nnz
    rs.proxies_synced += frontier_nnz


def mfbc(
    g: DiGraph,
    sources: np.ndarray | list[int] | None = None,
    batch_size: int = 32,
    num_hosts: int = 8,
) -> MFBCResult:
    """Run Maximal-Frontier BC over batches of ``batch_size`` sources."""
    n = g.num_vertices
    src = resolve_sources(sources, n)

    A = to_scipy_csr(g)  # A[u, v] = 1 for edge (u, v)
    AT = A.T.tocsr()
    out_deg = g.out_degrees()
    in_deg = g.in_degrees()

    run = EngineRun(num_hosts=num_hosts)
    bc = np.zeros(n, dtype=np.float64)
    dist_all = np.full((src.size, n), -1, dtype=np.int64)
    sigma_all = np.zeros((src.size, n), dtype=np.float64)
    iterations = 0

    for b0, batch in enumerate(iter_batches(src, batch_size)):
        k = batch.size
        dist = np.full((n, k), -1, dtype=np.int64)
        sigma = np.zeros((n, k), dtype=np.float64)
        cols = np.arange(k)
        dist[batch, cols] = 0
        sigma[batch, cols] = 1.0

        # -- forward: one SpMM per BFS level, frontier carries σ.
        frontier = sp.csr_matrix(
            (np.ones(k), (batch, cols)), shape=(n, k), dtype=np.float64
        )
        level = 0
        while frontier.nnz:
            # SpMM flops: each frontier nonzero (v, i) fans out along v's
            # out-edges (AT @ F touches row u for every edge (v, u)).
            frows = frontier.tocoo().row
            flops = int(out_deg[frows].sum())
            _account_iteration(
                run, "forward", int(frontier.nnz), flops, num_hosts, n * k
            )
            iterations += 1
            level += 1
            # CSR @ CSR is canonical: duplicate (u, i) contributions are
            # already summed, so `vals` carries the full σ of each pair.
            cand = (AT @ frontier).tocoo()
            rows, ccols, vals = cand.row, cand.col, cand.data
            fresh = dist[rows, ccols] == -1
            rows, ccols, vals = rows[fresh], ccols[fresh], vals[fresh]
            if rows.size == 0:
                break
            dist[rows, ccols] = level
            sigma[rows, ccols] = vals
            frontier = sp.csr_matrix((vals, (rows, ccols)), shape=(n, k))
        max_level = level

        # -- backward: one SpMM per level in reverse.
        delta = np.zeros((n, k), dtype=np.float64)
        for lev in range(max_level, 0, -1):
            rows, ccols = np.nonzero(dist == lev)
            if rows.size == 0:
                continue
            coeff = (1.0 + delta[rows, ccols]) / sigma[rows, ccols]
            C = sp.csr_matrix((coeff, (rows, ccols)), shape=(n, k))
            _account_iteration(
                run,
                "backward",
                int(C.nnz),
                int(in_deg[np.unique(rows)].sum()),
                num_hosts,
                n * k,
            )
            iterations += 1
            # CSR @ CSR coalesces duplicates, so each (u, i) pair appears
            # once with its coefficients already summed; the σ_su factor
            # then multiplies the combined coefficient exactly once.
            Y = (A @ C).tocoo()
            yr, yc, yv = Y.row, Y.col, Y.data
            is_pred = dist[yr, yc] == lev - 1
            yr, yc, yv = yr[is_pred], yc[is_pred], yv[is_pred]
            delta[yr, yc] += sigma[yr, yc] * yv

        base = b0 * batch_size
        for i in range(k):
            dist_all[base + i] = dist[:, i]
            sigma_all[base + i] = sigma[:, i]
            d = delta[:, i].copy()
            d[batch[i]] = 0.0
            bc += d

    return MFBCResult(
        bc=bc,
        dist=dist_all,
        sigma=sigma_all,
        sources=src,
        batch_size=batch_size,
        run=run,
        iterations=iterations,
    )
