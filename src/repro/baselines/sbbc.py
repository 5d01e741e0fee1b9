"""Synchronous-Brandes BC (SBBC) on the simulated D-Galois engine.

SBBC is the paper's main distributed comparison point (§5): the classic
Brandes algorithm executed one source at a time with level-by-level BFS —
in BSP round ``ℓ`` the vertices at distance ``ℓ`` settle, and the
accumulation phase walks the levels in reverse.  Per source it therefore
executes roughly ``2 · ecc(s)`` rounds, against MRBC's ``2(k + H)/k``
rounds amortized per source; the entire Table 1 "rounds" comparison falls
out of these two schedules.

Engine mapping (mirroring the MRBC implementation for a fair comparison):

- mirrors accumulate ``(dist, σ)`` candidates from host-local in-edges and
  reduce them to the master, which settles a vertex the first round any
  candidate arrives (level-synchrony makes that round its BFS level, with
  all same-level σ contributions present in the same reduce);
- settled values broadcast to *all* proxies — the standard Brandes-BFS
  sync; mirrors use them both to relax out-edges and to suppress redundant
  candidates;
- the backward phase fires each settled vertex at round
  ``(max level − its level + 1)``, broadcasting ``(1 + δ)/σ`` to in-edge
  hosts, which credit host-local predecessors and reduce partial δ sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.engine.gluon import TARGET_ALL_PROXIES, TARGET_IN_EDGES
from repro.engine.partition import PartitionedGraph
from repro.core.sampling import resolve_sources
from repro.engine.stats import EngineRun
from repro.graph.digraph import DiGraph
from repro.runtime.arrays import ColumnBlock, HostArena, expand_csr
from repro.runtime.plane import GluonArrayPlane, resolve_partition
from repro.runtime.superstep import SuperstepRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.context import ResilienceContext
    from repro.resilience.supervisor import PartialResult, RecoveryPolicy

INF = np.iinfo(np.int32).max

#: Forward payload: dist (4B) + sigma (8B); single source, no source slot.
FWD_PAYLOAD_BYTES = 12
#: Backward payload: dependency coefficient (8B).
BWD_PAYLOAD_BYTES = 8


@dataclass
class SBBCResult:
    """Output of :func:`sbbc_engine`."""

    bc: np.ndarray
    dist: np.ndarray
    sigma: np.ndarray
    sources: np.ndarray
    run: EngineRun
    forward_rounds: int
    backward_rounds: int
    partition: PartitionedGraph
    #: Graceful-degradation record when a recovery policy dropped one or
    #: more sources (SBBC's failure domain is the single source); None on
    #: a fully completed run.
    partial: "PartialResult | None" = None

    @property
    def total_rounds(self) -> int:
        """All BSP rounds across sources and phases."""
        return self.forward_rounds + self.backward_rounds

    def rounds_per_source(self) -> float:
        """The paper's Table 1 metric."""
        return self.total_rounds / self.sources.size


class _ArraySourceExecutor:
    """One Brandes source on the engine.

    Per-source state lives in a shared
    :class:`~repro.runtime.arrays.HostArena` (``k=1`` — one column) reset
    between sources, masters keep dense settled arrays, and every step is
    an arena-wide sweep.

    The float results are fixed by SBBC's level synchrony: all
    deliveries in a round carry the same BFS level, so every candidate
    cell sees one assignment followed by additions in item order (host
    ascending, then block position) — ``np.add.at`` in that order, with
    no per-cell replay.  The goldens in
    ``tests/test_plane_equivalence.py`` pin the resulting bytes.
    """

    def __init__(
        self,
        pg: PartitionedGraph,
        gluon: "GluonArrayPlane",
        run: EngineRun,
        source: int,
        arena: HostArena,
    ) -> None:
        self.pg = pg
        self.gluon = gluon
        self.run = run
        self.source = source
        self.H = pg.num_hosts
        self.n = int(pg.master_of.size)
        arena.reset_state()
        self.arena = arena
        # Master-side settled state, dense over all vertices.
        self.settled_d = np.full(self.n, INF, dtype=np.int64)
        self.settled_sg = np.zeros(self.n, dtype=np.float64)
        #: Settle order per round: the backward walk fires each level's
        #: vertices in the order they settled.
        self._order: list[np.ndarray] = []
        self.delta = np.zeros(self.n, dtype=np.float64)

    def run_forward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        pg, gluon = self.pg, self.gluon
        A = self.arena
        H = self.H
        rledger = obs.current().rounds
        pending: list = [None] * H
        # View construction only — every value read happens inside the
        # step closure, after that round's broadcast delivered.
        fd = A.fin_dist[:, 0]  # repro-lint: disable=RL301
        fsg = A.fin_sigma[:, 0]  # repro-lint: disable=RL301
        cd = A.cand_dist[:, 0]
        csg = A.cand_sigma[:, 0]
        dirty = A.dirty[:, 0]
        fpos = A.fpos[:, 0]
        # Round 1 settles the source itself.
        newly = (
            np.array([self.source], dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.ones(1, dtype=np.float64),
        )
        empty = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
        )

        def step(rnd: int, rs) -> bool:
            nonlocal pending, newly
            inbox = gluon.reduce_to_masters(pending, FWD_PAYLOAD_BYTES, 1, rs)
            pending = [None] * H
            got = [
                (h, blk) for h, blk in enumerate(inbox)
                if blk is not None and len(blk)
            ]
            if got:
                for h, blk in got:
                    rs.compute[h].struct_ops += len(blk)
                gi = np.concatenate([blk.gids for _h, blk in got])
                d = np.concatenate(
                    [blk.cols[1] for _h, blk in got]
                ).astype(np.int64, copy=False)
                sg = np.concatenate(
                    [blk.cols[2] for _h, blk in got]
                ).astype(np.float64, copy=False)
                fresh = self.settled_d[gi] == INF
                assert (
                    d[~fresh] > self.settled_d[gi[~fresh]]
                ).all(), "late same-level contribution"
                gi, d, sg = gi[fresh], d[fresh], sg[fresh]
                if gi.size:
                    # Merge same-gid contributions in first-occurrence
                    # order; σ sums accumulate in item order.
                    ug, first, inv = np.unique(
                        gi, return_index=True, return_inverse=True
                    )
                    assert (d == d[first][inv]).all(), "level-synchrony violated"
                    acc = np.zeros(ug.size, dtype=np.float64)
                    np.add.at(acc, inv, sg)
                    ordp = np.argsort(first, kind="stable")
                    newly = (ug[ordp], d[first][ordp], acc[ordp])

            new_g, new_d, new_sg = newly
            blocks: list = [None] * H
            level = int(new_g.size)
            if level:
                self.settled_d[new_g] = new_d
                self.settled_sg[new_g] = new_sg
                self._order.append(new_g)
                hosts_f = pg.master_of[new_g]
                for h, c in enumerate(np.bincount(hosts_f, minlength=H)):
                    if c:
                        rs.compute[h].vertex_ops += int(c)
                blocks = GluonArrayPlane._split_by_dest(
                    new_g, hosts_f, [new_d, new_sg], H
                )
            if rledger is not None:
                # Level-synchronous settling: this round's frontier is
                # exactly the BFS level that settles in it.
                rledger.note(frontier=level, settled=level, active_sources=1)
            newly = empty

            deliveries = gluon.broadcast_from_masters(
                blocks, TARGET_ALL_PROXIES, FWD_PAYLOAD_BYTES, 1, rs
            )

            present = [
                (h, blk) for h, blk in enumerate(deliveries)
                if blk is not None and len(blk)
            ]
            if present:
                lens = np.array([len(blk) for _h, blk in present], dtype=np.int64)
                hs = np.repeat(
                    np.array([h for h, _blk in present], dtype=np.int64), lens
                )
                gidv = np.concatenate([blk.gids for _h, blk in present])
                dv = np.concatenate(
                    [blk.cols[0] for _h, blk in present]
                ).astype(np.int64, copy=False)
                sgv = np.concatenate(
                    [blk.cols[1] for _h, blk in present]
                ).astype(np.float64, copy=False)
                m = int(gidv.size)
                lid = A.lut[hs, gidv]
                fd[lid] = dv
                fsg[lid] = sgv
                fpos[lid] = np.arange(m, dtype=np.int64)
                for (h, _blk), cnt in zip(present, lens.tolist()):
                    rs.compute[h].vertex_ops += cnt
                deg = A.out_offsets[lid + 1] - A.out_offsets[lid]
                block_starts = np.zeros(lens.size, dtype=np.int64)
                np.cumsum(lens[:-1], out=block_starts[1:])
                for (h, _blk), e in zip(
                    present, np.add.reduceat(deg, block_starts).tolist()
                ):
                    if e:
                        rs.compute[h].edge_ops += int(e)
                item_of, w = expand_csr(A.out_offsets, A.out_targets, lid)
                if w.size:
                    # Open ⟺ not settled in an earlier round and not
                    # finalized by an earlier item of this round.
                    open_ = (fd[w] == INF) | (fpos[w] > item_of)
                    sel = np.nonzero(open_)[0]
                    if sel.size:
                        wt = w[sel]
                        nd = dv[item_of[sel]] + 1
                        sv = sgv[item_of[sel]]
                        cdv = cd[wt]
                        # One shared level per round: the first event into
                        # an improved cell assigns, the rest add — a
                        # zeroed ordered sum, and every open event with
                        # nd <= old candidate counts one struct op.
                        bet = nd < cdv
                        upd = bet | (nd == cdv)
                        if bet.any():
                            bw = wt[bet]
                            cd[bw] = nd[bet]
                            csg[bw] = 0.0
                        if upd.any():
                            uw = wt[upd]
                            np.add.at(csg, uw, sv[upd])
                            dirty[uw] = True
                            for h, c in enumerate(
                                np.bincount(
                                    hs[item_of[sel[upd]]], minlength=H
                                )
                            ):
                                if c:
                                    rs.compute[h].struct_ops += int(c)
                fpos[lid] = -1

            pending = [None] * H
            rows = np.nonzero(dirty)[0]
            if rows.size == 0:
                return False
            d_sel = cd[rows]
            sg_sel = csg[rows]
            g_sel = A.gids[rows]
            bounds = np.searchsorted(rows, A.off)
            for h in range(H):
                a, b = int(bounds[h]), int(bounds[h + 1])
                if b > a:
                    pending[h] = ColumnBlock.raw(
                        g_sel[a:b], (d_sel[a:b], sg_sel[a:b])
                    )
            dirty[rows] = False
            return True

        return runtime.run_loop("forward", step)

    def run_backward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        pg, gluon = self.pg, self.gluon
        A = self.arena
        H = self.H
        so = (
            np.concatenate(self._order)
            if self._order
            else np.empty(0, dtype=np.int64)
        )
        so = so[so != self.source]
        lv = self.settled_d[so]
        max_level = int(lv.max()) if lv.size else 0
        self.delta[:] = 0.0
        # View construction only — every value read happens inside the
        # step closure, on state the forward phase already finalized.
        fd = A.fin_dist[:, 0]  # repro-lint: disable=RL301
        fsg = A.fin_sigma[:, 0]  # repro-lint: disable=RL301
        pdel = A.partial_delta[:, 0]
        ddirty = A.delta_dirty[:, 0]
        rledger = obs.current().rounds
        pending: list = [None] * H

        def step(rnd: int, rs) -> bool:
            nonlocal pending
            inbox = gluon.reduce_to_masters(pending, BWD_PAYLOAD_BYTES, 1, rs)
            got = [
                (h, blk) for h, blk in enumerate(inbox)
                if blk is not None and len(blk)
            ]
            if got:
                for h, blk in got:
                    rs.compute[h].struct_ops += len(blk)
                gi = np.concatenate([blk.gids for _h, blk in got])
                pd = np.concatenate(
                    [blk.cols[1] for _h, blk in got]
                ).astype(np.float64, copy=False)
                # Accumulation in inbox order (host asc, item order within).
                np.add.at(self.delta, gi, pd)

            level = max_level - rnd + 1
            fires_g = so[lv == level]
            blocks: list = [None] * H
            if fires_g.size:
                coeff = (1.0 + self.delta[fires_g]) / self.settled_sg[fires_g]
                hosts_f = pg.master_of[fires_g]
                for h, c in enumerate(np.bincount(hosts_f, minlength=H)):
                    if c:
                        rs.compute[h].vertex_ops += int(c)
                blocks = GluonArrayPlane._split_by_dest(
                    fires_g, hosts_f, [coeff, self.settled_d[fires_g]], H
                )
            if rledger is not None:
                # The reverse walk fires level max_level - rnd + 1 whole:
                # each settled vertex's dependency finalizes exactly once.
                rledger.note(
                    frontier=int(fires_g.size), settled=int(fires_g.size)
                )

            deliveries = gluon.broadcast_from_masters(
                blocks, TARGET_IN_EDGES, BWD_PAYLOAD_BYTES, 1, rs
            )

            present = [
                (h, blk) for h, blk in enumerate(deliveries)
                if blk is not None and len(blk)
            ]
            if present:
                lens = np.array([len(blk) for _h, blk in present], dtype=np.int64)
                hs = np.repeat(
                    np.array([h for h, _blk in present], dtype=np.int64), lens
                )
                gidv = np.concatenate([blk.gids for _h, blk in present])
                coeff = np.concatenate(
                    [blk.cols[0] for _h, blk in present]
                ).astype(np.float64, copy=False)
                dv = np.concatenate(
                    [blk.cols[1] for _h, blk in present]
                ).astype(np.int64, copy=False)
                lid = A.lut[hs, gidv]
                for (h, _blk), cnt in zip(present, lens.tolist()):
                    rs.compute[h].vertex_ops += cnt
                deg = A.in_offsets[lid + 1] - A.in_offsets[lid]
                block_starts = np.zeros(lens.size, dtype=np.int64)
                np.cumsum(lens[:-1], out=block_starts[1:])
                for (h, _blk), e in zip(
                    present, np.add.reduceat(deg, block_starts).tolist()
                ):
                    if e:
                        rs.compute[h].edge_ops += int(e)
                item_of, wp = expand_csr(A.in_offsets, A.in_sources, lid)
                if wp.size:
                    sel = np.nonzero(fd[wp] == dv[item_of] - 1)[0]
                    if sel.size:
                        wt = wp[sel]
                        np.add.at(pdel, wt, fsg[wt] * coeff[item_of[sel]])
                        ddirty[wt] = True
                        for h, c in enumerate(
                            np.bincount(hs[item_of[sel]], minlength=H)
                        ):
                            if c:
                                rs.compute[h].struct_ops += int(c)

            pending = [None] * H
            rows = np.nonzero(ddirty)[0]
            if rows.size == 0:
                return False
            pd_sel = pdel[rows]
            g_sel = A.gids[rows]
            bounds = np.searchsorted(rows, A.off)
            for h in range(H):
                a, b = int(bounds[h]), int(bounds[h + 1])
                if b > a:
                    pending[h] = ColumnBlock.raw(g_sel[a:b], (pd_sel[a:b],))
            pdel[rows] = 0.0
            ddirty[rows] = False
            return True

        return runtime.run_loop("backward", step, min_rounds=max_level)

    def collect(
        self, dist_row: np.ndarray, sigma_row: np.ndarray, bc: np.ndarray
    ) -> None:
        """Bank this source's results into the engine accumulators."""
        sel = np.nonzero(self.settled_d != INF)[0]
        dist_row[sel] = self.settled_d[sel]
        sigma_row[sel] = self.settled_sg[sel]
        nz = sel[sel != self.source]
        bc[nz] += self.delta[nz]


def sbbc_engine(
    g: DiGraph,
    sources: np.ndarray | list[int] | None = None,
    num_hosts: int = 8,
    policy: str = "cvc",
    partition: PartitionedGraph | None = None,
    resilience: "ResilienceContext | None" = None,
    recovery_policy: "RecoveryPolicy | str | None" = None,
) -> SBBCResult:
    """Run Synchronous-Brandes BC on the simulated engine.

    Processes one source at a time (the algorithm's defining property);
    ``sources=None`` uses every vertex (exact BC), and ids outside
    ``[0, n)``, repeated ids and a graph with no vertices raise
    :class:`ValueError`.

    With a ``resilience`` context, channel faults from its plan are
    injected/guarded at the Gluon layer, and (in ``repair`` mode) an
    injected host crash replays the in-flight source from scratch — the
    source loop is SBBC's natural checkpoint granularity, since completed
    sources have already banked their BC contributions.  Replayed rounds
    are marked as recovery overhead.

    ``recovery_policy`` (named so because ``policy`` is the partition
    policy) attaches a :class:`~repro.resilience.supervisor
    .RecoveryPolicy`: retry/backoff/deadline/restart budgets, and — when
    the policy degrades — per-source failure domains, with unrecoverable
    sources dropped and the completed ones salvaged into ``partial``.
    """
    from repro.resilience.supervisor import attach_policy

    pg = resolve_partition(g, partition, num_hosts, policy)
    src = resolve_sources(sources, g.num_vertices)

    resilience, supervisor = attach_policy(resilience, recovery_policy)
    n = g.num_vertices
    # One arena for the whole run: topology (LUT + stitched CSRs) is
    # source-independent; only the state columns reset per source.
    arena = HostArena(pg.parts, 1, n)
    runtime = SuperstepRuntime(
        plane=GluonArrayPlane(pg, resilience=resilience), resilience=resilience
    )
    gluon = runtime.plane
    run = runtime.run
    bc = np.zeros(n, dtype=np.float64)
    dist = np.full((src.size, n), -1, dtype=np.int64)
    sigma = np.zeros((src.size, n), dtype=np.float64)
    fwd = 0
    bwd = 0
    for i, s in enumerate(src.tolist()):
        # The source is SBBC's recovery unit: on an injected crash the
        # in-flight source replays from scratch (redone rounds are
        # charged to the recovery phase by the runtime policy).
        def prepare(attempt: int, s: int = int(s)):
            return _ArraySourceExecutor(pg, gluon, run, s, arena)

        def both_phases(ex, s: int = int(s)) -> tuple[int, int]:
            with runtime.phase("forward", source=s):
                f = ex.run_forward(runtime)
            with runtime.phase("backward", source=s):
                b = ex.run_backward(runtime)
            return f, b

        def run_source(s: int = int(s)):
            return runtime.run_with_restart(prepare, both_phases)

        if supervisor is not None:
            # Per-source failure domain: an unrecoverable source is
            # dropped under a degrading policy; its dist row stays -1.
            out, completed = supervisor.run_unit(i, [int(s)], run_source)
            if not completed:
                continue
        else:
            out = run_source()
        ex, (f, b) = out
        fwd += f
        bwd += b
        ex.collect(dist[i], sigma[i], bc)
    partial = (
        supervisor.partial_result(bc, requested_sources=int(src.size), num_vertices=n)
        if supervisor is not None
        else None
    )
    return SBBCResult(
        bc=bc,
        dist=dist,
        sigma=sigma,
        sources=src,
        run=run,
        forward_rounds=fwd,
        backward_rounds=bwd,
        partition=pg,
        partial=partial,
    )
