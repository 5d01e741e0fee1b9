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
from repro.runtime.arrays import BIG, Exchange, HostArena, expand_csr
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
    an arena-wide sweep over the round's events.

    The float results are fixed by SBBC's level synchrony: all
    deliveries in a round carry the same BFS level, so every candidate
    cell sees one assignment followed by additions in item order (host
    ascending, then position in the host's part) — ``np.add.at`` in that
    order, with no per-cell replay.  The goldens in
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
        #: Scratch for the inbox merge: the first inbox position of each
        #: vertex this round (BIG = none); reset after each merge.
        self._first = np.full(self.n, BIG, dtype=np.int64)
        #: Settle order per round: the backward walk fires each level's
        #: vertices in the order they settled.
        self._order: list[np.ndarray] = []
        self.delta = np.zeros(self.n, dtype=np.float64)

    def _settle_inbox(self, inbox: Exchange, rs) -> np.ndarray:
        """Settle the vertices whose first candidates this round's inbox
        carries; returns them in first-occurrence order.

        σ sums a vertex's contributions in inbox order, straight into
        ``settled_sg`` (still 0.0 for an unsettled vertex), which is the
        order and start value of a per-vertex ``np.add.at``.
        """
        for h, c in enumerate(inbox.counts().tolist()):
            if c:
                rs.compute[h].struct_ops += c
        gi = inbox.gids
        _snd, d, sg = inbox.cols
        fresh = self.settled_d.take(gi) == INF
        assert (
            d[~fresh] > self.settled_d[gi[~fresh]]
        ).all(), "late same-level contribution"
        gi, d, sg = gi[fresh], d[fresh], sg[fresh]
        if gi.size == 0:
            return gi
        pos = np.arange(gi.size, dtype=np.int64)
        np.minimum.at(self._first, gi, pos)
        first = self._first.take(gi)
        self._first[gi] = BIG
        assert (d == d.take(first)).all(), "level-synchrony violated"
        lead = np.nonzero(first == pos)[0]
        new_g = gi.take(lead)
        np.add.at(self.settled_sg, gi, sg)
        self.settled_d[new_g] = d.take(lead)
        return new_g

    def run_forward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        pg, gluon = self.pg, self.gluon
        A = self.arena
        H, n = self.H, self.n
        lut = A.lut.reshape(-1)
        rledger = obs.current().rounds
        pending = Exchange.empty(H)
        # View construction only — every value read happens inside the
        # step closure, after that round's broadcast delivered.
        fd = A.fin_dist[:, 0]  # repro-lint: disable=RL301
        fsg = A.fin_sigma[:, 0]  # repro-lint: disable=RL301
        cd = A.cand_dist[:, 0]
        csg = A.cand_sigma[:, 0]
        dirty = A.dirty[:, 0]
        fpos = A.fpos[:, 0]
        # Round 1 settles the source itself.
        self.settled_d[self.source] = 0
        self.settled_sg[self.source] = 1.0
        newly = np.array([self.source], dtype=np.int64)

        def step(rnd: int, rs) -> bool:
            nonlocal pending, newly
            inbox = gluon.reduce_to_masters(pending, FWD_PAYLOAD_BYTES, 1, rs)
            if len(inbox):
                newly = self._settle_inbox(inbox, rs)

            blocks = Exchange.empty(H)
            level = int(newly.size)
            if level:
                self._order.append(newly)
                blocks = GluonArrayPlane._split_by_dest(
                    newly, pg.master_of.take(newly),
                    (self.settled_d.take(newly), self.settled_sg.take(newly)), H,
                )
                for h, c in enumerate(blocks.counts().tolist()):
                    if c:
                        rs.compute[h].vertex_ops += c
            if rledger is not None:
                # Level-synchronous settling: this round's frontier is
                # exactly the BFS level that settles in it.
                rledger.note(frontier=level, settled=level, active_sources=1)
            newly = newly[:0]

            deliveries = gluon.broadcast_from_masters(
                blocks, TARGET_ALL_PROXIES, FWD_PAYLOAD_BYTES, 1, rs
            )
            if len(deliveries):
                gidv = deliveries.gids
                dv, sgv = deliveries.cols
                lid = lut.take(deliveries.hosts() * n + gidv)
                fd[lid] = dv
                fsg[lid] = sgv
                fpos[lid] = np.arange(gidv.size, dtype=np.int64)
                for h, cnt in enumerate(deliveries.counts().tolist()):
                    if cnt:
                        rs.compute[h].vertex_ops += cnt
                deg = A.out_offsets[lid + 1] - A.out_offsets[lid]
                for h, e in enumerate(deliveries.host_sums(deg).tolist()):
                    if e:
                        rs.compute[h].edge_ops += e
                item_of, w = expand_csr(A.out_offsets, A.out_targets, lid)
                # A relaxation worse than its cell's pre-sweep candidate
                # is a no-op in any order (a candidate only improves
                # within a sweep): drop it before the open test.
                nd = dv.take(item_of) + 1
                cdv = cd.take(w)
                r = np.nonzero(nd <= cdv)[0]
                w, nd, cdv, item_of = w[r], nd[r], cdv[r], item_of[r]
                # Open ⟺ not settled in an earlier round and not
                # finalized by an earlier item of this round.
                r = np.nonzero((fd.take(w) == INF) | (fpos.take(w) > item_of))[0]
                fpos[lid] = -1
                if r.size:
                    # The first event into an improved cell assigns, the
                    # rest add — a zeroed ordered sum — and every open
                    # event counts one struct op.
                    w, nd, item_of = w[r], nd[r], item_of[r]
                    bet = nd < cdv[r]
                    bw = w[bet]
                    cd[bw] = nd[bet]
                    csg[bw] = 0.0
                    np.add.at(csg, w, sgv.take(item_of))
                    dirty[w] = True
                    for h, c in enumerate(
                        deliveries.count_by_host(item_of).tolist()
                    ):
                        if c:
                            rs.compute[h].struct_ops += c

            rows = np.nonzero(dirty)[0]
            if rows.size == 0:
                pending = Exchange.empty(H)
                return False
            pending = A.exchange(rows, (cd[rows], csg[rows]))
            dirty[rows] = False
            return True

        return runtime.run_loop("forward", step)

    def run_backward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        pg, gluon = self.pg, self.gluon
        A = self.arena
        H, n = self.H, self.n
        lut = A.lut.reshape(-1)
        so = (
            np.concatenate(self._order)
            if self._order
            else np.empty(0, dtype=np.int64)
        )
        so = so[so != self.source]
        # One bucket per level, sorted once: a stable sort keeps each
        # level's settle order, and a round's fires are one slice.
        lv = self.settled_d.take(so)
        by_level = np.argsort(lv, kind="stable")
        so, lv = so.take(by_level), lv.take(by_level)
        max_level = int(lv[-1]) if lv.size else 0
        self.delta[:] = 0.0
        # View construction only — every value read happens inside the
        # step closure, on state the forward phase already finalized.
        fd = A.fin_dist[:, 0]  # repro-lint: disable=RL301
        fsg = A.fin_sigma[:, 0]  # repro-lint: disable=RL301
        pdel = A.partial_delta[:, 0]
        ddirty = A.delta_dirty[:, 0]
        rledger = obs.current().rounds
        pending = Exchange.empty(H)

        def step(rnd: int, rs) -> bool:
            nonlocal pending
            inbox = gluon.reduce_to_masters(pending, BWD_PAYLOAD_BYTES, 1, rs)
            if len(inbox):
                for h, c in enumerate(inbox.counts().tolist()):
                    if c:
                        rs.compute[h].struct_ops += c
                # Accumulation in inbox order (host asc, item order within).
                np.add.at(self.delta, inbox.gids, inbox.cols[1])

            level = max_level - rnd + 1
            lo, hi = np.searchsorted(lv, (level, level + 1))
            fires_g = so[lo:hi]
            blocks = Exchange.empty(H)
            if fires_g.size:
                coeff = (1.0 + self.delta.take(fires_g)) / self.settled_sg.take(fires_g)
                blocks = GluonArrayPlane._split_by_dest(
                    fires_g, pg.master_of.take(fires_g),
                    (coeff, self.settled_d.take(fires_g)), H,
                )
                for h, c in enumerate(blocks.counts().tolist()):
                    if c:
                        rs.compute[h].vertex_ops += c
            if rledger is not None:
                # The reverse walk fires level max_level - rnd + 1 whole:
                # each settled vertex's dependency finalizes exactly once.
                rledger.note(
                    frontier=int(fires_g.size), settled=int(fires_g.size)
                )

            deliveries = gluon.broadcast_from_masters(
                blocks, TARGET_IN_EDGES, BWD_PAYLOAD_BYTES, 1, rs
            )
            if len(deliveries):
                gidv = deliveries.gids
                coeff, dv = deliveries.cols
                lid = lut.take(deliveries.hosts() * n + gidv)
                for h, cnt in enumerate(deliveries.counts().tolist()):
                    if cnt:
                        rs.compute[h].vertex_ops += cnt
                deg = A.in_offsets[lid + 1] - A.in_offsets[lid]
                for h, e in enumerate(deliveries.host_sums(deg).tolist()):
                    if e:
                        rs.compute[h].edge_ops += e
                item_of, wp = expand_csr(A.in_offsets, A.in_sources, lid)
                sel = np.nonzero(fd.take(wp) == dv.take(item_of) - 1)[0]
                if sel.size:
                    wt = wp[sel]
                    item_of = item_of[sel]
                    np.add.at(pdel, wt, fsg.take(wt) * coeff.take(item_of))
                    ddirty[wt] = True
                    for h, c in enumerate(
                        deliveries.count_by_host(item_of).tolist()
                    ):
                        if c:
                            rs.compute[h].struct_ops += c

            rows = np.nonzero(ddirty)[0]
            if rows.size == 0:
                pending = Exchange.empty(H)
                return False
            pending = A.exchange(rows, (pdel[rows],))
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
