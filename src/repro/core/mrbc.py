"""Min-Rounds BC on the D-Galois-style engine (paper §4).

This is the implementation the paper's evaluation measures: MRBC executed
as a vertex program over a partitioned graph, computing betweenness scores
for a batch of ``k`` sources simultaneously, with the §4.3 optimizations:

- **Batched sources with dense per-source arrays** — every proxy holds
  ``(dist, σ, δ)`` for all ``k`` sources of the batch in flat arrays
  (O(1) access, spatial locality).
- **Flat-map scheduling** — each master orders its ``(d, s)`` pairs
  lexicographically and derives the send round of a pair from its distance
  and list position (``r = d + position``), instead of storing explicit
  per-source round numbers.
- **Delayed synchronization** — a vertex's ``(d_sv, σ_sv)`` label is
  broadcast to its mirrors exactly once, in the round the pipelining
  schedule proves it final (the proxy synchronization rule of §4.3).

Realization of the §4.3 proxy rule
----------------------------------
The paper evaluates the send condition per proxy; we realize the identical
schedule with a *master-authoritative* variant: mirrors reduce their local
``(d, σ)`` candidates to the master whenever they improve, the master
maintains the authoritative list ``L_v`` and evaluates the CONGEST send
rule ``r = d_sv + ℓ(d_sv, s)`` on it, and fires exactly one broadcast per
``(v, s)`` pair.  Because Gluon's reduce and broadcast happen in the same
communication step, a candidate created by a round-``r`` fire is on the
master at the start of round ``r+1`` — exactly when the CONGEST message
would be in ``L_v`` — so the engine executes the same round schedule as
Algorithm 3 and Lemma 8's ``k + H`` forward-round bound carries over
(validated in the tests against :mod:`repro.core.mrbc_congest`).

The accumulation phase reverses the timestamps exactly as Algorithm 5:
vertex ``v`` fires its dependency broadcast for source ``s`` in round
``A_sv = R − τ_sv + 1``, targeted at the hosts owning in-edges of ``v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.batching import iter_batches
from repro.core.sampling import resolve_sources, sample_sources
from repro.engine.gluon import TARGET_ALL_PROXIES, TARGET_IN_EDGES
from repro.engine.partition import PartitionedGraph
from repro.engine.stats import EngineRun, RoundStats
from repro.graph.digraph import DiGraph
from repro.resilience.checkpoint import (
    mrbc_forward_snapshot,
    restore_mrbc_forward,
)
from repro.runtime.arrays import (
    BIG,
    ColumnBlock,
    HostArena,
    MasterColumns,
    RowStateView,
    expand_csr,
    sorted_unique,
)
from repro.runtime.plane import GluonArrayPlane, resolve_partition
from repro.runtime.superstep import SuperstepRuntime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.context import ResilienceContext
    from repro.resilience.supervisor import PartialResult, RecoveryPolicy

#: "Infinite" distance sentinel in the dense candidate arrays.
INF = np.iinfo(np.int32).max

#: Forward payload: dist (4B) + sigma (8B); the source slot is charged as
#: metadata by Gluon's batched-source model.
FWD_PAYLOAD_BYTES = 12
#: Backward payload: dependency coefficient (8B) + dist (4B).
BWD_PAYLOAD_BYTES = 12


class MasterVertexState:
    """Row form of one master's authoritative ``L_v`` state.

    The engine keeps master state in
    :class:`~repro.runtime.arrays.MasterColumns`; this row form is what
    forward checkpoints store and the resilience invariant checker reads
    (``MasterColumns.to_rows``/``from_rows`` convert).  Per batch source
    index ``si``:

    - ``entries`` — the sorted ``(d, si)`` list; the first
      ``sent_prefix`` entries have fired;
    - ``contrib[si][h]`` — host ``h``'s best local candidate
      ``(d_h, σ_h)``, where ``σ_h`` sums shortest paths arriving over
      ``h``-local in-edges (a batch source's own seed ``(0, 1)`` is the
      virtual host −1, listed first, then hosts ascending).  Only hosts
      holding a proxy of the vertex report it; the columnar store keeps
      each report on that proxy's arena row;
    - ``best[si]`` — the authoritative ``(d*, σ*)`` with
      ``d* = min_h d_h`` and ``σ* = Σ_{h: d_h = d*} σ_h`` — every in-edge
      of the vertex lives on exactly one host, so this counts each
      predecessor contribution once;
    - ``tau[si]`` — the round the entry fired, ``d + position + 1``.
    """

    __slots__ = ("entries", "best", "contrib", "tau", "sent_prefix")

    def __init__(self) -> None:
        self.entries: list[tuple[int, int]] = []  # sorted (d, source_idx)
        self.best: dict[int, tuple[int, float]] = {}
        self.contrib: dict[int, dict[int, tuple[int, float]]] = {}
        self.tau: dict[int, int] = {}
        self.sent_prefix = 0


@dataclass
class MRBCEngineResult:
    """Output of :func:`mrbc_engine`."""

    bc: np.ndarray
    dist: np.ndarray
    sigma: np.ndarray
    sources: np.ndarray
    batch_size: int
    run: EngineRun
    forward_rounds: int
    backward_rounds: int
    partition: PartitionedGraph
    #: Graceful-degradation record when a recovery policy dropped one or
    #: more source batches; None on a fully completed run.  When set,
    #: ``bc``/``dist``/``sigma`` cover only the completed batches (failed
    #: sources keep ``dist == -1``).
    partial: "PartialResult | None" = None

    @property
    def total_rounds(self) -> int:
        """All BSP rounds across batches and phases."""
        return self.forward_rounds + self.backward_rounds

    def rounds_per_source(self) -> float:
        """The paper's Table 1 metric."""
        return self.total_rounds / self.sources.size


class _ArrayBatchExecutor:
    """Runs one k-source batch (forward + backward) on the engine.

    Per-proxy state is the dense §4.3 layout of
    :class:`~repro.runtime.arrays.HostArena` (every host's proxy rows in
    one arena), master state is
    :class:`~repro.runtime.arrays.MasterColumns`, and every step is a
    whole-column sweep over all hosts' items.  A round reads only what
    it touches: the maintained schedule ``head``, one backward bucket,
    and the cells listed in ``touched``.  Three rules fix the
    engine counts, ledger entries and floating-point results down to the
    bit; the golden signatures and output digests in
    ``tests/test_plane_equivalence.py`` pin them:

    - **Derived local lists** — a proxy's sorted ``(d, si)`` pair list
      is the sorted view of its candidate-distance row (a candidate is
      never displaced to a worse distance), so delayed-sync staging
      recomputes the due prefix from ``cand_dist`` each round.
    - **Per-cell item order** — within one relax sweep, delivery items
      interact only through per-``(vertex, source)`` cells, and each
      cell ends in the state its events give when applied in item order
      (host ascending, then position in the host's delivery block; an
      item's own finalize event before its relaxations), ``better`` and
      ``equal`` ops included.  The sweep does not order the events to
      get there: almost every cell is an order-free (min, +) reduction
      whose σ fold runs in item order through ``np.add.at``, and only
      cells with mixed distances or a finalize take a segmented scan
      over their own events (:meth:`_relax_forward`).
    - **Master registration order** — fire emission, the backward
      schedule and BC banking visit masters in first-registration order
      (``MasterColumns.master_seq``).

    σ path counts are integers in float64, so reassociated sums are
    exact below 2⁵³; δ accumulations use ``np.add.at`` with events in
    (host, item, predecessor) order.

    Per-cell state is addressed by one flat int64 id on the 1-D views of
    the C-contiguous columns: ``row·k + si`` in the arena and in the
    master's report store, and ``si·n + gid`` in the master's ``(k, n)``
    columns, so every gather is a ``take`` and every fold a 1-D
    ``np.add.at``.
    """

    def __init__(
        self,
        pg: PartitionedGraph,
        gluon: GluonArrayPlane,
        run: EngineRun,
        batch: np.ndarray,
        delayed_sync: bool,
        resilience: "ResilienceContext | None" = None,
    ) -> None:
        self.pg = pg
        self.gluon = gluon
        self.run = run
        self.batch = batch
        self.k = batch.size
        self.delayed_sync = delayed_sync
        self.H = pg.num_hosts
        self.n = int(pg.master_of.size)
        self.checker = (
            resilience.new_invariant_checker() if resilience is not None else None
        )
        self.arena = HostArena(pg.parts, self.k, self.n)
        self.masters = MasterColumns(self.k, self.n, self.arena)
        for si, s in enumerate(batch):
            self.masters.initialize_source(si, int(s))
        self.delta: np.ndarray | None = None
        #: Arena cells ``row * k + si`` written this round that the next
        #: staging step must send (eager relax, backward credit).
        self.touched: list[np.ndarray] = []

    # -- forward phase -----------------------------------------------------

    def _apply_contribution_scalar(
        self, host: int, si: int, gid: int, d: int, sigma: float
    ) -> None:
        """Sequential merge for duplicate-keyed inbox items (fault plans)."""
        M = self.masters
        row = int(M.report_rows([host], [gid])[0])
        if int(M.rep_d[row, si]) < d:
            return  # stale (the host already reported something better)
        M.rep_d[row, si] = d
        M.rep_sigma[row, si] = sigma

    def _apply_forward_inbox(self, inbox, rs: RoundStats) -> None:
        """Merge reduced candidates into the master columns.

        A host's report is stored on its own proxy row of the vertex
        (``MasterColumns.rep_d``/``rep_sigma``) and replaces its
        previous one for the same cell unless it is worse (stale).  The
        per-host stale filter touches only each sender's own past
        report, and (sender, si, gid) keys are unique within a
        fault-free round, so a scatter write is exact; the
        authoritative ``(d*, σ*)`` (see :class:`MasterVertexState`) is
        then recomputed once per touched cell, a pure function of the
        stored reports (``MasterColumns.authoritative``).  A report from
        a host without a proxy of the vertex raises ``ValueError``.  A
        fired entry must never change: all of its σ contributions arrive
        before its fire round.  An unfired entry's d* never grows either
        (each host's report only improves), so lowering the master's
        schedule ``head`` to each written key keeps it exact.
        """
        M = self.masters
        present = [
            (h, blk) for h, blk in enumerate(inbox)
            if blk is not None and len(blk)
        ]
        if not present:
            return
        for h, blk in present:
            rs.compute[h].struct_ops += 2 * len(blk)  # flat-map lookup + update
        gids = np.concatenate([blk.gids for _h, blk in present])
        snd = np.concatenate([blk.cols[0] for _h, blk in present]).astype(np.int64, copy=False)
        si = np.concatenate([blk.cols[1] for _h, blk in present]).astype(np.int64, copy=False)
        d = np.concatenate([blk.cols[2] for _h, blk in present]).astype(np.int64, copy=False)
        sg = np.concatenate([blk.cols[3] for _h, blk in present]).astype(np.float64, copy=False)
        # Flat report ids row·k + si, row = the sender's proxy of gid.
        rc = M.report_rows(snd, gids) * self.k + si
        M.register_new(gids)
        n = self.n
        key = np.sort(rc)
        if key.size > 1 and (key[1:] == key[:-1]).any():
            for j in range(gids.size):
                self._apply_contribution_scalar(
                    int(snd[j]), int(si[j]), int(gids[j]), int(d[j]), float(sg[j])
                )
        else:
            rep_d = M.rep_d.reshape(-1)
            keep = rep_d.take(rc) >= d
            cw = rc[keep]
            rep_d[cw] = d[keep]
            M.rep_sigma.reshape(-1)[cw] = sg[keep]
        # Recompute (d*, σ*) for every delivered cell — idempotent for
        # the stale-filtered ones, so the full set is safe.
        cells = sorted_unique(si * n + gids)
        si_u, g_u = np.divmod(cells, n)
        d_star, sig_star = M.authoritative(si_u, g_u)
        ent_d = M.ent_d.reshape(-1)
        best_sigma = M.best_sigma.reshape(-1)
        fired = M.fired.reshape(-1).take(cells)
        cur_d = ent_d.take(cells)
        assert not (fired & (d_star < cur_d)).any(), "replacing a fired entry"
        assert not (
            fired & (d_star == cur_d) & (sig_star != best_sigma.take(cells))
        ).any(), "sigma update after fire"
        M.unfired += np.bincount(si_u[cur_d == INF], minlength=self.k)
        live = ~fired
        np.minimum.at(
            M.head, g_u[live], (d_star[live] << M.si_bits) | si_u[live]
        )
        ent_d[cells] = d_star
        best_sigma[cells] = sig_star

    def _emit_fires(self, rnd: int, rs: RoundStats):
        """Evaluate the CONGEST send rule over all masters at once.

        ``MasterColumns.head[gid]`` is the master's minimum schedule key
        ``(d << si_bits) | si`` over unfired present cells, kept current
        by the inbox merge; the head fires when ``d + sent_prefix + 1 ==
        rnd`` (send rounds strictly increase along the sorted list, so
        fired entries form a stable prefix).  The check is one pass over
        the n-vector of heads; a firing master's head is then recomputed
        from its own k cells.  Returns (per-host fire blocks, fired
        count, any_pending).
        """
        M = self.masters
        b = M.si_bits
        # The distance a head must have to fire this round.  An absent
        # head (BIG) decodes to at least 2**(63 - b) - 1, past any round,
        # so it neither fires nor counts as missed.
        fire_d = (rnd - 1) - M.sent_prefix
        head_d = M.head >> b
        assert not (head_d < fire_d).any(), "missed fire: an entry was due earlier"
        g = np.nonzero(head_d == fire_d)[0]
        blocks = [None] * self.H
        if g.size:
            g = g[M.order_by_seq(g)]
            key = M.head.take(g)
            si_f = key & ((1 << b) - 1)
            d_f = key >> b
            mc = si_f * self.n + g
            M.fired.reshape(-1)[mc] = True
            M.tau.reshape(-1)[mc] = rnd
            M.sent_prefix[g] += 1
            M.unfired -= np.bincount(si_f, minlength=self.k)
            M.refresh_head(g)
            hosts_f = self.pg.master_of[g]
            blocks = GluonArrayPlane._split_by_dest(
                g, hosts_f, [si_f, d_f, M.best_sigma.reshape(-1).take(mc)],
                self.H,
            )
            for h, c in enumerate(np.bincount(hosts_f, minlength=self.H)):
                if c:
                    rs.compute[h].struct_ops += int(c)
        any_pending = bool((M.head < BIG).any())
        return blocks, int(g.size), any_pending

    def _relax_forward(self, deliveries, rs: RoundStats) -> None:
        """Relax local out-edges of this round's fired vertices — one
        arena-wide sweep over every host's delivery block.

        The result is the per-cell item-order rule of the class
        docstring; the sweep computes it without ordering the events:

        1. A relaxation worse than its cell's pre-sweep candidate is a
           no-op in any order (a candidate only improves within a
           sweep), so it is dropped.
        2. A cell with no finalize this round whose remaining
           relaxations share one distance ``D`` is an order-free
           (min, +) reduction.  Its candidate becomes ``D``; if that
           improves it, the first relaxation in item order is its one
           ``better`` op and σ restarts from 0.0, and every other
           relaxation is ``equal``.  σ then folds the relaxations in
           item order with ``np.add.at``, which is the in-order float
           sequence exactly: in order, the first relaxation sets σ to
           its σ₁, and ``0.0 + σ₁ == σ₁``.
        3. The rest — cells whose relaxations carry different
           distances, and cells that also hold a finalize — go to
           :meth:`_relax_ordered`, one segmented scan over just their
           events.

        The open test reads the finalized row, whose intra-round writes
        are unique, so it is reconstructed exactly from the post-state
        plus the per-cell fire position ``fpos``.  Hosts never share
        cells (arena rows are per-host), so every event of a cell comes
        from one host.  The ``fpos`` scratch marks cells while the sweep
        runs (−2: resolved by the scan) and is reset to −1 at the end.
        """
        present = [
            (h, blk) for h, blk in enumerate(deliveries)
            if blk is not None and len(blk)
        ]
        if not present:
            return
        A = self.arena
        delayed = self.delayed_sync
        k = self.k
        lens = np.array([len(blk) for _h, blk in present], dtype=np.int64)
        hs = np.repeat(
            np.array([h for h, _blk in present], dtype=np.int64), lens
        )
        gids = np.concatenate([blk.gids for _h, blk in present])
        si = np.concatenate([blk.cols[0] for _h, blk in present]).astype(np.int64, copy=False)
        d = np.concatenate([blk.cols[1] for _h, blk in present]).astype(np.int64, copy=False)
        sg = np.concatenate([blk.cols[2] for _h, blk in present]).astype(np.float64, copy=False)
        m = int(gids.size)
        items = np.arange(m, dtype=np.int64)
        lid = A.lut.reshape(-1).take(hs * self.n + gids)
        # Flat views of the C-contiguous (rows, k) columns: cell row·k + si.
        cand_d = A.cand_dist.reshape(-1)
        cand_sg = A.cand_sigma.reshape(-1)
        sent = A.sent_d.reshape(-1)
        fpos = A.fpos.reshape(-1)
        fcell = lid * k + si
        A.fin_dist[lid, si] = d
        A.fin_sigma[lid, si] = sg
        fpos[fcell] = items
        for (h, blk), cnt in zip(present, lens.tolist()):
            oc = rs.compute[h]
            oc.vertex_ops += cnt
            if delayed:
                oc.struct_ops += cnt  # local-list reconciliation probes
        deg = A.out_offsets[lid + 1] - A.out_offsets[lid]
        # Delivery blocks are host-contiguous, so per-host edge totals are
        # segment sums at the block starts (int all the way, no bincount
        # float round-trip).
        block_starts = np.zeros(lens.size, dtype=np.int64)
        np.cumsum(lens[:-1], out=block_starts[1:])
        for (h, _blk), e in zip(
            present, np.add.reduceat(deg, block_starts).tolist()
        ):
            if e:
                rs.compute[h].edge_ops += int(e)
        item_of, w = expand_csr(A.out_offsets, A.out_targets, lid)
        cell = w * k + si[item_of]
        nd = d[item_of] + 1
        # Step 1, before the open test: it keeps fewer events.
        cd0 = cand_d.take(cell)
        r = np.nonzero(nd <= cd0)[0]
        cell, nd, cd0, item_of = cell[r], nd[r], cd0[r], item_of[r]
        fp = fpos.take(cell)
        # Open ⟺ the finalized value does not already beat the
        # relaxation *at the time the item runs*: final after this
        # round, or finalized by a later item than this one.
        # Called from the step loop right after broadcast delivery,
        # so the finalized columns are post-synchronization here.
        open_ = (A.fin_dist.reshape(-1).take(cell) >= nd) | (fp > item_of)  # repro-lint: disable=RL301
        r = np.nonzero(open_)[0]
        cell, nd, cd0, item_of, fp = cell[r], nd[r], cd0[r], item_of[r], fp[r]
        if delayed:
            # A cell finalized this round resolves through the scan when
            # relaxations reach it too, or when two items finalize it
            # (duplicate deliveries under a fault plan).
            twice = fpos[fcell] != items
            ev2 = np.nonzero(fp < 0)[0]
            ev3 = np.nonzero(fp >= 0)[0]
            fpos[fcell[twice]] = -2
            fpos[cell[ev3]] = -2
            f_ord = fpos[fcell] == -2
        else:
            ev2 = np.arange(cell.size, dtype=np.int64)
            ev3 = ev2[:0]
            f_ord = np.zeros(m, dtype=bool)
        # Step 2.  One minimum over (distance, position) keys per cell
        # gives both its best distance D and the first relaxation
        # reaching it: ``(nd << pb) | pos`` orders as the pairs do.
        cell2, nd2 = cell[ev2], nd[ev2]
        pb = max(int(cell2.size) - 1, 0).bit_length()
        key = (nd2 << pb) | np.arange(cell2.size, dtype=np.int64)
        fpos[cell2] = BIG
        np.minimum.at(fpos, cell2, key)
        first = fpos.take(cell2)
        fpos[cell2[nd2 != first >> pb]] = -2  # mixed distances: the scan
        o = fpos.take(cell2) != -2
        r2 = ev2[o]
        c, dd = cell[r2], nd[r2]
        j = item_of[r2]
        better = (first[o] == key[o]) & (dd < cd0[r2])
        bc = c[better]
        cand_d[bc] = dd[better]
        cand_sg[bc] = 0.0
        np.add.at(cand_sg, c, sg[j])
        ev_h = hs[j]
        n_better = np.bincount(ev_h[better], minlength=self.H)
        n_equal = np.bincount(ev_h[~better], minlength=self.H)
        if delayed:
            ce = c[~better]
            ce = ce[sent[ce] == dd[~better]]
            sent[ce] = -1
            A.unsent.set_many(c // k)
            # Finalize-only cells: the broadcast value supersedes this
            # host's own candidate, which is recorded as already
            # synchronized.  A worse local candidate can never become a
            # valid min-distance contribution (every predecessor at d-1
            # fired before v), so its σ is dropped.
            fo = ~f_ord
            fc, fd = fcell[fo], d[fo]
            old = cand_d[fc]
            has_old = old != INF
            upd = has_old & (old > fd)
            cand_d[fc[upd]] = fd[upd]
            cand_sg[fc[upd]] = 0.0
            A.unsent.set_many(lid[fo][has_old])
            sent[fc] = fd
        else:
            self.touched.append(c)
        # Step 3: the cells marked −2, with their finalizes.
        rr = np.concatenate([ev3, ev2[~o]])
        fi = f_ord.nonzero()[0]
        if rr.size or fi.size:
            self._relax_ordered(
                np.concatenate([fcell[fi], cell[rr]]),
                np.concatenate([fi, item_of[rr]]),
                np.concatenate([d[fi], nd[rr]]),
                fi.size, sg, hs, n_better, n_equal,
            )
        sfac = 2 if delayed else 1
        for h in range(self.H):
            ops = sfac * int(n_better[h]) + int(n_equal[h])
            if ops:
                rs.compute[h].struct_ops += ops
        fpos[cell2] = -1
        fpos[fcell] = -1

    def _relax_ordered(
        self, cell, item, val, n_fin, sg, hs, n_better, n_equal
    ) -> None:
        """Apply the events of the cells whose outcome depends on item
        order, as one segmented scan.

        The first ``n_fin`` events are finalizes (``val`` = the fired
        distance), the rest relaxations (``val`` = the relaxed distance,
        never worse than the pre-sweep candidate).  Sorting on (cell,
        item, kind) puts each cell's events in the order the per-cell
        rule applies them; the candidate before each event is then a
        running minimum that restarts at each cell.  A finalize lowers
        the candidate only if one exists when it runs, i.e. before the
        sweep or from an earlier relaxation.  σ restarts at a cell's
        last ``better`` relaxation or lowering finalize and folds the
        ``equal`` relaxations after it in order (``np.add.at``).
        ``sent_d`` ends at the cell's last finalized distance (or its
        pre-sweep value) unless a later ``equal`` relaxation at that
        distance cleared it to −1.  ``sg`` and ``hs`` are per item.
        """
        A = self.arena
        k = self.k
        m = sg.size
        cand_d = A.cand_dist.reshape(-1)
        cand_sg = A.cand_sigma.reshape(-1)
        sent = A.sent_d.reshape(-1)
        is_fin = np.zeros(cell.size, dtype=bool)
        is_fin[:n_fin] = True
        # Stable sort on one composite key ≡ lexsort((kind, item, cell)):
        # item < m and kind < 2, so the packing is injective.
        order = np.argsort((cell * m + item) * 2 + ~is_fin, kind="stable")
        cell, item, val, is_fin = cell[order], item[order], val[order], is_fin[order]
        is_rel = ~is_fin
        n = cell.size
        idx = np.arange(n, dtype=np.int64)
        start = np.ones(n, dtype=bool)
        np.not_equal(cell[1:], cell[:-1], out=start[1:])
        seg = np.cumsum(start) - 1
        first = start.nonzero()[0]
        last = np.append(first[1:], n) - 1
        ucell = cell[first]
        cd0 = cand_d[ucell][seg]
        rel_seen = np.cumsum(is_rel) - is_rel
        rel_seen -= rel_seen[first][seg]
        eff = np.where(is_fin & (cd0 == INF) & (rel_seen == 0), INF, val)
        # Running minimum per cell: the offset drops by more than any
        # distance from one cell to the next, so it restarts at each.
        off = (seg[-1] - seg) * (np.int64(INF) + 1)
        after = np.minimum(np.minimum.accumulate(eff + off) - off, cd0)
        before = np.empty_like(after)
        before[1:] = after[:-1]
        before[first] = cd0[first]
        better = is_rel & (val < before)
        equal = is_rel & (val == before)
        live = is_fin & (before != INF)
        restart = better | (live & (before > val))
        last_restart = np.maximum.accumulate(np.where(restart, idx, -1))[last]
        fold = (better | equal) & (idx >= last_restart[seg])
        cand_sg[ucell[last_restart >= first]] = 0.0
        np.add.at(cand_sg, cell[fold], sg[item[fold]])
        cand_d[ucell] = after[last]
        ev_h = hs[item]
        n_better += np.bincount(ev_h[better], minlength=self.H)
        n_equal += np.bincount(ev_h[equal], minlength=self.H)
        if self.delayed_sync:
            last_fin = np.maximum.accumulate(np.where(is_fin, idx, -1))[last]
            base = np.where(last_fin >= first, val[last_fin], sent[ucell])
            cleared = np.zeros(ucell.size, dtype=bool)
            cleared[seg[equal & (idx > last_fin[seg]) & (val == base[seg])]] = True
            sent[ucell] = np.where(cleared, -1, base)
            A.unsent.set_many(cell[better | equal | live] // k)
        else:
            self.touched.append(cell[better | equal])

    def _stage_delayed(self, rnd: int, rs: RoundStats):
        """Vectorized §4.3 staging: derive each pending vertex's sorted
        pair list from its candidate row, send the due prefix.

        Each ``(row, si)`` entry becomes one int64 key
        ``(d << (si_bits + 1)) | (si << 1) | unsent``, where ``unsent``
        means ``sent_d`` differs from ``d``.  ``si`` is unique per row,
        so the ``(d, si)`` part of the keys is unique and sorting a row
        of keys in place orders it as the pair list, with absent (INF)
        entries last; the low bit never reorders two keys.  Distance,
        source and the bit decode by shifts.

        One arena-wide sweep: the unsent bitset's sorted index vector
        runs host ascending, then local id ascending, so slicing the
        row-major result at the arena's host offsets yields per-host
        blocks staged in (lid, list position) order.
        """
        blocks: list = [None] * self.H
        A = self.arena
        k = self.k
        lids = A.unsent.indices()
        if lids.size == 0:
            return blocks, False
        for h, c in enumerate(
            np.bincount(A.host_of[lids], minlength=self.H)
        ):
            if c:
                rs.compute[h].struct_ops += int(c)  # flat-map probes
        b = self.masters.si_bits
        sh = b + 1
        pos = np.arange(k, dtype=np.int64)
        d = A.cand_dist.take(lids, axis=0)
        key = d << sh
        key |= pos << 1
        key |= A.sent_d.take(lids, axis=0) != d
        key.sort(axis=1)
        d = key >> sh
        unsent = (key & 1).astype(bool)
        # Due rounds are strictly increasing along each sorted list,
        # so the due test per position selects exactly the prefix up to
        # the first entry that is not due yet; INF never passes.
        due = d <= rnd - pos
        need = np.flatnonzero(due & unsent)  # positions row·k + pos
        if need.size:
            ks = key.reshape(-1).take(need)
            # Non-decreasing: row-major over the sorted lids.
            l_sel = lids.take(need // k)
            si_sel = (ks >> 1) & ((1 << b) - 1)
            d_sel = ks >> sh
            cells = l_sel * k + si_sel
            A.sent_d.reshape(-1)[cells] = d_sel
            blocks = self._host_blocks(
                l_sel, (si_sel, d_sel, A.cand_sigma.reshape(-1).take(cells))
            )
        remain = unsent & ~due & (d != INF)
        A.unsent.clear_many(lids[~remain.any(axis=1)])
        any_work = need.size > 0 or A.unsent.any()
        return blocks, any_work

    def _host_blocks(self, rows: np.ndarray, cols: tuple) -> list:
        """Per-host exchange blocks of entries listed by non-decreasing
        arena ``rows``: the gids of the rows plus the payload ``cols``,
        sliced at the arena's host offsets."""
        A = self.arena
        blocks: list = [None] * self.H
        g_sel = A.gids.take(rows)
        bounds = np.searchsorted(rows, A.off)
        for h in range(self.H):
            a, b = int(bounds[h]), int(bounds[h + 1])
            if b > a:
                blocks[h] = ColumnBlock.raw(
                    g_sel[a:b], tuple(c[a:b] for c in cols)
                )
        return blocks

    def _take_touched(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This round's touched cells ``row·k + si`` in row-major order
        (host, then local id, then source), with their rows and source
        slots; resets the list."""
        if not self.touched:
            none = np.empty(0, dtype=np.int64)
            return none, none, none
        cells = sorted_unique(np.concatenate(self.touched))
        self.touched = []
        rows, cols = np.divmod(cells, self.k)
        return cells, rows, cols

    def _stage_eager(self):
        """Ablation path: reduce every updated candidate every round."""
        A = self.arena
        cells, rows, cols = self._take_touched()
        if cells.size == 0:
            return [None] * self.H, False
        return self._host_blocks(rows, (
            cols,
            A.cand_dist.reshape(-1).take(cells),
            A.cand_sigma.reshape(-1).take(cells),
        )), True

    def run_forward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        gluon = self.gluon
        rledger = obs.current().rounds
        pending: list = [None] * self.H

        def step(rnd: int, rs: RoundStats) -> bool:
            nonlocal pending

            inbox = gluon.reduce_to_masters(pending, FWD_PAYLOAD_BYTES, self.k, rs)
            pending = [None] * self.H
            self._apply_forward_inbox(inbox, rs)
            fires, fired_total, any_pending = self._emit_fires(rnd, rs)

            if self.checker is not None:
                self.checker.check_master_round(rnd, self.masters.to_rows())

            if rledger is not None:
                M = self.masters
                stage_fired = int(M.sent_prefix.sum())
                rledger.note(
                    frontier=fired_total,
                    settled=fired_total,
                    active_sources=int(np.count_nonzero(M.unfired)),
                    stage_entries=int(M.unfired.sum()) + stage_fired,
                    stage_fired=stage_fired,
                    stage_depth=self.arena.unsent.count(),
                )

            deliveries = gluon.broadcast_from_masters(
                fires, TARGET_ALL_PROXIES, FWD_PAYLOAD_BYTES, self.k, rs
            )
            self._relax_forward(deliveries, rs)

            if self.delayed_sync:
                pending, any_work = self._stage_delayed(rnd, rs)
            else:
                pending, any_work = self._stage_eager()
            return any_work or any_pending

        return runtime.run_loop("forward", step)

    # -- backward phase ----------------------------------------------------

    def _backward_schedule(self):
        """Algorithm 5's send schedule, sorted once per phase.

        Every fired non-source cell ``(si, g)`` sends its dependency in
        round ``R − τ + 1``.  Each cell becomes one int64 key
        ``(round << rb) | (master_seq << si_bits) | si``, ordered by
        (send round, ``master_seq``, si), and the keys are sorted once.
        Returns ``(R, bucket)``: ``bucket(rnd)`` is that round's
        ``searchsorted`` slice, decoded by shifts to ``(si, g)`` in
        master creation order, si ascending per master.
        """
        M = self.masters
        k, n = self.k, self.n
        R = int(M.tau[M.fired].max()) if M.fired.any() else 1
        sched = M.fired.copy()
        sched[np.arange(k), self.batch] = False
        si, g = np.nonzero(sched)
        kb = M.si_bits
        sb = (n - 1).bit_length()
        rb = kb + sb
        keys = ((R - M.tau[sched] + 1) << rb) | (M.master_seq[g] << kb) | si
        keys.sort()
        by_seq = np.asarray(M.master_order, dtype=np.int64)

        def bucket(rnd: int) -> tuple[np.ndarray, np.ndarray]:
            lo, hi = np.searchsorted(keys, (rnd << rb, (rnd + 1) << rb))
            b = keys[lo:hi]
            return b & ((1 << kb) - 1), by_seq[(b >> kb) & ((1 << sb) - 1)]

        return R, bucket

    def run_backward(self, runtime: "SuperstepRuntime | None" = None) -> int:
        """Accumulation phase (Algorithm 5): dependency broadcasts in
        reverse forward-timestamp order, then predecessor credits.

        Per round, the firing set is a precomputed bucket
        (:meth:`_backward_schedule`) and the credited cells come from
        the touched list, so a round costs what it sends and credits,
        not k × n.
        """
        if runtime is None:
            runtime = SuperstepRuntime(run=self.run)
        gluon = self.gluon
        M = self.masters
        R, bucket = self._backward_schedule()
        self.delta = np.zeros((self.k, self.n), dtype=np.float64)
        delta = self.delta.reshape(-1)
        pending: list = [None] * self.H
        rledger = obs.current().rounds

        def step(rnd: int, rs: RoundStats) -> bool:
            nonlocal pending

            inbox = gluon.reduce_to_masters(pending, BWD_PAYLOAD_BYTES, self.k, rs)
            pending = [None] * self.H
            got = [
                (h, blk) for h, blk in enumerate(inbox)
                if blk is not None and len(blk)
            ]
            if got:
                for h, blk in got:
                    rs.compute[h].struct_ops += len(blk)
                gi = np.concatenate([blk.gids for _h, blk in got])
                si = np.concatenate(
                    [blk.cols[1] for _h, blk in got]
                ).astype(np.int64, copy=False)
                pd = np.concatenate(
                    [blk.cols[2] for _h, blk in got]
                ).astype(np.float64, copy=False)
                # Sequential accumulation in inbox order (host asc, item
                # order within).
                np.add.at(delta, si * self.n + gi, pd)

            si_f, g_f = bucket(rnd)
            blocks = [None] * self.H
            if g_f.size:
                mc = si_f * self.n + g_f
                sg = M.best_sigma.reshape(-1).take(mc)
                coeff = (1.0 + delta.take(mc)) / sg
                hosts_f = self.pg.master_of[g_f]
                blocks = GluonArrayPlane._split_by_dest(
                    g_f, hosts_f, [si_f, coeff, M.ent_d.reshape(-1).take(mc)],
                    self.H,
                )
                for h, c in enumerate(np.bincount(hosts_f, minlength=self.H)):
                    if c:
                        rs.compute[h].struct_ops += int(c)

            if rledger is not None:
                rledger.note(frontier=int(g_f.size), settled=int(g_f.size))

            deliveries = gluon.broadcast_from_masters(
                blocks, TARGET_IN_EDGES, BWD_PAYLOAD_BYTES, self.k, rs
            )
            self._credit_backward(deliveries, rs)

            cells, rows, cols = self._take_touched()
            if cells.size == 0:
                return False
            pdelta = self.arena.partial_delta.reshape(-1)
            pending = self._host_blocks(rows, (cols, pdelta.take(cells)))
            pdelta[cells] = 0.0
            return True

        return runtime.run_loop("backward", step, min_rounds=R)

    def _credit_backward(self, deliveries, rs: RoundStats) -> None:
        present = [
            (h, blk) for h, blk in enumerate(deliveries)
            if blk is not None and len(blk)
        ]
        if not present:
            return
        A = self.arena
        lens = np.array([len(blk) for _h, blk in present], dtype=np.int64)
        hs = np.repeat(
            np.array([h for h, _blk in present], dtype=np.int64), lens
        )
        gids = np.concatenate([blk.gids for _h, blk in present])
        si = np.concatenate([blk.cols[0] for _h, blk in present]).astype(np.int64, copy=False)
        coeff = np.concatenate(
            [blk.cols[1] for _h, blk in present]
        ).astype(np.float64, copy=False)
        d = np.concatenate([blk.cols[2] for _h, blk in present]).astype(np.int64, copy=False)
        lid = A.lut.reshape(-1).take(hs * self.n + gids)
        for (h, blk), cnt in zip(present, lens.tolist()):
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
        if wp.size == 0:
            return
        wc = wp * self.k + si[item_of]
        # Called from the step loop right after broadcast delivery, so
        # the finalized columns are post-synchronization here.
        is_pred = A.fin_dist.reshape(-1).take(wc) == d[item_of] - 1  # repro-lint: disable=RL301
        sel = np.nonzero(is_pred)[0]
        if sel.size == 0:
            return
        wc = wc[sel]
        vals = A.fin_sigma.reshape(-1).take(wc) * coeff[item_of[sel]]  # repro-lint: disable=RL301
        # np.add.at accumulates in event order = (host, item,
        # predecessor) order per cell (cells never span hosts).
        np.add.at(A.partial_delta.reshape(-1), wc, vals)
        self.touched.append(wc)
        for h, c in enumerate(
            np.bincount(hs[item_of[sel]], minlength=self.H)
        ):
            if c:
                rs.compute[h].struct_ops += int(c)

    # -- executor interface ------------------------------------------------

    def flatmap_entry_counts(self) -> list[int]:
        """Per master, |L_v| — the flat-map occupancy histogram input."""
        counts = (self.masters.ent_d != INF).sum(axis=0)
        return [int(counts[g]) for g in self.masters.master_order]

    def bank(
        self, base: int, bc: np.ndarray, dist: np.ndarray, sigma: np.ndarray
    ) -> None:
        """Add this batch's results to the run's outputs in place.

        Source ``si`` is row ``base + si`` of ``dist``/``sigma``.  BC is
        banked only when the backward phase ran: each vertex
        accumulates the batch sources si-ascending, excluding the source
        itself; non-masters add exact zeros.  (si, gid) cells are
        disjoint across batches.
        """
        M = self.masters
        si_p, g_p = np.nonzero(M.ent_d != INF)
        dist[base + si_p, g_p] = M.ent_d[si_p, g_p]
        sigma[base + si_p, g_p] = M.best_sigma[si_p, g_p]
        if self.delta is None:
            return
        registered = M.master_seq >= 0
        for si in range(self.k):
            row = np.where(registered, self.delta[si], 0.0)
            row[int(self.batch[si])] = 0.0
            bc += row

    def to_rows(self) -> RowStateView:
        """Row-shaped view for checkpoints and invariant checks."""
        return RowStateView(
            masters=self.masters.to_rows(),
            hosts=[self.arena.host_view(h) for h in range(self.H)],
            batch=self.batch,
        )

    def from_rows(self, masters, arrays) -> None:
        """Load a row-shaped forward snapshot (checkpoint restore)."""
        self.masters = MasterColumns(self.k, self.n, self.arena)
        self.masters.from_rows(masters)
        self.delta = None
        for h in range(self.H):
            view = self.arena.host_view(h)
            view.fin_dist[:] = arrays[f"fin_dist_{h}"]
            view.fin_sigma[:] = arrays[f"fin_sigma_{h}"]


def mrbc_engine(
    g: DiGraph,
    sources: np.ndarray | list[int] | None = None,
    num_sources: int | None = None,
    batch_size: int = 32,
    num_hosts: int = 8,
    policy: str = "cvc",
    partition: PartitionedGraph | None = None,
    delayed_sync: bool = True,
    forward_only: bool = False,
    seed: int | None = None,
    resilience: "ResilienceContext | None" = None,
    recovery_policy: "RecoveryPolicy | str | None" = None,
) -> MRBCEngineResult:
    """Run Min-Rounds BC on the simulated D-Galois engine.

    Parameters
    ----------
    sources:
        Explicit source vertices; if ``None``, ``num_sources`` are sampled
        (contiguous chunk, the paper's §5.1 protocol; default: all
        vertices).  Ids outside ``[0, n)``, repeated ids and a graph with
        no vertices raise :class:`ValueError`.
    batch_size:
        Sources per simultaneous batch (the paper's ``k``; Figure 1).
    num_hosts, policy, partition:
        Partitioning configuration; pass a prebuilt ``partition`` to share
        it across algorithms (as the benchmarks do).
    forward_only:
        Run only the k-SSP forward phase (distances and σ; BC stays zero)
        — used by :func:`repro.core.kssp.kssp`.
    delayed_sync:
        Disable only for the ablation benchmark — eagerly broadcasts
        provisional values, inflating communication exactly as §4.3 says
        the optimization avoids.
    resilience:
        Optional :class:`~repro.resilience.context.ResilienceContext`.
        Attaches the fault-plan channel guard to the Gluon substrate,
        enables per-round master-state invariant checks, snapshots each
        batch's post-forward state, and (in ``repair`` mode) recovers
        from injected host crashes: a forward-phase crash restarts the
        batch's forward pass, a backward-phase crash restores the
        forward checkpoint and replays only the backward rounds.
        Replayed rounds are marked as recovery overhead.
    recovery_policy:
        A :class:`~repro.resilience.supervisor.RecoveryPolicy` (or preset
        name) governing retry/backoff/deadline/restart budgets and
        checkpoint retention.  (Named ``recovery_policy`` because
        ``policy`` is this driver's partition policy.)  A degrading
        policy makes each source batch a failure domain: an
        unrecoverable batch is dropped and the result carries a
        :class:`~repro.resilience.supervisor.PartialResult` salvaging
        the completed batches.  With no faults, attaching a policy is
        neutral — the deterministic signature is byte-identical.

    Returns per-vertex BC (summed over the sampled sources), per-source
    distances and path counts, and the full engine statistics.
    """
    from repro.resilience.supervisor import attach_policy

    pg = resolve_partition(g, partition, num_hosts, policy)
    if sources is None and num_sources is not None:
        sources = sample_sources(g, num_sources, seed=seed)
    src = resolve_sources(sources, g.num_vertices)

    resilience, supervisor = attach_policy(resilience, recovery_policy)
    runtime = SuperstepRuntime(
        plane=GluonArrayPlane(pg, resilience=resilience), resilience=resilience
    )
    gluon = runtime.plane
    run = runtime.run
    n = g.num_vertices
    bc = np.zeros(n, dtype=np.float64)
    dist = np.full((src.size, n), -1, dtype=np.int64)
    sigma = np.zeros((src.size, n), dtype=np.float64)
    fwd_rounds = 0
    bwd_rounds = 0

    tele = obs.current()

    def execute_batch(b0: int, batch: np.ndarray) -> tuple[int, int]:
        """Run and bank one batch; returns its (forward, backward) rounds.

        The batch is banked before this returns, so once the frame is
        gone nothing references its executor: the next batch never
        allocates beside it.
        """
        # -- forward, restarting the batch from scratch on a host crash
        # (redone rounds are charged to the recovery phase by the runtime).
        def fwd_prepare(attempt: int) -> _ArrayBatchExecutor:
            return _ArrayBatchExecutor(
                pg, gluon, run, batch, delayed_sync, resilience
            )

        def fwd_body(ex: _ArrayBatchExecutor) -> int:
            with runtime.phase("forward", batch=b0, k=int(batch.size)):
                return ex.run_forward(runtime)

        ex, f = runtime.run_with_restart(fwd_prepare, fwd_body)
        if resilience is not None:
            meta, arrays = mrbc_forward_snapshot(ex)
            resilience.checkpoints.save(f"batch{b0:04d}-forward", meta, arrays)
        if tele.enabled:
            # Flat-map occupancy: |L_v| across this batch's masters (the
            # data structure whose maintenance cost Figure 2 charges to
            # MRBC's computation time).
            hist = tele.metrics.histogram("mrbc.flatmap_entries")
            for cnt in ex.flatmap_entry_counts():
                hist.observe(cnt)
        b = 0
        if not forward_only:
            # -- backward, resuming from the forward checkpoint on a crash.
            def bwd_prepare(
                attempt: int, first: _ArrayBatchExecutor = ex
            ) -> _ArrayBatchExecutor:
                if attempt == 1:
                    return first
                fresh = _ArrayBatchExecutor(
                    pg, gluon, run, batch, delayed_sync, resilience
                )
                meta, arrays = resilience.checkpoints.load(
                    f"batch{b0:04d}-forward"
                )
                restore_mrbc_forward(fresh, meta, arrays)
                return fresh

            def bwd_body(ex: _ArrayBatchExecutor) -> int:
                with runtime.phase("backward", batch=b0, k=int(batch.size)):
                    return ex.run_backward(runtime)

            ex, b = runtime.run_with_restart(bwd_prepare, bwd_body)
        ex.bank(b0 * batch_size, bc, dist, sigma)
        return f, b

    for b0, batch in enumerate(iter_batches(src, batch_size)):
        # Each batch is a failure domain: under a degrading policy an
        # unrecoverable batch is skipped (nothing banked) and the
        # remaining batches still contribute exact per-source results.
        if supervisor is not None:
            out, completed = supervisor.run_unit(
                b0, batch, lambda b0=b0, batch=batch: execute_batch(b0, batch)
            )
            if not completed:
                continue
        else:
            out = execute_batch(b0, batch)
        f, b = out
        fwd_rounds += f
        bwd_rounds += b

    partial = (
        supervisor.partial_result(bc, requested_sources=int(src.size), num_vertices=n)
        if supervisor is not None
        else None
    )
    return MRBCEngineResult(
        bc=bc,
        dist=dist,
        sigma=sigma,
        sources=src,
        batch_size=batch_size,
        run=run,
        forward_rounds=fwd_rounds,
        backward_rounds=bwd_rounds,
        partition=pg,
        partial=partial,
    )
