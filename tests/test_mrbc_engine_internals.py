"""White-box tests for the MRBC engine executor internals:
local-list maintenance, the forward relax rules, delayed-sync staging,
the master inbox merge, backward scheduling, the incrementally
maintained send schedule, and the one-live-batch rule."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.baselines.brandes import brandes_bc
from repro.core.mrbc import INF, _ArrayBatchExecutor, mrbc_engine
from repro.engine.partition import partition_graph
from repro.engine.stats import EngineRun
from repro.graph import generators as gen
from repro.graph.builders import from_edges
from repro.obs.rounds import RoundLedger
from repro.resilience.context import ResilienceContext
from repro.resilience.plan import FaultPlan, FaultSpec, get_plan
from repro.runtime.arrays import BIG, ColumnBlock, Exchange, MasterColumns
from repro.runtime.plane import GluonArrayPlane
from tests.conftest import dense_schedule


def make_executor(g, batch, H=2, delayed=True):
    pg = partition_graph(g, H, "cvc")
    run = EngineRun(num_hosts=H)
    gluon = GluonArrayPlane(pg)
    return _ArrayBatchExecutor(
        pg, gluon, run, np.asarray(batch, dtype=np.int64), delayed
    )


def row(ex, gid, h=0):
    """Arena row of host ``h``'s proxy of ``gid``."""
    return int(ex.arena.lut[h, gid])


def deliver(ex, rs, items, h=0):
    """One relax sweep over fired ``(gid, si, d, sigma)`` items on host h."""
    deliver_all(ex, rs, {h: items})


def deliver_all(ex, rs, by_host):
    """One relax sweep over ``{host: [(gid, si, d, sigma), ...]}``."""
    parts = [by_host.get(h, []) for h in range(ex.H)]
    ex._relax_forward(
        Exchange.from_parts(parts, (np.int64, np.int64, np.float64)), rs
    )


def local_list(ex, gid, h=0):
    """The proxy's sorted ``(d, si)`` pair list: its candidate row."""
    cd = ex.arena.cand_dist[row(ex, gid, h)].tolist()
    return sorted((d, si) for si, d in enumerate(cd) if d != INF)


def stage(ex, rnd, rs):
    """Stage round ``rnd``; return the staged ``(gid, si, d, sigma)``."""
    blocks, _any_work = ex._stage_delayed(rnd, rs)
    return [t for blk in blocks if blk is not None for t in blk.to_tuples()]


def set_candidate(ex, gid, si, d, sigma, h=0):
    r = row(ex, gid, h)
    ex.arena.cand_dist[r, si] = d
    ex.arena.cand_sigma[r, si] = sigma
    ex.arena.unsent.set_many(np.array([r]))


class TestLocalListMaintenance:
    def test_insert_and_replace(self):
        g = gen.path_graph(4, bidirectional=False)
        ex = make_executor(g, [0, 1], H=1)
        rs = ex.run.new_round("forward")
        deliver(ex, rs, [(1, 0, 4, 1.0)])  # 1 fires at d=4: 2 gets (5, 0)
        assert local_list(ex, 2) == [(5, 0)]
        assert row(ex, 2) in ex.arena.unsent
        deliver(ex, rs, [(1, 0, 2, 1.0)])  # improvement replaces
        assert local_list(ex, 2) == [(3, 0)]
        deliver(ex, rs, [(1, 1, 2, 1.0)])  # second source
        assert local_list(ex, 2) == [(3, 0), (3, 1)]

    def test_same_distance_noop_on_list(self):
        g = gen.path_graph(3, bidirectional=False)
        ex = make_executor(g, [0], H=1)
        rs = ex.run.new_round("forward")
        deliver(ex, rs, [(0, 0, 1, 1.0)])
        deliver(ex, rs, [(0, 0, 1, 2.0)])  # σ-only update
        assert local_list(ex, 1) == [(2, 0)]
        assert ex.arena.cand_sigma[row(ex, 1), 0] == 3.0


def replay_relax(ex, by_host):
    """Sequential reference for one relax sweep.

    Applies every event one at a time in item order (host ascending,
    then block position; an item's finalize before its relaxations) and
    returns the post-state it implies, without touching ``ex``.  The
    finalized columns are written for every item first: the open test
    reads them post-synchronization, plus the position of the cell's
    fire in this sweep.
    """
    A = ex.arena
    delayed = ex.delayed_sync
    cand_d = A.cand_dist.copy()
    cand_s = A.cand_sigma.copy()
    sent = A.sent_d.copy()
    fin_d = A.fin_dist.copy()
    fin_s = A.fin_sigma.copy()
    unsent = set(A.unsent.indices().tolist())
    touched = set()
    ops = [[0, 0, 0] for _ in range(ex.H)]  # vertex, edge, struct
    items = [
        (h, int(A.lut[h, g]), si, d, sg)
        for h in sorted(by_host)
        for g, si, d, sg in by_host[h]
    ]
    fpos = {}
    for j, (_h, a, si, d, sg) in enumerate(items):
        fin_d[a, si] = d
        fin_s[a, si] = sg
        fpos[a, si] = j
    for j, (h, a, si, d, sg) in enumerate(items):
        ops[h][0] += 1
        if delayed:
            ops[h][2] += 1
            # Finalize: the broadcast value supersedes the local
            # candidate and is recorded as already sent.
            if cand_d[a, si] != INF:
                if cand_d[a, si] > d:
                    cand_d[a, si] = d
                    cand_s[a, si] = 0.0
                unsent.add(a)
            sent[a, si] = d
        for w in A.out_targets[A.out_offsets[a]:A.out_offsets[a + 1]].tolist():
            ops[h][1] += 1
            nd = d + 1
            if fin_d[w, si] < nd and fpos.get((w, si), -1) < j:
                continue  # closed: already finalized at a better distance
            if nd < cand_d[w, si]:  # better
                cand_d[w, si] = nd
                cand_s[w, si] = sg
                ops[h][2] += 2 if delayed else 1
            elif nd == cand_d[w, si]:  # equal
                cand_s[w, si] = cand_s[w, si] + sg
                if delayed and sent[w, si] == nd:
                    sent[w, si] = -1
                ops[h][2] += 1
            else:
                continue
            if delayed:
                unsent.add(w)
            else:
                touched.add(w * ex.k + si)
    return {
        "cand_dist": cand_d, "cand_sigma": cand_s, "sent_d": sent,
        "fin_dist": fin_d, "fin_sigma": fin_s,
        "unsent": sorted(unsent), "touched": touched, "ops": ops,
    }


def assert_sweep_matches_replay(ex, by_host):
    """Run one relax sweep and compare it with :func:`replay_relax`:
    every arena column bit for bit, ``unsent``, ``touched`` and the
    per-host op counts exactly."""
    want = replay_relax(ex, by_host)
    rs = ex.run.new_round("forward")
    deliver_all(ex, rs, by_host)
    A = ex.arena
    for name in ("cand_dist", "sent_d", "fin_dist"):
        assert np.array_equal(getattr(A, name), want[name]), name
    for name in ("cand_sigma", "fin_sigma"):
        got = getattr(A, name).view(np.uint64)
        assert np.array_equal(got, want[name].view(np.uint64)), name
    assert (A.fpos == -1).all()
    assert A.unsent.indices().tolist() == want["unsent"]
    got_touched = np.concatenate(ex.touched).tolist() if ex.touched else []
    assert set(got_touched) == want["touched"]
    ops = [[c.vertex_ops, c.edge_ops, c.struct_ops] for c in rs.compute]
    assert ops == want["ops"]


#: Path counts: small ones, and ones past 2⁵³ where float64 addition
#: stops being associative, so a wrong fold order changes the bits.
SIGMAS = st.one_of(
    st.integers(1, 6).map(float),
    st.sampled_from([2.0**53, 2.0**53 + 2, 3.0 * 2**60, 1e17, 3e36]),
)


class TestRelaxRules:
    """The forward relax sweep against a sequential per-event replay."""

    # 0, 1 and 3 all relax into 2; 2 relaxes into 4.
    EDGES = [(0, 2), (1, 2), (3, 2), (2, 4)]

    def _executor(self, delayed, cand=None, sent=None):
        ex = make_executor(from_edges(5, self.EDGES), [0], H=1, delayed=delayed)
        for gid, (d, sigma) in (cand or {}).items():
            set_candidate(ex, gid, 0, d, sigma)
        for gid, sd in (sent or {}).items():
            ex.arena.sent_d[row(ex, gid), 0] = sd
        return ex

    @pytest.mark.parametrize("delayed", [True, False])
    def test_mixed_distances_into_one_cell(self, delayed):
        ex = self._executor(delayed)
        items = [(0, 0, 3, 2.0), (1, 0, 1, 3.0), (3, 0, 1, 5.0)]
        assert_sweep_matches_replay(ex, {0: items})
        r = row(ex, 2)
        assert ex.arena.cand_dist[r, 0] == 2
        assert ex.arena.cand_sigma[r, 0] == 8.0
        # better (4 < INF), better (2 < 4), equal.
        assert ex.run.rounds[-1].compute[0].struct_ops == (
            3 + 2 * 2 + 1 if delayed else 2 + 1
        )

    def test_finalize_between_relaxations(self):
        ex = self._executor(True)
        # Item 0 relaxes 2 before item 1 finalizes it; item 2 relaxes
        # it again at the finalized distance.
        items = [(0, 0, 1, 1.0), (2, 0, 2, 7.0), (1, 0, 1, 2.0)]
        assert_sweep_matches_replay(ex, {0: items})
        r = row(ex, 2)
        assert ex.arena.cand_dist[r, 0] == 2
        assert ex.arena.cand_sigma[r, 0] == 3.0
        assert ex.arena.sent_d[r, 0] == -1  # σ grew after the finalize

    def test_finalize_after_equal_keeps_sent(self):
        # An equal relaxation at the cell's own distance, then the
        # cell's finalize: the finalize records the label as sent.
        ex = self._executor(True, cand={2: (2, 5.0)})
        assert_sweep_matches_replay(ex, {0: [(0, 0, 1, 1.0), (2, 0, 2, 7.0)]})
        r = row(ex, 2)
        assert ex.arena.sent_d[r, 0] == 2
        assert ex.arena.cand_sigma[r, 0] == 6.0

    def test_finalize_lowers_candidate_then_equal(self):
        ex = self._executor(True, cand={2: (4, 9.0)})
        items = [(2, 0, 2, 7.0), (0, 0, 1, 1.0), (1, 0, 3, 2.0)]
        assert_sweep_matches_replay(ex, {0: items})
        r = row(ex, 2)
        assert ex.arena.cand_dist[r, 0] == 2
        assert ex.arena.cand_sigma[r, 0] == 1.0

    @pytest.mark.parametrize("delayed", [True, False])
    def test_equal_at_sent_distance_clears_sent(self, delayed):
        ex = self._executor(delayed, cand={2: (2, 5.0)}, sent={2: 2})
        assert_sweep_matches_replay(ex, {0: [(0, 0, 1, 1.0), (1, 0, 1, 1.0)]})
        r = row(ex, 2)
        assert ex.arena.sent_d[r, 0] == (-1 if delayed else 2)
        assert ex.arena.cand_sigma[r, 0] == 7.0

    @pytest.mark.parametrize("delayed", [True, False])
    def test_sigma_fold_in_item_order_past_2_53(self, delayed):
        # (2⁵³ + 1) + 1 rounds to 2⁵³ twice; 1 + 1 + 2⁵³ would not.
        ex = self._executor(delayed)
        items = [(0, 0, 1, 2.0**53), (1, 0, 1, 1.0), (3, 0, 1, 1.0)]
        assert_sweep_matches_replay(ex, {0: items})
        assert ex.arena.cand_sigma[row(ex, 2), 0] == 2.0**53

    @given(data=st.data())
    @settings(deadline=None)
    def test_matches_sequential_replay(self, data):
        n = data.draw(st.integers(3, 7), label="n")
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1, max_size=3 * n,
        ), label="edges")
        H = data.draw(st.integers(1, 2), label="H")
        k = data.draw(st.integers(1, 3), label="k")
        delayed = data.draw(st.booleans(), label="delayed")
        ex = make_executor(from_edges(n, edges), list(range(k)), H=H, delayed=delayed)
        A = ex.arena
        cells = A.total * k
        dists = st.sampled_from([INF, 1, 2, 3, 4, 5])
        A.cand_dist[:] = np.reshape(data.draw(st.lists(
            dists, min_size=cells, max_size=cells), label="cand_dist"), A.cand_dist.shape)
        A.cand_sigma[:] = np.reshape(data.draw(st.lists(
            SIGMAS, min_size=cells, max_size=cells), label="cand_sigma"), A.cand_sigma.shape)
        # sent_d: unsent (-1), the candidate's own distance, or another.
        sent_kind = np.reshape(data.draw(st.lists(
            st.integers(0, 2), min_size=cells, max_size=cells), label="sent"), A.sent_d.shape)
        A.sent_d[:] = np.where(
            sent_kind == 0, -1,
            np.where((sent_kind == 1) & (A.cand_dist != INF), A.cand_dist, 3),
        )
        A.unsent.set_many(np.array(data.draw(st.lists(
            st.integers(0, A.total - 1), max_size=A.total), label="unsent"), dtype=np.int64))
        # One or two sweeps: the second sees the first's finalized rows.
        for _sweep in range(data.draw(st.integers(1, 2), label="sweeps")):
            by_host = {}
            for h in range(H):
                proxies = np.nonzero(A.lut[h] >= 0)[0].tolist()
                if not proxies:
                    continue
                by_host[h] = data.draw(st.lists(st.tuples(
                    st.sampled_from(proxies), st.integers(0, k - 1),
                    st.integers(0, 4), SIGMAS,
                ), max_size=8), label=f"items[{h}]")
            ex.touched = []
            assert_sweep_matches_replay(ex, by_host)


class TestDelayedStaging:
    def test_stages_only_due_pairs(self):
        g = gen.path_graph(4, bidirectional=False)
        ex = make_executor(g, [0, 1], H=1)
        set_candidate(ex, 2, 0, 1, 1.0)
        set_candidate(ex, 2, 1, 3, 2.0)
        rs = ex.run.new_round("forward")
        # Round 1: (1,0) at position 1 → due round 2 → staged (arrives at
        # its due round); (3,1) at position 2 → due 5 → not staged.
        assert stage(ex, 1, rs) == [(2, 0, 1, 1.0)]
        assert ex.arena.sent_d[row(ex, 2), 0] == 1
        # Round 4: the second pair becomes due.
        assert stage(ex, 4, rs) == [(2, 1, 3, 2.0)]

    def test_no_restaging_once_sent(self):
        g = gen.path_graph(3, bidirectional=False)
        ex = make_executor(g, [0], H=1)
        set_candidate(ex, 1, 0, 1, 1.0)
        rs = ex.run.new_round("forward")
        assert len(stage(ex, 2, rs)) == 1
        assert stage(ex, 3, rs) == []
        assert not ex.arena.unsent.any()  # cleaned up

    def test_sigma_growth_after_send_restages(self):
        g = gen.path_graph(3, bidirectional=False)
        ex = make_executor(g, [0], H=1)
        rs = ex.run.new_round("forward")
        deliver(ex, rs, [(0, 0, 0, 1.0)])  # 1 gets (1, 0) with σ 1
        assert stage(ex, 2, rs) == [(1, 0, 1, 1.0)]
        assert ex.arena.sent_d[row(ex, 1), 0] == 1
        # σ grows at the already-sent distance: the label is re-sent.
        deliver(ex, rs, [(0, 0, 0, 1.0)])
        assert ex.arena.sent_d[row(ex, 1), 0] == -1
        assert stage(ex, 2, rs) == [(1, 0, 1, 2.0)]  # the refreshed σ


def stage_reference(ex, rnd, rs):
    """Delayed-sync staging as the argsort formulation: each pending
    row's candidates ordered by ``argsort`` on ``d·(k+1) + si`` keys,
    then gathered through the order and sliced per host.  Mutates ``ex``
    as ``_stage_delayed`` does and returns ``(blocks, any_work)``, where
    ``blocks`` lists what iterating the staged exchange must yield.
    """
    blocks = [None] * ex.H
    A = ex.arena
    lids = A.unsent.indices()
    if lids.size == 0:
        return blocks, False
    for h, c in enumerate(np.bincount(A.host_of[lids], minlength=ex.H)):
        if c:
            rs.compute[h].struct_ops += int(c)
    pos = np.arange(ex.k, dtype=np.int64)[None, :]
    sub_d = A.cand_dist[lids]
    present = sub_d != INF
    key = np.where(present, sub_d * (ex.k + 1) + pos, BIG)
    order = np.argsort(key, axis=1)
    rix = np.arange(lids.size, dtype=np.int64)[:, None]
    d_sorted = sub_d[rix, order]
    p_sorted = present[rix, order]
    sent_sorted = A.sent_d[lids][rix, order]
    due = p_sorted & (d_sorted + pos <= rnd)
    need = due & (sent_sorted != d_sorted)
    rows, cols = np.nonzero(need)
    if rows.size:
        l_sel = lids[rows]
        si_sel = order[rows, cols]
        d_sel = d_sorted[rows, cols]
        A.sent_d[l_sel, si_sel] = d_sel
        sg_sel = A.cand_sigma[l_sel, si_sel]
        g_sel = A.gids[l_sel]
        bounds = np.searchsorted(l_sel, A.off)
        for h in range(ex.H):
            a, b = int(bounds[h]), int(bounds[h + 1])
            if b > a:
                blocks[h] = ColumnBlock.raw(
                    g_sel[a:b], (si_sel[a:b], d_sel[a:b], sg_sel[a:b])
                )
    remain = p_sorted & ~due & (sent_sorted != d_sorted)
    A.unsent.clear_many(lids[~remain.any(axis=1)])
    return blocks, rows.size > 0 or A.unsent.any()


class TestStageRules:
    """Delayed-sync staging against :func:`stage_reference`."""

    @given(data=st.data())
    @settings(deadline=None)
    def test_matches_argsort_reference(self, data):
        k = data.draw(st.sampled_from([1, 2, 3, 5, 32, 33, 64]), label="k")
        H = data.draw(st.integers(2, 3), label="H")
        n = data.draw(st.integers(3, 9), label="n")
        max_d = data.draw(st.integers(0, 12), label="max_d")
        p_inf = data.draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]), label="p_inf")
        p_pending = data.draw(st.sampled_from([0.2, 0.6, 1.0]), label="p_pending")
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2**32 - 1), label="seed")
        )
        extra = rng.integers(0, n, size=(n, 2))
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(int(u), int(w)) for u, w in extra if u != w]
        g = from_edges(n, edges)
        batch = [si % n for si in range(k)]
        ex, ref = (make_executor(g, batch, H=H) for _ in range(2))
        A = ex.arena
        shape = A.cand_dist.shape
        cand = rng.integers(0, max_d + 1, size=shape)
        cand[rng.random(shape) < p_inf] = INF
        # sent_d: never sent (-1), the candidate's own distance, or another.
        other = rng.integers(0, max_d + 2, size=shape)
        other[other == cand] += 1
        kind = rng.integers(0, 3, size=shape)
        sent = np.where(
            kind == 0, -1, np.where((kind == 1) & (cand != INF), cand, other)
        )
        sigma = rng.integers(1, 2**20, size=shape).astype(np.float64)
        pending = np.nonzero(rng.random(A.total) < p_pending)[0]
        for e in (ex, ref):
            e.arena.cand_dist[:] = cand
            e.arena.cand_sigma[:] = sigma
            e.arena.sent_d[:] = sent
            e.arena.unsent.set_many(pending)
        rnds = sorted(data.draw(st.lists(
            st.integers(0, max_d + k + 1), min_size=1, max_size=3,
        ), label="rounds"))
        for rnd in rnds:
            rs, rs_ref = ex.run.new_round("forward"), ref.run.new_round("forward")
            got, work = ex._stage_delayed(rnd, rs)
            want, want_work = stage_reference(ref, rnd, rs_ref)
            # Per host: (gid, si, d, σ) in staging order.
            assert [b if b is None else b.to_tuples() for b in got] == [
                b if b is None else b.to_tuples() for b in want
            ]
            assert work == want_work
            assert np.array_equal(A.sent_d, ref.arena.sent_d)
            assert np.array_equal(
                A.unsent.indices(), ref.arena.unsent.indices()
            )
            assert [c.struct_ops for c in rs.compute] == [
                c.struct_ops for c in rs_ref.compute
            ]


#: Report σ values: small counts beside 2⁵³ and past it, so a σ* fold
#: in any order but hosts ascending, virtual source last, changes bits.
INBOX_SIGMAS = st.sampled_from([2.0**53, 1.0, 2.0, 2.0**53 + 2, 3.0, 2.0**60])


class DenseInboxReference:
    """The master inbox merge over dense ``(H+1) × k × n`` report tables.

    Host ``h``'s report for cell ``(si, gid)`` sits at ``[h, si, gid]``
    and the virtual source's seed at ``[H, si, gid]``.  Reports apply
    one at a time (a report replaces the sender's previous one unless
    it is worse), and σ* adds the reports at d* in row order — hosts
    ascending, virtual source last — one float addition at a time.
    """

    def __init__(self, k, n, H, batch):
        self.k, self.H = k, H
        self.cd = np.full((H + 1, k, n), INF, dtype=np.int64)
        self.cs = np.zeros((H + 1, k, n))
        self.ent_d = np.full((k, n), INF, dtype=np.int64)
        self.best_sigma = np.zeros((k, n))
        self.fired = np.zeros((k, n), dtype=bool)
        self.order = []
        for si, s in enumerate(batch):
            self._register(s)
            self.cd[H, si, s] = 0
            self.cs[H, si, s] = 1.0
            self.ent_d[si, s] = 0
            self.best_sigma[si, s] = 1.0

    def _register(self, gid):
        if gid not in self.order:
            self.order.append(gid)

    def merge(self, reports):
        """Apply ``(sender, si, gid, d, sigma)`` reports in inbox order."""
        for h, si, gid, d, sg in reports:
            self._register(gid)
            if self.cd[h, si, gid] >= d:
                self.cd[h, si, gid] = d
                self.cs[h, si, gid] = sg
        for si, gid in {(si, gid) for _h, si, gid, _d, _sg in reports}:
            col = self.cd[:, si, gid]
            d_star = col.min()
            sig = 0.0
            for r in range(self.H + 1):
                if col[r] == d_star:
                    sig += float(self.cs[r, si, gid])
            self.ent_d[si, gid] = d_star
            self.best_sigma[si, gid] = sig

    def fire_round_one(self):
        """Round 1 fires each master's head if it sits at distance 0."""
        for gid in self.order:
            due = np.nonzero((self.ent_d[:, gid] == 0) & ~self.fired[:, gid])[0]
            if due.size:
                self.fired[due[0], gid] = True

    def head(self, si_bits):
        act = (self.ent_d != INF) & ~self.fired
        si_col = np.arange(self.k, dtype=np.int64)[:, None]
        return np.where(act, (self.ent_d << si_bits) | si_col, BIG).min(axis=0)

    def unfired(self):
        return ((self.ent_d != INF) & ~self.fired).sum(axis=1)


def dense_reports(M, H):
    """The master's stored reports as ``(H+1) × k × n`` tables in
    :class:`DenseInboxReference`'s layout: host ``h`` at ``[h]``, the
    seed at ``[H]``."""
    A = M.arena
    cd = np.full((H + 1, M.k, M.n), INF, dtype=np.int64)
    cs = np.zeros((H + 1, M.k, M.n))
    at = (A.host_of[:, None], np.arange(M.k), A.gids[:, None])
    cd[at] = M.rep_d
    cs[at] = M.rep_sigma
    si = np.nonzero(M.seed_gid >= 0)[0]
    cd[H, si, M.seed_gid[si]] = M.seed_d[si]
    cs[H, si, M.seed_gid[si]] = M.seed_sigma[si]
    return cd, cs


def reporters(M, gid, si):
    """The hosts whose report of cell ``(si, gid)`` the master holds, in
    the order σ* folds them: hosts ascending, then the seed (−1)."""
    A = M.arena
    rows = A.proxy_rows[A.proxy_off[gid]:A.proxy_off[gid + 1]]
    hosts = A.host_of[rows[M.rep_d[rows, si] != INF]].tolist()
    return hosts + ([-1] if M.seed_gid[si] == gid else [])


class TestInboxRules:
    """``_apply_forward_inbox`` over the per-proxy-row report store
    against :class:`DenseInboxReference`."""

    @given(data=st.data())
    @settings(deadline=None)
    def test_matches_dense_reference(self, data):
        policy = data.draw(st.sampled_from(["cvc", "random"]), label="policy")
        H = data.draw(st.sampled_from([2, 3, 8, 9]), label="H")
        k = data.draw(st.sampled_from([1, 3, 32, 33]), label="k")
        n = data.draw(st.integers(max(k + 1, 6), max(k + 1, 6) + 8), label="n")
        rng = np.random.default_rng(
            data.draw(st.integers(0, 2**32 - 1), label="seed")
        )
        extra = rng.integers(0, n, size=(2 * n, 2))
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(int(u), int(w)) for u, w in extra if u != w]
        # A hub with an in-edge from every vertex: under the random
        # (outgoing edge-cut) policy it has a proxy on nearly every host.
        hub = int(rng.integers(n))
        edges += [(u, hub) for u in range(n) if u != hub]
        g = from_edges(n, edges)
        kw = {"seed": int(rng.integers(2**31))} if policy == "random" else {}
        pg = partition_graph(g, H, policy, **kw)
        batch = np.sort(rng.permutation(n)[:k]).astype(np.int64)
        ex = _ArrayBatchExecutor(
            pg, GluonArrayPlane(pg), EngineRun(num_hosts=H), batch, True
        )
        ref = DenseInboxReference(k, n, H, batch.tolist())
        M = ex.masters
        rs = ex.run.new_round("forward")
        # Few hot cells — a batch source's own cell, the vertices with
        # the most proxy hosts — so stale, equal-distance and
        # repeated-sender reports are common.
        n_proxies = np.diff(pg.vertex_host_csr("proxies")[0])
        hot = sorted({
            int(batch[0]), int(rng.integers(n)),
            *np.argsort(-n_proxies, kind="stable")[:2].tolist(),
        })
        own = {int(s): si for si, s in enumerate(batch)}
        for step in range(data.draw(st.integers(1, 3), label="inboxes")):
            # Round 1 fires the distance-0 heads after the first inbox;
            # later reports keep d >= 1, so no fired entry changes.
            lo = 0 if step == 0 else 1
            reports = []
            for _ in range(data.draw(st.integers(1, 16), label="reports")):
                gid = data.draw(st.sampled_from(hot), label="gid")
                h = data.draw(st.sampled_from(
                    pg.hosts_with_proxy(gid).tolist()), label="sender")
                si = data.draw(st.sampled_from(
                    sorted({0, k - 1, own.get(gid, 0)})), label="si")
                for _rep in range(data.draw(st.integers(1, 2), label="times")):
                    reports.append((h, si, gid, data.draw(
                        st.integers(lo, lo + 1), label="d"),
                        data.draw(INBOX_SIGMAS, label="sigma")))
            if data.draw(st.booleans(), label="fan-in"):
                # Every proxy host reports one cell at one distance, in
                # a drawn order: a σ* fold over many hosts.  Skewed, the
                # lowest host sends 2⁵³ and the others 1, so only the
                # in-order fold gives 2⁵³.
                gid = data.draw(st.sampled_from(hot), label="fan gid")
                proxies = pg.hosts_with_proxy(gid).tolist()
                if data.draw(st.booleans(), label="skewed"):
                    sigmas = [2.0**53] + [1.0] * (len(proxies) - 1)
                else:
                    sigmas = [data.draw(INBOX_SIGMAS, label="fan sigma")
                              for _h in proxies]
                reports += [
                    (h, own.get(gid, 0), gid, lo, sigmas[proxies.index(h)])
                    for h in data.draw(st.permutations(proxies), label="order")
                ]
            # The inbox holds one part per master host; reports reach
            # the merge in master-host order, drawn order within.
            parts = []
            ordered = []
            for mh in range(H):
                mine = [r for r in reports if pg.master_of[r[2]] == mh]
                parts.append([(gid, h, si, d, sg) for h, si, gid, d, sg in mine])
                ordered += mine
            ex._apply_forward_inbox(
                Exchange.from_parts(parts, (np.int64, np.int64, np.int64, np.float64)),
                rs,
            )
            ref.merge(ordered)
            if step == 0:
                ex._emit_fires(1, rs)
                ref.fire_round_one()
            assert np.array_equal(M.ent_d, ref.ent_d)
            assert np.array_equal(
                M.best_sigma.view(np.int64), ref.best_sigma.view(np.int64)
            )
            assert np.array_equal(M.fired, ref.fired)
            assert np.array_equal(M.head, ref.head(M.si_bits))
            assert np.array_equal(M.unfired, ref.unfired())
            assert np.array_equal(M.sent_prefix, ref.fired.sum(axis=0))
            assert np.array_equal(M.tau, ref.fired.astype(np.int64))
            assert M.master_order == ref.order
            cd, cs = dense_reports(M, H)
            assert np.array_equal(cd, ref.cd)
            assert np.array_equal(cs.view(np.int64), ref.cs.view(np.int64))

    def test_sigma_star_folds_hosts_in_order(self):
        # All 10 hosts report vertex 0 at d* = 1, in reverse host order.
        # Folded hosts ascending, σ* = 2⁵³ + 1 + ... + 1 = 2⁵³ (each + 1
        # rounds back to 2⁵³).  A sum that adds the 1s first — reverse
        # order, ``np.add.reduceat``, NumPy's pairwise ``sum`` over ten
        # terms — gives more.
        n, H = 40, 10
        g = from_edges(n, [(i, 0) for i in range(1, n)])
        pg = partition_graph(g, H, "random", seed=0)
        ex = _ArrayBatchExecutor(
            pg, GluonArrayPlane(pg), EngineRun(num_hosts=H),
            np.array([1], dtype=np.int64), True,
        )
        assert pg.hosts_with_proxy(0).tolist() == list(range(H))
        parts: list[list] = [[] for _ in range(H)]
        parts[int(pg.master_of[0])] = [
            (0, h, 0, 1, 2.0**53 if h == 0 else 1.0) for h in reversed(range(H))
        ]
        inbox = Exchange.from_parts(parts, (np.int64, np.int64, np.int64, np.float64))
        ex._apply_forward_inbox(inbox, ex.run.new_round("forward"))
        assert ex.masters.best_sigma[0, 0] == 2.0**53
        assert reporters(ex.masters, 0, 0) == list(range(H))

    def test_sigma_star_folds_hosts_in_order_then_seed(self):
        # A source cell that hosts 1 and 2 also report at distance 0:
        # in order, σ* = (1 + 2⁵³) + 1 = 2⁵³ (the seed's 1 comes last);
        # the seed first would give (1 + 1) + 2⁵³ = 2⁵³ + 2.
        g = gen.path_graph(8, bidirectional=True)
        ex = make_executor(g, [5], H=3)
        assert ex.arena.lut[1, 5] >= 0 and ex.arena.lut[2, 5] >= 0
        parts: list[list] = [[], [], []]
        parts[int(ex.pg.master_of[5])] = [(5, 2, 0, 0, 2.0**53), (5, 1, 0, 0, 1.0)]
        inbox = Exchange.from_parts(parts, (np.int64, np.int64, np.int64, np.float64))
        ex._apply_forward_inbox(inbox, ex.run.new_round("forward"))
        assert ex.masters.best_sigma[0, 5] == 2.0**53
        assert reporters(ex.masters, 5, 0) == [1, 2, -1]


class TestOneLiveBatch:
    """``mrbc_engine`` banks a batch before building the next one, so no
    earlier batch's executor is alive when a later batch allocates."""

    def _run(self, monkeypatch, **kw):
        built = []
        alive = []
        init = _ArrayBatchExecutor.__init__

        def tracked_init(self, pg, gluon, run, batch, *args, **kwargs):
            gc.collect()
            key = tuple(batch.tolist())
            alive.append([b for b, ref in built if b != key and ref() is not None])
            init(self, pg, gluon, run, batch, *args, **kwargs)
            built.append((key, weakref.ref(self)))

        monkeypatch.setattr(_ArrayBatchExecutor, "__init__", tracked_init)
        res = mrbc_engine(
            gen.from_spec("er:40:3", seed=7), sources=list(range(9)),
            batch_size=3, num_hosts=3, **kw,
        )
        assert len({b for b, _ref in built}) == 3
        assert alive and not any(alive), alive
        gc.collect()
        assert all(ref() is None for _b, ref in built)
        return res

    def test_fault_free(self, monkeypatch):
        res = self._run(monkeypatch)
        assert res.partial is None

    def test_degrading_policy_drops_a_batch(self, monkeypatch):
        plan = FaultPlan(
            name="crash@3", seed=7,
            specs=(FaultSpec(kind="crash", host=1, round=3),),
        )
        res = self._run(
            monkeypatch,
            resilience=ResilienceContext(plan=plan, mode="repair"),
            recovery_policy="failfast",
        )
        assert res.partial is not None
        assert 0.0 < res.partial.coverage < 1.0


class TestBackwardScheduling:
    def test_fire_rounds_reverse_taus(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        ex = make_executor(g, [0], H=1)
        ex.run_forward()
        M = ex.masters
        taus = {gid: int(M.tau[0, gid]) for gid in M.master_order}
        ex.run_backward()
        # Vertex 2 (latest forward τ) fires earliest backward; the source
        # never fires.  δ values are the exact Brandes dependencies.
        assert taus[2] > taus[1] > taus[0]
        assert np.isclose(ex.delta[0, 1], 1.0)  # 1 lies on the 0→2 path
        assert np.isclose(ex.delta[0, 0], 2.0)  # source dependency

    def test_bc_excludes_source(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        res = mrbc_engine(g, sources=[0], batch_size=1, num_hosts=1)
        assert res.bc.tolist() == [0.0, 1.0, 0.0]


class TestEagerVsDelayedEquivalence:
    @pytest.mark.parametrize("H", [1, 3])
    def test_identical_results(self, H):
        g = gen.erdos_renyi(35, 3.0, seed=71)
        srcs = [0, 5, 9, 20]
        pg = partition_graph(g, H, "cvc")
        a = mrbc_engine(g, sources=srcs, batch_size=4, partition=pg,
                        delayed_sync=True)
        b = mrbc_engine(g, sources=srcs, batch_size=4, partition=pg,
                        delayed_sync=False)
        ref = brandes_bc(g, sources=srcs)
        assert np.allclose(a.bc, ref)
        assert np.allclose(b.bc, ref)
        assert np.array_equal(a.dist, b.dist)
        assert np.allclose(a.sigma, b.sigma)
        # Same round schedule — the optimization changes traffic only.
        assert a.forward_rounds == b.forward_rounds


def assert_heads_decode(M):
    """Each maintained ``head`` decodes by shifts to the lexicographic
    minimum ``(d, si)`` over its master's unfired present cells."""
    mask = (1 << M.si_bits) - 1
    for gid in range(M.n):
        live = [
            (int(M.ent_d[si, gid]), si) for si in range(M.k)
            if M.ent_d[si, gid] != INF and not M.fired[si, gid]
        ]
        key = int(M.head[gid])
        if live:
            assert (key >> M.si_bits, key & mask) == min(live), gid
        else:
            assert key == BIG, gid


def assert_schedule_current(M):
    head, unfired = dense_schedule(M)
    assert np.array_equal(M.head, head)
    assert np.array_equal(M.unfired, unfired)
    # The checkpoint restore path: the same derived state from the
    # state columns alone.
    rebuilt = MasterColumns(M.k, M.n, M.arena)
    for name in M.STATE:
        getattr(rebuilt, name)[...] = getattr(M, name)
    rebuilt.rebuild_derived()
    assert rebuilt.master_order == M.master_order
    assert np.array_equal(rebuilt.head, head)
    assert np.array_equal(rebuilt.unfired, unfired)


def dense_bucket(ex, R, rnd):
    """Round ``rnd``'s backward firing set as a k × n scan selects it."""
    M = ex.masters
    src_self = np.zeros((ex.k, ex.n), dtype=bool)
    src_self[np.arange(ex.k), ex.batch] = True
    si, g = np.nonzero(M.fired & ~src_self & (M.tau == R - rnd + 1))
    order = M.order_by_seq(g)
    return si[order], g[order]


class TestMaintainedSchedule:
    """``MasterColumns.head``/``unfired``, the backward buckets and the
    ledger's stage fields equal their dense k × n definitions."""

    def _run(self, monkeypatch, g, check=None, **kw):
        dense_rows = []
        scalar_merges = []
        emit = _ArrayBatchExecutor._emit_fires
        schedule = _ArrayBatchExecutor._backward_schedule
        scalar = _ArrayBatchExecutor._apply_contribution_scalar

        def checked_emit(self, rnd, rs):
            assert_schedule_current(self.masters)
            out = emit(self, rnd, rs)
            M = self.masters
            assert_schedule_current(M)
            if check is not None:
                check(M)
            present = M.ent_d != INF
            dense_rows.append((
                int(np.count_nonzero((present & ~M.fired).any(axis=1))),
                int(present.sum()),
                int(M.fired.sum()),
            ))
            return out

        def checked_schedule(self):
            R, bucket = schedule(self)
            for rnd in range(1, R + 2):
                si, gids = bucket(rnd)
                want_si, want_g = dense_bucket(self, R, rnd)
                assert np.array_equal(si, want_si)
                assert np.array_equal(gids, want_g)
            return R, bucket

        def counted_scalar(self, *args):
            scalar_merges.append(args)
            return scalar(self, *args)

        monkeypatch.setattr(_ArrayBatchExecutor, "_emit_fires", checked_emit)
        monkeypatch.setattr(
            _ArrayBatchExecutor, "_backward_schedule", checked_schedule
        )
        monkeypatch.setattr(
            _ArrayBatchExecutor, "_apply_contribution_scalar", counted_scalar
        )
        led = RoundLedger()
        with obs.session(rounds=led):
            res = mrbc_engine(g, **kw)
        noted = [
            (r.active_sources, r.stage_entries, r.stage_fired)
            for u in led.units() if u.phase == "forward"
            for r in u.rounds
        ]
        assert noted == dense_rows
        return res, scalar_merges

    @pytest.mark.parametrize("H", [1, 3])
    @pytest.mark.parametrize("delayed", [True, False])
    @pytest.mark.parametrize("spec", ["er:60:3", "webcrawl:120:80", "grid:8:8"])
    def test_matches_dense_recount(self, monkeypatch, spec, delayed, H):
        g = gen.from_spec(spec, seed=7)
        res, _merges = self._run(
            monkeypatch, g, num_sources=8, batch_size=4, num_hosts=H,
            delayed_sync=delayed, seed=7,
        )
        ref = brandes_bc(g, sources=res.sources.tolist())
        assert np.allclose(res.bc, ref)

    @pytest.mark.parametrize("k", [1, 3, 33])
    def test_heads_decode_at_batch_width(self, monkeypatch, k):
        g = gen.from_spec("er:60:3", seed=7)
        decoded = []

        def check(M):
            assert M.k == k
            assert_heads_decode(M)
            decoded.append(M.k)

        # Two full batches of width k (one at k = 33).
        res, _merges = self._run(
            monkeypatch, g, sources=list(range(min(2 * k, 33))),
            batch_size=k, num_hosts=3, check=check,
        )
        assert decoded
        assert np.allclose(res.bc, brandes_bc(g, sources=res.sources.tolist()))

    def test_matches_dense_recount_under_duplicate_plan(self, monkeypatch):
        # Guard off, so duplicated reduce items reach the master inbox.
        g = gen.from_spec("er:60:3", seed=7)
        ctx = ResilienceContext(plan=get_plan("duplicate"), mode="off")
        _res, merges = self._run(
            monkeypatch, g, sources=list(range(12)), batch_size=4,
            num_hosts=4, resilience=ctx,
        )
        assert merges  # duplicate-keyed inbox items took the scalar path


def test_guard_off_duplicate_plan_completes():
    # Guard off: duplicated fires reach the relax sweep, so two items
    # finalize the same cell.  Unguarded faults may give a wrong BC;
    # the run must still complete.
    ctx = ResilienceContext(mode="off", plan=get_plan("duplicate"))
    res = mrbc_engine(
        gen.from_spec("er:60:3"), sources=range(12), batch_size=4,
        num_hosts=3, resilience=ctx,
    )
    assert np.isfinite(res.bc).all()
