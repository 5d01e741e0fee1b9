"""White-box tests for the MRBC engine executor internals:
local-list maintenance, delayed-sync staging, backward scheduling, and
the incrementally maintained send schedule."""

import numpy as np
import pytest

from repro import obs
from repro.baselines.brandes import brandes_bc
from repro.core.mrbc import INF, _ArrayBatchExecutor, mrbc_engine
from repro.engine.partition import partition_graph
from repro.engine.stats import EngineRun
from repro.graph import generators as gen
from repro.graph.builders import from_edges
from repro.obs.rounds import RoundLedger
from repro.resilience.context import ResilienceContext
from repro.resilience.plan import get_plan
from repro.runtime.arrays import ColumnBlock, MasterColumns
from repro.runtime.plane import GluonArrayPlane


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
    blocks = [None] * ex.H
    blocks[h] = ColumnBlock.from_tuples(items, (np.int64, np.int64, np.float64))
    ex._relax_forward(blocks, rs)


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


def dense_schedule(M):
    """The maintained schedule state, recounted from the dense columns."""
    unfired = ((M.ent_d != INF) & ~M.fired).sum(axis=1)
    return M.schedule_key().min(axis=0), unfired


def assert_schedule_current(M):
    head, unfired = dense_schedule(M)
    assert np.array_equal(M.head, head)
    assert np.array_equal(M.unfired, unfired)
    rebuilt = MasterColumns(M.k, M.n, M.H)
    rebuilt.from_rows(M.to_rows())
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

    def _run(self, monkeypatch, g, **kw):
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

    def test_matches_dense_recount_under_duplicate_plan(self, monkeypatch):
        # Guard off, so duplicated reduce items reach the master inbox.
        g = gen.from_spec("er:60:3", seed=7)
        ctx = ResilienceContext(plan=get_plan("duplicate"), mode="off")
        _res, merges = self._run(
            monkeypatch, g, sources=list(range(12)), batch_size=4,
            num_hosts=4, resilience=ctx,
        )
        assert merges  # duplicate-keyed inbox items took the scalar path
