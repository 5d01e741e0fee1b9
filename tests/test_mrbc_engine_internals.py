"""White-box tests for the MRBC engine executor internals:
local-list maintenance, delayed-sync staging, and backward scheduling."""

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.core.mrbc import INF, _ArrayBatchExecutor, mrbc_engine
from repro.engine.partition import partition_graph
from repro.engine.stats import EngineRun
from repro.graph import generators as gen
from repro.graph.builders import from_edges
from repro.runtime.arrays import ColumnBlock
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
