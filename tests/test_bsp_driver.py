"""Tests for the generic BSP driver and the weighted SSSP reference
algorithm built on it."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.engine.bsp import BSPAlgorithm, _SSSP, run_bsp, sssp_engine
from repro.engine.partition import partition_graph
from repro.graph import generators as gen
from repro.graph.weighted import with_random_weights, with_unit_weights


def scipy_dijkstra(wg, source):
    g = wg.graph
    src, dst = g.edges()
    A = sp.csr_matrix((wg.weights, (src, dst)), shape=(g.num_vertices,) * 2)
    return csgraph.dijkstra(A, indices=[source])[0]


class TestSSSPEngine:
    @pytest.mark.parametrize("H", [1, 4])
    def test_matches_scipy(self, H):
        g = gen.erdos_renyi(50, 3.5, seed=61)
        wg = with_random_weights(g, 1, 7, integer=True, seed=62)
        dist, res = sssp_engine(wg, source=0, num_hosts=H)
        assert np.allclose(dist, scipy_dijkstra(wg, 0))
        assert res.rounds > 0
        assert res.run.num_rounds == res.rounds

    @pytest.mark.parametrize("H", [4, 8])
    @pytest.mark.parametrize("seed", [61, 1, 2, 3])
    def test_fires_name_each_vertex_once(self, H, seed, monkeypatch):
        """A vertex that several senders improve in one round is fired
        once, with its final distance (Gluon keeps one label per proxy),
        and the distances still match Dijkstra's."""
        g = gen.erdos_renyi(50, 3.5, seed=seed)
        wg = with_random_weights(g, 1, 7, integer=True, seed=62)
        rounds = []
        orig = _SSSP.master_update

        def spy(self, inbox, oc_by_host):
            fires = orig(self, inbox, oc_by_host)
            reported = [gid for gid, _sender, _d in inbox]
            rounds.append((reported, fires, self.master_dist.copy()))
            return fires

        monkeypatch.setattr(_SSSP, "master_update", spy)
        dist, _ = sssp_engine(wg, source=0, num_hosts=H)
        assert np.allclose(dist, scipy_dijkstra(wg, 0))
        for _reported, fires, master_dist in rounds:
            gids = [gid for gid, _d in fires]
            assert len(set(gids)) == len(gids)
            assert all(d == master_dist[gid] for gid, d in fires)
        # Not vacuous: some fired vertex was reported by several senders.
        assert any(
            reported.count(gid) > 1
            for reported, fires, _ in rounds
            for gid, _d in fires
        )

    def test_unit_weights_match_bfs(self):
        from repro.graph.properties import bfs_distances

        g = gen.grid_road(6, 6, seed=63)
        wg = with_unit_weights(g)
        dist, _ = sssp_engine(wg, source=0, num_hosts=2)
        ref = bfs_distances(g, 0).astype(float)
        ref[ref < 0] = np.inf
        assert np.array_equal(dist, ref)

    def test_unreachable_inf(self):
        from repro.graph.builders import from_edges
        from repro.graph.weighted import with_unit_weights as uw

        g = from_edges(4, [(0, 1), (2, 3)])
        dist, _ = sssp_engine(uw(g), source=0, num_hosts=2)
        assert dist[1] == 1.0
        assert np.isinf(dist[2]) and np.isinf(dist[3])

    def test_source_validation(self):
        g = gen.cycle_graph(4)
        with pytest.raises(ValueError):
            sssp_engine(with_unit_weights(g), source=9)

    def test_rounds_bounded_by_hop_depth(self):
        """Synchronous Bellman-Ford settles within (hops of the weighted
        shortest-path tree) + 1 rounds."""
        g = gen.path_graph(30, bidirectional=False)
        wg = with_random_weights(g, 1, 3, integer=True, seed=64)
        dist, res = sssp_engine(wg, source=0, num_hosts=2)
        assert res.rounds <= 31


class TestCustomAlgorithm:
    def test_minimal_echo_program(self):
        """A toy program through the driver: flood a token's hop count —
        exercises the full broadcast/compute/reduce/update cycle."""
        g = gen.cycle_graph(8)
        pg = partition_graph(g, 2, "cvc")

        class Flood(BSPAlgorithm):
            phase = "flood"

            def __init__(self):
                self.value = np.full(8, -1, dtype=np.int64)
                self.value[0] = 0

            def initial_fires(self):
                return [(0, 0)]

            def host_compute(self, host, part, deliveries, oc):
                staged = []
                for gid, hops in deliveries:
                    lid = int(np.searchsorted(part.gids, gid))
                    for t in part.out_neighbors_local(lid):
                        staged.append((int(part.gids[t]), hops + 1))
                        oc.edge_ops += 1
                return staged

            def master_update(self, inbox, oc_by_host):
                fires = []
                for gid, _sender, hops in inbox:
                    if self.value[gid] == -1:
                        self.value[gid] = hops
                        fires.append((gid, hops))
                return fires

        algo = Flood()
        res = run_bsp(pg, algo)
        assert algo.value.tolist() == list(range(8))
        assert res.rounds == 8
        assert res.run.total_bytes > 0

    def test_max_rounds_guard(self):
        """A program that always fires is cut off at max_rounds."""
        g = gen.cycle_graph(4)
        pg = partition_graph(g, 2, "cvc")

        class Forever(BSPAlgorithm):
            def initial_fires(self):
                return [(0, 0)]

            def host_compute(self, host, part, deliveries, oc):
                return [(0, 0)] if deliveries else []

            def master_update(self, inbox, oc_by_host):
                return [(0, 0)] if inbox else [(0, 0)]

        res = run_bsp(pg, Forever(), max_rounds=17)
        assert res.rounds == 17
