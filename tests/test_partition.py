"""Tests for repro.engine.partition: every policy must satisfy the
Gluon partitioning invariants (paper §4.1)."""

import numpy as np
import pytest

from repro.engine.partition import (
    cartesian_vertex_cut,
    edge_cut_incoming,
    edge_cut_outgoing,
    partition_graph,
    random_edge_cut,
)
from repro.graph import generators as gen

POLICIES = ["oec", "iec", "cvc", "random"]


@pytest.fixture(scope="module")
def graph():
    return gen.erdos_renyi(80, 4.0, seed=31)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("H", [1, 2, 4, 6])
class TestInvariants:
    def test_every_edge_on_exactly_one_host(self, graph, policy, H):
        pg = partition_graph(graph, H, policy)
        total = sum(p.num_edges for p in pg.parts)
        assert total == graph.num_edges
        # And the union of host edge sets is the global edge set.
        edges = set()
        for p in pg.parts:
            for lid in range(p.num_local):
                for t in p.out_neighbors_local(lid):
                    e = (int(p.gids[lid]), int(p.gids[t]))
                    assert e not in edges, "edge duplicated across hosts"
                    edges.add(e)
        src, dst = graph.edges()
        assert edges == set(zip(src.tolist(), dst.tolist()))

    def test_every_vertex_has_exactly_one_master(self, graph, policy, H):
        pg = partition_graph(graph, H, policy)
        owners = np.zeros(graph.num_vertices, dtype=np.int64)
        for p in pg.parts:
            owners[p.gids[p.is_master]] += 1
        assert (owners == 1).all()
        for p in pg.parts:
            assert (pg.master_of[p.gids[p.is_master]] == p.host).all()

    def test_proxies_cover_local_edges(self, graph, policy, H):
        pg = partition_graph(graph, H, policy)
        for p in pg.parts:
            assert (p.out_offsets[-1]) == p.num_edges
            assert (p.in_offsets[-1]) == p.num_edges
            # gids sorted and unique
            assert (np.diff(p.gids) > 0).all()

    def test_local_csr_csc_agree(self, graph, policy, H):
        pg = partition_graph(graph, H, policy)
        for p in pg.parts:
            out_e = {
                (lid, int(t))
                for lid in range(p.num_local)
                for t in p.out_neighbors_local(lid)
            }
            in_e = {
                (int(u), lid)
                for lid in range(p.num_local)
                for u in p.in_neighbors_local(lid)
            }
            assert out_e == in_e

    def test_host_topology_queries(self, graph, policy, H):
        pg = partition_graph(graph, H, policy)
        # hosts_with_out_edges(v) = hosts where v has local out-degree > 0.
        for v in range(0, graph.num_vertices, 7):
            expect_out = set()
            expect_in = set()
            expect_proxy = set()
            for p in pg.parts:
                idx = np.searchsorted(p.gids, v)
                if idx < p.num_local and p.gids[idx] == v:
                    expect_proxy.add(p.host)
                    if p.out_offsets[idx + 1] > p.out_offsets[idx]:
                        expect_out.add(p.host)
                    if p.in_offsets[idx + 1] > p.in_offsets[idx]:
                        expect_in.add(p.host)
            assert set(pg.hosts_with_out_edges(v).tolist()) == expect_out
            assert set(pg.hosts_with_in_edges(v).tolist()) == expect_in
            assert set(pg.hosts_with_proxy(v).tolist()) == expect_proxy
            assert int(pg.master_of[v]) in expect_proxy


class TestPolicySpecifics:
    def test_oec_keeps_out_edges_with_master(self, graph):
        pg = edge_cut_outgoing(graph, 4)
        src, dst = graph.edges()
        for p in pg.parts:
            for lid in np.nonzero(np.diff(p.out_offsets) > 0)[0]:
                assert pg.master_of[p.gids[lid]] == p.host

    def test_iec_keeps_in_edges_with_master(self, graph):
        pg = edge_cut_incoming(graph, 4)
        for p in pg.parts:
            for lid in np.nonzero(np.diff(p.in_offsets) > 0)[0]:
                assert pg.master_of[p.gids[lid]] == p.host

    def test_cvc_row_column_confinement(self, graph):
        """A vertex's out-edge hosts lie in one grid row; in-edge hosts in
        one grid column — the CVC communication-bounding property."""
        H = 4
        pg = cartesian_vertex_cut(graph, H)
        pr, pc = 2, 2
        for v in range(graph.num_vertices):
            out_hosts = pg.hosts_with_out_edges(v)
            if out_hosts.size:
                assert len({int(h) // pc for h in out_hosts}) == 1
            in_hosts = pg.hosts_with_in_edges(v)
            if in_hosts.size:
                assert len({int(h) % pc for h in in_hosts}) == 1

    def test_single_host_has_everything(self, graph):
        pg = partition_graph(graph, 1, "cvc")
        assert pg.parts[0].num_edges == graph.num_edges
        assert pg.parts[0].num_local == graph.num_vertices
        assert pg.shared_proxies.shape == (1, 1)

    def test_random_deterministic_by_seed(self, graph):
        a = random_edge_cut(graph, 4, seed=1)
        b = random_edge_cut(graph, 4, seed=1)
        assert np.array_equal(a.master_of, b.master_of)

    def test_masters_balanced(self, graph):
        pg = partition_graph(graph, 4, "oec")
        weights = graph.out_degrees() + graph.in_degrees() + 1
        per_host = np.zeros(4)
        for v in range(graph.num_vertices):
            per_host[pg.master_of[v]] += weights[v]
        assert per_host.max() < 2.0 * per_host.mean()

    def test_unknown_policy_rejected(self, graph):
        with pytest.raises(ValueError):
            partition_graph(graph, 2, "nope")

    def test_bad_host_count_rejected(self, graph):
        with pytest.raises(ValueError):
            partition_graph(graph, 0, "oec")

    def test_shared_proxies_symmetric(self, graph):
        pg = partition_graph(graph, 4, "cvc")
        assert np.array_equal(pg.shared_proxies, pg.shared_proxies.T)
        assert (np.diag(pg.shared_proxies) == 0).all()

    def test_lids_of_roundtrip(self, graph):
        pg = partition_graph(graph, 3, "oec")
        p = pg.parts[0]
        sample = p.gids[:: max(1, p.num_local // 5)]
        assert np.array_equal(p.gids[p.lids_of(sample)], sample)
        with pytest.raises(KeyError):
            # A gid guaranteed absent: construct one not in gids.
            missing = np.setdiff1d(
                np.arange(graph.num_vertices), p.gids
            )
            if missing.size == 0:
                raise KeyError("all vertices present (trivially fine)")
            p.lids_of(missing[:1])


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("H", [0, -2])
def test_host_count_below_one_rejected(graph, policy, H):
    # CVC used to raise ZeroDivisionError (0) or a NaN conversion error
    # (-2) from its grid factorization before any host check ran.
    with pytest.raises(ValueError, match=f"need at least one host, got {H}"):
        partition_graph(graph, H, policy)
