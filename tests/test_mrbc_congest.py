"""End-to-end tests for MRBC in the CONGEST model (Algorithms 3+4+5)."""

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc, brandes_dependencies
from repro.core.mrbc_congest import directed_apsp, mrbc_congest, mrbc_congest_batched
from repro.graph import generators as gen
from tests.conftest import some_sources


class TestBCCorrectness:
    @pytest.mark.parametrize(
        "fixture",
        [
            "tiny_dag",
            "diamond",
            "bipath",
            "dicycle",
            "er_graph",
            "powerlaw_graph",
            "road_graph",
            "webcrawl_graph",
            "disconnected_graph",
        ],
    )
    def test_exact_bc_matches_brandes(self, fixture, request):
        g = request.getfixturevalue(fixture)
        res = mrbc_congest(g)
        assert np.allclose(res.bc, brandes_bc(g)), fixture

    @pytest.mark.parametrize("fixture", ["er_graph", "road_graph", "webcrawl_graph"])
    def test_sampled_bc_matches_brandes(self, fixture, request):
        g = request.getfixturevalue(fixture)
        srcs = some_sources(g)
        res = mrbc_congest(g, sources=srcs)
        assert np.allclose(res.bc, brandes_bc(g, sources=srcs))

    def test_single_source(self, er_graph):
        res = mrbc_congest(er_graph, sources=[3])
        assert np.allclose(res.bc, brandes_bc(er_graph, sources=[3]))

    def test_finalizer_path_gives_same_bc(self, er_dense_sc):
        a = mrbc_congest(er_dense_sc, use_finalizer=True)
        b = mrbc_congest(er_dense_sc, use_finalizer=False)
        assert np.allclose(a.bc, b.bc)

    def test_diamond_dependencies(self, diamond):
        """Hand-checked: from source 0, δ(1) = δ(2) = 1/2 (σ03 = 2), and
        δ(0) = (1 + δ(1)) + (1 + δ(2)) = 3 (source dependency, excluded
        from BC)."""
        res = mrbc_congest(diamond, sources=[0])
        assert res.delta[0].tolist() == [3.0, 0.5, 0.5, 0.0]
        assert res.bc.tolist() == [0.0, 0.5, 0.5, 0.0]

    def test_per_source_delta_matches_brandes(self, er_graph):
        srcs = some_sources(er_graph, 4)
        res = mrbc_congest(er_graph, sources=srcs)
        for i, s in enumerate(srcs):
            _, _, delta = brandes_dependencies(er_graph, s)
            got = res.delta[i].copy()
            # Brandes keeps δ at the source; ours accumulates it too.
            assert np.allclose(got, delta), f"source {s}"


class TestTheoremBounds:
    def test_bc_rounds_at_most_twice_apsp(self, er_graph):
        """Theorem 1 part II: BC ≤ 2× the APSP rounds/messages."""
        res = mrbc_congest(er_graph)
        assert res.backward_rounds <= res.forward_rounds
        assert res.stats_backward.messages <= res.stats_forward.messages + \
            er_graph.num_edges

    def test_kssp_bc_round_bound(self, webcrawl_graph):
        """Lemma 8: 2(k + H) rounds for the full BC computation."""
        g = webcrawl_graph
        srcs = some_sources(g, 4)
        res = mrbc_congest(g, sources=srcs)
        H = int(res.dist.max())
        k = len(srcs)
        assert res.total_rounds <= 2 * (k + H) + 2

    def test_accumulation_messages_bounded_by_dag_edges(self, er_graph):
        """Each v sends one value per source to each DAG predecessor."""
        srcs = some_sources(er_graph, 5)
        res = mrbc_congest(er_graph, sources=srcs)
        assert (
            res.stats_backward.count_for_tag("acc")
            <= er_graph.num_edges * len(srcs)
        )

    def test_total_messages_property(self, er_graph):
        res = mrbc_congest(er_graph, sources=[0, 1])
        assert res.total_messages == (
            res.stats_forward.messages + res.stats_backward.messages
        )


class TestEdgeCases:
    def test_source_with_no_outedges(self):
        g = gen.star_graph(5, out=False)  # leaves point at hub 0
        res = mrbc_congest(g, sources=[1])
        assert np.allclose(res.bc, brandes_bc(g, sources=[1]))

    def test_isolated_source(self):
        from repro.graph.builders import from_edges

        g = from_edges(4, [(1, 2), (2, 3)])
        res = mrbc_congest(g, sources=[0])
        assert np.allclose(res.bc, 0.0)

    def test_two_vertex_graph(self):
        from repro.graph.builders import from_edges

        g = from_edges(2, [(0, 1)])
        res = mrbc_congest(g)
        assert np.allclose(res.bc, 0.0)

    def test_deep_line_graph_distances(self):
        g = gen.path_graph(30, bidirectional=False)
        res = mrbc_congest(g, sources=[0])
        assert res.dist[0].tolist() == list(range(30))
        # Middle vertices are on every 0→j path: BC matches Brandes.
        assert np.allclose(res.bc, brandes_bc(g, sources=[0]))

    @pytest.mark.parametrize(
        "run",
        [
            lambda g, s: directed_apsp(g, sources=s),
            lambda g, s: mrbc_congest(g, sources=s),
            lambda g, s: mrbc_congest_batched(g, s, batch_size=2),
        ],
        ids=["directed_apsp", "mrbc_congest", "batched"],
    )
    @pytest.mark.parametrize(
        "sources,shown",
        [([1.7, 3], r"float64: \[1\.7, 3\.0\]"), ([True, False], r"bool: \[True, False\]")],
        ids=["float", "bool-mask"],
    )
    def test_non_integer_sources_rejected(self, run, sources, shown):
        # An int64 cast used to run vertices 1 and 3 for [1.7, 3], and
        # vertices 1 and 0 for the mask.
        with pytest.raises(ValueError, match=r"must be integers, got " + shown):
            run(gen.from_spec("er:20:3"), sources)

    def test_repeated_sources_rejected(self):
        with pytest.raises(ValueError, match="duplicates"):
            mrbc_congest(gen.from_spec("er:20:3"), sources=[3, 3])

    @pytest.mark.parametrize("sources", [None, [0]], ids=["all", "explicit"])
    def test_empty_graph_named(self, sources):
        from repro.graph.builders import from_edges

        # sources=None used to run on no sources at all.
        with pytest.raises(ValueError, match="graph has no vertices"):
            mrbc_congest(from_edges(0, []), sources=sources)


class TestBatchedCongest:
    def test_bc_matches_brandes(self, er_graph):
        srcs = some_sources(er_graph, 9)
        res = mrbc_congest_batched(er_graph, srcs, batch_size=4)
        assert np.allclose(res.bc, brandes_bc(er_graph, sources=srcs))
        assert len(res.per_batch_rounds) == 3
        assert sum(res.per_batch_rounds) == res.total_rounds

    def test_rounds_per_source_beats_sbbc_congest(self, webcrawl_graph):
        """Table 1 purely inside the CONGEST model."""
        from repro.baselines.sbbc_congest import sbbc_congest

        g = webcrawl_graph
        srcs = some_sources(g, 8)
        mr = mrbc_congest_batched(g, srcs, batch_size=8)
        sb = sbbc_congest(g, sources=srcs)
        assert mr.rounds_per_source() < sb.total_rounds / len(srcs)

    def test_larger_batches_fewer_rounds(self, webcrawl_graph):
        srcs = some_sources(webcrawl_graph, 8)
        small = mrbc_congest_batched(webcrawl_graph, srcs, batch_size=2)
        large = mrbc_congest_batched(webcrawl_graph, srcs, batch_size=8)
        assert large.total_rounds < small.total_rounds
