"""Property-based tests (hypothesis) on core data structures and the
paper's invariants.

The σ and distance invariants asserted against Brandes follow
Pontecorvi–Ramachandran, *Distributed Algorithms for Directed
Betweenness Centrality and All Pairs Shortest Paths*: every engine must
reproduce each source's shortest-path DAG exactly — its distances and
its path counts σ — not only the BC sums built from them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brandes import brandes_bc, brandes_sssp
from repro.baselines.sbbc import sbbc_engine
from repro.core.mrbc import mrbc_engine
from repro.core.mrbc_congest import directed_apsp, mrbc_congest, mrbc_congest_batched
from repro.engine.partition import partition_graph
from repro.graph.digraph import DiGraph
from repro.resilience import ResilienceContext
from repro.utils.bitset import Bitset
from repro.utils.flatmap import FlatMap


# -- graph strategy ------------------------------------------------------------


@st.composite
def digraphs(draw, max_n=16, max_m=40):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda e: e[0] != e[1]),
            min_size=0,
            max_size=m,
        )
    )
    if edges:
        arr = np.asarray(edges, dtype=np.int64)
        return DiGraph(n, arr[:, 0], arr[:, 1])
    return DiGraph(n, np.empty(0, np.int64), np.empty(0, np.int64))


@st.composite
def dense_digraphs(draw, max_n=16):
    """1–``max_n`` vertices, each possible edge present with a drawn
    probability: the single vertex, edgeless graphs, and dense ones
    whose shortest-path DAGs have many equal-length paths, so σ sums
    over several predecessors and several hosts."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = rng.random((n, n)) < p
    np.fill_diagonal(adj, False)
    src, dst = np.nonzero(adj)
    return DiGraph(n, src.astype(np.int64), dst.astype(np.int64))


@st.composite
def digraph_with_sources(draw):
    g = draw(digraphs())
    k = draw(st.integers(1, min(4, g.num_vertices)))
    srcs = draw(
        st.lists(
            st.integers(0, g.num_vertices - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    return g, sorted(srcs)


# -- algorithm invariants --------------------------------------------------------


class TestMRBCProperties:
    @given(digraph_with_sources())
    @settings(max_examples=40, deadline=None)
    def test_congest_bc_matches_brandes(self, gs):
        g, srcs = gs
        res = mrbc_congest(g, sources=srcs)
        assert np.allclose(res.bc, brandes_bc(g, sources=srcs), atol=1e-9)

    @given(dense_digraphs(), st.integers(1, 4), st.integers(1, 3),
           st.booleans(), st.sampled_from(["oec", "iec", "cvc", "random"]),
           st.data())
    @settings(deadline=None)
    def test_engine_bc_matches_brandes(
        self, g, batch, hosts, delayed_sync, policy, data
    ):
        """MRBC against Brandes on dense graphs, where σ sums over
        several equal-length paths, with the single vertex and edgeless
        graphs included: batch 1–4, hosts 1–3, each partition policy,
        delayed or eager sync, any unique source set."""
        n = g.num_vertices
        srcs = sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
            label="sources",
        ))
        kw = {"seed": data.draw(st.integers(0, 2**31 - 1), label="seed")} \
            if policy == "random" else {}
        pg = partition_graph(g, hosts, policy, **kw)
        res = mrbc_engine(
            g, sources=srcs, batch_size=batch, partition=pg,
            delayed_sync=delayed_sync,
        )
        for i, s in enumerate(srcs):
            dist, sigma, _preds, _order = brandes_sssp(g, s)
            assert np.array_equal(res.dist[i], dist)
            assert np.array_equal(res.sigma[i], sigma)
        np.testing.assert_allclose(
            res.bc, brandes_bc(g, sources=srcs), rtol=1e-9, atol=0
        )

    @given(dense_digraphs(), st.integers(1, 4), st.integers(1, 3),
           st.booleans(), st.sampled_from(["oec", "iec", "cvc", "random"]),
           st.sampled_from(["detect", "repair"]), st.data())
    @settings(deadline=None)
    def test_resilience_context_is_neutral(
        self, g, batch, hosts, delayed_sync, policy, mode, data
    ):
        """With no fault plan, a ``ResilienceContext`` in either checking
        mode changes nothing: dist, σ and BC bits and the deterministic
        signature equal the fault-free run's, and no round invariant is
        reported violated."""
        n = g.num_vertices
        srcs = sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
            label="sources",
        ))
        kw = {"seed": data.draw(st.integers(0, 2**31 - 1), label="seed")} \
            if policy == "random" else {}
        pg = partition_graph(g, hosts, policy, **kw)
        run = dict(
            sources=srcs, batch_size=batch, partition=pg,
            delayed_sync=delayed_sync,
        )
        clean = mrbc_engine(g, **run)
        ctx = ResilienceContext(mode=mode)
        res = mrbc_engine(g, resilience=ctx, **run)
        assert np.array_equal(res.dist, clean.dist)
        assert np.array_equal(res.sigma.view(np.int64), clean.sigma.view(np.int64))
        assert np.array_equal(res.bc.view(np.int64), clean.bc.view(np.int64))
        assert (
            res.run.deterministic_signature()
            == clean.run.deterministic_signature()
        )
        assert not ctx.invariant_violations

    @given(dense_digraphs(), st.integers(1, 4), st.data())
    @settings(deadline=None)
    def test_batched_congest_matches_brandes(self, g, batch, data):
        """CONGEST MRBC run one Lemma 8 execution per batch of 1–4
        sources: every batch's dist and σ exactly, BC at rtol 1e-9."""
        n = g.num_vertices
        srcs = sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
            label="sources",
        ))
        res = mrbc_congest_batched(g, srcs, batch_size=batch)
        assert [int(s) for b in res.batches for s in b.sources] == srcs
        for b in res.batches:
            assert b.sources.size <= batch
            for i, s in enumerate(b.sources.tolist()):
                dist, sigma, _preds, _order = brandes_sssp(g, s)
                assert np.array_equal(b.dist[i], dist)
                assert np.array_equal(b.sigma[i], sigma)
        np.testing.assert_allclose(
            res.bc, brandes_bc(g, sources=srcs), rtol=1e-9, atol=0
        )

    @given(digraph_with_sources())
    @settings(max_examples=40, deadline=None)
    def test_kssp_round_bound_lemma8(self, gs):
        g, srcs = gs
        res = directed_apsp(g, sources=srcs)
        finite = res.dist[res.dist >= 0]
        H = int(finite.max()) if finite.size else 0
        assert res.last_send_round <= len(srcs) + H

    @given(digraph_with_sources())
    @settings(max_examples=40, deadline=None)
    def test_kssp_message_bound_lemma8(self, gs):
        g, srcs = gs
        res = directed_apsp(g, sources=srcs)
        assert res.stats.count_for_tag("apsp") <= g.num_edges * len(srcs)

    @given(digraphs(max_n=12, max_m=30))
    @settings(max_examples=25, deadline=None)
    def test_full_apsp_round_bound(self, g):
        res = directed_apsp(g, detect_termination=False)
        assert res.rounds <= 2 * g.num_vertices

    @given(digraph_with_sources())
    @settings(max_examples=30, deadline=None)
    def test_bc_nonnegative_and_zero_at_sinks(self, gs):
        g, srcs = gs
        res = mrbc_congest(g, sources=srcs)
        assert (res.bc >= -1e-12).all()
        # A vertex with no outgoing edges lies on no s→t path interior.
        for v in range(g.num_vertices):
            if g.out_degree(v) == 0:
                assert abs(res.bc[v]) < 1e-12


class TestSBBCProperties:
    """SBBC against Brandes on every input class: 1–16 vertices (the
    single vertex and edgeless graphs included), 1–5 hosts, each
    partition policy, any unique source set."""

    @given(dense_digraphs(), st.integers(1, 5),
           st.sampled_from(["oec", "iec", "cvc", "random"]), st.data())
    @settings(deadline=None)
    def test_sbbc_matches_brandes(self, g, hosts, policy, data):
        n = g.num_vertices
        srcs = sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
            label="sources",
        ))
        kw = {"seed": data.draw(st.integers(0, 2**31 - 1), label="seed")} \
            if policy == "random" else {}
        pg = partition_graph(g, hosts, policy, **kw)
        res = sbbc_engine(g, sources=srcs, partition=pg)
        for i, s in enumerate(srcs):
            dist, sigma, _preds, _order = brandes_sssp(g, s)
            assert np.array_equal(res.dist[i], dist)
            assert np.array_equal(res.sigma[i], sigma)
        np.testing.assert_allclose(
            res.bc, brandes_bc(g, sources=srcs), rtol=1e-9, atol=0
        )


# -- data-structure models --------------------------------------------------------


class TestBitsetModel:
    @given(
        st.integers(1, 200),
        st.lists(st.tuples(st.sampled_from(["set", "clear"]), st.integers(0, 199))),
    )
    @settings(max_examples=60)
    def test_against_python_set(self, cap, ops):
        bs = Bitset(cap)
        model: set[int] = set()
        for op, i in ops:
            if i >= cap:
                continue
            if op == "set":
                bs.set(i)
                model.add(i)
            else:
                bs.clear(i)
                model.discard(i)
        assert bs.indices().tolist() == sorted(model)
        assert bs.count() == len(model)
        assert bs.any() == bool(model)

    @given(st.integers(1, 300), st.data())
    @settings(max_examples=60)
    def test_bulk_ops_against_python_set(self, cap, data):
        """``set_many``/``clear_many`` batches, duplicates and both ends
        of the range included, against a Python set."""
        index = st.one_of(st.integers(0, cap - 1), st.sampled_from([0, cap - 1]))
        bs = Bitset(cap)
        model: set[int] = set()
        for op in data.draw(st.lists(st.booleans(), max_size=6), label="ops"):
            batch = data.draw(st.lists(index, max_size=40), label="batch")
            if op:
                bs.set_many(np.asarray(batch, dtype=np.int64))
                model.update(batch)
            else:
                bs.clear_many(np.asarray(batch, dtype=np.int64))
                model.difference_update(batch)
            assert bs.indices().tolist() == sorted(model)
        assert bs.count() == len(model)

    @given(st.integers(1, 300), st.sampled_from(["set_many", "clear_many"]),
           st.booleans(), st.data())
    @settings(max_examples=40)
    def test_bulk_ops_reject_out_of_range(self, cap, op, below, data):
        """An index past either end raises and leaves the bits as they were."""
        bs = Bitset.from_indices(cap, [0, cap - 1])
        bad = -1 - data.draw(st.integers(0, 5)) if below \
            else cap + data.draw(st.integers(0, 70))
        good = data.draw(st.lists(st.integers(0, cap - 1), max_size=5))
        with pytest.raises(IndexError):
            getattr(bs, op)(np.asarray([*good, bad], dtype=np.int64))
        assert bs.indices().tolist() == sorted({0, cap - 1})

    @given(st.integers(1, 150), st.data())
    @settings(max_examples=40)
    def test_algebra_matches_set_algebra(self, cap, data):
        xs = data.draw(st.lists(st.integers(0, cap - 1), max_size=30))
        ys = data.draw(st.lists(st.integers(0, cap - 1), max_size=30))
        a, b = Bitset.from_indices(cap, xs), Bitset.from_indices(cap, ys)
        u = a.copy().ior(b)
        i = a.copy().iand(b)
        d = a.copy().isub(b)
        assert set(u) == set(xs) | set(ys)
        assert set(i) == set(xs) & set(ys)
        assert set(d) == set(xs) - set(ys)


class TestFlatMapModel:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["set", "del", "pop"]),
                st.integers(-20, 20),
                st.integers(0, 100),
            )
        )
    )
    @settings(max_examples=60)
    def test_against_dict(self, ops):
        fm = FlatMap()
        model: dict[int, int] = {}
        for op, k, v in ops:
            if op == "set":
                fm[k] = v
                model[k] = v
            elif op == "del" and k in model:
                del fm[k]
                del model[k]
            elif op == "pop":
                assert fm.pop(k, None) == model.pop(k, None)
        assert fm.keys() == sorted(model)
        assert dict(fm.items()) == model
        for idx, key in enumerate(sorted(model)):
            assert fm.key_at(idx) == key
            assert fm.index_of(key) == idx


class TestDiGraphModel:
    @given(digraphs())
    @settings(max_examples=50)
    def test_degree_sums_equal_edges(self, g):
        assert int(g.out_degrees().sum()) == g.num_edges
        assert int(g.in_degrees().sum()) == g.num_edges

    @given(digraphs())
    @settings(max_examples=50)
    def test_reverse_is_involution(self, g):
        assert g.reverse().reverse() == g

    @given(digraphs())
    @settings(max_examples=50)
    def test_undirected_is_symmetric(self, g):
        u = g.to_undirected()
        src, dst = u.edges()
        for a, b in zip(src.tolist(), dst.tolist()):
            assert u.has_edge(b, a)
