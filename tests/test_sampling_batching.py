"""Tests for source sampling and batching."""

import numpy as np
import pytest

from repro.baselines.abbc import abbc
from repro.baselines.brandes import brandes_bc
from repro.baselines.mfbc import mfbc
from repro.baselines.sbbc_congest import sbbc_congest
from repro.baselines.weighted_brandes import weighted_brandes_bc
from repro.baselines.weighted_mfbc import weighted_mfbc
from repro.core.batching import iter_batches, rounds_per_source
from repro.core.sampling import sample_sources
from repro.graph import generators as gen
from repro.graph.weighted import with_unit_weights


@pytest.fixture(scope="module")
def g():
    return gen.erdos_renyi(100, 3.0, seed=61)


class TestSampling:
    def test_contiguous_chunk(self, g):
        s = sample_sources(g, 10, mode="contiguous", seed=1)
        assert s.size == 10
        assert np.array_equal(np.diff(s), np.ones(9, dtype=np.int64))
        assert 0 <= s[0] and s[-1] < g.num_vertices

    def test_uniform_distinct_sorted(self, g):
        s = sample_sources(g, 20, mode="uniform", seed=2)
        assert np.unique(s).size == 20
        assert np.array_equal(s, np.sort(s))

    def test_first_mode(self, g):
        assert sample_sources(g, 5, mode="first").tolist() == [0, 1, 2, 3, 4]

    def test_deterministic(self, g):
        a = sample_sources(g, 8, seed=3)
        b = sample_sources(g, 8, seed=3)
        assert np.array_equal(a, b)

    def test_k_equals_n(self, g):
        s = sample_sources(g, g.num_vertices, mode="contiguous", seed=4)
        assert np.array_equal(s, np.arange(g.num_vertices))

    def test_bad_k_rejected(self, g):
        with pytest.raises(ValueError):
            sample_sources(g, 0)
        with pytest.raises(ValueError):
            sample_sources(g, g.num_vertices + 1)

    def test_bad_mode_rejected(self, g):
        with pytest.raises(ValueError):
            sample_sources(g, 3, mode="magic")


class TestBatching:
    def test_covers_all_in_order(self):
        src = np.arange(10)
        batches = list(iter_batches(src, 3))
        assert [b.tolist() for b in batches] == [
            [0, 1, 2],
            [3, 4, 5],
            [6, 7, 8],
            [9],
        ]

    def test_exact_division(self):
        assert len(list(iter_batches(np.arange(8), 4))) == 2

    def test_batch_larger_than_input(self):
        batches = list(iter_batches(np.arange(3), 10))
        assert len(batches) == 1
        assert batches[0].size == 3

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            list(iter_batches(np.arange(3), 0))

    def test_rounds_per_source(self):
        assert rounds_per_source(100, 50) == 2.0
        with pytest.raises(ValueError):
            rounds_per_source(1, 0)


#: Every baseline engine, called with an explicit source list.
BASELINES = {
    "sbbc_congest": lambda g, src: sbbc_congest(g, sources=src),
    "mfbc": lambda g, src: mfbc(g, sources=src, num_hosts=2),
    "abbc": lambda g, src: abbc(g, sources=src),
    "brandes_bc": lambda g, src: brandes_bc(g, sources=src),
    "weighted_mfbc": lambda g, src: weighted_mfbc(
        with_unit_weights(g), sources=src, num_hosts=2
    ),
    "weighted_brandes_bc": lambda g, src: weighted_brandes_bc(
        with_unit_weights(g), sources=src
    ),
}


class TestBaselineSources:
    """The baselines resolve explicit sources like the engines do
    (``core.sampling.resolve_sources``).  A cast to int64 used to run
    vertex 1 for ``1.7`` and vertices 1 and 0 for a boolean mask, count
    a repeated source twice, and let ``-1`` through silently."""

    @pytest.mark.parametrize("engine", sorted(BASELINES))
    @pytest.mark.parametrize(
        "sources,match",
        [
            ([0, 0, 1], r"source set contains duplicates: \[0\]"),
            ([1.7], r"must be integers, got float64: \[1\.7\]"),
            ([True, False], r"must be integers, got bool: \[True, False\]"),
            ([-1], r"out of range \[0, 12\): \[-1\]"),
            ([0, 12], r"out of range \[0, 12\): \[12\]"),
        ],
        ids=["repeated", "float", "boolean", "negative", "past-end"],
    )
    def test_bad_ids_rejected_by_name(self, engine, sources, match):
        g = gen.from_spec("er:12:3", seed=1)
        with pytest.raises(ValueError, match=match):
            BASELINES[engine](g, sources)

    @pytest.mark.parametrize("engine", sorted(BASELINES))
    def test_valid_ids_unchanged(self, engine):
        g = gen.from_spec("er:12:3", seed=1)
        want = brandes_bc(g, sources=[0, 1])
        got = BASELINES[engine](g, [1, 0])
        assert np.allclose(getattr(got, "bc", got), want)
