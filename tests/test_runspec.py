"""The run entry point: :class:`RunSpec` validation and loading, and
:func:`execute` dispatching every algorithm name to its engine."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.analysis.commcheck import run_case_checks
from repro.baselines.brandes import brandes_bc, brandes_sssp
from repro.baselines.sbbc import sbbc_engine
from repro.cli import main as cli_main
from repro.core.mrbc import mrbc_engine
from repro.graph.builders import from_edge_array
from repro.graph.io import write_edge_list
from repro.obs.comm import PLANE_GLUON, CommLedger
from repro.obs.rounds import RoundLedger
from repro.runspec import ALGORITHMS, RunSpec, execute


class TestRunSpec:
    @pytest.mark.parametrize("field", ["hosts", "batch", "sources"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_values_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunSpec("t", "mrbc", "er:30:3", **{field: value})

    def test_sources_none_is_every_vertex(self):
        g, sources = RunSpec("t", "mrbc", "er:30:3", sources=None).load()
        assert np.array_equal(sources, np.arange(g.num_vertices))

    def test_sources_capped_at_vertex_count(self):
        g, sources = RunSpec("t", "mrbc", "er:10:2", sources=20).load()
        assert g.num_vertices == 10
        assert np.array_equal(sources, np.arange(10))

    def test_sampled_sources_are_a_seeded_chunk(self):
        spec = RunSpec("t", "mrbc", "er:60:3", sources=8, seed=7)
        _, a = spec.load()
        _, b = spec.load()
        assert a.size == 8 and np.array_equal(a, b)
        assert np.array_equal(np.diff(a), np.ones(7))

    def test_graph_path_or_spec(self, tmp_path):
        g, _ = RunSpec("t", "mrbc", "er:30:3").load()
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        h, _ = RunSpec("t", "mrbc", str(path)).load()
        assert h.num_vertices == g.num_vertices
        assert h.num_edges == g.num_edges

    def test_bad_graph_spec_raises(self):
        with pytest.raises(ValueError, match="unknown generator kind"):
            RunSpec("t", "mrbc", "torus:3").load()


class TestExecute:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bc_matches_brandes(self, algorithm):
        spec = RunSpec("t", algorithm, "er:30:3", sources=8, batch=4)
        g, sources = spec.load()
        res = execute(spec, g, sources)
        assert np.allclose(
            res.bc, brandes_bc(g, sources=sources), rtol=1e-9, atol=0.0
        )

    def test_mrbc_signature_matches_direct_engine_call(self):
        spec = RunSpec("t", "mrbc", "er:30:3", hosts=3, sources=8, batch=4)
        g, sources = spec.load()
        direct = mrbc_engine(g, sources=sources, batch_size=4, num_hosts=3)
        assert (
            execute(spec, g, sources).run.deterministic_signature()
            == direct.run.deterministic_signature()
        )

    def test_sbbc_signature_matches_direct_engine_call(self):
        spec = RunSpec("t", "sbbc", "er:30:3", hosts=3, sources=8)
        g, sources = spec.load()
        direct = sbbc_engine(g, sources=sources, num_hosts=3)
        assert (
            execute(spec, g, sources).run.deterministic_signature()
            == direct.run.deterministic_signature()
        )

    def test_delayed_sync_reaches_the_engine(self):
        # er:60:3, 8 sources, batch 8, 4 hosts: delayed 119640 payload
        # bytes, eager 119714.
        spec = RunSpec("t", "mrbc", "er:60:3", hosts=4, sources=8, batch=8)
        g, sources = spec.load()
        delayed, eager, direct = CommLedger(), CommLedger(), CommLedger()
        execute(spec, g, sources, comm=delayed)
        execute(replace(spec, delayed_sync=False), g, sources, comm=eager)
        with obs.session(comm=direct):
            mrbc_engine(g, sources=sources, batch_size=8, num_hosts=4,
                        delayed_sync=False)
        delayed_bytes = delayed.totals(PLANE_GLUON).payload_bytes
        eager_bytes = eager.totals(PLANE_GLUON).payload_bytes
        assert delayed_bytes < eager_bytes
        assert eager_bytes == direct.totals(PLANE_GLUON).payload_bytes

    def test_congest_runs_one_lemma8_execution_per_batch(self):
        spec = RunSpec("t", "mrbc-congest", "er:30:3", sources=4, batch=2)
        g, sources = spec.load()
        rounds = RoundLedger()
        res = execute(spec, g, sources, rounds=rounds)
        assert len(res.batches) == 2
        assert [b.total_rounds for b in res.batches] == res.per_batch_rounds
        assert rounds.total_rounds() == res.total_rounds

    def test_ledgers_get_their_own_session(self):
        spec = RunSpec("t", "sbbc", "er:30:3", sources=2)
        g, sources = spec.load()
        outer = CommLedger()
        inner = CommLedger()
        with obs.session(comm=outer):
            execute(spec, g, sources, comm=inner)
        assert inner.totals(PLANE_GLUON).messages > 0
        assert outer.totals(PLANE_GLUON).messages == 0

    def test_without_ledgers_records_into_the_current_session(self):
        spec = RunSpec("t", "sbbc", "er:30:3", sources=2)
        g, sources = spec.load()
        outer = CommLedger()
        with obs.session(comm=outer):
            execute(spec, g, sources)
        assert outer.totals(PLANE_GLUON).messages > 0

    def test_unknown_algorithm_raises(self):
        spec = RunSpec("t", "brandes", "er:30:3")
        g, sources = spec.load()
        with pytest.raises(ValueError, match="unknown algorithm"):
            execute(spec, g, sources)


def _repeated_edge_graph():
    g = from_edge_array(3, [0, 0, 1, 1, 2], [1, 1, 2, 0, 0])
    assert g.num_edges == 4  # the repeated 0 -> 1 edge is merged
    return g


#: Degenerate inputs the engines handle as they are (no rejection):
#: (graph factory, hosts, batch).
DEGENERATE = {
    "repeated-edge": (_repeated_edge_graph, 2, 2),
    "8-hosts-on-3-vertices": (
        lambda: from_edge_array(3, [0, 1, 1, 2], [1, 0, 2, 1]), 8, 2
    ),
    "single-vertex": (lambda: from_edge_array(1, [], []), 4, 8),
    "4-vertices-no-edges": (lambda: from_edge_array(4, [], []), 4, 3),
}


class TestDegenerateInputs:
    @pytest.mark.parametrize("case", sorted(DEGENERATE))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matches_brandes(self, algorithm, case):
        make_graph, hosts, batch = DEGENERATE[case]
        g = make_graph()
        sources = np.arange(g.num_vertices, dtype=np.int64)
        spec = RunSpec(case, algorithm, "unused", hosts=hosts, batch=batch)
        res = execute(spec, g, sources)
        np.testing.assert_allclose(
            res.bc, brandes_bc(g, sources=sources), rtol=1e-9, atol=0
        )
        if algorithm in ("mrbc", "sbbc"):
            for i, s in enumerate(sources.tolist()):
                dist, sigma, _preds, _order = brandes_sssp(g, s)
                assert np.array_equal(res.dist[i], dist)
                assert np.array_equal(res.sigma[i], sigma)


class TestBatchedCongestEverywhere:
    def test_comm_cli_honours_batch(self, capsys):
        runs = {}
        for batch in (2, 4):
            rc = cli_main([
                "comm", "mrbc-congest", "--graph", "er:30:3", "-k", "4",
                "--seed", "3", "--batch", str(batch), "--per-round",
                "--format", "json",
            ])
            assert rc == 0
            doc = json.loads(capsys.readouterr().out)
            runs[batch] = {r["run"] for r in doc["per_round"]}
        # One forward and one accumulation network run per batch.
        assert len(runs[2]) == 4
        assert len(runs[4]) == 2

    def test_commcheck_reconciles_across_batches(self):
        results = run_case_checks(
            RunSpec("t", "mrbc-congest", "er:30:3", sources=4, batch=2, seed=3)
        )
        bad = [r for r in results if not r.ok]
        assert not bad, bad
        assert {"ledger-messages-vs-stats", "ledger-values-vs-stats",
                "ledger-words-vs-stats"} <= {r.check for r in results}
