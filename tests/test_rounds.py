"""Round-efficiency observability: the RoundLedger, the round-bound
conformance suite, and the persistence surfaces (manifest ``rounds``
section, bench rounds gating, ``repro rounds``).
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from repro import obs
from repro.analysis.roundcheck import (
    DEFAULT_SLACK,
    check_delayed_rounds,
    check_lemma8_batches,
    check_quiescence,
    check_round_budget,
    run_case_checks,
    run_conformance,
)
from repro.cli import main as cli_main
from repro.cluster.model import ClusterModel
from repro.core.mrbc import mrbc_engine
from repro.core.sampling import sample_sources
from repro.graph import generators as gen
from repro.obs.bench import GATED_ROUND_COUNTS, compare_bench
from repro.obs.manifest import build_manifest, load_manifest, write_manifest
from repro.obs.rounds import RoundLedger, UnitRounds
from repro.resilience import FaultPlan, FaultSpec, ResilienceContext
from repro.runspec import RunSpec


def rs_stub(
    phase: str, round_index: int, recovery: bool = False
) -> SimpleNamespace:
    """The three RoundStats fields close_round reads."""
    return SimpleNamespace(
        effective_phase="recovery" if recovery else phase,
        round_index=round_index,
        recovery=recovery,
    )


class TestRoundLedger:
    def test_units_notes_and_totals(self):
        led = RoundLedger()
        with led.context(batch=0, k=4):
            led.begin_unit("forward")
            led.open_round("forward", 1)
            led.note(frontier=3, settled=2)
            led.note(frontier=2, settled=1)  # accumulates, not replaces
            led.close_round(rs_stub("forward", 1))
            led.open_round("forward", 2)
            led.note(frontier=1, settled=4)
            led.close_round(rs_stub("forward", 2))
            led.end_unit("quiescence")
        (unit,) = led.units()
        assert (unit.phase, unit.label, unit.attrs["k"]) == ("forward", "batch=0", 4)
        assert unit.terminated_by == "quiescence"
        assert unit.convergence() == [5, 1]
        assert (unit.max_frontier, unit.total_settled) == (5, 7)
        assert led.total_rounds() == 2
        assert led.rounds_by_phase() == {"forward": 2}
        assert led.state_for_global(2).settled == 4

    def test_close_round_stamps_effective_phase(self):
        led = RoundLedger()
        led.begin_unit("forward")
        led.open_round("forward", 1)
        # A replayed round: the run charges it to the recovery phase and
        # the ledger row must follow (reconciliation is per effective
        # phase, exactly as EngineRun.rounds_in_phase counts).
        led.close_round(rs_stub("forward", 7, recovery=True))
        led.end_unit("quiescence")
        (unit,) = led.units()
        assert unit.rounds[0].phase == "recovery"
        assert unit.rounds[0].recovery
        assert led.recovery_rounds() == 1
        assert led.rounds_by_phase() == {"recovery": 1}

    def test_crashed_unit_is_autoclosed_by_the_next(self):
        led = RoundLedger()
        led.begin_unit("forward")
        led.open_round("forward", 1)
        led.close_round(rs_stub("forward", 1))
        # No end_unit: the loop died. Opening the next unit must commit
        # the orphan as crashed so totals still reconcile.
        led.begin_unit("backward")
        led.end_unit("quiescence")
        assert [u.terminated_by for u in led.units()] == ["crashed", "quiescence"]
        assert led.total_rounds() == 1

    def test_discard_round_commits_nothing(self):
        led = RoundLedger()
        led.begin_unit("guarded")
        led.open_round("guarded", 1)
        led.note(frontier=9)
        led.discard_round()
        led.end_unit("quiescence")
        assert led.total_rounds() == 0

    def test_note_outside_a_round_is_a_noop(self):
        led = RoundLedger()
        led.note(frontier=5)
        assert led.total_rounds() == 0

    def test_recovery_rounds_land_in_a_dedicated_unit(self):
        led = RoundLedger()
        led.record_recovery_round(rs_stub("recovery", 4, recovery=True))
        led.record_recovery_round(rs_stub("recovery", 5, recovery=True))
        (unit,) = led.units("recovery")
        assert unit.terminated_by == "recovery"
        assert led.recovery_rounds() == 2
        assert led.total_rounds() == 2
        assert led.state_for_global(5) is unit.rounds[1]

    def test_bench_counts_match_the_gated_fields(self):
        led = RoundLedger()
        led.begin_unit("forward")
        led.open_round("forward", 1)
        led.note(frontier=3, settled=3)
        led.close_round(rs_stub("forward", 1))
        led.end_unit("quiescence")
        counts = led.bench_counts()
        assert set(counts) == set(GATED_ROUND_COUNTS)
        assert counts["total"] == 1
        assert counts["forward"] == 1
        assert counts["max_frontier"] == 3
        assert counts["settled"] == 3

    def test_summary_is_versioned_and_json_safe(self):
        led = RoundLedger()
        with led.context(source=5):
            led.begin_unit("forward")
            led.open_round("forward", 1)
            led.note(frontier=1, settled=1, stage_depth=2)
            led.close_round(rs_stub("forward", 1))
            led.end_unit("quiescence")
        doc = led.summary()
        assert doc["schema"] == 1
        assert doc["total_rounds"] == 1
        assert doc["units"][0]["label"] == "source=5"
        json.dumps(doc)  # must be serializable as-is

    def test_per_round_rows_carry_unit_attribution(self):
        led = RoundLedger()
        with led.context(batch=2):
            led.begin_unit("forward")
            led.open_round("forward", 1)
            led.note(frontier=4, active_sources=3)
            led.close_round(rs_stub("forward", 1))
            led.end_unit("quiescence")
        (row,) = led.per_round()
        assert row["label"] == "batch=2"
        assert (row["frontier"], row["active_sources"]) == (4, 3)


class TestEngineReconciliation:
    def test_crash_recovery_rounds_stay_reconciled(self):
        """Under an injected crash the ledger must track the replayed and
        backoff rounds exactly as the run charges them to recovery."""
        g = gen.erdos_renyi(40, 3.0, seed=11)
        srcs = sample_sources(g, 6, seed=3)
        plan = FaultPlan(
            name="crash@3", seed=5,
            specs=(FaultSpec(kind="crash", host=1, round=3),),
        )
        ctx = ResilienceContext(plan=plan, mode="repair")
        ledger = RoundLedger()
        with obs.session(rounds=ledger):
            res = mrbc_engine(
                g, sources=srcs, batch_size=8, num_hosts=4, resilience=ctx
            )
        assert ctx.crash_restarts >= 1
        assert ledger.total_rounds() == res.run.num_rounds
        recovery = res.run.rounds_in_phase("recovery")
        assert recovery >= 1
        assert ledger.rounds_by_phase().get("recovery", 0) == recovery
        assert ledger.recovery_rounds() == recovery


class TestRoundChecks:
    @staticmethod
    def unit(phase, rounds, terminated_by="quiescence", **attrs):
        u = UnitRounds(unit=0, phase=phase, label="", attrs=attrs)
        for i in range(rounds):
            u.rounds.append(
                SimpleNamespace(recovery=False, frontier=1, settled=1)
            )
        u.terminated_by = terminated_by
        return u

    def test_round_budget_flags_an_overrun(self):
        units = [self.unit("forward", 20, k=4)]
        results = check_round_budget("t", units, diameter=5, default_k=4, slack=2)
        assert not all(r.ok for r in results)  # 20 > 5 + 4 + 2
        results = check_round_budget("t", units, diameter=15, default_k=4, slack=2)
        assert all(r.ok for r in results)  # 20 <= 15 + 4 + 2, tight

    def test_round_budget_reads_k_from_attrs(self):
        # Per-source units budget with k=1; batch units with their k.
        per_source = [self.unit("forward", 8, source=3)]
        assert not check_round_budget("t", per_source, 4, 99, 2)[0].ok  # 8 > 4+1+2
        batch = [self.unit("forward", 8, k=2)]
        assert check_round_budget("t", batch, 4, 99, 2)[0].ok  # 8 <= 4+2+2

    def test_quiescence_flags_round_limit_termination(self):
        good = [self.unit("forward", 3), self.unit("backward", 3, "stopped")]
        assert check_quiescence("t", good).ok
        bad = good + [self.unit("forward", 3, "round_limit")]
        assert not check_quiescence("t", bad).ok

    def test_delayed_rounds_must_not_exceed_eager(self):
        assert check_delayed_rounds("t", 10, 10).ok
        assert check_delayed_rounds("t", 9, 10).ok
        assert not check_delayed_rounds("t", 11, 10).ok

    def test_lemma8_groups_congest_units_by_batch(self):
        led = RoundLedger()
        for b, rounds in ((0, 6), (0, 5), (1, 4)):
            with led.context(batch=b, k=2):
                led.begin_unit("congest")
                for i in range(rounds):
                    led.open_round("congest", i + 1)
                    led.close_round()
                led.end_unit("quiescence")
        # Budget 2(k + H) + slack = 2(2 + 3) + 1 = 11: batch 0 uses 11.
        assert check_lemma8_batches("t", led, diameter=3, slack=1).ok
        assert not check_lemma8_batches("t", led, diameter=2, slack=1).ok

    def test_mrbc_case_checks_pass_end_to_end(self):
        results = run_case_checks(
            RunSpec("t-mrbc", "mrbc", "er:30:3", hosts=4, sources=4, batch=4, seed=3)
        )
        bad = [r for r in results if not r.ok]
        assert not bad, bad
        checks = {r.check for r in results}
        assert {
            "ledger-rounds-vs-run", "ledger-phase-rounds-vs-run",
            "round-budget", "unit-quiescence", "work-efficiency-forward",
            "work-efficiency-backward", "delayed-sync-rounds",
        } <= checks

    def test_congest_case_checks_pass_end_to_end(self):
        results = run_case_checks(
            RunSpec(
                "t-congest", "mrbc-congest", "er:30:3",
                hosts=4, sources=4, batch=2, seed=3,
            )
        )
        bad = [r for r in results if not r.ok]
        assert not bad, bad
        checks = {r.check for r in results}
        assert {"ledger-rounds-vs-result", "lemma8-batch-rounds",
                "unit-quiescence"} <= checks

    def test_conformance_report_shape(self):
        report = run_conformance(
            [RunSpec("t-sbbc", "sbbc", "er:30:3", hosts=4, sources=3, batch=4, seed=3)]
        )
        assert report.ok
        doc = report.to_dict()
        assert doc["schema"] == 1
        assert doc["verdict"] == "PASS"
        assert doc["checks"]
        json.loads(report.to_json())


class TestPersistence:
    def _engine_manifest(self):
        g = gen.erdos_renyi(30, 3.0, seed=11)
        ledger = RoundLedger()
        srcs = sample_sources(g, 4, seed=3)
        with obs.session(rounds=ledger):
            res = mrbc_engine(g, sources=srcs, batch_size=4, num_hosts=4)
        man = build_manifest(
            "mrbc", res.run, ClusterModel(4), rounds=ledger,
            graph_spec="er:30:3", num_hosts=4,
        )
        return res, man

    def test_manifest_carries_rounds_summary(self, tmp_path):
        res, man = self._engine_manifest()
        assert man.rounds["total_rounds"] == res.run.num_rounds
        assert man.rounds["schema"] == 1
        path = tmp_path / "manifest.json"
        write_manifest(man, path)
        loaded = load_manifest(path)
        assert loaded.rounds == man.rounds

    def test_pre_ledger_manifest_still_loads(self, tmp_path):
        _, man = self._engine_manifest()
        path = tmp_path / "old.json"
        doc = man.to_dict()
        del doc["rounds"]  # a manifest written before the ledger existed
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_manifest(path)
        assert loaded.rounds == {}
        assert loaded.algorithm == man.algorithm

    @staticmethod
    def _snap(rounds):
        case = {
            "name": "c",
            "deterministic": {"bytes": 10, "rounds": 2},
            "wall_s": {"median": 0.01, "iqr": 0.001},
        }
        if rounds is not None:
            case["rounds"] = rounds
        return {"cases": [case]}

    ROUNDS = {"total": 12, "forward": 7, "backward": 5, "recovery": 0,
              "units": 4, "max_unit_rounds": 4, "max_frontier": 9,
              "settled": 80}

    def test_bench_gates_round_counts(self):
        assert compare_bench(
            self._snap(dict(self.ROUNDS)), self._snap(dict(self.ROUNDS)),
            wall="never",
        ).ok
        drift = dict(self.ROUNDS, total=13)
        cmp = compare_bench(
            self._snap(drift), self._snap(dict(self.ROUNDS)), wall="never"
        )
        assert not cmp.ok
        assert any("rounds.total" in f for f in cmp.cases[0].failures)

    def test_bench_tolerates_pre_ledger_baseline(self):
        cmp = compare_bench(
            self._snap(dict(self.ROUNDS)), self._snap(None), wall="never"
        )
        assert cmp.ok
        assert any("no baseline yet" in n for n in cmp.cases[0].notes)

    def test_bench_rejects_dropped_rounds_section(self):
        cmp = compare_bench(
            self._snap(None), self._snap(dict(self.ROUNDS)), wall="never"
        )
        assert not cmp.ok


class TestChromeCounters:
    def test_frontier_counter_track_from_round_ledger(self):
        """With a RoundLedger on the session, round events are enriched
        with its per-round state and the Chrome export adds frontier and
        stage-depth counter tracks."""
        from repro.cluster.model import ClusterModel as CM
        from repro.graph.generators import erdos_renyi
        from repro.obs.sinks import MemorySink

        g = erdos_renyi(30, 3.0, seed=5)
        sink = MemorySink()
        ledger = RoundLedger()
        with obs.session(sink, model=CM(2), rounds=ledger) as tele:
            with tele.span("run:mrbc", kind="run"):
                mrbc_engine(g, sources=[0, 1, 2, 3], batch_size=4,
                            num_hosts=2)
        doc = obs.chrome_trace(sink.events)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        frontier = [e for e in counters if e["name"] == "frontier/round"]
        assert frontier
        assert sum(e["args"]["settled"] for e in frontier) == \
            ledger.total_settled()
        assert max(e["args"]["frontier"] for e in frontier) == \
            ledger.max_frontier()
        # Delayed sync stages candidates: the depth track must appear.
        assert any(e["name"] == "stage_depth/round" for e in counters)

    def test_no_ledger_no_counter_tracks(self):
        from repro.cluster.model import ClusterModel as CM
        from repro.graph.generators import erdos_renyi
        from repro.obs.sinks import MemorySink

        g = erdos_renyi(30, 3.0, seed=5)
        sink = MemorySink()
        with obs.session(sink, model=CM(2)) as tele:
            with tele.span("run:mrbc", kind="run"):
                mrbc_engine(g, sources=[0, 1, 2, 3], batch_size=4,
                            num_hosts=2)
        doc = obs.chrome_trace(sink.events)
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "C"}
        assert "frontier/round" not in names
        assert "stage_depth/round" not in names


class TestRoundsCLI:
    def test_breakdown_json(self, capsys):
        rc = cli_main([
            "rounds", "mrbc", "--graph", "er:30:3", "-k", "4",
            "--hosts", "4", "--batch", "4", "--format", "json",
            "--per-round",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["total_rounds"] > 0
        assert doc["units"]
        assert doc["per_round"]

    def test_breakdown_table_with_curves(self, capsys):
        rc = cli_main([
            "rounds", "mrbc-congest", "--graph", "er:30:3", "-k", "4",
            "--batch", "2", "--curves",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rounds by unit" in out
        assert "rounds by phase" in out
        assert "convergence curves" in out
        assert "batch=0" in out

    def test_check_single_case_with_report(self, tmp_path, capsys):
        report = tmp_path / "rounds-report.json"
        rc = cli_main([
            "rounds", "mrbc", "--graph", "er:30:3", "-k", "4",
            "--batch", "4", "--seed", "3",
            "--check", "--report", str(report),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "roundcheck verdict: PASS" in out
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["verdict"] == "PASS"

    def test_check_honors_slack_override(self, capsys):
        # slack raised far enough that even a generous budget passes;
        # DEFAULT_SLACK stays what the suite was tuned for.
        assert DEFAULT_SLACK == 2
        rc = cli_main([
            "rounds", "sbbc", "--graph", "er:30:3", "-k", "3",
            "--seed", "3", "--check", "--slack", "50", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdict"] == "PASS"
