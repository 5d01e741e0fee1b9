"""Tests for the fault-injection & recovery subsystem (repro.resilience).

Covers the three tentpole pieces — deterministic fault plans with
first-class injection hooks, checkpoint/restart, and self-checking round
invariants — plus the persistence v2 format, the recovery-phase time
attribution, and the ``repro faults`` CLI.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.baselines.brandes import brandes_bc
from repro.cluster.model import ClusterModel
from repro.core import mrbc as mrbc_mod
from repro.core.mrbc import _ArrayBatchExecutor, mrbc_engine
from repro.engine.persist import (
    load_checkpoint,
    load_run,
    save_checkpoint,
    save_run,
)
from repro.engine.partition import partition_graph
from repro.engine.stats import EngineRun
from repro.graph import generators as gen
from repro.resilience import (
    CheckpointCorruptError,
    CheckpointStore,
    FaultDetectedError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InvariantChecker,
    InvariantViolation,
    ResilienceContext,
    get_plan,
    mrbc_forward_snapshot,
    restore_mrbc_forward,
    run_under_faults,
)
from repro.resilience.plan import DEFAULT_PLANS
from repro.runtime.arrays import MasterColumns
from repro.runtime.plane import GluonArrayPlane
from tests.conftest import MasterRig, dense_schedule, some_sources

HOSTS = 4
BATCH = 8


@pytest.fixture(scope="module")
def graph():
    return gen.erdos_renyi(40, 3.0, seed=11)


@pytest.fixture(scope="module")
def sources(graph):
    return some_sources(graph, 6)


@pytest.fixture(scope="module")
def reference(graph, sources):
    return brandes_bc(graph, sources=sources)


@pytest.fixture(scope="module")
def fault_free(graph, sources):
    """The no-faults MRBC run the recovered runs must match bit-for-bit."""
    return mrbc_engine(
        graph, sources=sources, batch_size=BATCH, num_hosts=HOSTS
    )


# -- fault plans --------------------------------------------------------------


class TestFaultPlan:
    def test_dict_round_trip(self):
        plan = get_plan("drop")
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert json.loads(json.dumps(plan.to_dict())) == plan.to_dict()

    def test_with_seed(self):
        plan = get_plan("corrupt", seed=123)
        assert plan.seed == 123
        assert plan.specs == get_plan("corrupt").specs

    def test_unknown_plan(self):
        with pytest.raises(KeyError):
            get_plan("meteor-strike")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="gremlins")
        with pytest.raises(ValueError):
            FaultSpec(kind="drop", rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(kind="crash")  # host faults need host + round

    def test_default_plans_have_distinct_seeds(self):
        seeds = [p.seed for p in DEFAULT_PLANS.values()]
        assert len(set(seeds)) == len(seeds)


class TestInjectorDeterminism:
    def test_same_seed_same_perturbations(self):
        items = [(7, 0, 2, 1.5), (8, 1, 3, 2.5), (9, 0, 1, 0.5)]
        plan = FaultPlan(
            name="t", seed=42,
            specs=(FaultSpec(kind="reorder", rate=0.5),
                   FaultSpec(kind="corrupt", rate=0.5)),
        )
        seqs = []
        for _ in range(2):
            inj = FaultInjector(plan)
            seq = [
                inj.perturb_channel(rnd, 0, 1, list(items))
                for rnd in range(1, 20)
            ]
            seqs.append(seq)
        assert seqs[0] == seqs[1]
        assert FaultInjector(plan).total_injected == 0

    def test_different_seed_diverges(self):
        items = [(7, 0, 2, 1.5), (8, 1, 3, 2.5)]
        out = []
        for seed in (1, 2):
            inj = FaultInjector(get_plan("drop").with_seed(seed))
            out.append(
                [inj.perturb_channel(r, 0, 1, list(items)) for r in range(30)]
            )
        assert out[0] != out[1]


# -- end-to-end fault experiments ---------------------------------------------


class TestRepairMode:
    @pytest.mark.parametrize("plan", sorted(DEFAULT_PLANS))
    def test_mrbc_recovers_every_default_plan(
        self, graph, sources, reference, fault_free, plan
    ):
        report = run_under_faults(
            "mrbc", graph, sources=sources, plan=plan, mode="repair",
            num_hosts=HOSTS, batch_size=BATCH,
        )
        s = report.resilience
        assert report.completed, report.failure
        assert s["faults_injected"] >= 1
        assert s["faults_detected"] >= 1
        assert s["recoveries"] >= 1
        assert report.max_abs_error <= 1e-9
        # Recovery must reproduce the fault-free result exactly, not just
        # approximately: retransmits deliver the same items, restarts
        # replay the same rounds.
        assert np.array_equal(report.bc, fault_free.bc)

    def test_sbbc_recovers(self, graph, sources):
        report = run_under_faults(
            "sbbc", graph, sources=sources, plan="drop", mode="repair",
            num_hosts=HOSTS,
        )
        assert report.completed, report.failure
        assert report.resilience["recoveries"] >= 1
        assert report.max_abs_error <= 1e-9

    def test_manifest_records_resilience(self, graph, sources, tmp_path):
        report = run_under_faults(
            "mrbc", graph, sources=sources, plan="corrupt", mode="repair",
            num_hosts=HOSTS, batch_size=BATCH, out_dir=tmp_path,
        )
        man = report.manifest.to_dict()
        res = man["extra"]["resilience"]
        assert man["extra"]["fault_plan"] == "corrupt"
        assert res["faults_detected"] >= 1
        assert res["recoveries"] >= 1
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "events.jsonl").exists()
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["extra"]["resilience"]["faults_detected"] >= 1

    def test_recovery_rounds_attributed_to_recovery_phase(
        self, graph, sources
    ):
        report = run_under_faults(
            "mrbc", graph, sources=sources, plan="drop", mode="repair",
            num_hosts=HOSTS, batch_size=BATCH,
        )
        run = report.manifest  # manifest groups by effective phase
        phases = {p["phase"] for p in run.to_dict()["phases"]}
        assert "recovery" in phases


class TestDetectMode:
    def test_detect_fails_loudly(self, graph, sources):
        report = run_under_faults(
            "mrbc", graph, sources=sources, plan="drop", mode="detect",
            num_hosts=HOSTS, batch_size=BATCH,
        )
        assert not report.completed
        assert "FaultDetectedError" in report.failure
        assert report.bc is None
        assert report.resilience["faults_detected"] >= 1

    def test_detect_raises_outside_harness(self, graph, sources):
        ctx = ResilienceContext(plan=get_plan("corrupt"), mode="detect")
        with pytest.raises(FaultDetectedError):
            mrbc_engine(
                graph, sources=sources, batch_size=BATCH,
                num_hosts=HOSTS, resilience=ctx,
            )


class TestOffMode:
    def test_off_mode_does_not_mask_faults(self, graph, sources):
        """Unchecked faults must surface as an engine assertion or a wrong
        answer — the guard in ``off`` mode must not quietly fix things."""
        report = run_under_faults(
            "mrbc", graph, sources=sources, plan="drop", mode="off",
            invariants="off", num_hosts=HOSTS, batch_size=BATCH,
        )
        assert report.resilience["faults_injected"] >= 1
        assert report.resilience["recoveries"] == 0
        poisoned = (
            not report.completed
            or report.max_abs_error > 1e-9
        )
        assert poisoned, "dropped messages went completely unnoticed"


# -- crash / checkpoint / restart ---------------------------------------------


def crash_plan(round_index, host=1):
    return FaultPlan(
        name=f"crash@{round_index}",
        seed=7,
        specs=(FaultSpec(kind="crash", host=host, round=round_index),),
    )


class TestCrashRestart:
    def test_crash_mid_forward_resumes_bit_for_bit(
        self, graph, sources, fault_free, reference
    ):
        report = run_under_faults(
            "mrbc", graph, sources=sources, plan=crash_plan(3),
            mode="repair", num_hosts=HOSTS, batch_size=BATCH,
        )
        assert report.completed, report.failure
        assert report.resilience["crash_restarts"] >= 1
        assert np.array_equal(report.bc, fault_free.bc)
        assert float(np.max(np.abs(report.bc - reference))) <= 1e-9

    def test_crash_mid_backward_resumes_bit_for_bit(
        self, graph, sources, fault_free, reference
    ):
        # Forward rounds of the (single-batch) fault-free run; a crash two
        # rounds later lands in the backward phase and must restore the
        # forward state from its checkpoint.
        fwd = fault_free.run.rounds_in_phase("forward")
        assert fault_free.run.rounds_in_phase("backward") > 2
        report = run_under_faults(
            "mrbc", graph, sources=sources, plan=crash_plan(fwd + 2),
            mode="repair", num_hosts=HOSTS, batch_size=BATCH,
        )
        assert report.completed, report.failure
        assert report.resilience["crash_restarts"] >= 1
        assert report.resilience["recovery_rounds"] >= 1
        assert np.array_equal(report.bc, fault_free.bc)
        assert float(np.max(np.abs(report.bc - reference))) <= 1e-9

    def test_crash_detect_mode_aborts(self, graph, sources):
        report = run_under_faults(
            "mrbc", graph, sources=sources, plan=crash_plan(3),
            mode="detect", num_hosts=HOSTS, batch_size=BATCH,
        )
        assert not report.completed
        assert "HostCrashError" in report.failure

    def test_bsp_sssp_crash_recovery(self):
        from repro.engine.bsp import sssp_engine
        from repro.graph.weighted import with_random_weights

        g = gen.erdos_renyi(50, 3.5, seed=61)
        wg = with_random_weights(g, 1, 7, integer=True, seed=62)
        clean, _ = sssp_engine(wg, source=0, num_hosts=HOSTS)
        ctx = ResilienceContext(plan=crash_plan(4), mode="repair")
        dist, res = sssp_engine(
            wg, source=0, num_hosts=HOSTS, resilience=ctx
        )
        assert ctx.crash_restarts >= 1
        assert np.array_equal(dist, clean)
        assert res.run.recovery_rounds >= 1


class TestCheckpointStore:
    def test_memory_round_trip_is_isolated(self):
        store = CheckpointStore()
        arr = np.arange(5, dtype=np.float64)
        store.save("t0", {"kind": "x", "n": 5}, {"a": arr})
        arr[0] = 99.0  # mutating the caller's array must not leak in
        meta, arrays = store.load("t0")
        assert meta == {"kind": "x", "n": 5}
        assert arrays["a"][0] == 0.0
        arrays["a"][1] = 77.0  # nor mutating the loaded copy leak back
        _, again = store.load("t0")
        assert again["a"][1] == 1.0

    def test_disk_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("batch0", {"kind": "y"}, {"b": np.ones(3)})
        assert store.latest() == "batch0"
        meta, arrays = store.load("batch0")
        assert meta["kind"] == "y"
        assert np.array_equal(arrays["b"], np.ones(3))
        assert list(tmp_path.glob("*.ckpt.npz"))

    def test_checkpoint_file_round_trip(self, tmp_path):
        path = tmp_path / "c.npz"
        meta = {"kind": "bsp", "round": 7, "fires": [[1, 2], [3, 4]]}
        arrays = {"d": np.array([1.5, 2.5]), "i": np.arange(4)}
        save_checkpoint(path, meta, arrays)
        m2, a2 = load_checkpoint(path)
        assert m2 == meta
        assert np.array_equal(a2["d"], arrays["d"])
        assert np.array_equal(a2["i"], arrays["i"])


class TestCheckpointHardening:
    """Atomic save, digest verification, older-tag fallback, retention."""

    def test_corrupt_disk_snapshot_raises(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("t0", {"kind": "x"}, {"a": np.arange(4.0)})
        path = tmp_path / "t0.ckpt.npz"
        path.write_bytes(b"not an npz archive")
        with pytest.raises(CheckpointCorruptError) as exc:
            store.load("t0")
        assert exc.value.tag == "t0"

    def test_tampered_memory_snapshot_fails_digest(self):
        store = CheckpointStore()
        store.save("t0", {"kind": "x"}, {"a": np.arange(4.0)})
        store._mem["t0"][1]["a"][0] = 99.0  # bit rot, simulated
        with pytest.raises(CheckpointCorruptError, match="digest mismatch"):
            store.load("t0")

    def test_crash_during_save_preserves_previous_snapshot(
        self, tmp_path, monkeypatch
    ):
        import repro.engine.persist as persist

        store = CheckpointStore(tmp_path)
        store.save("t0", {"v": 1}, {"a": np.zeros(3)})

        real_save = persist.save_checkpoint

        def dying_save(path, meta, arrays):
            real_save(path, meta, arrays)  # tmp file fully written...
            raise OSError("host died before rename")  # ...but never renamed

        monkeypatch.setattr(persist, "save_checkpoint", dying_save)
        with pytest.raises(OSError):
            store.save("t0", {"v": 2}, {"a": np.ones(3)})
        monkeypatch.undo()

        # The failed save left no temp debris and the old snapshot loads.
        assert list(tmp_path.glob("*.tmp.npz")) == []
        meta, arrays = store.load("t0")
        assert meta == {"v": 1}
        assert np.array_equal(arrays["a"], np.zeros(3))

    def test_crash_before_first_save_commits_no_tag(self, tmp_path, monkeypatch):
        import repro.engine.persist as persist

        store = CheckpointStore(tmp_path)
        monkeypatch.setattr(
            persist,
            "save_checkpoint",
            lambda *a: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError):
            store.save("t0", {"v": 1}, {"a": np.zeros(2)})
        assert store.tags() == []
        assert store.latest() is None

    def test_load_latest_falls_back_over_corrupt_tag(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save("r1", {"round": 1}, {"a": np.full(3, 1.0)})
        store.save("r2", {"round": 2}, {"a": np.full(3, 2.0)})
        (tmp_path / "r2.ckpt.npz").write_bytes(b"garbage")
        tag, meta, arrays = store.load_latest()
        assert tag == "r1"
        assert meta == {"round": 1}
        assert np.array_equal(arrays["a"], np.full(3, 1.0))
        # The corrupt tag is discarded from the order, so the next
        # load_latest doesn't re-probe it.
        assert store.tags() == ["r1"]

    def test_load_latest_all_corrupt_raises(self):
        store = CheckpointStore()
        store.save("t0", {"v": 1}, {"a": np.zeros(2)})
        store._mem["t0"][1]["a"][0] = 5.0
        with pytest.raises(CheckpointCorruptError):
            store.load_latest()
        with pytest.raises(KeyError):
            store.load_latest()  # now empty

    def test_retention_prunes_oldest(self, tmp_path):
        store = CheckpointStore(tmp_path, retention=2)
        for i in range(4):
            store.save(f"r{i}", {"round": i}, {"a": np.full(2, float(i))})
        assert store.tags() == ["r2", "r3"]
        assert sorted(p.name for p in tmp_path.glob("*.ckpt.npz")) == [
            "r2.ckpt.npz",
            "r3.ckpt.npz",
        ]
        with pytest.raises(KeyError):
            store.load("r0")

    def test_legacy_snapshot_without_digest_loads(self, tmp_path):
        # Pre-hardening archives carry no digest: they load unverified.
        path = tmp_path / "old.ckpt.npz"
        save_checkpoint(path, {"kind": "legacy"}, {"a": np.arange(3.0)})
        store = CheckpointStore(tmp_path)
        store._order.append("old")
        meta, arrays = store.load("old")
        assert meta == {"kind": "legacy"}
        assert np.array_equal(arrays["a"], np.arange(3.0))

    def test_bsp_restores_from_older_tag_when_newest_is_corrupt(self):
        """End to end: a BSP crash whose newest checkpoint is damaged
        restores from the previous retained tag and still recovers the
        exact result."""
        from repro.engine.bsp import sssp_engine
        from repro.graph.weighted import with_random_weights

        g = gen.erdos_renyi(50, 3.5, seed=61)
        wg = with_random_weights(g, 1, 7, integer=True, seed=62)
        clean, _ = sssp_engine(wg, source=0, num_hosts=HOSTS)

        class NewestCorruptStore(CheckpointStore):
            """Damages the newest snapshot the moment the crash hits."""

            def load_latest(self):
                newest = self.latest()
                if newest is not None and newest in self._mem:
                    self._mem[newest][1]["master_dist"][0] = -1.0
                return super().load_latest()

        from repro.resilience.supervisor import RecoveryPolicy

        ctx = ResilienceContext(plan=crash_plan(6), mode="repair")
        ctx.checkpoints = NewestCorruptStore()
        # Dense cadence so at least two tags are retained at crash time.
        RecoveryPolicy(name="dense-ckpt", checkpoint_interval=2).configure(ctx)
        dist, res = sssp_engine(wg, source=0, num_hosts=HOSTS, resilience=ctx)
        assert ctx.crash_restarts >= 1
        assert len(ctx.checkpoints.tags()) >= 1
        assert np.array_equal(dist, clean)


# -- invariants ----------------------------------------------------------------


def checked_rig(mode):
    """A master rig and a checker that has recorded rounds 1–3.

    Batch sources 0 and 1 fire in round 1.  Vertex 5 then holds a fired
    entry (1, 0) with σ 2, fired in round 2, and an unfired entry (2, 1)
    with σ 3, due in round 4.
    """
    ctx = ResilienceContext(mode=mode)
    chk = InvariantChecker(mode, ctx)
    rig = MasterRig(batch=[0, 1])
    rig.contribute(5, 0, host=1, d=1, sigma=2.0)
    rig.contribute(5, 1, host=1, d=2, sigma=3.0)
    for rnd in (1, 2, 3):
        rig.fire(rnd)
        chk.check_master_round(rnd, rig.ex.masters)
    assert rig.taus(5) == {0: 2}
    return rig, chk, ctx


def write(column, at, value):
    """A tamper that writes one value into a master column."""
    def tamper(rig):
        getattr(rig.ex.masters, column)[at] = value
    return tamper


def report(gid, si, host, d, sigma):
    """A tamper that goes through the inbox merge: a bad report, which
    also moves the master's maintained ``head`` and ``unfired``."""
    return lambda rig: rig.contribute(gid, si, host=host, d=d, sigma=sigma)


#: One fault in :func:`checked_rig`'s state per case, and the invariant
#: it breaks.  Source 1's seed at vertex 1 fired in round 1, so a new
#: entry (0, 0) there sorts below it.
TAMPERS = {
    "fired-distance": (write("ent_d", (0, 5), 0), "sent_prefix_immutability"),
    "fired-tau": (write("tau", (0, 5), 9), "sent_prefix_immutability"),
    "fired-unset": (write("fired", (0, 5), False), "sent_prefix_immutability"),
    "entry-below-prefix": (write("ent_d", (1, 5), 0), "sent_prefix_immutability"),
    "report-below-prefix": (report(5, 1, 2, 0, 1.0), "sent_prefix_immutability"),
    "new-entry-below-prefix": (report(1, 0, 1, 0, 1.0), "sent_prefix_immutability"),
    "sent-prefix": (write("sent_prefix", 5, 2), "sent_prefix_immutability"),
    "sigma-shrinks": (write("best_sigma", (1, 5), 1.0), "sigma_monotonicity"),
    "report-sigma-shrinks": (report(5, 1, 1, 2, 1.0), "sigma_monotonicity"),
    "distance-grows": (write("ent_d", (1, 5), 3), "sigma_monotonicity"),
}


def master_state(M):
    """Copies of the master columns a repair may write."""
    return {
        name: getattr(M, name).copy()
        for name in ("ent_d", "best_sigma", "fired", "tau", "sent_prefix")
    }


class TestInvariants:
    """The round invariants on a real executor's ``MasterColumns``."""

    def test_detect_raises_on_prefix_mutation(self):
        rig, chk, ctx = checked_rig("detect")
        rig.ex.masters.ent_d[0, 5] = 0  # tamper with the fired prefix
        with pytest.raises(InvariantViolation) as exc:
            chk.check_master_round(4, rig.ex.masters)
        assert ctx.invariant_violations["sent_prefix_immutability"] == 1
        assert str(exc.value).endswith(
            "fired prefix of vertex 5 changed from [(1, 0)] to [(0, 0)]"
        )

    def test_detect_raises_on_sigma_regression(self):
        rig, chk, ctx = checked_rig("detect")
        rig.ex.masters.best_sigma[1, 5] = 1.0  # σ shrank at the same distance
        with pytest.raises(InvariantViolation) as exc:
            chk.check_master_round(4, rig.ex.masters)
        assert dict(ctx.invariant_violations) == {"sigma_monotonicity": 1}
        assert str(exc.value).endswith(
            "label of (v=5, s=1) regressed from (d=2, σ=3.0) to (d=2, σ=1.0)"
        )

    @pytest.mark.parametrize("case", sorted(TAMPERS))
    def test_detect_raises_on_each_tamper(self, case):
        tamper, invariant = TAMPERS[case]
        rig, chk, ctx = checked_rig("detect")
        tamper(rig)
        with pytest.raises(InvariantViolation) as exc:
            chk.check_master_round(4, rig.ex.masters)
        assert exc.value.invariant == invariant
        assert dict(ctx.invariant_violations) == {invariant: 1}

    def test_untampered_round_passes(self):
        rig, chk, ctx = checked_rig("detect")
        assert rig.fire(4) == [(5, 1, 2, 3.0)]
        chk.check_master_round(4, rig.ex.masters)
        assert not ctx.invariant_violations

    def test_repair_rolls_back_prefix(self):
        rig, chk, ctx = checked_rig("repair")
        M = rig.ex.masters
        M.ent_d[0, 5] = 0
        chk.check_master_round(4, M)  # repaired, no raise
        assert rig.entries(5) == [(1, 0), (2, 1)]
        assert ctx.recovered_by_kind.get("state_rollback", 0) == 1

    @pytest.mark.parametrize("case", sorted(TAMPERS))
    def test_repair_restores_recorded_values(self, case):
        tamper, invariant = TAMPERS[case]
        rig, chk, ctx = checked_rig("repair")
        M = rig.ex.masters
        before = master_state(M)
        tamper(rig)
        chk.check_master_round(4, M)
        for name, got in master_state(M).items():
            assert got.tobytes() == before[name].tobytes(), name
        head, unfired = dense_schedule(M)
        assert np.array_equal(M.head, head)
        assert np.array_equal(M.unfired, unfired)
        assert dict(ctx.invariant_violations) == {invariant: 1}
        assert dict(ctx.recovered_by_kind) == {"state_rollback": 1}
        # The repaired state is the record: the next round passes.
        assert rig.fire(4) == [(5, 1, 2, 3.0)]
        chk.check_master_round(4, M)
        assert dict(ctx.invariant_violations) == {invariant: 1}

    def test_schedule_violation_not_repairable(self):
        rig, chk, ctx = checked_rig("repair")
        rig.fire(4)
        rig.ex.masters.tau[1, 5] = 9  # fired off schedule: cannot roll back
        with pytest.raises(InvariantViolation) as exc:
            chk.check_master_round(4, rig.ex.masters)
        assert exc.value.invariant == "timestamp_schedule"
        assert str(exc.value).endswith(
            "vertex 5 entry (2, 1) at position 1 fired in round 9, schedule says 4"
        )
        assert not ctx.recovered_by_kind

    def test_engine_repair_rolls_back_once(self, monkeypatch):
        # Guard off, so a corrupted report reaches the master and σ of
        # one cell regresses.  The rollback writes the recorded value
        # back into the columns, so the regression is reported once and
        # the cell keeps that value to the end of the batch — here the
        # value the corruption left (σ 2.5; Brandes gives 2.0): repair
        # restores the last recorded state, it does not judge it.
        seen = []
        record = ResilienceContext.record_invariant_violation

        def spy(self, invariant, rnd, detail, repaired):
            seen.append((invariant, detail, repaired))
            return record(self, invariant, rnd, detail, repaired)

        monkeypatch.setattr(ResilienceContext, "record_invariant_violation", spy)
        ctx = ResilienceContext(
            plan=get_plan("corrupt", seed=1), mode="off", invariants="repair"
        )
        res = mrbc_engine(
            gen.from_spec("er:60:3"), sources=range(12), batch_size=6,
            num_hosts=4, resilience=ctx,
        )
        assert dict(ctx.invariant_violations) == {"sigma_monotonicity": 1}
        assert dict(ctx.recovered_by_kind) == {"state_rollback": 1}
        [(_name, detail, repaired)] = seen
        assert repaired
        v, s, d, sigma = re.fullmatch(
            r"label of \(v=(\d+), s=(\d+)\) regressed from "
            r"\(d=(\d+), σ=([\d.]+)\) to .*", detail
        ).groups()
        # Batch 0 holds sources 0-5, so batch slot s is result row s.
        assert res.dist[int(s), int(v)] == int(d)
        assert res.sigma[int(s), int(v)] == float(sigma)


# -- MRBC forward checkpoints ------------------------------------------------------


def forward_executor(mid_forward):
    """A batch executor with master state to checkpoint: after a whole
    forward phase, or mid-forward with fired and unfired entries."""
    if mid_forward:
        rig = MasterRig(batch=[0, 1])
        rig.contribute(5, 0, host=1, d=1, sigma=2.0)
        rig.contribute(5, 1, host=2, d=2, sigma=3.0)
        rig.contribute(6, 1, host=2, d=2, sigma=2.0**53)
        rig.fire(1)
        rig.fire(2)
        return rig.ex
    pg = partition_graph(gen.from_spec("er:60:3"), 3, "cvc")
    ex = _ArrayBatchExecutor(
        pg, GluonArrayPlane(pg), EngineRun(num_hosts=3),
        np.array([0, 4, 9], dtype=np.int64), True,
    )
    ex.run_forward()
    return ex


def fresh_twin(ex, batch=None):
    """A newly built executor for the same partition (and batch)."""
    return _ArrayBatchExecutor(
        ex.pg, GluonArrayPlane(ex.pg), EngineRun(num_hosts=ex.H),
        ex.batch if batch is None else np.asarray(batch, dtype=np.int64), True,
    )


class TestMRBCForwardCheckpoint:
    @pytest.mark.parametrize("mid_forward", [False, True], ids=["post", "mid"])
    @pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "disk"])
    def test_restore_is_bit_identical(self, mid_forward, on_disk, tmp_path):
        ex = forward_executor(mid_forward)
        store = CheckpointStore(tmp_path if on_disk else None)
        store.save("fwd", *mrbc_forward_snapshot(ex))
        meta, arrays = store.load("fwd")
        assert meta == {"kind": "mrbc-forward", "batch": ex.batch.tolist()}
        fresh = fresh_twin(ex)
        restore_mrbc_forward(fresh, meta, arrays)
        M, R = ex.masters, fresh.masters
        pairs = [(getattr(M, c), getattr(R, c)) for c in MasterColumns.STATE]
        pairs += [
            (ex.arena.fin_dist, fresh.arena.fin_dist),
            (ex.arena.fin_sigma, fresh.arena.fin_sigma),
        ]
        for want, got in pairs:
            assert got.dtype == want.dtype
            if want.dtype == np.float64:
                want, got = want.view(np.int64), got.view(np.int64)
            assert np.array_equal(got, want)
        assert R.master_order == M.master_order
        head, unfired = dense_schedule(R)
        assert np.array_equal(R.head, head)
        assert np.array_equal(R.unfired, unfired)
        assert np.array_equal(R.head, M.head)
        assert fresh.delta is None

    def test_different_batch_rejected(self):
        ex = forward_executor(mid_forward=True)
        meta, arrays = mrbc_forward_snapshot(ex)
        with pytest.raises(ValueError, match="different source batch"):
            restore_mrbc_forward(fresh_twin(ex, batch=[0, 2]), meta, arrays)

    @pytest.mark.parametrize("bad", [
        ("ent_d", "missing"),
        ("tau", "shape"),
        ("fin_sigma", "shape"),
        ("fired", "dtype"),
        ("best_sigma", "dtype"),
    ], ids=lambda b: "-".join(b))
    def test_malformed_array_rejected(self, bad):
        name, how = bad
        ex = forward_executor(mid_forward=True)
        meta, arrays = mrbc_forward_snapshot(ex)
        if how == "missing":
            del arrays[name]
        elif how == "shape":
            arrays[name] = arrays[name][:-1]
        else:
            arrays[name] = arrays[name].astype(np.float32)
        fresh = fresh_twin(ex)
        before = fresh.masters.ent_d.copy()
        with pytest.raises(ValueError, match=repr(name)):
            restore_mrbc_forward(fresh, meta, arrays)
        # Checked before any write.
        assert np.array_equal(fresh.masters.ent_d, before)

    def test_backward_crash_resumes_from_disk(self, tmp_path, monkeypatch):
        g = gen.from_spec("er:60:3")
        kw = dict(sources=range(6), batch_size=6, num_hosts=4)
        clean = mrbc_engine(g, **kw)
        fwd = clean.run.rounds_in_phase("forward")
        assert clean.run.rounds_in_phase("backward") > 2
        restores = []
        restore = mrbc_mod.restore_mrbc_forward

        def counted(*args):
            restores.append(args[1]["batch"])
            return restore(*args)

        monkeypatch.setattr(mrbc_mod, "restore_mrbc_forward", counted)
        ctx = ResilienceContext(
            plan=crash_plan(fwd + 2), mode="repair", checkpoint_dir=str(tmp_path)
        )
        res = mrbc_engine(g, resilience=ctx, **kw)
        assert ctx.crash_restarts == 1
        assert restores == [list(range(6))]
        assert [p.name for p in tmp_path.glob("*.ckpt.npz")] == [
            "batch0000-forward.ckpt.npz"
        ]
        assert np.array_equal(res.bc.view(np.int64), clean.bc.view(np.int64))
        assert np.array_equal(res.dist, clean.dist)
        assert np.array_equal(res.sigma.view(np.int64), clean.sigma.view(np.int64))


# -- persistence v2 ------------------------------------------------------------


def _toy_run(phases):
    run = EngineRun(num_hosts=2)
    for i, (phase, recovery) in enumerate(phases):
        rs = run.new_round(phase, recovery=recovery)
        rs.bytes_out[:] = (10 * (i + 1), 20 * (i + 1))
        rs.bytes_in[:] = rs.bytes_out[::-1]
        rs.pair_messages = i
        rs.items_synced = 2 * i
        rs.compute[0].vertex_ops = 3 * i
    return run


class TestPersistV2:
    def test_round_trip_preserves_custom_phases_and_recovery(self, tmp_path):
        run = _toy_run([
            ("forward", False),
            ("wavefront-sweep", False),  # not in the fixed v1 table
            ("forward", True),
            ("backward", False),
        ])
        path = tmp_path / "run.npz"
        save_run(run, path)
        back = load_run(path)
        assert [r.phase for r in back.rounds] == [
            "forward", "wavefront-sweep", "forward", "backward"
        ]
        assert [r.recovery for r in back.rounds] == [False, False, True, False]
        assert back.recovery_rounds == 1
        assert back.phases() == ["forward", "wavefront-sweep", "recovery",
                                 "backward"]
        assert back.total_bytes == run.total_bytes

    def test_v1_archives_still_load(self, tmp_path):
        from repro.engine.persist import _V1_PHASES

        run = _toy_run([("forward", False), ("backward", False)])
        path = tmp_path / "v1.npz"
        save_run(run, path)
        # Rewrite the archive as a v1 producer would have: fixed phase
        # table, no phase_names / recovery arrays.
        with np.load(path) as data:
            legacy = {k: data[k] for k in data.files
                      if k not in ("phase_names", "recovery", "version",
                                   "phases")}
            legacy["version"] = np.int64(1)
            legacy["phases"] = np.array(
                [_V1_PHASES.index("forward"), _V1_PHASES.index("backward")],
                dtype=np.int64,
            )
        np.savez_compressed(path, **legacy)
        back = load_run(path)
        assert [r.phase for r in back.rounds] == ["forward", "backward"]
        assert all(not r.recovery for r in back.rounds)

    def test_unknown_version_rejected(self, tmp_path):
        run = _toy_run([("forward", False)])
        path = tmp_path / "vX.npz"
        save_run(run, path)
        with np.load(path) as data:
            bad = {k: data[k] for k in data.files}
        bad["version"] = np.int64(99)
        np.savez_compressed(path, **bad)
        with pytest.raises(ValueError):
            load_run(path)


# -- reproducibility & accounting ---------------------------------------------


def _stripped(events):
    out = []
    for e in events:
        if e.kind not in ("fault", "recovery", "round"):
            continue
        attrs = {k: v for k, v in e.attrs.items() if k != "parent_id"}
        out.append((e.kind, e.name, attrs))
    return out


class TestReproducibility:
    def test_same_seed_bit_identical_event_stream(self, graph, sources):
        streams, summaries, rounds = [], [], []
        for _ in range(2):
            sink = obs.MemorySink()
            with obs.session(sink, model=ClusterModel(HOSTS)):
                report = run_under_faults(
                    "mrbc", graph, sources=sources, plan="duplicate",
                    mode="repair", num_hosts=HOSTS, batch_size=BATCH,
                )
            streams.append(_stripped(sink.events))
            summaries.append(report.resilience)
            rounds.append(report.rounds)
        assert streams[0] == streams[1]
        assert summaries[0] == summaries[1]
        assert rounds[0] == rounds[1]
        assert any(k == "fault" for k, _, _ in streams[0])
        assert any(k == "recovery" for k, _, _ in streams[0])

    def test_reseeded_plan_changes_injections(self, graph, sources):
        streams = []
        for seed in (1, 2):
            sink = obs.MemorySink()
            with obs.session(sink):
                report = run_under_faults(
                    "mrbc", graph, sources=sources,
                    plan=get_plan("drop", seed=seed), mode="repair",
                    num_hosts=HOSTS, batch_size=BATCH,
                )
            assert report.max_abs_error <= 1e-9
            streams.append(
                [(e.name, e.attrs) for e in sink.of_kind("fault")]
            )
        # Different seeds hit different channels/rounds (deterministically).
        assert streams[0] != streams[1]


class TestRecoveryAccounting:
    def test_time_by_phase_has_recovery_phase(self, graph, sources):
        ctx = ResilienceContext(plan=get_plan("drop"), mode="repair")
        res = mrbc_engine(
            graph, sources=sources, batch_size=BATCH, num_hosts=HOSTS,
            resilience=ctx,
        )
        assert ctx.recoveries >= 1
        split = ClusterModel(HOSTS).time_by_phase(res.run)
        assert "recovery" in split
        assert split["recovery"].total > 0
        assert res.run.recovery_rounds >= 1
        # The split still sums to the whole run.
        total = sum(t.total for t in split.values())
        assert total == pytest.approx(
            ClusterModel(HOSTS).time_run(res.run).total
        )

    def test_detection_latency_reported(self, graph, sources):
        report = run_under_faults(
            "mrbc", graph, sources=sources, plan="corrupt", mode="repair",
            num_hosts=HOSTS, batch_size=BATCH,
        )
        lat = report.resilience["detection_latency_rounds"]
        assert lat is not None and lat >= 0


# -- CLI -----------------------------------------------------------------------


class TestFaultsCLI:
    def test_repair_run_passes(self, capsys, tmp_path):
        from repro.cli import main

        rc = main([
            "faults", "drop", "--graph", "er:30:3", "--sources", "6",
            "--hosts", "4", "--out", str(tmp_path), "-q",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: PASS" in out
        assert (tmp_path / "manifest.json").exists()

    def test_detect_run_passes_by_aborting(self, capsys):
        from repro.cli import main

        rc = main([
            "faults", "corrupt", "--graph", "er:30:3", "--sources", "6",
            "--hosts", "4", "--mode", "detect", "-q",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FaultDetectedError" in out

    def test_json_plan_file(self, capsys, tmp_path):
        from repro.cli import main

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(get_plan("duplicate").to_dict()))
        rc = main([
            "faults", str(plan_file), "--graph", "er:30:3", "--sources",
            "6", "--hosts", "4", "-q",
        ])
        assert rc == 0
        assert "duplicate" in capsys.readouterr().out

    def test_backward_crash_plan_restores_a_checkpoint(self, capsys, monkeypatch):
        # The CI fault-matrix cell: the committed plan's crash lands past
        # MRBC's 15 forward rounds, so the batch resumes from its forward
        # checkpoint instead of restarting.
        from repro.cli import main

        restores = []
        restore = mrbc_mod.restore_mrbc_forward
        monkeypatch.setattr(
            mrbc_mod, "restore_mrbc_forward",
            lambda *args: restores.append(1) or restore(*args),
        )
        plan = Path(__file__).parent / "plans" / "crash-backward.json"
        rc = main([
            "faults", str(plan), "--algorithm", "mrbc", "--graph", "er:30:3",
            "--sources", "6", "--hosts", "4", "--mode", "repair", "-q",
        ])
        assert rc == 0
        assert "verdict: PASS" in capsys.readouterr().out
        assert restores == [1]

    def test_unknown_plan_errors(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["faults", "gremlins", "--graph", "er:30:3", "-q"])
