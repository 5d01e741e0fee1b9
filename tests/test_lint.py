"""repro.lint: per-rule fixtures, suppression mechanics, CLI, and the
static↔runtime cross-check.

Structure:

- one positive + one negative fixture snippet per shipped rule
  (``TestRuleFixtures``);
- pragma and baseline suppression, including the acceptance-criterion
  flips: removing a pragma / baseline entry turns the CLI exit non-zero
  (``TestSuppression``, ``TestCLI``);
- the ``--write-baseline`` prune report, which names each dropped entry
  as a rename or a retired rule (``TestBaselinePrune``);
- the dogfooding meta-test: ``repro lint src tests`` is clean against
  the committed baseline (``TestDogfood``);
- the cross-check: a schedule-violating MRBC master state is flagged
  *statically* by RL203 and *at runtime* by the InvariantChecker's
  ``timestamp_schedule`` invariant (``TestStaticRuntimeAgreement``).
"""

from __future__ import annotations

import json
from pathlib import Path
from textwrap import dedent

import pytest

import repro.core.mrbc as mrbc_mod
from repro.graph import generators as gen
from repro.lint import RULES, Baseline, ModuleInfo, lint_main, run_rules
from repro.lint.findings import Finding
from repro.lint.runner import lint_file, run_lint
from repro.resilience import ResilienceContext
from repro.resilience.errors import InvariantViolation

REPO_ROOT = Path(__file__).resolve().parent.parent


def findings_for(source: str, relpath: str = "src/repro/fake/mod.py"):
    mod = ModuleInfo(path=relpath, relpath=relpath, source=dedent(source))
    return run_rules(mod)


def codes(source: str, relpath: str = "src/repro/fake/mod.py") -> set[str]:
    return {f.code for f in findings_for(source, relpath)}


class TestRuleFixtures:
    # -- RL101: unordered iteration in emission scopes -------------------------

    def test_rl101_flags_set_iteration_feeding_sends(self):
        src = """
            def compute_sends(self, rnd):
                return [(u, ("msg", 1)) for u in self.active_set.union(others)]
        """
        assert "RL101" in codes(src)

    def test_rl101_flags_set_valued_local(self):
        src = """
            def stage(self, pending_items):
                targets = set(self.dirty)
                for t in targets:
                    pending_items.append(t)
        """
        assert "RL101" in codes(src)

    def test_rl101_passes_sorted_iteration(self):
        src = """
            def compute_sends(self, rnd):
                return [(u, ("msg", 1)) for u in sorted(self.active_set.union(others))]
        """
        assert "RL101" not in codes(src)

    def test_rl101_ignores_sets_outside_emission_scopes(self):
        src = """
            def summarize(self):
                return sum(1 for x in set(self.seen))
        """
        assert "RL101" not in codes(src)

    # -- RL102: unseeded randomness --------------------------------------------

    def test_rl102_flags_global_random(self):
        src = """
            import random
            def pick(xs):
                return random.choice(xs)
        """
        assert "RL102" in codes(src)

    def test_rl102_flags_unseeded_default_rng(self):
        src = """
            import numpy as np
            def make():
                return np.random.default_rng()
        """
        assert "RL102" in codes(src)

    def test_rl102_passes_seeded_default_rng(self):
        src = """
            import numpy as np
            def make(seed):
                return np.random.default_rng(seed)
        """
        assert "RL102" not in codes(src)

    def test_rl102_exempts_tests(self):
        src = """
            import random
            def pick(xs):
                return random.choice(xs)
        """
        assert "RL102" not in codes(src, relpath="tests/test_fake.py")

    # -- RL103: wall clocks ----------------------------------------------------

    def test_rl103_flags_wall_clock_in_engine(self):
        src = """
            import time
            def step():
                return time.perf_counter()
        """
        assert "RL103" in codes(src)

    def test_rl103_exempts_obs_layer(self):
        src = """
            import time
            def step():
                return time.perf_counter()
        """
        assert "RL103" not in codes(src, relpath="src/repro/obs/timing_helper.py")

    # -- RL201: unbounded CONGEST payloads -------------------------------------

    def test_rl201_flags_container_payload(self):
        src = """
            from repro.congest.network import VertexProgram
            class P(VertexProgram):
                def compute_sends(self, rnd):
                    return [(u, ("all", list(self.dists))) for u in self.nbrs]
        """
        assert "RL201" in codes(src)

    def test_rl201_passes_scalar_payload(self):
        src = """
            from repro.congest.network import VertexProgram
            class P(VertexProgram):
                def compute_sends(self, rnd):
                    return [(u, ("d", self.dist, self.sigma)) for u in self.nbrs]
        """
        assert "RL201" not in codes(src)

    # -- RL202: direct state mutation ------------------------------------------

    def test_rl202_flags_direct_handler_call(self):
        src = """
            def drive(net, msg):
                net.programs[3].handle_message(0, 1, msg)
        """
        assert "RL202" in codes(src)

    def test_rl202_flags_foreign_state_write(self):
        src = """
            from repro.congest.network import VertexProgram
            class P(VertexProgram):
                def poke(self, other):
                    other.sigma = 0.0
        """
        assert "RL202" in codes(src)

    def test_rl202_passes_self_mutation_and_message_sends(self):
        src = """
            from repro.congest.network import VertexProgram
            class P(VertexProgram):
                def handle_message(self, rnd, sender, payload):
                    self.sigma_total = self.sigma_total + payload[1]
        """
        assert "RL202" not in codes(src)

    # -- RL203: flat-map schedule ----------------------------------------------

    def test_rl203_flags_wrong_constant(self):
        src = """
            def next_fire(self, rnd):
                d, si = self.entries[self.sent_prefix]
                due = d + self.sent_prefix + 2
                return due == rnd
        """
        assert "RL203" in codes(src)

    def test_rl203_passes_alg3_schedule(self):
        src = """
            def next_fire(self, rnd):
                d, si = self.entries[self.sent_prefix]
                due = d + self.sent_prefix + 1
                return due == rnd
        """
        assert "RL203" not in codes(src)

    def test_rl203_ignores_alg5_reverse_timestamp(self):
        # A_sv = R - tau + 1 contains a Sub: opaque, not a schedule chain.
        src = """
            def accumulation_round(self, R, tau, d):
                return R - tau + 1 + d
        """
        assert "RL203" not in codes(src)

    # -- RL204: hand-rolled round loops ----------------------------------------

    def test_rl204_flags_hand_rolled_round_loop(self):
        src = """
            def drive(run, gluon, pending):
                rnd = 0
                while True:
                    rnd += 1
                    rs = run.new_round("forward")
                    gluon.reduce_to_masters(pending, 12, 1, rs)
                    if not pending:
                        break
                return rnd
        """
        assert "RL204" in codes(src)

    def test_rl204_flags_congest_driver_loop(self):
        src = """
            def drive_network(programs, rnd):
                for prog in programs:
                    sends = prog.compute_sends(rnd)
        """
        assert "RL204" in codes(src)

    def test_rl204_passes_runtime_step_callback(self):
        src = """
            def drive(runtime, gluon, pending):
                def step(rnd, rs):
                    gluon.reduce_to_masters(pending, 12, 1, rs)
                    return bool(pending)
                return runtime.run_loop("forward", step)
        """
        assert "RL204" not in codes(src)

    def test_rl204_exempts_the_runtime_itself(self):
        src = """
            def run_loop(self, phase, step):
                rnd = 0
                while True:
                    rnd += 1
                    rs = self.run.new_round(phase)
                    if not step(rnd, rs):
                        break
                return rnd
        """
        assert "RL204" not in codes(
            src, relpath="src/repro/runtime/superstep.py"
        )

    def test_rl204_allows_vertex_program_delegation(self):
        # A vertex program may call a sub-program's compute_sends while
        # assembling its own sends (e.g. APSP delegating to the finalizer).
        src = """
            class Outer(VertexProgram):
                def compute_sends(self, rnd):
                    sends = []
                    for sub in self.subprograms:
                        sends.extend(sub.compute_sends(rnd))
                    return sends
        """
        assert "RL204" not in codes(src)

    # -- RL301: proxy reads before sync ----------------------------------------

    def test_rl301_flags_read_without_sync(self):
        src = """
            def harvest(hosts):
                return [st.fin_dist.sum() for st in hosts]
        """
        assert "RL301" in codes(src)

    def test_rl301_passes_read_after_sync(self):
        src = """
            def backward(self, gluon, pending, rs):
                gluon.reduce_to_masters(pending, 12, 1, rs)
                return self.st.fin_dist.sum()
        """
        assert "RL301" not in codes(src)

    def test_rl301_allows_delivery_writes(self):
        src = """
            def deliver(st, rows, vals):
                st.fin_dist[rows] = vals
        """
        assert "RL301" not in codes(src)

    # -- RL401: resilience plumbing --------------------------------------------

    def test_rl401_flags_entry_point_without_resilience(self):
        src = """
            def sssp_engine(g, num_hosts=8):
                return None
        """
        assert "RL401" in codes(src)

    def test_rl401_passes_entry_point_with_resilience(self):
        src = """
            def sssp_engine(g, num_hosts=8, resilience=None):
                return None
        """
        assert "RL401" not in codes(src)

    # -- RL402: span/sink hygiene ----------------------------------------------

    def test_rl402_flags_leaked_sink(self):
        src = """
            from repro.obs import FileSink
            def record(path):
                sink = FileSink(path)
                sink.emit(None)
        """
        assert "RL402" in codes(src)

    def test_rl402_passes_session_ownership_and_with(self):
        src = """
            from repro import obs
            from repro.obs import FileSink
            def record(path):
                sink = FileSink(path)
                with obs.session(sink):
                    pass
                with FileSink(path) as s2:
                    s2.emit(None)
        """
        assert "RL402" not in codes(src)

    def test_rl402_flags_unentered_span(self):
        src = """
            def run(tele):
                tele.span("forward")
        """
        assert "RL402" in codes(src)

    def test_rl402_passes_with_span(self):
        src = """
            def run(tele):
                with tele.span("forward"):
                    pass
        """
        assert "RL402" not in codes(src)

    # -- RL403: ledger-bypassing emission --------------------------------------

    def test_rl403_flags_sync_on_raw_substrate(self):
        src = """
            def forward(substrate, pending, rs):
                return substrate.reduce_to_masters(pending, 8, 1, rs)
        """
        assert "RL403" in codes(src)

    def test_rl403_flags_direct_byte_accounting(self):
        src = """
            def charge(rs, h, nbytes):
                rs.bytes_out[h] += nbytes
        """
        assert "RL403" in codes(src)

    def test_rl403_flags_stats_record_outside_plane(self):
        src = """
            def account(stats, payloads):
                stats.record_channel(payloads)
        """
        assert "RL403" in codes(src)

    def test_rl403_passes_plane_receiver(self):
        src = """
            def forward(gluon, pending, rs):
                return gluon.reduce_to_masters(pending, 8, 1, rs)
        """
        assert "RL403" not in codes(src)

    def test_rl403_passes_accounting_chokepoints(self):
        src = """
            def _account(self, rs, sender, receiver, nbytes):
                rs.bytes_out[sender] += nbytes
                rs.bytes_in[receiver] += nbytes
        """
        assert "RL403" not in codes(src, relpath="src/repro/engine/gluon.py")

    # -- RL404: swallowed resilience errors ------------------------------------

    def test_rl404_flags_swallowed_crash(self):
        src = """
            def step(runtime):
                try:
                    runtime.run_round()
                except HostCrashError:
                    pass
        """
        assert "RL404" in codes(src)

    def test_rl404_flags_tuple_catch_logged_only(self):
        src = """
            def step(runtime, log):
                try:
                    runtime.run_round()
                except (ValueError, ResilienceError) as err:
                    log.warning("ignoring %s", err)
        """
        assert "RL404" in codes(src)

    def test_rl404_passes_reraise(self):
        src = """
            def step(runtime):
                try:
                    runtime.run_round()
                except HostCrashError:
                    raise
        """
        assert "RL404" not in codes(src)

    def test_rl404_passes_routed_crash(self):
        src = """
            def step(runtime, ctx, attempt):
                try:
                    runtime.run_round()
                except HostCrashError as err:
                    ctx.on_crash(err, attempt)
        """
        assert "RL404" not in codes(src)

    def test_rl404_passes_degradation_routing(self):
        src = """
            def unit(ctx, work, index, srcs):
                try:
                    return work()
                except ResilienceError as err:
                    ctx.note_degraded(index, srcs, err)
                    return None
        """
        assert "RL404" not in codes(src)

    def test_rl404_ignores_unrelated_exceptions(self):
        src = """
            def step(runtime):
                try:
                    runtime.run_round()
                except ValueError:
                    pass
        """
        assert "RL404" not in codes(src)

    def test_rl404_exempts_resilience_package_and_tests(self):
        src = """
            def execute(run):
                try:
                    run()
                except ResilienceError as err:
                    return str(err)
        """
        assert "RL404" not in codes(
            src, relpath="src/repro/resilience/harness.py"
        )
        assert "RL404" not in codes(src, relpath="tests/test_whatever.py")

    # -- RL405: shadow round accounting ----------------------------------------

    def test_rl405_flags_adhoc_round_counter(self):
        src = """
            def run_forward(self, gluon):
                rounds = 0
                while self.step(gluon):
                    rounds += 1
                return rounds
        """
        assert "RL405" in codes(src)

    def test_rl405_flags_attribute_round_counter(self):
        src = """
            def advance(self):
                self.round_count += 1
                return self.round_count
        """
        assert "RL405" in codes(src)

    def test_rl405_flags_frontier_tally(self):
        src = """
            def run(self):
                frontier_size = 0
                for fires in self.per_host_fires:
                    frontier_size += len(fires)
                return frontier_size
        """
        assert "RL405" in codes(src)

    def test_rl405_passes_accumulating_run_loop_returns(self):
        src = """
            def drive(self, runtime, step):
                fwd_rounds = 0
                fwd_rounds += runtime.run_loop("forward", step)
                return fwd_rounds
        """
        assert "RL405" not in codes(src)

    def test_rl405_passes_unrelated_counters(self):
        src = """
            def tally(items):
                attempts = 0
                for it in items:
                    attempts += 1
                return attempts
        """
        assert "RL405" not in codes(src)

    def test_rl405_exempts_runtime_obs_and_tests(self):
        src = """
            def run_loop(self, phase, step):
                rnd = 0
                while step(rnd):
                    rnd += 1
                return rnd
        """
        assert "RL405" not in codes(
            src, relpath="src/repro/runtime/superstep.py"
        )
        assert "RL405" not in codes(src, relpath="src/repro/obs/rounds.py")
        assert "RL405" not in codes(src, relpath="tests/test_whatever.py")

    # -- RL900: parse errors ---------------------------------------------------

    def test_rl900_on_syntax_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        active, _ = lint_file(bad, project_root=tmp_path)
        assert [f.code for f in active] == ["RL900"]

    def test_every_rule_has_fixture_coverage(self):
        """Acceptance criterion: each shipped rule flags >= 1 fixture here."""
        tested = {
            name.split("_")[1].upper()
            for name in dir(self)
            if name.startswith("test_rl")
        }
        assert set(RULES) <= tested


class TestSuppression:
    POSITIVE = """
        def compute_sends(self, rnd):
            return [(u, ("m", 1)) for u in set(self.nbrs)]
    """

    def _write(self, tmp_path: Path, source: str) -> Path:
        f = tmp_path / "src" / "mod.py"
        f.parent.mkdir(parents=True, exist_ok=True)
        f.write_text(dedent(source), encoding="utf-8")
        return f

    def test_trailing_pragma_suppresses(self, tmp_path):
        f = self._write(
            tmp_path,
            """
            def compute_sends(self, rnd):
                return [(u, ("m", 1)) for u in set(self.nbrs)]  # repro-lint: disable=RL101
            """,
        )
        active, suppressed = lint_file(f, project_root=tmp_path)
        assert active == []
        assert [s.code for s in suppressed] == ["RL101"]
        assert suppressed[0].suppressed_by == "pragma"

    def test_comment_line_above_pragma_suppresses(self, tmp_path):
        f = self._write(
            tmp_path,
            """
            def compute_sends(self, rnd):
                # repro-lint: disable=RL101 -- order irrelevant: payload is a constant
                return [(u, ("m", 1)) for u in set(self.nbrs)]
            """,
        )
        active, _ = lint_file(f, project_root=tmp_path)
        assert active == []

    def test_pragma_is_code_specific(self, tmp_path):
        f = self._write(
            tmp_path,
            """
            def compute_sends(self, rnd):
                return [(u, ("m", 1)) for u in set(self.nbrs)]  # repro-lint: disable=RL999
            """,
        )
        active, _ = lint_file(f, project_root=tmp_path)
        assert [f_.code for f_ in active] == ["RL101"]

    def test_baseline_suppresses_and_reports_stale(self, tmp_path):
        f = self._write(tmp_path, self.POSITIVE)
        found = run_lint([f], project_root=tmp_path)
        assert [x.code for x in found.active] == ["RL101"]

        baseline = Baseline.from_findings(found.active)
        again = run_lint([f], project_root=tmp_path, baseline=baseline)
        assert again.ok
        assert [s.suppressed_by for s in again.suppressed] == ["baseline"]
        assert again.stale_baseline == {}

        # Fix the finding: its baseline entry is reported stale.
        f.write_text(
            dedent(
                """
                def compute_sends(self, rnd):
                    return [(u, ("m", 1)) for u in sorted(set(self.nbrs))]
                """
            ),
            encoding="utf-8",
        )
        fixed = run_lint([f], project_root=tmp_path, baseline=baseline)
        assert fixed.ok and len(fixed.stale_baseline) == 1

    def test_fingerprint_survives_line_shift(self, tmp_path):
        f = self._write(tmp_path, self.POSITIVE)
        before = run_lint([f], project_root=tmp_path).active[0]
        f.write_text(
            "# a new leading comment\n\n" + dedent(self.POSITIVE),
            encoding="utf-8",
        )
        after = run_lint([f], project_root=tmp_path).active[0]
        assert before.line != after.line
        assert before.fingerprint() == after.fingerprint()


class TestCLI:
    def _project(self, tmp_path: Path, source: str) -> Path:
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\nbaseline = "lint-baseline.json"\n',
            encoding="utf-8",
        )
        f = tmp_path / "src" / "mod.py"
        f.parent.mkdir(parents=True)
        f.write_text(dedent(source), encoding="utf-8")
        return f

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        self._project(tmp_path, "def fine():\n    return 1\n")
        assert lint_main([str(tmp_path / "src")]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self._project(tmp_path, TestSuppression.POSITIVE)
        assert lint_main([str(tmp_path / "src")]) == 1
        out = capsys.readouterr().out
        assert "RL101" in out and "FAIL" in out

    def test_write_baseline_then_clean_then_flip(self, tmp_path, capsys):
        """Acceptance criterion: removing a baseline entry flips the exit."""
        self._project(tmp_path, TestSuppression.POSITIVE)
        src_dir = str(tmp_path / "src")
        assert lint_main([src_dir, "--write-baseline"]) == 0
        baseline_path = tmp_path / "lint-baseline.json"
        assert baseline_path.is_file()
        capsys.readouterr()

        assert lint_main([src_dir]) == 0  # baselined -> PASS

        data = json.loads(baseline_path.read_text(encoding="utf-8"))
        data["findings"] = {}
        baseline_path.write_text(json.dumps(data), encoding="utf-8")
        assert lint_main([src_dir]) == 1  # entry removed -> FAIL

    def test_removing_pragma_flips_exit(self, tmp_path, capsys):
        f = self._project(
            tmp_path,
            """
            def compute_sends(self, rnd):
                return [(u, ("m", 1)) for u in set(self.nbrs)]  # repro-lint: disable=RL101
            """,
        )
        src_dir = str(tmp_path / "src")
        assert lint_main([src_dir]) == 0
        f.write_text(
            f.read_text(encoding="utf-8").replace(
                "  # repro-lint: disable=RL101", ""
            ),
            encoding="utf-8",
        )
        assert lint_main([src_dir]) == 1

    def test_json_format(self, tmp_path, capsys):
        self._project(tmp_path, TestSuppression.POSITIVE)
        assert lint_main([str(tmp_path / "src"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is False
        assert [f["code"] for f in payload["findings"]] == ["RL101"]
        assert "RL101" in payload["rules"]

    def test_select_and_disable(self, tmp_path, capsys):
        self._project(tmp_path, TestSuppression.POSITIVE)
        src_dir = str(tmp_path / "src")
        assert lint_main([src_dir, "--select", "RL203"]) == 0
        assert lint_main([src_dir, "--disable", "RL101"]) == 0
        assert lint_main([src_dir, "--select", "RL101"]) == 1

    def test_config_disable_respected(self, tmp_path, capsys):
        self._project(tmp_path, TestSuppression.POSITIVE)
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\ndisable = ["RL101"]\n', encoding="utf-8"
        )
        assert lint_main([str(tmp_path / "src")]) == 0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_list_rules_is_exactly_the_per_file_registry(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "RL101", "RL102", "RL103",
            "RL201", "RL202", "RL203", "RL204",
            "RL301",
            "RL401", "RL402", "RL403", "RL404", "RL405",
            "RL900",
        ]

    def test_main_cli_dispatches_lint(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        assert "RL101" in capsys.readouterr().out


# -- --write-baseline prune report ---------------------------------------------


def make_project(root: Path) -> Path:
    (root / "pyproject.toml").write_text(
        '[tool.repro-lint]\nbaseline = "lint-baseline.json"\n',
        encoding="utf-8",
    )
    pkg = root / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (root / "src" / "repro" / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "clean.py").write_text(
        dedent(
            """
            def tidy(x):
                return x + 1
            """
        ),
        encoding="utf-8",
    )
    (pkg / "dirty.py").write_text(
        dedent(
            """
            import time

            def stamp():
                return time.time()
            """
        ),
        encoding="utf-8",
    )
    return root


class TestBaselinePrune:
    def test_prune_reports_renames_and_retired_rules(self, tmp_path, monkeypatch, capsys):
        root = make_project(tmp_path)
        monkeypatch.chdir(root)

        stale_rename = Finding(
            code="RL103",
            severity="error",
            path="src/repro/core/old_name.py",
            line=3,
            col=5,
            message="time.time() reads the wall clock",
            symbol="stamp",
        )
        retired = Finding(
            code="RL999",
            severity="error",
            path="src/repro/core/dirty.py",
            line=1,
            col=1,
            message="some finding of a rule that no longer exists",
            symbol="stamp",
        )
        old = Baseline.from_findings([stale_rename, retired])
        old.dump(root / "lint-baseline.json")

        assert lint_main(["src", "--write-baseline"]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 stale baseline entr" in out
        assert "rule retired" in out and "RL999" in out
        assert "finding fixed or renamed" in out and "old_name.py" in out

        new = Baseline.load(root / "lint-baseline.json")
        assert all(e["code"] == "RL103" for e in new.entries.values())
        assert not any(
            "old_name.py" in str(e["where"]) for e in new.entries.values()
        )


class TestDogfood:
    def test_src_and_tests_clean_against_committed_baseline(self, capsys):
        """The acceptance meta-test: `repro lint src tests` exits 0."""
        rc = lint_main(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
        )
        out = capsys.readouterr().out
        assert rc == 0, f"repro lint found new issues:\n{out}"

    def test_committed_baseline_parses(self):
        baseline = Baseline.load(REPO_ROOT / "lint-baseline.json")
        assert isinstance(baseline.entries, dict)


#: An off-by-one scheduler: fires entries one round late.  Statically this
#: is exactly what RL203 flags (``d + sent_prefix + 2``); at runtime the
#: recorded τ violates ``τ = d + pos + 1`` and the InvariantChecker's
#: ``timestamp_schedule`` check must catch it.
LATE_FIRE_SRC = """
    def next_fire(self, rnd):
        d, si = self.entries[self.sent_prefix]
        due = d + self.sent_prefix + 2
        if due == rnd:
            self.sent_prefix += 1
            self.tau[si] = rnd
            return d, si, self.best[si][1]
        return None
"""


_ORIG_EMIT_FIRES = mrbc_mod._ArrayBatchExecutor._emit_fires


def _late_emit_fires(self, rnd, rs):
    """The same off-by-one in the executor's fire path.

    Every list position reads one too high while the send rule runs, so
    ``d + sent_prefix + 1`` becomes ``d + sent_prefix + 2``: each entry
    fires, and is stamped, one round late.
    """
    self.masters.sent_prefix += 1
    try:
        return _ORIG_EMIT_FIRES(self, rnd, rs)
    finally:
        self.masters.sent_prefix -= 1


class TestStaticRuntimeAgreement:
    """One violation, caught by both layers (ISSUE 4's cross-check)."""

    def test_static_rl203_flags_broken_schedule(self):
        assert "RL203" in codes(LATE_FIRE_SRC)
        assert "RL203" not in codes(LATE_FIRE_SRC.replace("+ 2", "+ 1"))

    def test_runtime_invariant_checker_flags_same_schedule(self, monkeypatch):
        g = gen.erdos_renyi(30, 3.0, seed=7)
        ctx = ResilienceContext(plan=None, mode="detect")
        monkeypatch.setattr(
            mrbc_mod._ArrayBatchExecutor, "_emit_fires", _late_emit_fires
        )
        with pytest.raises(InvariantViolation) as exc:
            mrbc_mod.mrbc_engine(
                g,
                sources=[0, 1, 2, 3],
                batch_size=4,
                num_hosts=2,
                resilience=ctx,
            )
        assert exc.value.invariant == "timestamp_schedule"

    def test_correct_schedule_passes_both_layers(self):
        g = gen.erdos_renyi(30, 3.0, seed=7)
        ctx = ResilienceContext(plan=None, mode="detect")
        res = mrbc_mod.mrbc_engine(
            g, sources=[0, 1, 2, 3], batch_size=4, num_hosts=2, resilience=ctx
        )
        assert res.bc is not None
