"""Tests for the performance-observability layer (PR 3).

Covers the bench trajectory (determinism, snapshot schema, regression
gating, CLI exit codes), the phase-scoped profiler (opt-in contract,
cProfile/tracemalloc digests), the trace analytics (straggler
attribution, run diffing), the Chrome trace-event exporter, and the
satellite changes (git_sha caching, FileSink flush/close, histogram
percentiles, ``--format json``).
"""

import json

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.cluster.model import ClusterModel
from repro.core.mrbc import mrbc_engine
from repro.graph.generators import erdos_renyi, from_spec
from repro.obs import bench
from repro.obs.events import Event
from repro.obs.metrics import Histogram, MetricsRegistry, quantile
from repro.obs.profile import PhaseProfiler, aggregate_profile_events
from repro.obs.sinks import FileSink, MemorySink, NullSink
from repro.runspec import RunSpec
from repro.analysis.tracediff import (
    diff_runs,
    load_run,
    phase_stragglers,
    render_run_diff,
    render_stragglers,
)

MINI_SUITE = (
    RunSpec("mini-er30", "mrbc", "er:30:3", hosts=2, sources=4, batch=4),
    RunSpec("mini-sbbc30", "sbbc", "er:30:3", hosts=2, sources=4, batch=16),
)


def record_run(profile=None, hosts=2, model=True):
    """Record one small mrbc run; returns (events, telemetry, result)."""
    g = erdos_renyi(30, 3.0, seed=5)
    sink = MemorySink()
    m = ClusterModel(hosts) if model else None
    with obs.session(sink, model=m, profile=profile) as tele:
        with tele.span("run:mrbc", kind="run"):
            res = mrbc_engine(g, sources=[0, 1, 2, 3], batch_size=4,
                              num_hosts=hosts)
    return sink.events, tele, res


# -- quantile / percentile helpers ----------------------------------------------


class TestQuantile:
    def test_median_and_iqr(self):
        vals = [4.0, 1.0, 3.0, 2.0, 5.0]
        assert quantile(vals, 0.5) == 3.0
        assert quantile(vals, 0.0) == 1.0
        assert quantile(vals, 1.0) == 5.0

    def test_interpolates(self):
        assert quantile([1.0, 2.0], 0.5) == 1.5

    def test_single_sample(self):
        assert quantile([7.0], 0.9) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            quantile([], 0.5)

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            quantile([1.0], 1.5)


class TestHistogramPercentile:
    def test_empty_is_zero(self):
        assert Histogram("h").percentile(0.5) == 0.0

    def test_bounds_clamped_to_observed_range(self):
        h = Histogram("h")
        for v in (10.0, 12.0, 14.0):
            h.observe(v)
        assert 10.0 <= h.percentile(0.5) <= 14.0
        assert h.percentile(1.0) == 14.0

    def test_monotone_in_q(self):
        h = Histogram("h")
        for v in range(1, 200, 3):
            h.observe(float(v))
        ps = [h.percentile(q / 10) for q in range(11)]
        assert ps == sorted(ps)
        # Rough accuracy: the median of 1..199 must land mid-range.
        assert 60 <= h.percentile(0.5) <= 140

    def test_bad_q_rejected(self):
        with pytest.raises(ValueError, match="percentile"):
            Histogram("h").percentile(-0.1)


class TestMetricsSummary:
    def test_rows_for_each_series_kind(self):
        reg = MetricsRegistry()
        reg.counter("c", phase="x").inc(3)
        reg.gauge("g").set(1.5)
        for v in (1.0, 2.0, 3.0, 4.0):
            reg.histogram("h").observe(v)
        rows = {(r["name"], r["type"]): r for r in reg.summary()}
        assert rows[("c", "counter")]["value"] == 3
        assert rows[("c", "counter")]["labels"] == {"phase": "x"}
        assert rows[("g", "gauge")]["value"] == 1.5
        h = rows[("h", "histogram")]
        assert h["count"] == 4
        assert h["mean"] == 2.5
        assert h["max"] == 4.0
        assert 1.0 <= h["p50"] <= 4.0


# -- FileSink flush / close / reopen --------------------------------------------


class TestFileSink:
    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with FileSink(path) as sink:
            sink.emit(Event(kind="log", name="x", seq=1))
        assert sink._fh is None
        assert len(obs.read_events(path)) == 1

    def test_flush_makes_prefix_durable(self, tmp_path):
        # Simulating a crashed run: events must be on disk *before* close.
        path = tmp_path / "ev.jsonl"
        sink = FileSink(path, flush_every=100)
        sink.emit(Event(kind="log", name="a", seq=1))
        assert path.read_text() == ""  # buffered
        sink.flush()
        assert len(obs.read_events(path)) == 1
        sink.close()

    def test_default_flushes_every_event(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        sink = FileSink(path)
        sink.emit(Event(kind="log", name="a", seq=1))
        sink.emit(Event(kind="log", name="b", seq=2))
        assert len(obs.read_events(path)) == 2  # readable pre-close
        sink.close()

    def test_emit_after_close_rejected(self, tmp_path):
        sink = FileSink(tmp_path / "ev.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            sink.emit(Event(kind="log", name="x", seq=1))

    def test_reopen_truncates(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with FileSink(path) as sink:
            sink.emit(Event(kind="log", name="old", seq=1))
        with FileSink(path) as sink:
            sink.emit(Event(kind="log", name="new", seq=1))
        events = obs.read_events(path)
        assert [e.name for e in events] == ["new"]

    def test_bad_flush_every_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="flush_every"):
            # Constructor raises before a file handle exists; nothing leaks.
            FileSink(tmp_path / "ev.jsonl", flush_every=0)  # repro-lint: disable=RL402


# -- git_sha caching -------------------------------------------------------------


class TestGitShaCache:
    def test_subprocess_called_once(self, monkeypatch):
        from repro.obs import manifest as man_mod

        calls = {"n": 0}
        real_run = man_mod.subprocess.run

        def counting_run(*args, **kwargs):
            calls["n"] += 1
            return real_run(*args, **kwargs)

        monkeypatch.setattr(man_mod.subprocess, "run", counting_run)
        first = man_mod.git_sha(refresh=True)  # repopulate under the counter
        assert calls["n"] == 1
        assert man_mod.git_sha() == first
        assert man_mod.git_sha() == first
        assert calls["n"] == 1  # cached: no further subprocess calls
        man_mod.git_sha(refresh=True)
        assert calls["n"] == 2


# -- manifest forward-compat ------------------------------------------------------


class TestManifestForwardCompat:
    def test_version_2_rejected_with_clear_message(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"version": 2, "algorithm": "mrbc"}))
        with pytest.raises(ValueError) as exc:
            obs.load_manifest(path)
        msg = str(exc.value)
        assert "2" in msg and str(obs.MANIFEST_VERSION) in msg


# -- bench: snapshots, determinism, gating ----------------------------------------


class TestBenchSnapshot:
    def test_document_schema(self):
        doc = bench.run_suite(MINI_SUITE[:1], repeats=2, warmup=0,
                              suite_name="mini")
        assert doc["bench_version"] == bench.BENCH_VERSION
        assert doc["suite"] == "mini"
        assert "hostname" in doc["environment"]
        (case,) = doc["cases"]
        assert case["name"] == "mini-er30"
        det = case["deterministic"]
        for f in ("rounds", "bytes", "pair_messages", "items_synced",
                  "sim_total_s"):
            assert f in det
        assert len(case["wall_s"]["samples"]) == 2
        assert case["wall_s"]["median"] > 0

    def test_deterministic_view_byte_identical_across_runs(self):
        a = bench.run_suite(MINI_SUITE, repeats=1, warmup=0)
        b = bench.run_suite(MINI_SUITE, repeats=1, warmup=0)
        ja = json.dumps(bench.deterministic_view(a), indent=2, sort_keys=True)
        jb = json.dumps(bench.deterministic_view(b), indent=2, sort_keys=True)
        assert ja == jb

    def test_roundtrip_and_version_gate(self, tmp_path):
        doc = bench.run_suite(MINI_SUITE[:1], repeats=1, warmup=0)
        path = tmp_path / "BENCH_x.json"
        bench.write_bench(doc, path)
        assert bench.load_bench(path)["cases"] == doc["cases"]
        bad = dict(doc, bench_version=99)
        bench.write_bench(bad, path)
        with pytest.raises(ValueError, match="version"):
            bench.load_bench(path)


class TestBenchCompare:
    def base(self):
        return bench.run_suite(MINI_SUITE, repeats=1, warmup=0)

    def test_identical_snapshots_pass(self):
        doc = self.base()
        cmp = bench.compare_bench(doc, doc)
        assert cmp.ok
        assert cmp.wall_gated  # same environment fingerprint
        assert "PASS" in bench.render_comparison(cmp)

    def test_count_drift_fails(self):
        doc = self.base()
        tampered = json.loads(json.dumps(doc))
        tampered["cases"][0]["deterministic"]["rounds"] += 1
        cmp = bench.compare_bench(doc, tampered)
        assert not cmp.ok
        (bad,) = [c for c in cmp.cases if not c.ok]
        assert "rounds" in bad.failures[0]
        assert "FAIL" in bench.render_comparison(cmp)

    def test_missing_case_fails(self):
        doc = self.base()
        shrunk = json.loads(json.dumps(doc))
        shrunk["cases"] = shrunk["cases"][:1]
        cmp = bench.compare_bench(shrunk, doc)
        assert not cmp.ok
        assert cmp.missing == ["mini-sbbc30"]

    def test_wall_regression_fails_when_gated(self):
        doc = self.base()
        slow = json.loads(json.dumps(doc))
        for c in slow["cases"]:
            c["wall_s"] = {"samples": [10.0], "median": 10.0, "iqr": 0.001}
        cmp = bench.compare_bench(slow, doc, wall="always")
        assert not cmp.ok
        assert any("wall median regressed" in f
                   for c in cmp.cases for f in c.failures)
        # Same tampering passes when only counts are gated.
        assert bench.compare_bench(slow, doc, wall="never").ok

    def test_wall_auto_skips_across_machines(self):
        doc = self.base()
        other = json.loads(json.dumps(doc))
        other["environment"]["hostname"] = "somewhere-else"
        for c in other["cases"]:
            c["wall_s"] = {"samples": [10.0], "median": 10.0, "iqr": 0.001}
        cmp = bench.compare_bench(other, doc, wall="auto")
        assert cmp.ok  # wall skipped, counts identical
        assert not cmp.wall_gated
        assert "different machines" in cmp.wall_skip_reason


class TestBenchCLI:
    def test_snapshot_then_pass_then_injected_regression(self, tmp_path, capsys):
        out1 = tmp_path / "BENCH_a.json"
        rc = cli_main(["bench", "--smoke", "--cases", "er60", "--repeats", "1",
                       "--warmup", "0", "--out", str(out1), "-q"])
        assert rc == 0
        assert out1.exists()
        # Fresh run against its own snapshot: PASS, exit 0.
        out2 = tmp_path / "BENCH_b.json"
        rc = cli_main(["bench", "--smoke", "--cases", "er60", "--repeats", "1",
                       "--warmup", "0", "--out", str(out2),
                       "--compare", str(out1), "-q"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out
        # Inject a regression into the baseline: FAIL, exit 1.
        doc = json.loads(out1.read_text())
        doc["cases"][0]["deterministic"]["bytes"] += 64
        out1.write_text(json.dumps(doc))
        rc = cli_main(["bench", "--smoke", "--cases", "er60", "--repeats", "1",
                       "--warmup", "0", "--out", str(out2),
                       "--compare", str(out1), "-q"])
        assert rc == 1
        assert "bytes changed" in capsys.readouterr().out

    def test_unknown_case_filter_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            cli_main(["bench", "--cases", "no-such-case", "-q"])


# -- phase-scoped profiler --------------------------------------------------------


class TestProfiler:
    def test_null_sink_installs_no_profiler(self):
        tele = obs.Telemetry(NullSink(), profile="cpu")
        assert tele.profiler is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="profile mode"):
            PhaseProfiler(lambda *a, **k: None, mode="gpu")

    def test_cpu_profile_events(self):
        events, tele, _ = record_run(profile="cpu")
        profiles = [e for e in events if e.kind == "profile"]
        assert profiles, "no profile events recorded"
        phases = {e.attrs["phase"] for e in profiles}
        assert "forward" in phases and "backward" in phases
        for e in profiles:
            assert e.attrs["hotspots"], "empty hotspot digest"
            top = e.attrs["hotspots"][0]
            assert top["cumtime_s"] >= top["tottime_s"] >= 0
        # Profiled phase spans are marked.
        spans = [e for e in events if e.kind == "span"
                 and e.attrs.get("span_kind") == "phase"]
        assert all(s.attrs.get("profiled") for s in spans)

    def test_profile_event_links_to_phase_span(self):
        events, _, _ = record_run(profile="cpu")
        span_ids = {e.attrs["span_id"] for e in events if e.kind == "span"}
        for e in events:
            if e.kind == "profile":
                assert e.attrs["parent_id"] in span_ids

    def test_memory_profile_reports_peak(self):
        events, _, _ = record_run(profile="memory")
        profiles = [e for e in events if e.kind == "profile"]
        assert profiles
        assert all(e.attrs["memory"]["peak_bytes"] > 0 for e in profiles)
        assert all("hotspots" not in e.attrs for e in profiles)

    def test_aggregate_merges_phase_instances(self):
        g = erdos_renyi(30, 3.0, seed=5)
        sink = MemorySink()
        # batch_size=2 over 4 sources -> two forward spans to merge.
        with obs.session(sink, profile="cpu") as tele:
            mrbc_engine(g, sources=[0, 1, 2, 3], batch_size=2, num_hosts=2)
        agg = aggregate_profile_events(sink.events)
        assert agg["forward"]["spans"] == 2
        assert agg["forward"]["hotspots"]
        assert agg["forward"]["wall_s"] > 0

    def test_profile_cli(self, capsys):
        rc = cli_main(["profile", "mrbc", "--graph", "er:30:3", "--sources",
                       "4", "--hosts", "2", "--batch", "4", "--mode", "all",
                       "--top", "3", "-q"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hotspots" in out
        assert "memory" in out
        assert "metrics summary" in out


# -- straggler attribution and run diffing ----------------------------------------


def synthetic_round(seq, phase, ops, bytes_out, comp_s, comm_s):
    return Event(
        kind="round",
        name=f"round:{phase}",
        seq=seq,
        attrs={
            "phase": phase,
            "round": seq,
            "bytes": sum(bytes_out),
            "pair_messages": 1,
            "host_ops": ops,
            "host_bytes_out": bytes_out,
            "host_bytes_in": [0] * len(bytes_out),
            "sim_computation_s": comp_s,
            "sim_communication_s": comm_s,
        },
    )


class TestStragglers:
    def test_attribution_comp_vs_comm(self):
        events = [
            # comp-bound round: host 1 has max ops.
            synthetic_round(1, "forward", [1, 10], [5, 5], 2.0, 1.0),
            # comm-bound round: host 0 moves the most bytes.
            synthetic_round(2, "forward", [1, 10], [100, 5], 1.0, 2.0),
        ]
        (ps,) = phase_stragglers(events)
        assert ps.rounds == 2
        assert ps.comp_bound_rounds == 1
        assert ps.comm_bound_rounds == 1
        assert ps.bound_by_host == {1: 1, 0: 1}
        table = render_stragglers([ps])
        assert "forward" in table

    def test_real_run_covers_all_phases(self):
        events, _, res = record_run(profile=None)
        reports = phase_stragglers(events)
        assert [r.phase for r in reports] == ["forward", "backward"]
        assert sum(r.rounds for r in reports) == res.run.num_rounds
        for r in reports:
            # Idle rounds (e.g. the empty termination round) have no
            # bounding host, so attribution may cover slightly fewer.
            assert 0 < sum(r.bound_by_host.values()) <= r.rounds
            assert 0 < r.critical_share <= 1

    def test_imbalance_halves(self):
        events = [
            synthetic_round(i, "forward", ops, [1, 1], 2.0, 1.0)
            for i, ops in enumerate([[5, 5], [5, 5], [1, 9], [1, 19]])
        ]
        (ps,) = phase_stragglers(events)
        first, second = ps.imbalance_halves()
        assert first == 1.0
        assert second > 1.5


class TestDiffRuns:
    def make_manifest(self, out_dir, hosts=2):
        g = erdos_renyi(30, 3.0, seed=5)
        model = ClusterModel(hosts)
        sink = obs.FileSink(out_dir / "events.jsonl")
        with obs.session(sink, model=model):
            res = mrbc_engine(g, sources=[0, 1, 2, 3], batch_size=4,
                              num_hosts=hosts)
        man = obs.build_manifest("mrbc", res.run, model, graph_spec="er:30:3")
        obs.write_manifest(man, out_dir / "manifest.json")
        return man

    def test_self_diff_is_zero(self, tmp_path):
        d = tmp_path / "run"
        d.mkdir()
        self.make_manifest(d)
        man, events = load_run(d)
        assert events is not None
        doc = diff_runs(man, man, events, events)
        for row in doc["phases"]:
            assert row["rounds_delta"] == 0
            assert row["bytes_delta"] == 0
        assert doc["totals"]["total_s"]["delta"] == 0
        assert "stragglers" in doc
        text = render_run_diff(doc)
        assert "TOTAL" in text and "critical host" in text

    def test_load_run_manifest_only(self, tmp_path):
        d = tmp_path / "run"
        d.mkdir()
        man = self.make_manifest(d)
        man2, events = load_run(d / "manifest.json")
        assert events is None
        assert man2["algorithm"] == man.algorithm

    def test_compare_cli(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        self.make_manifest(a)
        self.make_manifest(b, hosts=4)
        rc = cli_main(["compare", str(a), str(b), "-q"])
        assert rc == 0
        assert "TOTAL" in capsys.readouterr().out
        rc = cli_main(["compare", str(a), str(b), "--format", "json", "-q"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["a"]["num_hosts"] == 2
        assert doc["b"]["num_hosts"] == 4
        assert doc["phases"]


# -- Chrome trace export ----------------------------------------------------------


class TestChromeTrace:
    def test_structure(self):
        events, _, res = record_run(profile=None, hosts=2)
        doc = obs.chrome_trace(events)
        evs = doc["traceEvents"]
        assert evs, "empty trace"
        for e in evs:
            assert e["ph"] in ("X", "M", "C")
            assert "pid" in e and "name" in e
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
        # One slice per round on the rounds track.
        round_slices = [e for e in evs if e.get("cat") == "round"]
        assert len(round_slices) == res.run.num_rounds
        # Hosts appear as named threads of the simulated process.
        host_threads = {
            e["tid"] for e in evs
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["args"]["name"].startswith("host ")
        }
        assert len(host_threads) == 2
        # Wall track is rebased to start at zero.
        span_slices = [e for e in evs if e.get("cat") in ("run", "phase")]
        assert min(e["ts"] for e in span_slices) == 0.0
        json.dumps(doc)  # serializable

    def test_rounds_without_model_use_fallback(self):
        events, _, _ = record_run(profile=None, model=False)
        doc = obs.chrome_trace(events)
        round_slices = [e for e in doc["traceEvents"] if e.get("cat") == "round"]
        assert round_slices
        assert all(e["dur"] == pytest.approx(1e3) for e in round_slices)

    def test_export_file(self, tmp_path):
        events, _, _ = record_run(profile=None)
        out = tmp_path / "out.trace.json"
        doc = obs.export_chrome_trace(events, out)
        loaded = json.loads(out.read_text())
        assert loaded["traceEvents"] == json.loads(json.dumps(doc["traceEvents"]))

    def test_trace_cli_chrome_and_json(self, tmp_path, capsys):
        out = tmp_path / "tr"
        chrome = tmp_path / "out.trace.json"
        rc = cli_main(["trace", "mrbc", "--graph", "er:30:3", "--sources", "4",
                       "--hosts", "2", "--out", str(out), "--chrome",
                       str(chrome), "--format", "json", "--stragglers", "-q"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["algorithm"] == "mrbc"
        assert doc["phases"] and doc["stragglers"]
        assert json.loads(chrome.read_text())["traceEvents"]


# -- generators.from_spec ---------------------------------------------------------


class TestFromSpec:
    def test_specs(self):
        assert from_spec("er:50:3").num_vertices == 50
        assert from_spec("grid:5:6").num_vertices == 30
        assert from_spec("rmat:6:4").num_vertices == 64

    def test_deterministic(self):
        a, b = from_spec("er:40:3"), from_spec("er:40:3")
        assert a.num_edges == b.num_edges

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown generator"):
            from_spec("torus:3")
