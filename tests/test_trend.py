"""Cross-snapshot benchmark trajectory (``repro trend``): lineage
ordering, step classification, heterogeneous-suite grouping, CLI.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import trend as trend_mod
from repro.analysis.trend import build_trend, order_snapshots, render_trend
from repro.cli import main as cli_main

DET = {"rounds": 2, "bytes": 10, "pair_messages": 3}


def case(name, wall, det=None, iqr=0.0005, rounds=None, comm=None):
    c = {
        "name": name,
        "deterministic": dict(det if det is not None else DET),
        "wall_s": {"median": wall, "iqr": iqr},
    }
    if rounds is not None:
        c["rounds"] = dict(rounds)
    if comm is not None:
        c["comm"] = dict(comm)
    return c


def write_snap(tmp_path, fname, created, cases, sha=None,
               env=None, suite="smoke"):
    doc = {
        "bench_version": 1,
        "suite": suite,
        "git_sha": sha or f"deadbeef{fname}",
        "created_unix": created,
        "repeats": 3,
        "warmup": 1,
        "environment": env or {"python": "3.12", "machine": "x86_64"},
        "cases": cases,
    }
    path = tmp_path / fname
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def series_paths(tmp_path):
    """Six snapshots exercising every step classification once."""
    return [
        write_snap(tmp_path, "BENCH_1.json", 100, [case("c", 0.010)]),
        # Same counts, small wall move: steady. The rounds section
        # appears here; vs a section-less predecessor it is not compared.
        write_snap(tmp_path, "BENCH_2.json", 200,
                   [case("c", 0.011, rounds={"total": 5})]),
        # A gated deterministic count drifts: change.
        write_snap(tmp_path, "BENCH_3.json", 300,
                   [case("c", 0.011, det=dict(DET, bytes=11),
                         rounds={"total": 5})]),
        # Only the round-ledger count drifts: change (both sides carry it).
        write_snap(tmp_path, "BENCH_4.json", 400,
                   [case("c", 0.011, det=dict(DET, bytes=11),
                         rounds={"total": 6}),
                    case("late", 0.002)]),
        # Counts steady, wall blows through 3 x max(IQR, floor): regression.
        write_snap(tmp_path, "BENCH_5.json", 500,
                   [case("c", 0.2, det=dict(DET, bytes=11),
                         rounds={"total": 6}),
                    case("late", 0.002)],
                   env={"python": "3.13", "machine": "arm64"}),
        # ... and back down: improvement.
        write_snap(tmp_path, "BENCH_6.json", 600,
                   [case("c", 0.011, det=dict(DET, bytes=11),
                         rounds={"total": 6})],
                   env={"python": "3.13", "machine": "arm64"}),
    ]


class TestOrdering:
    def test_unknown_shas_fall_back_to_created_unix(self, tmp_path):
        a = write_snap(tmp_path, "BENCH_a.json", 300, [case("c", 0.01)])
        b = write_snap(tmp_path, "BENCH_b.json", 100, [case("c", 0.01)])
        docs = [(p, json.loads(open(p, encoding="utf-8").read()))
                for p in (a, b)]
        # tmp_path is not a git repo: every SHA is unknown.
        ordered = order_snapshots(docs, root=str(tmp_path))
        assert [p for p, _ in ordered] == [b, a]

    def test_known_shas_sort_by_lineage_not_timestamp(self, tmp_path, monkeypatch):
        # "old" commit carries the *newer* timestamp (a rerun on an old
        # checkout): lineage position must win over created_unix.
        monkeypatch.setattr(
            trend_mod, "_rev_list_order", lambda root: {"old": 0, "new": 1}
        )
        a = write_snap(tmp_path, "BENCH_a.json", 900, [case("c", 0.01)],
                       sha="old")
        b = write_snap(tmp_path, "BENCH_b.json", 100, [case("c", 0.01)],
                       sha="new")
        u = write_snap(tmp_path, "BENCH_u.json", 50, [case("c", 0.01)],
                       sha="unknown")
        docs = [(p, json.loads(open(p, encoding="utf-8").read()))
                for p in (b, u, a)]
        ordered = order_snapshots(docs, root=str(tmp_path))
        # Unknown commits land after every known one, by timestamp.
        assert [p for p, _ in ordered] == [a, b, u]


class TestClassification:
    def test_every_step_kind_over_the_series(self, tmp_path):
        report = build_trend(series_paths(tmp_path), root=str(tmp_path))
        steps = [pt.step for pt in report.cases["c"]]
        assert steps == [
            "first", "steady", "change", "change", "regression",
            "improvement",
        ]
        # The deltas name the counts that moved.
        assert report.cases["c"][2].deltas == ["bytes: 10 -> 11"]
        assert report.cases["c"][3].deltas == ["rounds.total: 5 -> 6"]

    def test_env_change_is_annotated(self, tmp_path):
        report = build_trend(series_paths(tmp_path), root=str(tmp_path))
        flags = [pt.env_changed for pt in report.cases["c"]]
        # Only the point where the fingerprint swapped is marked.
        assert flags == [False, False, False, False, True, False]

    def test_case_appearing_mid_series_starts_fresh(self, tmp_path):
        report = build_trend(series_paths(tmp_path), root=str(tmp_path))
        late = report.cases["late"]
        assert [pt.step for pt in late] == ["first", "steady"]
        assert late[0].order == 3  # first seen in the 4th snapshot

    def test_report_dict_counts_and_render(self, tmp_path):
        report = build_trend(series_paths(tmp_path), root=str(tmp_path))
        doc = report.to_dict()
        assert doc["schema"] == 1
        assert doc["regressions"] == 1
        assert doc["changes"] == 2
        assert len(doc["snapshots"]) == 6
        text = render_trend(report)
        assert "per-case trajectory" in text
        assert "1 wall regression(s)" in text
        assert "(env changed)" in text
        json.dumps(doc)

    def test_wall_threshold_is_tunable(self, tmp_path):
        paths = [
            write_snap(tmp_path, "BENCH_1.json", 100, [case("c", 0.010)]),
            write_snap(tmp_path, "BENCH_2.json", 200, [case("c", 0.018)]),
        ]
        lax = build_trend(paths, root=str(tmp_path))
        assert lax.cases["c"][1].step == "steady"
        strict = build_trend(paths, root=str(tmp_path), wall_threshold=1.0)
        assert strict.cases["c"][1].step == "regression"


class TestTierContinuity:
    """``BENCH_b05e6a269e54.json`` ran each DEFAULT case on the dict tier
    and its columnar twin as ``<case>@array``; every later snapshot runs
    the columnar tier under the bare name."""

    TWO_TIER = Path(__file__).resolve().parent.parent / "BENCH_b05e6a269e54.json"

    def test_fresh_default_snapshot_continues_from_the_array_twins(
        self, tmp_path
    ):
        doc = json.loads(self.TWO_TIER.read_text(encoding="utf-8"))
        twins = {
            c["name"].removesuffix("@array"): c
            for c in doc["cases"]
            if c["name"].endswith("@array")
        }
        assert len(twins) == 9
        # Today's code re-measured with the same numbers as the twins.
        later = write_snap(
            tmp_path, "BENCH_later.json", doc["created_unix"] + 1,
            [dict(c, name=name) for name, c in twins.items()],
            env=doc["environment"], suite="default",
        )
        report = build_trend([str(self.TWO_TIER), later], root=str(tmp_path))
        for name in twins:
            pts = report.cases[name]
            assert [pt.step for pt in pts] == ["first", "steady"], name
            assert pts[0].wall_median_s == twins[name]["wall_s"]["median"]
        assert set(report.cases) == set(twins)  # no "@array" series left


class TestTrendCLI:
    def test_json_output(self, tmp_path, capsys):
        rc = cli_main(["trend", "--format", "json", *series_paths(tmp_path)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert set(doc["cases"]) == {"c", "late"}

    def test_case_filter(self, tmp_path, capsys):
        paths = series_paths(tmp_path)
        rc = cli_main(["trend", "--case", "late", *paths])
        out = capsys.readouterr().out
        assert rc == 0
        assert "late" in out
        assert cli_main(["trend", "--case", "no-such-case", *paths]) == 1

    def test_fail_on_regression(self, tmp_path):
        paths = series_paths(tmp_path)
        assert cli_main(["trend", *paths]) == 0  # a report, not a gate
        assert cli_main(["trend", "--fail-on-regression", *paths]) == 1
