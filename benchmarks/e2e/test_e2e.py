"""Self-test of the end-to-end benchmark on a tiny workload.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

import harness
from workloads import Workload

ROOT = Path(__file__).resolve().parents[2]
SMOKE = Workload("smoke", "mrbc", "grid:8:8", hosts=4, sources=8, batch=4)


@pytest.fixture(scope="module")
def originals():
    return {(w.owner, w.attr): w.owner.__dict__[w.attr] for w in harness.LAYERS}


@pytest.fixture(scope="module")
def traced(originals):
    return harness.run_workload(SMOKE, seed=1, seconds=0, trace=True)


def test_every_benchmark_metric_is_emitted_with_its_unit(traced):
    record, _tracer = traced
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for section in ("end_to_end", "per_layer"):
        emitted = record[section]
        assert set(emitted) == {m["name"] for m in spec[section]}
        for m in spec[section]:
            assert emitted[m["name"]]["unit"] == m["unit"], m["name"]
            assert isinstance(emitted[m["name"]]["value"], (int, float)), m["name"]
    assert record["correct"] and record["failed"] == 0
    assert record["attempted"] == 4  # warm-up, one timed pair, traced rep


def test_wrapped_attributes_are_the_originals_after_the_traced_rep(traced, originals):
    for (owner, attr), fn in originals.items():
        assert owner.__dict__[attr] is fn, f"{owner.__name__}.{attr}"


def test_span_self_times_sum_to_the_traced_wall(traced):
    record, tracer = traced
    wall = record["timings"]["traced_wall_s"]
    self_sum = sum(lt.self_s for lt in tracer.totals().values())
    assert abs(self_sum - wall) <= 0.01 * wall
    names = {s[0] for s in tracer.spans}
    assert {"engine", "sweep.forward", "sweep.backward", "plane.reduce"} <= names


def test_corrupted_bc_fails_every_rep_and_exits_nonzero(monkeypatch, tmp_path, capsys):
    real = harness.ENGINES["mrbc"]

    @functools.wraps(real)
    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.bc[0] += 1.0
        return res

    monkeypatch.setitem(harness.ENGINES, "mrbc", corrupted)
    code = harness.child_main(SMOKE, seed=1, seconds=0, trace=False, out=tmp_path)
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert record["error_rate"] == 1
    assert record["failed"] == record["attempted"] > 0
    assert not record["correct"]
