"""Measure one workload in this process (the child ``run.py`` starts).

A closed loop: one client, one engine run at a time, the next rep
starting when the last one returns.

1. Set up ``SETUP_ROUNDS`` times (build the graph, partition it, draw
   the sources); ``setup_s`` is the median.
2. One warm-up rep, then pairs of timed reps (ledgers off, then the
   ``CommLedger`` and ``RoundLedger`` attached) for as long as another
   pair fits in ``--seconds``; at least one pair runs.
3. With ``--trace 1``, one traced rep with ledgers attached.
4. The oracle: Brandes from every source.

Every rep counts as attempted.  A rep fails when it raises, when its
deterministic signature or output digest differs from the first rep's,
or when the first rep disagrees with the oracle.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import inspect
import json
import resource
import statistics
import time
import traceback
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.baselines.brandes import brandes_dependencies
from repro.baselines.sbbc import sbbc_engine
from repro.cluster.model import ClusterModel
from repro.core.mrbc import mrbc_engine
from repro.engine.partition import partition_graph
from repro.graph import generators
from repro.graph.transform import strongly_connected_components
from repro.obs.comm import CommLedger
from repro.obs.rounds import RoundLedger
from repro.runtime.arrays import HostArena
from repro.runtime.plane import GluonArrayPlane
from repro.runtime.superstep import SuperstepRuntime
from spans import LayerTotals, Tracer, Wrap
from workloads import GRAPH_SEED, WORKLOADS, Workload

ENGINES: dict[str, Callable[..., Any]] = {"mrbc": mrbc_engine, "sbbc": sbbc_engine}

SETUP_ROUNDS = 5
SIGMA_RTOL = 1e-12
BC_RTOL = 1e-9
BC_ATOL = 1e-9

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_obs_s": "s",
    "mteps": "MTEPS",
    "setup_s": "s",
    "rounds": "count",
    "comm_bytes": "bytes",
    "sim_time_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sweep.forward_self_s": "s",
    "sweep.backward_self_s": "s",
    "superstep.forward_rounds": "count",
    "superstep.backward_rounds": "count",
    "superstep.s_per_round": "s/round",
    "plane.reduce_self_s": "s",
    "plane.broadcast_self_s": "s",
    "plane.calls": "count",
    "plane.items": "count",
    "arrays.arena_init_s": "s",
    "obs.comm_record_s": "s",
    "obs.rounds_note_s": "s",
    "obs.ledger_tax": "ratio",
    "graph.build_s": "s",
    "partition.build_s": "s",
    "partition.replication": "ratio",
    "workload.reach_frac": "ratio",
    "comm.messages": "count",
    "rounds.max_frontier": "count",
    "engine.other_s": "s",
    "trace.overhead": "ratio",
    "oracle.bc_max_rel_err": "ratio",
    "oracle.brandes_s": "s",
}


def _delivered(inbox) -> int:
    return sum(len(blk) for blk in inbox if blk is not None)


#: The layer boundaries the traced rep times, from outside the program.
LAYERS = (
    Wrap(
        SuperstepRuntime,
        "run_loop",
        lambda args, kwargs: "sweep." + (args[1] if len(args) > 1 else kwargs["phase"]),
    ),
    Wrap(GluonArrayPlane, "reduce_to_masters", "plane.reduce", count=_delivered),
    Wrap(GluonArrayPlane, "broadcast_from_masters", "plane.broadcast", count=_delivered),
    Wrap(HostArena, "__init__", "arrays.arena_init"),
    Wrap(CommLedger, "record", "obs.comm_record"),
    Wrap(RoundLedger, "note", "obs.rounds_note"),
)


# -- inputs --------------------------------------------------------------------


def draw_sources(g, k: int, seed: int) -> np.ndarray:
    """``k`` sources drawn uniformly from the largest strongly connected
    component, so every source reaches the same bulk of the graph."""
    labels = strongly_connected_components(g)
    candidates = np.nonzero(labels == np.bincount(labels).argmax())[0]
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(candidates, size=k, replace=False))


def set_up(wl: Workload, seed: int):
    """Build graph, partition and sources ``SETUP_ROUNDS`` times; return
    the last build and every round's timings."""
    times: dict[str, list[float]] = {"graph": [], "partition": [], "total": []}
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        g = generators.from_spec(wl.graph, seed=GRAPH_SEED)
        t1 = time.perf_counter()
        pg = partition_graph(g, wl.hosts, "cvc")
        t2 = time.perf_counter()
        sources = draw_sources(g, wl.sources, seed)
        t3 = time.perf_counter()
        times["graph"].append(t1 - t0)
        times["partition"].append(t2 - t1)
        times["total"].append(t3 - t0)
    return g, pg, sources, times


def engine_call(wl: Workload, g, pg, sources) -> Callable[[], Any]:
    """The benchmark's one call into an engine.

    Always passes the prebuilt partition.  Passes ``plane="array"`` only
    while the engine still has a ``plane`` parameter, so removing that
    axis from the engines needs no edit here.
    """
    engine = ENGINES[wl.algorithm]
    kwargs: dict[str, Any] = {"sources": sources, "partition": pg}
    if wl.batch is not None:
        kwargs["batch_size"] = wl.batch
    if "plane" in inspect.signature(engine).parameters:
        kwargs["plane"] = "array"
    return functools.partial(engine, g, **kwargs)


# -- reps and checks -------------------------------------------------------------


def fingerprint(res) -> tuple:
    """Deterministic signature plus a digest of every output array."""
    h = hashlib.blake2b(digest_size=16)
    for arr in (res.bc, res.dist, res.sigma):
        h.update(np.ascontiguousarray(arr))
    return tuple(sorted(res.run.deterministic_signature().items())), h.hexdigest()


class Reps:
    """Runs reps of one engine call and checks each against the first."""

    def __init__(self, call: Callable[[], Any]) -> None:
        self.call = call
        self.first = None
        self._first_key: tuple | None = None
        self.ok: list[bool] = []
        self.errors: list[str] = []

    def run(self, ledgers: bool, tracer: Tracer | None = None):
        """One rep; returns ``(seconds, comm ledger, round ledger)``, or
        None when it raised."""
        gc.collect()
        comm = rounds = None
        try:
            if ledgers:
                comm, rounds = CommLedger(), RoundLedger()
                with obs.session(comm=comm, rounds=rounds):
                    dt, res = self._timed(tracer)
            else:
                dt, res = self._timed(tracer)
        except Exception:
            self.errors.append(f"rep {len(self.ok)}: {traceback.format_exc()}")
            self.ok.append(False)
            return None
        key = fingerprint(res)
        if self.first is None:
            self.first, self._first_key = res, key
        elif key != self._first_key:
            self.errors.append(f"rep {len(self.ok)}: signature or outputs differ from the first rep")
        self.ok.append(key == self._first_key)
        return dt, comm, rounds

    def _timed(self, tracer: Tracer | None):
        t0 = time.perf_counter()
        if tracer is None:
            res = self.call()
        else:
            with tracer.span("engine"):
                res = self.call()
        return time.perf_counter() - t0, res


def oracle(g, sources: np.ndarray, res) -> tuple[list[str], float]:
    """Compare a result with Brandes from every source.

    ``brandes_bc(g, sources)`` unrolled: the same per-source dependencies
    summed in the same order, kept per source so dist and σ are checked
    from the same pass.  Returns the mismatches and the largest BC error
    relative to ``max(|bc|, 1)``.
    """
    bc = np.zeros(g.num_vertices, dtype=np.float64)
    problems = []
    for i, s in enumerate(sources.tolist()):
        dist, sigma, delta = brandes_dependencies(g, s)
        if not np.array_equal(res.dist[i], dist):
            problems.append(f"dist differs from Brandes for source {s}")
        if not np.allclose(res.sigma[i], sigma, rtol=SIGMA_RTOL, atol=0.0):
            problems.append(f"sigma differs from Brandes for source {s}")
        delta[s] = 0.0
        bc += delta
    if not np.allclose(res.bc, bc, rtol=BC_RTOL, atol=BC_ATOL):
        problems.append("bc differs from Brandes")
    rel = np.abs(res.bc - bc) / np.maximum(np.abs(bc), 1.0)
    return problems, float(rel.max(initial=0.0))


def summary(samples: list[float]) -> dict[str, Any] | None:
    """Median, quartiles and count of a timing."""
    if not samples:
        return None
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return {
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


# -- one workload ---------------------------------------------------------------


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool):
    """Measure one workload; return its run record and the tracer (or None)."""
    g, pg, sources, setup_times = set_up(wl, seed)
    reps = Reps(engine_call(wl, g, pg, sources))
    reps.run(ledgers=False)  # warm-up

    walls: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for ledgers in (False, True):
            out = reps.run(ledgers)
            if out is not None:
                walls[ledgers].append(out[0])
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = traced = None
    if trace:
        tracer = Tracer()
        with tracer.installed(list(LAYERS)):
            traced = reps.run(ledgers=True, tracer=tracer)

    res = reps.first
    t0 = time.perf_counter()
    if res is None:
        problems, rel_err = ["no rep completed"], None
    else:
        problems, rel_err = oracle(g, sources, res)
    brandes_s = time.perf_counter() - t0
    reps.errors.extend(problems)
    attempted = len(reps.ok)
    failed = attempted if problems else reps.ok.count(False)

    timings = {
        "wall_s": summary(walls[False]),
        "wall_obs_s": summary(walls[True]),
        "setup_s": summary(setup_times["total"]),
        "graph_s": summary(setup_times["graph"]),
        "partition_s": summary(setup_times["partition"]),
    }
    record: dict[str, Any] = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(trace),
        "config": {
            "algorithm": wl.algorithm,
            "graph": wl.graph,
            "graph_seed": GRAPH_SEED,
            "hosts": wl.hosts,
            "batch": wl.batch,
            "num_vertices": g.num_vertices,
            "num_edges": g.num_edges,
            "sources": sources.tolist(),
        },
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / max(attempted, 1),
        "errors": reps.errors,
        "timings": timings,
        "end_to_end": {},
        "per_layer": {},
    }
    if res is None or not walls[False] or not walls[True]:
        return record, tracer

    wall_s = timings["wall_s"]["median"]
    wall_obs_s = timings["wall_obs_s"]["median"]
    e2e = {
        "wall_s": wall_s,
        "wall_obs_s": wall_obs_s,
        "mteps": sources.size * g.num_edges / wall_s / 1e6,
        "setup_s": timings["setup_s"]["median"],
        "rounds": res.forward_rounds + res.backward_rounds,
        "comm_bytes": res.run.deterministic_signature()["bytes"],
        "sim_time_s": ClusterModel(wl.hosts).time_run(res.run).total,
        "peak_rss_mb": peak_rss_mb,
    }
    record["end_to_end"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    if traced is None:
        return record, tracer

    traced_wall, comm, rounds = traced
    layers = tracer.totals()
    record["timings"]["traced_wall_s"] = traced_wall
    record["trace_reconcile_err"] = sum(lt.self_s for lt in layers.values()) / traced_wall - 1
    none = LayerTotals()
    fwd, bwd, red, bro, arena, rec, note = (
        layers.get(name, none)
        for name in (
            "sweep.forward",
            "sweep.backward",
            "plane.reduce",
            "plane.broadcast",
            "arrays.arena_init",
            "obs.comm_record",
            "obs.rounds_note",
        )
    )
    per_layer = {
        "sweep.forward_self_s": fwd.self_s,
        "sweep.backward_self_s": bwd.self_s,
        "superstep.forward_rounds": res.forward_rounds,
        "superstep.backward_rounds": res.backward_rounds,
        "superstep.s_per_round": (fwd.total_s + bwd.total_s) / e2e["rounds"],
        "plane.reduce_self_s": red.self_s,
        "plane.broadcast_self_s": bro.self_s,
        "plane.calls": red.calls + bro.calls,
        "plane.items": red.items + bro.items,
        "arrays.arena_init_s": arena.total_s,
        "obs.comm_record_s": rec.total_s,
        "obs.rounds_note_s": note.total_s,
        "obs.ledger_tax": wall_obs_s / wall_s - 1,
        "graph.build_s": timings["graph_s"]["median"],
        "partition.build_s": timings["partition_s"]["median"],
        "partition.replication": sum(p.gids.size for p in pg.parts) / g.num_vertices,
        "workload.reach_frac": rounds.total_settled("forward") / (sources.size * g.num_vertices),
        "comm.messages": comm.totals().messages,
        "rounds.max_frontier": rounds.max_frontier(),
        "engine.other_s": traced_wall - fwd.total_s - bwd.total_s,
        "trace.overhead": traced_wall / wall_obs_s - 1,
        "oracle.bc_max_rel_err": rel_err,
        "oracle.brandes_s": brandes_s,
    }
    record["per_layer"] = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in per_layer.items()}
    return record, tracer


def child_main(wl: Workload, seed: int, seconds: float, trace: bool, out: Path) -> int:
    """Measure, write the run record (and spans) under ``out``, print the
    record as one JSON line; exit status 0 only when every rep passed."""
    record, tracer = run_workload(wl, seed, seconds, trace)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        (out / f"{stem}.spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    print(json.dumps(record), flush=True)
    return 0 if record["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    a = p.parse_args(argv)
    return child_main(WORKLOADS[a.workload], a.seed, a.seconds, bool(a.trace), a.out)


if __name__ == "__main__":
    raise SystemExit(main())
