"""The channel guard on the routed exchange against the tuple reference.

:meth:`~repro.resilience.context.ResilienceContext.guard_exchange`
perturbs each (sender, receiver) segment of a routed
:class:`~repro.runtime.arrays.Exchange` by index decisions, verifies it
by comparing columns, and charges retransmits from the segment's vertex
runs.  The tuple reference (``tests/gluon_reference.py``) does the same
job on per-pair tuple dicts with its own decision loop and a content
digest.  On random vertex-run exchanges and random message-fault plans,
in every guard mode, the two must agree on everything a run reports:
deliveries, injected and detected kinds, the recovery timeline,
retransmits, recovery rounds, ledger rows, round counters, and the
error that ends a run.
"""

from __future__ import annotations

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine.partition import partition_graph
from repro.engine.stats import EngineRun
from repro.graph.digraph import DiGraph
from repro.obs.comm import PLANE_GLUON, CommLedger
from repro.resilience import FaultPlan, FaultSpec, ResilienceContext
from repro.resilience.errors import ResilienceError
from repro.runtime.arrays import Exchange
from repro.runtime.plane import GluonArrayPlane
from tests.gluon_reference import TupleGluonSubstrate, TupleGuardContext
from tests.test_pair_stats import TARGETS, VERBS, run_exchanges


@st.composite
def small_topologies(draw):
    """A real partition: 1–16 vertices, 1–8 hosts, every policy."""
    n = draw(st.integers(1, 16), label="n")
    p = draw(st.sampled_from([0.2, 0.5, 0.9]), label="density")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="graph_seed"))
    adj = rng.random((n, n)) < p
    np.fill_diagonal(adj, False)
    src, dst = np.nonzero(adj)
    g = DiGraph(n, src.astype(np.int64), dst.astype(np.int64))
    hosts = draw(st.integers(1, 8), label="hosts")
    policy = draw(st.sampled_from(["oec", "iec", "cvc", "random"]), label="policy")
    kw = {"seed": draw(st.integers(0, 2**31 - 1), label="seed")} \
        if policy == "random" else {}
    return partition_graph(g, hosts, policy, **kw)


@st.composite
def fault_plans(draw):
    """1–3 message-fault specs, rates up to 1, some with an event budget."""
    specs = draw(
        st.lists(
            st.builds(
                FaultSpec,
                kind=st.sampled_from(["drop", "duplicate", "reorder", "corrupt"]),
                rate=st.sampled_from([0.1, 0.3, 0.6, 1.0]),
                max_events=st.one_of(st.none(), st.integers(1, 4)),
            ),
            min_size=1,
            max_size=3,
        ),
        label="specs",
    )
    return FaultPlan("drawn", seed=draw(st.integers(0, 2**16), label="plan seed"),
                     specs=tuple(specs))


@st.composite
def payload_exchanges(draw, num_hosts: int, n: int, batch_width: int):
    """A vertex-run exchange carrying a small int slot column and an int
    or float last column.  Values come from a few choices, so segments
    often hold equal rows (a reorder of equal rows arrives intact)."""
    ex = draw(run_exchanges(num_hosts, n, batch_width), label="runs")
    m = len(ex)
    slot = np.asarray(
        draw(st.lists(st.integers(0, 2), min_size=m, max_size=m), label="slots"),
        dtype=np.int64,
    )
    if draw(st.booleans(), label="float last column"):
        last = np.asarray(draw(
            st.lists(st.sampled_from([0.0, 0.5, 2.0, 1e9]), min_size=m, max_size=m),
            label="float values",
        ), dtype=np.float64)
    else:
        last = np.asarray(draw(
            st.lists(st.integers(0, 3), min_size=m, max_size=m), label="int values",
        ), dtype=np.int32)
    return Exchange(ex.gids, (slot, last), ex.off)


def _drive(kind, pg, plan, mode, steps, payload_bytes, batch_width):
    """Run the exchange ``steps`` through one guard; return what the run
    reports."""
    H = pg.num_hosts
    run = EngineRun(H)
    ledger = CommLedger()
    if kind == "array":
        ctx = ResilienceContext(plan, mode=mode)
        plane = GluonArrayPlane(pg, resilience=ctx)
    else:
        ctx = TupleGuardContext(plan, mode=mode)
        plane = TupleGluonSubstrate(pg, resilience=ctx)
    ctx.attach_run(run)
    delivered = []
    error = None
    with obs.session(comm=ledger):
        try:
            rs = None
            for verb, targets, ex, new_round in steps:
                if rs is None or new_round:
                    rs = run.new_round("forward")
                args = (ex, targets) if verb == "broadcast_from_masters" \
                    else (ex,)
                if kind == "tuple":
                    args = (ex.to_parts(), *args[1:])
                inbox = getattr(plane, verb)(*args, payload_bytes, batch_width, rs)
                delivered.append(inbox if kind == "tuple" else inbox.to_parts())
        except ResilienceError as err:
            error = (type(err).__name__, str(err))
    rows = [
        (rc.phase, rc.round_index, dict(rc.pairs))
        for rc in ledger.rounds(PLANE_GLUON)
    ]
    return {
        "delivered": delivered,
        "error": error,
        "injected": dict(ctx.injector.injected_by_kind),
        "detected": dict(ctx.detected_by_kind),
        "recovered": dict(ctx.recovered_by_kind),
        "timeline": ctx.timeline,
        "retransmits": ctx.retransmits,
        "recovery_rounds": ctx.recovery_rounds,
        "ledger": rows,
        "op_totals": ledger.op_totals(PLANE_GLUON),
        "signature": run.deterministic_signature(),
    }


class TestGuardMatchesTupleReference:
    @given(
        small_topologies(),
        fault_plans(),
        st.sampled_from(["off", "detect", "repair"]),
        st.sampled_from([1, 8, 33]),
        st.sampled_from([4, 12]),
        st.data(),
    )
    @settings(deadline=None)
    def test_columnar_guard_matches_tuple_guard(
        self, pg, plan, mode, batch_width, payload_bytes, data
    ):
        n = int(pg.master_of.size)
        steps = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(VERBS),
                    st.sampled_from(TARGETS),
                    payload_exchanges(pg.num_hosts, n, batch_width),
                    st.booleans(),
                ),
                min_size=1,
                max_size=4,
            ),
            label="steps",
        )
        got = _drive("array", pg, plan, mode, steps, payload_bytes, batch_width)
        want = _drive("tuple", pg, plan, mode, steps, payload_bytes, batch_width)
        for key in want:
            assert got[key] == want[key], key
        event(f"{mode}: {want['error'][0] if want['error'] else 'completed'}")
        event(f"injected {sum(want['injected'].values()) > 0}, "
              f"detected {sum(want['detected'].values()) > 0}, "
              f"retransmits {want['retransmits'] > 0}")
