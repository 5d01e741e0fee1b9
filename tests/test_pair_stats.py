"""The array plane's per-pair message statistics.

:class:`~repro.runtime.plane.GluonArrayPlane` reads each pair message's
items, vertices and source metadata off the *vertex runs* of the routed
exchange (the :class:`~repro.runtime.arrays.Exchange` invariant: within
a host part, a vertex's items are adjacent).  Two checks:

- every exchange the engines hand the plane has vertex runs: across the
  golden configurations of ``tests/test_plane_equivalence.py`` — MRBC
  delayed and eager, forward and backward, SBBC, crash restarts and the
  fault plans — no ``(host, gid)`` appears in two runs;
- on random vertex-run exchanges, the array plane charges exactly what
  the tuple substrate charges — bytes, ``RoundStats`` counters, ledger
  rows and telemetry — and delivers the same inboxes, over 1–300 hosts
  and batch widths on both sides of 32, where ``min(4·c, ⌈k/8⌉)``
  starts to depend on the run length ``c``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine.gluon import GluonSubstrate
from repro.engine.partition import partition_graph
from repro.engine.stats import EngineRun
from repro.graph.digraph import DiGraph
from repro.obs.comm import PLANE_GLUON, CommLedger
from repro.runtime.arrays import Exchange
from repro.runtime.plane import GluonArrayPlane
from tests.test_plane_equivalence import RUNNERS, _load_goldens

VERBS = ("reduce_to_masters", "broadcast_from_masters")


def _runs(gids: np.ndarray, off: np.ndarray) -> tuple[list, np.ndarray]:
    """The ``(host, gid)`` of every run of an exchange, and the run lengths."""
    hosts = np.repeat(np.arange(off.size - 1), off[1:] - off[:-1])
    start = np.ones(gids.size, dtype=bool)
    start[1:] = (gids[1:] != gids[:-1]) | (hosts[1:] != hosts[:-1])
    at = np.flatnonzero(start)
    lengths = np.diff(np.append(at, gids.size))
    return list(zip(hosts[at].tolist(), gids[at].tolist())), lengths


def _record_sent(monkeypatch) -> list:
    """Record ``(verb, gids, off)`` of every exchange the plane is sent."""
    sent: list = []
    for verb in VERBS:
        orig = getattr(GluonArrayPlane, verb)

        def record(self, ex, *args, _orig=orig, _verb=verb):
            sent.append((_verb, ex.gids.copy(), ex.off.copy()))
            return _orig(self, ex, *args)

        monkeypatch.setattr(GluonArrayPlane, verb, record)
    return sent


@pytest.mark.parametrize("key", sorted(RUNNERS))
def test_sent_exchanges_have_vertex_runs(key, monkeypatch):
    sent = _record_sent(monkeypatch)
    if "raises" in _load_goldens()[key]:
        # detect mode aborts at the first fault; what was sent still counts
        with pytest.raises(Exception):
            RUNNERS[key]()
    else:
        RUNNERS[key]()
    assert sent
    for verb, gids, off in sent:
        runs, _lengths = _runs(gids, off)
        twice = sorted(r for r, c in Counter(runs).items() if c > 1)
        assert not twice, f"{verb}: (host, gid) in two runs: {twice[:5]}"


def test_mrbc_reduces_multi_item_runs(monkeypatch):
    """The invariant is not vacuous: batched MRBC's reduces carry
    vertices with several per-source items.  (Its broadcasts name one
    source per master and round: a master fires one entry per round,
    and the backward schedule replays the fire rounds.)"""
    sent = _record_sent(monkeypatch)
    RUNNERS["mrbc/er:60:3/4/True/8"]()
    longest = max(
        int(_runs(gids, off)[1].max(initial=0))
        for verb, gids, off in sent
        if verb == "reduce_to_masters"
    )
    assert longest > 1


# -- the statistics against the tuple substrate --------------------------------

TARGETS = ("out_edges", "in_edges", "proxies")


@st.composite
def topologies(draw):
    """A real partition: 1–24 vertices, edges by a drawn density, 1–300
    hosts (255–257 straddle the 8-bit routing key), every policy."""
    n = draw(st.integers(1, 24), label="n")
    p = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]), label="density")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="graph_seed"))
    adj = rng.random((n, n)) < p
    np.fill_diagonal(adj, False)
    src, dst = np.nonzero(adj)
    g = DiGraph(n, src.astype(np.int64), dst.astype(np.int64))
    hosts = draw(
        st.one_of(
            st.integers(1, 8),
            st.integers(9, 300),
            st.sampled_from([1, 2, 255, 256, 257, 300]),
        ),
        label="hosts",
    )
    policy = draw(st.sampled_from(["oec", "iec", "cvc", "random"]), label="policy")
    kw = {"seed": draw(st.integers(0, 2**31 - 1), label="seed")} \
        if policy == "random" else {}
    return partition_graph(g, hosts, policy, **kw)


@st.composite
def run_exchanges(draw, num_hosts: int, n: int, batch_width: int):
    """A vertex-run exchange: a few non-empty host parts at drawn hosts
    (so leading, middle and trailing parts are often empty), each a
    list of runs over distinct gids, ``1..min(k, 6)`` items per run —
    single-item parts included."""
    busy = draw(
        st.lists(
            st.one_of(
                st.integers(0, num_hosts - 1),
                st.sampled_from([0, num_hosts - 1]),
            ),
            max_size=min(num_hosts, 6),
            unique=True,
        ),
        label="busy hosts",
    )
    max_run = min(batch_width, 6)
    gids: list[int] = []
    off = [0] * (num_hosts + 1)
    parts: dict[int, list[int]] = {}
    for h in busy:
        vertices = draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 8), unique=True),
            label=f"vertices of host {h}",
        )
        lengths = draw(
            st.lists(
                st.integers(1, max_run),
                min_size=len(vertices),
                max_size=len(vertices),
            ),
            label=f"run lengths of host {h}",
        )
        parts[h] = [g for g, c in zip(vertices, lengths) for _ in range(c)]
    for h in range(num_hosts):
        gids.extend(parts.get(h, ()))
        off[h + 1] = len(gids)
    gid_arr = np.asarray(gids, dtype=np.int64)
    # One payload column naming each item, so routing is checked too.
    return Exchange(
        gid_arr, (np.arange(gid_arr.size, dtype=np.int64),),
        np.asarray(off, dtype=np.int64),
    )


def _charge(verb, plane_kind, pg, ex, targets, payload_bytes, batch_width):
    """Run one verb on one plane in a fresh session; return what it
    charged and delivered."""
    run = EngineRun(pg.num_hosts)
    rs = run.new_round("forward")
    ledger = CommLedger()
    with obs.session(sink=obs.MemorySink(), comm=ledger) as tele:
        if plane_kind == "array":
            plane = GluonArrayPlane(pg)
            args = (ex,) if verb == "reduce_to_masters" else (ex, targets)
            inbox = getattr(plane, verb)(*args, payload_bytes, batch_width, rs)
            inbox = inbox.to_parts()
        else:
            sub = GluonSubstrate(pg)
            args = (ex.to_parts(),) if verb == "reduce_to_masters" \
                else (ex.to_parts(), targets)
            inbox = getattr(sub, verb)(*args, payload_bytes, batch_width, rs)
        metrics = tele.metrics.snapshot()
    rows = [dict(rc.pairs) for rc in ledger.rounds(PLANE_GLUON)]
    counters = (
        rs.bytes_out.tolist(), rs.bytes_in.tolist(), rs.msgs_out.tolist(),
        rs.msgs_in.tolist(), rs.pair_messages, rs.items_synced,
        rs.proxies_synced,
    )
    return counters, rows, metrics, inbox


class TestPairStatsMatchTupleSubstrate:
    @given(
        topologies(),
        st.sampled_from([1, 8, 9, 32, 33, 64]),
        st.sampled_from(VERBS),
        st.sampled_from(TARGETS),
        st.sampled_from([4, 8, 12, 16]),
        st.data(),
    )
    @settings(deadline=None)
    def test_array_plane_charges_what_the_tuples_charge(
        self, pg, batch_width, verb, targets, payload_bytes, data
    ):
        ex = data.draw(
            run_exchanges(pg.num_hosts, int(pg.master_of.size), batch_width),
            label="exchange",
        )
        got = _charge(verb, "array", pg, ex, targets, payload_bytes, batch_width)
        want = _charge(verb, "tuple", pg, ex, targets, payload_bytes, batch_width)
        assert got[0] == want[0], "RoundStats counters"
        assert got[1] == want[1], "ledger rows"
        assert got[2] == want[2], "telemetry"
        assert got[3] == want[3], "delivered inboxes"
        # The array plane records its pair messages sender-major.
        for rows in got[1]:
            assert list(rows) == sorted(rows)
