"""Tests for the Gluon-style substrate: delivery semantics and the
byte-accounting model (aggregation + metadata compression)."""

import numpy as np
import pytest

from repro.engine.gluon import (
    MESSAGE_HEADER_BYTES,
    TARGET_ALL_PROXIES,
    TARGET_IN_EDGES,
    TARGET_OUT_EDGES,
    GluonSubstrate,
)
from repro.engine.partition import partition_graph
from repro.engine.stats import EngineRun
from repro.graph import generators as gen


@pytest.fixture(scope="module")
def pg():
    return partition_graph(gen.erdos_renyi(50, 4.0, seed=41), 4, "cvc")


@pytest.fixture
def rs(pg):
    return EngineRun(num_hosts=pg.num_hosts).new_round("forward")


class TestReduce:
    def test_items_reach_master(self, pg, rs):
        gluon = GluonSubstrate(pg)
        v = 7
        items = [[] for _ in range(4)]
        holders = pg.hosts_with_proxy(v)
        for h in holders.tolist():
            items[h].append((v, 1, 2.0))
        inbox = gluon.reduce_to_masters(items, 12, 1, rs)
        master = int(pg.master_of[v])
        got = [it for it in inbox[master] if it[0] == v]
        assert len(got) == len(holders)
        senders = {it[1] for it in got}
        assert senders == set(holders.tolist())
        # Other hosts receive nothing.
        for h in range(4):
            if h != master:
                assert not inbox[h]

    def test_local_reduce_is_free(self, pg, rs):
        gluon = GluonSubstrate(pg)
        v = 7
        master = int(pg.master_of[v])
        items = [[] for _ in range(4)]
        items[master].append((v, 1, 2.0))
        gluon.reduce_to_masters(items, 12, 1, rs)
        assert rs.total_bytes() == 0
        assert rs.pair_messages == 0
        assert rs.items_synced == 1

    def test_remote_reduce_charged_both_ends(self, pg, rs):
        gluon = GluonSubstrate(pg)
        v = 7
        master = int(pg.master_of[v])
        other = next(
            int(h) for h in pg.hosts_with_proxy(v) if int(h) != master
        )
        items = [[] for _ in range(4)]
        items[other].append((v, 1, 2.0))
        gluon.reduce_to_masters(items, 12, 1, rs)
        assert rs.bytes_out[other] > 0
        assert rs.bytes_in[master] == rs.bytes_out[other]
        assert rs.pair_messages == 1


class TestBroadcast:
    @pytest.mark.parametrize(
        "target,hosts_fn",
        [
            (TARGET_OUT_EDGES, "hosts_with_out_edges"),
            (TARGET_IN_EDGES, "hosts_with_in_edges"),
            (TARGET_ALL_PROXIES, "hosts_with_proxy"),
        ],
    )
    def test_targeted_delivery(self, pg, rs, target, hosts_fn):
        gluon = GluonSubstrate(pg)
        v = 11
        master = int(pg.master_of[v])
        items = [[] for _ in range(4)]
        items[master].append((v, 0, 1, 1.0))
        inbox = gluon.broadcast_from_masters(items, target, 12, 1, rs)
        expect = set(getattr(pg, hosts_fn)(v).tolist())
        got = {h for h in range(4) if any(it[0] == v for it in inbox[h])}
        assert got == expect

    def test_unknown_target_rejected(self, pg, rs):
        with pytest.raises(ValueError):
            GluonSubstrate(pg).broadcast_from_masters(
                [[] for _ in range(4)], "sideways", 12, 1, rs
            )


class TestByteModel:
    def test_aggregation_one_header_per_pair(self, pg):
        """Two items on the same pair cost one header; on different rounds,
        two headers — the round-amortization MRBC exploits."""
        gluon = GluonSubstrate(pg)
        v = 7
        master = int(pg.master_of[v])
        other = next(int(h) for h in pg.hosts_with_proxy(v) if int(h) != master)

        run = EngineRun(num_hosts=4)
        rs1 = run.new_round("forward")
        items = [[] for _ in range(4)]
        items[other] = [(v, 0, 1, 1.0), (v, 1, 1, 1.0)]
        gluon.reduce_to_masters(items, 12, 8, rs1)
        together = rs1.total_bytes()

        rs2 = run.new_round("forward")
        rs3 = run.new_round("forward")
        one = [[] for _ in range(4)]
        one[other] = [(v, 0, 1, 1.0)]
        gluon.reduce_to_masters(one, 12, 8, rs2)
        two = [[] for _ in range(4)]
        two[other] = [(v, 1, 1, 1.0)]
        gluon.reduce_to_masters(two, 12, 8, rs3)
        split = rs2.total_bytes() + rs3.total_bytes()
        assert together < split
        assert split - together >= MESSAGE_HEADER_BYTES

    def test_batched_source_metadata_compresses(self, pg):
        """Many sources of one vertex in one message: bitvector beats an
        index list (the §5.3 metadata-compression effect)."""
        gluon = GluonSubstrate(pg)
        v = 7
        master = int(pg.master_of[v])
        other = next(int(h) for h in pg.hosts_with_proxy(v) if int(h) != master)
        k = 64

        def volume(num_sources_present: int) -> int:
            run = EngineRun(num_hosts=4)
            rs = run.new_round("forward")
            items = [[] for _ in range(4)]
            items[other] = [(v, si, 1, 1.0) for si in range(num_sources_present)]
            gluon.reduce_to_masters(items, 12, k, rs)
            return rs.total_bytes()

        # Marginal cost per extra source must be payload + ~0 metadata once
        # the bitvector kicks in (8 bytes for k=64 vs 4 per source listed).
        v1, v16 = volume(1), volume(16)
        per_item = (v16 - v1) / 15
        assert per_item < 12 + 4  # payload plus strictly less than the
        # explicit 4-byte source-id cost

    def test_message_counts_recorded(self, pg, rs):
        gluon = GluonSubstrate(pg)
        v = 11
        master = int(pg.master_of[v])
        items = [[] for _ in range(4)]
        items[master].append((v, 0, 1, 1.0))
        gluon.broadcast_from_masters(items, TARGET_ALL_PROXIES, 12, 1, rs)
        remote = len([h for h in pg.hosts_with_proxy(v) if int(h) != master])
        assert rs.pair_messages == remote
        assert int(rs.msgs_out[master]) == remote
        assert rs.proxies_synced == len(pg.hosts_with_proxy(v))


class TestExactSizes:
    def test_exact_mode_close_to_model(self, pg, monkeypatch):
        """End-to-end: a BSP program's volume under exact wire encoding
        differs from the closed-form model's (so the exact plane really
        ran) but stays within 25% of it."""
        from repro.engine import programs

        g = pg.graph
        modeled = programs.bfs_engine(g, 0, partition=pg)

        # Rerun with an exact-size plane: bfs_engine builds its message
        # plane from the module-level GluonPlane name.
        orig = programs.GluonPlane
        monkeypatch.setattr(
            programs,
            "GluonPlane",
            lambda p, **kw: orig(p, exact_sizes=True, **kw),
        )
        exact = programs.bfs_engine(g, 0, partition=pg)

        assert np.array_equal(exact.values, modeled.values)
        a, b = exact.run.total_bytes, modeled.run.total_bytes
        assert a != b, "exact_sizes plane was not used"
        assert abs(a - b) / b < 0.25, (a, b)
