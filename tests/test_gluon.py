"""Tests for the Gluon exchange: delivery semantics and the
byte-accounting model (aggregation + metadata compression).

Every exchange runs on :class:`~repro.runtime.plane.GluonArrayPlane` and
on the tuple reference (``tests/gluon_reference.py``); the two must
deliver the same inboxes and charge the same counters.
"""

import numpy as np
import pytest

from repro.engine.gluon import (
    MESSAGE_HEADER_BYTES,
    TARGET_ALL_PROXIES,
    TARGET_IN_EDGES,
    TARGET_OUT_EDGES,
)
from repro.engine.partition import partition_graph
from repro.engine.serialize import encoded_size
from repro.engine.stats import EngineRun
from repro.graph import generators as gen
from repro.runtime.arrays import Exchange
from repro.runtime.plane import GluonArrayPlane
from tests.gluon_reference import TupleGluonSubstrate


@pytest.fixture(scope="module")
def pg():
    return partition_graph(gen.erdos_renyi(50, 4.0, seed=41), 4, "cvc")


@pytest.fixture
def rs(pg):
    return EngineRun(num_hosts=pg.num_hosts).new_round("forward")


def _counters(rs):
    return (
        rs.bytes_out.tolist(), rs.bytes_in.tolist(), rs.msgs_out.tolist(),
        rs.msgs_in.tolist(), rs.pair_messages, rs.items_synced,
        rs.proxies_synced,
    )


def sync(pg, rs, verb, items, *args):
    """Run ``verb`` on the array plane (charging ``rs``) and on the tuple
    reference; require equal inboxes and counters; return the inbox as
    per-host tuple lists.  Items are ``(gid, *ints, float)``."""
    width = len(next(it for part in items for it in part))
    ex = Exchange.from_parts(items, (np.int64,) * (width - 2) + (np.float64,))
    got = getattr(GluonArrayPlane(pg), verb)(ex, *args, rs).to_parts()
    ref_rs = EngineRun(num_hosts=pg.num_hosts).new_round("forward")
    want = getattr(TupleGluonSubstrate(pg), verb)(items, *args, ref_rs)
    assert got == want
    assert _counters(rs) == _counters(ref_rs)
    return got


class TestReduce:
    def test_items_reach_master(self, pg, rs):
        v = 7
        items = [[] for _ in range(4)]
        holders = pg.hosts_with_proxy(v)
        for h in holders.tolist():
            items[h].append((v, 1, 2.0))
        inbox = sync(pg, rs, "reduce_to_masters", items, 12, 1)
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
        v = 7
        master = int(pg.master_of[v])
        items = [[] for _ in range(4)]
        items[master].append((v, 1, 2.0))
        sync(pg, rs, "reduce_to_masters", items, 12, 1)
        assert rs.total_bytes() == 0
        assert rs.pair_messages == 0
        assert rs.items_synced == 1

    def test_remote_reduce_charged_both_ends(self, pg, rs):
        v = 7
        master = int(pg.master_of[v])
        other = next(
            int(h) for h in pg.hosts_with_proxy(v) if int(h) != master
        )
        items = [[] for _ in range(4)]
        items[other].append((v, 1, 2.0))
        sync(pg, rs, "reduce_to_masters", items, 12, 1)
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
        v = 11
        master = int(pg.master_of[v])
        items = [[] for _ in range(4)]
        items[master].append((v, 0, 1, 1.0))
        inbox = sync(pg, rs, "broadcast_from_masters", items, target, 12, 1)
        expect = set(getattr(pg, hosts_fn)(v).tolist())
        got = {h for h in range(4) if any(it[0] == v for it in inbox[h])}
        assert got == expect

    def test_unknown_target_rejected(self, pg, rs):
        with pytest.raises(ValueError):
            GluonArrayPlane(pg).broadcast_from_masters(
                Exchange.empty(4), "sideways", 12, 1, rs
            )


class TestByteModel:
    def test_aggregation_one_header_per_pair(self, pg):
        """Two items on the same pair cost one header; on different rounds,
        two headers — the round-amortization MRBC exploits."""
        v = 7
        master = int(pg.master_of[v])
        other = next(int(h) for h in pg.hosts_with_proxy(v) if int(h) != master)

        run = EngineRun(num_hosts=4)
        rs1 = run.new_round("forward")
        items = [[] for _ in range(4)]
        items[other] = [(v, 0, 1, 1.0), (v, 1, 1, 1.0)]
        sync(pg, rs1, "reduce_to_masters", items, 12, 8)
        together = rs1.total_bytes()

        rs2 = run.new_round("forward")
        rs3 = run.new_round("forward")
        one = [[] for _ in range(4)]
        one[other] = [(v, 0, 1, 1.0)]
        sync(pg, rs2, "reduce_to_masters", one, 12, 8)
        two = [[] for _ in range(4)]
        two[other] = [(v, 1, 1, 1.0)]
        sync(pg, rs3, "reduce_to_masters", two, 12, 8)
        split = rs2.total_bytes() + rs3.total_bytes()
        assert together < split
        assert split - together >= MESSAGE_HEADER_BYTES

    def test_batched_source_metadata_compresses(self, pg):
        """Many sources of one vertex in one message: bitvector beats an
        index list (the §5.3 metadata-compression effect)."""
        v = 7
        master = int(pg.master_of[v])
        other = next(int(h) for h in pg.hosts_with_proxy(v) if int(h) != master)
        k = 64

        def volume(num_sources_present: int) -> int:
            run = EngineRun(num_hosts=4)
            rs = run.new_round("forward")
            items = [[] for _ in range(4)]
            items[other] = [(v, si, 1, 1.0) for si in range(num_sources_present)]
            sync(pg, rs, "reduce_to_masters", items, 12, k)
            return rs.total_bytes()

        # Marginal cost per extra source must be payload + ~0 metadata once
        # the bitvector kicks in (8 bytes for k=64 vs 4 per source listed).
        v1, v16 = volume(1), volume(16)
        per_item = (v16 - v1) / 15
        assert per_item < 12 + 4  # payload plus strictly less than the
        # explicit 4-byte source-id cost

    def test_message_counts_recorded(self, pg, rs):
        v = 11
        master = int(pg.master_of[v])
        items = [[] for _ in range(4)]
        items[master].append((v, 0, 1, 1.0))
        sync(pg, rs, "broadcast_from_masters", items, TARGET_ALL_PROXIES, 12, 1)
        remote = len([h for h in pg.hosts_with_proxy(v) if int(h) != master])
        assert rs.pair_messages == remote
        assert int(rs.msgs_out[master]) == remote
        assert rs.proxies_synced == len(pg.hosts_with_proxy(v))


class TestExactSizes:
    def test_exact_mode_close_to_model(self, pg, monkeypatch):
        """End-to-end: encoding every pair message of a BFS run with the
        reference wire format (:mod:`repro.engine.serialize`) gives a
        volume that differs from what the plane charged (so the encoder
        really ran) but stays within 25% of it."""
        from repro.engine import programs

        ref = TupleGluonSubstrate(pg)
        encoded = []

        def recorder(verb, group):
            orig = getattr(GluonArrayPlane, verb)

            def record(self, ex, *args):
                *targets, payload_bytes, batch_width, _rs = args
                pairs = group(ex.to_parts(), *targets)
                # One payload value per item: an f64 for 4-8 byte
                # payloads, (i32, f64) above.
                fmt, value = ("<id", (0, 0.0)) if payload_bytes >= 12 \
                    else ("<d", (0.0,))
                for (sender, receiver), items in pairs.items():
                    if sender != receiver:
                        wire = [(int(it[0]), 0, value) for it in items]
                        encoded.append(
                            encoded_size(wire, batch_width, payload_format=fmt)
                        )
                return orig(self, ex, *args)

            monkeypatch.setattr(GluonArrayPlane, verb, record)

        recorder("reduce_to_masters", ref.reduce_pairs)
        recorder("broadcast_from_masters", ref.broadcast_pairs)
        modeled = programs.bfs_engine(pg.graph, 0, partition=pg)

        assert encoded, "no pair message was encoded"
        a, b = sum(encoded), modeled.run.total_bytes
        assert a != b, "the encoded volume equals the model by accident"
        assert abs(a - b) / b < 0.25, (a, b)
