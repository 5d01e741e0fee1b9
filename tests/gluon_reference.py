"""The tuple Gluon substrate and its channel guard: the reference the
differential tests hold :class:`~repro.runtime.plane.GluonArrayPlane`
against.

Each host's items are ``(gid, *payload)`` tuples; a verb groups them
into one ``dict`` of per-(sender, receiver) lists in first-appearance
order, charges every pair message from a per-vertex item count, passes
the pairs through :meth:`TupleGuardContext.guard_sync` when a context is
attached, and assembles per-host inboxes pair by pair.  The guard
perturbs tuple lists with its own decision loop (:func:`perturb_channel`)
and verifies each pair by count and content digest.  None of it shares
code with the plane's columnar routing, run statistics, splice or
index-form fault decisions — only the byte formula
(:meth:`~repro.engine.gluon.GluonSubstrate._pair_bytes`) and the
context's bookkeeping.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Sequence

from repro import obs
from repro.engine.gluon import (
    SOURCE_ID_BYTES,
    TARGET_ALL_PROXIES,
    TARGET_IN_EDGES,
    TARGET_OUT_EDGES,
    GluonSubstrate,
)
from repro.resilience.context import ResilienceContext, channel_digest
from repro.resilience.errors import FaultDetectedError, UnrecoverableFaultError
from repro.resilience.injector import FaultInjector
from repro.runtime.errors import UnknownBroadcastTargetError

Item = tuple[Any, ...]


def _corrupt_item(item: Item, rng) -> Item:
    """Perturb the last field of one item, preserving its type."""
    val = item[-1]
    if isinstance(val, float):
        bad = val * 1.5 + 1.0
    else:
        bad = val + 1 + int(rng.integers(0, 3))
    return (*item[:-1], bad)


def perturb_channel(
    inj: FaultInjector, items: Sequence[Item]
) -> tuple[list[Item], list[str]]:
    """Apply ``inj``'s message-scope faults to one tuple list; return
    ``(delivered_items, injected_kinds)``."""
    delivered: list[Item] = list(items)
    injected: list[str] = []
    for idx, spec in enumerate(inj._message_specs):
        if not inj._budget_left(idx, spec):
            continue
        if float(inj.rng.random()) >= spec.rate:
            continue
        if spec.kind == "drop":
            delivered = []
            injected.append("drop")
            inj._record(idx, "drop")
            break
        if not delivered:
            continue
        if spec.kind == "duplicate":
            pos = int(inj.rng.integers(0, len(delivered)))
            delivered.insert(pos + 1, delivered[pos])
            injected.append("duplicate")
            inj._record(idx, "duplicate")
        elif spec.kind == "reorder":
            if len(delivered) > 1:
                perm = inj.rng.permutation(len(delivered))
                delivered = [delivered[int(i)] for i in perm]
                injected.append("reorder")
                inj._record(idx, "reorder")
        elif spec.kind == "corrupt":
            pos = int(inj.rng.integers(0, len(delivered)))
            delivered[pos] = _corrupt_item(delivered[pos], inj.rng)
            injected.append("corrupt")
            inj._record(idx, "corrupt")
    return delivered, injected


def _vertex_counts(items: Sequence[Item]) -> dict[int, int]:
    vertices: dict[int, int] = defaultdict(int)
    for it in items:
        vertices[it[0]] += 1
    return vertices


class TupleGluonSubstrate(GluonSubstrate):
    """Reduce/broadcast of per-host tuple lists with per-pair dicts."""

    def __init__(self, pgraph, resilience: "TupleGuardContext | None" = None):
        super().__init__(pgraph)
        self.resilience = resilience

    def _message_bytes(
        self,
        sender: int,
        receiver: int,
        items_by_vertex: dict[int, int],
        payload_bytes: int,
        batch_width: int,
    ) -> int:
        """Size of one pair message from its per-vertex item counts."""
        if batch_width > 1:
            per_vertex_bitvec = (batch_width + 7) // 8
            source_meta = sum(
                min(SOURCE_ID_BYTES * c, per_vertex_bitvec)
                for c in items_by_vertex.values()
            )
        else:
            source_meta = 0
        return self._pair_bytes(
            sender,
            receiver,
            len(items_by_vertex),
            sum(items_by_vertex.values()),
            source_meta,
            payload_bytes,
        )

    def _account(self, per_pair, payload_bytes, batch_width, rs, op="sync"):
        tele = obs.current()
        ledger = tele.comm
        if tele.enabled:
            before = (
                int(rs.bytes_out.sum()),
                rs.pair_messages,
                rs.items_synced,
                rs.proxies_synced,
            )
        for (sender, receiver), items in per_pair.items():
            vertices = _vertex_counts(items)
            rs.items_synced += len(items)
            rs.proxies_synced += len(vertices)
            if sender == receiver:
                continue  # local delivery is free
            nbytes = self._message_bytes(
                sender, receiver, vertices, payload_bytes, batch_width
            )
            rs.pair_messages += 1
            rs.bytes_out[sender] += nbytes
            rs.bytes_in[receiver] += nbytes
            rs.msgs_out[sender] += 1
            rs.msgs_in[receiver] += 1
            if ledger is not None:
                ledger.record_pair_message(
                    rs, sender, receiver, len(items), nbytes, op
                )
            if tele.enabled:
                tele.metrics.histogram("gluon.message_bytes", op=op).observe(
                    nbytes
                )
        if tele.enabled:
            m = tele.metrics
            m.counter("gluon.bytes", op=op).inc(
                int(rs.bytes_out.sum()) - before[0]
            )
            m.counter("gluon.pair_messages", op=op).inc(
                rs.pair_messages - before[1]
            )
            m.counter("gluon.items_synced", op=op).inc(
                rs.items_synced - before[2]
            )
            m.counter("gluon.proxies_synced", op=op).inc(
                rs.proxies_synced - before[3]
            )

    def reduce_pairs(self, per_host_items) -> dict[tuple[int, int], list[Item]]:
        """A reduce's pair messages, in first-appearance order."""
        master_of = self.pg.master_of
        per_pair: dict[tuple[int, int], list[Item]] = defaultdict(list)
        for h, items in enumerate(per_host_items):
            for it in items:
                per_pair[(h, int(master_of[it[0]]))].append(it)
        return per_pair

    def broadcast_pairs(
        self, per_host_items, targets
    ) -> dict[tuple[int, int], list[Item]]:
        """A broadcast's pair messages, in first-appearance order."""
        if targets == TARGET_OUT_EDGES:
            hosts_of = self.pg.hosts_with_out_edges
        elif targets == TARGET_IN_EDGES:
            hosts_of = self.pg.hosts_with_in_edges
        elif targets == TARGET_ALL_PROXIES:
            hosts_of = self.pg.hosts_with_proxy
        else:
            raise UnknownBroadcastTargetError(
                f"unknown broadcast target {targets!r}"
            )
        per_pair: dict[tuple[int, int], list[Item]] = defaultdict(list)
        for h, items in enumerate(per_host_items):
            for it in items:
                for dest in hosts_of(it[0]):
                    per_pair[(h, int(dest))].append(it)
        return per_pair

    def reduce_to_masters(self, per_host_items, payload_bytes, batch_width, rs):
        """Per-host inboxes of ``(gid, sender_host, *payload)`` tuples."""
        per_pair = self.reduce_pairs(per_host_items)
        self._account(per_pair, payload_bytes, batch_width, rs, op="reduce")
        if self.resilience is not None:
            per_pair = self.resilience.guard_sync(
                self, per_pair, payload_bytes, batch_width, rs
            )
        inbox: list[list[Item]] = [[] for _ in range(self.H)]
        for (h, dest), delivered in per_pair.items():
            for it in delivered:
                inbox[dest].append((it[0], h, *it[1:]))
        return inbox

    def broadcast_from_masters(
        self, per_host_items, targets, payload_bytes, batch_width, rs
    ):
        """Per-host inboxes of ``(gid, *payload)`` tuples."""
        per_pair = self.broadcast_pairs(per_host_items, targets)
        self._account(per_pair, payload_bytes, batch_width, rs, op="broadcast")
        if self.resilience is not None:
            per_pair = self.resilience.guard_sync(
                self, per_pair, payload_bytes, batch_width, rs
            )
        inbox: list[list[Item]] = [[] for _ in range(self.H)]
        for (_h, dest), delivered in per_pair.items():
            inbox[dest].extend(delivered)
        return inbox


class TupleGuardContext(ResilienceContext):
    """A :class:`ResilienceContext` whose Gluon guard works on the tuple
    substrate's per-pair dicts."""

    def guard_sync(self, substrate, per_pair, payload_bytes, batch_width, rs):
        """Inject, verify, and (per mode) repair one sync's pair messages."""
        self.gluon_host_events(rs)
        if not self.injector.has_message_faults:
            return per_pair
        out: dict[tuple[int, int], list[Item]] = {}
        retransmits: list[tuple[int, int, list[Item]]] = []
        for (sender, receiver), items in per_pair.items():
            if sender == receiver:
                out[(sender, receiver)] = items
                continue
            delivered = self._guard_tuples(
                rs.round_index, sender, receiver, items, retransmits
            )
            if delivered:
                out[(sender, receiver)] = delivered
        if retransmits:
            self._charge_tuple_retransmits(
                substrate, retransmits, payload_bytes, batch_width
            )
        return out

    def _guard_tuples(self, rnd, sender, receiver, items, retransmits):
        op = "sync"
        delivered, injected = perturb_channel(self.injector, items)
        if injected:
            self._note_injected(injected, rnd, sender, receiver, op)
        if self.mode == "off":
            return delivered
        if len(delivered) == len(items) and channel_digest(
            delivered
        ) == channel_digest(items):
            return delivered
        kinds = injected or ["unknown"]
        self._note_detected(
            kinds, rnd, sender, receiver, op, len(items), len(delivered)
        )
        if self.mode == "detect":
            raise FaultDetectedError(kinds, rnd, sender, receiver, op)
        for attempt in range(1, self.max_retries + 1):
            self.retransmits += 1
            redelivered, again = perturb_channel(self.injector, items)
            if again:
                self._note_injected(again, rnd, sender, receiver, f"{op}:retransmit")
                continue
            if len(redelivered) == len(items) and channel_digest(
                redelivered
            ) == channel_digest(items):
                self._note_recovered(
                    "retransmit", rnd, sender=sender, receiver=receiver,
                    attempts=attempt,
                )
                retransmits.append((sender, receiver, items))
                return list(items)
        raise UnrecoverableFaultError(
            f"channel {sender}->{receiver} still faulty after "
            f"{self.max_retries} retransmissions in round {rnd}"
        )

    def _charge_tuple_retransmits(
        self, substrate, retransmits, payload_bytes, batch_width
    ):
        if self.run is None:
            return
        rr = self.run.new_round("recovery", recovery=True)
        self.recovery_rounds += 1
        rl = obs.current().rounds
        if rl is not None:
            rl.record_recovery_round(rr)
        ledger = obs.current().comm
        for sender, receiver, items in retransmits:
            vertices = _vertex_counts(items)
            nbytes = substrate._message_bytes(
                sender, receiver, vertices, payload_bytes, batch_width
            )
            rr.pair_messages += 1
            rr.items_synced += len(items)
            rr.proxies_synced += len(vertices)
            rr.bytes_out[sender] += nbytes
            rr.bytes_in[receiver] += nbytes
            rr.msgs_out[sender] += 1
            rr.msgs_in[receiver] += 1
            if ledger is not None:
                ledger.record_pair_message(
                    rr, sender, receiver, len(items), nbytes, "retransmit"
                )
