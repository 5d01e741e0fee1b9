"""Gluon-style communication substrate (paper §4.1, Dathathri et al. 2018).

Gluon reconciles the labels of a vertex's proxies with a reduce phase
(mirrors send their updates to the master) and a broadcast phase (the
master sends the reconciled value to mirrors).  Its key communication
optimizations, all modelled here:

- **Update tracking** — only labels the algorithm marks as updated are
  sent (callers pass exactly the items to synchronize, which is how the
  paper's *delayed synchronization* optimization plugs in: MRBC passes a
  label only in the round the algorithm proves it final).
- **Message aggregation** — all values exchanged between one host pair in
  one round travel in a single message (one header per pair per round).
- **Metadata compression** — the proxies being synchronized are identified
  by whichever is smaller: an explicit index list (4 bytes per vertex) or
  a bitmap over the pair's shared proxies.  Synchronizing more proxies per
  round therefore costs fewer metadata bytes per proxy — exactly the
  effect §5.3 credits for MRBC's 2.8× communication-time reduction.
- **Batched-source metadata** — when an algorithm synchronizes per-source
  values for a batch of ``k`` sources (MRBC), the sources present for one
  vertex are identified by min(index list, k-bit bitvector) per vertex.

Byte accounting is exact and deterministic; simulated wire time comes from
:mod:`repro.cluster.model`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Sequence

from repro import obs
from repro.engine.partition import PartitionedGraph
from repro.engine.stats import RoundStats
from repro.runtime.errors import UnknownBroadcastTargetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.context import ResilienceContext

#: Fixed per-message overhead: MPI envelope, per-field descriptors (each
#: Gluon sync moves multiple labeled fields), length words, and buffer
#: padding.  This fixed cost is paid once per host pair per round, so an
#: algorithm that synchronizes the same labels in fewer rounds (MRBC)
#: amortizes it — the §5.3 mechanism behind MRBC's lower communication
#: volume despite its larger per-value messages.
MESSAGE_HEADER_BYTES = 384
#: Bytes to name one vertex in an explicit index list.
VERTEX_ID_BYTES = 4
#: Bytes to name one source slot in an explicit per-vertex source list.
SOURCE_ID_BYTES = 4

#: Broadcast target selectors.
TARGET_OUT_EDGES = "out_edges"
TARGET_IN_EDGES = "in_edges"
TARGET_ALL_PROXIES = "proxies"


class GluonSubstrate:
    """Reduce/broadcast primitives over a :class:`PartitionedGraph`.

    With ``exact_sizes=True``, message sizes come from actually encoding
    each aggregated message with the wire format in
    :mod:`repro.engine.serialize` instead of the closed-form model — the
    two agree within a few percent (asserted in the tests), but exact mode
    pays the encoding cost on every sync.

    With a :class:`~repro.resilience.context.ResilienceContext` attached,
    every aggregated pair message passes through the context's channel
    guard between accounting and delivery: the guard injects the active
    fault plan's perturbations and — depending on its mode — verifies and
    repairs the channel before the items reach the destination inboxes.
    """

    def __init__(
        self,
        pgraph: PartitionedGraph,
        exact_sizes: bool = False,
        resilience: "ResilienceContext | None" = None,
    ) -> None:
        self.pg = pgraph
        self.H = pgraph.num_hosts
        self.exact_sizes = exact_sizes
        self.resilience = resilience
        #: Per host pair, the bitmap over its shared proxies in bytes;
        #: a pair that shares none has no bitmap (an unbounded size).
        self._bitmap_bytes = [
            [(c + 7) // 8 if c else math.inf for c in row]
            for row in pgraph.shared_proxies.tolist()
        ]

    # -- metadata model --------------------------------------------------------

    def _pair_bytes(
        self,
        sender: int,
        receiver: int,
        n_vertices: int,
        n_items: int,
        source_meta: int,
        payload_bytes: int,
    ) -> int:
        """Size of one aggregated pair message, the one formula both
        planes charge: the header, the synchronized proxies named by
        whichever is smaller — an index list or a bitmap over the pair's
        shared proxies (none when they share none) — the per-vertex
        source metadata ``source_meta``, and the payload."""
        return (
            MESSAGE_HEADER_BYTES
            + min(VERTEX_ID_BYTES * n_vertices, self._bitmap_bytes[sender][receiver])
            + source_meta
            + payload_bytes * n_items
        )

    def _message_bytes(
        self,
        sender: int,
        receiver: int,
        items_by_vertex: dict[int, int],
        payload_bytes: int,
        batch_width: int,
    ) -> int:
        """Size of one aggregated pair message.

        ``items_by_vertex`` maps each distinct vertex in the message to its
        number of per-source items.  With batched sources, a vertex's
        sources are named by min(index list, k-bit bitvector).
        """
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

    def account_column_pairs(
        self,
        columns: Sequence[Sequence[int]],
        payload_bytes: int,
        rs: RoundStats,
        op: str = "sync",
    ) -> None:
        """Columnar twin of :meth:`_account`.

        ``columns`` are the per-pair columns ``(senders, receivers,
        n_items, n_vertices, source_meta)`` — one entry per host pair
        with traffic this round, ``source_meta`` the summed min(index
        list, k-bit bitvector) term.  Every byte, counter, ledger entry
        and telemetry sample is produced exactly as the tuple path
        would; only the aggregation that *computes* the per-pair counts
        moved into array code.  Message sizes are Python-int arithmetic;
        the per-host byte and message totals reach ``rs`` once per call.
        Requires the closed-form size model (``exact_sizes`` encodes
        each item and has no columnar equivalent).
        """
        if self.exact_sizes:
            raise ValueError(
                "columnar accounting requires the closed-form size model; "
                "exact_sizes stays on the tuple plane (GluonPlane)"
            )
        senders, receivers, n_items, n_vertices, source_meta = columns
        tele = obs.current()
        ledger = tele.comm
        hist = None
        H = self.H
        bytes_out = [0] * H
        bytes_in = [0] * H
        msgs_out = [0] * H
        msgs_in = [0] * H
        messages = 0
        for sender, receiver, items, vertices, meta in zip(
            senders, receivers, n_items, n_vertices, source_meta
        ):
            if sender == receiver:
                continue  # local delivery is free
            nbytes = self._pair_bytes(
                sender, receiver, vertices, items, meta, payload_bytes
            )
            messages += 1
            bytes_out[sender] += nbytes
            bytes_in[receiver] += nbytes
            msgs_out[sender] += 1
            msgs_in[receiver] += 1
            if ledger is not None:
                ledger.record_pair_message(rs, sender, receiver, items, nbytes, op)
            if tele.enabled:
                if hist is None:
                    hist = tele.metrics.histogram("gluon.message_bytes", op=op)
                hist.observe(nbytes)
        items_synced = sum(n_items)
        proxies_synced = sum(n_vertices)
        rs.items_synced += items_synced
        rs.proxies_synced += proxies_synced
        if messages:
            rs.pair_messages += messages
            rs.bytes_out += bytes_out
            rs.bytes_in += bytes_in
            rs.msgs_out += msgs_out
            rs.msgs_in += msgs_in
        if tele.enabled:
            m = tele.metrics
            m.counter("gluon.bytes", op=op).inc(sum(bytes_out))
            m.counter("gluon.pair_messages", op=op).inc(messages)
            m.counter("gluon.items_synced", op=op).inc(items_synced)
            m.counter("gluon.proxies_synced", op=op).inc(proxies_synced)

    def _encoded_bytes(
        self,
        items: list[tuple[Any, ...]],
        payload_bytes: int,
        batch_width: int,
    ) -> int:
        """Exact size: actually encode the aggregated message."""
        from repro.engine.serialize import encoded_size

        # Payload layout: dist i32 + sigma f64 (12 B) or a single f64 per
        # value (8 B) — pick the struct format matching payload_bytes.
        fmt = "<id" if payload_bytes >= 12 else "<d"
        wire_items = []
        for it in items:
            gid = int(it[0])
            si = int(it[1]) if batch_width > 1 and len(it) > 2 else 0
            if fmt == "<id":
                wire_items.append((gid, si, (0, 0.0)))
            else:
                wire_items.append((gid, si, (0.0,)))
        return encoded_size(wire_items, batch_width, payload_format=fmt)

    def _account(
        self,
        per_pair: dict[tuple[int, int], list[tuple[Any, ...]]],
        payload_bytes: int,
        batch_width: int,
        rs: RoundStats,
        op: str = "sync",
    ) -> None:
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
            vertices: dict[int, int] = defaultdict(int)
            for it in items:
                vertices[it[0]] += 1
            rs.items_synced += len(items)
            rs.proxies_synced += len(vertices)
            if sender == receiver:
                continue  # local delivery is free
            if self.exact_sizes:
                nbytes = self._encoded_bytes(items, payload_bytes, batch_width)
            else:
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

    # -- primitives -------------------------------------------------------------

    def reduce_to_masters(
        self,
        per_host_items: Sequence[list[tuple[Any, ...]]],
        payload_bytes: int,
        batch_width: int,
        rs: RoundStats,
    ) -> list[list[tuple[Any, ...]]]:
        """Send each host's updated items to the owning masters.

        ``per_host_items[h]`` is a list of ``(gid, *payload)`` tuples
        produced on host ``h``.  Returns per-host master inboxes of
        ``(gid, sender_host, *payload)`` tuples; the reduction operator
        itself is applied by the caller (it is algorithm-specific).
        """
        master_of = self.pg.master_of
        per_pair: dict[tuple[int, int], list[tuple[Any, ...]]] = defaultdict(list)
        for h, items in enumerate(per_host_items):
            for it in items:
                per_pair[(h, int(master_of[it[0]]))].append(it)
        self._account(per_pair, payload_bytes, batch_width, rs, op="reduce")
        # The sender-side bytes above are authoritative; the channel guard
        # perturbs (and possibly repairs) what actually arrives.
        if self.resilience is not None:
            per_pair = self.resilience.guard_sync(
                self, per_pair, payload_bytes, batch_width, rs
            )
        inbox: list[list[tuple[Any, ...]]] = [[] for _ in range(self.H)]
        for (h, dest), delivered in per_pair.items():
            for it in delivered:
                inbox[dest].append((it[0], h, *it[1:]))
        return inbox

    def broadcast_from_masters(
        self,
        per_host_items: Sequence[list[tuple[Any, ...]]],
        targets: str,
        payload_bytes: int,
        batch_width: int,
        rs: RoundStats,
    ) -> list[list[tuple[Any, ...]]]:
        """Send master-side items to the hosts holding relevant proxies.

        ``targets`` selects the destination set per vertex:
        :data:`TARGET_OUT_EDGES` (hosts owning out-edges — forward phase),
        :data:`TARGET_IN_EDGES` (accumulation phase), or
        :data:`TARGET_ALL_PROXIES`.  The sending host receives its own copy
        locally for free.  Returns per-host inboxes of ``(gid, *payload)``.
        """
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

        per_pair: dict[tuple[int, int], list[tuple[Any, ...]]] = defaultdict(list)
        for h, items in enumerate(per_host_items):
            for it in items:
                for dest in hosts_of(it[0]):
                    per_pair[(h, int(dest))].append(it)
        self._account(per_pair, payload_bytes, batch_width, rs, op="broadcast")
        if self.resilience is not None:
            per_pair = self.resilience.guard_sync(
                self, per_pair, payload_bytes, batch_width, rs
            )
        inbox: list[list[tuple[Any, ...]]] = [[] for _ in range(self.H)]
        for (_h, dest), delivered in per_pair.items():
            inbox[dest].extend(delivered)
        return inbox
