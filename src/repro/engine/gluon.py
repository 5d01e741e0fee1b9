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
from typing import Sequence

from repro import obs
from repro.engine.partition import PartitionedGraph
from repro.engine.stats import RoundStats

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
    """Gluon's byte model over a :class:`PartitionedGraph`: the size of
    one aggregated pair message (:meth:`_pair_bytes`) and the accounting
    of one exchange's pair messages (:meth:`account_column_pairs`).
    :class:`~repro.runtime.plane.GluonArrayPlane` routes the exchanges
    and computes their per-pair statistics.
    """

    def __init__(self, pgraph: PartitionedGraph) -> None:
        self.pg = pgraph
        self.H = pgraph.num_hosts
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
        """Size of one aggregated pair message: the header, the
        synchronized proxies named by whichever is smaller — an index
        list or a bitmap over the pair's shared proxies (none when they
        share none) — the per-vertex source metadata ``source_meta``, and
        the payload."""
        return (
            MESSAGE_HEADER_BYTES
            + min(VERTEX_ID_BYTES * n_vertices, self._bitmap_bytes[sender][receiver])
            + source_meta
            + payload_bytes * n_items
        )

    def account_column_pairs(
        self,
        columns: Sequence[Sequence[int]],
        payload_bytes: int,
        rs: RoundStats,
        op: str = "sync",
    ) -> None:
        """Charge one exchange's pair messages.

        ``columns`` are the per-pair columns ``(senders, receivers,
        n_items, n_vertices, source_meta)`` — one entry per host pair
        with traffic this round, ``source_meta`` the summed min(index
        list, k-bit bitvector) term.  Each non-self pair is one message:
        its bytes, ``RoundStats`` counters, ledger row and telemetry
        sample, in the columns' order; local delivery is free.  Message
        sizes are Python-int arithmetic; the per-host byte and message
        totals reach ``rs`` once per call.
        """
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
