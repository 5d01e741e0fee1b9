"""Message planes: the communication substrates the runtime drives.

A *plane* is what one superstep exchanges messages through.  Three
implementations cover every engine in the repository:

- :class:`GluonPlane` — host-level reduce/broadcast of per-vertex tuples
  over a partitioned graph (wrapping
  :class:`~repro.engine.gluon.GluonSubstrate`), used by the BSP vertex
  programs (bfs/wcc/pagerank/kcore, ``run_bsp``);
- :class:`GluonArrayPlane` — the same verbs and byte model carrying
  one :class:`~repro.runtime.arrays.Exchange` of stacked columns, used
  by MRBC and SBBC;
- :class:`CongestPlane` — per-channel delivery with capacity and
  combining caps (wrapping :class:`~repro.congest.network
  .CongestNetwork`'s channel structures), used by the CONGEST programs.

:func:`resolve_partition` is the shared partition policy every Gluon
driver previously copied (default-build or validate a prebuilt one).

Import discipline: see :mod:`repro.runtime.superstep` — engine modules
are imported lazily so this package stays below them in the import
graph.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.runtime.arrays import Exchange, expand_csr
from repro.runtime.errors import (
    ChannelBandwidthError,
    ChannelCapacityError,
    NotAChannelError,
    PartitionMismatchError,
    UnknownBroadcastTargetError,
)


def resolve_partition(g, partition=None, num_hosts: int = 8, policy: str = "cvc"):
    """Return the partition a Gluon driver should run on.

    Builds one with ``policy`` when none is given; a prebuilt partition
    must have been built for the same graph object.
    """
    from repro.engine.partition import partition_graph

    if partition is None:
        return partition_graph(g, num_hosts, policy)
    if partition.graph is not g:
        raise PartitionMismatchError("partition was built for a different graph")
    return partition


class MessagePlane:
    """Protocol for a communication substrate driven by the runtime.

    ``num_hosts`` is the plane's host count for manifest creation, or
    None for planes without a host concept (CONGEST: processors *are*
    vertices).  Concrete planes add their own exchange primitives — the
    step functions call them directly, so the protocol stays minimal.
    """

    num_hosts: int | None = None


class GluonPlane(MessagePlane):
    """Host-level reduce/broadcast over a partitioned graph.

    Delegates to a :class:`~repro.engine.gluon.GluonSubstrate` (pass a
    prebuilt ``substrate`` to share or customize one, e.g. exact wire
    sizes); the delayed-synchronization optimization passes through
    unchanged because callers decide *which* items each round reduces.
    """

    def __init__(
        self,
        pg,
        *,
        resilience=None,
        exact_sizes: bool = False,
        substrate=None,
    ) -> None:
        if substrate is None:
            from repro.engine.gluon import GluonSubstrate

            substrate = GluonSubstrate(
                pg, exact_sizes=exact_sizes, resilience=resilience
            )
        self.pg = pg
        self.substrate = substrate
        self.num_hosts = pg.num_hosts

    def reduce_to_masters(self, per_host_items, payload_bytes, batch_width, rs):
        """Send each host's updated items to the owning masters."""
        return self.substrate.reduce_to_masters(
            per_host_items, payload_bytes, batch_width, rs
        )

    def broadcast_from_masters(
        self, per_host_items, targets, payload_bytes, batch_width, rs
    ):
        """Send master-side items to the hosts holding relevant proxies."""
        return self.substrate.broadcast_from_masters(
            per_host_items, targets, payload_bytes, batch_width, rs
        )


class GluonArrayPlane(MessagePlane):
    """Columnar host-level reduce/broadcast: one value per exchange.

    The vectorized form of :class:`GluonPlane`.  Both verbs take and
    return one :class:`~repro.runtime.arrays.Exchange` — every host's
    items stacked host by host with ``H + 1`` host offsets — instead of
    per-vertex tuple lists; routing, inbox assembly and the per-pair
    statistics that feed Gluon's byte model are all computed with array
    reductions over the stacked columns.  Byte counts, ledger entries
    and telemetry are produced by the same
    :class:`~repro.engine.gluon.GluonSubstrate` model, so both planes
    report identical communication numbers.

    Two deliberate scope limits keep the tuple substrate authoritative
    where fidelity beats speed:

    - ``exact_sizes`` is refused (it encodes each item individually);
    - under a :class:`~repro.resilience.context.ResilienceContext`, every
      exchange round-trips through the guarded tuple substrate, one host
      part at a time (:meth:`Exchange.to_parts` / ``from_parts``), so
      fault injection, channel verification and repair are the
      substrate's own — at tuple speed.

    The inbox ordering contract is the tuple plane's: each destination
    host receives sender blocks in ascending sender order, items within
    a sender in staging order (reduce inboxes carry the sender as the
    first payload column, mirroring the tuple plane's
    ``(gid, sender, *payload)``).
    """

    def __init__(self, pg, *, resilience=None, substrate=None) -> None:
        if substrate is None:
            from repro.engine.gluon import GluonSubstrate

            substrate = GluonSubstrate(pg, resilience=resilience)
        if substrate.exact_sizes:
            raise ValueError(
                "exact_sizes requires per-item encoding; use GluonPlane"
            )
        self.pg = pg
        self.substrate = substrate
        self.num_hosts = pg.num_hosts
        self._n = int(pg.master_of.size)

    # -- pair statistics ---------------------------------------------------

    def _pair_stats(self, snd, dest, gids, batch_width):
        """Per host pair: (sender, receiver, n_items, n_vertices,
        source_meta_bytes), via array group-bys over the routed items."""
        from repro.engine.gluon import SOURCE_ID_BYTES

        H = self.num_hosts
        n = self._n
        if gids.size <= 32:
            # Tiny exchanges (frontier tails on sparse graphs) group
            # faster through plain dicts than through a dozen
            # fixed-overhead array ops — the crossover sits near 40
            # items; the result is identical, ordered by pair key.
            # The source-meta term is maintained incrementally: raising a
            # vertex's item count from c-1 to c adds the delta of the
            # min(index list, bitvector) encoding.
            bitvec = (batch_width + 7) // 8 if batch_width > 1 else 0
            vcount: dict[int, int] = {}
            agg: dict[int, list[int]] = {}
            for s_, d_, g_ in zip(snd.tolist(), dest.tolist(), gids.tolist()):
                pk_ = s_ * H + d_
                key = pk_ * n + g_
                c = vcount.get(key, 0) + 1
                vcount[key] = c
                st = agg.get(pk_)
                if st is None:
                    agg[pk_] = st = [0, 0, 0]
                st[0] += 1
                if c == 1:
                    st[1] += 1
                if bitvec:
                    st[2] += min(SOURCE_ID_BYTES * c, bitvec) - min(
                        SOURCE_ID_BYTES * (c - 1), bitvec
                    )
            return [
                (pk_ // H, pk_ % H, st[0], st[1], st[2])
                for pk_, st in sorted(agg.items())
            ]
        pkey = snd * H + dest
        # Group once by (pair, vertex) to get per-vertex item counts,
        # then by pair for the message-level aggregates — one sort plus
        # boundary scans (both group keys are prefixes of the sort key).
        ks = np.sort(pkey * n + gids)
        flag = np.empty(ks.size, dtype=bool)
        flag[0] = True
        np.not_equal(ks[1:], ks[:-1], out=flag[1:])
        starts = np.nonzero(flag)[0]
        vcounts = np.empty(starts.size, dtype=np.int64)
        np.subtract(starts[1:], starts[:-1], out=vcounts[:-1])
        vcounts[-1] = ks.size - starts[-1]
        pk = ks[starts] // n
        chg = np.ones(pk.size, dtype=bool)
        chg[1:] = pk[1:] != pk[:-1]
        upairs = pk[chg]
        pinv = np.cumsum(chg) - 1
        n_vertices = np.bincount(pinv, minlength=upairs.size)
        n_items = np.bincount(
            pinv, weights=vcounts, minlength=upairs.size
        ).astype(np.int64, copy=False)
        if batch_width > 1:
            per_vertex_bitvec = (batch_width + 7) // 8
            sm = np.minimum(SOURCE_ID_BYTES * vcounts, per_vertex_bitvec)
            source_meta = np.bincount(
                pinv, weights=sm, minlength=upairs.size
            ).astype(np.int64, copy=False)
        else:
            source_meta = np.zeros(upairs.size, dtype=np.int64)
        return list(
            zip(
                (upairs // H).tolist(),
                (upairs % H).tolist(),
                n_items.tolist(),
                n_vertices.tolist(),
                source_meta.tolist(),
            )
        )

    @staticmethod
    def _route(dest, num_hosts) -> tuple[np.ndarray, np.ndarray]:
        """The stable by-destination permutation of items, and the
        ``num_hosts + 1`` host offsets of the routed order.

        The destination is cast to the narrowest unsigned type that
        holds ``num_hosts - 1`` before the stable argsort: for 8- and
        16-bit keys NumPy sorts by radix, in O(items), and a stable sort
        returns the same permutation whatever the key's width.
        """
        order = np.argsort(
            dest.astype(np.min_scalar_type(num_hosts - 1)), kind="stable"
        )
        off = np.zeros(num_hosts + 1, dtype=np.int64)
        np.cumsum(np.bincount(dest, minlength=num_hosts), out=off[1:])
        return order, off

    @staticmethod
    def _split_by_dest(gids, dest, cols, num_hosts) -> Exchange:
        """Stable-partition items by destination host into an exchange."""
        order, off = GluonArrayPlane._route(dest, num_hosts)
        return Exchange(gids.take(order), tuple(c.take(order) for c in cols), off)

    # -- primitives --------------------------------------------------------

    def reduce_to_masters(self, ex: Exchange, payload_bytes, batch_width, rs):
        """Send each host's updated columns to the owning masters.

        Returns the masters' inboxes as one :class:`Exchange` whose
        first payload column is the sender host.
        """
        if self.substrate.resilience is not None:
            return self._reduce_via_substrate(ex, payload_bytes, batch_width, rs)
        if not len(ex):
            self.substrate.account_column_pairs(
                (), payload_bytes, batch_width, rs, op="reduce"
            )
            return Exchange.empty(self.num_hosts)
        gids = ex.gids
        snd = ex.hosts()
        dest = self.pg.master_of.take(gids)
        self.substrate.account_column_pairs(
            self._pair_stats(snd, dest, gids, batch_width),
            payload_bytes,
            batch_width,
            rs,
            op="reduce",
        )
        return self._split_by_dest(gids, dest, (snd, *ex.cols), self.num_hosts)

    def broadcast_from_masters(
        self, ex: Exchange, targets, payload_bytes, batch_width, rs
    ):
        """Send master-side columns to the hosts holding relevant proxies.

        Raises :class:`~repro.runtime.errors.UnknownBroadcastTargetError`
        (a ``ValueError``) for a ``targets`` selector that does not exist.
        """
        try:
            offsets, hosts = self.pg.vertex_host_csr(targets)
        except ValueError:
            raise UnknownBroadcastTargetError(
                f"unknown broadcast target {targets!r}"
            ) from None
        if self.substrate.resilience is not None:
            return self._broadcast_via_substrate(
                ex, targets, payload_bytes, batch_width, rs
            )
        if not len(ex):
            self.substrate.account_column_pairs(
                (), payload_bytes, batch_width, rs, op="broadcast"
            )
            return Exchange.empty(self.num_hosts)
        # One expansion over the stacked senders, in sender order — the
        # item sequence of a per-host loop — then one gather per column
        # through the routed order.
        item_of, dest = expand_csr(offsets, hosts, ex.gids)
        dest = dest.astype(np.int64, copy=False)
        snd = ex.hosts().take(item_of)
        self.substrate.account_column_pairs(
            self._pair_stats(snd, dest, ex.gids.take(item_of), batch_width),
            payload_bytes,
            batch_width,
            rs,
            op="broadcast",
        )
        order, off = self._route(dest, self.num_hosts)
        sel = item_of.take(order)
        return Exchange(ex.gids.take(sel), tuple(c.take(sel) for c in ex.cols), off)

    # -- resilience fallback (guarded tuple substrate) ---------------------

    def _reduce_via_substrate(self, ex, payload_bytes, batch_width, rs):
        inbox = self.substrate.reduce_to_masters(
            ex.to_parts(), payload_bytes, batch_width, rs
        )
        if not len(ex):
            return Exchange.empty(self.num_hosts)
        dtypes = (np.dtype(np.int64), *(c.dtype for c in ex.cols))
        return Exchange.from_parts(inbox, dtypes)

    def _broadcast_via_substrate(
        self, ex, targets, payload_bytes, batch_width, rs
    ):
        inbox = self.substrate.broadcast_from_masters(
            ex.to_parts(), targets, payload_bytes, batch_width, rs
        )
        if not len(ex):
            return Exchange.empty(self.num_hosts)
        return Exchange.from_parts(inbox, tuple(c.dtype for c in ex.cols))


class CongestPlane(MessagePlane):
    """One CONGEST round: validated sends, accounting, delivery.

    Owns the send/validate/record/deliver sequence that used to live in
    ``CongestNetwork._run_rounds`` — channel membership and the
    per-channel combining cap are enforced here, message statistics and
    per-round telemetry are recorded here, and the resilience channel
    guard runs between accounting and delivery.  The network object
    keeps the graph-shaped state (channels, programs).
    """

    num_hosts = None

    def __init__(self, network) -> None:
        from repro.congest.messages import MAX_COMBINED_VALUES, payload_words
        from repro.congest.program import BROADCAST
        from repro.obs.comm import PLANE_CONGEST, WORD_BYTES

        self.network = network
        self._broadcast = BROADCAST
        self._max_combined = MAX_COMBINED_VALUES
        self._payload_words = payload_words
        self._plane_label = PLANE_CONGEST
        self._word_bytes = WORD_BYTES

    def exchange_round(self, rnd, result, tele, rs, detect_quiescence) -> bool:
        """Execute CONGEST round ``rnd``; return whether work may remain.

        The return value feeds Lemma 8's global termination detector:
        with ``detect_quiescence`` it is true while this round sent
        anything or any program reports pending work; otherwise always
        true (the caller's round budget terminates the run).
        """
        net = self.network
        programs = net.programs
        # Host-scope faults (stall/crash) materialize at the round
        # barrier, before any channel traffic — a stall charges recovery
        # rounds (or times out per the policy deadline), a crash raises
        # for the driver-level restart loop.
        if net.resilience is not None:
            net.resilience.congest_host_events(rnd)
        # -- send phase: collect and validate this round's messages.
        # outbox maps (sender, target) -> list of payloads (combined).
        outbox: dict[tuple[int, int], list[tuple[Any, ...]]] = {}
        any_send = False
        for v, prog in enumerate(programs):
            if prog.is_stopped():
                continue
            sends = prog.compute_sends(rnd)
            if not sends:
                continue
            for target, payload in sends:
                if target == self._broadcast:
                    targets = net.channel_neighbors[v]
                else:
                    if target not in net._channel_sets[v]:
                        raise NotAChannelError(
                            f"vertex {v} has no channel to {target}"
                        )
                    targets = (target,)
                for t in targets:
                    key = (v, int(t))
                    bucket = outbox.setdefault(key, [])
                    if len(bucket) >= self._max_combined:
                        raise ChannelCapacityError(
                            f"vertex {v} exceeded channel capacity to {t} "
                            f"in round {rnd}"
                        )
                    bucket.append(payload)
                    any_send = True

        result.sends_per_round.append(len(outbox))
        if any_send:
            result.last_send_round = rnd
            for payloads in outbox.values():
                result.stats.record_channel(payloads)
        ledger = tele.comm
        if ledger is not None:
            for (sender, target), payloads in outbox.items():
                words = sum(self._payload_words(p) for p in payloads)
                violation = ledger.record(
                    self._plane_label,
                    "congest",
                    rnd,
                    sender,
                    target,
                    values=len(payloads),
                    words=words,
                    payload_bytes=words * self._word_bytes,
                )
                if violation is not None:
                    if tele.enabled:
                        tele.emit(
                            "comm",
                            "congest.bound_violation",
                            round=rnd,
                            src=sender,
                            dst=target,
                            words=words,
                            bound_words=violation.bound_words,
                        )
                    if ledger.hard_fail:
                        raise ChannelBandwidthError(
                            f"channel {sender}->{target} carried {words} words "
                            f"in round {rnd}, exceeding the CONGEST budget of "
                            f"{violation.bound_words} words/round"
                        )
        total_values = sum(len(p) for p in outbox.values())
        if tele.enabled:
            tele.emit(
                "round",
                "round:congest",
                round=rnd,
                phase="congest",
                channels=len(outbox),
                values=total_values,
            )
        if rs is not None:
            # An EngineRun is attached (persistable CONGEST runs): a
            # channel is the congest analogue of a pair message.
            rs.pair_messages += len(outbox)
            rs.items_synced += total_values
        rledger = tele.rounds
        if rledger is not None:
            # The round-ledger seam: sending vertices are the CONGEST
            # frontier; non-stopped programs are the still-active workers
            # whose quiescence Lemma 8's detector waits for.
            rledger.note(
                frontier=len({s for (s, _t) in outbox}),
                channels=len(outbox),
                values=total_values,
                active_sources=sum(
                    1 for p in programs if not p.is_stopped()
                ),
            )

        # -- delivery phase: receivers process during this round.
        for (sender, target), payloads in outbox.items():
            if net.resilience is not None:
                payloads = net.resilience.guard_congest(
                    rnd, sender, target, payloads
                )
            handler = programs[target].handle_message
            for payload in payloads:
                handler(rnd, sender, payload)

        for prog in programs:
            prog.end_of_round(rnd)

        result.rounds_executed = rnd

        if not detect_quiescence:
            return True
        return any_send or any(p.has_pending_work(rnd) for p in programs)
