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


#: The per-pair columns of an exchange with no item.
_NO_PAIRS: tuple[tuple[int, ...], ...] = ((),) * 5


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
    per-vertex tuple lists; routing and inbox assembly are array
    gathers over the stacked columns, and the per-pair statistics that
    feed Gluon's byte model are read off the routed order in one linear
    pass (:meth:`_pair_stats`).  Byte counts, ledger entries and
    telemetry are produced by the same
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

    # -- pair statistics ---------------------------------------------------

    @staticmethod
    def _pair_stats(snd, inbox: Exchange, batch_width) -> list[list[int]]:
        """The per-pair columns ``[senders, receivers, n_items,
        n_vertices, source_meta]`` of a routed exchange: one entry per
        host pair with traffic, in (sender, receiver) order.

        ``inbox`` is the routed order and ``snd`` its sender per item.
        The stable route keeps each receiver's items in sender order, so
        every (receiver, sender) pair is one contiguous segment, and the
        sender's vertex runs (the :class:`Exchange` invariant) lie whole
        in it: a run starts at a segment start or a gid change.  One
        linear pass reads a pair's message off its segment — the items
        are its length, the vertices (each named once) its run starts,
        and the source metadata sums ``min(4·run length, ⌈k/8⌉)`` over
        its runs.  No sort over the items and no size threshold; only
        the ≤ H² pairs are reordered.
        """
        from repro.engine.gluon import SOURCE_ID_BYTES

        gids, off = inbox.gids, inbox.off
        m = gids.size
        # Start flags over m + 1 positions: the last one, set through
        # off[-1] == m, closes the final segment and run.
        seg = np.empty(m + 1, dtype=bool)
        np.not_equal(snd[1:], snd[:-1], out=seg[1:m])
        seg[off] = True
        run = seg.copy()
        run[1:m] |= gids[1:] != gids[:-1]
        seg_at = np.flatnonzero(seg)
        run_at = np.flatnonzero(run)
        runs_before = np.searchsorted(run_at, seg_at)
        first = seg_at[:-1]
        cols = np.zeros((5, first.size), dtype=np.int64)
        snd.take(first, out=cols[0])
        # A segment's receiver: the receiver parts ending at or before it.
        cols[1] = np.searchsorted(off[1:], first, side="right")
        np.subtract(seg_at[1:], first, out=cols[2])
        np.subtract(runs_before[1:], runs_before[:-1], out=cols[3])
        if batch_width > 1:
            # Prefix sums of the per-run term, differenced per segment.
            meta = np.zeros(run_at.size, dtype=np.int64)
            np.minimum(
                SOURCE_ID_BYTES * np.diff(run_at), (batch_width + 7) // 8,
                out=meta[1:],
            )
            np.cumsum(meta, out=meta)
            np.subtract(
                meta.take(runs_before[1:]), meta.take(runs_before[:-1]),
                out=cols[4],
            )
        return cols[:, np.argsort(cols[0], kind="stable")].tolist()

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
                _NO_PAIRS, payload_bytes, rs, op="reduce"
            )
            return Exchange.empty(self.num_hosts)
        gids = ex.gids
        inbox = self._split_by_dest(
            gids, self.pg.master_of.take(gids), (ex.hosts(), *ex.cols),
            self.num_hosts,
        )
        self.substrate.account_column_pairs(
            self._pair_stats(inbox.cols[0], inbox, batch_width),
            payload_bytes,
            rs,
            op="reduce",
        )
        return inbox

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
                _NO_PAIRS, payload_bytes, rs, op="broadcast"
            )
            return Exchange.empty(self.num_hosts)
        # One expansion over the stacked senders, in sender order — the
        # item sequence of a per-host loop — then one gather per column
        # through the routed order.
        item_of, dest = expand_csr(offsets, hosts, ex.gids)
        order, off = self._route(dest, self.num_hosts)
        sel = item_of.take(order)
        inbox = Exchange(
            ex.gids.take(sel), tuple(c.take(sel) for c in ex.cols), off
        )
        self.substrate.account_column_pairs(
            self._pair_stats(ex.hosts().take(sel), inbox, batch_width),
            payload_bytes,
            rs,
            op="broadcast",
        )
        return inbox

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
