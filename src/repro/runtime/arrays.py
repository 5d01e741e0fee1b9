"""Columnar per-source state for the MRBC/SBBC executors.

The §4.3 label layout as dense ``(k, n)`` / ``(L, k)`` NumPy arrays for
distance/σ/δ, :class:`~repro.utils.bitset.Bitset`-backed masks for the
delayed-sync staging sets, and :class:`Exchange` — the unit of exchange
on the :class:`~repro.runtime.plane.GluonArrayPlane`: every host's
items stacked host by host as a struct of arrays, instead of a list of
tuples per host.

One explicit converter pair bridges to the tuple substrate:
:meth:`Exchange.to_parts` / :meth:`Exchange.from_parts` translate
exchange payloads per host part (:meth:`ColumnBlock.to_tuples` /
:meth:`ColumnBlock.from_tuples`), which is how the array plane routes
through the guarded tuple substrate under a fault plan.  The master
state has one form, :class:`MasterColumns`: forward checkpoints store
its arrays and the resilience invariant checker reads them in place.

Iteration-order contract: master creation order is explicit state
(``master_seq``), and every order-sensitive sweep (fire emission,
backward schedule, BC banking) follows it.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

import numpy as np

from repro.utils.bitset import Bitset

#: "Infinite" distance sentinel (identical to the engines' ``INF``).
INF = np.iinfo(np.int32).max

#: Sentinel larger than any shift-packed key: a master's schedule key
#: ``(d << si_bits) | si`` and the relax sweep's (distance, position) key.
BIG = np.iinfo(np.int64).max


def expand_csr(
    offsets: np.ndarray, data: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather the variable-length CSR slices ``data[offsets[i]:offsets[i+1]]``
    for every ``i`` in ``idx``, concatenated in order.

    Returns ``(item_of, values)`` where ``item_of[e]`` is the position in
    ``idx`` that produced ``values[e]`` — the vectorized form of

    ``for j, i in enumerate(idx): for v in data[off[i]:off[i+1]]: ...``
    """
    idx = np.asarray(idx, dtype=np.int64)
    starts = offsets.take(idx).astype(np.int64, copy=False)
    counts = offsets.take(idx + 1) - starts
    item_of = np.arange(idx.size, dtype=np.int64).repeat(counts)
    total = item_of.size
    if total == 0:
        return item_of, data[:0]
    # Event e of item i reads data[starts[i] + (e - first event of i)]:
    # one per-item shift, gathered once (a take beats a second repeat).
    pos = (starts - (counts.cumsum() - counts)).take(item_of)
    pos += np.arange(total, dtype=np.int64)
    return item_of, data.take(pos)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` for a flat integer array, by sort and
    neighbour compare — several times faster than ``np.unique``'s hash
    path on the small per-round key sets the sweeps deduplicate."""
    out = np.sort(keys)
    if out.size > 1:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


class ColumnBlock:
    """One host's part of an :class:`Exchange`: aligned arrays.

    ``gids`` names the global vertex per row; ``cols`` carries the
    payload columns (e.g. source slot, distance, σ).  The tuple
    substrate's equivalent is a list of ``(gid, *payload)`` tuples — the
    converters below translate losslessly in both directions.
    """

    __slots__ = ("gids", "cols")

    def __init__(self, gids: np.ndarray, cols: tuple[np.ndarray, ...]) -> None:
        self.gids = np.asarray(gids, dtype=np.int64)
        self.cols = tuple(np.asarray(c) for c in cols)

    @classmethod
    def raw(cls, gids: np.ndarray, cols: tuple[np.ndarray, ...]) -> "ColumnBlock":
        """No-validation constructor for hot paths (arrays already typed)."""
        self = object.__new__(cls)
        self.gids = gids
        self.cols = cols
        return self

    def __len__(self) -> int:
        return int(self.gids.size)

    def to_tuples(self) -> list[tuple[Any, ...]]:
        """The tuple substrate's representation: ``(gid, *payload)``."""
        pys = [self.gids.tolist()] + [c.tolist() for c in self.cols]
        return list(zip(*pys))

    @classmethod
    def from_tuples(
        cls, items: Iterable[tuple[Any, ...]], dtypes: tuple[Any, ...]
    ) -> "ColumnBlock":
        """Rebuild a block from ``(gid, *payload)`` tuples.

        ``dtypes`` gives the payload column dtypes (``gids`` is always
        int64); required because an empty list carries no type info.
        """
        rows = list(items)
        if not rows:
            return cls(
                np.empty(0, dtype=np.int64),
                tuple(np.empty(0, dtype=dt) for dt in dtypes),
            )
        columns = list(zip(*rows))
        return cls(
            np.asarray(columns[0], dtype=np.int64),
            tuple(
                np.asarray(col, dtype=dt)
                for col, dt in zip(columns[1:], dtypes)
            ),
        )


class Exchange:
    """One plane exchange: every host's items stacked host by host.

    Host ``h``'s part is ``gids[off[h]:off[h + 1]]`` and the same slice
    of each payload column in ``cols``, in its staging (or delivery)
    order; ``off`` holds ``H + 1`` non-decreasing offsets.  Producers
    build the value directly — staged rows already run host-major, and
    fires are routed (``GluonArrayPlane._split_by_dest``) — and
    consumers read the stacked columns in place, so no exchange is
    split into per-host pieces and stacked again at a boundary.

    Iterating yields each host's part, host ascending, as an O(1)
    :class:`ColumnBlock` view, or None when the host has no item.  An
    exchange with no item may carry no payload columns at all.

    Invariant — *vertex runs*: within a host part of an exchange the
    plane sends, a vertex's items are adjacent, so no ``(host, gid)``
    appears in two runs.  This is the shape of a Gluon pair message
    (each vertex named once, with one source bitvector), and the plane
    reads its per-pair message sizes off the runs.  Every producer
    satisfies it: staged rows run row-major
    (:meth:`HostArena.exchange`), MRBC fires are unique per master, its
    backward buckets are grouped by ``master_seq``, and SBBC's
    exchanges name each gid once per host.  A reduce's inbox is grouped
    by sender instead: a vertex reported by several hosts appears once
    per sender block of its master's part.
    """

    __slots__ = ("gids", "cols", "off")

    def __init__(
        self, gids: np.ndarray, cols: tuple[np.ndarray, ...], off: np.ndarray
    ) -> None:
        self.gids = gids
        self.cols = cols
        self.off = off

    @classmethod
    def empty(cls, num_hosts: int) -> "Exchange":
        """No item on any of ``num_hosts`` hosts."""
        return cls(
            np.empty(0, dtype=np.int64), (), np.zeros(num_hosts + 1, dtype=np.int64)
        )

    @classmethod
    def from_parts(
        cls, parts: list[list[tuple[Any, ...]]], dtypes: tuple[Any, ...]
    ) -> "Exchange":
        """Stack per-host ``(gid, *payload)`` tuple lists.

        ``dtypes`` gives the payload column dtypes, as for
        :meth:`ColumnBlock.from_tuples`.
        """
        off = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([len(p) for p in parts], out=off[1:])
        blk = ColumnBlock.from_tuples((t for p in parts for t in p), dtypes)
        return cls(blk.gids, blk.cols, off)

    def to_parts(self) -> list[list[tuple[Any, ...]]]:
        """Per host, the tuple substrate's ``(gid, *payload)`` list."""
        return [[] if blk is None else blk.to_tuples() for blk in self]

    def __len__(self) -> int:
        return int(self.gids.size)

    def __iter__(self) -> Iterator[ColumnBlock | None]:
        off = self.off.tolist()
        for a, b in zip(off[:-1], off[1:]):
            yield (
                ColumnBlock.raw(self.gids[a:b], tuple(c[a:b] for c in self.cols))
                if b > a
                else None
            )

    def counts(self) -> np.ndarray:
        """Items per host."""
        return self.off[1:] - self.off[:-1]

    def hosts(self) -> np.ndarray:
        """The host of every item."""
        return np.repeat(np.arange(self.off.size - 1, dtype=np.int64), self.counts())

    def host_sums(self, values: np.ndarray) -> np.ndarray:
        """Per host, the sum of the per-item integer ``values``."""
        cs = np.zeros(values.size + 1, dtype=np.int64)
        np.cumsum(values, out=cs[1:])
        return cs[self.off[1:]] - cs[self.off[:-1]]

    def count_by_host(self, items: np.ndarray) -> np.ndarray:
        """Per host, how many of the non-decreasing item positions
        ``items`` fall in its part."""
        return np.diff(np.searchsorted(items, self.off))


class HostArena:
    """Every host's per-source proxy state stacked into one row arena.

    Arena row ``off[h] + lid`` holds host ``h``'s local vertex ``lid``;
    both hosts' CSRs are re-stitched with arena-row targets (every edge
    is intra-host, so the stitch is a shifted concatenation).  Stacking
    lets the relax/stage/credit sweeps run **once per round over every
    host's deliveries** instead of once per host — per-cell semantics
    are untouched because a cell key ``row * k + si`` already encodes
    the host, so items from different hosts can never interact.

    Each proxy's sorted ``(d, si)`` candidate list is *derived* from
    ``cand_dist`` when needed (list entry ⟺ candidate distance present),
    and the delayed-sync ``unsent`` set is a :class:`Bitset` over arena
    rows, whose sorted index vector runs host ascending, then local id
    ascending.

    ``lut[h, gid]`` resolves a delivery to its arena row in one gather
    (−1 = no proxy).  It costs ``H × n`` int64s — fine at the repo's
    simulation scales; a per-host ``searchsorted`` would trade memory
    for an extra log factor if that ever pinches.  The reverse map is a
    CSR: ``proxy_rows[proxy_off[gid]:proxy_off[gid + 1]]`` are the
    vertex's arena rows, host ascending.
    """

    __slots__ = (
        "off",
        "total",
        "gids",
        "host_of",
        "lut",
        "proxy_off",
        "proxy_rows",
        "out_offsets",
        "out_targets",
        "in_offsets",
        "in_sources",
        "cand_dist",
        "cand_sigma",
        "fin_dist",
        "fin_sigma",
        "sent_d",
        "unsent",
        "dirty",
        "partial_delta",
        "delta_dirty",
        "fpos",
    )

    def __init__(self, parts: list, k: int, n: int) -> None:
        H = len(parts)
        sizes = np.array([p.num_local for p in parts], dtype=np.int64)
        self.off = np.zeros(H + 1, dtype=np.int64)
        np.cumsum(sizes, out=self.off[1:])
        total = int(self.off[-1])
        self.total = total
        self.gids = np.concatenate(
            [p.gids for p in parts] or [np.empty(0, dtype=np.int64)]
        ).astype(np.int64)
        self.host_of = np.repeat(np.arange(H, dtype=np.int64), sizes)
        self.lut = np.full((H, n), -1, dtype=np.int64)
        for h, p in enumerate(parts):
            self.lut[h, p.gids] = np.arange(
                self.off[h], self.off[h + 1], dtype=np.int64
            )
        # Rows run host-major, so a stable sort by gid keeps each
        # vertex's rows host ascending.
        self.proxy_rows = np.argsort(self.gids, kind="stable")
        self.proxy_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.gids, minlength=n), out=self.proxy_off[1:])
        self.out_offsets, self.out_targets = self._stitch_csr(
            parts, [p.out_offsets for p in parts], [p.out_targets for p in parts]
        )
        self.in_offsets, self.in_sources = self._stitch_csr(
            parts, [p.in_offsets for p in parts], [p.in_sources for p in parts]
        )
        shape = (total, k)
        self.cand_dist = np.full(shape, INF, dtype=np.int64)
        self.cand_sigma = np.zeros(shape, dtype=np.float64)
        self.fin_dist = np.full(shape, INF, dtype=np.int64)
        self.fin_sigma = np.zeros(shape, dtype=np.float64)
        self.sent_d = np.full(shape, -1, dtype=np.int64)
        self.unsent = Bitset(total)
        # SBBC's send masks; MRBC lists its touched cells instead.
        self.dirty = np.zeros(shape, dtype=bool)
        self.partial_delta = np.zeros(shape, dtype=np.float64)
        self.delta_dirty = np.zeros(shape, dtype=bool)
        #: Scratch: delivery index of this round's fire per cell (−1 =
        #: not fired this round); reset after each relax sweep.
        self.fpos = np.full(shape, -1, dtype=np.int64)

    def reset_state(self) -> None:
        """Reset the mutable state columns to their initial values.

        Lets a driver that runs many independent units over the same
        partition (SBBC: one per source) reuse the topology — LUT and
        stitched CSRs — instead of rebuilding the arena each time.
        """
        self.cand_dist.fill(INF)
        self.cand_sigma.fill(0.0)
        # Between-units reset, not a stale read: no round is in flight.
        self.fin_dist.fill(INF)  # repro-lint: disable=RL301
        self.fin_sigma.fill(0.0)  # repro-lint: disable=RL301
        self.sent_d.fill(-1)
        self.unsent.clear_all()
        self.dirty.fill(False)
        self.partial_delta.fill(0.0)
        self.delta_dirty.fill(False)
        self.fpos.fill(-1)

    def _stitch_csr(self, parts, offsets_list, data_list):
        counts = np.concatenate(
            [np.diff(o) for o in offsets_list] or [np.empty(0, dtype=np.int64)]
        )
        offsets = np.zeros(self.total + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        data = np.concatenate(
            [
                np.asarray(d, dtype=np.int64) + self.off[h]
                for h, d in enumerate(data_list)
            ]
            or [np.empty(0, dtype=np.int64)]
        )
        return offsets, data

    def exchange(self, rows: np.ndarray, cols: tuple[np.ndarray, ...]) -> Exchange:
        """The exchange of items staged on non-decreasing arena ``rows``:
        each row's gid plus the payload ``cols``.  Rows run host-major,
        so the host offsets are where the arena's own fall in ``rows``."""
        return Exchange(self.gids.take(rows), cols, np.searchsorted(rows, self.off))


class MasterColumns:
    """Authoritative master state for one batch, as dense columns.

    Master ``gid``'s sorted ``L_v`` list, per batch source index ``si``:

    - ``ent_d[si, gid]`` — the schedule-entry distance (INF = absent);
      the fired/unfired split is ``fired`` plus ``sent_prefix``, the
      master's count of fired entries;
    - ``best_sigma[si, gid]`` — the authoritative σ*;
    - ``rep_d/rep_sigma[row, si]`` — host ``h``'s latest report
      ``(d_h, σ_h)`` for cell ``(si, gid)``, kept on the reporting
      proxy's arena row ``row = lut[h, gid]`` (INF = none).  A host
      reports only vertices it holds a proxy of, so one ``(rows × k)``
      pair holds every report — the master keeps, per vertex, what its
      proxies sent, not an ``(H+1) × k × n`` table;
    - ``seed_gid/seed_d/seed_sigma[si]`` — the virtual source host's
      report: the seed ``(0, 1)`` at batch source ``seed_gid[si]``;
    - ``tau[si, gid]`` — fire timestamps for the backward schedule, the
      round ``d + position + 1`` of the entry's flat-map send;
    - ``master_seq[gid]`` / ``master_order`` — creation order; every
      order-sensitive sweep (fire emission, backward schedule, BC
      banking) follows it.

    Per-cell state is addressed by one flat id on the 1-D views:
    ``si·n + gid`` for the ``(k, n)`` columns and ``row·k + si`` for the
    reports (the arena's cell id), so a sweep gathers with ``take`` and
    scatters or folds (``np.add.at``) along one axis.

    Two summaries of :meth:`schedule_key` are maintained incrementally,
    so a round's send check costs O(n + touched cells), not O(k × n):

    - ``head[gid]`` — the master's minimum schedule key over unfired
      entries (:data:`BIG` when none), i.e. the head of its sorted list
      past the fired prefix.  An entry's distance d* never grows (a
      host's report is only replaced by one no worse), so writers
      lower ``head`` with ``np.minimum.at``; a fire recomputes the
      firing master's head from its k cells;
    - ``unfired[si]`` — present, unfired entries per source.

    The columns named in :attr:`STATE` are the whole state: forward
    checkpoints store them, and :meth:`rebuild_derived` recomputes
    ``master_order``, ``head`` and ``unfired`` from them.
    """

    #: The state columns; everything else is derived from them.
    STATE = (
        "ent_d", "best_sigma", "fired", "tau", "sent_prefix", "rep_d",
        "rep_sigma", "seed_gid", "seed_d", "seed_sigma", "master_seq",
    )

    def __init__(self, k: int, n: int, arena: HostArena) -> None:
        self.k = k
        self.n = n
        self.arena = arena
        self.ent_d = np.full((k, n), INF, dtype=np.int64)
        self.best_sigma = np.zeros((k, n), dtype=np.float64)
        self.fired = np.zeros((k, n), dtype=bool)
        self.tau = np.zeros((k, n), dtype=np.int64)
        self.sent_prefix = np.zeros(n, dtype=np.int64)
        self.rep_d = np.full((arena.total, k), INF, dtype=np.int64)
        self.rep_sigma = np.zeros((arena.total, k), dtype=np.float64)
        self.seed_gid = np.full(k, -1, dtype=np.int64)
        self.seed_d = np.full(k, INF, dtype=np.int64)
        self.seed_sigma = np.zeros(k, dtype=np.float64)
        self.master_seq = np.full(n, -1, dtype=np.int64)
        self.master_order: list[int] = []
        self.head = np.full(n, BIG, dtype=np.int64)
        self.unfired = np.zeros(k, dtype=np.int64)
        #: Low bits of a schedule key that hold the source index.
        self.si_bits = (k - 1).bit_length()
        self._si_col = np.arange(k, dtype=np.int64)[:, None]

    # -- registration ------------------------------------------------------

    def register(self, gid: int) -> None:
        """Create the master for ``gid`` if absent."""
        if self.master_seq[gid] < 0:
            self.master_seq[gid] = len(self.master_order)
            self.master_order.append(int(gid))

    def register_new(self, gids: np.ndarray) -> None:
        """Register unseen gids in first-occurrence order."""
        fresh = self.master_seq[gids] < 0
        if not fresh.any():
            return
        cand = gids[fresh]
        _uniq, first = np.unique(cand, return_index=True)
        for g in cand[np.sort(first)].tolist():
            self.register(g)

    def initialize_source(self, si: int, gid: int) -> None:
        """Seed ``(0, si)`` at a batch source (the virtual host −1)."""
        self.register(gid)
        self.ent_d[si, gid] = 0
        self.best_sigma[si, gid] = 1.0
        self.head[gid] = min(int(self.head[gid]), si)  # key (0 << si_bits) | si
        self.unfired[si] += 1
        self.seed_gid[si] = gid
        self.seed_d[si] = 0
        self.seed_sigma[si] = 1.0

    # -- host reports ------------------------------------------------------

    def report_rows(self, hosts: np.ndarray, gids: np.ndarray) -> np.ndarray:
        """Arena rows holding the reports of ``hosts`` for ``gids``.

        Raises :class:`ValueError` when a host holds no proxy of the
        vertex: it cannot have a report to store, and ``lut``'s −1
        would otherwise index another row.
        """
        hosts = np.asarray(hosts, dtype=np.int64)
        gids = np.asarray(gids, dtype=np.int64)
        rows = self.arena.lut.reshape(-1).take(hosts * self.n + gids)
        bad = rows < 0
        if bad.any():
            pairs = sorted(set(zip(hosts[bad].tolist(), gids[bad].tolist())))
            raise ValueError(
                f"report from a host without a proxy of the vertex "
                f"(host, gid): {pairs}"
            )
        return rows

    def authoritative(
        self, si: np.ndarray, gids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(d*, σ*)`` of the cells ``(si, gids)`` from their reports.

        Per cell, the reports are read over the vertex's proxy rows
        (host ascending) and then the seed.  d* is their minimum (a
        segmented minimum; every vertex has at least its master's
        row).  A host's σ sums the shortest paths arriving over its own
        in-edges of the vertex, and each in-edge lives on exactly one
        host, so σ* counts every predecessor once: it sums the σ of the
        reports at d* in that order —
        hosts ascending, virtual source last — folded by ``np.add.at``,
        so it is the sequential float sum.  A per-segment ``sum`` or
        ``np.add.reduceat`` would not be: they may reassociate, which
        changes σ past 2⁵³.
        """
        A = self.arena
        counts = A.proxy_off[gids + 1] - A.proxy_off[gids]
        item_of, rows = expand_csr(A.proxy_off, A.proxy_rows, gids)
        rc = rows * self.k + si[item_of]
        rd = self.rep_d.reshape(-1).take(rc)
        d_star = np.minimum.reduceat(rd, counts.cumsum() - counts)
        seeded = np.nonzero(self.seed_gid.take(si) == gids)[0]
        s_d = self.seed_d.take(si[seeded])
        d_star[seeded] = np.minimum(d_star[seeded], s_d)
        match = np.nonzero(rd == d_star[item_of])[0]
        sig_star = np.zeros(gids.size, dtype=np.float64)
        np.add.at(
            sig_star, item_of[match], self.rep_sigma.reshape(-1).take(rc[match])
        )
        at_seed = seeded[s_d == d_star[seeded]]
        sig_star[at_seed] += self.seed_sigma.take(si[at_seed])
        return d_star, sig_star

    # -- derived views -----------------------------------------------------

    def schedule_key(self) -> np.ndarray:
        """``(d << si_bits) | si`` over unfired entries, else :data:`BIG`.

        ``si < 2**si_bits`` and ``d < INF``, so the key orders entries
        exactly as the ``(d, si)`` pairs do, ``key >> si_bits`` decodes
        the distance and ``key & (2**si_bits - 1)`` the source.  The
        per-master minimum is the head of the master's sorted entry list
        past the fired prefix (send rounds are strictly increasing along
        it, so fired entries are a prefix).  The round loop reads the
        maintained ``head`` instead; this dense form rebuilds it in
        :meth:`rebuild_derived` and is the tests' reference.
        """
        act = (self.ent_d != INF) & ~self.fired
        return np.where(act, self.packed(self.ent_d), BIG)

    def packed(self, d: np.ndarray) -> np.ndarray:
        """``(d << si_bits) | si`` for a ``(k, ·)`` block of distances."""
        return (d << self.si_bits) | self._si_col

    def refresh_head(self, gids: np.ndarray) -> None:
        """Recompute ``head`` for distinct ``gids`` from their k cells."""
        sub = np.take(self.ent_d, gids, axis=1)
        act = (sub != INF) & ~np.take(self.fired, gids, axis=1)
        self.head[gids] = np.where(
            act, (sub << self.si_bits) | self._si_col, BIG
        ).min(axis=0)

    def rebuild_derived(self) -> None:
        """Recompute ``master_order``, ``head`` and ``unfired`` from the
        :attr:`STATE` columns (the checkpoint restore path)."""
        reg = np.nonzero(self.master_seq >= 0)[0]
        self.master_order = reg[np.argsort(self.master_seq[reg])].tolist()
        self.head = self.schedule_key().min(axis=0)
        self.unfired = ((self.ent_d != INF) & ~self.fired).sum(axis=1)

    def order_by_seq(self, gids: np.ndarray) -> np.ndarray:
        """Permutation sorting ``gids`` into master creation order."""
        return np.argsort(self.master_seq[gids], kind="stable")
