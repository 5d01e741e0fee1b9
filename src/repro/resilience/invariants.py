"""Self-checking round invariants for the MRBC master state.

The channel guard is the first line of defense (it sees messages); these
checks are the second: they watch the *state* the paper's correctness
argument depends on, so a fault that slips past the transport (or is
injected directly into memory) still trips an alarm instead of silently
poisoning every downstream σ and δ.  They read the engine's
:class:`~repro.runtime.arrays.MasterColumns` in place, against the
columns recorded after the previous round:

- **sent-prefix immutability** (Lemma 2): once an ``L_v`` entry has fired
  it is immutable — a fired cell stays fired with the same distance and
  timestamp, no present unfired entry sorts below the master's last
  fired one, and ``sent_prefix`` counts the master's fired cells.
- **σ monotonicity**: for a fixed ``(v, s)`` the authoritative distance
  never increases, and at a fixed distance σ never decreases (host
  contributions only accumulate shortest paths).
- **timestamp-schedule conformance**: entry ``(d, s)`` at list position
  ``p`` fires in exactly round ``d + p + 1`` (the flat-map schedule the
  forward-round bound of Lemma 8 rests on), checked on each entry the
  round it fires.

Modes: ``off`` (checker not constructed), ``detect`` (violations raise
:class:`~repro.resilience.errors.InvariantViolation`), ``repair`` (the
violating cells get their recorded values back, reported as a recovery
event; a schedule violation still raises — the broadcast already went
out; and with the channel guard off a σ regression is reported but not
rolled back, since it may be the correction of an earlier corrupted
report).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.resilience.errors import InvariantViolation
from repro.runtime.arrays import BIG, INF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.context import ResilienceContext
    from repro.runtime.arrays import MasterColumns

#: The invariants, in the order one master's violations are reported.
_NAMES = ("sent_prefix_immutability", "timestamp_schedule", "sigma_monotonicity")
_PREFIX, _SCHEDULE, _SIGMA = range(3)


class InvariantChecker:
    """Per-batch checker over the masters' authoritative columns.

    One instance per batch executor: it records ``ent_d``,
    ``best_sigma``, ``fired`` and ``tau`` after every round and checks
    the next round's columns against them.  Violations are reported in
    master creation order — per master the prefix first, then the
    schedule, then σ by source — so ``detect`` raises on the first.
    """

    def __init__(self, mode: str, ctx: "ResilienceContext") -> None:
        if mode not in ("detect", "repair"):
            raise ValueError(f"invalid invariant mode {mode!r}")
        self.mode = mode
        self.ctx = ctx
        self._last: tuple[np.ndarray, ...] | None = None

    def check_master_round(self, rnd: int, M: "MasterColumns") -> None:
        """Verify the master columns after round ``rnd``'s updates."""
        if self._last is None:
            # Nothing recorded yet: every present cell is new.
            self._last = (
                np.full_like(M.ent_d, INF),
                np.zeros_like(M.best_sigma),
                np.zeros_like(M.fired),
                np.zeros_like(M.tau),
            )
        p_d, p_sg, p_fired, p_tau = self._last
        d, sg, fired, tau = M.ent_d, M.best_sigma, M.fired, M.tau
        # A fired cell keeps its state.  Judge the rest against the
        # prefix as it stands once those cells have their recorded values.
        moved = p_fired & (~fired | (d != p_d) | (tau != p_tau))
        f_eff = fired | p_fired
        key = M.packed(np.where(p_fired, p_d, d))
        top = np.where(f_eff, key, -1).max(axis=0)
        early = (d != INF) & ~f_eff & (key < top)
        bad_prefix = (
            moved.any(axis=0) | early.any(axis=0)
            | (M.sent_prefix != fired.sum(axis=0))
        )
        regressed = (p_d != INF) & ((d > p_d) | ((d == p_d) & (sg < p_sg)))
        # Each newly fired cell: τ = d + rank + 1, rank = fired cells of
        # the master with a smaller key.
        si_n, g_n = np.nonzero(fired & ~p_fired)
        key_n = key[si_n, g_n]
        rank = (np.where(f_eff, key, BIG)[:, g_n] < key_n).sum(axis=0)
        late = np.nonzero(tau[si_n, g_n] != d[si_n, g_n] + rank + 1)[0]

        found = []
        for g in np.nonzero(bad_prefix)[0].tolist():
            found.append((_PREFIX, g, 0, self._prefix_detail(M, g)))
        for j in late.tolist():
            g, si, pos = int(g_n[j]), int(si_n[j]), int(rank[j])
            dj = int(d[si, g])
            found.append((_SCHEDULE, g, si, (
                f"vertex {g} entry {(dj, si)} at position {pos} fired "
                f"in round {int(tau[si, g])}, schedule says {dj + pos + 1}"
            )))
        for si, g in zip(*(a.tolist() for a in np.nonzero(regressed))):
            found.append((_SIGMA, g, si, (
                f"label of (v={g}, s={si}) regressed from "
                f"(d={int(p_d[si, g])}, σ={float(p_sg[si, g])}) to "
                f"(d={int(d[si, g])}, σ={float(sg[si, g])})"
            )))
        if found:
            # With the channel guard off, a σ regression can be an honest
            # report correcting an earlier corrupted one, so the record
            # is no better than the columns: report it, keep the columns.
            keep_sigma = self.ctx.mode == "off"
            if self.mode == "repair":
                self._restore(
                    M, regressed & (not keep_sigma), moved | early, bad_prefix
                )
            found.sort(key=lambda v: (int(M.master_seq[v[1]]), v[0], v[2]))
            for kind, _g, _si, detail in found:
                reported = self.mode == "repair" and kind == _SIGMA and keep_sigma
                repaired = (
                    self.mode == "repair" and kind != _SCHEDULE and not reported
                )
                self.ctx.record_invariant_violation(
                    _NAMES[kind], rnd, detail, repaired
                )
                if not (repaired or reported):
                    raise InvariantViolation(_NAMES[kind], rnd, detail)
        self._last = (d.copy(), sg.copy(), fired.copy(), tau.copy())

    def _prefix_detail(self, M: "MasterColumns", g: int) -> str:
        """The master's recorded fired prefix against its current one,
        as sorted ``(d, si)`` lists."""
        p_d, _p_sg, p_fired, _p_tau = self._last
        prev = sorted(
            (int(p_d[si, g]), si) for si in np.nonzero(p_fired[:, g])[0].tolist()
        )
        sis = np.nonzero(M.ent_d[:, g] != INF)[0].tolist()
        now = sorted((int(M.ent_d[si, g]), si) for si in sis)
        now = now[: int(M.sent_prefix[g])]
        return (
            f"fired prefix of vertex {g} changed from {prev} "
            f"to {now[:len(prev)] if prev else now}"
        )

    def _restore(
        self,
        M: "MasterColumns",
        regressed: np.ndarray,
        prefix_cells: np.ndarray,
        bad_prefix: np.ndarray,
    ) -> None:
        """Write the recorded values back on the violating cells only:
        ``(ent_d, best_sigma)`` on a σ regression, and ``(fired, tau)``
        too on a prefix violation.  Then the touched masters'
        ``sent_prefix`` counts their fired cells again, their ``head`` is
        refreshed, and ``unfired`` is recounted (a rare path, so the
        dense count is fine)."""
        p_d, p_sg, p_fired, p_tau = self._last
        cells = regressed | prefix_cells
        np.copyto(M.ent_d, p_d, where=cells)
        np.copyto(M.best_sigma, p_sg, where=cells)
        np.copyto(M.fired, p_fired, where=prefix_cells)
        np.copyto(M.tau, p_tau, where=prefix_cells)
        g = np.nonzero(cells.any(axis=0) | bad_prefix)[0]
        M.sent_prefix[g] = M.fired[:, g].sum(axis=0)
        M.unfired[:] = ((M.ent_d != INF) & ~M.fired).sum(axis=1)
        M.refresh_head(g)
