"""The per-run resilience context: fault modes, channel guard, recovery.

One :class:`ResilienceContext` accompanies one algorithm execution.  The
message planes call into it on every synchronization —
:class:`~repro.runtime.plane.GluonArrayPlane` guards each routed
exchange (:meth:`ResilienceContext.guard_exchange`) and
:class:`~repro.runtime.plane.CongestPlane` each channel
(:meth:`ResilienceContext.guard_congest`); the drivers (``mrbc_engine``,
``sbbc_engine``, ``run_bsp``) call :meth:`on_crash` when a host crash
surfaces.

The channel guard models the integrity layer a production transport would
run: every aggregated pair message carries an item count and a content
digest; the receiver verifies both.  What happens on a mismatch is the
``mode``:

- ``off`` — deliver the perturbed message unchecked (the poison
  experiment: measures what faults do to an unprotected run);
- ``detect`` — raise :class:`~repro.resilience.errors.FaultDetectedError`
  (fail loudly, never return silently wrong centralities);
- ``repair`` — bounded retransmission of the authoritative content, with
  the retry traffic charged to dedicated ``recovery`` rounds so the fault
  overhead shows up in Figure 2-style breakdowns.

Faults and recoveries are emitted as ``fault``/``recovery`` telemetry
events and counters through :mod:`repro.obs`, so they land in the run's
event stream and (via :meth:`summary`) in its manifest.
"""

from __future__ import annotations

import zlib
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from repro import obs
from repro.resilience.errors import (
    FaultDetectedError,
    HostCrashError,
    HostTimeoutError,
    UnrecoverableFaultError,
)
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.injector import FaultInjector, Item
from repro.resilience.invariants import InvariantChecker
from repro.resilience.plan import FaultPlan
from repro.runtime.arrays import Exchange

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.gluon import GluonSubstrate
    from repro.engine.stats import EngineRun, RoundStats
    from repro.resilience.supervisor import RecoveryPolicy

MODES = ("off", "detect", "repair")


def channel_digest(items: Sequence[Item]) -> int:
    """Order-sensitive content digest of one channel's item list.

    Models the checksum a real transport would append to each aggregated
    message; ``repr`` of int/float tuples is deterministic, so the digest
    is stable across processes.
    """
    return zlib.crc32(repr(list(items)).encode("utf-8"))


class ResilienceContext:
    """Fault plan + mode + recovery state for one algorithm run.

    Parameters
    ----------
    plan:
        The fault scenario; ``None`` means no injection: the channel
        guard passes every message through unchecked (nothing can
        perturb it), while the round invariants and crash restarts stay
        armed.
    mode:
        Channel-guard mode: ``off`` | ``detect`` | ``repair``.
    invariants:
        Mode for the state-level round invariants; defaults to ``mode``.
    max_retries:
        Retransmission attempts per faulty channel before giving up.
    max_restarts:
        Crash restarts per phase before giving up.
    checkpoint_dir:
        Persist checkpoints under this directory (in-memory when None).
    """

    def __init__(
        self,
        plan: FaultPlan | None = None,
        mode: str = "detect",
        invariants: str | None = None,
        max_retries: int = 5,
        max_restarts: int = 3,
        checkpoint_dir: str | None = None,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.invariants = mode if invariants is None else invariants
        if self.invariants not in MODES:
            raise ValueError(f"invariants must be one of {MODES}")
        self.plan = plan if plan is not None else FaultPlan("none")
        self.injector = FaultInjector(self.plan)
        self.max_retries = max_retries
        self.max_restarts = max_restarts
        self.checkpoints = CheckpointStore(checkpoint_dir)
        self.run: "EngineRun | None" = None
        self._last_rs: "RoundStats | None" = None
        #: Declarative recovery policy, attached via
        #: :meth:`~repro.resilience.supervisor.RecoveryPolicy.configure`.
        #: ``None`` keeps PR 2's implicit behavior (wait out stalls, no
        #: backoff between restarts).
        self.policy: "RecoveryPolicy | None" = None
        # -- ground-truth tallies (kept even when telemetry is off).
        self.detected_by_kind: dict[str, int] = defaultdict(int)
        self.recovered_by_kind: dict[str, int] = defaultdict(int)
        self.invariant_violations: dict[str, int] = defaultdict(int)
        self.retransmits = 0
        self.recovery_rounds = 0
        self.stall_rounds = 0
        self.backoff_rounds = 0
        self.crash_restarts = 0
        self.degraded_units = 0
        self.first_inject_round: int | None = None
        self.first_detect_round: int | None = None
        #: Ordered recovery timeline: one JSON-able record per fault /
        #: detection / recovery action, in simulated-round order.  Lands
        #: in the manifest via :meth:`summary`.
        self.timeline: list[dict[str, Any]] = []

    # -- wiring ----------------------------------------------------------------

    def attach_run(self, run: "EngineRun") -> None:
        """Bind the engine-statistics run recovery rounds are charged to."""
        self.run = run

    def new_invariant_checker(self) -> InvariantChecker | None:
        """A fresh per-batch state checker, or None when invariants are off."""
        if self.invariants == "off":
            return None
        return InvariantChecker(self.invariants, self)

    # -- telemetry -------------------------------------------------------------

    def _timeline(self, event: str, rnd: int, **attrs: Any) -> None:
        rec: dict[str, Any] = {"event": event, "round": rnd}
        rec.update(attrs)
        self.timeline.append(rec)

    def _note_injected(
        self, kinds: list[str], rnd: int, sender: int, receiver: int | None, op: str
    ) -> None:
        if self.first_inject_round is None:
            self.first_inject_round = rnd
        tele = obs.current()
        for kind in kinds:
            self._timeline(
                "inject", rnd, fault=kind, op=op, sender=sender, receiver=receiver
            )
            if tele.enabled:
                tele.emit(
                    obs.KIND_FAULT,
                    "fault.injected",
                    fault=kind,
                    op=op,
                    round=rnd,
                    sender=sender,
                    receiver=receiver,
                )
                tele.metrics.counter("resilience.faults_injected", kind=kind).inc()

    def _note_detected(
        self,
        kinds: list[str],
        rnd: int,
        sender: int,
        receiver: int | None,
        op: str,
        expected: int,
        got: int,
    ) -> None:
        if self.first_detect_round is None:
            self.first_detect_round = rnd
        tele = obs.current()
        for kind in kinds:
            self.detected_by_kind[kind] += 1
            self._timeline(
                "detect", rnd, fault=kind, op=op, sender=sender, receiver=receiver
            )
            if tele.enabled:
                tele.emit(
                    obs.KIND_FAULT,
                    "fault.detected",
                    fault=kind,
                    op=op,
                    round=rnd,
                    sender=sender,
                    receiver=receiver,
                    expected_items=expected,
                    got_items=got,
                )
                tele.metrics.counter("resilience.faults_detected", kind=kind).inc()

    def _note_recovered(self, action: str, rnd: int, **attrs: Any) -> None:
        self.recovered_by_kind[action] += 1
        self._timeline("recover", rnd, action=action, **attrs)
        tele = obs.current()
        if tele.enabled:
            tele.emit(obs.KIND_RECOVERY, f"recovery.{action}", round=rnd, **attrs)
            tele.metrics.counter("resilience.recoveries", action=action).inc()

    def record_invariant_violation(
        self, invariant: str, rnd: int, detail: str, repaired: bool
    ) -> None:
        """Called by :class:`InvariantChecker` for every violation."""
        if self.first_detect_round is None:
            self.first_detect_round = rnd
        self.invariant_violations[invariant] += 1
        self.detected_by_kind[f"invariant:{invariant}"] += 1
        tele = obs.current()
        if tele.enabled:
            tele.emit(
                obs.KIND_FAULT,
                "fault.detected",
                fault="invariant",
                invariant=invariant,
                round=rnd,
                detail=detail,
            )
            tele.metrics.counter(
                "resilience.invariant_violations", invariant=invariant
            ).inc()
        if repaired:
            self._note_recovered("state_rollback", rnd, invariant=invariant)

    # -- the channel guard ------------------------------------------------------

    def guard_exchange(
        self,
        substrate: "GluonSubstrate",
        inbox: Exchange,
        snd: np.ndarray,
        order: np.ndarray,
        payload_bytes: int,
        batch_width: int,
        rs: "RoundStats",
    ) -> Exchange:
        """Inject, verify, and (per mode) repair one routed Gluon exchange.

        Called by both :class:`~repro.runtime.plane.GluonArrayPlane`
        verbs after accounting, so a crashing round's bytes are charged.
        ``inbox`` is the routed order, ``snd`` its sender per item and
        ``order`` its pre-route positions (``GluonArrayPlane._route``).
        Fires the round's host events first (:meth:`gluon_host_events`;
        the plane calls that alone for an empty exchange).

        Each non-self (sender, receiver) segment of the routed order is
        one aggregated pair message.  The segments pass through the
        guard in the order the staged items first name their pairs (by
        the pre-route position of each segment's first item), which is
        the order the fault draws follow; ``corrupt`` edits the last
        column.  The delivered inbox keeps the plane's order — per
        receiver, sender blocks ascending — and a dropped segment is
        absent.
        """
        self.gluon_host_events(rs)
        m = len(inbox)
        if not self.injector.has_message_faults or not m:
            return inbox
        gids, cols, off = inbox.gids, inbox.cols, inbox.off
        seg = np.empty(m + 1, dtype=bool)
        np.not_equal(snd[1:], snd[:-1], out=seg[1:m])
        seg[off] = True
        bounds = np.flatnonzero(seg).tolist()
        first = bounds[:-1]
        senders = snd.take(first).tolist()
        receivers = np.searchsorted(off[1:], first, side="right").tolist()
        last = cols[-1]
        delivered: dict[int, tuple[np.ndarray, tuple[np.ndarray, ...]]] = {}
        retransmits: list[tuple[int, int, np.ndarray]] = []
        for s in np.argsort(order.take(first), kind="stable").tolist():
            sender, receiver = senders[s], receivers[s]
            if sender == receiver:
                continue  # local delivery never touches the network
            a, b = bounds[s], bounds[s + 1]

            def deliver(index, values):
                at = np.asarray(index, dtype=np.int64) + a
                got_gids = gids.take(at)
                got = [c.take(at) for c in cols]
                if values is not None:
                    got[-1] = np.asarray(values, dtype=last.dtype)
                intact = at.size == b - a and np.array_equal(
                    got_gids, gids[a:b]
                ) and all(np.array_equal(x, c[a:b]) for x, c in zip(got, cols))
                return (got_gids, tuple(got)), intact

            got, resent = self._guard_channel(
                rs.round_index, sender, receiver, last[a:b], "sync", deliver
            )
            if got is not None:
                delivered[s] = got
            if resent:
                retransmits.append((sender, receiver, gids[a:b]))
        if retransmits:
            self._charge_retransmits(substrate, retransmits, payload_bytes, batch_width)
        if not delivered:
            return inbox
        # Splice the perturbed segments into the routed order.
        counts = inbox.counts()
        out_gids: list[np.ndarray] = []
        out_cols: list[list[np.ndarray]] = [[] for _ in cols]
        pos = 0
        for s in sorted(delivered):
            a, b = bounds[s], bounds[s + 1]
            got_gids, got = delivered[s]
            out_gids += (gids[pos:a], got_gids)
            for acc, c, x in zip(out_cols, cols, got):
                acc += (c[pos:a], x)
            counts[receivers[s]] += got_gids.size - (b - a)
            pos = b
        out_gids.append(gids[pos:])
        for acc, c in zip(out_cols, cols):
            acc.append(c[pos:])
        new_off = np.zeros_like(off)
        np.cumsum(counts, out=new_off[1:])
        return Exchange(
            np.concatenate(out_gids),
            tuple(np.concatenate(acc) for acc in out_cols),
            new_off,
        )

    def _guard_channel(
        self,
        rnd: int,
        sender: int,
        receiver: int,
        last: Sequence[Any],
        op: str,
        deliver: Callable[[list[int], list[Any] | None], tuple[Any, bool]],
    ) -> tuple[Any, bool]:
        """One aggregated channel message through the guard.

        ``last`` holds the final field of each sent item.
        ``deliver(index, values)`` builds the delivery that
        :meth:`FaultInjector.perturb` describes and says whether it
        equals what was sent — count and content, what a transport's
        digest verifies.  Returns ``(delivered, retransmitted)``:
        ``delivered`` is None when the sent items arrive, intact or
        (``repair``) retransmitted, which ``retransmitted`` says.
        """
        index, values, injected = self.injector.perturb(last)
        if not injected:
            return None, False
        self._note_injected(injected, rnd, sender, receiver, op)
        delivered, intact = deliver(index, values)
        if intact:
            return None, False
        if self.mode == "off":
            return delivered, False
        self._note_detected(
            injected, rnd, sender, receiver, op, len(last), len(index)
        )
        if self.mode == "detect":
            raise FaultDetectedError(injected, rnd, sender, receiver, op)
        # Repair: bounded retransmission over the same lossy network.
        for attempt in range(1, self.max_retries + 1):
            self.retransmits += 1
            _index, _values, again = self.injector.perturb(last)
            if again:
                self._note_injected(again, rnd, sender, receiver, f"{op}:retransmit")
                continue
            self._note_recovered(
                "retransmit", rnd, sender=sender, receiver=receiver, attempts=attempt
            )
            return None, True
        raise UnrecoverableFaultError(
            f"channel {sender}->{receiver} still faulty after "
            f"{self.max_retries} retransmissions in round {rnd}"
        )

    def _charge_retransmits(
        self,
        substrate: "GluonSubstrate",
        retransmits: list[tuple[int, int, np.ndarray]],
        payload_bytes: int,
        batch_width: int,
    ) -> None:
        """Charge successful retransmissions to one dedicated recovery
        round, each sized as its pair message: the segment's items,
        vertex runs and per-run source metadata."""
        from repro.engine.gluon import SOURCE_ID_BYTES

        if self.run is None:
            return
        rr = self.run.new_round("recovery", recovery=True)
        self.recovery_rounds += 1
        rl = obs.current().rounds
        if rl is not None:
            rl.record_recovery_round(rr)
        ledger = obs.current().comm
        for sender, receiver, gids in retransmits:
            starts = np.flatnonzero(np.diff(gids, prepend=gids[0] - 1))
            runs = np.diff(starts, append=gids.size)
            meta = (
                int(np.minimum(SOURCE_ID_BYTES * runs, (batch_width + 7) // 8).sum())
                if batch_width > 1
                else 0
            )
            nbytes = substrate._pair_bytes(
                sender, receiver, runs.size, gids.size, meta, payload_bytes
            )
            rr.pair_messages += 1
            rr.items_synced += gids.size
            rr.proxies_synced += runs.size
            rr.bytes_out[sender] += nbytes
            rr.bytes_in[receiver] += nbytes
            rr.msgs_out[sender] += 1
            rr.msgs_in[receiver] += 1
            if ledger is not None:
                # Keep the ledger reconciled with RoundStats even under
                # faults: retry traffic is comm volume too.
                ledger.record_pair_message(
                    rr, sender, receiver, gids.size, nbytes, "retransmit"
                )

    # -- host-scope faults -----------------------------------------------------

    def gluon_host_events(self, rs: "RoundStats") -> None:
        """Gluon-plane entry for host-scope faults: the round's due host
        events fire at its first exchange, empty or not."""
        if rs is not self._last_rs:
            self._last_rs = rs
            self.host_events(rs.round_index)

    def host_events(self, rnd: int) -> None:
        """Materialize due host-scope faults (stall/crash) for round ``rnd``.

        A stall charges idle ``recovery`` rounds while the barrier waits;
        with a policy deadline (``stall_timeout_rounds``) the wait is
        capped and a longer stall is converted into a
        :class:`~repro.resilience.errors.HostTimeoutError` — the restart
        machinery then treats the straggler exactly like a crashed host.
        The injector consumes each spec once, so the post-restart replay
        proceeds fault-free (deterministically recoverable).
        """
        for spec in self.injector.due_host_events(rnd):
            host = int(spec.host or 0)
            self._note_injected([spec.kind], rnd, host, None, "host")
            if spec.kind == "stall":
                self._note_detected(["stall"], rnd, host, None, "host", 0, 0)
                deadline = (
                    self.policy.stall_timeout_rounds
                    if self.policy is not None
                    else None
                )
                # BSP semantics: the barrier waits for the straggler — the
                # stall costs whole rounds of idle time, up to the policy's
                # deadline when one is set.
                wait = (
                    spec.duration
                    if deadline is None
                    else min(spec.duration, deadline)
                )
                if self.run is not None:
                    rl = obs.current().rounds
                    for _ in range(wait):
                        rr = self.run.new_round("recovery", recovery=True)
                        if rl is not None:
                            rl.record_recovery_round(rr)
                    self.recovery_rounds += wait
                self.stall_rounds += wait
                if deadline is not None and spec.duration > deadline:
                    self._timeline(
                        "timeout", rnd, host=host, deadline_rounds=deadline
                    )
                    raise HostTimeoutError(host, rnd, deadline)
                self._note_recovered("stall_wait", rnd, host=host, rounds=wait)
            elif spec.kind == "crash":
                self._note_detected(["crash"], rnd, host, None, "host", 0, 0)
                raise HostCrashError(host, rnd)

    def on_crash(self, err: HostCrashError, attempt: int) -> None:
        """Driver hook after catching a crash: re-raise or allow a restart."""
        if self.mode != "repair":
            raise err
        if attempt > self.max_restarts:
            raise UnrecoverableFaultError(
                f"host {err.host} crashed and {self.max_restarts} restarts "
                "were exhausted"
            ) from err
        self.crash_restarts = max(self.crash_restarts, attempt)
        self._note_recovered(
            "restart", err.round_index, host=err.host, attempt=attempt
        )

    def charge_backoff(self, attempt: int) -> None:
        """Charge the policy's sim-time backoff before restart ``attempt``.

        Called by the restart loops after :meth:`on_crash` admits a
        retry and *before* the replay begins (so the waiting rounds are
        not mistaken for replayed work).  Without a policy this is a
        no-op — PR 2 restarts immediately, and that behavior is kept.
        """
        if self.policy is None:
            return
        rounds = self.policy.backoff.rounds_before(attempt)
        if rounds <= 0:
            return
        if self.run is not None:
            rl = obs.current().rounds
            for _ in range(rounds):
                rr = self.run.new_round("recovery", recovery=True)
                if rl is not None:
                    rl.record_recovery_round(rr)
            self.recovery_rounds += rounds
        self.backoff_rounds += rounds
        self._note_recovered("backoff", -1, attempt=attempt, rounds=rounds)

    def note_degraded(self, index: int, sources: list[int], err: Exception) -> None:
        """Record one failure domain dropped by graceful degradation."""
        self.degraded_units += 1
        self._note_recovered(
            "degrade",
            -1,
            unit=index,
            sources=list(sources),
            failure=f"{type(err).__name__}: {err}",
        )

    # -- CONGEST side ----------------------------------------------------------

    def guard_congest(
        self, rnd: int, sender: int, target: int, payloads: list[Item]
    ) -> list[Item]:
        """Guard one CONGEST channel's payload list for round ``rnd``."""
        if not self.injector.has_message_faults:
            return payloads

        def deliver(index, values):
            got = (
                [payloads[i] for i in index]
                if values is None
                else [(*payloads[i][:-1], v) for i, v in zip(index, values)]
            )
            intact = len(got) == len(payloads) and channel_digest(
                got
            ) == channel_digest(payloads)
            return got, intact

        got, _resent = self._guard_channel(
            rnd, sender, target, [p[-1] for p in payloads], "congest", deliver
        )
        return payloads if got is None else got

    def congest_host_events(self, rnd: int) -> None:
        """CONGEST-plane entry for host-scope faults, once per exchange round."""
        self.host_events(rnd)

    # -- reporting -------------------------------------------------------------

    @property
    def faults_injected(self) -> int:
        return self.injector.total_injected

    @property
    def faults_detected(self) -> int:
        return sum(self.detected_by_kind.values())

    @property
    def recoveries(self) -> int:
        return sum(self.recovered_by_kind.values())

    def detection_latency_rounds(self) -> int | None:
        """Rounds between the first injection and its first detection."""
        if self.first_inject_round is None or self.first_detect_round is None:
            return None
        return max(0, self.first_detect_round - self.first_inject_round)

    def summary(self) -> dict[str, Any]:
        """JSON-able report block (lands in the run manifest's extras)."""
        # The attached run is authoritative for recovery rounds: it also
        # sees post-crash replays, which the context's own tally (covering
        # retransmit and stall rounds it appended itself) does not.
        recovery_rounds = (
            self.run.recovery_rounds if self.run is not None else self.recovery_rounds
        )
        return {
            "plan": self.plan.to_dict(),
            "mode": self.mode,
            "invariants": self.invariants,
            "policy": None if self.policy is None else self.policy.to_dict(),
            "faults_injected": self.faults_injected,
            "injected_by_kind": dict(self.injector.injected_by_kind),
            "faults_detected": self.faults_detected,
            "detected_by_kind": dict(self.detected_by_kind),
            "recoveries": self.recoveries,
            "recovered_by_kind": dict(self.recovered_by_kind),
            "invariant_violations": dict(self.invariant_violations),
            "retransmits": self.retransmits,
            "recovery_rounds": recovery_rounds,
            "stall_rounds": self.stall_rounds,
            "backoff_rounds": self.backoff_rounds,
            "crash_restarts": self.crash_restarts,
            "degraded_units": self.degraded_units,
            "first_inject_round": self.first_inject_round,
            "first_detect_round": self.first_detect_round,
            "detection_latency_rounds": self.detection_latency_rounds(),
            "timeline": [dict(rec) for rec in self.timeline],
        }
