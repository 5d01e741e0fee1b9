"""The fault injector: turns a :class:`~repro.resilience.plan.FaultPlan`
into concrete perturbations of channel messages and host schedules.

The injector is the *ground truth* of an experiment: it knows exactly
which faults it materialized (returned from :meth:`perturb` and
:meth:`due_host_events`), which is what lets the harness report detection
latency and what makes ``off``-mode runs (inject but never check) a
controlled poison experiment.

All decisions draw from one seeded generator in deterministic call order,
so identical plans produce identical fault sequences.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.resilience.plan import FaultPlan, FaultSpec
from repro.utils.prng import make_rng

Item = tuple[Any, ...]


def _corrupt_value(val: Any, rng) -> Any:
    """Perturb one payload value, preserving its type: ``v·1.5 + 1`` for
    a float, ``v + 1 + r`` with ``r`` drawn from ``{0, 1, 2}`` otherwise.

    Only an item's *last* field is ever corrupted — always a payload
    value (σ, δ, or a distance), never the vertex id or source slot, so
    an ``off``-mode run computes plausibly-wrong numbers instead of
    crashing on bad routing.
    """
    if isinstance(val, np.generic):
        val = val.item()
    if isinstance(val, float):
        return val * 1.5 + 1.0
    return val + 1 + int(rng.integers(0, 3))


class FaultInjector:
    """Stateful per-run realization of a fault plan."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = make_rng(plan.seed)
        self._message_specs = list(plan.message_specs)
        self._host_specs = list(plan.host_specs)
        self._consumed_hosts: set[int] = set()  # indexes into _host_specs
        #: Injections performed, per spec (enforces ``max_events``).
        self._spec_counts: dict[int, int] = {}
        #: Total injections by kind (the experiment's ground truth).
        self.injected_by_kind: dict[str, int] = {}

    @property
    def has_message_faults(self) -> bool:
        return bool(self._message_specs)

    @property
    def total_injected(self) -> int:
        return sum(self.injected_by_kind.values())

    def _budget_left(self, idx: int, spec: FaultSpec) -> bool:
        if spec.max_events is None:
            return True
        return self._spec_counts.get(idx, 0) < spec.max_events

    def _record(self, idx: int, kind: str) -> None:
        self._spec_counts[idx] = self._spec_counts.get(idx, 0) + 1
        self.injected_by_kind[kind] = self.injected_by_kind.get(kind, 0) + 1

    # -- message faults --------------------------------------------------------

    def perturb(
        self, last: Sequence[Any]
    ) -> tuple[list[int] | None, list[Any] | None, list[str]]:
        """Apply message-scope faults to one channel's aggregated message.

        ``last`` holds the final field of each sent item, in order.
        Returns ``(index, values, injected)``: the delivered message is
        the sent items at positions ``index``, in that order (``drop``
        empties it, ``duplicate`` repeats one position, ``reorder``
        permutes it), and when ``values`` is not None the delivered
        items' final fields are ``values`` (``corrupt`` edited one).
        ``index`` is None when no fault fired; ``injected`` lists the
        faults that fired.  Called for retransmissions too — the retry
        goes over the same lossy network.
        """
        index: list[int] | None = None
        values: list[Any] | None = None
        injected: list[str] = []
        for idx, spec in enumerate(self._message_specs):
            if not self._budget_left(idx, spec):
                continue
            if float(self.rng.random()) >= spec.rate:
                continue
            if spec.kind == "drop":
                index, values = [], None
                injected.append("drop")
                self._record(idx, "drop")
                break  # the whole aggregated message is lost
            if index is None:
                index = list(range(len(last)))
            if not index:
                continue
            if spec.kind == "duplicate":
                pos = int(self.rng.integers(0, len(index)))
                index.insert(pos + 1, index[pos])
                if values is not None:
                    values.insert(pos + 1, values[pos])
                injected.append("duplicate")
                self._record(idx, "duplicate")
            elif spec.kind == "reorder":
                if len(index) > 1:
                    perm = self.rng.permutation(len(index)).tolist()
                    index = [index[i] for i in perm]
                    if values is not None:
                        values = [values[i] for i in perm]
                    injected.append("reorder")
                    self._record(idx, "reorder")
            elif spec.kind == "corrupt":
                pos = int(self.rng.integers(0, len(index)))
                if values is None:
                    values = [last[i] for i in index]
                values[pos] = _corrupt_value(values[pos], self.rng)
                injected.append("corrupt")
                self._record(idx, "corrupt")
        return (index if injected else None), values, injected

    # -- host faults -----------------------------------------------------------

    def due_host_events(self, round_index: int) -> list[FaultSpec]:
        """Host-scope specs triggered at this round (each fires once)."""
        due: list[FaultSpec] = []
        for idx, spec in enumerate(self._host_specs):
            if idx in self._consumed_hosts:
                continue
            if round_index >= int(spec.round):  # type: ignore[arg-type]
                self._consumed_hosts.add(idx)
                self._record(1000 + idx, spec.kind)
                due.append(spec)
        return due
