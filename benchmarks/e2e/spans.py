"""In-memory spans recorded from outside the program.

A :class:`Tracer` replaces chosen class attributes with timing wrappers
for the duration of a ``with tracer.installed(...)`` block and puts the
originals back on exit, so the traced code is the code under test, not a
copy.  Each call becomes one span ``(name, start, end, parent)``; a
layer's self time is its span's duration minus the durations of its
direct children, so the self times of all spans sum to the root span.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Wrap:
    """One class attribute to time, and how to name and count its calls."""

    owner: type
    attr: str
    #: The span name, or a function of the call's ``(args, kwargs)`` that
    #: picks one (e.g. keyed on a phase argument).
    name: str | Callable[[tuple, dict], str]
    #: Optional ``count(result) -> int`` added to the span name's item count.
    count: Callable[[Any], int] | None = None


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


class Tracer:
    """Collects spans; see the module docstring."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_index)``, parent -1 for a root; a
        #: span's slot is reserved when it opens and filled when it closes.
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.items: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the ``with`` block as one span."""
        idx = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, t0)

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, self._stack[-1] if self._stack else -1)

    def _wrapper(self, fn: Callable, w: Wrap) -> Callable:
        # Opens and closes spans by hand: a context manager per call would
        # double the tracer's cost on the hottest wrapped method.
        namer = w.name if callable(w.name) else None

        def timed(*args, **kwargs):
            name = namer(args, kwargs) if namer is not None else w.name
            idx = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, t0)
            if w.count is not None:
                self.items[name] = self.items.get(name, 0) + w.count(result)
            return result

        return timed

    @contextmanager
    def installed(self, wraps: list[Wrap]) -> Iterator["Tracer"]:
        """Wrap every listed attribute; restore the originals on exit."""
        saved: list[tuple[type, str, Any]] = []
        try:
            for w in wraps:
                original = w.owner.__dict__[w.attr]
                saved.append((w.owner, w.attr, original))
                setattr(w.owner, w.attr, self._wrapper(original, w))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict[str, LayerTotals]:
        """Per span name: calls, summed duration, summed self time, items."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, LayerTotals] = {}
        for i, (name, t0, t1, _parent) in enumerate(self.spans):
            lt = out.setdefault(name, LayerTotals())
            lt.calls += 1
            lt.total_s += t1 - t0
            lt.self_s += (t1 - t0) - child[i]
        for name, n in self.items.items():
            out.setdefault(name, LayerTotals()).items = n
        return out

    def to_json(self) -> dict[str, Any]:
        """Spans relative to the first start, for the run's trace file."""
        base = min((s[1] for s in self.spans), default=0.0)
        return {
            "spans": [
                {"id": i, "name": n, "parent": p, "start_s": t0 - base, "end_s": t1 - base}
                for i, (n, t0, t1, p) in enumerate(self.spans)
            ]
        }
