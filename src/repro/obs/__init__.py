"""``repro.obs`` — unified telemetry: spans, metrics, events, manifests.

The observability subsystem gives every layer of the reproduction one
event model (see :mod:`repro.obs.events`):

- **span tracing** (:mod:`repro.obs.spans`) — hierarchical
  ``run → phase → round → host`` intervals with wall-clock *and*
  simulated-cluster-time attribution;
- **metrics** (:mod:`repro.obs.metrics`) — labeled counters, gauges, and
  histograms (messages/round, bytes/host, flat-map occupancy, load
  imbalance);
- **export** (:mod:`repro.obs.sinks`, :mod:`repro.obs.manifest`) — JSONL
  event streams plus a versioned run manifest written alongside the
  benchmark CSVs.

A module-level *current session* defaults to a disabled null session so
the instrumentation in the engines costs a flag check when off::

    from repro import obs
    from repro.obs import FileSink
    from repro.runspec import RunSpec, execute

    spec = RunSpec("er60", "mrbc", "er:60:3", hosts=8)
    g, srcs = spec.load()
    with obs.session(FileSink("events.jsonl"), model=ClusterModel(8)) as tele:
        res = execute(spec, g, srcs)
    # events.jsonl now holds spans, per-round samples, and metric snapshots

See ``docs/OBSERVABILITY.md`` for the span model and manifest schema, and
``repro trace`` for the command-line entry point.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

from repro.obs.bench import (
    BENCH_VERSION,
    DEFAULT_SUITE,
    SMOKE_SUITE,
    BenchComparison,
    compare_bench,
    deterministic_view,
    load_bench,
    run_case,
    run_suite,
    write_bench,
)
from repro.obs.chrome import chrome_trace, export_chrome_trace
from repro.obs.comm import (
    COMM_SCHEMA_VERSION,
    PLANE_CONGEST,
    PLANE_GLUON,
    WORD_BYTES,
    BoundViolation,
    CommLedger,
    CommTotals,
    congest_bound_words,
)
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    KIND_COMM,
    KIND_FAULT,
    KIND_PROFILE,
    KIND_RECOVERY,
    Event,
    iter_jsonl,
    parse_jsonl,
    read_events,
)
from repro.obs.manifest import (
    MANIFEST_VERSION,
    PhaseTotals,
    RunManifest,
    build_manifest,
    git_sha,
    load_manifest,
    write_manifest,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, quantile
from repro.obs.profile import PhaseProfiler, aggregate_profile_events
from repro.obs.rounds import (
    ROUNDS_SCHEMA_VERSION,
    RoundLedger,
    RoundState,
    UnitRounds,
)
from repro.obs.sinks import FileSink, MemorySink, NullSink, Sink
from repro.obs.spans import Span, SpanTracer
from repro.obs.session import Telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.model import ClusterModel

__all__ = [
    "BENCH_VERSION",
    "COMM_SCHEMA_VERSION",
    "DEFAULT_SUITE",
    "EVENT_SCHEMA_VERSION",
    "KIND_COMM",
    "KIND_FAULT",
    "KIND_PROFILE",
    "KIND_RECOVERY",
    "MANIFEST_VERSION",
    "PLANE_CONGEST",
    "PLANE_GLUON",
    "ROUNDS_SCHEMA_VERSION",
    "SMOKE_SUITE",
    "WORD_BYTES",
    "BenchComparison",
    "BoundViolation",
    "CommLedger",
    "CommTotals",
    "Counter",
    "Event",
    "FileSink",
    "Gauge",
    "Histogram",
    "MemorySink",
    "MetricsRegistry",
    "NullSink",
    "PhaseProfiler",
    "PhaseTotals",
    "RoundLedger",
    "RoundState",
    "RunManifest",
    "Sink",
    "Span",
    "SpanTracer",
    "Telemetry",
    "UnitRounds",
    "aggregate_profile_events",
    "build_manifest",
    "chrome_trace",
    "compare_bench",
    "congest_bound_words",
    "current",
    "deterministic_view",
    "export_chrome_trace",
    "git_sha",
    "iter_jsonl",
    "load_bench",
    "load_manifest",
    "parse_jsonl",
    "quantile",
    "read_events",
    "run_case",
    "run_suite",
    "session",
    "write_bench",
    "write_manifest",
]

#: The always-available disabled session every hot path sees by default.
NULL_TELEMETRY = Telemetry()

_current: Telemetry = NULL_TELEMETRY


def current() -> Telemetry:
    """The active telemetry session (a disabled null session by default)."""
    return _current


@contextmanager
def session(
    sink: Sink | None = None,
    model: "ClusterModel | None" = None,
    profile: str | None = None,
    profile_top: int = 10,
    comm: "CommLedger | None" = None,
    rounds: "RoundLedger | None" = None,
) -> Iterator[Telemetry]:
    """Install a telemetry session as current for the ``with`` block.

    The session is closed on exit (metrics flushed into the sink, file
    handles released) and the previous session restored.  Sessions do not
    nest usefully — the inner one simply shadows the outer for its
    duration.  ``profile`` opts into phase-scoped profiling (see
    :class:`repro.obs.profile.PhaseProfiler`); ``comm`` attaches a
    :class:`~repro.obs.comm.CommLedger` the message planes record into,
    and ``rounds`` a :class:`~repro.obs.rounds.RoundLedger` the superstep
    runtime records into (both work with a null sink — accounting without
    event emission).
    """
    global _current
    tele = Telemetry(
        sink=sink,
        model=model,
        profile=profile,
        profile_top=profile_top,
        comm=comm,
        rounds=rounds,
    )
    prev = _current
    _current = tele
    try:
        yield tele
    finally:
        _current = prev
        tele.close()
