"""The semantic model of the engine API that the lint rules reason over.

The rules in :mod:`repro.lint.rules` are not generic style checks — each
one encodes an invariant of the paper's algorithms or of this repo's
engine architecture.  To do that statically they need to know *which
names mean what*: which methods are CONGEST handlers invoked by the
simulator, which Gluon calls are synchronization points, which attributes
hold proxy labels that are only valid after a sync, which attributes are
unordered sets, and which entry points must carry the resilience
plumbing.  That knowledge lives here, in one place, so adding an engine
concept (a new sync primitive, a new set-valued field) is a one-line
model change rather than a rule rewrite.

Everything is expressed over *terminal names* — the last attribute in a
dotted chain — because the linter is a per-module AST pass with no cross-
module type inference.  The names are chosen to be unambiguous within
this codebase; collisions would surface as false positives in the
dogfooding meta-test (``repro lint src tests`` must stay clean).
"""

from __future__ import annotations

import re

# -- engine entry points -------------------------------------------------------

#: Functions that are engine entry points: they drive a full partitioned
#: run and therefore must expose the ``resilience=`` hook (PR 2 made the
#: fault-injection context a first-class argument of every driver).
ENGINE_ENTRY_RE = re.compile(r"^(?:[a-z0-9_]+_engine|run_bsp)$")

#: The parameter every engine entry point must accept.
RESILIENCE_PARAM = "resilience"

# -- Gluon / BSP synchronization -----------------------------------------------

#: The Gluon substrate's synchronization primitives.  A call to one of
#: these is the *only* way state crosses hosts on the engine; they are
#: also the dominators that make proxy-label reads safe (§4.1: a mirror's
#: label is meaningful only after the master's reduce/broadcast).
SYNC_PRIMITIVES = frozenset({"reduce_to_masters", "broadcast_from_masters"})

#: Opening a round record — marks a function as part of the BSP round
#: loop (and therefore a message-emitting scope for RL101).
ROUND_OPENERS = frozenset({"new_round"})

#: Proxy-label fields that hold *finalized* values received by broadcast
#: (master-authoritative).  Reading one before the function has performed
#: a sync is the delayed-synchronization hazard of §4.3: the label may be
#: provisional.  Writes (stores / subscript-stores) are fine — that is
#: how deliveries land.
PROXY_FINAL_FIELDS = frozenset({"fin_dist", "fin_sigma"})

#: Terminal names of buffers whose ``append``/``extend`` constitutes
#: staging a message for synchronization (per-host reduce/broadcast item
#: lists throughout the engine and the CONGEST programs).
EMISSION_BUFFER_RE = re.compile(
    r"(?:^|_)(?:items|pending|fires|sends|outbox|messages|staged)$"
)

#: Names whose ``+=`` is a σ/δ/BC accumulation — order-sensitive float
#: folds that unordered iteration must not feed.
ACCUMULATOR_RE = re.compile(r"(?:sigma|delta|bc)", re.IGNORECASE)

# -- CONGEST protocol ----------------------------------------------------------

#: Base-class names identifying a CONGEST vertex program.
VERTEX_PROGRAM_BASES = frozenset({"VertexProgram"})

#: The simulator-invoked hooks of a vertex program.  ``compute_sends`` is
#: additionally a message-emitting scope for RL101.
CONGEST_HANDLER_METHODS = frozenset(
    {"compute_sends", "handle_message", "end_of_round"}
)

#: Methods that evaluate the flat-map fire schedule.  Their due-round
#: arithmetic must be exactly ``d + position + 1`` (Alg. 3's
#: ``r = d_sv + ℓ`` with 1-based rounds); RL203 verifies the constant.
FIRE_EVALUATORS = frozenset({"next_fire", "next_send"})

#: Leaf names RL203 recognizes as the list-position term of the schedule.
SCHEDULE_POSITION_NAMES = frozenset({"sent_prefix", "pos", "position", "ell"})

#: Leaf names RL203 recognizes as the distance term of the schedule.
SCHEDULE_DISTANCE_NAMES = frozenset({"d", "dist", "distance", "d_sv"})

#: The required constant: entry at 0-based position p with distance d
#: fires in 1-based round ``d + p + 1``.
SCHEDULE_CONSTANT = 1

#: Name of the collection holding every vertex's program object inside
#: the simulator.  Reaching through it (``programs[t].handle_message``)
#: from anywhere but the network itself bypasses channel accounting.
PROGRAM_COLLECTION_NAMES = frozenset({"programs"})

# -- set-valuedness ------------------------------------------------------------

#: Attributes that are plain ``set`` objects in engine state (e.g. a
#: proxy's ``unsent``: local vertices with unsent candidate pairs).
SET_VALUED_ATTRS = frozenset({"unsent"})

#: Attributes that are mappings *to sets* — subscripting or ``.get()``
#: yields a set (``APSPVertexState.preds``: per-source predecessor sets).
SET_MAPPING_ATTRS = frozenset({"preds"})

#: Set-returning methods: calling one of these on anything produces an
#: unordered set.
SET_RETURNING_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)

#: Calls that consume an iterable positionally and preserve its order
#: into an ordered result (so feeding them a set leaks set order).
ORDER_PRESERVING_CONSUMERS = frozenset({"list", "tuple", "fromiter", "enumerate"})

# -- randomness / clocks -------------------------------------------------------

#: ``np.random.<attr>`` factories that take an explicit seed and are the
#: sanctioned way to get randomness (see :mod:`repro.utils.prng`).
SEEDED_RNG_FACTORIES = frozenset(
    {"default_rng", "Generator", "SeedSequence", "RandomState", "PCG64", "Philox"}
)

#: Wall-clock calls: ``(module, function)`` pairs.
CLOCK_CALLS = frozenset(
    {
        ("time", "time"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "process_time"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("date", "today"),
    }
)

#: Path fragments where wall-clock use is legitimate: the telemetry
#: layer, its timing helper, post-hoc analysis, and the CLI/report glue.
#: Everything else in ``src`` feeds (directly or through RoundStats) the
#: deterministic signature that ``repro bench`` gates on.
CLOCK_EXEMPT_PARTS = (
    "repro/obs/",
    "repro/analysis/",
    "repro/utils/timing.py",
    "repro/cli/",
    "repro/report.py",
)

# -- communication-ledger accounting -------------------------------------------

#: Receiver terminal names that denote a *raw* communication substrate —
#: the object a :class:`~repro.runtime.plane.MessagePlane` wraps.  Driver
#: code must invoke sync primitives through the plane (whose accounting
#: chokepoints feed the comm ledger), never by reaching under it.
SUBSTRATE_RECEIVER_NAMES = frozenset({"substrate", "network", "net"})

#: Methods that mutate per-channel :class:`MessageStats` directly.  Only
#: the CONGEST message plane may call them: a stats record with no
#: matching ledger record breaks the ledger↔stats reconciliation that
#: ``repro comm --check`` enforces.
CHANNEL_RECORDERS = frozenset({"record_channel"})

#: :class:`RoundStats` per-host byte counters.  Subscript-writing them
#: outside the accounting chokepoints charges wire traffic that the comm
#: ledger never sees.
BYTE_ACCOUNT_FIELDS = frozenset({"bytes_out", "bytes_in"})

#: Path fragments of the modules that *are* the ledger-recording entry
#: points (and their data-model homes) — the only places allowed to touch
#: the primitives above: the message planes, the Gluon substrate's
#: ``account_column_pairs`` chokepoint, the CONGEST package, the
#: resilience context's retransmit charging, and the stats structures
#: themselves.
LEDGER_ENTRY_PARTS = (
    "repro/runtime/plane.py",
    "repro/engine/gluon.py",
    "repro/congest/",
    "repro/resilience/context.py",
    "repro/engine/stats.py",
)

# -- observability hygiene -----------------------------------------------------

#: Constructors of sinks that own a file handle and must be closed.
SINK_CONSTRUCTORS = frozenset({"FileSink"})

#: Passing a sink to one of these transfers close responsibility (the
#: telemetry session closes its sink on exit).
SINK_OWNERSHIP_TRANSFERS = frozenset({"session", "Telemetry"})

#: Span-opening context managers that must be entered with ``with``.
SPAN_OPENERS = frozenset({"span", "phase"})

#: Modules that implement the telemetry primitives themselves.
OBS_IMPL_PARTS = ("repro/obs/",)

#: Path fragments identifying the CONGEST simulator (the modules
#: allowed to invoke vertex-program handlers directly — the network and
#: the runtime message plane that drives its exchanges).
CONGEST_NETWORK_PARTS = (
    "repro/congest/network.py",
    "repro/runtime/plane.py",
)

#: Exception class names of the resilience hierarchy (RL404).  Catching
#: one of these and letting it vanish defeats the whole fault-injection
#: contract: a detected fault must either escalate (re-raise) or be
#: routed into the recovery machinery.
RESILIENCE_ERROR_NAMES = frozenset(
    {
        "ResilienceError",
        "FaultDetectedError",
        "InvariantViolation",
        "HostCrashError",
        "HostTimeoutError",
        "CheckpointCorruptError",
        "UnrecoverableFaultError",
    }
)

#: Calls that *route* a caught resilience error into the recovery
#: machinery: crash escalation (``on_crash`` re-raises when the restart
#: budget is exhausted), graceful degradation bookkeeping, and the
#: supervisor's unit wrapper.
RESILIENCE_ROUTING_NAMES = frozenset({"on_crash", "note_degraded", "run_unit"})

#: Path fragments whose handlers may legitimately *terminate* a
#: resilience error: the resilience package itself (the recovery
#: machinery, the experiment harness that converts aborts into report
#: rows, and the checkpoint store's corrupt-tag fallback) and the CLI
#: layer that turns failures into exit codes.
RESILIENCE_HANDLER_EXEMPT_PARTS = (
    "repro/resilience/",
    "repro/cli/",
)

#: Path fragments identifying the superstep runtime itself — the one
#: place allowed to own a driver round loop (RL204).
RUNTIME_IMPL_PARTS = ("repro/runtime/",)

#: Additional paths exempt from RL204: the resilience context opens
#: synthetic ``recovery`` rounds in a loop to charge stall/retransmit
#: overhead — a runtime policy, not a driver round loop.
ROUND_LOOP_EXEMPT_PARTS = RUNTIME_IMPL_PARTS + (
    "repro/resilience/context.py",
)

# -- round-ledger accounting ----------------------------------------------------

#: Names whose ``+= 1`` is an ad-hoc BSP round counter (RL405).  The
#: superstep runtime already counts rounds — ``run_loop`` returns the
#: count, ``EngineRun.num_rounds`` and the round ledger persist it — so a
#: driver keeping its own tally drifts the moment recovery rounds, crash
#: replays, or early termination change the loop shape.  Accumulating
#: *returned* counts (``fwd_rounds += runtime.run_loop(...)``) is fine:
#: the increment is a variable, not the constant 1.
ROUND_COUNTER_RE = re.compile(
    r"(?:^|_)(?:rounds?|rnd|supersteps?)(?:_executed|_count(?:er)?)?$"
)

#: Names whose augmented addition is an ad-hoc frontier-size or
#: settlement tally (RL405) — per-round algorithm state the round ledger
#: owns (drivers report it via ``RoundLedger.note(frontier=..., settled=
#: ...)``; queries read ``UnitRounds``/``RoundState``).
FRONTIER_TALLY_RE = re.compile(
    r"(?:^|_)(?:frontier|settled|active_sources)(?:_size|_count|_total)?$"
)

#: Paths allowed to count rounds and frontier sizes directly: the runtime
#: that owns the loop, the observability layer (the ledger itself and the
#: manifest/trace aggregators), the authoritative stats structures,
#: post-hoc analysis, the CLI glue, and the resilience machinery's
#: replay/overhead bookkeeping.
ROUND_STATE_EXEMPT_PARTS = RUNTIME_IMPL_PARTS + OBS_IMPL_PARTS + (
    "repro/engine/stats.py",
    "repro/analysis/",
    "repro/cli/",
    "repro/resilience/",
)


def is_test_path(relpath: str) -> bool:
    """Whether ``relpath`` is test code (exempt from determinism rules —
    tests are drivers and may time things or draw throwaway randomness)."""
    parts = relpath.replace("\\", "/").split("/")
    return "tests" in parts or parts[-1].startswith("test_")


def path_matches(relpath: str, fragments: tuple[str, ...]) -> bool:
    """Whether any model path fragment occurs in ``relpath``."""
    norm = relpath.replace("\\", "/")
    return any(frag in norm for frag in fragments)
