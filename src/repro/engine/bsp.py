"""A reusable BSP vertex-program driver for the simulated engine.

The programs in :mod:`repro.engine.programs` and the BC algorithms all
share one skeleton per round:

1. masters **broadcast** the labels that changed (the "fires"),
2. each host runs its **compute** operator over the deliveries, staging
   per-host reduction items,
3. staged items **reduce** to masters, which update authoritative state
   and decide the next round's fires,
4. the run ends at global quiescence (no fires, nothing staged).

:func:`run_bsp` packages that skeleton so a new distributed algorithm only
supplies the three callbacks — the way D-Galois users write an operator
and a reduction and get BSP execution, synchronization, and statistics
for free.  :func:`sssp_engine` (weighted SSSP by synchronous Bellman-Ford)
is both a useful algorithm and the reference example of the API.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import obs
from repro.engine.gluon import TARGET_ALL_PROXIES
from repro.engine.partition import HostPartition, PartitionedGraph
from repro.engine.stats import EngineRun, RoundStats
from repro.graph.weighted import WeightedDiGraph
from repro.runtime.plane import GluonPlane, resolve_partition
from repro.runtime.superstep import CheckpointPolicy, SuperstepRuntime
from repro.utils.timing import OpCounter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.context import ResilienceContext
    from repro.resilience.supervisor import RecoveryPolicy


class BSPAlgorithm(ABC):
    """Callbacks defining one BSP vertex program.

    Attributes
    ----------
    phase:
        Label for the round statistics.
    payload_bytes, batch_width:
        Per-item wire size and batching factor for Gluon's accounting.
    broadcast_target:
        Which proxies receive master broadcasts (a Gluon target selector).

    Gluon keeps one label per proxy, so the items a host stages and the
    fires a master returns name each vertex at most once per host per
    round (the plane sizes each pair message by its distinct vertices).
    """

    phase: str = "bsp"
    payload_bytes: int = 12
    batch_width: int = 1
    broadcast_target: str = TARGET_ALL_PROXIES

    @abstractmethod
    def initial_fires(self) -> list[tuple]:
        """Master-side ``(gid, *values)`` items broadcast in round 1."""

    @abstractmethod
    def host_compute(
        self,
        host: int,
        part: HostPartition,
        deliveries: list[tuple],
        oc: OpCounter,
    ) -> list[tuple]:
        """Apply the operator on one host; return staged reduce items."""

    @abstractmethod
    def master_update(
        self, inbox: list[tuple], oc_by_host: list[OpCounter]
    ) -> list[tuple]:
        """Fold reduced items into master state; return next fires.

        ``inbox`` items are ``(gid, sender_host, *values)``.
        """

    # -- checkpoint hooks (optional; enable crash recovery in run_bsp) ---------

    def snapshot(self) -> tuple[dict[str, Any], dict[str, np.ndarray]] | None:
        """Capture master/host state as ``(meta, arrays)``.

        Return ``None`` (the default) if the algorithm does not support
        checkpointing; :func:`run_bsp` then cannot recover from an
        injected host crash.  ``meta`` must be JSON-able and ``arrays``
        NumPy arrays, so snapshots can persist through
        :mod:`repro.engine.persist`.
        """
        return None

    def restore(
        self, meta: dict[str, Any], arrays: dict[str, np.ndarray]
    ) -> None:
        """Load state captured by :meth:`snapshot` (inverse operation)."""
        raise NotImplementedError(f"{type(self).__name__} has no restore()")


@dataclass
class BSPRunResult:
    """Outcome of :func:`run_bsp`."""

    rounds: int
    run: EngineRun


def run_bsp(
    pg: PartitionedGraph,
    algorithm: BSPAlgorithm,
    max_rounds: int = 1_000_000,
    run: EngineRun | None = None,
    resilience: "ResilienceContext | None" = None,
    checkpoint_interval: int = 4,
    recovery_policy: "RecoveryPolicy | str | None" = None,
) -> BSPRunResult:
    """Drive ``algorithm`` to global quiescence on partition ``pg``.

    With a ``resilience`` context, faults from its plan are injected at
    the Gluon layer; if the algorithm implements :meth:`~BSPAlgorithm
    .snapshot`, master state is checkpointed every ``checkpoint_interval``
    rounds and an injected host crash (``repair`` mode) resumes from the
    latest intact checkpoint instead of losing the run (a corrupt
    snapshot falls back to the previous retained tag).

    ``recovery_policy`` attaches a :class:`~repro.resilience.supervisor
    .RecoveryPolicy` governing retry/backoff/deadline/restart budgets
    plus the checkpoint cadence and retention; it overrides
    ``checkpoint_interval``.  BSP vertex programs have no per-batch
    failure domain, so a degrading policy does not salvage partial
    output here — exhausted recovery still raises.
    """
    from repro.resilience.supervisor import attach_policy

    resilience, _supervisor = attach_policy(resilience, recovery_policy)
    if resilience is not None and resilience.policy is not None:
        checkpoint_interval = resilience.policy.checkpoint_interval
    runtime = SuperstepRuntime(
        plane=GluonPlane(pg, resilience=resilience), run=run, resilience=resilience
    )
    gluon = runtime.plane
    run = runtime.run
    H = pg.num_hosts
    state = {"fires": algorithm.initial_fires()}

    def live() -> bool:
        return bool(state["fires"])

    with runtime.phase(algorithm.phase, hosts=H):
        if resilience is None:

            def step(rnd: int, rs: RoundStats) -> bool:
                state["fires"] = _bsp_one_round(
                    pg, algorithm, gluon, rs, state["fires"]
                )
                return True  # termination is the precheck's job

            rounds = runtime.run_loop(
                algorithm.phase, step, precheck=live, max_rounds=max_rounds
            )
        else:
            rounds = _bsp_rounds_resilient(
                pg,
                algorithm,
                gluon,
                runtime,
                state,
                live,
                max_rounds,
                resilience,
                checkpoint_interval,
            )
    return BSPRunResult(rounds=rounds, run=run)


def _bsp_one_round(
    pg: PartitionedGraph,
    algorithm: BSPAlgorithm,
    gluon: GluonPlane,
    rs: RoundStats,
    fires_flat: list[tuple],
) -> list[tuple]:
    """Execute one broadcast → compute → reduce → master-update round."""
    rledger = obs.current().rounds
    if rledger is not None:
        # The fires broadcast this round are the BSP frontier.
        rledger.note(frontier=len(fires_flat))
    H = pg.num_hosts
    fires: list[list[tuple]] = [[] for _ in range(H)]
    for item in fires_flat:
        fires[int(pg.master_of[item[0]])].append(item)
    deliveries = gluon.broadcast_from_masters(
        fires,
        algorithm.broadcast_target,
        algorithm.payload_bytes,
        algorithm.batch_width,
        rs,
    )
    pending: list[list[tuple]] = [[] for _ in range(H)]
    for h in range(H):
        pending[h] = algorithm.host_compute(
            h, pg.parts[h], deliveries[h], rs.compute[h]
        )
    inbox = gluon.reduce_to_masters(
        pending, algorithm.payload_bytes, algorithm.batch_width, rs
    )
    merged: list[tuple] = []
    for h in range(H):
        merged.extend(inbox[h])
    return algorithm.master_update(merged, rs.compute)


def _bsp_rounds_resilient(
    pg: PartitionedGraph,
    algorithm: BSPAlgorithm,
    gluon: GluonPlane,
    runtime: SuperstepRuntime,
    state: dict,
    live,
    max_rounds: int,
    ctx: "ResilienceContext",
    checkpoint_interval: int,
) -> int:
    """The round loop with periodic checkpoints and crash restart."""
    run = runtime.run

    def save(at_round: int) -> bool:
        snap = algorithm.snapshot()
        if snap is None:
            return False
        meta, arrays = snap
        # Fires travel in the checkpoint: they are the master-side state
        # the next round consumes (tuples become lists through JSON).
        # Per-round tags (not one overwritten "latest") so a corrupt
        # newest snapshot can fall back to an older intact one; the
        # store's retention bounds how many tags accumulate.
        ctx.checkpoints.save(
            f"bsp-r{at_round:06d}",
            {
                "kind": "bsp",
                "round": at_round,
                "fires": [list(f) for f in state["fires"]],
                "algo": meta,
            },
            arrays,
        )
        return True

    def restore() -> int:
        _tag, meta, arrays = ctx.checkpoints.load_latest()
        algorithm.restore(meta["algo"], arrays)
        state["fires"] = [tuple(f) for f in meta["fires"]]
        return int(meta["round"])

    def body(_rounds: int) -> None:
        # The round record opens inside the guarded body: a crashed
        # round's partial stats stay in the run, as a real lost round's
        # would.
        rs = run.new_round(algorithm.phase)
        state["fires"] = _bsp_one_round(pg, algorithm, gluon, rs, state["fires"])

    return runtime.run_guarded(
        live,
        body,
        max_rounds=max_rounds,
        phase=algorithm.phase,
        checkpoint=CheckpointPolicy(
            save=save,
            restore=restore,
            interval=checkpoint_interval,
            describe=(
                f"{type(algorithm).__name__} does not implement "
                "snapshot(); cannot restart after a crash"
            ),
        ),
    )


# -- reference algorithm: weighted SSSP -----------------------------------------


class _SSSP(BSPAlgorithm):
    """Synchronous Bellman-Ford over a weighted graph."""

    phase = "sssp"
    payload_bytes = 12  # f64 distance + metadata slack

    def __init__(self, wg: WeightedDiGraph, pg: PartitionedGraph, source: int):
        self.wg = wg
        self.pg = pg
        self.source = source
        n = wg.num_vertices
        self.master_dist = np.full(n, np.inf)
        self.master_dist[source] = 0.0
        # Per host: the distance at which each proxy's out-edges were last
        # relaxed, and the best candidate staged per target (to suppress
        # re-staging of dominated values).  Kept separate: a broadcast
        # confirming this host's own candidate must still trigger
        # relaxation exactly once.
        self.relaxed = [np.full(p.num_local, np.inf) for p in pg.parts]
        self.cand = [np.full(p.num_local, np.inf) for p in pg.parts]
        # Local out-edge weights aligned with each part's CSR.
        self.local_w = []
        for p in pg.parts:
            w = np.empty(p.out_targets.size)
            for lid in range(p.num_local):
                u = int(p.gids[lid])
                sl = slice(p.out_offsets[lid], p.out_offsets[lid + 1])
                targets = p.gids[p.out_targets[sl]]
                for j, v in enumerate(targets.tolist()):
                    w[sl.start + j] = wg.edge_weight(u, int(v))
            self.local_w.append(w)

    def initial_fires(self) -> list[tuple]:
        return [(self.source, 0.0)]

    def host_compute(self, host, part, deliveries, oc):
        relaxed = self.relaxed[host]
        cand = self.cand[host]
        w = self.local_w[host]
        staged: dict[int, float] = {}
        for gid, d in deliveries:
            lid = int(np.searchsorted(part.gids, gid))
            if d >= relaxed[lid]:
                continue  # out-edges already relaxed at this distance
            relaxed[lid] = d
            sl = slice(part.out_offsets[lid], part.out_offsets[lid + 1])
            nbrs = part.out_targets[sl]
            oc.vertex_ops += 1
            oc.edge_ops += nbrs.size
            nd = d + w[sl]
            better = nd < cand[nbrs]
            for t, c in zip(nbrs[better].tolist(), nd[better].tolist()):
                cand[t] = c
                g = int(part.gids[t])
                if c < staged.get(g, np.inf):
                    staged[g] = c
        return [(g, d) for g, d in staged.items()]

    def master_update(self, inbox, oc_by_host):
        # One fire per improved vertex, with its final distance, in
        # first-improvement order (a dict keeps a key's first position).
        fires: dict[int, float] = {}
        for gid, sender, d in inbox:
            oc_by_host[int(self.pg.master_of[gid])].struct_ops += 1
            if d < self.master_dist[gid]:
                self.master_dist[gid] = d
                fires[gid] = d
        return list(fires.items())

    def snapshot(self):
        arrays = {"master_dist": self.master_dist.copy()}
        for h in range(len(self.relaxed)):
            arrays[f"relaxed_{h}"] = self.relaxed[h].copy()
            arrays[f"cand_{h}"] = self.cand[h].copy()
        return {"algo": "sssp", "source": int(self.source)}, arrays

    def restore(self, meta, arrays):
        if meta.get("algo") != "sssp" or int(meta.get("source", -1)) != self.source:
            raise ValueError("checkpoint is for a different SSSP run")
        self.master_dist[:] = arrays["master_dist"]
        for h in range(len(self.relaxed)):
            self.relaxed[h][:] = arrays[f"relaxed_{h}"]
            self.cand[h][:] = arrays[f"cand_{h}"]


def sssp_engine(
    wg: WeightedDiGraph,
    source: int,
    num_hosts: int = 8,
    partition: PartitionedGraph | None = None,
    resilience: "ResilienceContext | None" = None,
    recovery_policy: "RecoveryPolicy | str | None" = None,
) -> tuple[np.ndarray, BSPRunResult]:
    """Weighted single-source shortest paths on the engine.

    Returns ``(distances, run_result)``; unreachable vertices get ``inf``.
    """
    if not 0 <= source < wg.num_vertices:
        raise ValueError("source out of range")
    partition = resolve_partition(wg.graph, partition, num_hosts)
    algo = _SSSP(wg, partition, source)
    result = run_bsp(
        partition, algo, resilience=resilience, recovery_policy=recovery_policy
    )
    return algo.master_dist.copy(), result
