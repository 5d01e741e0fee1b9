"""One run entry point: a :class:`RunSpec` names a run, :func:`execute` runs it.

A spec holds the knobs the paper's evaluation turns on every run: batch
size ``k`` (Figure 1), host count (Figure 3), a sampled contiguous chunk
of sources (§5.1) and the delayed-synchronization ablation (§4.3).  The
bench suite, both conformance suites and the ``repro``, ``comm``,
``rounds``, ``trace`` and ``profile`` CLIs all run through here::

    spec = RunSpec("er60", "mrbc", "er:60:3", hosts=4, sources=8, batch=8)
    g, sources = spec.load()
    res = execute(spec, g, sources, comm=CommLedger())
    eager = execute(replace(spec, delayed_sync=False), g, sources)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.graph.io import load_graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.digraph import DiGraph
    from repro.obs.comm import CommLedger
    from repro.obs.rounds import RoundLedger

#: Algorithms :func:`execute` runs.  ``"mrbc-congest"`` is batched CONGEST
#: MRBC: one Lemma 8 execution (k-SSP + Algorithm 5) per ``batch`` sources.
ALGORITHMS = ("mrbc", "sbbc", "mrbc-congest")


@dataclass(frozen=True)
class RunSpec:
    """One run: algorithm, graph, and the knobs the paper's evaluation turns.

    ``graph`` is an edge-list path or a generator spec (``er:60:3``).
    ``sources`` is how many sources to sample (a contiguous chunk drawn
    with ``seed``, capped at the vertex count), or ``None`` for every
    vertex.  ``hosts`` and ``delayed_sync`` apply to the Gluon engines and
    ``batch`` to both MRBC forms.  The defaults are the CI-sized
    configuration of the conformance suites.
    """

    name: str
    algorithm: str
    graph: str
    hosts: int = 4
    sources: int | None = 8
    batch: int = 8
    seed: int = 7
    delayed_sync: bool = True

    def __post_init__(self) -> None:
        for field_name in ("hosts", "batch", "sources"):
            value = getattr(self, field_name)
            if value is not None and value < 1:
                raise ValueError(f"{field_name} must be >= 1, got {value}")

    def load(self) -> tuple["DiGraph", np.ndarray]:
        """The graph and source ids to run on (ValueError on a bad graph spec)."""
        from repro.core.sampling import sample_sources

        g = load_graph(self.graph)
        if self.sources is None:
            return g, np.arange(g.num_vertices, dtype=np.int64)
        k = min(self.sources, g.num_vertices)
        return g, sample_sources(g, k, seed=self.seed)


def _engine(spec: RunSpec) -> Any:
    """``spec``'s engine entry point with every knob but the inputs bound."""
    if spec.algorithm == "mrbc":
        from repro.core.mrbc import mrbc_engine

        return partial(
            mrbc_engine,
            batch_size=spec.batch,
            num_hosts=spec.hosts,
            delayed_sync=spec.delayed_sync,
        )
    if spec.algorithm == "sbbc":
        from repro.baselines.sbbc import sbbc_engine

        return partial(sbbc_engine, num_hosts=spec.hosts)
    if spec.algorithm == "mrbc-congest":
        from repro.core.mrbc_congest import mrbc_congest_batched

        return partial(mrbc_congest_batched, batch_size=spec.batch)
    raise ValueError(
        f"unknown algorithm {spec.algorithm!r} (options: {', '.join(ALGORITHMS)})"
    )


def execute(
    spec: RunSpec,
    graph: "DiGraph",
    sources: np.ndarray,
    *,
    comm: "CommLedger | None" = None,
    rounds: "RoundLedger | None" = None,
) -> Any:
    """Run ``spec``'s engine on ``graph`` from ``sources``; return its result.

    That is an ``MRBCEngineResult``, an ``SBBCResult``, or a
    ``BatchedMRBCResult`` holding one CONGEST ``MRBCResult`` per batch.
    Passing a ledger runs the engine in a fresh :func:`repro.obs.session`
    carrying it; without one, the run records into the current session
    (a traced or profiled run).
    """
    engine = _engine(spec)
    if comm is None and rounds is None:
        return engine(graph, sources=sources)
    from repro import obs

    with obs.session(comm=comm, rounds=rounds):
        return engine(graph, sources=sources)
