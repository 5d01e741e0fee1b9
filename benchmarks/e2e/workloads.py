"""The benchmark's workloads (reasons for each are in README.md).

Kept free of imports from the program so ``run.py`` can list workloads
without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Every workload runs on one pinned instance of its graph; ``--seed``
#: draws the sources.  Graphs drawn per seed made the spread across seeds
#: exceed any usable bound (see README.md, "Why the graph is pinned").
GRAPH_SEED = 2019


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str  # key of harness.ENGINES
    graph: str  # repro.graph.generators.from_spec spec
    hosts: int = 8
    sources: int = 64
    #: Sources per MRBC batch; None for engines without batches.
    batch: int | None = 32


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("mrbc-rmat-scale", "mrbc", "rmat:14:8"),
        Workload("mrbc-road-deep", "mrbc", "grid:64:64"),
        Workload("mrbc-web-longtail", "mrbc", "webcrawl:4096:4096"),
        Workload("sbbc-rmat", "sbbc", "rmat:14:8", batch=None),
    )
}
