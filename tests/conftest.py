"""Shared fixtures: small graphs covering every shape the paper evaluates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.graph import generators as gen
from repro.graph.digraph import DiGraph
from repro.runtime.arrays import INF


# ``--hypothesis-profile=ci`` runs a property test at a larger budget
# (the CI step for the differential and neutrality property tests);
# without it, hypothesis's default budget applies.
settings.register_profile("ci", max_examples=1000, deadline=None)


def _build(edges: list[tuple[int, int]], n: int) -> DiGraph:
    arr = np.asarray(edges, dtype=np.int64)
    return DiGraph(n, arr[:, 0], arr[:, 1])


@pytest.fixture
def tiny_dag() -> DiGraph:
    """A 5-vertex DAG with two equal-length s→t paths (easy hand-check).

    Edges: 0→1, 0→2, 1→3, 2→3, 3→4.  From source 0 there are two shortest
    paths to 3 (via 1 and via 2), so BC(1) = BC(2) for sampled source 0.
    """
    return _build([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], 5)


@pytest.fixture
def diamond() -> DiGraph:
    """The classic diamond: 0→{1,2}→3."""
    return _build([(0, 1), (0, 2), (1, 3), (2, 3)], 4)


@pytest.fixture
def bipath() -> DiGraph:
    """Bidirectional path of 8 vertices (strongly connected, diameter 7)."""
    return gen.path_graph(8, bidirectional=True)


@pytest.fixture
def dicycle() -> DiGraph:
    """Directed 9-cycle (strongly connected, diameter 8)."""
    return gen.cycle_graph(9)


@pytest.fixture
def er_graph() -> DiGraph:
    """Random sparse digraph, 40 vertices."""
    return gen.erdos_renyi(40, 3.0, seed=11)


@pytest.fixture
def er_dense_sc() -> DiGraph:
    """Denser random digraph: strongly connected with 5·D < n (the regime
    where Algorithm 4's early termination applies)."""
    g = gen.erdos_renyi(60, 6.0, seed=7)
    from repro.graph.properties import directed_diameter, is_strongly_connected

    assert is_strongly_connected(g)
    assert 5 * directed_diameter(g) < g.num_vertices
    return g


@pytest.fixture
def powerlaw_graph() -> DiGraph:
    """Small RMAT power-law graph."""
    return gen.rmat(6, 4, seed=13)


@pytest.fixture
def road_graph() -> DiGraph:
    """Small grid/road graph (high diameter, bounded degree)."""
    return gen.grid_road(7, 7, seed=17)


@pytest.fixture
def webcrawl_graph() -> DiGraph:
    """Web-crawl-like graph: power-law core + long tails."""
    return gen.web_crawl_like(core_n=60, tail_total=40, avg_tail_len=10, seed=19)


@pytest.fixture
def disconnected_graph() -> DiGraph:
    """Two weakly-connected components."""
    return _build([(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)], 6)


def some_sources(g: DiGraph, k: int = 6) -> list[int]:
    """Deterministic spread-out source subset for a graph."""
    n = g.num_vertices
    step = max(1, n // k)
    return list(range(0, n, step))[:k]


def dense_schedule(M):
    """``MasterColumns``' maintained ``(head, unfired)``, recounted from
    the dense columns."""
    unfired = ((M.ent_d != INF) & ~M.fired).sum(axis=1)
    return M.schedule_key().min(axis=0), unfired


class MasterRig:
    """One MRBC batch's master columns, driven one step at a time.

    ``contribute`` delivers a single reduced candidate to a vertex's
    master and ``fire`` evaluates the send rule for one round — the two
    master-side steps of every forward round — without relaxations.
    Rounds must be fired in order: skipping a due round is a missed fire.

    The graph is a bidirectional path partitioned over 3 hosts (CVC), so
    at the default ``n = 8`` vertex 5 has proxies on hosts 1 and 2: a
    master stores a host's report on that host's proxy row, and only a
    host holding a proxy of the vertex can report it.
    """

    def __init__(self, batch: list[int], n: int = 8, hosts: int = 3) -> None:
        from repro.core.mrbc import _ArrayBatchExecutor
        from repro.engine.partition import partition_graph
        from repro.engine.stats import EngineRun
        from repro.runtime.plane import GluonArrayPlane

        pg = partition_graph(gen.path_graph(n, bidirectional=True), hosts, "cvc")
        self.ex = _ArrayBatchExecutor(
            pg,
            GluonArrayPlane(pg),
            EngineRun(num_hosts=hosts),
            np.asarray(batch, dtype=np.int64),
            delayed_sync=True,
        )
        self.rs = self.ex.run.new_round("forward")
        #: Whether unfired entries remained after the last ``fire``.
        self.pending = True

    def contribute(self, gid: int, si: int, host: int, d: int, sigma: float) -> None:
        from repro.runtime.arrays import Exchange

        parts: list[list] = [[] for _ in range(self.ex.H)]
        parts[int(self.ex.pg.master_of[gid])] = [(gid, host, si, d, sigma)]
        inbox = Exchange.from_parts(parts, (np.int64, np.int64, np.int64, np.float64))
        self.ex._apply_forward_inbox(inbox, self.rs)

    def fire(self, rnd: int) -> list[tuple]:
        """Round ``rnd``'s fires as ``(gid, si, d, sigma)`` tuples."""
        blocks, _count, self.pending = self.ex._emit_fires(rnd, self.rs)
        return [t for blk in blocks if blk is not None for t in blk.to_tuples()]

    def label(self, gid: int, si: int) -> tuple[int, float]:
        """The master's authoritative ``(d*, σ*)`` for cell ``(si, gid)``."""
        M = self.ex.masters
        return int(M.ent_d[si, gid]), float(M.best_sigma[si, gid])

    def entries(self, gid: int) -> list[tuple[int, int]]:
        """The master's sorted ``(d, si)`` list, read off its column."""
        col = self.ex.masters.ent_d[:, gid]
        return sorted((int(col[si]), si) for si in np.nonzero(col != INF)[0].tolist())

    def taus(self, gid: int) -> dict[int, int]:
        """``{si: τ}`` over the master's fired cells."""
        M = self.ex.masters
        return {si: int(M.tau[si, gid]) for si in np.nonzero(M.fired[:, gid])[0].tolist()}
