"""Graph partitioning policies and per-host proxy structures.

Gluon-style partitioning (paper §4.1): the *edges* of the graph are
distributed among hosts; each host creates proxies for the endpoints of its
edges; every vertex additionally has a master proxy on the host that owns
it.  Policies provided:

- :func:`edge_cut_outgoing` — edge ``(u, v)`` lives with ``u``'s master
  (all out-edges of a vertex on one host).
- :func:`edge_cut_incoming` — edge lives with ``v``'s master.
- :func:`cartesian_vertex_cut` — the 2-D policy the paper's evaluation
  uses (§5.2, "Cartesian vertex-cut ... performs well at scale"): hosts
  form a ``pr × pc`` grid and edge ``(u, v)`` goes to host
  ``(row(owner(u)), col(owner(v)))``, so a vertex's out-edge proxies span
  one grid row and its in-edge proxies one grid column.
- :func:`random_edge_cut` — random master assignment (baseline policy).

Masters are assigned in contiguous vertex blocks balanced by degree weight
(except the random policy), matching how distributed graph loaders chunk
CSR files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.digraph import DiGraph


@dataclass
class HostPartition:
    """One host's share of the graph.

    Local vertex ids ("lids") index the ``gids`` array; ``gids`` is sorted,
    so gid→lid translation is a ``searchsorted``.  The local CSR/CSC cover
    exactly the edges assigned to this host.
    """

    host: int
    gids: np.ndarray
    is_master: np.ndarray
    out_offsets: np.ndarray
    out_targets: np.ndarray
    in_offsets: np.ndarray
    in_sources: np.ndarray

    @property
    def num_local(self) -> int:
        """Number of proxies on this host."""
        return int(self.gids.size)

    @property
    def num_edges(self) -> int:
        """Number of edges assigned to this host."""
        return int(self.out_targets.size)

    def lids_of(self, gids: np.ndarray) -> np.ndarray:
        """Translate global ids to local ids (must all have proxies here)."""
        lids = np.searchsorted(self.gids, gids)
        if np.any(lids >= self.gids.size) or np.any(self.gids[lids] != gids):
            raise KeyError("some vertices have no proxy on this host")
        return lids

    def out_neighbors_local(self, lid: int) -> np.ndarray:
        """Local out-neighbor lids of a proxy."""
        return self.out_targets[self.out_offsets[lid] : self.out_offsets[lid + 1]]

    def in_neighbors_local(self, lid: int) -> np.ndarray:
        """Local in-neighbor lids of a proxy."""
        return self.in_sources[self.in_offsets[lid] : self.in_offsets[lid + 1]]


def _csr_from_groups(keys: np.ndarray, values: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Group ``values`` by ``keys`` (0..n_keys-1) into CSR offsets/data."""
    order = np.argsort(keys, kind="stable")
    offsets = np.zeros(n_keys + 1, dtype=np.int64)
    np.add.at(offsets, keys + 1, 1)
    np.cumsum(offsets, out=offsets)
    return offsets, values[order]


class PartitionedGraph:
    """The graph distributed across ``num_hosts`` hosts.

    Besides the per-host :class:`HostPartition` structures, precomputes the
    global proxy topology Gluon needs for targeted broadcasts:

    - ``master_of[v]`` — the host owning vertex ``v``;
    - hosts holding *any* proxy of ``v`` (for all-mirror broadcast);
    - hosts holding out-edges of ``v`` (forward-phase broadcast targets);
    - hosts holding in-edges of ``v`` (accumulation-phase targets);
    - per host pair, the number of shared proxies (Gluon's bitmap metadata
      is sized by this).
    """

    def __init__(
        self,
        graph: DiGraph,
        master_of: np.ndarray,
        edge_host: np.ndarray,
        num_hosts: int,
        policy: str,
    ) -> None:
        n = graph.num_vertices
        src, dst = graph.edges()
        if master_of.shape != (n,):
            raise ValueError("master_of must have one entry per vertex")
        if edge_host.shape != src.shape:
            raise ValueError("edge_host must have one entry per edge")
        if num_hosts < 1:
            raise ValueError("need at least one host")
        for arr, what in ((master_of, "master"), (edge_host, "edge")):
            if arr.size and (arr.min() < 0 or arr.max() >= num_hosts):
                raise ValueError(f"{what} assignment out of host range")

        self.graph = graph
        self.num_hosts = int(num_hosts)
        self.master_of = master_of.astype(np.int64)
        self.policy = policy

        # -- per-host structures -------------------------------------------
        self.parts: list[HostPartition] = []
        # vertex -> hosts with out-edges / in-edges / any proxy (as CSR).
        out_pairs: list[np.ndarray] = []  # (vertex, host) pairs, encoded
        in_pairs: list[np.ndarray] = []
        proxy_pairs: list[np.ndarray] = []
        for h in range(num_hosts):
            sel = edge_host == h
            es, ed = src[sel], dst[sel]
            local_masters = np.nonzero(self.master_of == h)[0]
            gids = np.unique(np.concatenate([es, ed, local_masters]))
            lsrc = np.searchsorted(gids, es)
            ldst = np.searchsorted(gids, ed)
            L = gids.size
            out_off, out_tgt = _csr_from_groups(lsrc, ldst, L)
            in_off, in_src = _csr_from_groups(ldst, lsrc, L)
            self.parts.append(
                HostPartition(
                    host=h,
                    gids=gids,
                    is_master=self.master_of[gids] == h,
                    out_offsets=out_off,
                    out_targets=out_tgt,
                    in_offsets=in_off,
                    in_sources=in_src,
                )
            )
            out_pairs.append(np.unique(es) * num_hosts + h)
            in_pairs.append(np.unique(ed) * num_hosts + h)
            proxy_pairs.append(gids * num_hosts + h)

        self._out_hosts_off, self._out_hosts = self._vertex_host_csr(
            out_pairs, n, num_hosts
        )
        self._in_hosts_off, self._in_hosts = self._vertex_host_csr(
            in_pairs, n, num_hosts
        )
        self._proxy_hosts_off, self._proxy_hosts = self._vertex_host_csr(
            proxy_pairs, n, num_hosts
        )

        # Shared-proxy counts per host pair (for metadata bitmap sizing):
        # shared[a, b] = number of vertices with proxies on both a and b,
        # i.e. MᵀM over the n × H proxy-membership matrix M.  One float64
        # product runs on BLAS and is exact, as every count is at most
        # n < 2**53; an int64 product has no BLAS path and is ~80x slower
        # at 64 hosts.
        member = np.zeros((n, num_hosts), dtype=np.float64)
        member[
            np.repeat(np.arange(n), np.diff(self._proxy_hosts_off)),
            self._proxy_hosts,
        ] = 1.0
        shared = (member.T @ member).astype(np.int64)
        np.fill_diagonal(shared, 0)
        self.shared_proxies = shared

    @staticmethod
    def _vertex_host_csr(
        encoded_parts: list[np.ndarray], n: int, num_hosts: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Decode ``v * num_hosts + h`` pairs into a vertex→hosts CSR."""
        if encoded_parts:
            enc = np.sort(np.concatenate(encoded_parts))
        else:
            enc = np.empty(0, dtype=np.int64)
        verts = enc // num_hosts
        hosts = enc % num_hosts
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(offsets, verts + 1, 1)
        np.cumsum(offsets, out=offsets)
        return offsets, hosts

    # -- topology queries ----------------------------------------------------

    def hosts_with_out_edges(self, v: int) -> np.ndarray:
        """Hosts owning at least one out-edge of ``v``."""
        return self._out_hosts[self._out_hosts_off[v] : self._out_hosts_off[v + 1]]

    def hosts_with_in_edges(self, v: int) -> np.ndarray:
        """Hosts owning at least one in-edge of ``v``."""
        return self._in_hosts[self._in_hosts_off[v] : self._in_hosts_off[v + 1]]

    def hosts_with_proxy(self, v: int) -> np.ndarray:
        """Every host holding a proxy of ``v`` (including the master)."""
        return self._proxy_hosts[
            self._proxy_hosts_off[v] : self._proxy_hosts_off[v + 1]
        ]

    def vertex_host_csr(self, targets: str) -> tuple[np.ndarray, np.ndarray]:
        """The full ``(offsets, hosts)`` CSR behind a broadcast selector.

        ``targets`` is one of ``"out_edges"``, ``"in_edges"`` or
        ``"proxies"`` (the Gluon broadcast target names).  The array
        plane gathers destination hosts for whole columns from this CSR
        instead of calling the per-vertex queries above in a loop.
        """
        if targets == "out_edges":
            return self._out_hosts_off, self._out_hosts
        if targets == "in_edges":
            return self._in_hosts_off, self._in_hosts
        if targets == "proxies":
            return self._proxy_hosts_off, self._proxy_hosts
        raise ValueError(f"unknown broadcast target {targets!r}")


def _balanced_blocks(weights: np.ndarray, num_hosts: int) -> np.ndarray:
    """Assign vertices to hosts in contiguous blocks of ~equal total weight."""
    n = weights.size
    cum = np.cumsum(weights, dtype=np.float64)
    total = cum[-1] if n else 0.0
    if total == 0:
        return (np.arange(n) * num_hosts // max(1, n)).astype(np.int64)
    targets = total * (np.arange(1, num_hosts) / num_hosts)
    cuts = np.searchsorted(cum, targets, side="left")
    assign = np.zeros(n, dtype=np.int64)
    for h, c in enumerate(cuts):
        assign[c:] = h + 1
    return assign


def _contiguous_masters(graph: DiGraph, num_hosts: int) -> np.ndarray:
    return _balanced_blocks(graph.out_degrees() + graph.in_degrees() + 1, num_hosts)


def edge_cut_outgoing(graph: DiGraph, num_hosts: int) -> PartitionedGraph:
    """Outgoing edge-cut: edge ``(u, v)`` lives on ``u``'s master host."""
    master_of = _contiguous_masters(graph, num_hosts)
    src, _ = graph.edges()
    return PartitionedGraph(graph, master_of, master_of[src], num_hosts, "oec")


def edge_cut_incoming(graph: DiGraph, num_hosts: int) -> PartitionedGraph:
    """Incoming edge-cut: edge ``(u, v)`` lives on ``v``'s master host."""
    master_of = _contiguous_masters(graph, num_hosts)
    _, dst = graph.edges()
    return PartitionedGraph(graph, master_of, master_of[dst], num_hosts, "iec")


def _grid_shape(num_hosts: int) -> tuple[int, int]:
    """Most-square ``pr × pc`` factorization of ``num_hosts``."""
    pr = int(np.floor(np.sqrt(num_hosts)))
    while num_hosts % pr != 0:
        pr -= 1
    return pr, num_hosts // pr


def cartesian_vertex_cut(graph: DiGraph, num_hosts: int) -> PartitionedGraph:
    """Cartesian vertex-cut over a ``pr × pc`` host grid (paper §5.2)."""
    master_of = _contiguous_masters(graph, num_hosts)
    pr, pc = _grid_shape(num_hosts)
    src, dst = graph.edges()
    row = master_of[src] // pc
    col = master_of[dst] % pc
    edge_host = row * pc + col
    return PartitionedGraph(graph, master_of, edge_host, num_hosts, "cvc")


def random_edge_cut(
    graph: DiGraph, num_hosts: int, seed: int | None = None
) -> PartitionedGraph:
    """Random master assignment with outgoing edge placement."""
    from repro.utils.prng import make_rng

    rng = make_rng(seed)
    master_of = rng.integers(0, num_hosts, size=graph.num_vertices, dtype=np.int64)
    src, _ = graph.edges()
    return PartitionedGraph(graph, master_of, master_of[src], num_hosts, "random")


_POLICIES = {
    "oec": edge_cut_outgoing,
    "iec": edge_cut_incoming,
    "cvc": cartesian_vertex_cut,
    "random": random_edge_cut,
}


def partition_graph(
    graph: DiGraph, num_hosts: int, policy: str = "cvc", **kwargs: object
) -> PartitionedGraph:
    """Partition ``graph`` with a named policy (default: the paper's CVC)."""
    if policy not in _POLICIES:
        raise ValueError(f"unknown policy {policy!r}; options: {sorted(_POLICIES)}")
    if num_hosts < 1:
        raise ValueError(f"need at least one host, got {num_hosts}")
    return _POLICIES[policy](graph, num_hosts, **kwargs)  # type: ignore[operator]
