"""Edge-list and binary IO for :class:`~repro.graph.digraph.DiGraph`.

Two formats:

- **Text edge list** — one ``u v`` pair per line, ``#`` comments, an
  optional ``# nodes: N`` header (written by :func:`write_edge_list`).
  Interoperates with the SNAP-style files the paper's inputs ship as.
- **NPZ binary** — compact NumPy archive for fast round-trips of generated
  suite graphs between benchmark runs.
"""

from __future__ import annotations

import os

import numpy as np

from repro.graph.digraph import DiGraph
from repro.graph.generators import from_spec


def write_edge_list(g: DiGraph, path: str | os.PathLike) -> None:
    """Write ``g`` as a text edge list with a ``# nodes:`` header."""
    src, dst = g.edges()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# nodes: {g.num_vertices}\n")
        fh.write(f"# edges: {g.num_edges}\n")
        for u, v in zip(src.tolist(), dst.tolist()):
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str | os.PathLike, num_vertices: int | None = None) -> DiGraph:
    """Read a text edge list.

    ``num_vertices`` overrides the ``# nodes:`` header; if neither is
    available, the vertex count is inferred as ``max endpoint + 1``.
    """
    header_n: int | None = None
    us: list[int] = []
    vs: list[int] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("nodes:"):
                    header_n = int(body.split(":", 1)[1])
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            us.append(int(parts[0]))
            vs.append(int(parts[1]))
    src = np.asarray(us, dtype=np.int64)
    dst = np.asarray(vs, dtype=np.int64)
    n = num_vertices if num_vertices is not None else header_n
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1) if src.size else 0
    return DiGraph(n, src, dst)


def load_graph(spec: str) -> DiGraph:
    """A graph argument: an edge-list path if it exists, else a generator spec.

    Specs are :func:`~repro.graph.generators.from_spec`'s (``rmat:8:8``,
    ``er:60:3``, ...); an unknown kind raises :class:`ValueError`.
    """
    if os.path.exists(spec):
        return read_edge_list(spec)
    return from_spec(spec)


def save_npz(g: DiGraph, path: str | os.PathLike) -> None:
    """Save ``g`` as a compressed ``.npz`` archive."""
    src, dst = g.edges()
    np.savez_compressed(
        path, num_vertices=np.int64(g.num_vertices), src=src, dst=dst
    )


def load_npz(path: str | os.PathLike) -> DiGraph:
    """Load a graph written by :func:`save_npz`."""
    with np.load(path) as data:
        return DiGraph(int(data["num_vertices"]), data["src"], data["dst"])


def write_weighted_edge_list(wg, path: str | os.PathLike) -> None:
    """Write a :class:`~repro.graph.weighted.WeightedDiGraph` as
    ``u v w`` lines with a ``# nodes:`` header."""
    src, dst = wg.graph.edges()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# nodes: {wg.num_vertices}\n")
        fh.write(f"# edges: {wg.num_edges}\n")
        for u, v, w in zip(src.tolist(), dst.tolist(), wg.weights.tolist()):
            fh.write(f"{u} {v} {w:.17g}\n")


def read_weighted_edge_list(
    path: str | os.PathLike, num_vertices: int | None = None
):
    """Read a ``u v w`` edge list into a ``WeightedDiGraph``.

    Lines with only two columns default to weight 1, so plain edge lists
    load as unit-weighted graphs.
    """
    from repro.graph.weighted import from_weighted_edges

    header_n: int | None = None
    triples: list[tuple[int, int, float]] = []
    max_id = -1
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.lower().startswith("nodes:"):
                    header_n = int(body.split(":", 1)[1])
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) >= 3 else 1.0
            triples.append((u, v, w))
            max_id = max(max_id, u, v)
    n = num_vertices if num_vertices is not None else header_n
    if n is None:
        n = max_id + 1
    return from_weighted_edges(n, triples)
