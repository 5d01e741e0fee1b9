"""Source sampling for approximate BC (paper §3.5 k-SSP and §5.1).

The BC of a vertex can be approximated by summing its betweenness scores
over a random subset of sources (Bader et al. 2007).  The paper's
experiments sample "a random *contiguous* chunk of sources" because the
MFBC baseline only accepts contiguous source ranges; both modes are
provided here so the benchmarks can match the paper's setup exactly while
tests can use the statistically nicer uniform mode.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.utils.prng import make_rng


def sample_sources(
    g: DiGraph,
    k: int,
    mode: str = "contiguous",
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Sample ``k`` distinct source vertices.

    Parameters
    ----------
    mode:
        ``"contiguous"`` — a uniformly random chunk ``[start, start+k)``
        (the paper's choice, §5.1); ``"uniform"`` — a uniform random
        subset without replacement; ``"first"`` — deterministic ``0..k-1``.
    """
    n = g.num_vertices
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = make_rng(seed)
    if mode == "contiguous":
        start = int(rng.integers(0, n - k + 1))
        return np.arange(start, start + k, dtype=np.int64)
    if mode == "uniform":
        return np.sort(rng.choice(n, size=k, replace=False).astype(np.int64))
    if mode == "first":
        return np.arange(k, dtype=np.int64)
    raise ValueError(f"unknown sampling mode {mode!r}")


def resolve_sources(
    sources: np.ndarray | list[int] | None, n: int
) -> np.ndarray:
    """Explicit ``sources`` (``None``: every vertex) as a flat int64 array.

    Raises :class:`ValueError` on a graph with no vertices, on an empty
    selection, on non-integer ids (floats, booleans), on ids outside
    ``[0, n)`` and on repeated ids, naming the values: a cast would
    truncate ``1.7`` to vertex 1, a boolean mask would run vertices 0
    and 1, a negative id would index the per-vertex arrays from the end
    — each silently running another vertex — and a repeated source
    would be counted twice in BC.
    """
    if n == 0:
        raise ValueError("graph has no vertices")
    if sources is None:
        src = np.arange(n, dtype=np.int64)
    else:
        src = np.asarray(sources).ravel()
    if src.size == 0:
        raise ValueError("need at least one source")
    if src.dtype.kind not in "iu":
        raise ValueError(
            f"source ids must be integers, got {src.dtype}: {src.tolist()}"
        )
    src = src.astype(np.int64, copy=False)
    bad = np.unique(src[(src < 0) | (src >= n)])
    if bad.size:
        raise ValueError(f"source ids out of range [0, {n}): {bad.tolist()}")
    ids, counts = np.unique(src, return_counts=True)
    if (counts > 1).any():
        raise ValueError(
            f"source set contains duplicates: {ids[counts > 1].tolist()}"
        )
    return src
