"""Multilevel balanced graph partitioning (METIS-style, from scratch).

The three classic phases:

1. **Coarsen** — iterated randomized heavy-edge matching contracts the
   graph to a few hundred vertices while summing vertex weights
   (:func:`repro.multilevel.coarsen_graph`, the one coarsener shared
   with the HGP multilevel front-end);
2. **Initial partition** — spectral bisection (plus a random restart) on
   the coarsest graph;
3. **Uncoarsen + refine** — project the partition up the hierarchy,
   running FM refinement at every level.

``partition_kway`` obtains k parts by *recursive bisection* with
proportional weight targets — Simon & Teng's classic scheme (paper
reference [25]) and what SCOTCH/METIS default to for moderate k.

This module is both (a) the paper's k-BGP comparison point (HGP with
``h = 1``) and (b) the engine of the flat and dual-recursive-bipartition
baselines in :mod:`repro.baselines.flat` /
:mod:`repro.baselines.recursive_bisection`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.graph.spectral import fiedler_vector, sweep_cut
from repro.baselines.fm import fm_refine
from repro.baselines.kl import kl_refine
from repro.multilevel.coarsen import coarsen_graph
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["bisect", "partition_kway"]


def bisect(
    g: Graph,
    vertex_weights: Optional[np.ndarray] = None,
    target_fraction: float = 0.5,
    tol: float = 0.05,
    coarsen_to: int = 120,
    seed: SeedLike = None,
    kl_polish_max_n: Optional[int] = 600,
) -> np.ndarray:
    """Multilevel weighted bisection.

    Parameters
    ----------
    g:
        Graph to split.
    vertex_weights:
        Balance weights (defaults to unit).
    target_fraction:
        Desired weight fraction on the ``True`` side.
    tol:
        Allowed deviation from the target fraction.
    coarsen_to:
        Coarsening stops at this many supervertices.
    seed:
        RNG seed.
    kl_polish_max_n:
        Largest ``g.n`` that still gets the final O(n²) KL polish on an
        exactly-balanceable split (``None`` disables it).  Multilevel
        callers lower or disable this on large levels.

    Returns
    -------
    numpy.ndarray
        Boolean side mask.
    """
    if not (0 < target_fraction < 1):
        raise InvalidInputError(
            f"target_fraction must be in (0, 1), got {target_fraction}"
        )
    rng = ensure_rng(seed)
    w = (
        np.ones(g.n)
        if vertex_weights is None
        else np.asarray(vertex_weights, dtype=np.float64)
    )
    if g.n == 1:
        return np.zeros(1, dtype=bool)
    # Supervertex weight is capped METIS-style at 1.5 × total / coarsen_to
    # so no cluster can swallow the graph (hub-heavy inputs would leave
    # one unsplittable mega-vertex and break the balance).
    levels = coarsen_graph(
        g, w, target_n=coarsen_to, max_weight=1.5 * w.sum() / coarsen_to, rng=rng
    )
    graphs, weights, maps = levels.graphs, levels.demands, levels.maps

    # Initial partition on the coarsest graph: spectral sweep + random
    # greedy restart, keep the better.
    coarsest, cw = graphs[-1], weights[-1]
    side = _initial_bisection(coarsest, cw, target_fraction, tol, rng)

    # Uncoarsen with refinement at every level.
    for level in range(len(maps) - 1, -1, -1):
        fine_side = side[maps[level]]
        side = fm_refine(
            graphs[level],
            fine_side,
            vertex_weights=weights[level],
            target_fraction=target_fraction,
            tol=tol,
        )
    # A final KL polish when sides are exactly balanceable.
    if (
        kl_polish_max_n is not None
        and abs(target_fraction - 0.5) < 1e-12
        and g.n <= kl_polish_max_n
    ):
        side = kl_refine(g, side, max_passes=2)
        side = fm_refine(
            g, side, vertex_weights=w, target_fraction=target_fraction, tol=tol
        )
    return side


def _initial_bisection(
    g: Graph,
    w: np.ndarray,
    target_fraction: float,
    tol: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Spectral + random-greedy initial split on the coarsest graph."""
    candidates: List[np.ndarray] = []
    if g.m > 0 and g.n >= 2:
        try:
            fv = fiedler_vector(g, seed=rng)
            mask, _ = sweep_cut(g, fv, balance_fraction=0.0, weights=w)
            mask = _rebalance(mask, w, target_fraction, fv)
            candidates.append(mask)
        except Exception:  # pragma: no cover - spectral failure fallback
            pass
    # Random greedy: fill side A with a random prefix by weight.
    order = rng.permutation(g.n)
    target_w = target_fraction * float(w.sum())
    mask = np.zeros(g.n, dtype=bool)
    acc = 0.0
    for v in order:
        if acc >= target_w:
            break
        mask[v] = True
        acc += float(w[v])
    candidates.append(mask)
    refined = [
        fm_refine(g, c, vertex_weights=w, target_fraction=target_fraction, tol=tol)
        for c in candidates
    ]
    cuts = [g.cut_weight(c) for c in refined]
    return refined[int(np.argmin(cuts))]


def _rebalance(
    mask: np.ndarray, w: np.ndarray, target_fraction: float, embedding: np.ndarray
) -> np.ndarray:
    """Shift the sweep threshold until side A's weight matches the target."""
    order = np.argsort(embedding, kind="stable")
    cum = np.cumsum(w[order])
    total = float(w.sum())
    k = int(np.argmin(np.abs(cum - target_fraction * total)))
    out = np.zeros(mask.size, dtype=bool)
    out[order[: k + 1]] = True
    return out


def partition_kway(
    g: Graph,
    k: int,
    vertex_weights: Optional[np.ndarray] = None,
    tol: float = 0.05,
    seed: SeedLike = None,
    kl_polish_max_n: Optional[int] = 600,
) -> np.ndarray:
    """Balanced k-way partition by recursive multilevel bisection.

    Returns an integer label vector in ``[0, k)``; part weights are
    proportional (each ≈ ``1/k`` of the total within ``tol``-per-split
    drift).  ``kl_polish_max_n`` is forwarded to every :func:`bisect`.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    rng = ensure_rng(seed)
    w = (
        np.ones(g.n)
        if vertex_weights is None
        else np.asarray(vertex_weights, dtype=np.float64)
    )
    labels = np.zeros(g.n, dtype=np.int64)

    def rec(vertices: np.ndarray, parts: int, first_label: int) -> None:
        if parts == 1 or vertices.size <= 1:
            labels[vertices] = first_label
            return
        k1 = parts // 2
        k2 = parts - k1
        sub, back = g.subgraph(vertices)
        frac = k1 / parts
        mask = bisect(
            sub,
            vertex_weights=w[vertices],
            target_fraction=frac,
            tol=min(tol, 0.5 / parts),
            seed=rng,
            kl_polish_max_n=kl_polish_max_n,
        )
        rec(back[np.nonzero(mask)[0]], k1, first_label)
        rec(back[np.nonzero(~mask)[0]], k2, first_label + k1)

    rec(np.arange(g.n, dtype=np.int64), k, 0)
    return labels
