"""Minimum cuts: s–t cuts (via Dinic) and the Stoer–Wagner global min cut.

The paper's cost rewrite (Eq. 3) is phrased in terms of minimum cuts
separating leaf sets; on general graphs these are flow problems.  The
decomposition-tree builders also use the global min cut as a splitting
criterion on small pieces.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.flow.maxflow import max_flow
from repro.obs.metrics import get_registry

__all__ = ["st_min_cut", "stoer_wagner", "isolating_cut_weight"]


def st_min_cut(g: Graph, s: int, t: int) -> Tuple[float, np.ndarray]:
    """Minimum ``s``–``t`` cut value and the ``s``-side boolean mask."""
    if not (0 <= s < g.n and 0 <= t < g.n) or s == t:
        raise InvalidInputError(f"bad terminal pair ({s}, {t})")
    return max_flow(g, s, t)


def isolating_cut_weight(g: Graph, vertices: np.ndarray) -> float:
    """Weight of the trivial cut isolating ``vertices`` (boundary weight).

    This is an upper bound on the minimum cut separating the set; on
    *trees* (where the library actually needs exact values, computed in
    :mod:`repro.hgpt.solution`) it matches the minimum cut of contiguous
    sets.
    """
    return g.cut_weight(np.asarray(vertices))


def stoer_wagner(g: Graph) -> Tuple[float, np.ndarray]:
    """Global minimum cut of a weighted graph.

    Classic Stoer–Wagner: repeat *minimum cut phases* on a shrinking
    contracted graph and keep the lightest cut-of-the-phase.  Each phase
    is a maximum-adjacency ordering over a dense weight matrix: a ``key``
    vector holds every remaining vertex's weight to the grown set ``A``
    (``-inf`` for vertices already in ``A`` or contracted away), and each
    step adds ``argmax(key)`` to ``A`` and its weight row to ``key``.  The
    last two vertices ``s``, ``t`` of the order are merged, ``t`` into
    ``s``.  O(n³) numpy work, fine for the ≲ 500-vertex pieces the
    decomposition builders hand it.

    Tie-break contract: a phase starts from the lowest-numbered active
    vertex, among equal keys the lowest-numbered vertex joins ``A``
    first (``argmax`` returns the first maximum), each cut-of-the-phase
    is summed left to right in ascending vertex order, and a later phase
    replaces the best cut only if strictly lighter.  Disconnected graphs
    return weight 0 and the first vertex's component.

    Returns
    -------
    (float, numpy.ndarray)
        Cut weight and a boolean mask of one side (in original ids).
    """
    if g.n < 2:
        raise InvalidInputError("global min cut needs n >= 2")
    if not g.is_connected():
        # Disconnected graphs have a zero cut along any component split.
        _, labels = g.connected_components()
        return 0.0, labels == labels[0]

    n = g.n
    # Dense symmetric weight matrix of the current contracted graph.
    w = np.zeros((n, n), dtype=np.float64)
    w[g.edges_u, g.edges_v] = g.edges_w
    w[g.edges_v, g.edges_u] = g.edges_w
    # groups[i] = original vertices merged into supervertex i.
    groups = [[i] for i in range(n)]
    alive = np.ones(n, dtype=bool)
    n_active = n

    best_weight = float("inf")
    best_group: list[int] = []

    while n_active > 1:
        # Maximum-adjacency ordering over the alive vertices; only the
        # last two (s, t) matter.
        a0 = int(np.argmax(alive))
        key = np.where(alive, w[a0], -np.inf)
        key[a0] = -np.inf
        s, t = a0, a0
        for _ in range(n_active - 1):
            nxt = int(key.argmax())
            key[nxt] = -np.inf
            key += w[nxt]
            s, t = t, nxt
        alive[t] = False
        # Cut of the phase: t against everything else, summed left to
        # right in ascending vertex order (a running sum; ``np.sum`` sums
        # pairwise and Python 3.12's ``sum`` compensates).
        cut_of_phase = float(np.cumsum(w[t, alive])[-1])
        if cut_of_phase < best_weight:
            best_weight = cut_of_phase
            best_group = list(groups[t])
        # Contract t into s.
        rest = np.flatnonzero(alive)
        rest = rest[rest != s]
        w[s, rest] += w[t, rest]
        w[rest, s] = w[s, rest]
        groups[s].extend(groups[t])
        n_active -= 1

    mask = np.zeros(n, dtype=bool)
    mask[best_group] = True
    get_registry().counter(
        "repro_flow_stoerwagner_cuts_total", "Stoer-Wagner global min cuts computed"
    ).inc()
    return best_weight, mask
