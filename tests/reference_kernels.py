"""Reference implementations of the embed-stage kernels, kept as oracles.

These are the straightforward versions of three exact-arithmetic hot
spots, kept verbatim so the tests can assert that the optimized library
versions return *bit-identical* results (same operations, same order):

* :func:`stoer_wagner` — dict-based maximum-adjacency search;
* :func:`solve_fiedler` — the deflated power iteration written with
  ``np.linalg.norm`` and ``@``;
* :func:`all_pairs_dijkstra` — one binary-heap Dijkstra per source.

Also the random-graph helpers the oracle tests share.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.graph.spectral import laplacian, normalized_laplacian


def stoer_wagner(g: Graph) -> Tuple[float, np.ndarray]:
    """Global min cut: Stoer–Wagner with a dict maximum-adjacency order."""
    if not g.is_connected():
        _, labels = g.connected_components()
        return 0.0, labels == labels[0]

    n = g.n
    w = np.zeros((n, n), dtype=np.float64)
    w[g.edges_u, g.edges_v] = g.edges_w
    w[g.edges_v, g.edges_u] = g.edges_w
    groups = [[i] for i in range(n)]
    active = list(range(n))

    best_weight = float("inf")
    best_group: list[int] = []

    while len(active) > 1:
        a0 = active[0]
        in_a = {a0}
        weights_to_a = {v: w[a0, v] for v in active if v != a0}
        order = [a0]
        while len(in_a) < len(active):
            nxt = max(weights_to_a, key=lambda v: weights_to_a[v])
            order.append(nxt)
            in_a.add(nxt)
            del weights_to_a[nxt]
            for v in weights_to_a:
                weights_to_a[v] += w[nxt, v]
        s, t = order[-2], order[-1]
        cut_of_phase = float(sum(w[t, v] for v in active if v != t))
        if cut_of_phase < best_weight:
            best_weight = cut_of_phase
            best_group = list(groups[t])
        for v in active:
            if v not in (s, t):
                w[s, v] += w[t, v]
                w[v, s] = w[s, v]
        groups[s].extend(groups[t])
        active.remove(t)

    mask = np.zeros(n, dtype=bool)
    mask[best_group] = True
    return best_weight, mask


def solve_fiedler(
    g: Graph, normalized: bool, tol: float, max_iter: int, start: np.ndarray
) -> np.ndarray:
    """Deflated power iteration on ``cI − L`` with an ``eigsh`` fallback."""
    lap = normalized_laplacian(g) if normalized else laplacian(g)
    n = g.n
    if normalized:
        deg = g.weighted_degrees.copy()
        deg[deg <= 0] = 1.0
        kernel = np.sqrt(deg)
    else:
        kernel = np.ones(n)
    kernel /= np.linalg.norm(kernel)

    shift = 2.0 if normalized else 2.0 * float(g.weighted_degrees.max() or 1.0)
    x = start.copy()
    x -= kernel * (kernel @ x)
    nrm = np.linalg.norm(x)
    if nrm == 0:
        x = np.ones(n)
        x[0] = -1.0
        nrm = np.linalg.norm(x)
    x /= nrm
    for _ in range(max_iter):
        y = shift * x - lap @ x
        y -= kernel * (kernel @ y)
        nrm = np.linalg.norm(y)
        if nrm < 1e-14:
            break
        y /= nrm
        if np.linalg.norm(y - x) < tol or np.linalg.norm(y + x) < tol:
            return y
        x = y
    from scipy.sparse.linalg import eigsh

    k = min(2, n - 1)
    _, vecs = eigsh(lap, k=k, sigma=-1e-3, which="LM", v0=x)
    return vecs[:, -1]


def dijkstra(g: Graph, source: int, lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """Single-source heap Dijkstra; default lengths are ``1 / w``."""
    if lengths is None:
        lengths = 1.0 / g.edges_w
    else:
        lengths = np.asarray(lengths, dtype=np.float64)
    dist = np.full(g.n, np.inf)
    dist[source] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, source)]
    indptr, indices, eids = g.indptr, g.indices, g.adj_edge_ids
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for k in range(indptr[v], indptr[v + 1]):
            u = int(indices[k])
            nd = d + lengths[eids[k]]
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def all_pairs_dijkstra(g: Graph, lengths: Optional[np.ndarray] = None) -> np.ndarray:
    """Dense all-pairs distances, one heap Dijkstra per source."""
    return np.vstack([dijkstra(g, s, lengths) for s in range(g.n)])


# ----------------------------------------------------------------------
# random inputs
# ----------------------------------------------------------------------


def random_graph(rng: np.random.Generator, n: int, p: float, integer: bool) -> Graph:
    """G(n, p) with weights in ``1..4`` (tie-heavy) or ``U(0.1, 5)``."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = float(rng.integers(1, 5)) if integer else float(rng.uniform(0.1, 5.0))
                edges.append((u, v, w))
    return Graph(n, edges)


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def clique(n: int) -> Graph:
    return Graph(n, [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)])


def star(n: int) -> Graph:
    return Graph(n, [(0, i, 1.0) for i in range(1, n)])
