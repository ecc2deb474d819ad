"""Standalone graph algorithms used as substrates across the library.

These complement the methods on :class:`repro.graph.Graph`: traversal
orders, shortest paths (needed by the FRT-style metric decomposition
trees), and minimum spanning trees (used by the contraction-based
decomposition builder and as a cheap connectivity certificate).
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import InvalidInputError
from repro.graph.graph import Graph

__all__ = [
    "bfs_order",
    "dijkstra",
    "all_pairs_dijkstra",
    "minimum_spanning_tree",
    "largest_component",
    "UnionFind",
]


class UnionFind:
    """Array-based disjoint-set forest with union by size + path halving."""

    __slots__ = ("parent", "size", "n_sets")

    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)
        self.size = np.ones(n, dtype=np.int64)
        self.n_sets = n

    def find(self, x: int) -> int:
        """Representative of ``x``'s set (with path halving)."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return int(x)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; return True if they differed."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.n_sets -= 1
        return True

    def same(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are currently in the same set."""
        return self.find(a) == self.find(b)


def bfs_order(g: Graph, source: int = 0) -> np.ndarray:
    """Vertices of ``source``'s component in breadth-first order."""
    if not (0 <= source < g.n):
        raise InvalidInputError(f"source {source} out of range")
    seen = np.zeros(g.n, dtype=bool)
    order: List[int] = [source]
    seen[source] = True
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for u in g.neighbors(v):
            if not seen[u]:
                seen[u] = True
                order.append(int(u))
    return np.asarray(order, dtype=np.int64)


def dijkstra(
    g: Graph, source: int, lengths: Optional[np.ndarray] = None
) -> np.ndarray:
    """Single-source shortest path distances.

    Parameters
    ----------
    g:
        Graph whose edge *weights* are communication volumes; by default
        we use ``1 / w`` as the metric length so heavily-communicating
        pairs are metrically *close* (this is the convention the FRT-style
        decomposition builder wants).  Pass explicit per-canonical-edge
        ``lengths`` to override.
    source:
        Source vertex.
    lengths:
        Optional length per canonical edge id (shape ``(m,)``).

    Returns
    -------
    numpy.ndarray
        Distance vector (``inf`` for unreachable vertices).
    """
    if not (0 <= source < g.n):
        raise InvalidInputError(f"source {source} out of range")
    if lengths is None:
        lengths = 1.0 / g.edges_w
    else:
        lengths = np.asarray(lengths, dtype=np.float64)
        if lengths.shape != (g.m,):
            raise InvalidInputError(
                f"lengths must have shape ({g.m},), got {lengths.shape}"
            )
        if lengths.size and lengths.min() < 0:
            raise InvalidInputError("edge lengths must be non-negative")
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
    """Dense all-pairs shortest-path matrix (O(n · m log n)); small graphs only.

    The default ``1 / w`` lengths run on :func:`scipy.sparse.csgraph.dijkstra`
    over the graph's own CSR adjacency (parallel edges are already merged
    and every length is positive, so no entry is summed or dropped).  Its
    distances equal the per-source heap :func:`dijkstra`'s bit for bit:
    both settle each vertex at the least float ``dist[u] + len(u, v)``
    over its neighbours.  Explicit ``lengths`` may hold zeros, which
    csgraph reads as missing edges, so they stay on the heap version.
    """
    if lengths is not None:
        return np.vstack([dijkstra(g, s, lengths) for s in range(g.n)])
    # Imported here: workloads that never build an FRT tree skip its RSS.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    adj = csr_matrix((1.0 / g.adj_weights, g.indices, g.indptr), shape=(g.n, g.n))
    return csgraph_dijkstra(adj, directed=True)


def minimum_spanning_tree(g: Graph, maximize: bool = False) -> np.ndarray:
    """Kruskal's algorithm; returns the ids of the chosen canonical edges.

    With ``maximize=True`` returns a *maximum* spanning forest instead —
    used by the contraction decomposition builder, which wants to contract
    the heaviest-communication edges first.
    """
    order = np.argsort(g.edges_w)
    if maximize:
        order = order[::-1]
    uf = UnionFind(g.n)
    chosen: List[int] = []
    for e in order:
        if uf.union(int(g.edges_u[e]), int(g.edges_v[e])):
            chosen.append(int(e))
            if uf.n_sets == 1:
                break
    return np.asarray(chosen, dtype=np.int64)


def largest_component(g: Graph) -> Tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest connected component.

    Returns the subgraph and the original ids of its vertices.
    """
    ncomp, labels = g.connected_components()
    if ncomp <= 1:
        return g, np.arange(g.n, dtype=np.int64)
    counts = np.bincount(labels, minlength=ncomp)
    big = int(np.argmax(counts))
    verts = np.nonzero(labels == big)[0]
    return g.subgraph(verts)
