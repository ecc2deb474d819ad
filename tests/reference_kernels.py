"""Reference implementations of hot kernels, kept as oracles.

These are the straightforward versions of six exact-arithmetic hot
spots, kept verbatim so the tests can assert that the optimized library
versions return *bit-identical* results (same operations, same order):

* :func:`stoer_wagner` — dict-based maximum-adjacency search;
* :func:`solve_fiedler` — the deflated power iteration written with
  ``np.linalg.norm`` and ``@``;
* :func:`all_pairs_dijkstra` — one binary-heap Dijkstra per source;
* :func:`heavy_edge_match` — matching proposals from one ``lexsort`` of
  the CSR entries (owner, heaviest weight, lowest neighbour priority);
* :func:`fm_refine_hierarchy` — hierarchy FM whose connection tables
  come from one ``np.unique(..., return_inverse=True)`` per level and
  pass (:func:`connection_tables`), plus a final Eq. (1) evaluation;
  apart from that helper, the pass is verbatim;
* :func:`lca_level` — the bottom-up ``np.where`` scan for the deepest
  level at which two leaves' ancestors coincide.

Also the random-graph helpers the oracle tests share.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.fm import HierarchyRefineStats, eq1_cost
from repro.errors import InvalidInputError
from repro.graph.graph import Graph
from repro.graph.spectral import laplacian, normalized_laplacian
from repro.hierarchy.hierarchy import Hierarchy


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
# hierarchy LCA
# ----------------------------------------------------------------------


def lca_level(hierarchy: Hierarchy, a, b):
    """LCA level of two leaves by a bottom-up scan (scalars give ``int``)."""
    a_arr = np.asarray(a, dtype=np.int64)
    b_arr = np.asarray(b, dtype=np.int64)
    out = np.zeros(np.broadcast(a_arr, b_arr).shape, dtype=np.int64)
    for level in range(hierarchy.h, 0, -1):
        width = hierarchy._suffix_prod[level]
        same = (a_arr // width) == (b_arr // width)
        out = np.where(same & (out == 0), level, out)
    return out if out.ndim else int(out)


# ----------------------------------------------------------------------
# multilevel inner loops
# ----------------------------------------------------------------------


def heavy_edge_match(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    tie: np.ndarray,
    fits: np.ndarray,
    rounds: int,
) -> np.ndarray:
    """Proposal rounds over CSR adjacency.

    ``tie`` is the per-vertex random priority, ``fits`` the per-CSR-entry
    eligibility mask (weight caps).  Returns ``match[v]`` = partner or
    ``-1``.
    """
    n = indptr.shape[0] - 1
    match = np.full(n, -1, dtype=np.int64)
    deg = np.diff(indptr)
    owner = np.repeat(np.arange(n, dtype=np.int64), deg)
    # Static per-call entry order: within each vertex's CSR segment,
    # heaviest edge first, then lowest random priority of the neighbour.
    order = np.lexsort((tie[indices], -weights, owner))
    nbr = indices[order]
    fits = fits[order]
    n_entries = nbr.size
    entry_pos = np.arange(n_entries, dtype=np.int64)
    seg_start = indptr[:-1]
    nonempty = deg > 0
    ids = np.arange(n, dtype=np.int64)
    for _ in range(rounds):
        free = match < 0
        if not free.any():
            break
        elig = fits & free[nbr]
        # First eligible entry per CSR segment (min position, reduceat
        # over the non-empty segments only; an empty reduce is invalid).
        pos = np.where(elig, entry_pos, n_entries)
        first = np.full(n, n_entries, dtype=np.int64)
        if nonempty.any():
            first[nonempty] = np.minimum.reduceat(pos, seg_start[nonempty])
        proposal = np.full(n, -1, dtype=np.int64)
        has = free & (first < n_entries)
        proposal[has] = nbr[first[has]]
        # Conflict resolution: only mutual proposals match this round.
        target = np.where(proposal >= 0, proposal, 0)
        mutual = (proposal >= 0) & (proposal[target] == ids)
        if not mutual.any():
            break
        match[mutual] = proposal[mutual]
    return match


def connection_tables(hierarchy, levels, owner, nbr_leaf, wts):
    """One FM pass's tables: a sorted ``np.unique`` group-by per level."""
    k = hierarchy.k
    widths = hierarchy._suffix_prod
    conn_keys, conn_vals = {}, {}
    for j in levels:
        key = owner * hierarchy.count(j) + nbr_leaf // widths[j]
        uk, inv = np.unique(key, return_inverse=True)
        conn_keys[j] = uk
        conn_vals[j] = np.bincount(inv, weights=wts)
    uc = np.unique(owner * k + nbr_leaf)
    return uc // k, uc % k, conn_keys, conn_vals


def fm_refine_hierarchy(
    g: Graph,
    hierarchy: Hierarchy,
    demands: np.ndarray,
    leaf_of: np.ndarray,
    max_passes: int = 2,
    load_limit: Optional[float] = None,
    min_gain: float = 1e-12,
) -> Tuple[np.ndarray, HierarchyRefineStats]:
    """Hierarchy-aware FM with one ``np.unique`` group-by per level per pass."""
    leaf_of = np.asarray(leaf_of, dtype=np.int64).copy()
    d = np.asarray(demands, dtype=np.float64)
    n, h = g.n, hierarchy.h
    if leaf_of.shape != (n,):
        raise InvalidInputError(f"leaf_of must have shape ({n},)")
    if d.shape != (n,):
        raise InvalidInputError(f"demands must have shape ({n},)")
    stats = HierarchyRefineStats()
    if n == 0 or g.m == 0 or max_passes <= 0:
        return leaf_of, stats

    widths = hierarchy._suffix_prod  # widths[j] = leaves under a level-j node
    deltas = np.array(
        [hierarchy.cm[j - 1] - hierarchy.cm[j] for j in range(1, h + 1)],
        dtype=np.float64,
    )
    levels = [j for j in range(1, h + 1) if deltas[j - 1] > 0]
    if not levels:  # constant cm: every labelling costs the same
        return leaf_of, stats
    deg = np.diff(g.indptr)
    owner = np.repeat(np.arange(n, dtype=np.int64), deg)
    nbr = g.indices
    wts = g.adj_weights

    def level_loads(j: int) -> np.ndarray:
        loads = np.zeros(hierarchy.count(j))
        np.add.at(loads, leaf_of // widths[j], d)
        return loads

    # Per-level capacity budgets: never below full capacity, never below
    # the violation the incoming placement already carries.
    budgets = {}
    for j in range(1, h + 1):
        cap = hierarchy.capacity(j)
        loads = level_loads(j)
        limit = (
            load_limit
            if load_limit is not None
            else max(1.0, float(loads.max()) / cap if loads.size else 1.0)
        )
        budgets[j] = limit * cap

    start_cost = eq1_cost(g, hierarchy, leaf_of)
    best_cost = start_cost
    best_leaf = leaf_of.copy()

    for _ in range(max_passes):
        stats.passes += 1
        # (1) connection tables, one sorted group-by per level.
        cand_v, cand_leaf, conn_keys, conn_vals = connection_tables(
            hierarchy, levels, owner, leaf_of[nbr], wts
        )

        # (2) candidate (vertex, neighbour-leaf) pairs + batched gains.
        keep = cand_leaf != leaf_of[cand_v]
        cand_v, cand_leaf = cand_v[keep], cand_leaf[keep]
        if cand_v.size == 0:
            break
        gains = np.zeros(cand_v.size)
        for j in levels:
            cnt = hierarchy.count(j)
            uk, vals = conn_keys[j], conn_vals[j]

            def conn(anc: np.ndarray) -> np.ndarray:
                q = cand_v * cnt + anc
                pos = np.searchsorted(uk, q)
                pos_c = np.minimum(pos, uk.size - 1)
                hit = uk[pos_c] == q
                out = np.zeros(q.size)
                out[hit] = vals[pos_c[hit]]
                return out

            gains += deltas[j - 1] * (
                conn(cand_leaf // widths[j]) - conn(leaf_of[cand_v] // widths[j])
            )
        pos_gain = gains > min_gain
        cand_v, cand_leaf, gains = cand_v[pos_gain], cand_leaf[pos_gain], gains[pos_gain]
        if cand_v.size == 0:
            break
        # Best target per vertex, then apply best-first.
        order = np.lexsort((cand_leaf, -gains, cand_v))
        cand_v, cand_leaf, gains = cand_v[order], cand_leaf[order], gains[order]
        first = np.ones(cand_v.size, dtype=bool)
        first[1:] = cand_v[1:] != cand_v[:-1]
        cand_v, cand_leaf, gains = cand_v[first], cand_leaf[first], gains[first]
        apply_order = np.argsort(-gains, kind="stable")

        # (3) the only Python loop: applied moves with neighbour locking.
        loads = {j: level_loads(j) for j in range(1, h + 1)}
        dirty = np.zeros(n, dtype=bool)
        moved = 0
        for i in apply_order:
            v = int(cand_v[i])
            if dirty[v]:
                continue
            src, tgt = int(leaf_of[v]), int(cand_leaf[i])
            fits = True
            for j in range(1, h + 1):
                t_node = tgt // widths[j]
                if t_node != src // widths[j] and (
                    loads[j][t_node] + d[v] > budgets[j] + 1e-9
                ):
                    fits = False
                    break
            if not fits:
                continue
            for j in range(1, h + 1):
                t_node, s_node = tgt // widths[j], src // widths[j]
                if t_node != s_node:
                    loads[j][t_node] += d[v]
                    loads[j][s_node] -= d[v]
            leaf_of[v] = tgt
            dirty[v] = True
            dirty[nbr[g.indptr[v] : g.indptr[v + 1]]] = True
            moved += 1
        if moved == 0:
            break
        stats.moves += moved
        # (4) exact cost + rollback-to-best snapshot.
        cost = eq1_cost(g, hierarchy, leaf_of)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_leaf = leaf_of.copy()

    final_cost = eq1_cost(g, hierarchy, leaf_of)
    if final_cost > best_cost + 1e-12:
        leaf_of = best_leaf
        stats.rolled_back = True
    stats.gain = start_cost - best_cost
    return leaf_of, stats


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
