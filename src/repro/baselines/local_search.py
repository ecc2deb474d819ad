"""Hierarchy-aware local search (architecture-aware refinement).

The practical counterpart of Moulitsas–Karypis's architecture-aware
refinement (paper reference [20]): repeatedly try to move single vertices
to cheaper leaves — candidate leaves are where the vertex's neighbours
live, plus the least-loaded leaf — accepting a move when it strictly
lowers Eq. (1) cost and keeps every hierarchy level within a violation
budget.  Also used as the polish pass of the Theorem-1 pipeline (the
worst-case analysis leaves constant factors on the table that a few
greedy sweeps recover).

Moves only ever *decrease* cost, so refinement preserves every guarantee
of the input placement except that loads may shift within the supplied
``max_violation`` envelope.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.hierarchy.placement import Placement
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["refine_placement", "enforce_capacity"]


def refine_placement(
    placement: Placement,
    max_passes: int = 4,
    max_violation: float = 1.0,
    seed: SeedLike = 0,
    allow_swaps: bool = False,
) -> Placement:
    """Greedy single-vertex move refinement (optionally with swaps).

    Parameters
    ----------
    placement:
        Starting placement.
    max_passes:
        Full sweeps over the vertices.
    max_violation:
        Load budget as a multiple of capacity, enforced at *every*
        hierarchy level after each move (pass the input placement's own
        violation to forbid any worsening; pass the Theorem-1 bound to
        allow moves within the guarantee).
    seed:
        Sweep-order RNG seed.
    allow_swaps:
        After each move sweep, additionally try *pair swaps* along the
        heaviest crossing edges — moving an endpoint into the other
        endpoint's leaf by exchanging it with a resident.  Swaps escape
        the capacity-locked minima single moves cannot (both leaves full
        but an exchange still improves cost).

    Returns
    -------
    Placement
        Refined placement with ``cost() <=`` the input's.
    """
    g = placement.graph
    hier = placement.hierarchy
    d = placement.demands
    cm = np.asarray(hier.cm)
    rng = ensure_rng(seed)

    leaf_of = placement.leaf_of.copy()
    leaf_loads = placement.leaf_loads()
    # Per-level loads, kept incrementally (level h loads == leaf_loads).
    level_loads = [placement.level_loads(j) for j in range(hier.h + 1)]
    budgets = [max_violation * hier.capacity(j) + 1e-12 for j in range(hier.h + 1)]
    # Per-leaf rows, filled on first use: lca_rows[t][l] = LCA level of
    # leaves t and l, cost_rows[t][l] = cm of that level.  Indexing a row
    # by ``leaf_of[nbrs]`` gives the same floats ``cm[lca_level(t, ...)]``
    # would, without a vectorised lca_level call per candidate.
    leaves = np.arange(hier.k, dtype=np.int64)
    lca_rows: dict[int, np.ndarray] = {}
    cost_rows: dict[int, np.ndarray] = {}

    def lca_row(t: int) -> np.ndarray:
        row = lca_rows.get(t)
        if row is None:
            row = lca_rows[t] = np.asarray(hier.lca_level(t, leaves))
        return row

    def cost_row(t: int) -> np.ndarray:
        row = cost_rows.get(t)
        if row is None:
            row = cost_rows[t] = cm[lca_row(t)]
        return row

    def move_ok(v: int, target: int) -> bool:
        dv = float(d[v])
        for j in range(1, hier.h + 1):
            t_node = int(hier.ancestor(target, j))
            s_node = int(hier.ancestor(int(leaf_of[v]), j))
            if t_node != s_node and level_loads[j][t_node] + dv > budgets[j]:
                return False
        return True

    def apply_move(v: int, target: int) -> None:
        dv = float(d[v])
        src = int(leaf_of[v])
        for j in range(1, hier.h + 1):
            level_loads[j][int(hier.ancestor(src, j))] -= dv
            level_loads[j][int(hier.ancestor(target, j))] += dv
        leaf_loads[src] -= dv
        leaf_loads[target] += dv
        leaf_of[v] = target

    def incident_cost(v: int, at_leaf: int, exclude: int = -1) -> float:
        """Eq. (1) mass of v's incident edges with v at ``at_leaf``."""
        nbrs = g.neighbors(v)
        if nbrs.size == 0:
            return 0.0
        ws = g.neighbor_weights(v)
        if exclude >= 0:
            keep = nbrs != exclude
            nbrs, ws = nbrs[keep], ws[keep]
            if nbrs.size == 0:
                return 0.0
        return float(np.dot(cost_row(at_leaf)[leaf_of[nbrs]], ws))

    def swap_ok(a: int, la: int, b: int, lb: int) -> bool:
        """Feasibility of exchanging a (at la) and b (at lb) at every level."""
        da, db = float(d[a]), float(d[b])
        for j in range(1, hier.h + 1):
            na = int(hier.ancestor(la, j))
            nb = int(hier.ancestor(lb, j))
            if na == nb:
                continue
            if level_loads[j][nb] + da - db > budgets[j]:
                return False
            if level_loads[j][na] + db - da > budgets[j]:
                return False
        return True

    def try_swaps() -> bool:
        """One pass of exchange moves seeded by the heaviest crossing edges.

        For each endpoint ``a`` of a heavy crossing edge ``(a, c)``, try
        exchanging ``a`` with a resident of any leaf strictly *closer* to
        ``c`` than ``a``'s current leaf — the exchange that single moves
        cannot perform when both leaves are full.  First-improving per
        edge keeps the pass cheap.
        """
        cross = leaf_of[g.edges_u] != leaf_of[g.edges_v]
        if not cross.any():
            return False
        order = np.argsort(np.where(cross, g.edges_w, -np.inf))[::-1]
        improved_here = False
        for e in order[: min(48, int(cross.sum()))]:
            u, v = int(g.edges_u[e]), int(g.edges_v[e])
            done = False
            for a, c in ((u, v), (v, u)):
                la, lc = int(leaf_of[a]), int(leaf_of[c])
                to_c = lca_row(lc)
                base_level = to_c[la]
                for target in range(hier.k):
                    if target == la:
                        continue
                    if to_c[target] <= base_level:
                        continue  # not closer to c
                    for b in np.nonzero(leaf_of == target)[0]:
                        b = int(b)
                        if b in (a, c):
                            continue
                        # Exact delta excluding the (a, b) edge, whose
                        # endpoints trade places (LCA unchanged).
                        before = incident_cost(a, la, exclude=b) + incident_cost(
                            b, target, exclude=a
                        )
                        after = incident_cost(a, target, exclude=b) + incident_cost(
                            b, la, exclude=a
                        )
                        if after >= before - 1e-12:
                            continue
                        if not swap_ok(a, la, b, target):
                            continue
                        apply_move(a, target)
                        apply_move(b, la)
                        improved_here = True
                        done = True
                        break
                    if done:
                        break
                if done:
                    break
        return improved_here

    improved_any = False
    for _ in range(max_passes):
        improved = False
        for v in rng.permutation(g.n):
            nbrs = g.neighbors(v)
            if nbrs.size == 0:
                continue
            ws = g.neighbor_weights(v)
            src = int(leaf_of[v])
            nbr_leaves = leaf_of[nbrs]
            base = float(np.dot(cost_row(src)[nbr_leaves], ws))
            candidates = set(int(l) for l in np.unique(nbr_leaves))
            candidates.add(int(np.argmin(leaf_loads)))
            candidates.discard(src)
            best_leaf: Optional[int] = None
            best_delta = -1e-12
            for target in candidates:
                delta = float(np.dot(cost_row(target)[nbr_leaves], ws)) - base
                if delta < best_delta and move_ok(v, target):
                    best_delta = delta
                    best_leaf = target
            if best_leaf is not None:
                apply_move(v, best_leaf)
                improved = True
                improved_any = True
        if allow_swaps and try_swaps():
            improved = True
            improved_any = True
        if not improved:
            break

    if not improved_any:
        return placement
    return Placement(
        g,
        hier,
        d,
        leaf_of,
        meta={**placement.meta, "refined": True},
    )


def enforce_capacity(
    placement: Placement,
    target_violation: float = 1.0,
    seed: SeedLike = 0,
    max_moves: Optional[int] = None,
) -> Placement:
    """Restore (near-)feasibility by evicting vertices from overloaded leaves.

    The bicriteria guarantee permits ``(1 + ε)(1 + h)`` overload; for
    apples-to-apples comparisons against strictly-feasible baselines this
    pass repeatedly takes the most overloaded leaf, picks the resident
    vertex whose cheapest relocation (by Eq. (1) delta) is smallest, and
    moves it to the best leaf with room.  Cost may increase — that is the
    price of the stricter balance, and exactly the trade-off the paper's
    bicriteria framing makes explicit.

    Parameters
    ----------
    placement:
        Starting placement (any violation level).
    target_violation:
        Leaf-load budget as a multiple of leaf capacity.
    seed:
        Tie-breaking RNG seed.
    max_moves:
        Safety cap (default ``4 n``).

    Returns
    -------
    Placement
        Placement with ``max_violation()`` at most ``target_violation``
        whenever total demand permits; otherwise the best achieved.
    """
    g = placement.graph
    hier = placement.hierarchy
    d = placement.demands
    cm = np.asarray(hier.cm)

    leaf_of = placement.leaf_of.copy()
    loads = placement.leaf_loads()
    budget = target_violation * hier.leaf_capacity + 1e-12
    if max_moves is None:
        max_moves = 4 * g.n

    moves = 0
    stuck: set[int] = set()  # overloaded leaves with no feasible eviction
    while moves < max_moves:
        over = [
            int(l) for l in np.nonzero(loads > budget)[0] if int(l) not in stuck
        ]
        if not over:
            break
        leaf = max(over, key=lambda l: loads[l])
        residents = np.nonzero(leaf_of == leaf)[0]
        if residents.size <= 1:
            stuck.add(leaf)  # single oversized vertex: nothing to evict
            continue
        # Cheapest (vertex, target) eviction by cost delta.
        best = None
        for v in residents:
            dv = float(d[v])
            targets = np.nonzero(loads + dv <= budget)[0]
            if targets.size == 0:
                continue
            nbrs = g.neighbors(int(v))
            ws = g.neighbor_weights(int(v))
            if nbrs.size:
                nbr_leaves = leaf_of[nbrs]
                base = float(
                    np.dot(cm[np.asarray(hier.lca_level(leaf, nbr_leaves))], ws)
                )
                deltas = np.array(
                    [
                        float(
                            np.dot(
                                cm[np.asarray(hier.lca_level(int(t), nbr_leaves))],
                                ws,
                            )
                        )
                        - base
                        for t in targets
                    ]
                )
            else:
                deltas = np.zeros(targets.size)
            idx = int(np.argmin(deltas))
            cand = (float(deltas[idx]), float(-dv), int(v), int(targets[idx]))
            if best is None or cand < best:
                best = cand
        if best is None:
            stuck.add(leaf)  # no resident fits anywhere else
            continue
        _delta, _negd, v, target = best
        loads[leaf] -= float(d[v])
        loads[target] += float(d[v])
        leaf_of[v] = target
        moves += 1
        # A successful eviction frees room on `leaf`, which may unstick
        # other overloaded leaves; re-examine everything.
        stuck.clear()

    if moves == 0:
        return placement
    return Placement(
        g,
        hier,
        d,
        leaf_of,
        meta={**placement.meta, "capacity_enforced": target_violation},
    )
