"""Output certificate: checks one placement from public outputs only.

Every result the benchmark times goes through :func:`certify`.  The
checks use plain numpy on the instance and the returned ``leaf_of``, not
the solver's own cost or load helpers, so a bug in those helpers cannot
hide a wrong answer:

* ``placed`` — every vertex has a leaf id in ``[0, k)``;
* ``eq1_cost`` — Eq. 1 recomputed from the graph, hierarchy and
  ``leaf_of`` equals the reported cost;
* ``violation`` — the load under every level-``j`` node stays within the
  Theorem-5 bound ``(1 + eps)(1 + j)`` of the result's demand grid.
"""

from __future__ import annotations

from typing import List

import numpy as np

#: Relative tolerance of the Eq. 1 comparison: both sides sum the same
#: products in the same edge order, so only the last bits may differ.
COST_RTOL = 1e-9


def eq1_cost(edges_u, edges_v, edges_w, degrees, cm, leaf_of) -> float:
    """Eq. 1: sum over edges of ``cm(LCA level) * w``, with LCA by digits."""
    leaf_of = np.asarray(leaf_of, dtype=np.int64)
    lu = leaf_of[np.asarray(edges_u, dtype=np.int64)]
    lv = leaf_of[np.asarray(edges_v, dtype=np.int64)]
    level = np.zeros(lu.shape, dtype=np.int64)
    width = 1
    widths = []
    for deg in reversed(degrees):
        width *= int(deg)
        widths.append(width)
    # widths[-1] is the whole machine; a level-j node spans
    # prod(degrees[j:]) leaves, so equal quotients mean a shared node.
    for w in widths[:-1]:
        level += (lu // w) == (lv // w)
    level += lu == lv
    return float(np.dot(np.asarray(cm, dtype=np.float64)[level], edges_w))


def certify(graph, hierarchy, demands, leaf_of, reported_cost, epsilon) -> List[str]:
    """Names of the checks ``leaf_of`` fails (empty when it passes)."""
    failed: List[str] = []
    leaf_of = np.asarray(leaf_of)
    k = int(np.prod(hierarchy.degrees))
    if (
        leaf_of.shape != (graph.n,)
        or not np.issubdtype(leaf_of.dtype, np.integer)
        or (leaf_of.size and (leaf_of.min() < 0 or leaf_of.max() >= k))
    ):
        return ["placed"]
    cost = eq1_cost(
        graph.edges_u,
        graph.edges_v,
        graph.edges_w,
        hierarchy.degrees,
        hierarchy.cm,
        leaf_of,
    )
    if not np.isclose(cost, reported_cost, rtol=COST_RTOL, atol=1e-9):
        failed.append("eq1_cost")
    d = np.asarray(demands, dtype=np.float64)
    h = len(hierarchy.degrees)
    for j in range(h + 1):
        span = int(np.prod(hierarchy.degrees[j:]))
        loads = np.bincount(leaf_of // span, weights=d, minlength=k // span)
        bound = (1.0 + epsilon) * (1 + j) * span * hierarchy.leaf_capacity
        if loads.max() > bound * (1 + 1e-9):
            failed.append("violation")
            break
    return failed


def relative_cost(graph, hierarchy, cost) -> float:
    """``cost`` over the Eq. 1 cost of the index-order placement.

    The index-order placement puts vertex ``i`` on leaf ``i * k // n``.
    It is a fixed yardstick owned by the benchmark, so the ratio varies
    far less between seeds than the raw cost of different instances.
    """
    k = int(np.prod(hierarchy.degrees))
    naive = (np.arange(graph.n, dtype=np.int64) * k) // max(1, graph.n)
    ref = eq1_cost(
        graph.edges_u, graph.edges_v, graph.edges_w,
        hierarchy.degrees, hierarchy.cm, naive,
    )
    return cost / ref if ref > 0 else 1.0


def leaf_violation(hierarchy, demands, leaf_of) -> float:
    """Worst leaf load over leaf capacity."""
    loads = np.bincount(
        np.asarray(leaf_of), weights=np.asarray(demands, dtype=np.float64),
        minlength=int(np.prod(hierarchy.degrees)),
    )
    return float(loads.max() / hierarchy.leaf_capacity)
