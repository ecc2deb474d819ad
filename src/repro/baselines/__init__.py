"""Baseline placement algorithms and partition refinement.

Registry
--------
:func:`placement_baselines` returns the name → callable map used by the
benchmark harness; every callable has the uniform signature
``(graph, hierarchy, demands, seed) -> Placement``.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.placement import Placement

from repro.baselines.fm import fm_refine
from repro.baselines.kl import kl_refine
from repro.baselines.multilevel import bisect, partition_kway
from repro.baselines.flat import flat_placement, map_parts_to_leaves
from repro.baselines.recursive_bisection import recursive_bisection_placement
from repro.baselines.greedy import greedy_placement
from repro.baselines.random_placement import random_placement, round_robin_placement
from repro.baselines.local_search import refine_placement

__all__ = [
    "fm_refine",
    "kl_refine",
    "bisect",
    "partition_kway",
    "flat_placement",
    "map_parts_to_leaves",
    "recursive_bisection_placement",
    "greedy_placement",
    "random_placement",
    "round_robin_placement",
    "refine_placement",
    "placement_baselines",
]

BaselineFn = Callable[..., Placement]


def placement_baselines() -> Dict[str, BaselineFn]:
    """Uniform-signature registry of all baseline placement methods."""

    def _flat_identity(g: Graph, h: Hierarchy, d: Sequence[float], seed=None):
        return flat_placement(g, h, d, mapping="identity", seed=seed)

    def _flat_quotient(g: Graph, h: Hierarchy, d: Sequence[float], seed=None):
        return flat_placement(g, h, d, mapping="quotient", seed=seed)

    def _flat_shuffled(g: Graph, h: Hierarchy, d: Sequence[float], seed=None):
        return flat_placement(g, h, d, mapping="shuffled", seed=seed)

    return {
        "random": random_placement,
        "round_robin": round_robin_placement,
        "greedy": greedy_placement,
        "flat_identity": _flat_identity,
        "flat_shuffled": _flat_shuffled,
        "flat_quotient": _flat_quotient,
        "recursive_bisection": recursive_bisection_placement,
    }
