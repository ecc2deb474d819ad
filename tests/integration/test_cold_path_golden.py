"""Golden zero-drift check for the cold default solve and the refiner.

The values below pin ``(cost, sha256(leaf_of))`` of a cold
``solve_hgp(g, hier, d, SolverConfig())`` on seeded planted, grid and
geometric instances at n=64 and n=256, and of
``refine_placement(..., allow_swaps=True)`` from fixed random
placements.  They were recorded before the embed-stage kernels
(Stoer–Wagner, Fiedler power loop, all-pairs Dijkstra) and the refiner's
cost rows were rewritten; those rewrites promise bit-identical results,
so any change here is output drift, not noise.  Costs are stored as
``float.hex`` so the comparison is exact.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro import SolverConfig, solve_hgp
from repro.baselines.local_search import refine_placement
from repro.baselines.random_placement import random_placement
from repro.cache import reset_cache
from repro.graph.generators import (
    grid_2d,
    planted_partition,
    random_demands,
    random_geometric,
)
from repro.hierarchy.hierarchy import Hierarchy


def _instance(family: str, n: int, seed: int):
    hier = Hierarchy([2, 8], [10.0, 3.0, 0.0])
    if family == "planted":
        g = planted_partition(16, n // 16, 0.5, 0.02, seed=seed)
    elif family == "grid":
        rows = int(math.sqrt(n / 2))
        g = grid_2d(rows, n // rows, weight_range=(1.0, 10.0), seed=seed)
    else:
        radius = 1.6 * math.sqrt(math.log(n) / (math.pi * n))
        attempt = 0
        while True:
            g = random_geometric(
                n, radius, weight_range=(1.0, 10.0), seed=seed * 31 + attempt
            )
            if g.is_connected():
                break
            attempt += 1
    d = random_demands(g.n, hier.total_capacity, fill=0.7, skew=0.3, seed=seed + 1)
    return g, hier, d


def _digest(leaf_of: np.ndarray) -> str:
    raw = np.ascontiguousarray(leaf_of, dtype=np.int64).tobytes()
    return hashlib.sha256(raw).hexdigest()


SOLVE_GOLDEN = {
    ("planted", 64): (
        "0x1.6800000000000p+7",
        "65813f59a31bf6ceea8784b250044640198af273d981902d932bcee6d3633798",
    ),
    ("grid", 64): (
        "0x1.687ace327e06ep+9",
        "9a2a8f4f36895b5ec94659c5d3c882dbfacc6f51dd7c415643ff8cb61a20f6f1",
    ),
    ("geo", 64): (
        "0x1.499f5640e84b1p+11",
        "4de8855339040076c387791bd3b0533d3ede22418b47e211d6a3b3ed0dcab41e",
    ),
    ("planted", 256): (
        "0x1.1280000000000p+12",
        "a92361535a35aefd66d4e4f61353b31549adcb5094e0d2e1bcd026bea48873ca",
    ),
    ("grid", 256): (
        "0x1.900bd51d5db92p+10",
        "381c3aebe1b0ecea9064dd7aded0282df3de6163f40e07ab98b81f545c24820c",
    ),
    ("geo", 256): (
        "0x1.9dae2d4d7d407p+12",
        "844f3d882fde51dc154a64f445d9f4b8ceffb8b2f473c93707d1e7c3eb5b97be",
    ),
}

REFINE_GOLDEN = {
    ("planted", 64): (
        "0x1.d000000000000p+6",
        "d253fe8bdd473baabce5f0d133ddbbe55ac91b5feb67b81bfa5ab0d1c8a6043b",
    ),
    ("grid", 64): (
        "0x1.0ec9a20a232f7p+10",
        "8971c39b9653594fb123a5bd737b90c2d7fa161ff69dfc4adf52854ea795ff02",
    ),
    ("geo", 64): (
        "0x1.08c2162480cc5p+11",
        "97d24a194c761a03b6fa154de6ceb21fdd6fa88605726f88630f98d2012f0faa",
    ),
    ("planted", 256): (
        "0x1.c700000000000p+11",
        "4aaf45a2d9b1c53b6caf48f1e836eed3d61fdc326b0cfc45e858ba44f927854f",
    ),
    ("grid", 256): (
        "0x1.59b0f73a4951fp+12",
        "cb88a2c3b28fcb5d0273212b9c6db3cebcb18e63304084f4da1c1c2ef5489c31",
    ),
    ("geo", 256): (
        "0x1.5bab770c04622p+13",
        "9b7f59d56abd724726fbd8fcdb5954f002d723612d7e2d97ad0790fe7204a801",
    ),
}


@pytest.mark.parametrize("family,n", sorted(SOLVE_GOLDEN))
def test_cold_default_solve_is_bit_identical(family, n):
    reset_cache()
    g, hier, d = _instance(family, n, 5)
    res = solve_hgp(g, hier, d, SolverConfig())
    assert (float(res.cost).hex(), _digest(res.placement.leaf_of)) == SOLVE_GOLDEN[
        (family, n)
    ]


@pytest.mark.parametrize("family,n", sorted(REFINE_GOLDEN))
def test_refine_with_swaps_is_bit_identical(family, n):
    g, hier, d = _instance(family, n, 9)
    start = random_placement(g, hier, d, seed=3)
    out = refine_placement(
        start, max_passes=4, max_violation=2.0, seed=0, allow_swaps=True
    )
    assert (float(out.cost()).hex(), _digest(out.leaf_of)) == REFINE_GOLDEN[
        (family, n)
    ]
