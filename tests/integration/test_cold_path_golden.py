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

A solve key ``"family:variant"`` runs one of :data:`VARIANTS` instead of
the default config, each pinning a path with its own hot loop:
Gomory–Hu trees (Dinic level BFS and blocking flow), an h=3 hierarchy
(the blocked dominance scan) and a forced multilevel solve (heavy-edge
matching; on a star also the two-hop stall escape).  These were recorded
before the hot loops moved out of the kernel backend registry.

``grid3d:ml44`` is a default-config multilevel solve of a weighted
16×16×16 mesh (n=4096) on ``Hierarchy([4, 4], [20, 5, 0])``: capped
heavy-edge matching over several coarsening levels and FM refinement on
every uncoarsening level, at a size where both inner loops work on
thousands of CSR entries.  It was recorded before matching and the FM
connection tables stopped sorting.
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
from repro.core.config import MultilevelConfig
from repro.graph.graph import Graph
from repro.graph.generators import (
    grid_2d,
    grid_3d,
    planted_partition,
    random_demands,
    random_geometric,
)
from repro.hierarchy.hierarchy import Hierarchy


VARIANTS = {
    "gomory_hu": SolverConfig(tree_methods=("gomory_hu",)),
    "h3": SolverConfig(),
    "multilevel": SolverConfig(
        multilevel=MultilevelConfig(enabled=True, coarsen_to=16)
    ),
    "ml44": SolverConfig(multilevel=MultilevelConfig(enabled=True)),
}


def _instance(family: str, n: int, seed: int):
    family, _, variant = family.partition(":")
    if variant == "h3":
        hier = Hierarchy([2, 2, 2], [8.0, 4.0, 1.0, 0.0])
    elif variant == "ml44":
        hier = Hierarchy([4, 4], [20.0, 5.0, 0.0])
    else:
        hier = Hierarchy([2, 8], [10.0, 3.0, 0.0])
    if family == "star":
        g = Graph(n, [(0, i, 1.0) for i in range(1, n)])
    elif family == "planted":
        g = planted_partition(16, n // 16, 0.5, 0.02, seed=seed)
    elif family == "grid3d":
        side = round(n ** (1 / 3))
        g = grid_3d(side, side, side, weight_range=(1.0, 10.0), seed=seed)
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
    ("planted:gomory_hu", 64): (
        "0x1.8c00000000000p+7",
        "e81ef4db2e03bf839e057eb10635fe99f77adf8dbff9c761bb86e1a55e3392c1",
    ),
    ("grid:gomory_hu", 64): (
        "0x1.933792b76d05ep+9",
        "4b361f6dde6b61259787f70d9788ac4414d314246a6f0bab88f0df650903c03a",
    ),
    ("planted:h3", 64): (
        "0x1.c000000000000p+6",
        "541cb9fe4c4f21e8aad6321a0cc8ee8f8f0065aa6ec6d1ef3d55f440cfd83067",
    ),
    ("geo:h3", 64): (
        "0x1.2846804c14d62p+10",
        "c023dab770650724d9715fb40d580ab16dccfa36d2a8d0ebdb163417021f036d",
    ),
    ("grid:multilevel", 256): (
        "0x1.820c087bf8eb2p+10",
        "5d35bdd81a86703ee4118dcf44b086d9f30140ff11c463883e628e68f934971b",
    ),
    ("planted:multilevel", 256): (
        "0x1.7b00000000000p+11",
        "cbc156964f85684b133e11ac8409e6e2e50bd1e4cda9c9f886216b29f84b0e31",
    ),
    ("star:multilevel", 129): (
        "0x1.c600000000000p+8",
        "f0c8a705daaf48938fe337f1c5f4c9402cf07f1fb4171b6f9834eb3020dd77df",
    ),
    ("grid3d:ml44", 4096): (
        "0x1.4b9a3f37f89a0p+16",
        "7febf79ca5227a64185556c5ffa5a7abbb110c4bb2b465e37b630b418108b362",
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
    variant = family.partition(":")[2]
    res = solve_hgp(g, hier, d, VARIANTS.get(variant, SolverConfig()))
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
