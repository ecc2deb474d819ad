"""``stoer_wagner`` against the dict-based reference: exact equality.

The library's maximum-adjacency search is vectorized; the contract is
that it returns the same cut weight (``==``) and the same side mask as
the straightforward version in :mod:`tests.reference_kernels`,
including every tie-break.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Graph
from repro.flow.mincut import stoer_wagner
from repro.graph.generators import grid_2d
from tests import reference_kernels as ref


def _assert_same(g: Graph) -> None:
    want_w, want_mask = ref.stoer_wagner(g)
    got_w, got_mask = stoer_wagner(g)
    assert got_w == want_w
    assert np.array_equal(got_mask, want_mask)


@pytest.mark.parametrize("seed", range(8))
def test_random_small_graphs(seed):
    """25 random graphs per seed (200 in all), integer and real weights."""
    rng = np.random.default_rng(seed)
    for i in range(25):
        n = int(rng.integers(2, 16))
        g = ref.random_graph(rng, n, float(rng.uniform(0.2, 0.9)), integer=i % 2 == 0)
        if g.n >= 2:
            _assert_same(g)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13])
def test_unit_cycles(n):
    _assert_same(ref.cycle(n))


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_unit_cliques(n):
    _assert_same(ref.clique(n))


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (2, 5), (4, 4), (5, 6)])
def test_unit_grids(shape):
    _assert_same(grid_2d(*shape))


@pytest.mark.parametrize("n", [2, 3, 5, 10])
def test_stars(n):
    _assert_same(ref.star(n))


@pytest.mark.parametrize("w", [0.5, 1.0, 3.25])
def test_two_vertices(w):
    _assert_same(Graph(2, [(0, 1, w)]))


@pytest.mark.parametrize(
    "g",
    [
        Graph(2, []),
        Graph(4, [(0, 1, 1.0), (2, 3, 1.0)]),
        Graph(6, [(0, 1, 2.0), (1, 2, 1.0), (4, 5, 3.0)]),
    ],
)
def test_disconnected(g):
    _assert_same(g)
