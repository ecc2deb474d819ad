"""Fiedler power loop and all-pairs Dijkstra against their references.

Both library kernels were rewritten for speed under a bit-identity
contract: ``_solve_fiedler`` must return exactly the vector of the
``np.linalg.norm``/``@`` loop in :mod:`tests.reference_kernels`, and
``all_pairs_dijkstra`` exactly the matrix of one heap Dijkstra per source.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Graph
from repro.graph.generators import grid_2d, random_geometric
from repro.graph.ops import all_pairs_dijkstra
from repro.graph.spectral import _solve_fiedler
from tests import reference_kernels as ref


def _connected_random(rng: np.random.Generator, integer: bool) -> Graph:
    while True:
        n = int(rng.integers(2, 20))
        g = ref.random_graph(rng, n, float(rng.uniform(0.25, 0.9)), integer)
        if g.is_connected():
            return g


def _tie_heavy():
    return [
        ref.cycle(6),
        ref.cycle(9),
        ref.clique(5),
        ref.star(7),
        grid_2d(3, 4),
        grid_2d(4, 4),
        Graph(2, [(0, 1, 1.0)]),
    ]


class TestFiedlerOracle:
    @staticmethod
    def _assert_same(g, normalized, start, tol=1e-8, max_iter=2000):
        want = ref.solve_fiedler(g, normalized, tol, max_iter, start)
        got = _solve_fiedler(g, normalized, tol, max_iter, start)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("normalized", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, normalized, seed):
        rng = np.random.default_rng(100 + seed)
        for i in range(25):
            g = _connected_random(rng, integer=i % 2 == 0)
            self._assert_same(g, normalized, rng.standard_normal(g.n))

    @pytest.mark.parametrize("normalized", [True, False])
    def test_tie_heavy(self, normalized):
        rng = np.random.default_rng(7)
        for g in _tie_heavy():
            self._assert_same(g, normalized, rng.standard_normal(g.n))

    @pytest.mark.parametrize("normalized", [True, False])
    def test_eigsh_fallback(self, normalized):
        """A tiny iteration budget forces the scipy fallback path."""
        rng = np.random.default_rng(3)
        g = grid_2d(5, 5, weight_range=(1.0, 3.0), seed=2)
        self._assert_same(g, normalized, rng.standard_normal(g.n), max_iter=3)


class TestAllPairsDijkstraOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        """Includes disconnected graphs (``inf`` entries) and n=2."""
        rng = np.random.default_rng(200 + seed)
        for i in range(50):
            n = int(rng.integers(2, 18))
            g = ref.random_graph(rng, n, float(rng.uniform(0.1, 0.8)), i % 2 == 0)
            assert np.array_equal(all_pairs_dijkstra(g), ref.all_pairs_dijkstra(g))

    def test_tie_heavy(self):
        for g in _tie_heavy():
            assert np.array_equal(all_pairs_dijkstra(g), ref.all_pairs_dijkstra(g))

    def test_geometric(self):
        g = random_geometric(80, 0.2, weight_range=(1.0, 10.0), seed=4)
        assert np.array_equal(all_pairs_dijkstra(g), ref.all_pairs_dijkstra(g))

    def test_explicit_lengths_with_zeros(self):
        """Zero lengths are real edges, not missing ones."""
        g = grid_2d(3, 3)
        lengths = np.zeros(g.m)
        lengths[::2] = 1.5
        got = all_pairs_dijkstra(g, lengths)
        assert np.array_equal(got, ref.all_pairs_dijkstra(g, lengths))
        assert np.isfinite(got).all()
