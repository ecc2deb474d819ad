"""Heavy-edge matching and hierarchy FM against their sorting references.

Both multilevel inner loops were rewritten without per-call sorts under a
bit-identity contract: ``_heavy_edge_match`` must return exactly the
``match`` of the ``lexsort`` version in :mod:`tests.reference_kernels`,
and ``fm_refine_hierarchy`` exactly the labelling and
:class:`HierarchyRefineStats` of the ``np.unique`` version.  Its
connection tables are also compared directly: a sum taken in another
order differs only in low bits, which seldom changes a move.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Graph
from repro.baselines.fm import _connection_tables, fm_refine_hierarchy
from repro.decomposition.contraction import _heavy_edge_match
from repro.graph.generators import grid_2d
from repro.hierarchy.hierarchy import Hierarchy
from tests import reference_kernels as ref


def _multigraph(rng: np.random.Generator, n: int, isolated=()) -> Graph:
    """Random graph with integer weights and parallel edges (merged by
    :class:`Graph` into summed weights, which tie often), plus the given
    isolated vertices."""
    live = np.setdiff1d(np.arange(n), np.asarray(isolated, dtype=np.int64))
    edges = []
    for _ in range(int(rng.integers(0, 3 * n + 1))):
        u, v = rng.choice(live, size=2, replace=False)
        edges.append((int(u), int(v), float(rng.integers(1, 4))))
    return Graph(n, edges)


def _random_graphs(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(6, 40))
        isolated = {0: [0], 1: [n // 2], 2: [n - 1], 3: [0, n // 2, n - 1]}.get(
            i % 6, []
        )
        if i % 6 == 5:
            yield rng, ref.random_graph(rng, n, float(rng.uniform(0.1, 0.6)), False)
        else:
            yield rng, _multigraph(rng, n, isolated)


class TestHeavyEdgeMatchOracle:
    @staticmethod
    def _assert_same(g, tie, fits, rounds):
        args = (g.indptr, g.indices, g.adj_weights, tie, fits, rounds)
        assert np.array_equal(_heavy_edge_match(*args), ref.heavy_edge_match(*args))

    @pytest.mark.parametrize("rounds", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_graphs(self, rounds, seed):
        for rng, g in _random_graphs(500 + seed, 40):
            tie = rng.permutation(g.n).astype(np.int64)
            size = g.indices.size
            self._assert_same(g, tie, np.ones(size, dtype=bool), rounds)
            self._assert_same(g, tie, rng.random(size) < 0.6, rounds)
            self._assert_same(g, tie, np.zeros(size, dtype=bool), rounds)

    @pytest.mark.parametrize("rounds", [1, 3, 8])
    def test_weight_caps(self, rounds):
        # The symmetric eligibility mask ``heavy_edge_matching`` builds
        # from vertex weights and a merge cap.
        for rng, g in _random_graphs(520, 60):
            vw = rng.uniform(0.1, 1.0, size=g.n)
            owner = np.repeat(np.arange(g.n), np.diff(g.indptr))
            fits = vw[owner] + vw[g.indices] <= 1.0
            tie = rng.permutation(g.n).astype(np.int64)
            self._assert_same(g, tie, fits, rounds)

    @pytest.mark.parametrize("rounds", [1, 3, 8])
    def test_tie_heavy_and_isolated(self, rounds):
        rng = np.random.default_rng(530)
        graphs = [
            ref.clique(7),
            ref.star(9),
            ref.cycle(10),
            grid_2d(5, 6),
            Graph(5, []),
            Graph(6, [(2, 3, 1.0)]),
            Graph(4, [(0, 1, 1.0), (0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)]),
        ]
        for g in graphs:
            for _ in range(5):
                tie = rng.permutation(g.n).astype(np.int64)
                self._assert_same(g, tie, np.ones(g.indices.size, dtype=bool), rounds)

    def test_repeated_csr_entries(self):
        # A raw CSR may list one neighbour twice, with equal or different
        # weights; the first heaviest entry must win either way.
        indptr = np.array([0, 3, 5, 7, 9, 9])
        indices = np.array([1, 1, 2, 0, 0, 0, 3, 2, 2])
        weights = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 2.0, 1.0, 1.0, 1.0])
        rng = np.random.default_rng(540)
        for rounds in (1, 3, 8):
            for _ in range(10):
                tie = rng.permutation(5).astype(np.int64)
                fits = rng.random(indices.size) < 0.8
                args = (indptr, indices, weights, tie, fits, rounds)
                assert np.array_equal(
                    _heavy_edge_match(*args), ref.heavy_edge_match(*args)
                )


HIERARCHIES = [
    Hierarchy([4, 4], [20.0, 5.0, 0.0]),
    Hierarchy([2, 2, 2], [8.0, 4.0, 1.0, 0.0]),
    Hierarchy([2, 3], [5.0, 5.0, 0.0]),  # zero delta at level 1
]


class TestFmRefineHierarchyOracle:
    @staticmethod
    def _assert_same(g, hier, d, leaf_of, max_passes, load_limit=None):
        got = fm_refine_hierarchy(g, hier, d, leaf_of, max_passes, load_limit)
        want = ref.fm_refine_hierarchy(g, hier, d, leaf_of, max_passes, load_limit)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        return got[1]

    @pytest.mark.parametrize("max_passes", [1, 3])
    @pytest.mark.parametrize("hier_idx", range(len(HIERARCHIES)))
    def test_random_instances(self, hier_idx, max_passes):
        hier = HIERARCHIES[hier_idx]
        moved = repassed = 0
        for rng, g in _random_graphs(600 + hier_idx, 50):
            d = rng.uniform(0.05, 1.0, size=g.n) * hier.k / g.n
            leaf_of = rng.integers(0, hier.k, size=g.n)
            limit = None if rng.random() < 0.7 else float(rng.uniform(1.0, 2.0))
            stats = self._assert_same(g, hier, d, leaf_of, max_passes, limit)
            moved += stats.moves > 0
            repassed += stats.passes > 1
        # The tables are rebuilt from moved labels, and a later pass may
        # stop early; both must have happened for the check to bite.
        assert moved > 0
        assert repassed > 0 or max_passes == 1

    @pytest.mark.parametrize("max_passes", [1, 3])
    @pytest.mark.parametrize("hier_idx", range(len(HIERARCHIES)))
    def test_structured_graphs(self, hier_idx, max_passes):
        hier = HIERARCHIES[hier_idx]
        rng = np.random.default_rng(610)
        graphs = [
            grid_2d(6, 7, weight_range=(1.0, 10.0), seed=3),
            grid_2d(5, 5),
            ref.clique(8),
            ref.star(12),
            Graph(6, []),
        ]
        for g in graphs:
            d = np.full(g.n, 0.5 * hier.k / g.n)
            for _ in range(4):
                leaf_of = rng.integers(0, hier.k, size=g.n)
                self._assert_same(g, hier, d, leaf_of, max_passes)


class TestConnectionTablesOracle:
    @pytest.mark.parametrize("hier_idx", range(len(HIERARCHIES)))
    def test_tables_and_sum_order(self, hier_idx):
        hier = HIERARCHIES[hier_idx]
        cm = hier.cm
        levels = [j for j in range(1, hier.h + 1) if cm[j - 1] > cm[j]]
        rng = np.random.default_rng(630 + hier_idx)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            deg = rng.integers(0, 40, size=n)
            owner = np.repeat(np.arange(n, dtype=np.int64), deg)
            nbr_leaf = rng.integers(0, hier.k, size=owner.size)
            # Magnitudes spread over decades so the order of a sum shows
            # in its low bits.
            wts = rng.uniform(0.1, 5.0, size=owner.size) * 10.0 ** rng.integers(
                -4, 5, size=owner.size
            )
            got = _connection_tables(hier, levels, owner, nbr_leaf, wts)
            want = ref.connection_tables(hier, levels, owner, nbr_leaf, wts)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            for j in levels:
                assert np.array_equal(got[2][j], want[2][j])
                assert np.array_equal(got[3][j], want[3][j])
