"""Tests for the multilevel partitioner."""

import numpy as np
import pytest

from repro.baselines.multilevel import bisect, partition_kway
from repro.errors import InvalidInputError
from repro.graph.generators import (
    barabasi_albert,
    grid_2d,
    planted_partition,
    power_law,
    random_regular,
)
from repro.multilevel import coarsen_graph
from repro.utils.rng import ensure_rng


class TestCoarsen:
    """The coarsening :func:`bisect` runs: :func:`coarsen_graph` with the
    METIS-style supervertex cap of 1.5 × total weight / target."""

    @staticmethod
    def coarsen(g, w, target, seed):
        return coarsen_graph(
            g, w, target_n=target, max_weight=1.5 * w.sum() / target, rng=ensure_rng(seed)
        )

    def test_reaches_target(self):
        g = grid_2d(8, 8)
        levels = self.coarsen(g, np.ones(64), 12, 0)
        assert levels.coarsest.n <= 12 or len(levels.maps) == 0

    def test_weights_conserved(self):
        g = grid_2d(6, 6)
        w0 = np.random.default_rng(0).random(36) + 0.5
        levels = self.coarsen(g, w0, 8, 1)
        for w in levels.demands:
            assert w.sum() == pytest.approx(w0.sum())

    def test_maps_compose(self):
        g = grid_2d(6, 6)
        levels = self.coarsen(g, np.ones(36), 8, 2)
        labels = np.arange(36)
        for m in levels.maps:
            labels = m[labels]
        # Composition lands in the coarsest graph's id range and is onto.
        assert labels.max() < levels.coarsest.n
        assert np.unique(labels).size == levels.coarsest.n


class TestBisect:
    def test_balanced(self):
        g = grid_2d(8, 8)
        mask = bisect(g, seed=0)
        assert 24 <= mask.sum() <= 40

    def test_grid_cut_quality(self):
        g = grid_2d(8, 8)
        mask = bisect(g, seed=0, tol=0.05)
        assert g.cut_weight(mask) <= 12.0  # optimum 8, generous bound

    def test_recovers_planted(self):
        g = planted_partition(2, 16, 0.7, 0.02, seed=1)
        mask = bisect(g, seed=0)
        planted = g.cut_weight(np.arange(32) < 16)
        assert g.cut_weight(mask) <= 1.5 * planted + 1e-9

    def test_weighted_target_fraction(self):
        g = grid_2d(6, 6)
        w = np.ones(36)
        mask = bisect(g, vertex_weights=w, target_fraction=0.25, tol=0.05, seed=0)
        assert 0.2 * 36 <= mask.sum() <= 0.3 * 36

    def test_single_vertex(self):
        from repro import Graph

        mask = bisect(Graph(1, []), seed=0)
        assert mask.tolist() == [False]

    def test_bad_fraction(self, grid44):
        with pytest.raises(InvalidInputError):
            bisect(grid44, target_fraction=1.5)


class TestPartitionKway:
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_exact_k_parts(self, k):
        g = grid_2d(6, 6)
        labels = partition_kway(g, k, seed=0)
        assert np.unique(labels).size == k

    def test_balanced_parts(self):
        g = grid_2d(8, 8)
        labels = partition_kway(g, 4, seed=0)
        counts = np.bincount(labels, minlength=4)
        assert counts.min() >= 12 and counts.max() <= 20

    def test_weighted_balance(self):
        g = power_law(48, seed=0)
        rng = np.random.default_rng(3)
        w = rng.random(48) + 0.2
        labels = partition_kway(g, 4, vertex_weights=w, tol=0.05, seed=0)
        loads = np.zeros(4)
        np.add.at(loads, labels, w)
        assert loads.max() <= 1.6 * w.sum() / 4

    def test_hub_graph_stays_balanced(self):
        """The coarsening cap keeps hub clusters from swallowing the graph
        (uncapped, every vertex lands in one part here)."""
        g = barabasi_albert(3000, 2, seed=0)
        labels = partition_kway(g, 8, seed=0)
        assert np.bincount(labels, minlength=8).max() <= 1.5 * g.n / 8

    def test_k1_trivial(self, grid44):
        labels = partition_kway(grid44, 1, seed=0)
        assert (labels == 0).all()

    def test_recovers_four_blocks(self):
        g = planted_partition(4, 8, 0.9, 0.01, seed=5)
        labels = partition_kway(g, 4, seed=0)
        planted = np.arange(32) // 8
        # Cut should be close to the planted sparse cut.
        assert g.partition_cut_weight(labels) <= 2.0 * g.partition_cut_weight(
            planted
        ) + 1e-9

    def test_expander_beats_random(self):
        g = random_regular(32, 4, seed=2)
        labels = partition_kway(g, 4, seed=0)
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 4, size=32)
        assert g.partition_cut_weight(labels) < g.partition_cut_weight(random_labels)

    def test_bad_k(self, grid44):
        with pytest.raises(InvalidInputError):
            partition_kway(grid44, 0)
