"""Tests for the Dinic max-flow engine."""

import itertools

import numpy as np
import pytest

from repro import Graph
from repro.errors import InvalidInputError
from repro.flow.maxflow import DinicMaxFlow, max_flow
from repro.graph.generators import grid_2d, random_regular


class TestDinicBasic:
    def test_single_edge(self):
        g = Graph(2, [(0, 1, 3.5)])
        value, side = max_flow(g, 0, 1)
        assert value == pytest.approx(3.5)
        assert side.tolist() == [True, False]

    def test_path_bottleneck(self):
        g = Graph(3, [(0, 1, 5.0), (1, 2, 2.0)])
        value, _ = max_flow(g, 0, 2)
        assert value == pytest.approx(2.0)

    def test_parallel_paths_add(self):
        # Two disjoint 0->3 paths of capacities 1 and 2.
        g = Graph(4, [(0, 1, 1.0), (1, 3, 1.0), (0, 2, 2.0), (2, 3, 2.0)])
        value, _ = max_flow(g, 0, 3)
        assert value == pytest.approx(3.0)

    def test_disconnected_zero_flow(self):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        value, side = max_flow(g, 0, 2)
        assert value == 0.0
        assert side[0] and side[1] and not side[2]

    def test_grid_corner_cut(self):
        g = grid_2d(4, 4)
        value, _ = max_flow(g, 0, 15)
        assert value == pytest.approx(2.0)  # corner degree = 2

    def test_min_cut_certifies_flow(self):
        g = random_regular(16, 3, seed=0)
        value, side = max_flow(g, 0, 9)
        assert g.cut_weight(side) == pytest.approx(value)

    def test_directed_arc(self):
        eng = DinicMaxFlow(3)
        eng.add_edge(0, 1, 4.0, directed=True)
        eng.add_edge(1, 2, 4.0, directed=True)
        assert eng.solve(0, 2) == pytest.approx(4.0)
        # No flow against arc direction.
        eng2 = DinicMaxFlow(2)
        eng2.add_edge(0, 1, 4.0, directed=True)
        assert eng2.solve(1, 0) == pytest.approx(0.0)

    def test_resolve_resets_capacities(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 2.0)])
        eng = DinicMaxFlow(3)
        for u, v, w in g.iter_edges():
            eng.add_edge(u, v, w)
        assert eng.solve(0, 2) == pytest.approx(2.0)
        assert eng.solve(0, 2) == pytest.approx(2.0)  # same answer again

    def test_resolve_restores_from_frozen_master(self):
        # The re-solve path copies from the immutable ndarray master
        # (no O(m) Python-list reconversion) and keeps the same buffer.
        g = random_regular(16, 3, seed=2)
        eng = DinicMaxFlow(g.n)
        for u, v, w in g.iter_edges():
            eng.add_edge(u, v, w)
        first = eng.solve(0, 7)
        master = eng._caps0
        assert not master.flags.writeable
        drained = eng.caps.copy()
        buffer_before = eng.caps
        second = eng.solve(3, 12)
        assert eng.caps is buffer_before  # reused, not reallocated
        assert not np.array_equal(drained, master)  # first solve mutated
        assert first == pytest.approx(eng.solve(0, 7))
        assert second == pytest.approx(eng.solve(3, 12))

    def test_resolve_many_pairs_matches_fresh_engines(self):
        g = grid_2d(4, 4)
        eng = DinicMaxFlow(g.n)
        for u, v, w in g.iter_edges():
            eng.add_edge(u, v, w)
        for s, t in [(0, 15), (3, 12), (0, 5), (10, 2)]:
            fresh_value, _ = max_flow(g, s, t)
            assert eng.solve(s, t) == pytest.approx(fresh_value)

    def test_errors(self):
        eng = DinicMaxFlow(3)
        with pytest.raises(InvalidInputError):
            eng.add_edge(0, 0, 1.0)
        with pytest.raises(InvalidInputError):
            eng.add_edge(0, 5, 1.0)
        with pytest.raises(InvalidInputError):
            eng.add_edge(0, 1, -1.0)
        with pytest.raises(InvalidInputError):
            eng.solve(1, 1)
        with pytest.raises(InvalidInputError):
            DinicMaxFlow(1)

    def test_add_after_solve_rejected(self):
        eng = DinicMaxFlow(3)
        eng.add_edge(0, 1, 1.0)
        eng.solve(0, 1)
        with pytest.raises(InvalidInputError):
            eng.add_edge(1, 2, 1.0)


class TestFlowEqualsMinCut:
    """Max-flow/min-cut duality on random instances (the LP certificate)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_duality_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.append((i, j, float(rng.uniform(0.5, 3.0))))
        g = Graph(n, edges)
        s, t = 0, n - 1
        value, side = max_flow(g, s, t)
        assert side[s] and not side[t]
        assert g.cut_weight(side) == pytest.approx(value, abs=1e-9)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_mixed_networks_match_brute_force_cut(self, seed):
        """Small networks mixing directed and undirected arcs, with
        parallel and antiparallel pairs: the flow value equals the
        cheapest s-t cut over every vertex subset (reverse arcs with
        residual capacity are what later Dinic phases traverse)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        eng = DinicMaxFlow(n)
        arcs = []
        for _ in range(int(rng.integers(1, 18))):
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                v = (u + 1) % n
            c = float(rng.integers(1, 9))
            directed = bool(rng.random() < 0.5)
            eng.add_edge(u, v, c, directed=directed)
            arcs.append((u, v, c))
            if not directed:
                arcs.append((v, u, c))
        s, t = 0, n - 1
        best = min(
            sum(c for u, v, c in arcs if side[u] and not side[v])
            for bits in itertools.product((False, True), repeat=n - 2)
            for side in [(True,) + bits + (False,)]
        )
        assert eng.solve(s, t) == best
        side = eng.min_cut_side(s)
        assert side[s] and not side[t]
        assert sum(c for u, v, c in arcs if side[u] and not side[v]) == best

    def test_flow_upper_bounded_by_any_cut(self):
        g = grid_2d(3, 5, weight_range=(1.0, 2.0), seed=7)
        value, _ = max_flow(g, 0, 14)
        rng = np.random.default_rng(1)
        for _ in range(20):
            mask = rng.random(15) < 0.5
            mask[0], mask[14] = True, False
            assert value <= g.cut_weight(mask) + 1e-9
