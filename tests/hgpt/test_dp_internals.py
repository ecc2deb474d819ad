"""Direct tests of the vectorised DP internals (dedupe, dominance, project).

The numpy fast paths (radix keys, Pareto staircase) replaced a simple
dict implementation after profiling; these tests pin their semantics
against naive reference implementations so future optimisation passes
cannot silently change behaviour.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hgpt.dp import (
    _dedupe_min,
    _dominance_prune,
    _dominance_scan,
    _encode_rows,
    _project,
    _Table,
    _tile_merge,
)


def naive_dedupe(sigs, costs):
    best = {}
    for i in range(len(costs)):
        key = tuple(sigs[i])
        if key not in best or costs[i] < costs[best[key]]:
            best[key] = i
    return best


def naive_scan(sigs, order):
    """Reference dominance scan: keep a row unless a kept row is <= it."""
    kept = []
    for i in order:
        if not any(np.all(sigs[j] <= sigs[i]) for j in kept):
            kept.append(int(i))
    return kept


def naive_prune(sigs, costs):
    """Reference dominance filter: O(m^2), cost-order scan."""
    order = sorted(
        range(len(costs)), key=lambda i: (costs[i], tuple(sigs[i]))
    )
    kept = []
    for i in order:
        if any(all(sigs[j][c] <= sigs[i][c] for c in range(sigs.shape[1])) for j in kept):
            continue
        kept.append(i)
    return set(kept)


@st.composite
def state_tables(draw, h):
    m = draw(st.integers(min_value=1, max_value=40))
    sigs = np.asarray(
        draw(
            st.lists(
                st.lists(st.integers(min_value=0, max_value=6), min_size=h, max_size=h),
                min_size=m,
                max_size=m,
            )
        ),
        dtype=np.int64,
    )
    costs = np.asarray(
        draw(
            st.lists(
                st.floats(min_value=0, max_value=20, allow_nan=False),
                min_size=m,
                max_size=m,
            )
        )
    )
    return sigs, costs


class TestEncodeRows:
    def test_distinct_rows_distinct_keys(self):
        sigs = np.array([[1, 2], [2, 1], [1, 2], [0, 0]], dtype=np.int64)
        keys = _encode_rows(sigs)
        assert keys[0] == keys[2]
        assert len({int(keys[0]), int(keys[1]), int(keys[3])}) == 3

    def test_overflow_returns_none(self):
        sigs = np.array([[2**40, 2**40]], dtype=np.int64)
        assert _encode_rows(sigs) is None

    def test_empty(self):
        assert _encode_rows(np.empty((0, 2), dtype=np.int64)).size == 0


class TestDedupeMin:
    @given(state_tables(h=2))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive(self, table):
        sigs, costs = table
        uniq, min_costs, winners = _dedupe_min(sigs, costs)
        ref = naive_dedupe(sigs, costs)
        assert uniq.shape[0] == len(ref)
        for row, cost in zip(uniq, min_costs):
            assert cost == pytest.approx(costs[ref[tuple(row)]])

    def test_winners_index_source_rows(self):
        sigs = np.array([[1, 1], [1, 1], [2, 2]], dtype=np.int64)
        costs = np.array([5.0, 3.0, 1.0])
        uniq, min_costs, winners = _dedupe_min(sigs, costs)
        for w, row, cost in zip(winners, uniq, min_costs):
            assert np.array_equal(sigs[w], row)
            assert costs[w] == cost


class TestDominancePrune:
    @given(state_tables(h=1))
    @settings(max_examples=60, deadline=None)
    def test_h1_matches_naive(self, table):
        sigs, costs = table
        uniq, ucosts, _ = _dedupe_min(sigs, costs)
        kept = set(_dominance_prune(uniq, ucosts, None).tolist())
        assert kept == naive_prune(uniq, ucosts)

    @given(state_tables(h=2))
    @settings(max_examples=60, deadline=None)
    def test_h2_staircase_matches_naive(self, table):
        sigs, costs = table
        uniq, ucosts, _ = _dedupe_min(sigs, costs)
        kept = set(_dominance_prune(uniq, ucosts, None).tolist())
        assert kept == naive_prune(uniq, ucosts)

    @given(state_tables(h=3))
    @settings(max_examples=40, deadline=None)
    def test_h3_generic_matches_naive(self, table):
        sigs, costs = table
        uniq, ucosts, _ = _dedupe_min(sigs, costs)
        kept = set(_dominance_prune(uniq, ucosts, None).tolist())
        assert kept == naive_prune(uniq, ucosts)

    def test_pareto_pair_both_kept(self):
        """Cheaper-but-larger and costlier-but-smaller must both survive."""
        sigs = np.array([[3, 3], [1, 1]], dtype=np.int64)
        costs = np.array([1.0, 2.0])
        kept = _dominance_prune(sigs, costs, None)
        assert len(kept) == 2

    def test_beam_keeps_most_closed(self):
        sigs = np.array([[5, 5], [4, 4], [3, 3], [0, 0]], dtype=np.int64)
        costs = np.array([0.0, 1.0, 2.0, 50.0])
        kept = _dominance_prune(sigs, costs, beam_width=2)
        kept_sigs = {tuple(sigs[i]) for i in kept.tolist()}
        assert (0, 0) in kept_sigs  # flexibility guard

    def test_beam_width_respected_plus_guard(self):
        sigs = np.array([[5, 1], [4, 2], [3, 3], [2, 4], [1, 5]], dtype=np.int64)
        costs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        kept = _dominance_prune(sigs, costs, beam_width=2)
        assert 2 <= len(kept) <= 3

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_scan_with_beam_is_prefix_of_naive_scan(self, seed):
        """Every specialisation (h=1 minimum, h=2 staircase, blocked
        h>=3) keeps exactly the naive scan's survivors in scan order,
        and a beam keeps their first ``beam`` and reports truncation.
        Tables up to 600 rows span several h>=3 scan blocks."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 45)) if rng.random() < 0.8 else int(rng.integers(300, 600))
        h = int(rng.integers(1, 5))
        sigs = rng.integers(0, 6, size=(m, h)).astype(np.int64)
        # Integer costs produce ties, exercising scan-order stability.
        costs = rng.integers(0, 8, size=m).astype(np.float64)
        order = np.lexsort(
            tuple(sigs[:, i] for i in range(h - 1, -1, -1)) + (costs,)
        )
        beam = None if rng.random() < 0.5 else int(rng.integers(1, 6))
        kept, truncated = _dominance_scan(sigs, costs, order, beam)
        ref = naive_scan(sigs, order)
        if beam is None:
            assert kept.tolist() == ref
            assert truncated is False
        else:
            assert kept.tolist() == ref[:beam]
            assert truncated == (len(ref) >= beam)


class TestTileMerge:
    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_matches_naive_pair_loop(self, seed):
        """One tile of ranks ``[start, stop)`` keeps the within-budget,
        capacity-feasible pairs in rank order and counts the pairs that
        passed the budget; budgets below every pair cost (``n_ok == 0``)
        and empty tiles return empty, correctly shaped arrays."""
        rng = np.random.default_rng(seed)
        h = int(rng.integers(1, 4))
        na, nb = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        pa_sig = rng.integers(0, 6, size=(na, h)).astype(np.int64)
        pb_sig = rng.integers(0, 6, size=(nb, h)).astype(np.int64)
        pa_cost = rng.uniform(0.0, 10.0, size=na)
        pb_cost = rng.uniform(0.0, 10.0, size=nb)
        caps = rng.integers(2, 9, size=h).astype(np.int64)
        budget = float("inf") if rng.random() < 0.5 else float(rng.uniform(0.0, 15.0))
        start = int(rng.integers(0, na * nb))
        stop = int(rng.integers(start, na * nb + 1))
        sums, costs, ii, jj, rank, n_ok = _tile_merge(
            pa_sig, pa_cost, pb_sig, pb_cost, caps, start, stop, budget
        )
        want, want_ok = [], 0
        for r in range(start, stop):
            i, j = divmod(r, nb)
            cost = pa_cost[i] + pb_cost[j]
            if cost > budget:
                continue
            want_ok += 1
            if np.all(pa_sig[i] + pb_sig[j] <= caps):
                want.append((r, i, j, cost))
        assert n_ok == want_ok
        assert sums.shape == (len(want), h)
        assert rank.tolist() == [w[0] for w in want]
        assert ii.tolist() == [w[1] for w in want]
        assert jj.tolist() == [w[2] for w in want]
        assert costs.tolist() == [w[3] for w in want]
        assert np.array_equal(sums, pa_sig[ii] + pb_sig[jj])

    def test_budget_below_every_pair_is_empty(self):
        sig = np.array([[1, 1]], dtype=np.int64)
        out = _tile_merge(
            sig, np.array([2.0]), sig, np.array([3.0]),
            np.array([4, 4], dtype=np.int64), 0, 1, 1.0,
        )
        assert out[5] == 0
        assert out[0].shape == (0, 2)
        assert all(arr.size == 0 for arr in out[1:5])


class TestProject:
    def _table(self, sigs, costs):
        m = len(costs)
        neg = np.full(m, -1, dtype=np.int64)
        return _Table(
            np.asarray(sigs, dtype=np.int64),
            np.asarray(costs, dtype=np.float64),
            neg.copy(), neg.copy(), neg.copy(), neg.copy(),
        )

    def test_finite_edge_payments(self):
        # One state (3, 2), weight 2, deltas (., 5, 1).
        t = self._table([[3, 2]], [1.0])
        psig, pcost, porig, pj = _project(t, 2.0, np.array([0.0, 5.0, 1.0]), 2)
        got = {tuple(s): (c, j) for s, c, j in zip(psig, pcost, pj)}
        # j=2: keep all, no payment.
        assert got[(3, 2)] == (1.0, 2)
        # j=1: close level 2 (D=2>0): pay 2*1.
        assert got[(3, 0)] == (3.0, 1)
        # j=0: additionally close level 1 (D=3>0): pay 2*5 more.
        assert got[(0, 0)] == (13.0, 0)

    def test_infinite_edge_only_free_cuts(self):
        t = self._table([[3, 2], [3, 0]], [1.0, 4.0])
        psig, pcost, porig, pj = _project(
            t, float("inf"), np.array([0.0, 5.0, 1.0]), 2
        )
        got = {tuple(s): c for s, c in zip(psig, pcost)}
        # State (3,2) admits only j=2 (any cut would pay on an inf edge).
        assert got[(3, 2)] == 1.0
        # State (3,0) admits j=2 and j=1 (level-2 close is free: D=0).
        assert got[(3, 0)] == 4.0
        assert (0, 0) not in got  # j=0 would pay for level 1

    def test_zero_demand_level_projection_dedupes(self):
        t = self._table([[2, 0]], [0.0])
        psig, pcost, porig, pj = _project(t, 1.0, np.array([0.0, 1.0, 1.0]), 2)
        # (2,0) at j=2 and j=1 coincide; dedupe keeps one.
        keys = [tuple(s) for s in psig]
        assert len(keys) == len(set(keys))
