"""Every solve path returns the same result type with the same report meta.

Flat :func:`solve_hgp`, :func:`run_pipeline`, :func:`solve_hgp` with
``multilevel.enabled`` and :func:`solve_multilevel` all return one
:class:`HGPResult`; its report always carries the correlation id and the
incremental stamp, and a multilevel run carries its summary block no
matter which entry point started it.  Collectors created by a solve path
carry its end-to-end wall time on their root span.
"""

import pytest

from repro import HGPResult, SolverConfig, solve_hgp
from repro.core.config import MultilevelConfig
from repro.core.engine import STAGE_NAMES, run_pipeline
from repro.core.portfolio import seed_portfolio, solve_hgp_portfolio
from repro.core.telemetry import Telemetry
from repro.decomposition.guided import solve_hgp_iterated
from repro.graph.generators import grid_2d, random_demands
from repro.hierarchy.hierarchy import Hierarchy
from repro.multilevel import solve_multilevel

FLAT = SolverConfig(seed=0, n_trees=2)
ML = SolverConfig(
    seed=0, n_trees=2, multilevel=MultilevelConfig(enabled=True, coarsen_to=40)
)

SOLVERS = {
    "solve_hgp": lambda g, h, d: solve_hgp(g, h, d, FLAT),
    "run_pipeline": lambda g, h, d: run_pipeline(g, h, d, FLAT),
    "solve_hgp_multilevel": lambda g, h, d: solve_hgp(g, h, d, ML),
    "solve_multilevel": lambda g, h, d: solve_multilevel(g, h, d, ML),
}


@pytest.fixture(scope="module")
def instance():
    g = grid_2d(12, 12, weight_range=(0.5, 2.0), seed=1)
    hier = Hierarchy([2, 4], [10.0, 3.0, 0.0], leaf_capacity=40.0)
    d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.3, seed=2)
    return g, hier, d


@pytest.fixture(scope="module")
def results(instance):
    return {name: solve(*instance) for name, solve in SOLVERS.items()}


@pytest.mark.parametrize("name", list(SOLVERS))
def test_result_parity(results, name):
    res = results[name]
    assert type(res) is HGPResult
    assert res.degraded is False
    assert res.failures == []
    assert res.run_id
    meta = res.report().meta
    assert meta["run_id"] == res.run_id
    assert meta["incremental"] == res.incremental
    if "multilevel" in name:
        assert meta["multilevel"] == results["solve_multilevel"].report().meta["multilevel"]
        assert meta["multilevel"]["coarsen"]["levels"] > 1
        assert res.report().config == ML.describe()
    else:
        assert "multilevel" not in meta
        assert res.report().config == FLAT.describe()


def _assert_root_timed(tel, children):
    root = tel.root
    assert root.count == 1
    assert root.seconds > 0.0
    assert root.seconds >= sum(root.child(name).seconds for name in children)


@pytest.mark.parametrize("name", ["solve_hgp", "run_pipeline"])
def test_flat_root_span_carries_wall_time(results, name):
    _assert_root_timed(results[name].telemetry, STAGE_NAMES)


@pytest.mark.parametrize("name", ["solve_hgp_multilevel", "solve_multilevel"])
def test_multilevel_root_span_carries_wall_time(results, name):
    _assert_root_timed(
        results[name].telemetry, ("coarsen", "coarse_solve", "uncoarsen")
    )


def test_shared_collector_is_timed_by_its_creator_only(instance):
    tel = Telemetry("batch")
    run_pipeline(*instance, FLAT, telemetry=tel)
    assert tel.root.count == 0
    assert tel.root.seconds == 0.0

    configs = seed_portfolio(FLAT, 2)
    portfolio = solve_hgp_portfolio(*instance, configs)
    _assert_root_timed(portfolio.telemetry, STAGE_NAMES)

    guided = solve_hgp_iterated(*instance, FLAT, rounds=1)
    _assert_root_timed(guided.telemetry, STAGE_NAMES)
