"""E20 — the multilevel coarsen–solve–refine front-end at scale.

The staged engine solves a few-hundred-vertex instance well but walks
every vertex through tree building and the DP; a million-vertex graph
never fits that budget.  The ``repro.multilevel`` front-end coarsens the
graph to ``coarsen_to`` supervertices first, runs the full engine on the
coarsest instance, and projects the placement back down with
hierarchy-aware FM at every level.  This experiment measures what that
buys on two heavy families — a 3D mesh (``mesh3d``, generator input) and
a Barabási–Albert graph routed through a METIS ``.graph`` file round
trip (``ba``, exercising the vectorised I/O path):

* **smoke tier** (CI): ``n = 10^4`` — multilevel HGP cost vs the flat
  METIS-style k-way baseline's Eq. 1 objective on the same instance.
  The acceptance bar is multilevel ≤ 1.1× flat; measured it is *better*
  than flat by ~1.9–2.5× (the hierarchy-aware refinement optimises
  Eq. 1 directly while the flat baseline only minimises the cut).
* **big tier** (``-m big``, not in CI): ``n = 10^5`` with the flat
  comparison and ``n = 10^6`` end-to-end multilevel-only inside a
  memory ceiling, recording peak RSS.

The machine-readable companion (``BENCH_E20_multilevel_scale.json``)
carries a ``meta`` block with ``flat_over_multilevel_cost`` (inverted so
the ≤ 1.1× acceptance becomes a ``--min-meta`` *floor* of ``1/1.1``),
per-family cost ratios, coarsening depth/shrink, and the session's peak
RSS, so ``tools/bench_regress.py`` gates both quality and scalability.
"""

from __future__ import annotations

import resource
import time

import pytest

from repro import Hierarchy
from repro.baselines.fm import eq1_cost
from repro.baselines.multilevel import partition_kway
from repro.bench import Table, save_result, save_result_json
from repro.bench.instances import FAMILIES
from repro.core.config import MultilevelConfig, SolverConfig
from repro.graph.generators import random_demands
from repro.graph.io import read_metis, write_metis
from repro.multilevel import solve_multilevel

SEED = 20

#: 2×4 hierarchy, strongly non-uniform cm so Eq. 1 rewards locality.
HIER = Hierarchy([2, 4], [10.0, 3.0, 0.0])

#: Quantisation when routing through a METIS file (the ``ba`` leg writes
#: weights+demands to ``.graph`` and reads them back).  Edge weights in
#: [0.5, 2] survive a 10× scale; per-vertex demands are ~1e-4 so they
#: get an extra pre-scale before the format's integer rounding.
WEIGHT_SCALE = 10.0
DEMAND_PRESCALE = 2e4


def _instance(family, n_target, tmp_path=None):
    """Build one (graph, demands) pair, optionally via a METIS file."""
    g = FAMILIES[family](n_target, SEED)
    d = random_demands(g.n, HIER.total_capacity, fill=0.6, skew=0.3, seed=SEED + 1)
    if tmp_path is not None:
        # Round-trip through the on-disk format: both methods then solve
        # the *read-back* instance, so the comparison stays apples to
        # apples under the integer quantisation.
        path = tmp_path / f"{family}_{n_target}.graph"
        write_metis(path, g, demands=d * DEMAND_PRESCALE, weight_scale=WEIGHT_SCALE)
        g, vw = read_metis(path)
        d = vw / (DEMAND_PRESCALE * WEIGHT_SCALE)
    return g, d


def _run_multilevel(g, d, coarsen_to=160):
    cfg = SolverConfig(
        seed=0,
        n_trees=4,
        multilevel=MultilevelConfig(enabled=True, coarsen_to=coarsen_to),
    )
    t0 = time.perf_counter()
    res = solve_multilevel(g, HIER, d, cfg)
    return time.perf_counter() - t0, res


def _run_flat(g, d):
    """Flat METIS-style k-way baseline, scored on the Eq. 1 objective."""
    t0 = time.perf_counter()
    labels = partition_kway(
        g, HIER.k, vertex_weights=d, seed=0, kl_polish_max_n=None
    )
    return time.perf_counter() - t0, float(eq1_cost(g, HIER, labels))


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _compare(family, n_target, table, points, meta, tmp_path=None):
    g, d = _instance(family, n_target, tmp_path=tmp_path)
    ml_s, res = _run_multilevel(g, d)
    flat_s, flat_cost = _run_flat(g, d)
    st = res.placement.meta["coarsen"]
    ratio = flat_cost / res.cost if res.cost > 0 else float("inf")

    table.add_row(
        [family, g.n, "multilevel", ml_s, res.cost, st["levels"],
         st["n_coarsest"], f"{st['shrink_factor']:.0f}x"]
    )
    table.add_row([family, g.n, "flat_kway", flat_s, flat_cost, 1, g.n, "1x"])
    points.append(
        {
            "sweep": f"{family}_multilevel",
            "n": g.n,
            "h": HIER.h,
            "grid_cells": None,
            "time_s": ml_s,
            "cost": res.cost,
            "levels": st["levels"],
            "coarsest_n": st["n_coarsest"],
            "report": res.report().to_dict(),
        }
    )
    points.append(
        {
            "sweep": f"{family}_flat",
            "n": g.n,
            "h": HIER.h,
            "grid_cells": None,
            "time_s": flat_s,
            "cost": flat_cost,
            "report": {"path": "flat", "cost": flat_cost, "spans": None,
                       "members": [], "meta": {"family": family, "n": g.n}},
        }
    )
    key = f"{family}_n{g.n}"
    meta[f"{key}_cost_ratio"] = ratio
    meta[f"{key}_levels"] = st["levels"]
    meta[f"{key}_shrink_factor"] = st["shrink_factor"]
    meta[f"{key}_ml_s"] = ml_s
    meta[f"{key}_flat_s"] = flat_s
    return ratio


def _experiment(tmp_path):
    table = Table(
        ["family", "n", "method", "time_s", "eq1_cost", "levels",
         "coarsest_n", "shrink"],
        title="E20: multilevel front-end vs flat METIS-style k-way",
    )
    points = []
    meta = {}
    ratios = [
        _compare("mesh3d", 10_000, table, points, meta),
        _compare("ba", 10_000, table, points, meta, tmp_path=tmp_path),
    ]
    meta["flat_over_multilevel_cost"] = min(ratios)
    meta["min_shrink_factor"] = min(
        v for k, v in meta.items() if k.endswith("_shrink_factor")
    )
    meta["min_levels"] = min(
        v for k, v in meta.items() if k.endswith("_levels")
    )
    meta["peak_rss_mib"] = _peak_rss_mib()
    return table, points, meta


def test_e20_multilevel_scale(benchmark, results_dir, tmp_path):
    table, points, meta = benchmark.pedantic(
        _experiment, args=(tmp_path,), rounds=1, iterations=1
    )
    save_result("E20_multilevel_scale", table.show(), results_dir)
    save_result_json(
        "BENCH_E20_multilevel_scale",
        {
            "experiment": "E20_multilevel_scale",
            "schema_version": 1,
            "meta": meta,
            "points": points,
        },
        results_dir,
    )
    # Acceptance (ISSUE 6): multilevel cost ≤ 1.1× flat, i.e.
    # flat/multilevel ≥ 1/1.1 ≈ 0.909.  Measured ~1.9 (mesh3d) and ~2.5
    # (ba) on the reference box — multilevel *beats* flat because the
    # uncoarsening refines the Eq. 1 objective directly.  CI re-gates
    # via --min-meta with the same floors.
    assert meta["flat_over_multilevel_cost"] >= 0.909, meta
    assert meta["min_shrink_factor"] >= 20.0, meta
    assert meta["min_levels"] >= 4, meta


@pytest.mark.big
def test_e20_big_comparison(results_dir, tmp_path):
    """``n = 10^5`` tier: the flat baseline is ~30–50× slower here, so
    this runs outside CI (``-m big``).  Quality bar is unchanged."""
    table = Table(
        ["family", "n", "method", "time_s", "eq1_cost", "levels",
         "coarsest_n", "shrink"],
        title="E20 (big): multilevel vs flat at n=1e5",
    )
    points, meta = [], {}
    ratios = [
        _compare("mesh3d", 100_000, table, points, meta),
        _compare("ba", 100_000, table, points, meta, tmp_path=tmp_path),
    ]
    save_result("E20_big_comparison", table.show(), results_dir)
    assert min(ratios) >= 0.909, meta


#: Memory ceiling for the million-vertex end-to-end run (MiB).  Measured
#: peak RSS ~2.5 GiB for mesh3d + ba in one process on the reference
#: box; the ceiling leaves ~2x headroom while still proving the front
#: end never materialises anything quadratic.
MILLION_VERTEX_RSS_CEILING_MIB = 6144.0


@pytest.mark.big
def test_e20_million_vertices(results_dir):
    """``n = 10^6`` end-to-end, single process, multilevel only (the
    flat baseline is intractable at this size — that is the point)."""
    table = Table(
        ["family", "n", "m", "time_s", "eq1_cost", "levels", "coarsest_n",
         "rss_mib"],
        title="E20 (big): million-vertex end-to-end",
    )
    for family in ("mesh3d", "ba"):
        g, d = _instance(family, 1_000_000)
        ml_s, res = _run_multilevel(g, d)
        st = res.placement.meta["coarsen"]
        assert res.placement.leaf_of.shape == (g.n,)
        # ba legitimately stalls above coarsen_to (the hub supervertex
        # rides the leaf-capacity cap), but the coarsest instance must
        # still be engine-sized: >=1000x shrink from a million vertices.
        assert st["shrink_factor"] >= 1000.0, st
        table.add_row(
            [family, g.n, g.m, ml_s, res.cost, st["levels"], st["n_coarsest"],
             f"{_peak_rss_mib():.0f}"]
        )
    save_result("E20_million_vertices", table.show(), results_dir)
    assert _peak_rss_mib() <= MILLION_VERTEX_RSS_CEILING_MIB
