"""E21 — reference checksums and timings of the six hot loops.

The solver's innermost loops are plain module-level functions: Dinic's
level BFS and blocking flow (:mod:`repro.flow.maxflow`), the DP tile
merge and dominance scan (:mod:`repro.hgpt.dp`), the Laplacian matvec
of the Fiedler power iteration (``lap @ x``, :mod:`repro.graph.spectral`)
and heavy-edge matching (:mod:`repro.decomposition.contraction`).  This
experiment runs each on a fixed representative input and records a
deterministic checksum of its output as the point's gated "cost", plus
the E18 ``h=3`` deep-hierarchy DP end to end.

``tools/bench_regress.py`` gates those checksums hard against the
checked-in ``BENCH_E21_kernels.json``, so any change to a loop's
arithmetic or iteration order fails the run; the timings (best of
``repeat``, in ``meta`` and each point's ``time_s``) are warn-only.
"""

from __future__ import annotations

import time

import numpy as np

from repro import Hierarchy
from repro.bench import Table, save_result, save_result_json
from repro.core.telemetry import MemberRecord, Telemetry
from repro.decomposition.contraction import _heavy_edge_match
from repro.decomposition.spectral_tree import spectral_decomposition_tree
from repro.flow.maxflow import _blocking_flow, _bfs_levels
from repro.graph.generators import (
    barabasi_albert,
    planted_partition,
    random_demands,
)
from repro.hgpt.binarize import binarize
from repro.hgpt.dp import DPStats, _dominance_scan, _tile_merge, solve_rhgpt
from repro.hgpt.quantize import DemandGrid
from repro.obs.exporter import maybe_start_from_env

SEED = 21

#: The E18 h=3 point — the deep-hierarchy regime of the DP loops.
E2E_HIER = Hierarchy([2, 2, 2], [8.0, 4.0, 1.0, 0.0])
E2E_BUDGET = 144

_pc = time.perf_counter


# ----------------------------------------------------------------------
# microbench inputs (deterministic; sized so python-side work dominates)
# ----------------------------------------------------------------------


def _dinic_instance():
    """A paired-arc residual network from a clustered graph."""
    g = planted_partition(8, 40, 0.3, 0.03, seed=2)
    heads, tails, caps = [], [], []
    for u, v, w in g.iter_edges():
        heads += [int(v), int(u)]
        tails += [int(u), int(v)]
        caps += [float(w), float(w)]
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    caps = np.asarray(caps, dtype=np.float64)
    arc_ids = np.argsort(tails, kind="stable").astype(np.int64)
    arc_indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=g.n), out=arc_indptr[1:])
    return g.n, heads, caps, arc_indptr, arc_ids, 0, g.n - 1


def _bench_dinic(inst, repeat=3):
    """Full Dinic on ``inst``; returns per-loop times and the flow value."""
    _n, heads, caps0, arc_indptr, arc_ids, s, t = inst
    best_bfs = best_blk = float("inf")
    total = 0.0
    for _ in range(repeat):
        caps = caps0.copy()
        bfs_s = blk_s = 0.0
        total = 0.0
        while True:
            t0 = _pc()
            level = _bfs_levels(heads, caps, arc_indptr, arc_ids, s)
            bfs_s += _pc() - t0
            if level[t] < 0:
                break
            t0 = _pc()
            total += _blocking_flow(heads, caps, arc_indptr, arc_ids, level, s, t)
            blk_s += _pc() - t0
        best_bfs = min(best_bfs, bfs_s)
        best_blk = min(best_blk, blk_s)
    return best_bfs, best_blk, float(total)


def _tile_instance():
    rng = np.random.default_rng(3)
    na = nb = 400
    h = 3
    pa_sig = rng.integers(0, 30, size=(na, h)).astype(np.int64)
    pb_sig = rng.integers(0, 30, size=(nb, h)).astype(np.int64)
    pa_cost = rng.uniform(0.0, 50.0, size=na)
    pb_cost = rng.uniform(0.0, 50.0, size=nb)
    caps = np.asarray([45, 40, 35], dtype=np.int64)
    return pa_sig, pa_cost, pb_sig, pb_cost, caps, 0, na * nb, float("inf")


def _prune_instance():
    rng = np.random.default_rng(4)
    m, h = 20_000, 3
    sigs = rng.integers(0, 16, size=(m, h)).astype(np.int64)
    costs = rng.uniform(0.0, 100.0, size=m)
    order = np.lexsort(tuple(sigs[:, i] for i in range(h - 1, -1, -1)) + (costs,))
    return sigs, costs, order, None


def _matvec_instance():
    g = barabasi_albert(2000, 4, weight_range=(0.5, 2.0), seed=5)
    lap = g.to_scipy_sparse().tocsr()
    x = np.random.default_rng(6).uniform(-1.0, 1.0, size=g.n)
    return lap, x


def _hem_instance():
    g = barabasi_albert(5000, 4, weight_range=(0.5, 2.0), seed=7)
    tie = np.random.default_rng(8).permutation(g.n).astype(np.int64)
    fits = np.ones(g.indices.size, dtype=bool)
    return g.n, g.indptr, g.indices, g.adj_weights, tie, fits, 8


def _time_best(fn, repeat=3):
    best, out = float("inf"), None
    for _ in range(repeat):
        t0 = _pc()
        out = fn()
        best = min(best, _pc() - t0)
    return best, out


def _e2e_instance():
    g = planted_partition(6, 6, 0.6, 0.05, seed=1)
    hier = E2E_HIER
    d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.5, seed=3)
    grid = DemandGrid.from_budget(hier, d, E2E_BUDGET, slack=0.25)
    bt = binarize(spectral_decomposition_tree(g, seed=0), grid.quantize(d))
    caps = [grid.caps[j] for j in range(1, hier.h + 1)]
    norm, _ = hier.normalized()
    deltas = [0.0] + [norm.cm[k - 1] - norm.cm[k] for k in range(1, hier.h + 1)]
    return g.n, bt, caps, deltas


def _point(sweep, n, secs, cost):
    tel = Telemetry("bench")
    tel.add_seconds("kernel", secs, 1)
    return {
        "sweep": sweep,
        "n": n,
        "h": 0,
        "grid_cells": 0,
        "time_s": secs,
        "report": tel.report(config={"sweep": sweep}, cost=float(cost)).to_dict(),
    }


def _experiment():
    exporter = maybe_start_from_env()
    try:
        return _experiment_body()
    finally:
        if exporter is not None:
            exporter.stop()


def _experiment_body():
    table = Table(
        ["kernel", "n", "time_s", "checksum"],
        title="E21: hot-loop reference checksums",
    )
    points = []
    meta = {}

    # --- Dinic (two loops share one instance) -------------------------
    dinic = _dinic_instance()
    bfs_s, blk_s, flow = _bench_dinic(dinic)
    for kernel, secs in (
        ("dinic_bfs_levels", bfs_s),
        ("dinic_blocking_flow", blk_s),
    ):
        meta[f"{kernel}_s"] = secs
        table.add_row([kernel, dinic[0], secs, flow])
        points.append(_point(f"kernel_{kernel}", dinic[0], secs, flow))

    # --- the four single-call loops -----------------------------------
    tile = _tile_instance()
    prune = _prune_instance()
    lap, x = _matvec_instance()
    hem = _hem_instance()
    single = (
        (
            "dp_tile_merge",
            tile[0].shape[0] * tile[2].shape[0],
            lambda: _tile_merge(*tile),
            lambda out: float(out[1].sum()) + float(out[5]),
        ),
        (
            "dp_dominance_prune",
            prune[0].shape[0],
            lambda: _dominance_scan(*prune),
            lambda out: float(out[0].sum()),
        ),
        (
            "csr_matvec",
            x.shape[0],
            lambda: lap @ x,
            lambda out: float(out.sum()),
        ),
        (
            "heavy_edge_match",
            hem[0],
            lambda: _heavy_edge_match(*hem[1:]),
            lambda out: float(((out + 1) * np.arange(1, out.size + 1)).sum()),
        ),
    )
    for kernel, n, run, checksum in single:
        secs, out = _time_best(run)
        meta[f"{kernel}_s"] = secs
        table.add_row([kernel, n, secs, checksum(out)])
        points.append(_point(f"kernel_{kernel}", n, secs, checksum(out)))

    # --- end-to-end: the E18 h=3 DP -----------------------------------
    n, bt, caps, deltas = _e2e_instance()

    def solve():
        stats = DPStats()
        t0 = _pc()
        sol = solve_rhgpt(bt, caps, deltas, stats=stats)
        return _pc() - t0, sol, stats

    solve()  # warm process caches
    e2e_s, sol, stats = solve()
    meta["e2e_s"] = e2e_s
    table.add_row(["e2e_dp_h3", n, e2e_s, sol.cost])
    tel = Telemetry("bench")
    tel.add_seconds("dp", e2e_s, 1)
    tel.record_member(
        MemberRecord(
            index=0,
            method="spectral",
            dp_cost=float(sol.cost),
            dp_seconds=e2e_s,
            dp_nodes=stats.nodes,
            dp_states_total=stats.states_total,
            dp_states_max=stats.states_max,
            dp_merges=stats.merges,
            dp_tiles=stats.tiles,
            dp_bound_pruned=stats.bound_pruned,
            dp_table_peak_bytes=stats.table_peak_bytes,
        )
    )
    points.append(
        {
            "sweep": "e2e_python",
            "n": n,
            "h": E2E_HIER.h,
            "grid_cells": E2E_BUDGET,
            "time_s": e2e_s,
            "report": tel.report(config={"sweep": "e2e_python"}).to_dict(),
        }
    )
    return table, points, meta


def test_e21_kernels(benchmark, results_dir):
    table, points, meta = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    save_result("E21_kernels", table.show(), results_dir)
    save_result_json(
        "BENCH_E21_kernels",
        {
            "experiment": "E21_kernels",
            "schema_version": 1,
            "meta": meta,
            "points": points,
        },
        results_dir,
    )
