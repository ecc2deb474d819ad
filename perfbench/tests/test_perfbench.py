"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from certify import certify, eq1_cost  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, section):
    res = result_of(
        run_bench(
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--tiny",
        )
    )
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    proc = run_bench(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _solved():
    from repro import Hierarchy, SolverConfig, solve_hgp
    from repro.graph.generators import planted_partition, random_demands

    hier = Hierarchy([2, 4], [10.0, 3.0, 0.0])
    g = planted_partition(4, 6, 0.8, 0.1, seed=5)
    d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.3, seed=5)
    res = solve_hgp(g, hier, d, SolverConfig(n_trees=2))
    return g, hier, d, res


def test_certificate_passes_a_solver_result():
    g, hier, d, res = _solved()
    leaf = res.placement.leaf_of
    assert certify(g, hier, d, leaf, res.cost, res.grid.epsilon) == []


def test_certificate_catches_one_moved_leaf():
    g, hier, d, res = _solved()
    leaf = res.placement.leaf_of.copy()
    v = int(np.argmax(np.bincount(g.edges_u, minlength=g.n)))
    # Another root child: every edge of v now crosses at the root.
    leaf[v] = (leaf[v] + hier.k // 2) % hier.k
    assert "eq1_cost" in certify(g, hier, d, leaf, res.cost, res.grid.epsilon)


def test_certificate_catches_unplaced_and_overloaded():
    g, hier, d, res = _solved()
    leaf = res.placement.leaf_of.copy()
    leaf[0] = hier.k
    assert certify(g, hier, d, leaf, res.cost, res.grid.epsilon) == ["placed"]
    crowded = np.zeros(g.n, dtype=np.int64)
    cost = eq1_cost(g.edges_u, g.edges_v, g.edges_w, hier.degrees, hier.cm, crowded)
    assert certify(g, hier, d, crowded, cost, res.grid.epsilon) == ["violation"]


def test_eq1_recompute_matches_placement_cost():
    from repro.hierarchy.placement import Placement

    g, hier, d, _res = _solved()
    rng = np.random.default_rng(0)
    for _ in range(20):
        leaf = rng.integers(0, hier.k, size=g.n)
        ref = Placement(g, hier, d, leaf).cost()
        got = eq1_cost(g.edges_u, g.edges_v, g.edges_w, hier.degrees, hier.cm, leaf)
        assert got == pytest.approx(ref, rel=1e-12)


def test_predictions_name_existing_metrics_and_workloads():
    pred = json.loads((BENCH / "predictions.json").read_text())
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for row in pred["layers"]:
        assert set(row["per_layer"]) <= per_layer, row["layer"]
        assert set(row["moves"]) <= end_to_end, row["layer"]
        named = {w for ws in row["moves"].values() for w in ws} | set(row["unchanged"])
        assert named <= set(WORKLOADS), row["layer"]
        assert not set(row["unchanged"]) & {w for ws in row["moves"].values() for w in ws}
