"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics (``BENCHMARK.json``'s
``end_to_end``).  ``--trace 1`` runs the workload once untraced and then
replays the same operations with every layer entry point wrapped
(:mod:`tracer`), and prints the per-layer ledger, the tracing overhead
and the ``per_layer`` metrics.  The last stdout line is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Times of the end-to-end metrics are CPU seconds (user plus system, of
every thread of the process and of the pool workers it reaped), not wall
seconds, scaled to a reference core by :mod:`speed`.  The benchmark runs
on a few cores of a shared host: there, a solve's wall time moved by 60%
with the load of other tenants while its CPU time moved by 4%, and the
core's own speed switched between two levels 50% apart every few
seconds, which the scaling takes out in part.  The program runs
single-threaded (BLAS pinned to one thread) and in one process except in
serve, whose pool workers are counted too, so on an idle machine the CPU
seconds of an operation are close to its wall seconds; a change that
only overlaps work or waits less does not show in them.  Wall times, serve's request latency among
them, are per-layer metrics (``wall.op_p50_s``, ``wall.op_p90_s``), and
so is the throughput ``ops_per_cpu_s``.

End-to-end metrics (every workload reports all of them):

``setup_s``       median over ``SETUP_REPS`` fresh interpreters of the
                  CPU seconds from start-up to the first timed
                  operation: imports, instance generation and a warm-up
                  solve (lazy imports); initial arrivals and the first
                  reoptimize (churn); server start, the first pool fork
                  and the warm-up workers' CPU (serve).  All but the
                  last run as set-up-only child processes before the
                  measured one.
``op_cpu_s``      CPU seconds of one timed operation: the median over
                  ``solve_hgp`` calls (cold-solve, multilevel) or
                  ``reoptimize()`` calls (churn); the CPU of the server
                  process and its pool workers over the whole request
                  schedule, divided by the requests (serve).
``cost_ratio_gmean`` geometric mean of the Eq. 1 cost divided by the
                  Eq. 1 cost of the index-order placement (vertex i on
                  leaf i * k // n) of the same instance, over the
                  results every run completes: the first 9 solves
                  (cold-solve), 3 solves (multilevel), the re-solves of
                  the first 8 reoptimize() calls (churn), each distinct
                  payload once (serve).  Lower is better.
``max_violation`` worst leaf load over leaf capacity over the placements
                  of those results.
``peak_rss_mb``   peak resident memory of this process.
``ok_rate``       1 - failed / attempted; a failure is an exception, a
                  non-200 response, a degraded run or a failed
                  certificate check.

``--tiny`` shrinks every instance (self-tests only); ``--setup-only`` sets
up once and prints the CPU seconds it took (the ``setup_s`` child runs).  A
traced run also writes its spans to
``.perfbench_out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP_ROOT = ROOT / ".perfbench_tmp"
TMP = TMP_ROOT / str(os.getpid())
#: Where a traced run writes its spans.
SPANS_DIR = ROOT / ".perfbench_out"

#: Set-ups per run, each in a fresh interpreter (``setup_s`` is their
#: median).
SETUP_REPS = 3


def pin_environment() -> None:
    """Make the measured program independent of the caller's shell.

    Every ``REPRO_*`` variable selects program behaviour (cache dir,
    cache off, byte budget, incremental mode, kernel backend, fault
    injection, report dir, metrics port, ...), so all are removed.
    The BLAS library runs one thread: its idle threads spin, which adds
    CPU seconds that depend on the load of the host.  Worker spool files
    go to a directory inside the checkout.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP)
    tempfile.tempdir = str(TMP)


def quantile(xs, q):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[int(q * 100) - 1]


def setup_samples(args):
    """Set-up seconds of ``SETUP_REPS - 1`` set-up-only child runs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ] + (["--tiny"] if args.tiny else [])
    out = []
    for _ in range(SETUP_REPS - 1):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up-only run failed:\n{proc.stderr[-3000:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def end_to_end(res, setups):
    from speed import scale  # numpy: after pin_environment()

    costs = [c for c in res["costs"] if c > 0]
    k = scale(res["probes"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_cpu_s": (res["cpu_per_op"] * k, "s"),
        "cost_ratio_gmean": (
            math.exp(statistics.fmean(map(math.log, costs))) if costs else 0.0,
            "ratio",
        ),
        "max_violation": (max(res["violations"], default=0.0), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
        "ok_rate": (1.0 - res["failed"] / max(1, res["attempted"]), "ratio"),
    }


def unit_of(name: str) -> str:
    if name == "ops_per_cpu_s":
        return "1/s"
    if name.endswith(".s") or name.endswith("_s") or name.endswith("_s_max"):
        return "s"
    if name.endswith("_ratio") or name.endswith(".hit_ratio"):
        return "ratio"
    return "count"


def traced(workload, fn, args):
    """Untraced pass, then the same operations traced; the ledger."""
    plain = fn(args.seed, args.seconds, args.size)
    from speed import scale
    from tracer import SPAN_LAYERS, Tracer

    tracer = Tracer()
    res = fn(args.seed, args.seconds, args.size, tracer=tracer, n_ops=plain["n_ops"])
    layers, closes, wall = tracer.ledger()
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{workload}-{args.seed}.json"
    fields = ("id", "name", "start", "end", "parent", "op")
    spans_file.write_text(json.dumps([dict(zip(fields, sp)) for sp in tracer.spans]))
    layers.update(res["layers"])
    layers["wall.op_p50_s"] = statistics.median(plain["op_s"])
    layers["wall.op_p90_s"] = quantile(plain["op_s"], 0.9)
    # Work per CPU second: solves (cold-solve, multilevel), events plus
    # re-solves (churn), 200 responses within the latency limit (serve).
    # A mean, so slow stretches of the host move it more than the median
    # op_cpu_s; it has no bound.
    layers["ops_per_cpu_s"] = (
        plain["work"] / (plain["work_cpu"] * scale(plain["probes"]))
        if plain["work_cpu"] else 0.0
    )
    layers["serve.solve.s"] = tracer.inclusive("engine") if workload == "serve" else 0.0
    for key in ("serve.coalesced_ratio", "serve.cache_hit_ratio", "serve.sheds",
                "loadgen.late_s_max", "online.incremental_ratio", "online.migrations"):
        layers.setdefault(key, 0.0)
    base = sum(plain["op_s"])
    layers["trace.overhead_s"] = sum(res["op_s"]) - base
    layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / base if base else 0.0

    print(f"ledger for {workload} ({res['n_ops']} operations, traced; spans in {spans_file}):")
    self_keys = [f"{name}.s" for name in SPAN_LAYERS] + ["engine.unattributed.s"]
    for key in sorted(k for k in self_keys if layers[k]):
        share = layers[key] / wall if wall else 0.0
        print(f"  {key:32s} {layers[key]:10.4f} s  {share:6.1%}")
    for key in ("serve.solve.s", "serve.admission_wait.s"):
        if layers[key]:
            print(f"  {key:32s} {layers[key]:10.4f} s  (not a self time)")
    print(f"  {'sum of self times':32s} {layers['ledger.self_sum_s']:10.4f} s")
    print(f"  {'traced wall (root spans)':32s} {wall:10.4f} s  closes={closes}")
    print(
        f"  tracing overhead {layers['trace.overhead_s']:+.4f} s "
        f"({layers['trace.overhead_ratio']:+.1%} of {base:.4f} s untraced)"
    )
    res["attempted"] += plain["attempted"]
    res["failed"] += plain["failed"]
    res["failures"] += plain["failures"]
    metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
    return res, metrics, closes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    args.size = "tiny" if args.tiny else "full"

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from speed import scale
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    # CPU seconds since the interpreter started: start-up and imports.
    import_cpu = time.process_time()
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    fn = workloads.WORKLOADS[args.workload]
    try:
        if args.setup_only:
            res = fn(args.seed, args.seconds, args.size, n_ops=0)
            print((import_cpu + res["setup_cpu"]) * scale(res["probes"]))
            return 0
        if args.trace:
            res, metrics, closes = traced(args.workload, fn, args)
        else:
            setups = setup_samples(args)
            res = fn(args.seed, args.seconds, args.size)
            setups.append((import_cpu + res["setup_cpu"]) * scale(res["probes"]))
            metrics, closes = end_to_end(res, setups), True
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass
    for failure in res["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not closes:
        print("FAILED the ledger does not close", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0 and closes,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {
                    k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
