"""Benchmark for rbdesign: exact algebra, canonical labeling, annealing and
irrational spectra, end to end and per layer.

    python3 benchmark/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; nothing needs building.  Each run
measures set-up (cold processes that import the package and run the
``catalog`` verb), then runs the workload in a fresh worker process for
``--seconds``.  With ``--trace 1`` the untraced pass gets half of
``--seconds``, a second fresh worker replays the same operations with spans
around the package's layer boundaries, and the run reports per-layer
metrics instead of end-to-end ones; a traced run thus takes about as long
as an untraced one.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  A report
with every latency and failure goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_RUNS = 5
#: a run ends, with an error and no result, this long after it started
RUN_BUDGET_S = 170

#: a cold process: import the package, run the catalog verb, report both
#: times; its stdout ends with one JSON line
SETUP_PROBE = """
import io, json, time
t0 = time.perf_counter()
from rbdesign import cli
t1 = time.perf_counter()
out = io.StringIO()
code = cli.run(["catalog"], out=out)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "catalog_s": t2 - t1, "code": code,
                  "lines": len(out.getvalue().splitlines())}))
"""
CATALOG_SIZE = 50


def _env() -> dict:
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), HERE]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run a Python child to completion, killing it at the deadline; its
    parsed last stdout line and its wall time from start to exit."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=max(deadline - t0, 1.0))
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def measure_setup(deadline: float) -> tuple[list[dict], bool]:
    """SETUP_RUNS cold processes after one warm-up (which also fills the
    bytecode cache of a fresh checkout)."""
    _child(["-c", SETUP_PROBE], deadline)
    probes = []
    for _ in range(SETUP_RUNS):
        probe, wall = _child(["-c", SETUP_PROBE], deadline)
        probe["wall_s"] = wall
        probes.append(probe)
    ok = all(p["code"] == 0 and p["lines"] == CATALOG_SIZE for p in probes)
    return probes, ok


def tail(latencies: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(latencies)
    ordered = sorted(latencies)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)  # samples at or below the percentile
        if n - rank >= 10:
            return {"percentile": pct, "samples": n, "value_s": ordered[rank - 1]}
    return None


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rbdesign", "__init__.py")):
        print("benchmark: no package source at src/rbdesign; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_BUDGET_S
    setup, setup_ok = measure_setup(deadline)
    worker = [os.path.join(HERE, "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    untraced, _ = _child([*worker, "--seconds", str(args.seconds / (2 if args.trace else 1))], deadline)
    passes = [untraced]
    lat = untraced["latencies"]
    ops_per_s = len(lat) / sum(lat)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    report = {"args": vars(args), "setup": setup, "untraced": untraced, "op_tail": tail(lat)}

    if args.trace:
        traced, _ = _child([*worker, "--ops", str(len(lat)), "--trace-out", stem + ".spans.jsonl"], deadline)
        passes.append(traced)
        report["traced"] = traced
        if traced["missing"]:
            print("benchmark: boundaries missing, their layer metrics left out: "
                  + ", ".join(traced["missing"]), file=sys.stderr)
        values = dict(traced["layers"])
        values["setup.import_s"] = statistics.median(p["import_s"] for p in setup)
        values["setup.catalog_s"] = statistics.median(p["catalog_s"] for p in setup)
        values["trace.overhead_ratio"] = ops_per_s / (len(lat) / sum(traced["latencies"]))
    else:
        values = {
            "setup_s": statistics.median(p["wall_s"] for p in setup),
            "ops_per_s": ops_per_s,
            "op_p50_s": statistics.median(lat),
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
    report["values"] = values
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    for p in passes:
        for failure in p["failures"][:5]:
            print(f"benchmark: op {failure['index']} ({failure['source']}) failed: "
                  + "; ".join(failure["problems"]), file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and setup_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
