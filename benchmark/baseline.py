"""Run the benchmark over many seeds and summarise each metric's spread.

    python3 benchmark/baseline.py --seeds 1-10 --out benchmark/baseline.json
    python3 benchmark/baseline.py --seeds 1-2 --trace 1 --out benchmark/baseline.json
    python3 benchmark/baseline.py --seeds 11-20 --suffix _repeat --out benchmark/baseline.json
    python3 benchmark/baseline.py --workloads spectrum --seeds 1-5 --trace 0

For every workload and metric it records the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  The output also records the machine:
CPU count and model, Python, numpy and mpmath versions, and the BLAS
library with its thread setting.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def environment() -> dict:
    import mpmath
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*.so*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "runtime_threads": threads,
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float], bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
           "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", default="0", help="0, 1 or 0,1")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write the summary here as JSON, updating what it holds")
    parser.add_argument("--suffix", default="", help="store each set under trace<k><suffix>")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"workloads": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            summary = json.load(fh)
    summary["environment"] = environment()
    for workload in args.workloads.split(","):
        for trace in (int(t) for t in args.trace.split(",")):
            runs = []
            for seed in parse_seeds(args.seeds):
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return proc.returncode
                runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
                print(workload, trace, seed, json.dumps(
                    {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()
                     if k in bounds or trace}), flush=True)
            names = sorted({k for run in runs for k in run["metrics"]})
            key = f"trace{trace}{args.suffix}"
            summary["workloads"].setdefault(workload, {})[key] = {
                "seeds": args.seeds,
                "run_seconds": args.seconds,
                "correct": all(run["correct"] for run in runs),
                "attempted": sum(run["attempted"] for run in runs),
                "failed": sum(run["failed"] for run in runs),
                "metrics": {
                    name: summarise([run["metrics"][name]["value"] for run in runs
                                     if name in run["metrics"]], bounds.get(name))
                    for name in names
                },
            }
            for name, s in summary["workloads"][workload][key]["metrics"].items():
                if name in bounds:
                    print(f"  {workload} {name}: median {s['median']:.6g} spread {s['spread']:.4f}"
                          f" (bound {bounds[name]})", flush=True)
            if args.out:
                with open(args.out, "w") as fh:
                    json.dump(summary, fh, indent=1)
                    fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
