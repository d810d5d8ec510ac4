"""One pass of one workload, in a process of its own so every cache starts empty.

    python3 benchmark/worker.py --workload exact --seed 1 --seconds 20
    python3 benchmark/worker.py --workload exact --seed 1 --ops 12 --trace-out spans.jsonl

A closed loop with one caller: each operation starts when the previous one
has been checked.  The pass runs operations until ``--seconds`` of wall time
have passed and a whole round of the workload's schedule is done, or exactly
``--ops`` operations.  Only the calls into the package are timed; input
generation and the correctness checks are not.  Prints one JSON object on
stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from time import perf_counter

from inputs import ROUND, WORKLOADS, generate
from tracing import NullTracer, Tracer, layer_metrics
from workloads import OPS, RunState, after_op, load_references


def run_pass(workload: str, seed: int, seconds: float | None, ops: int | None,
             tracer, refs: dict) -> dict:
    op, check = OPS[workload]
    state = RunState(tracer)
    latencies: list[float] = []
    failures: list[dict] = []
    stream = generate(workload, seed)
    start = perf_counter()
    while (len(latencies) < ops if ops is not None
           else len(latencies) % ROUND[workload] or perf_counter() - start < seconds):
        inp = next(stream)
        out = None
        with tracer.op(inp.index):
            t0 = perf_counter()
            try:
                out = op(inp, state)
                problems = None
            except Exception as exc:  # an unpredicted exception is a failed operation
                problems = [f"raised {type(exc).__name__}: {exc}"]
            latencies.append(perf_counter() - t0)
        if problems is None:
            try:
                problems = check(inp, out, refs)
            except Exception as exc:  # an answer of the wrong shape
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"index": inp.index, "source": inp.source, "problems": problems})
        after_op(workload, inp, out, state, refs)
    return {
        "latencies": latencies,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "evaluations": state.evaluations,
        "a_values": state.a_values,
        "counts": {
            "evaluations": sum(state.evaluations),
            "a_mean": statistics.fmean(state.a_values) if state.a_values else 0.0,
            "verdicts": state.verdicts,
            "canon_free": state.canon_free,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--ops", type=int)
    parser.add_argument("--trace-out", help="trace the pass and write its spans here")
    args = parser.parse_args(argv)

    refs = load_references()
    tracer = Tracer() if args.trace_out else NullTracer()
    if args.trace_out:
        tracer.install()
    result = run_pass(args.workload, args.seed, args.seconds, args.ops, tracer, refs)
    if args.trace_out:
        result["layers"] = layer_metrics(tracer, result["counts"])
        result["missing"] = tracer.missing
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
