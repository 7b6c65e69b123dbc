"""One benchmark iteration in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N --scale full|tiny \
        --mode setup|run|trace --workdir DIR

`setup` imports gtflow and builds the workload's inputs, then stops.  `run`
also executes every step untraced and gates each answer; `trace` does the
same with the library wrapped by spans.Tracer.  The last line of standard
output is one JSON object with the iteration's measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

_T0 = time.perf_counter()  # before gtflow is imported: set-up starts here


def execute(steps, tracer=None) -> dict:
    """Run the steps in order and gate every answer.  A step that raises
    fails all the checks it declared."""
    attempted = failed = 0
    failures = []
    times = []  # per step: wall and CPU seconds, oracle included
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for step in steps:
        span = tracer.step(step.name, step.reanchor) if tracer else nullcontext()
        step_cpu0 = time.process_time()
        step_wall0 = time.perf_counter()
        try:
            with span:
                checks = step.run()
        except Exception as exc:  # the gate counts it; the run goes on
            attempted += step.checks
            failed += step.checks
            failures.append({"step": step.name, "error": "".join(traceback.format_exception_only(exc)).strip()})
            continue
        finally:
            times.append(
                {
                    "name": step.name,
                    "wall_s": time.perf_counter() - step_wall0,
                    "cpu_s": time.process_time() - step_cpu0,
                }
            )
        for label, expected, actual in checks:
            attempted += 1
            if expected != actual:
                failed += 1
                failures.append({"step": step.name, "check": label, "expected": str(expected), "actual": str(actual)})
    return {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "steps": times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import spans
    import workloads

    steps = workloads.build(args.workload, args.seed, args.scale, Path(args.workdir))
    out = {"setup_s": time.perf_counter() - _T0}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            tracer = spans.Tracer(f"{args.workload}/seed{args.seed}/pid{os.getpid()}")
            tracer.install()
        out.update(execute(steps, tracer))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            totals = tracer.layer_totals()
            out["trace"] = {
                "per_layer": spans.per_layer_metrics(totals, tracer.stats),
                "functions": totals,
                "callers": tracer.callers(),
                "spans": tracer.spans,
            }
    sys.stdout.write("\n" + json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
