"""gtflow benchmark: end-to-end and per-layer timings with an exact-answer gate.

    python3 bench/run.py --workload verify-all --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 1

Each iteration runs one workload in a fresh interpreter (bench/worker.py),
so library caches start cold every time and set-up cost is seen.  A run
repeats iterations, each followed by set-up-only interpreters, until
`--seconds` is spent (at least one iteration).  `wall_s` and `cpu_s` add up
each step's fastest time over the run's iterations, and `setup_s` is the
fastest set-up (see _fastest_pass).  With `--trace 1` untraced and traced
iterations alternate; the traced ones give the per-layer metrics and the
untraced ones the tracing overhead.

Every answer is checked against an independent oracle.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  The exit code is 1 when any check failed and 2, without a
result, when the gtflow sources are missing.  The full report (samples,
quartiles, host, spans) is written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402  (stdlib-only; gtflow is imported by the workers)

WORKLOADS = ("verify-all", "gt-ladder", "subdivision-ladder")
SETUP_SPAWNS = 2  # set-up-only interpreters after each iteration, besides its own set-up
RUN_LIMIT_S = 170  # a run never outlives this, whatever --seconds says

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = spans.PER_LAYER_UNITS


def _summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    def __init__(self, workload: str, seed: int, scale: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.deadline = deadline
        self.errors: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.env.pop("GTFLOW_CORPUS", None)  # always the built-in corpus

    def spawn(self, mode: str) -> dict | None:
        """One worker interpreter; None if it failed or ran out of time."""
        cmd = [
            sys.executable, str(BENCH / "worker.py"),
            "--workload", self.workload, "--seed", str(self.seed), "--scale", self.scale,
            "--mode", mode, "--workdir", str(OUT / "tmp"),
        ]
        timeout = max(1.0, self.deadline - time.perf_counter())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} worker exceeded {timeout:.0f} s")
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            self.errors.append(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def measure(self, seconds: float, trace: bool) -> dict:
        modes = ("run", "trace") if trace else ("run",)
        samples = {mode: [] for mode in modes}
        setups = []
        start = time.perf_counter()
        cycles = 0
        while not self.errors:
            for mode in modes + ("setup",) * SETUP_SPAWNS:
                res = self.spawn(mode)
                if res is None:
                    break
                if mode != "setup":
                    samples[mode].append(res)
                setups.append(res["setup_s"])
            cycles += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / cycles > seconds:
                break
        return {"setups": setups, **samples}


def _fastest_pass(runs: list[dict], key: str) -> float:
    """One pass of the workload at the host's best speed in this run: the
    sum over its steps of each step's fastest time over the iterations.

    The host only ever adds time (another tenant, a slower clock), and on
    the shared VM the benchmark was built on it swings between speeds up to
    ~1.7x apart for seconds to tens of seconds at a time.  A step's minimum
    over iterations spread across the run sees the fast speed; a median
    over whole passes sees whichever speed held longer in the run."""
    return sum(best[key] for best in _step_best(runs).values())


def _end_to_end(runs: list[dict], setups: list[float]) -> dict:
    wall = _fastest_pass(runs, "wall_s")
    checks = statistics.median(r["attempted"] - r["failed"] for r in runs)
    series = {
        "wall_s": [wall],
        "cpu_s": [_fastest_pass(runs, "cpu_s")],
        "setup_s": [min(setups)],  # fastest set-up, for the same reason
        "checks_per_s": [checks / wall],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    out = {name: {**_summary(vals), "unit": END_TO_END[name]} for name, vals in series.items()}
    # whole passes and every set-up, for the report only
    out["wall_s"]["passes"] = _summary([r["wall_s"] for r in runs])
    out["cpu_s"]["passes"] = _summary([r["cpu_s"] for r in runs])
    out["setup_s"]["samples"] = _summary(setups)
    return out


def _per_layer(traced: list[dict], runs: list[dict]) -> tuple[dict, bool]:
    """Counts from the first traced iteration, times as medians over all of
    them.  Also reports whether the counts repeated exactly."""
    layers = [t["trace"]["per_layer"] for t in traced]
    first = layers[0]
    repeat = True
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            values = [_fastest_pass(traced, "wall_s") / _fastest_pass(runs, "wall_s") - 1]
        elif unit == "s":
            values = [layer[name] for layer in layers]
        else:
            values = [first[name]]
            repeat &= all(layer[name] == first[name] for layer in layers)
        out[name] = {**_summary(values), "unit": unit}
    return out, repeat


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str, deadline: float) -> dict:
    runner = Runner(workload, seed, scale, deadline)
    m = runner.measure(seconds, trace)
    runs, traced = m["run"], m.get("trace", [])
    iterations = runs + traced
    attempted = sum(r["attempted"] for r in iterations)
    failed = sum(r["failed"] for r in iterations)
    if runner.errors:  # a worker that died or hung is a failed check
        attempted += len(runner.errors)
        failed += len(runner.errors)
    report = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "attempted": attempted,
        "failed": failed,
        "checks_failed_frac": failed / attempted if attempted else 1.0,
        "errors": runner.errors,
        "failures": [f for r in iterations for f in r["failures"]][:50],
        "end_to_end": _end_to_end(runs, m["setups"]) if runs else {},
        "step_best": _step_best(runs),
        "samples": {"setup_s": m["setups"], "run": [_strip(r) for r in runs], "trace": [_strip(t) for t in traced]},
    }
    report["correct"] = failed == 0 and bool(runs) and (bool(traced) or not trace)
    if trace and traced and runs:
        report["per_layer"], report["counts_repeat"] = _per_layer(traced, runs)
        t = traced[0]["trace"]
        report["trace"] = {"functions": t["functions"], "callers": t["callers"], "spans": t["spans"]}
        report["reanchor"] = {
            s["reanchor"]: s["end"] - s["start"] for s in t["spans"] if s.get("reanchor")
        }
    return report


def _step_best(runs: list[dict]) -> dict:
    """Each step's fastest wall and CPU time over the iterations."""
    best: dict[str, dict] = {}
    for r in runs:
        for step in r["steps"]:
            b = best.setdefault(step["name"], {"wall_s": step["wall_s"], "cpu_s": step["cpu_s"]})
            b["wall_s"] = min(b["wall_s"], step["wall_s"])
            b["cpu_s"] = min(b["cpu_s"], step["cpu_s"])
    return best


def _strip(sample: dict) -> dict:
    return {k: v for k, v in sample.items() if k not in ("trace", "failures")}


def _host(with_cpu_model: bool) -> dict:
    host = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }
    if with_cpu_model:
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    host["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        except OSError:
            pass
    return host


def _print_table(report: dict, trace: bool) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, {report['scale']})")
    rows = report.get("per_layer", {}) if trace else report["end_to_end"]
    for name, s in rows.items():
        print(f"  {name:58s} {s['median']:>14.6g} {s['unit']:6s} q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    print(
        f"  checks attempted={report['attempted']} failed={report['failed']} "
        f"checks_failed_frac={report['checks_failed_frac']:.6g} ratio"
    )
    if trace and "reanchor" in report:
        for label, secs in report["reanchor"].items():
            print(f"  re-anchor span {label}: {secs:.6g} s (traced)")
    for err in report["errors"]:
        print(f"  ERROR {err}")
    for f in report["failures"][:10]:
        print(f"  FAILED {json.dumps(f)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "gtflow" / "__init__.py").is_file():
        print(f"gtflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        deadline = time.perf_counter() + RUN_LIMIT_S
        reports[name] = run_workload(name, args.seed, args.seconds, trace, args.scale, deadline)
        _print_table(reports[name], trace)

    key = "per_layer" if trace else "end_to_end"
    metrics = {}
    for name, rep in reports.items():
        prefix = "" if len(reports) == 1 else f"{name}."
        for metric, s in rep.get(key, {}).items():
            metrics[prefix + metric] = {"value": s["median"], "unit": s["unit"]}
    result = {
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }
    full = {
        "host": _host(with_cpu_model=len(reports) > 1),
        "args": vars(args),
        "workloads": reports,
        "result": result,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}.json"
    path.write_text(json.dumps(full, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
