"""Time the ROADMAP re-anchor instances once each, traced, with the gate.

    python3 bench/reanchor.py

They are single calls of 1-12 s: too long for a timed workload to hold
enough of them for a steady fastest time (bench/NOTES.md), so no workload
runs them.  Their traced spans are kept in the baseline for later changes
to cite.  The last line of standard output is one JSON object: the span
time of each instance by its re-anchor label, and the gate's counts.  The
exit code is 1 when a check failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import Step, _one  # noqa: E402

from gtflow import combinat, flow, gt, subdivision  # noqa: E402

HUGE = (10, 8, 6, 4, 2, 0)
STAIRCASE5 = (4, 3, 2, 1, 0)
STAIRCASE6 = (5, 4, 3, 2, 1, 0)


def steps() -> list[Step]:
    net = gt.build_G_lambda(HUGE).network
    me = gt.gt_embedding(STAIRCASE5)

    def full_check():
        report = subdivision.full_subdivision_check(me)
        return [
            ("cell pairing ok", True, report.ok),
            ("cells = staircase shSYT count", oracles.staircase_shsyt_count(5), report.cells),
            ("total cell volume", oracles.gt_volume(STAIRCASE5), report.total_volume),
        ]

    return [
        _one(
            "flow.kostant(G_lambda(10,8,6,4,2,0))",
            lambda: oracles.weyl_dimension(HUGE),
            lambda: flow.kostant(net),
            reanchor="kostant(G_lambda(10,8,6,4,2,0))",
        ),
        _one(
            "combinat.enumerate_shsyt(6)",
            lambda: oracles.staircase_shsyt_count(6),
            lambda: len(combinat.enumerate_shsyt(6)),
            reanchor="enumerate_shsyt(6)",
        ),
        _one(
            "gt.gt_volume_lidskii(5,4,3,2,1,0)",
            lambda: oracles.gt_volume(STAIRCASE6),
            lambda: gt.gt_volume_lidskii(STAIRCASE6),
            reanchor="gt_volume_lidskii(5,4,3,2,1,0)",
        ),
        Step(
            "subdivision.full_subdivision_check(gt_embedding(4,3,2,1,0))",
            full_check,
            3,
            reanchor="full_subdivision_check(gt_embedding((4,3,2,1,0)))",
        ),
    ]


def main() -> int:
    tracer = spans.Tracer("reanchor")
    tracer.install()
    res = worker.execute(steps(), tracer)
    out = {
        "reanchor": {s["reanchor"]: s["end"] - s["start"] for s in tracer.spans if s.get("reanchor")},
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
    }
    print(json.dumps(out))
    return 1 if res["failed"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
