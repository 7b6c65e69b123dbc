"""The benchmark's three workloads.

`build(workload, seed, scale, workdir)` is the set-up: it draws the
workload's instances from the seed and builds their inputs (corpus,
G_lambda networks, embeddings).  It returns the steps.  A
step calls into gtflow and returns (check, expected, actual) triples; every
expected value comes from an oracle independent of the code it checks.

Seed 0 holds the ROADMAP.md re-anchor instances that fit a workload
(reanchor.py times the others).  Other seeds draw from the same size class
(same n, same cell count) out of the families below, chosen so that runs
with different seeds do comparable work.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
from gtflow import cli, combinat, corpus, flow, gt, poset, subdivision

# gt-ladder, n = 5: the four arrangements of gap vector (2,1,1,1).  Through
# all seven routes their fastest times agreed within 3%; the staircase
# (4,3,2,1,0) took 6% less, which would add to the spread over seeds.
GT5_FAMILY = ((5, 3, 2, 1, 0), (5, 4, 2, 1, 0), (5, 4, 3, 1, 0), (5, 4, 3, 2, 0))

# gt-ladder's one large DP, the same at every seed: 1 137 500 flows.  The
# 14 348 907-flow re-anchor DP on (10,8,6,4,2,0) takes 1-1.5 s, too long a
# step for a run to catch its fastest time; bench/reanchor.py times it.
LARGE = (8, 6, 5, 3, 2, 0)

# subdivision-ladder: n = 4 GT embeddings, 12 cells each, from staircase to
# gaps of 2; the seed shuffles each one's face order.  The 286-cell n = 5
# check is a single 6-9 s call, too long to time steadily (bench/NOTES.md).
SUBDIV_FAMILY = ((3, 2, 1, 0), (4, 2, 1, 0), (4, 3, 1, 0), (4, 3, 2, 0), (5, 3, 1, 0), (6, 4, 2, 0))
GAP_STRIDE = 6  # every 6th of the 286 gap vectors of gt_embedding((4,3,2,1,0)), at every seed
GAP_CHUNK = 12  # gap vectors per step
TREES = 4  # canonical reduction trees of n = 5 partitions


@dataclass
class Step:
    name: str
    run: Callable[[], list[tuple[str, object, object]]]
    checks: int  # checks the step makes; all count as failed if it raises
    reanchor: str | None = None  # ROADMAP re-anchor label, if this is one


def _one(name: str, expected: Callable[[], object], call: Callable[[], object], reanchor=None) -> Step:
    """A step making one gtflow call checked against one oracle value."""
    return Step(name, lambda: [(name, expected(), call())], 1, reanchor)


def _with_gaps(gaps) -> tuple[int, ...]:
    lam = [0]
    for g in reversed(gaps):
        lam.append(lam[-1] + g)
    return tuple(reversed(lam))


def _strict_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    """n parts ending in 0 with gaps drawn from 1..3.  Every positive-gap
    partition of length n gives the same Lidskii and reduction-tree work."""
    return _with_gaps([rng.randint(1, 3) for _ in range(n - 1)])


def _label(lam) -> str:
    return "(" + ",".join(map(str, lam)) + ")"


# ---------------------------------------------------------------------------


def _verify_all(seed: int, scale: str, workdir: Path) -> list[Step]:
    if scale == "full":
        bounds = "n=4,lmax=4"
        family_counts = oracles.VERIFY_FAMILY_COUNTS
    else:
        bounds = "n=2,lmax=2,bmax=1,tmax=1,mmax=1,trials=2,amax=1"
        family_counts = {}
    corpus.networks()
    corpus.embeddings()
    corpus.posets()
    out = workdir / f"verify-{os.getpid()}.json"
    argv = ["verify", "--scope", "all", "--bounds", bounds, "--seed", str(seed), "--out", str(out)]

    def run():
        try:
            rc = cli.main(argv)
            report = json.loads(out.read_text())
        finally:
            out.unlink(missing_ok=True)
        results = report["results"]
        checks = [("verify exit code", 0, rc), ("verify report pass", True, report["pass"])]
        checks += [
            (f"{r['identity']} {r['instance']}: {r['expected']} vs {r['actual']}", True, r["pass"])
            for r in results
        ]
        # never fewer records per family than at the benchmark's first commit
        counts = Counter(r["identity"] for r in results)
        checks += [(f"{fam} records >= {need}", True, counts[fam] >= need) for fam, need in family_counts.items()]
        return checks

    declared = 2 + sum(family_counts.values()) + len(family_counts)
    return [Step(f"gtflow verify --scope all --bounds {bounds} --seed {seed}", run, declared)]


def _gt_ladder(seed: int, scale: str) -> list[Step]:
    rng = random.Random(seed)
    if scale == "full":
        small = (GT5_FAMILY[0] if seed == 0 else rng.choice(GT5_FAMILY),)
        big = (5, 4, 3, 2, 1, 0) if seed == 0 else _strict_partition(rng, 6)
        large = LARGE
    else:
        small = ((2, 1, 0), (3, 1, 0))
        big = _strict_partition(rng, 4)
        large = (5, 2, 0)
    large_net = gt.build_G_lambda(large).network
    n_big = len(big)
    steps = []
    for lam in small:
        net = gt.build_G_lambda(lam).network
        vol = lambda lam=lam: oracles.gt_volume(lam)
        pts = lambda lam=lam: oracles.weyl_dimension(lam)
        s = _label(lam)
        steps += [
            _one(f"gt.gt_volume_lidskii{s}", vol, lambda lam=lam: gt.gt_volume_lidskii(lam)),
            _one(f"gt.gt_points_lidskii{s}", pts, lambda lam=lam: gt.gt_points_lidskii(lam)),
            _one(f"gt.gt_volume_shsyt{s}", vol, lambda lam=lam: gt.gt_volume_shsyt(lam)),
            _one(f"flow.lidskii_volume(G_lambda{s})", vol, lambda net=net: flow.lidskii_volume(net)),
            _one(f"flow.lidskii_points_binomial(G_lambda{s})", pts, lambda net=net: flow.lidskii_points_binomial(net)),
            _one(f"flow.lidskii_points_multiset(G_lambda{s})", pts, lambda net=net: flow.lidskii_points_multiset(net)),
            _one(f"flow.kostant(G_lambda{s})", pts, lambda net=net: flow.kostant(net)),
        ]
    # enumerate_shsyt first: its cache then serves gt_volume_shsyt at n_big
    steps += [
        _one(
            f"combinat.enumerate_shsyt({n_big})",
            lambda: oracles.staircase_shsyt_count(n_big),
            lambda: len(combinat.enumerate_shsyt(n_big)),
            reanchor="enumerate_shsyt(6)" if n_big == 6 else None,
        ),
        _one(f"gt.gt_volume_shsyt{_label(big)}", lambda: oracles.gt_volume(big), lambda: gt.gt_volume_shsyt(big)),
        # one large DP: the opposite regime to the thousands of small ones above
        _one(
            f"flow.kostant(G_lambda{_label(large)})",
            lambda: oracles.weyl_dimension(large),
            lambda: flow.kostant(large_net),
        ),
    ]
    return steps


def _gt_faces(n: int) -> list[str]:
    """The reducible faces of gt_embedding at length n."""
    return [f"D{i}_{j}" for i in range(2, n + 1) for j in range(i + 1, n + 1)]


def _subdivision_ladder(seed: int, scale: str) -> list[Step]:
    rng = random.Random(seed)
    if scale == "full":
        lams = SUBDIV_FAMILY
        ext_lam = (4, 3, 2, 1, 0)
        tree_lams = [(4, 3, 2, 1, 0)] if seed == 0 else [_strict_partition(rng, 5)]
        tree_lams += [_strict_partition(rng, 5) for _ in range(TREES - 1)]
    else:
        lams = ((2, 1, 0),)
        ext_lam = (2, 1, 0)
        tree_lams = [_strict_partition(rng, 4)]
    steps = []
    for lam in lams:
        me = gt.gt_embedding(lam)
        faces = _gt_faces(len(lam))
        face_order = None if seed == 0 else rng.sample(faces, len(faces))

        def full_check(lam=lam, me=me, face_order=face_order):
            report = subdivision.full_subdivision_check(me, face_order=face_order)
            return [
                ("cell pairing ok", True, report.ok),
                ("cells = staircase shSYT count", oracles.staircase_shsyt_count(len(lam)), report.cells),
                ("total cell volume", oracles.gt_volume(lam), report.total_volume),
            ]

        order = "canonical" if face_order is None else ",".join(face_order)
        steps.append(
            Step(f"subdivision.full_subdivision_check(gt_embedding{_label(lam)}, face_order={order})", full_check, 3)
        )

    me = gt.gt_embedding(ext_lam)
    k = len(me.mp.marked)
    gap_vectors = combinat.enumerate_compositions(len(me.mp.poset.elements) - k, k - 1)
    if scale == "full":
        # a seeded sample would change the work by up to 1.8x: the record
        # counts of the gap vectors are very uneven
        gap_vectors = gap_vectors[::GAP_STRIDE]

    def extensions(chunk):
        return [
            (
                f"extensions at gaps {a}",
                poset.count_marked_extensions(me.mp, a),
                len(subdivision.leaves_to_extensions(me, a)),
            )
            for a in chunk
        ]

    for i in range(0, len(gap_vectors), GAP_CHUNK):
        chunk = gap_vectors[i : i + GAP_CHUNK]
        steps.append(
            Step(
                f"subdivision.leaves_to_extensions(gt_embedding{_label(ext_lam)}) gaps {chunk[0]}..{chunk[-1]}",
                lambda chunk=chunk: extensions(chunk),
                len(chunk),
            )
        )

    def reduction_tree(tree_lam, tree_net):
        tree = subdivision.canonical_reduction_tree(tree_net)
        return [
            ("leaves = staircase shSYT count", oracles.staircase_shsyt_count(len(tree_lam)), len(tree.leaves())),
            ("leaf volume sum", oracles.gt_volume(tree_lam), subdivision.reduction_tree_volume(tree)),
        ]

    for i, t in enumerate(tree_lams):
        net = gt.build_G_lambda(t).network
        steps.append(
            Step(
                f"subdivision.canonical_reduction_tree(G_lambda{_label(t)}) #{i}",
                lambda t=t, net=net: reduction_tree(t, net),
                2,
            )
        )
    return steps


def build(workload: str, seed: int, scale: str, workdir: Path) -> list[Step]:
    if workload == "verify-all":
        return _verify_all(seed, scale, workdir)
    if workload == "gt-ladder":
        return _gt_ladder(seed, scale)
    if workload == "subdivision-ladder":
        return _subdivision_ladder(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")
