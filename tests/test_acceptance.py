"""Acceptance suite: each test runs one acceptance criterion at its stated
bounds with exact (zero-tolerance) comparisons and prints one summary line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `gtflow verify` for the same checks as a JSON report.
"""

import math
from fractions import Fraction

from gtflow import corpus
from gtflow.combinat import enumerate_compositions
from gtflow.flow import lidskii_volume
from gtflow.poset import (
    check_log_concavity,
    check_minkowski,
    count_marked_extensions,
    make_order_polytope_mp,
    unit_markings,
)
from gtflow.subdivision import (
    UncoveredEmbeddingError,
    canonical_reduction_tree,
    full_subdivision_check,
    leaves_to_extensions,
    reduction_tree_volume,
)
from gtflow.verify import (
    verify_bijection,
    verify_flow,
    verify_gt,
    verify_poset,
    verify_transform,
)


def _assert_all(records, label):
    bad = [r for r in records if not r["pass"]]
    for r in bad[:5]:
        print("  FAIL", r)
    assert not bad, f"{label}: {len(bad)} of {len(records)} checks failed"
    print(f"[PASS] {label}: {len(records)} exact checks")


def test_criterion_1_gt_identity_chain():
    records = verify_gt(nmax=4, lmax=4)
    instances = {r["instance"] for r in records if r["identity"].startswith("gt/")}
    assert len(instances) >= 70
    _assert_all(records, "criterion 1 (five-formula GT identity chain, n<=4, parts<=4)")


def test_criterion_2_lidskii_formulas():
    nets = corpus.networks()
    assert len(nets) >= 20
    assert all(g.num_vertices <= 6 and len(g.edges) <= 10 for _, g in nets)
    records = verify_flow(tmax=3)
    _assert_all(records, f"criterion 2 (Lidskii formulas on {len(nets)} networks)")


def test_criterion_3_cor_2_4_bijection():
    records = verify_bijection(nmax=4, bmax=3)
    _assert_all(records, "criterion 3 (diagonal counts and inverse tableau bijections, n<=4)")


def test_criterion_4_marked_order_to_flow():
    embs = corpus.embeddings()
    assert len(embs) >= 10
    skipped = []
    records = verify_transform(skipped)
    # the duals of these four are disconnected, so Lidskii does not apply
    assert [(s["identity"], s["instance"]) for s in skipped] == [
        ("order-flow/volume=lidskii", name)
        for name in ("marked-interior", "marked-interior-mirror", "n-poset-full", "skew-21-10")
    ]
    _assert_all(records, f"criterion 4 (order-flow equivalence on {len(embs)} embeddings)")


def test_criterion_5_volume_and_ehrhart():
    records = [
        r
        for r in verify_poset(mmax=3, trials=0, seed=0)
        if r["identity"].startswith("order-polytope/") or r["identity"].startswith("marked-volume/")
    ]
    _assert_all(records, "criterion 5 (marked volumes and order-polytope Ehrhart, m<=3)")


def test_criterion_6_log_concavity():
    checked = 0
    for name, p in corpus.posets():
        mp = make_order_polytope_mp(p)
        if len(mp.poset.elements) <= 7 + 2:
            assert check_log_concavity(mp) == [], name
            checked += 1
    for name, me in corpus.embeddings():
        if len(me.mp.poset.elements) <= 7:
            assert check_log_concavity(me.mp) == [], name
            checked += 1
    print(f"[PASS] criterion 6 (extension-count log-concavity on {checked} posets)")


def test_criterion_7_subdivision_conservation():
    for name, g in corpus.networks():
        tree = canonical_reduction_tree(g)
        assert reduction_tree_volume(tree) == lidskii_volume(g), name
    # the complete-graph fixture with netflow (1,0,0,0,-1): frozen leaf count,
    # cross-checked against Kostant values grouped by source out-degrees
    complete5 = dict(corpus.networks())["cry5"]
    tree = canonical_reduction_tree(complete5)
    assert len(tree.leaves()) == 2
    assert reduction_tree_volume(tree) == Fraction(2, math.factorial(6))
    print(f"[PASS] criterion 7 (subdivision volume conservation on {len(corpus.networks())} networks)")


def test_criterion_8_cor_5_6_end_to_end():
    # the fixtures are the embeddings the extension bijection covers
    fixtures = []
    total = 0
    for name, me in corpus.embeddings():
        mp = me.mp
        k = len(mp.sorted_marked())
        dim = len(mp.poset.elements) - k
        gaps = [a for a in enumerate_compositions(dim, k - 1) if all(x <= 3 for x in a)]
        try:
            counts = [(a, len(leaves_to_extensions(me, a))) for a in gaps]
        except UncoveredEmbeddingError:
            continue
        for a, count in counts:
            assert count == count_marked_extensions(mp, a), (name, a)
        total += len(gaps)
        report = full_subdivision_check(me)
        assert report.ok, name
        fixtures.append(name)
    assert len(fixtures) >= 5
    print(f"[PASS] criterion 8 (flow-to-extension bijection on {len(fixtures)} fixtures, {total} gap vectors)")


def test_criterion_9_minkowski_support_functions():
    pairs = 0
    for name, me in corpus.embeddings():
        mp = me.mp
        omegas = unit_markings(mp)
        lam = dict(mp.marking)
        for i, (l1, l2) in enumerate([(lam, omegas[0]), (omegas[0], omegas[-1])]):
            assert check_minkowski(mp, l1, dict(l2), trials=100, seed=11 + i), name
            pairs += 1
    print(f"[PASS] criterion 9 (Minkowski support additivity, {pairs} pairs x 100 objectives)")
