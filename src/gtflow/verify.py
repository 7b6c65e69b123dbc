"""Verification harness: runs the identity chains on the fixture corpus and
returns machine-readable records.

Each record is {"identity", "instance", "expected", "actual", "pass"} with
exact values rendered as strings (integers in decimal, rationals as p/q).
An instance a check cannot run on is not a record: it goes to the report's
`skipped` list as {"identity", "instance", "reason"}, and never counts as a
pass.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import corpus
from .combinat import binomial, count_N, count_ssyt, enumerate_compositions, leading_coefficient, walk_shsyt
from .flow import (
    FlowError,
    check_lidskii_preconditions,
    enumerate_integer_flows,
    kostant,
    lidskii_points_binomial,
    lidskii_points_multiset,
    lidskii_volume,
)
from .gt import (
    build_G_lambda,
    enumerate_gt_points,
    flow_to_shsyt,
    gt_to_flow,
    gt_volume_product,
    gt_volume_shsyt,
    shifted_netflow,
    shsyt_to_flow,
    weyl_dimension,
)
from .poset import (
    check_log_concavity,
    check_minkowski,
    count_marked_extensions,
    lattice_points,
    make_order_polytope_mp,
    marked_volume,
    normalized_volume,
    unit_markings,
)
from .subdivision import (
    UncoveredEmbeddingError,
    canonical_reduction_tree,
    enumerate_noncrossing_trees,
    face_extensions,
    full_subdivision_check,
    interior_sample_disjoint,
    leaves_to_extensions,
    reduction_tree_volume,
    sigma_from_tree,
)
from .transform import SENTINEL, build_G_PAlambda, gamma, gamma_inverse

SCOPES = ("gt", "flow", "poset", "transform", "subdivision")

# every bound `run_verify` reads, with its default
DEFAULT_BOUNDS = {"n": 3, "lmax": 3, "bmax": 3, "tmax": 3, "mmax": 3, "trials": 100, "amax": 3}


def _fmt(x) -> str:
    return str(x)


def record(identity, instance, expected, actual):
    return {
        "identity": identity,
        "instance": str(instance),
        "expected": _fmt(expected),
        "actual": _fmt(actual),
        "pass": expected == actual,
    }


def skip(skipped, identity, instance, reason) -> None:
    """Note an instance the identity was not checked on."""
    skipped.append({"identity": identity, "instance": str(instance), "reason": str(reason)})


def partitions(max_n: int, max_part: int):
    """The weakly decreasing tuples of 1..max_n parts in 0..max_part, shortest
    first, each length in decreasing lexicographic order."""
    for n in range(1, max_n + 1):
        yield from combinations_with_replacement(range(max_part, -1, -1), n)


# ---------------------------------------------------------------------------


def verify_gt(nmax: int, lmax: int) -> list[dict]:
    """The five-formula identity chain for GT volumes and point counts, and
    the point count against the semistandard tableaux it counts."""
    out = []
    for lam in partitions(nmax, lmax):
        net = build_G_lambda(lam).network
        v1 = gt_volume_product(lam)
        out.append(record("gt/vol:product=shsyt", lam, v1, gt_volume_shsyt(lam)))
        out.append(record("gt/vol:product=lidskii", lam, v1, lidskii_volume(net)))
        pts = weyl_dimension(lam)
        out.append(record("gt/pts:weyl=lidskii", lam, pts, lidskii_points_binomial(net)))
        out.append(record("gt/pts:weyl=enumeration", lam, pts, len(enumerate_gt_points(lam))))
        out.append(record("gt/pts:weyl=ssyt", lam, pts, count_ssyt(lam, len(lam))))
        if len(lam) >= 2:
            out.append(record("gt/pts:weyl=kostant", lam, pts, kostant(net)))
    # injectivity of the pattern -> flow map at a desk-scale instance
    lam = (min(lmax, 2), 1, 0) if nmax >= 3 else (1, 0)
    pts = enumerate_gt_points(lam)
    flows = {gt_to_flow(lam, p) for p in pts}
    out.append(record("gt/pattern-flow-bijection", lam, len(pts), len(flows)))
    return out


def verify_bijection(nmax: int, bmax: int) -> list[dict]:
    """Diagonal-count identity N(b) = K(shifted) and the explicit mutually
    inverse tableau/flow maps realizing it."""
    from itertools import product as iproduct

    out = []
    for n in range(2, nmax + 1):
        gtn = build_G_lambda((0,) * n)
        for b in iproduct(range(bmax + 1), repeat=n - 1):
            lhs = count_N(n, b)
            rhs = kostant(gtn.network, shifted_netflow(n, b))
            out.append(record("diagonal-kostant/count", (n, b), lhs, rhs))
        mismatches = 0

        def roundtrip(t):
            nonlocal mismatches
            mismatches += flow_to_shsyt(n, shsyt_to_flow(t)) != t

        walk_shsyt(n, roundtrip)  # streamed: held at once, n = 7 would take ~17 GB
        out.append(record("diagonal-kostant/tableau-roundtrip", n, True, not mismatches))
        ok = True
        total = n * (n - 1) // 2
        for b in enumerate_compositions(total, n - 1):
            if any(x > bmax for x in b):
                continue
            for f in enumerate_integer_flows(gtn.network, shifted_netflow(n, b)):
                t = flow_to_shsyt(n, f)
                if shsyt_to_flow(t) != f or t.diagonal_composition() != b:
                    ok = False
        out.append(record("diagonal-kostant/flow-roundtrip", n, True, ok))
    return out


def verify_flow(tmax: int) -> list[dict]:
    """Lidskii formulas on the network corpus: both point-count forms against
    direct enumeration, the volume as the exact Ehrhart leading coefficient,
    and the degree bound of the count polynomial."""
    out = []
    for name, g in corpus.networks():
        pts = kostant(g)
        out.append(record("lidskii/binomial=count", name, pts, lidskii_points_binomial(g)))
        out.append(record("lidskii/multiset=count", name, pts, lidskii_points_multiset(g)))
        out.append(
            record(
                "kostant/dp=enumeration", name, pts, len(enumerate_integer_flows(g))
            )
        )
        dim = g.dimension()
        counts = [
            lidskii_points_binomial(g.with_netflow(tuple(t * x for x in g.netflow)))
            for t in range(dim + 2)
        ]
        lead = leading_coefficient(counts[: dim + 1])
        out.append(record("lidskii/volume=ehrhart-lead", name, lidskii_volume(g), lead))
        out.append(record("lidskii/ehrhart-degree", name, 0, leading_coefficient(counts)))
        for t in range(1, tmax + 1):
            gt_net = g.with_netflow(tuple(t * x for x in g.netflow))
            lidskii = counts[t] if t < len(counts) else lidskii_points_binomial(gt_net)
            direct = len(enumerate_integer_flows(gt_net))
            out.append(record("lidskii/dilation=enumeration", f"{name}@t={t}", direct, lidskii))
    return out


def verify_poset(mmax: int, trials: int, seed: int) -> list[dict]:
    """Order-polytope and marked-volume checks, Minkowski support-function
    additivity, and log-concavity of the extension counts."""
    out = []
    for name, p in corpus.posets():
        mp = make_order_polytope_mp(p)
        e = p.count_linear_extensions()
        out.append(record("order-polytope/volume=extensions", name, e, normalized_volume(mp)))
        for m in range(mmax + 1):
            lhs = len(lattice_points(make_order_polytope_mp(p, 0, m)))
            out.append(
                record("order-polytope/ehrhart=order-polynomial", f"{name}@m={m}", p.order_polynomial(m), lhs)
            )
    for name, me in corpus.embeddings():
        mp = me.mp
        dim = len(mp.poset.elements) - len(mp.marked)
        counts = []
        for t in range(dim + 1):
            scaled = {a: v * t for a, v in mp.marking.items()}
            counts.append(len(lattice_points(mp.with_marking(scaled))))
        out.append(record("marked-volume/ehrhart-lead", name, marked_volume(mp), leading_coefficient(counts)))
    for name, me in corpus.embeddings():
        mp = me.mp
        violations = check_log_concavity(mp)
        out.append(record("log-concavity/adjacent-trade", name, [], violations))
    for name, p in corpus.posets():
        violations = check_log_concavity(make_order_polytope_mp(p))
        out.append(record("log-concavity/adjacent-trade", f"order-polytope:{name}", [], violations))
    for name, me in corpus.embeddings():
        mp = me.mp
        omegas = unit_markings(mp)
        lam = mp.marking
        pairs = [(lam, omegas[0]), (omegas[0], omegas[-1])]
        for i, (l1, l2) in enumerate(pairs):
            ok = check_minkowski(mp, dict(l1), dict(l2), trials=trials, seed=seed + i)
            out.append(record("minkowski/support-additivity", f"{name}#{i}", True, ok))
    return out


def verify_transform(skipped: list) -> list[dict]:
    """Marked-order-to-flow equivalence: Gamma bijections, count transfer,
    and volume transfer where the Lidskii hypotheses apply."""
    out = []
    for name, me in corpus.embeddings():
        dn = build_G_PAlambda(me)
        pts = lattice_points(me.mp)
        flows = {gamma(dn, x) for x in pts}
        direct = set(enumerate_integer_flows(dn.network))
        out.append(record("order-flow/count", name, len(pts), kostant(dn.network)))
        out.append(record("order-flow/gamma-bijection", name, True, flows == direct))
        ok = all(gamma_inverse(dn, gamma(dn, x)) == x for x in pts)
        out.append(record("order-flow/gamma-inverse", name, True, ok))
        # volume transfer, where the Lidskii hypotheses hold for the raw dual
        # (its ambient dimension matches the marked order polytope's)
        try:
            check_lidskii_preconditions(dn.network)
        except FlowError as exc:
            skip(skipped, "order-flow/volume=lidskii", name, exc)
            continue
        out.append(
            record("order-flow/volume=lidskii", name, marked_volume(me.mp), lidskii_volume(dn.network))
        )
    return out


def verify_subdivision(amax: int, skipped: list) -> list[dict]:
    """Reduction-tree volume conservation and disjoint cell interiors, the
    extensions of each inner face against their count and the noncrossing
    trees, subdivision cell pairing, and the flow-to-extension bijection,
    each of the last two on every embedding its route covers."""
    out = []
    for name, g in corpus.networks():
        tree = canonical_reduction_tree(g)
        out.append(
            record(
                "subdivision/volume-conservation",
                name,
                lidskii_volume(g),
                reduction_tree_volume(tree),
            )
        )
        t, points, disjoint = interior_sample_disjoint(tree)
        out.append(record("subdivision/interior-disjoint", f"{name} (t = {t}, {points} points)", True, disjoint))
    for name, me in corpus.embeddings():
        for face_id, face in zip(me.face_ids, me.faces):
            if SENTINEL in (face.left, face.right):
                continue
            instance = f"{name}:{face_id}"
            k, l = len(face.left), len(face.right)
            exts = face_extensions(face)
            count = binomial(k + l - 4, l - 2)
            out.append(record("subdivision/face-extensions=binomial", instance, count, len(exts)))
            sigmas = [sigma_from_tree(face, t) for t in enumerate_noncrossing_trees(l - 1, k - 1)]
            bijective = len(set(sigmas)) == len(sigmas) and set(sigmas) == set(exts)
            out.append(record("subdivision/trees=face-extensions", instance, True, bijective))
    # each route raises UncoveredEmbeddingError on an embedding it does not
    # cover; that, and only that, is a skip
    for name, me in corpus.embeddings():
        try:
            report = full_subdivision_check(me)
        except UncoveredEmbeddingError as exc:
            skip(skipped, "subdivision/cell-pairing", name, exc)
            continue
        out.append(record("subdivision/cell-pairing", name, True, report.ok))
    for name, me in corpus.embeddings():
        identity = "extension-bijection/count"
        mp = me.mp
        k = len(mp.sorted_marked())
        dim = len(mp.poset.elements) - k
        gaps = [a for a in enumerate_compositions(dim, k - 1) if all(x <= amax for x in a)]
        if not gaps:
            skip(skipped, identity, name, f"no gap vector has all parts at most amax = {amax}")
            continue
        try:
            matches = [len(leaves_to_extensions(me, a)) == count_marked_extensions(mp, a) for a in gaps]
        except UncoveredEmbeddingError as exc:
            skip(skipped, identity, name, exc)
            continue
        out.append(record(identity, f"{name} ({len(gaps)} gap vectors)", True, all(matches)))
    return out


def run_verify(scope: str = "all", bounds: dict | None = None, seed: int = 0) -> dict:
    if scope not in (*SCOPES, "all"):
        raise ValueError(f"no verify scope {scope!r}; choose from {', '.join(SCOPES)}, all")
    bounds = {**DEFAULT_BOUNDS, **(bounds or {})}
    records = []
    skipped: list[dict] = []
    warnings = []
    if not corpus.networks() or not corpus.embeddings():
        warnings.append("corpus is empty; trivial pass")
    if scope in ("gt", "all"):
        records += verify_gt(bounds["n"], bounds["lmax"])
        records += verify_bijection(bounds["n"], bounds["bmax"])
    if scope in ("flow", "all"):
        records += verify_flow(bounds["tmax"])
    if scope in ("poset", "all"):
        records += verify_poset(bounds["mmax"], bounds["trials"], seed)
    if scope in ("transform", "all"):
        records += verify_transform(skipped)
    if scope in ("subdivision", "all"):
        records += verify_subdivision(bounds["amax"], skipped)
    records.sort(key=lambda r: (r["identity"], r["instance"]))
    skipped.sort(key=lambda r: (r["identity"], r["instance"]))
    return {
        "scope": scope,
        "warnings": warnings,
        "results": records,
        "pass": all(r["pass"] for r in records),
        "skipped": skipped,
    }
