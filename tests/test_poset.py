import math
import random
from fractions import Fraction
from itertools import product

from gtflow import corpus, poset

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtflow.combinat import enumerate_shsyt_corner_oracle
from gtflow.gt import gt_embedding, gt_marked_poset, gt_volume_product
from gtflow.poset import (
    MarkedPoset,
    Poset,
    PosetError,
    check_log_concavity,
    check_minkowski,
    count_marked_extensions,
    enumerate_vertices,
    extension_gap_counts,
    is_vertex,
    lattice_points,
    make_order_polytope_mp,
    marked_volume,
    normalized_volume,
    point_feasible,
    unit_markings,
)

CHAIN3 = Poset.from_covers(["a", "m", "c"], [("a", "m"), ("m", "c")])
DIAMOND = Poset.from_covers(
    ["bot", "x", "y", "top"], [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")]
)


def chain_mp(lo=0, hi=2):
    return MarkedPoset.make(CHAIN3, {"a": lo, "c": hi})


def test_poset_rejects_cycle_and_redundant_cover():
    with pytest.raises(PosetError):
        Poset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(PosetError):
        Poset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])


def test_with_relations_closes_and_rejects_bad_pairs():
    # x < y makes bot < y and x < top redundant
    p = DIAMOND.with_relations([("x", "y")])
    assert p.covers == (("bot", "x"), ("x", "y"), ("y", "top"))
    with pytest.raises(PosetError):
        CHAIN3.with_relations([("c", "a")])
    with pytest.raises(PosetError):
        Poset.from_covers(["a", "b"], []).with_relations([("a", "b"), ("a", "a")])
    with pytest.raises(PosetError):
        CHAIN3.with_relations([("a", "z")])
    # pairs are taken in turn: a cycle closed by earlier pairs is reported
    # before a later pair's own error, and that error before a later cycle
    with pytest.raises(PosetError, match="added relations create a cycle"):
        CHAIN3.with_relations([("c", "a"), ("a", "z")])
    with pytest.raises(PosetError, match="references unknown element"):
        CHAIN3.with_relations([("a", "z"), ("c", "a")])
    with pytest.raises(PosetError, match="added relations create a cycle"):
        CHAIN3.with_relations([("c", "a"), ("m", "m")])


def test_validate_marked_poset_examples():
    chain_mp(0, 2).validate()
    with pytest.raises(PosetError):
        MarkedPoset.make(CHAIN3, {"a": 3, "c": 1}).validate()
    anti = Poset.from_covers(["a", "b"], [])
    with pytest.raises(PosetError):
        MarkedPoset.make(anti, {"a": 0}).validate()


def test_lattice_points_chain():
    pts = lattice_points(chain_mp(0, 2))
    assert sorted(p["m"] for p in pts) == [0, 1, 2]


def test_lattice_points_all_marks_equal():
    mp = MarkedPoset.make(CHAIN3, {"a": 1, "c": 1})
    pts = lattice_points(mp)
    assert len(pts) == 1 and pts[0]["m"] == 1


def test_lattice_points_translation_invariance():
    mp = MarkedPoset.make(DIAMOND, {"bot": 0, "top": 3})
    n0 = len(lattice_points(mp))
    for shift in (1, 2, 5):
        mps = MarkedPoset.make(DIAMOND, {"bot": shift, "top": 3 + shift})
        assert len(lattice_points(mps)) == n0


def test_count_marked_extensions_examples():
    assert count_marked_extensions(chain_mp(0, 2), (1,)) == 1
    assert count_marked_extensions(chain_mp(0, 2), (0,)) == 0
    mp = MarkedPoset.make(DIAMOND, {"bot": 0, "top": 1})
    assert count_marked_extensions(mp, (2,)) == 2
    assert count_marked_extensions(mp, (1,)) == 0


def test_extension_counts_sum_to_sorted_order_extensions():
    mp = MarkedPoset.make(DIAMOND, {"bot": 0, "top": 1})
    buckets = extension_gap_counts(mp)
    total = sum(buckets.values())
    # every extension of the diamond has top first and bot last
    assert total == DIAMOND.count_linear_extensions() == 2


def test_marked_volume_order_polytope_is_extension_count_over_factorial():
    for p in (CHAIN3, DIAMOND):
        mp = make_order_polytope_mp(p)
        e = p.count_linear_extensions()
        assert marked_volume(mp) == Fraction(e, math.factorial(len(p.elements)))
        assert normalized_volume(mp) == e


def test_gap_table_of_the_n6_staircase_counts_its_tableaux():
    # the extensions of the GT poset that list its marks in order are the
    # shifted staircase tableaux of side 6
    lam = (5, 4, 3, 2, 1, 0)
    mp = gt_embedding(lam).mp
    assert sum(extension_gap_counts(mp).values()) == enumerate_shsyt_corner_oracle(6) == 33592
    assert marked_volume(mp) == gt_volume_product(lam)


def test_marked_volume_degenerate():
    mp = MarkedPoset.make(CHAIN3, {"a": 1, "c": 1})
    assert marked_volume(mp) == 0


def test_marked_volume_matches_ehrhart_leading_coefficient():
    fixtures = [
        make_order_polytope_mp(CHAIN3),
        make_order_polytope_mp(DIAMOND),
        MarkedPoset.make(DIAMOND, {"bot": 0, "top": 2, "x": 1}),
    ]
    for mp in fixtures:
        dim = len(mp.poset.elements) - len(mp.marked)
        counts = []
        for t in range(dim + 1):
            scaled = {a: v * t for a, v in mp.marking.items()}
            counts.append(len(lattice_points(mp.with_marking(scaled))))
        lead = Fraction(0)
        for i, c in enumerate(counts):  # dim-th finite difference at 0
            lead += (-1) ** (dim - i) * math.comb(dim, i) * c
        assert Fraction(lead, math.factorial(dim)) == marked_volume(mp)


def test_is_vertex_chain():
    mp = chain_mp(0, 2)
    assert is_vertex(mp, {"a": 0, "m": 0, "c": 2})
    assert not is_vertex(mp, {"a": 0, "m": 1, "c": 2})
    with pytest.raises(PosetError):
        is_vertex(mp, {"a": 0, "m": 5, "c": 2})


def test_enumerate_vertices():
    mp = chain_mp(0, 2)
    assert sorted(v["m"] for v in enumerate_vertices(mp)) == [0, 2]
    square = make_order_polytope_mp(Poset.from_covers(["a", "b"], []))
    assert len(enumerate_vertices(square)) == 4
    full = MarkedPoset.make(CHAIN3, {"a": 0, "m": 1, "c": 2})
    assert len(enumerate_vertices(full)) == 1


def test_vertices_satisfy_criterion_and_capture_optima():
    import random

    mp = MarkedPoset.make(DIAMOND, {"bot": 0, "top": 3})
    verts = enumerate_vertices(mp)
    assert all(is_vertex(mp, v) for v in verts)
    pts = lattice_points(mp)
    rng = random.Random(7)
    vert_set = {tuple(sorted(v.items())) for v in verts}
    for _ in range(25):
        c = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for e in DIAMOND.elements}
        best = max(pts, key=lambda x: sum(c[e] * x[e] for e in x))
        bestval = sum(c[e] * best[e] for e in best)
        winners = [x for x in pts if sum(c[e] * x[e] for e in x) == bestval]
        assert any(tuple(sorted(w.items())) in vert_set for w in winners)


def test_check_minkowski():
    mp = MarkedPoset.make(DIAMOND, {"bot": 0, "top": 2})
    lam = {"bot": 0, "top": 2}
    mu = {"bot": 0, "top": 0}
    assert check_minkowski(mp, lam, mu, trials=20, seed=1)
    assert check_minkowski(mp, lam, lam, trials=20, seed=2)
    omegas = unit_markings(mp)
    assert check_minkowski(mp, omegas[0], omegas[-1], trials=20, seed=3)


def test_check_minkowski_sees_a_missing_vertex(monkeypatch):
    mp = MarkedPoset.make(DIAMOND, {"bot": 0, "top": 2})
    lam = {"bot": 0, "top": 2}
    mu = {"bot": 0, "top": 1}
    assert check_minkowski(mp, lam, mu)
    full = poset.enumerate_vertices

    def drop_one_sum_vertex(m):
        verts = full(m)
        return verts[1:] if m.marking == {"bot": 0, "top": 3} else verts

    monkeypatch.setattr(poset, "enumerate_vertices", drop_one_sum_vertex)
    assert not check_minkowski(mp, lam, mu)


def product_vertices(mp):
    """Oracle: every assignment of marking values to the unmarked elements,
    in product order over the elements, kept if it is a vertex."""
    lam = mp.marking
    values = sorted(set(lam.values()))
    unmarked = [e for e in mp.poset.elements if e not in lam]
    verts = []
    for combo in product(values, repeat=len(unmarked)):
        x = {**lam, **dict(zip(unmarked, combo))}
        if point_feasible(mp, x) and is_vertex(mp, x):
            verts.append(x)
    return verts


def vertex_cases():
    for name, me in corpus.embeddings():
        yield name, me.mp
        for i, omega in enumerate(unit_markings(me.mp), 1):
            yield f"{name}@omega{i}", me.mp.with_marking(omega)
    for name, p in corpus.posets():
        yield f"order-polytope:{name}", make_order_polytope_mp(p)
    for lam in [(2, 1, 0), (2, 2, 0), (3, 2, 1, 0), (3, 3, 1, 0)]:
        yield f"gt:{','.join(map(str, lam))}", gt_embedding(lam).mp
    rational_diamond = Poset.from_covers(["a", "c", "x", "y"], [("a", "x"), ("a", "y"), ("x", "c"), ("y", "c")])
    yield "rational-diamond", MarkedPoset.make(rational_diamond, {"a": Fraction(1, 2), "c": Fraction(7, 2)})


@pytest.mark.parametrize("mp", [pytest.param(mp, id=name) for name, mp in vertex_cases()])
def test_enumerate_vertices_matches_the_product_oracle(mp):
    assert enumerate_vertices(mp) == product_vertices(mp)


def _fraction_vertices(mp):
    """Reference for enumerate_vertices: the search it replaced, on the
    Fraction marking, whose points is_vertex tests with a Fraction
    comparison per cover."""
    lam = mp.marking
    p = mp.poset
    values = sorted(set(lam.values()))
    upper = {}
    for e in reversed(p.topo_order):
        upper[e] = lam[e] if e in lam else min(upper[q] for q in p.up_covers(e))
    points, vals = [], {}

    def rec(idx):
        if idx == len(p.topo_order):
            points.append(dict(vals))
            return
        e = p.topo_order[idx]
        lo = max((vals[d] for d in p.down_covers(e)), default=None)
        if e in lam:
            choices = () if lo is not None and lo > lam[e] else (lam[e],)
        else:
            choices = [v for v in values if lo <= v <= upper[e]]
        for v in choices:
            vals[e] = v
            rec(idx + 1)
        vals.pop(e, None)

    rec(0)
    unmarked = [e for e in p.elements if e not in lam]
    return sorted((x for x in points if is_vertex(mp, x)), key=lambda x: [x[e] for e in unmarked])


def _fractional_cases():
    for name, me in corpus.embeddings():
        yield name, me.mp
    yield "diamond-to-1/2", MarkedPoset.make(DIAMOND, {"bot": 0, "top": Fraction(1, 2)})
    yield "chain-thirds", MarkedPoset.make(CHAIN3, {"a": Fraction(-1, 3), "c": Fraction(5, 3)})
    # GT posets with top rows of mixed denominators 2 and 3
    for lam in [(Fraction(3, 2), Fraction(2, 3), 0), (Fraction(5, 2), Fraction(5, 3), Fraction(1, 2), Fraction(-1, 3))]:
        mp = gt_marked_poset((0,) * len(lam))
        yield f"gt:{','.join(map(str, lam))}", mp.with_marking({e: lam[i] for i, e in enumerate(mp.sorted_marked())})


@pytest.mark.parametrize("mp", [pytest.param(mp, id=name) for name, mp in _fractional_cases()])
def test_int_vertex_search_is_the_fraction_search(mp):
    got = enumerate_vertices(mp)
    want = _fraction_vertices(mp)
    assert got == want
    # the same keys in the same order, every value a Fraction
    assert [list(x) for x in got] == [list(x) for x in want]
    assert all(type(v) is Fraction for x in got for v in x.values())


def test_objective_draws_are_randint_draws():
    # check_minkowski draws with poset._below on getrandbits; it must make
    # exactly the draws of Random.randint from the same seed
    for seed in range(20):
        ours, ref = random.Random(seed), random.Random(seed)
        for _ in range(500):
            assert poset._below(ours.getrandbits, 61) - 30 == ref.randint(-30, 30)
            assert poset._below(ours.getrandbits, 7) + 1 == ref.randint(1, 7)
        assert ours.getstate() == ref.getstate()


def test_check_minkowski_at_gt_n5():
    # the two marking pairs that verify_poset draws for each embedding
    mp = gt_embedding((4, 3, 2, 1, 0)).mp
    omegas = unit_markings(mp)
    for i, (l1, l2) in enumerate([(mp.marking, omegas[0]), (omegas[0], omegas[-1])]):
        assert check_minkowski(mp, dict(l1), dict(l2), trials=100, seed=i)


def test_check_log_concavity_small():
    assert check_log_concavity(chain_mp(0, 2)) == []
    two_mid = Poset.from_covers(
        ["a", "p", "q", "c"], [("a", "p"), ("p", "q"), ("q", "c")]
    )
    mp = MarkedPoset.make(two_mid, {"a": 0, "p": 1, "c": 3})
    assert check_log_concavity(mp) == []


def test_order_polynomial_check_examples():
    # the m-dilated order polytope has order_polynomial(m) lattice points
    single = Poset.from_covers(["a"], [])
    chain2 = Poset.from_covers(["a", "b"], [("a", "b")])
    anti = Poset.from_covers(["a", "b"], [])
    for p, m, count in [(single, 3, 4), (chain2, 2, 6), (anti, 1, 4)]:
        assert p.order_polynomial(m) == count
        assert len(lattice_points(make_order_polytope_mp(p, 0, m))) == count


def test_sorted_marked_tie_breaking():
    # equal markings: comparable pairs keep the larger element first
    chain = Poset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    mp = MarkedPoset.make(chain, {"a": 0, "b": 0, "c": 2, "d": 2})
    assert mp.sorted_marked() == ("d", "c", "b", "a")
    incomparable = Poset.from_covers(["a", "b", "x", "y"], [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")])
    mp2 = MarkedPoset.make(incomparable, {"a": 0, "b": 0, "x": 1, "y": 1})
    assert mp2.sorted_marked() == ("x", "y", "a", "b")  # id order within ties


def test_json_round_trip():
    mp = MarkedPoset.make(DIAMOND, {"bot": Fraction(1, 2), "top": 2})
    again = MarkedPoset.from_json(mp.to_json())
    assert again == mp


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=4))
@settings(deadline=None, max_examples=20)
def test_chain_lattice_points_count(lo_shift, width):
    mp = chain_mp(lo_shift, lo_shift + width)
    assert len(lattice_points(mp)) == width + 1


class _ScanPoset:
    """The scan-based Poset this module's index replaced, kept as a
    reference: every query rescans the cover list."""

    def __init__(self, elements, covers):
        self.elements, self.covers = tuple(elements), tuple(covers)
        els = set(self.elements)
        for p, q in self.covers:
            if p not in els or q not in els:
                raise PosetError(f"cover ({p},{q}) references unknown element")
            if p == q:
                raise PosetError(f"loop at {p}")
        below = {e: set() for e in self.elements}
        for e in self._topo_order():
            for p, q in self.covers:
                if q == e:
                    below[e].add(p)
                    below[e] |= below[p]
        self._below = below
        for p, q in self.covers:
            if any(p in below[z] and z in below[q] for z in self.elements):
                raise PosetError(f"redundant cover ({p},{q})")
        self.topo_order = self._topo_order()

    def _topo_order(self):
        indeg = {e: 0 for e in self.elements}
        for p, q in self.covers:
            indeg[q] += 1
        avail = sorted(e for e, d in indeg.items() if d == 0)
        out = []
        while avail:
            e = avail.pop(0)
            out.append(e)
            fresh = []
            for p, q in self.covers:
                if p == e:
                    indeg[q] -= 1
                    if indeg[q] == 0:
                        fresh.append(q)
            avail = sorted(set(avail) | set(fresh))
        if len(out) != len(self.elements):
            raise PosetError("cover relation has a cycle")
        return tuple(out)

    def lt(self, p, q):
        return p in self._below[q]

    def up_covers(self, p):
        return tuple(sorted(q for a, q in self.covers if a == p))

    def down_covers(self, q):
        return tuple(sorted(p for p, b in self.covers if b == q))

    def maximal_elements(self):
        return tuple(sorted(set(self.elements) - {p for p, _ in self.covers}))

    def minimal_elements(self):
        return tuple(sorted(set(self.elements) - {q for _, q in self.covers}))

    def with_relations(self, pairs):
        below = {e: set(s) for e, s in self._below.items()}
        for p, q in pairs:
            if p not in below or q not in below:
                raise PosetError(f"relation ({p},{q}) references unknown element")
            if p == q:
                raise PosetError(f"reflexive relation at {p}")
            if q in below[p]:
                raise PosetError("added relations create a cycle")
            gain = below[p] | {p}
            for z in self.elements:
                if z == q or q in below[z]:
                    below[z] |= gain
        covers = [
            (p, q)
            for q in self.elements
            for p in below[q]
            if not any(p in below[z] for z in below[q])
        ]
        return _ScanPoset(sorted(self.elements), sorted(covers))


def _poset_fields(make, elements, covers, extra):
    """Everything the index answers, or the PosetError message."""
    try:
        p = make(elements, covers)
    except PosetError as exc:
        return ("rejected", str(exc))
    try:
        w = p.with_relations(extra)
        wr = (w.elements, w.covers, w.topo_order)
    except PosetError as exc:
        wr = ("rejected", str(exc))
    return (
        p.topo_order,
        [(p.up_covers(e), p.down_covers(e)) for e in elements],
        p.maximal_elements(),
        p.minimal_elements(),
        [[p.lt(a, b) for b in elements] for a in elements],
        wr,
    )


@settings(deadline=None, max_examples=300, derandomize=True)
@given(st.data())
def test_poset_index_matches_the_scan_based_poset(data):
    # elements in any order; covers mostly point forward along a hidden
    # ranking (acyclic, with duplicates and redundant covers), plus a few wild
    # pairs that may close a cycle, make a loop or name the unknown letter
    n = data.draw(st.integers(min_value=0, max_value=7))
    ranked = data.draw(st.permutations("abcdefg"[:n]))
    names = st.sampled_from("abcdefgh"[: n + 1])
    covers = []
    if n >= 2:
        ranks = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for a, b in data.draw(st.lists(ranks.filter(lambda r: r[0] != r[1]), max_size=12)):
            covers.append((ranked[min(a, b)], ranked[max(a, b)]))
    covers += data.draw(st.lists(st.tuples(names, names), max_size=2))
    covers = data.draw(st.permutations(covers))
    extra = data.draw(st.lists(st.tuples(names, names), max_size=3))
    elements = tuple(data.draw(st.permutations(ranked)))
    expected = _poset_fields(_ScanPoset, elements, tuple(covers), extra)
    assert _poset_fields(Poset, elements, tuple(covers), extra) == expected
    # with_relations returns the index it computed: it must be the one a
    # fresh build of its covers gives
    try:
        w = Poset(elements, tuple(covers)).with_relations(extra)
    except PosetError:
        return
    fresh = Poset.from_covers(w.elements, w.covers)
    assert (w.elements, w.covers, w.topo_order, w._below) == (
        fresh.elements, fresh.covers, fresh.topo_order, fresh._below
    )


def test_one_hat_builder_for_order_polytopes_and_embeddings():
    from gtflow import corpus

    for _, p in corpus.posets():
        assert make_order_polytope_mp(p).poset == poset.hat_poset(p)
    for _, me in corpus.embeddings():
        p = me.mp.poset
        assert make_order_polytope_mp(p).poset == poset.hat_poset(p) == me.hat_poset


def test_reserved_hat_ids_raise_in_both_hat_paths():
    from gtflow.transform import SENTINEL, MarkedEmbedding

    p = Poset.from_covers(["0hat", "a"], [("0hat", "a")])
    with pytest.raises(PosetError, match="reserved"):
        make_order_polytope_mp(p)
    mp = MarkedPoset.make(p, {"0hat": 0, "a": 1})
    chain = ["1hat", "a", "0hat"]
    with pytest.raises(PosetError, match="reserved"):
        MarkedEmbedding.make(mp, [(SENTINEL, chain), (chain, SENTINEL)])


def _dfs_below(elements, relations):
    """Strictly-below sets, by depth-first search down the given relations."""
    downs = {e: [p for p, q in relations if q == e] for e in elements}
    below = {}
    for e in elements:
        seen, stack = set(), list(downs[e])
        while stack:
            d = stack.pop()
            if d not in seen:
                seen.add(d)
                stack += downs[d]
        below[e] = seen
    return below


def _brute_extensions(elements, below):
    """Every order-reversing listing, by backtracking over sets, in
    lexicographic order."""
    out = []

    def rec(prefix, rest):
        if not rest:
            out.append(tuple(prefix))
        for e in rest:
            if not any(e in below[o] for o in rest):
                rec(prefix + [e], rest - {e})

    rec([], frozenset(elements))
    return sorted(out)


def _brute_count(elements, below):
    memo = {}

    def count(rest):
        if not rest:
            return 1
        if rest not in memo:
            memo[rest] = sum(count(rest - {e}) for e in rest if not any(e in below[o] for o in rest))
        return memo[rest]

    return count(frozenset(elements))


@settings(deadline=None, max_examples=100, derandomize=True)
@given(st.data())
def test_poset_queries_match_a_dfs_closure(data):
    # a random DAG: relations point forward along a hidden ranking
    n = data.draw(st.integers(min_value=0, max_value=8))
    elements = sorted("abcdefgh"[:n])
    ranked = data.draw(st.permutations(elements))
    pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    relations = {(ranked[a], ranked[b]) for a, b in data.draw(st.lists(pair, max_size=14)) if a < b}
    below = _dfs_below(elements, relations)
    covers = sorted(
        (p, q) for q in elements for p in below[q] if not any(p in below[z] for z in below[q])
    )
    P = Poset.from_covers(elements, covers)
    assert P.covers == tuple(covers)
    for a in elements:
        for b in elements:
            assert P.lt(a, b) == (a in below[b])
        assert P.up_covers(a) == tuple(q for p, q in covers if p == a)
        assert P.down_covers(a) == tuple(p for p, q in covers if q == a)
    assert P.maximal_elements() == tuple(e for e in elements if not any(e in below[o] for o in elements))
    assert P.minimal_elements() == tuple(e for e in elements if not below[e])
    # Kahn's order, smallest available name first
    placed, order = set(), []
    while len(order) < n:
        e = min(x for x in elements if x not in placed and below[x] <= placed)
        placed.add(e)
        order.append(e)
    assert P.topo_order == tuple(order)

    # added relations: the closure of the union, or a cycle
    extra = []
    if n >= 2:
        named = st.tuples(st.sampled_from(elements), st.sampled_from(elements))
        extra = data.draw(st.lists(named.filter(lambda r: r[0] != r[1]), max_size=3))
    wider = _dfs_below(elements, relations | set(extra))
    if any(e in wider[e] for e in elements):
        with pytest.raises(PosetError, match="added relations create a cycle"):
            P.with_relations(extra)
    else:
        W = P.with_relations(extra)
        assert W.covers == tuple(
            sorted((p, q) for q in elements for p in wider[q] if not any(p in wider[z] for z in wider[q]))
        )
        assert all(W.lt(a, b) == (a in wider[b]) for a in elements for b in elements)

    assert P.count_linear_extensions() == _brute_count(elements, below)
    if n <= 6:
        # the extremal elements and a drawn subset, marked by the size of
        # their down-set: order-preserving, with ties between incomparables
        extremal = {e for e in elements if not below[e] or not any(e in below[o] for o in elements)}
        drawn = data.draw(st.sets(st.sampled_from(elements))) if n else set()
        mp = MarkedPoset.make(P, {e: len(below[e]) for e in extremal | drawn})
        marked = mp.sorted_marked()
        buckets = {}
        for x in _brute_extensions(elements, below):
            if [e for e in x if e in marked] != list(marked):
                continue
            pos = [i for i, e in enumerate(x) if e in marked]
            gaps = tuple(j - i - 1 for i, j in zip(pos, pos[1:]))
            buckets[gaps] = buckets.get(gaps, 0) + 1
        assert extension_gap_counts(mp) == buckets
        if marked:  # with no mark, no gap vector has -1 entries
            assert all(count_marked_extensions(mp, a) == c for a, c in buckets.items())

    # a redundant cover, a cycle and an unknown element still raise
    longer = [(p, q) for q in elements for p in below[q] if (p, q) not in covers]
    if longer:
        p, q = longer[0]
        with pytest.raises(PosetError, match=rf"^redundant cover \({p},{q}\)$"):
            Poset.from_covers(elements, covers + [(p, q)])
    if covers:
        p, q = covers[0]
        with pytest.raises(PosetError, match="^cover relation has a cycle$"):
            Poset.from_covers(elements, covers + [(q, p)])
        with pytest.raises(PosetError, match=rf"^cover \({p},z\) references unknown element$"):
            Poset.from_covers(elements, covers + [(p, "z")])
