import json
import math
from fractions import Fraction

import pytest

from gtflow import corpus

from gtflow.combinat import count_ssyt
from gtflow.flow import enumerate_integer_flows, kostant, lidskii_volume, simplify
from gtflow.gt import build_G_lambda, gt_embedding, gt_to_flow
from gtflow.poset import (
    BOTTOM,
    TOP,
    MarkedPoset,
    Poset,
    PosetError,
    lattice_points,
    marked_volume,
)
from gtflow.transform import (
    SENTINEL,
    EmbeddingError,
    Face,
    MarkedEmbedding,
    build_G_PAlambda,
    build_skew_flow,
    build_skew_gt,
    enumerate_skew_points,
    gamma,
    gamma_inverse,
)
from gtflow.verify import run_verify


def chain_embedding(names, marking):
    """Embedding of a chain poset (first name at the bottom)."""
    covers = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    p = Poset.from_covers(names, covers)
    mp = MarkedPoset.make(p, marking)
    chain = [TOP] + list(reversed(names)) + [BOTTOM]
    faces = [Face.make(SENTINEL, chain), Face.make(chain, SENTINEL)]
    return MarkedEmbedding.make(mp, faces, face_ids=("Ft", "Fs"))


def diamond_embedding(marking):
    p = Poset.from_covers(
        ["a", "c", "x", "y"], [("a", "x"), ("a", "y"), ("x", "c"), ("y", "c")]
    )
    mp = MarkedPoset.make(p, marking)
    faces = [
        Face.make(SENTINEL, [TOP, "c", "x", "a", BOTTOM]),
        Face.make(["c", "x", "a"], ["c", "y", "a"]),
        Face.make([TOP, "c", "y", "a", BOTTOM], SENTINEL),
    ]
    return MarkedEmbedding.make(mp, faces, face_ids=("Ft", "Fmid", "Fs"))


def test_validate_gt_embedding():
    for lam in [(1, 0), (2, 1, 0), (3, 1, 1, 0)]:
        gt_embedding(lam)  # an embedding checks itself when it is made


def test_validate_rejects_marked_left_interior():
    # diamond hung between two marked chain ends; x on the left boundary of
    # the interior face, whose min/max m1, m2 stay unmarked
    p = Poset.from_covers(
        ["a", "m1", "x", "y", "m2", "c"],
        [("a", "m1"), ("m1", "x"), ("m1", "y"), ("x", "m2"), ("y", "m2"), ("m2", "c")],
    )
    faces = [
        Face.make(SENTINEL, [TOP, "c", "m2", "x", "m1", "a", BOTTOM]),
        Face.make(["m2", "x", "m1"], ["m2", "y", "m1"]),
        Face.make([TOP, "c", "m2", "y", "m1", "a", BOTTOM], SENTINEL),
    ]
    MarkedEmbedding.make(MarkedPoset.make(p, {"a": 0, "c": 2, "y": 1}), faces)  # y strictly inside Fs's left boundary
    with pytest.raises(EmbeddingError, match="max/min unmarked"):
        MarkedEmbedding.make(MarkedPoset.make(p, {"a": 0, "c": 2, "x": 1}), faces)  # x marked on Fmid's left boundary


def test_validate_rejects_a_marking_ascending_along_a_chain():
    with pytest.raises(PosetError, match="not order-preserving"):
        chain_embedding(["a", "b", "c"], {"a": 2, "b": 1, "c": 0})


def test_build_G_P_on_chain():
    p = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    chain = [TOP, "c", "b", "a", BOTTOM]
    faces = [Face.make(SENTINEL, chain), Face.make(chain, SENTINEL)]
    dn = build_G_PAlambda(MarkedEmbedding.make(MarkedPoset.make(p, {}), faces, hat_values=(0, 1)))
    g = dn.network
    # one source (+1), one sink (-1), a parallel bundle of 4 dual edges
    assert g.num_vertices == 2
    assert g.netflow == (1, -1)
    assert len(g.edges) == 4
    # order polytope of the 3-chain is a 3-simplex: 4 lattice points
    assert kostant(g) == p.order_polynomial(1) == 4
    assert lidskii_volume(g) * math.factorial(3) == p.count_linear_extensions()


def test_build_G_P_on_antichain():
    p = Poset.from_covers(["a", "b"], [])
    faces = [
        Face.make(SENTINEL, [TOP, "a", BOTTOM]),
        Face.make([TOP, "a", BOTTOM], [TOP, "b", BOTTOM]),
        Face.make([TOP, "b", BOTTOM], SENTINEL),
    ]
    dn = build_G_PAlambda(MarkedEmbedding.make(MarkedPoset.make(p, {}), faces, hat_values=(0, 1)))
    assert dn.network.netflow == (1, 0, -1)
    assert kostant(dn.network) == 4  # unit square
    assert lidskii_volume(dn.network) * 2 == p.count_linear_extensions() == 2
    for m in (1, 2, 3):
        b = (m, 0, -m)
        assert kostant(dn.network, b) == p.order_polynomial(m)


def test_gt_dual_network_matches_G_lambda():
    for lam in [(1, 0), (2, 1, 0), (3, 1, 0), (2, 2, 1)]:
        me = gt_embedding(lam)
        dn = build_G_PAlambda(me)
        gl = build_G_lambda(lam).network
        assert kostant(dn.network) == kostant(gl)
        assert lidskii_volume(gl) == marked_volume(me.mp)
        # simplified dual: sources are the positive gaps, one sink
        s, vmap, emap = simplify(dn.network)
        assert sum(1 for x in s.netflow if x < 0) == 1
        assert sorted(x for x in s.netflow if x > 0) == sorted(
            x for x in gl.netflow if x > 0
        )


def test_gamma_values_match_network_edge_labels():
    lam = (2, 1, 0)
    me = gt_embedding(lam)
    dn = build_G_PAlambda(me)
    gl = build_G_lambda(lam)
    from gtflow.gt import GTPattern, cell_id

    for point in lattice_points(me.mp):
        f = gamma(dn, point)
        pat = GTPattern(tuple(tuple(point[cell_id(i, j)] for j in range(i, 4)) for i in range(1, 4)))
        fl = gt_to_flow(lam, pat)
        for (lab, k) in gl.edge_index.items():
            if lab[0] == "a":
                _, i, j = lab
                cov = (cell_id(i, j), cell_id(i - 1, j - 1))
            elif lab[0] == "b":
                _, i, j = lab
                cov = (cell_id(i - 1, j), cell_id(i, j))
            else:
                continue
            assert f[dn.edge_of_cover[cov]] == fl[k]


def gamma_bijection_case(me):
    dn = build_G_PAlambda(me)
    pts = lattice_points(me.mp)
    flows = [gamma(dn, x) for x in pts]
    assert len(set(flows)) == len(pts)
    direct = enumerate_integer_flows(dn.network)
    assert set(flows) == set(direct)
    for x, f in zip(pts, flows):
        assert gamma_inverse(dn, f) == x
    return dn


def test_gamma_bijection_on_fixtures():
    gamma_bijection_case(gt_embedding((2, 1, 0)))
    gamma_bijection_case(chain_embedding(["a", "m", "c"], {"a": 0, "c": 3}))
    gamma_bijection_case(diamond_embedding({"a": 0, "c": 3}))
    gamma_bijection_case(diamond_embedding({"a": 0, "c": 3, "y": 2}))


def test_gamma_zero_flow_for_constant_marking():
    me = chain_embedding(["a", "m", "c"], {"a": 2, "c": 2})
    dn = build_G_PAlambda(me)
    pts = lattice_points(me.mp)
    assert len(pts) == 1
    assert set(gamma(dn, pts[0])) == {0}


def test_marked_interior_face_processing():
    # single bounded face whose left boundary has a marked interior element
    p = Poset.from_covers(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")]
    )
    mp = MarkedPoset.make(p, {"a": 0, "b": 1, "c": 3})
    faces = [
        Face.make(SENTINEL, [TOP, "c", "b", "a", BOTTOM]),
        Face.make(["c", "b", "a"], ["c", "d", "a"]),
        Face.make([TOP, "c", "d", "a", BOTTOM], SENTINEL),
    ]
    me = MarkedEmbedding.make(mp, faces, face_ids=("Ft", "F", "Fs"))
    dn = build_G_PAlambda(me)
    by_name = dict(zip(dn.network.names, dn.network.netflow))
    assert by_name["t^F"] == -3
    assert by_name["s1^F"] == 2 and by_name["s2^F"] == 1
    gamma_bijection_case(me)


def test_gamma_with_rational_markings():
    from fractions import Fraction

    from gtflow.poset import enumerate_vertices

    me = diamond_embedding({"a": Fraction(1, 2), "c": Fraction(7, 2)})
    dn = build_G_PAlambda(me)  # netflows are integral differences
    for v in enumerate_vertices(me.mp):
        f = gamma(dn, v)
        assert gamma_inverse(dn, f) == v


def test_gamma_path_independence_sampled():
    me = diamond_embedding({"a": 0, "c": 3, "y": 2})
    dn = build_G_PAlambda(me)
    hat = me.hat_poset
    lamhat = me.extended_marking
    for f in enumerate_integer_flows(dn.network):
        # recompute x along every saturated chain; all must agree
        x = gamma_inverse(dn, f)
        xh = dict(x)
        xh[BOTTOM] = lamhat[BOTTOM]
        xh[TOP] = lamhat[TOP]
        for (p, q) in hat.covers:
            assert xh[q] - xh[p] == f[dn.edge_of_cover[(p, q)]]


# ---------------------------------------------------------------------------
# skew GT


def test_skew_points_against_ssyt():
    # mu = 0: straight shapes counted by SSYT with alphabet m
    for lam, m in [((2, 1), 3), ((1, 1), 2), ((3,), 2)]:
        pts = enumerate_skew_points(lam, (0,) * len(lam), m)
        shape = tuple(p for p in lam if p > 0)
        assert len(pts) == count_ssyt(shape, m)


def test_skew_equal_shapes_single_point():
    assert len(enumerate_skew_points((2, 1), (2, 1), 3)) == 1


def test_build_skew_gt_is_valid():
    me = build_skew_gt((2, 1), (1, 0), 3)
    assert len(lattice_points(me.mp)) == len(enumerate_skew_points((2, 1), (1, 0), 3))


def test_build_skew_flow_counts():
    cases = [
        ((1, 0), (0, 0), 3),
        ((2, 1), (1, 0), 3),
        ((2, 1), (1, 1), 3),
        ((2, 2), (1, 0), 4),
        ((1,), (0,), 1),
        ((2, 1, 0), (1, 0, 0), 3),
    ]
    for lam, mu, m in cases:
        dn = build_skew_flow(lam, mu, m)
        assert kostant(dn.network) == len(enumerate_skew_points(lam, mu, m))


def test_build_skew_flow_m2_rejected():
    with pytest.raises(EmbeddingError):
        build_skew_flow((2, 1), (1, 0), 2)


def test_skew_volume_matches_marked_volume():
    lam, mu, m = (2, 1), (1, 0), 3
    me = build_skew_gt(lam, mu, m)
    # the network has several sinks, so compare by Ehrhart counts instead
    dn = build_G_PAlambda(me)
    for t in (1, 2):
        lam_t = tuple(t * x for x in lam)
        mu_t = tuple(t * x for x in mu)
        assert len(enumerate_skew_points(lam_t, mu_t, m)) == kostant(
            build_G_PAlambda(build_skew_gt(lam_t, mu_t, m)).network
        )


def test_gamma_int_and_fraction_points_agree():
    for name, me in corpus.embeddings():
        dn = build_G_PAlambda(me)
        for x in lattice_points(me.mp):
            f = gamma(dn, x)
            assert f == gamma(dn, {k: Fraction(v) for k, v in x.items()}), name
            assert all(type(v) is int for v in f), name


def test_gamma_rejects_infeasible_integer_points():
    me = gt_embedding((2, 1, 0))
    dn = build_G_PAlambda(me)
    x = lattice_points(me.mp)[0]
    free = next(e for e in x if e not in me.mp.marking)
    marked = next(iter(me.mp.marking))
    for bad in ({**x, free: 3}, {**x, marked: x[marked] + 1}):
        with pytest.raises(PosetError):
            gamma(dn, bad)


def test_verify_subdivision_raises_on_an_embedding_without_a_dual(tmp_path, monkeypatch):
    # a chain marked 0 and 1/2 has no integer dual network; an external
    # corpus holding it is an error, not a skip: the subdivision routes
    # skip only the embeddings they do not cover
    p = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    mp = MarkedPoset.make(p, {"a": 0, "c": Fraction(1, 2)})
    chain = [TOP, "c", "b", "a", BOTTOM]
    me = MarkedEmbedding.make(mp, [(SENTINEL, chain), (chain, SENTINEL)])
    (tmp_path / "half.embedding.json").write_text(json.dumps(me.to_json()))
    loaders = (corpus.networks, corpus.embeddings, corpus.posets)
    monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path))
    for load in loaders:
        load.cache_clear()
    try:
        with pytest.raises(EmbeddingError, match="integer markings"):
            run_verify("subdivision")
    finally:
        # every loader read the external corpus: none keeps it for later tests
        for load in loaders:
            load.cache_clear()


def test_an_external_corpus_loads_each_file_under_its_stem(tmp_path, monkeypatch):
    # a fixture is named by its file name without the .{kind}.json suffix
    net = dict(corpus.networks())["triangle"]
    me = dict(corpus.embeddings())["chain3"]
    p = dict(corpus.posets())["vee"]
    full, empty = tmp_path / "full", tmp_path / "empty"
    full.mkdir()
    empty.mkdir()
    for name, fixture in (("t.network", net), ("c.embedding", me), ("v.poset", p)):
        (full / f"{name}.json").write_text(json.dumps(fixture.to_json()))
    loaders = (corpus.networks, corpus.embeddings, corpus.posets)
    try:
        monkeypatch.setenv(corpus.CORPUS_ENV, str(full))
        for load in loaders:
            load.cache_clear()
        assert corpus.networks() == (("t", net),)
        assert corpus.embeddings() == (("c", me),)
        assert corpus.posets() == (("v", p),)
        monkeypatch.setenv(corpus.CORPUS_ENV, str(empty))
        for load in loaders:
            load.cache_clear()
        assert [load() for load in loaders] == [(), (), ()]
    finally:
        for load in loaders:
            load.cache_clear()


def test_validate_requires_one_flag_and_one_distinct_id_per_face():
    me = dict(corpus.embeddings())["marked-interior"]
    bad_flag = me.to_json()
    bad_flag["faces"][1]["flag"] = "Q"
    with pytest.raises(EmbeddingError, match="'L' or 'R'"):
        MarkedEmbedding.from_json(bad_flag)
    with pytest.raises(EmbeddingError, match="distinct"):
        MarkedEmbedding.make(me.mp, me.faces, me.flags, ("Ft", "F", "F"))
    with pytest.raises(EmbeddingError, match="distinct"):
        MarkedEmbedding.make(me.mp, me.faces, me.flags, ("Ft", "F"))
    with pytest.raises(EmbeddingError, match="'L' or 'R'"):
        MarkedEmbedding.make(me.mp, me.faces, ("L", "L"), me.face_ids)


# the marked-interior-mirror fixture, drawn as the mirror of marked-interior:
# its marked interior element b sits on F's right chain, so F flagged R
# becomes a source remnant s^F and two gap sinks; vertex keys, names,
# netflow, in- and out-orders per flag assignment of (Ft, F, Fs)
MIRROR_DUALS = {
    "LRL": (
        (("rsrc", "F"), ("src", "Fs", 0), ("src", "Fs", 1), ("src", "Fs", 2), ("src", "Fs", 3),
         ("rsink", "Ft"), ("sink", "F", 0), ("sink", "F", 1)),
        ("s^F", "s1^Fs", "s2^Fs", "s3^Fs", "s4^Fs", "t^Ft", "t1^F", "t2^F"),
        (3, 0, 2, 1, 0, -3, -2, -1),
        ((), (), (), (), (), (2, 0, 1, 5), (3,), (4,)),
        ((0, 1), (2,), (3,), (4,), (5,), (), (), ()),
    ),
    "LRR": (
        (("rsrc", "F"), ("rsrc", "Fs"), ("rsink", "Ft"), ("sink", "F", 0), ("sink", "F", 1)),
        ("s^F", "s^Fs", "t^Ft", "t1^F", "t2^F"),
        (3, 3, -3, -2, -1),
        ((), (), (2, 0, 1, 5), (3,), (4,)),
        ((0, 1), (2, 3, 4, 5), (), (), ()),
    ),
    "RRL": (
        (("rsrc", "F"), ("src", "Fs", 0), ("src", "Fs", 1), ("src", "Fs", 2), ("src", "Fs", 3),
         ("sink", "Ft", 0), ("sink", "Ft", 1), ("sink", "Ft", 2), ("sink", "F", 0), ("sink", "F", 1)),
        ("s^F", "s1^Fs", "s2^Fs", "s3^Fs", "s4^Fs", "t1^Ft", "t2^Ft", "t3^Ft", "t1^F", "t2^F"),
        (3, 0, 2, 1, 0, 0, -3, 0, -2, -1),
        ((), (), (), (), (), (2,), (0, 1), (5,), (3,), (4,)),
        ((0, 1), (2,), (3,), (4,), (5,), (), (), (), (), ()),
    ),
    "RRR": (
        (("rsrc", "F"), ("rsrc", "Fs"), ("sink", "Ft", 0), ("sink", "Ft", 1), ("sink", "Ft", 2),
         ("sink", "F", 0), ("sink", "F", 1)),
        ("s^F", "s^Fs", "t1^Ft", "t2^Ft", "t3^Ft", "t1^F", "t2^F"),
        (3, 3, 0, -3, 0, -2, -1),
        ((), (), (2,), (0, 1), (5,), (3,), (4,)),
        ((0, 1), (2, 3, 4, 5), (), (), (), (), ()),
    ),
}


@pytest.mark.parametrize("flags", sorted(MIRROR_DUALS))
def test_right_flagged_inner_face_gives_a_source_remnant(flags):
    mirror = dict(corpus.embeddings())["marked-interior-mirror"]  # flags LRL
    mp = mirror.mp
    me = MarkedEmbedding.make(mp, mirror.faces, tuple(flags), mirror.face_ids)
    dn = build_G_PAlambda(me)
    net = dn.network
    assert (dn.vertex_keys, net.names, net.netflow, net.in_orders, net.out_orders) == MIRROR_DUALS[flags]
    assert dn.crossings == (("d", "c"), ("a", "d"), ("c", TOP), ("b", "c"), ("a", "b"), (BOTTOM, "a"))
    assert kostant(net) == len(lattice_points(mp)) == 4
    gamma_bijection_case(me)
