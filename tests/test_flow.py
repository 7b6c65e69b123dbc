import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtflow.combinat import leading_coefficient
from gtflow.flow import (
    FlowError,
    FlowNetwork,
    _narrow_order,
    _targets,
    check_lidskii_preconditions,
    enumerate_integer_flows,
    kostant,
    leaf_volume,
    lidskii_points_binomial,
    lidskii_points_multiset,
    lidskii_volume,
    simplify,
)

TRIANGLE = FlowNetwork.make(3, [(0, 1), (1, 2), (0, 2)], (1, 0, -1))
PATH3 = FlowNetwork.make(3, [(0, 1), (1, 2)], (1, 0, -1))


def test_network_validation():
    with pytest.raises(FlowError):
        FlowNetwork.make(3, [(1, 0)], (0, 0, 0))
    with pytest.raises(FlowError):
        FlowNetwork.make(3, [(0, 1), (1, 2)], (1, 0, 0))
    assert not FlowNetwork.make(4, [(0, 1), (2, 3)], (0, 0, 0, 0)).is_connected()
    assert TRIANGLE.is_connected()
    edges, b = [(0, 1), (1, 2), (0, 2)], (1, 0, -1)
    with pytest.raises(FlowError, match="edge orderings must cover every vertex"):
        FlowNetwork.make(3, edges, b, in_orders=[(), (0,)])
    with pytest.raises(FlowError, match="edge ordering at vertex 2 is not a permutation"):
        FlowNetwork.make(3, edges, b, in_orders=[(), (0,), (1,)])
    with pytest.raises(FlowError, match="edge ordering at vertex 0 is not a permutation"):
        FlowNetwork.make(3, edges, b, out_orders=[(0, 1), (1,), ()])


def test_edge_lists_leave_equality_and_hash_alone():
    g = FlowNetwork.make(3, [(0, 2), (0, 1), (1, 2), (0, 2)], (2, 0, -2))
    h = FlowNetwork.make(3, [(0, 2), (0, 1), (1, 2), (0, 2)], (2, 0, -2))
    assert g.out_edges(0) == (0, 1, 3) and g.in_edges(2) == (0, 2, 3) and g.in_edges(0) == ()
    assert g == h and hash(g) == hash(h)
    ordered = FlowNetwork.make(
        3, g.edges, g.netflow, [(), (1,), (3, 2, 0)], [(3, 1, 0), (2,), ()]
    )
    assert ordered.in_edges(2) == (3, 2, 0) and ordered.out_edges(0) == (3, 1, 0)
    assert ordered != g


def test_enumerate_flows_examples():
    assert len(enumerate_integer_flows(TRIANGLE)) == 2
    assert enumerate_integer_flows(TRIANGLE, (0, 0, 0)) == [(0, 0, 0)]
    assert len(enumerate_integer_flows(PATH3)) == 1
    assert enumerate_integer_flows(TRIANGLE, (2, 0, -2)) == [
        (2, 2, 0),
        (1, 1, 1),
        (0, 0, 2),
    ]


def test_kostant_examples():
    assert kostant(TRIANGLE) == 2
    assert kostant(TRIANGLE, (0, 0, 0)) == 1
    assert kostant(TRIANGLE, (2, 0, -2)) == 3
    assert kostant(TRIANGLE, (1, 0, 0)) == 0  # does not sum to zero


def small_networks():
    yield TRIANGLE
    yield PATH3
    yield FlowNetwork.make(2, [(0, 1), (0, 1), (0, 1)], (2, -2))
    yield FlowNetwork.make(
        4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)], (1, 0, 0, -1)
    )
    yield FlowNetwork.make(
        4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)], (3, 1, 0, -4)
    )
    yield FlowNetwork.make(
        5,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4), (0, 4)],
        (2, 0, 0, 0, -2),
    )
    yield FlowNetwork.make(3, [(0, 1), (0, 1), (1, 2), (1, 2)], (2, 0, -2))


def test_kostant_matches_enumeration_on_corpus():
    for g in small_networks():
        assert kostant(g) == len(enumerate_integer_flows(g))
        shifted = tuple(x + 1 for x in g.netflow[:-1]) + (
            g.netflow[-1] - (g.num_vertices - 1),
        )
        assert kostant(g, shifted) == len(enumerate_integer_flows(g, shifted))


def test_kostant_edge_order_invariance():
    import random

    rng = random.Random(3)
    for g in small_networks():
        perm = list(range(len(g.edges)))
        rng.shuffle(perm)
        h = FlowNetwork.make(g.num_vertices, [g.edges[i] for i in perm], g.netflow, names=g.names)
        assert kostant(h) == kostant(g)


def test_lidskii_simplex():
    for a, d in ((1, 2), (3, 2), (2, 4)):
        g = FlowNetwork.make(2, [(0, 1)] * d, (a, -a))
        assert lidskii_volume(g) == Fraction(a ** (d - 1), math.factorial(d - 1))
        assert lidskii_points_binomial(g) == math.comb(a + d - 1, d - 1)


def test_lidskii_identities_on_corpus():
    for g in small_networks():
        pts = kostant(g)
        assert lidskii_points_binomial(g) == pts
        assert lidskii_points_multiset(g) == pts


def test_lidskii_precondition_errors():
    g = FlowNetwork.make(3, [(0, 2), (1, 2), (0, 1)], (1, -1, 0))
    with pytest.raises(FlowError) as e:
        lidskii_volume(g)
    assert "vertex 1" in str(e.value)


def _lidskii_network(seed):
    """A small network meeting the Lidskii preconditions: every non-sink
    vertex has an edge to a later one (so the network is connected) and
    netflow >= 0."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    edges = [(v, rng.randint(v + 1, n - 1)) for v in range(n - 1)]
    for _ in range(rng.randint(0, 3)):
        u = rng.randint(0, n - 2)
        edges.append((u, rng.randint(u + 1, n - 1)))
    a = [rng.randint(0, 2) for _ in range(n - 1)]
    return FlowNetwork.make(n, sorted(edges), a + [-sum(a)])


@given(st.integers(min_value=0, max_value=10**6))
@settings(deadline=None, max_examples=60)
def test_lidskii_forms_match_enumeration(seed):
    g = _lidskii_network(seed)
    flows = len(enumerate_integer_flows(g))
    assert lidskii_points_binomial(g) == lidskii_points_multiset(g) == flows
    dim = g.dimension()
    counts = [
        len(enumerate_integer_flows(g, tuple(t * x for x in g.netflow))) for t in range(dim + 1)
    ]
    assert lidskii_volume(g) == leading_coefficient(counts)


def test_lidskii_volume_is_ehrhart_leading_coefficient():
    for g in small_networks():
        dim = g.dimension()
        counts = []
        for t in range(dim + 1):
            gt = g.with_netflow(tuple(t * x for x in g.netflow))
            counts.append(lidskii_points_binomial(gt))
        lead = sum((-1) ** (dim - i) * math.comb(dim, i) * c for i, c in enumerate(counts))
        assert Fraction(lead, math.factorial(dim)) == lidskii_volume(g)


def test_lidskii_points_match_enumeration_on_dilations():
    for g in small_networks():
        for t in (1, 2, 3):
            gt = g.with_netflow(tuple(t * x for x in g.netflow))
            assert lidskii_points_binomial(gt) == len(enumerate_integer_flows(gt))


def test_leaf_volume():
    g = FlowNetwork.make(2, [(0, 1), (0, 1)], (3, -3))
    assert leaf_volume(g) == 3
    h = FlowNetwork.make(
        3, [(0, 2), (0, 2), (1, 2), (1, 2), (1, 2)], (2, 1, -3)
    )
    assert leaf_volume(h) == Fraction(2, 1) * Fraction(1, 2)
    single = FlowNetwork.make(2, [(0, 1)], (5, -5))
    assert leaf_volume(single) == 1
    with pytest.raises(FlowError):
        leaf_volume(TRIANGLE)  # zero-netflow vertex present


def test_simplify_drops_forced_zero_whiskers():
    g = FlowNetwork.make(
        4,
        [(0, 2), (1, 2), (1, 3), (2, 3)],
        (0, 1, 0, -1),
        in_orders=[(), (), (0, 1), (2, 3)],
        out_orders=[(0,), (1, 2), (3,), ()],
    )
    s, vmap, emap = simplify(g)
    assert vmap == (1, 2, 3)
    assert emap == (1, 2, 3)
    assert s.netflow == (1, 0, -1)
    assert kostant(s) == kostant(g)


def test_simplify_renumbers_each_order_side_on_its_own():
    edges = [(0, 2), (1, 2), (1, 3), (2, 3)]
    ins = [(), (), (1, 0), (3, 2)]
    outs = [(0,), (2, 1), (3,), ()]
    for in_orders, out_orders in ((ins, None), (None, outs), (None, None)):
        g = FlowNetwork.make(4, edges, (0, 1, 0, -1), in_orders, out_orders)
        s, vmap, emap = simplify(g)
        assert (vmap, emap) == ((1, 2, 3), (1, 2, 3))
        assert s.in_orders == (None if in_orders is None else ((), (0,), (2, 1)))
        assert s.out_orders == (None if out_orders is None else ((1, 0), (2,), ()))
        assert kostant(s) == kostant(g)


def test_flow_json_round_trip():
    g = TRIANGLE
    assert FlowNetwork.from_json(g.to_json()) == FlowNetwork.make(
        3, g.edges, g.netflow
    )


def test_dual_network_json_round_trip_keeps_edge_orders():
    from gtflow import corpus
    from gtflow.transform import build_G_PAlambda

    for name, me in corpus.embeddings():
        net = build_G_PAlambda(me).network
        data = json.loads(json.dumps(net.to_json()))
        again = FlowNetwork.from_json(data)
        assert again == net, name
        for v in range(net.num_vertices):
            assert again.in_edges(v) == net.in_edges(v), name
            assert again.out_edges(v) == net.out_edges(v), name
        # files written before the orders were serialized still load
        del data["in_orders"], data["out_orders"]
        assert FlowNetwork.from_json(data).in_orders is None


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
@settings(deadline=None, max_examples=30)
def test_kostant_triangle_formula(a, b):
    # triangle with netflow (a, b, -a-b): flows f01 in 0..a, forced rest
    g = TRIANGLE
    assert kostant(g, (a, b, -a - b)) == a + 1


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_kostant_matches_enumeration_on_random_networks(data):
    n = data.draw(st.integers(min_value=2, max_value=5))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    base = [(i, i + 1) for i in range(n - 1)]  # keep it connected
    extra = data.draw(st.lists(st.sampled_from(pool), max_size=4))
    edges = base + extra
    netflow = [data.draw(st.integers(min_value=0, max_value=2)) for _ in range(n - 1)]
    netflow.append(-sum(netflow))
    g = FlowNetwork.make(n, edges, netflow)
    assert kostant(g) == len(enumerate_integer_flows(g))


@st.composite
def free_networks(draw):
    """Networks on 1..7 vertices with no forced path, so a topological order
    other than index order is common: multi-edges, several sinks, isolated
    vertices and, unless drawn Lidskii-admissible, negative interior netflow.
    An admissible draw gives every vertex but the last an out-edge (which
    also connects it) and netflow >= 0."""
    n = draw(st.integers(min_value=1, max_value=7))
    pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), max_size=6)) if pool else []
    if draw(st.booleans()):
        for v in range(n - 1):
            if all(u != v for u, _ in edges):
                edges.append((v, draw(st.integers(min_value=v + 1, max_value=n - 1))))
        a = [draw(st.integers(min_value=0, max_value=2)) for _ in range(n - 1)]
    else:
        a = [draw(st.integers(min_value=-2, max_value=2)) for _ in range(n - 1)]
    return FlowNetwork.make(n, edges, a + [-sum(a)])


@given(free_networks())
@settings(deadline=None, max_examples=120, derandomize=True)
def test_kostant_and_lidskii_on_networks_without_a_forced_path(g):
    order = _narrow_order(_targets(g))
    assert sorted(order) == list(range(g.num_vertices))
    place = {v: k for k, v in enumerate(order)}
    assert all(place[u] < place[v] for u, v in g.edges)
    pts = len(enumerate_integer_flows(g))
    assert kostant(g) == pts
    try:
        check_lidskii_preconditions(g)
    except FlowError:
        return
    assert lidskii_points_binomial(g) == lidskii_points_multiset(g) == pts
    dim = g.dimension()
    counts = [
        len(enumerate_integer_flows(g, tuple(t * x for x in g.netflow))) for t in range(dim + 1)
    ]
    assert lidskii_volume(g) == leading_coefficient(counts)
