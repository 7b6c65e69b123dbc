import dataclasses
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from gtflow import corpus, subdivision, transform
from gtflow.combinat import enumerate_compositions
from gtflow.flow import (
    FlowError,
    FlowNetwork,
    enumerate_integer_flows,
    kostant,
    lidskii_volume,
    simplify,
)
from gtflow.gt import build_G_lambda, gt_embedding, gt_volume_product
from gtflow.poset import MarkedPoset, Poset, PosetError, count_marked_extensions, lattice_points, marked_volume
from gtflow.subdivision import (
    DegenerateMarkingError,
    ReductionNode,
    ReductionTree,
    UncoveredEmbeddingError,
    canonical_reduction_tree,
    compound_reduce,
    compound_reductions,
    enumerate_noncrossing_trees,
    face_extensions,
    full_subdivision_check,
    interior_sample_disjoint,
    leaves_to_extensions,
    reduction_tree_volume,
    sigma_from_tree,
    subdivide_with_extension,
)
from gtflow.transform import SENTINEL, EmbeddingError, Face, MarkedEmbedding, _chain_covers

from test_transform import chain_embedding, diamond_embedding


def _noncrossing_spanning_tree(l, r, edges):
    """Whether edges (t, s) form a noncrossing spanning tree on ordered
    columns of l and r vertices: l + r - 1 distinct edges that cover every
    vertex, no two of them crossing.  A noncrossing bipartite graph has no
    cycle, so these edges are a tree."""
    if len(edges) != l + r - 1 or len(set(edges)) != len(edges):
        return False
    if {t for t, _ in edges} != set(range(l)) or {s for _, s in edges} != set(range(r)):
        return False
    return not any(p < t and q > u for p, q in edges for t, u in edges)


def test_noncrossing_tree_counts():
    for l in range(1, 6):
        for r in range(1, 6):
            trees = enumerate_noncrossing_trees(l, r)
            assert len(trees) == math.comb(l + r - 2, l - 1)
            assert len({tuple(subdivision._tree_edges(c)) for c in trees}) == len(trees)


def test_noncrossing_tree_composition_round_trip():
    # a tree's composition is read back off its edges: left vertex t has
    # degree c_t + 1
    for l, r in [(2, 3), (3, 4), (4, 5)]:
        for comp in enumerate_noncrossing_trees(l, r):
            edges = subdivision._tree_edges(comp)
            assert tuple(sum(t == u for t, _ in edges) - 1 for u in range(l)) == comp


def test_noncrossing_tree_worked_example():
    edges = subdivision._tree_edges((0, 2, 1, 1))  # left degrees 1, 3, 2, 2
    assert {t for t, _ in edges} == set(range(4)) and {s for _, s in edges} == set(range(5))
    assert edges == [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]


def test_star_tree():
    trees = enumerate_noncrossing_trees(1, 4)
    assert trees == ((3,),)
    assert subdivision._tree_edges(trees[0]) == [(0, 0), (0, 1), (0, 2), (0, 3)]


def test_crossing_rejected():
    # (0, 1) and (1, 0) cross: no composition of 1 into 2 parts gives them
    crossing = ((0, 1), (1, 0), (1, 1))
    assert not _noncrossing_spanning_tree(2, 2, crossing)
    assert crossing not in {tuple(subdivision._tree_edges(c)) for c in enumerate_noncrossing_trees(2, 2)}


def test_each_composition_is_a_noncrossing_spanning_tree():
    for l in range(1, 7):
        for r in range(1, 7):
            trees = enumerate_noncrossing_trees(l, r)
            edge_lists = [subdivision._tree_edges(c) for c in trees]
            for comp, edges in zip(trees, edge_lists):
                assert _noncrossing_spanning_tree(l, r, edges), comp
                assert edges == sorted(edges)  # staircase scan order
            if l * r <= 9:  # every noncrossing spanning tree is some composition's
                grid = itertools.product(range(l), range(r))
                every = [e for e in itertools.combinations(grid, l + r - 1) if _noncrossing_spanning_tree(l, r, e)]
                assert set(every) == set(map(tuple, edge_lists))


def test_sigma_from_tree_is_a_bijection_onto_the_face_extensions():
    for k in range(2, 7):
        for l in range(2, 7):
            left = ("top", *(f"p{i}" for i in range(1, k - 1)), "bot")
            right = ("top", *(f"q{i}" for i in range(1, l - 1)), "bot")
            face = Face.make(left, right)
            sigmas = [sigma_from_tree(face, c) for c in enumerate_noncrossing_trees(l - 1, k - 1)]
            assert len(set(sigmas)) == len(sigmas)
            assert set(sigmas) == set(face_extensions(face)), (k, l)


def test_a_tree_composition_of_the_wrong_shape_is_rejected():
    # vertex 1 has two in-edges and two out-edges: its trees are the
    # compositions of 1 into 2 parts
    g = FlowNetwork.make(4, [(0, 1), (0, 1), (1, 2), (1, 3), (2, 3)], (2, 0, 0, -2))
    face = Face.make(["a", "x", "b"], ["a", "y", "b"])
    assert enumerate_noncrossing_trees(2, 2) == ((1, 0), (0, 1))
    for comp in [(2, -1), (-1, 2), (1,), (1, 0, 0), (1, 1), (0, 0)]:
        with pytest.raises(FlowError, match="does not match the vertex degrees"):
            compound_reduce(g, 1, comp)
        with pytest.raises(ValueError, match="does not match the face boundary sizes"):
            sigma_from_tree(face, comp)


def test_compound_reduce_preserves_dimension_and_flows():
    g = FlowNetwork.make(
        4, [(0, 1), (0, 1), (1, 2), (1, 3), (2, 3)], (2, 0, 0, -2)
    )
    for tree in enumerate_noncrossing_trees(g.indeg(1), g.outdeg(1)):
        child, old_to_new, pairs = compound_reduce(g, 1, tree)
        assert child.dimension() == g.dimension()
        assert child.num_vertices == g.num_vertices - 1


def test_compound_reduce_requires_zero_netflow():
    g = FlowNetwork.make(3, [(0, 1), (1, 2)], (1, 0, -1))
    with pytest.raises(FlowError):
        compound_reduce(g, 0, enumerate_noncrossing_trees(1, 1)[0])


def test_single_in_edge_reduction_is_contraction():
    g = FlowNetwork.make(3, [(0, 1), (1, 2), (1, 2)], (1, 0, -1))
    trees = enumerate_noncrossing_trees(1, 2)
    assert len(trees) == 1
    child, _, _ = compound_reduce(g, 1, trees[0])
    assert child.edges == ((0, 1), (0, 1))


def test_already_reduced_tree_is_single_node():
    g = FlowNetwork.make(2, [(0, 1), (0, 1)], (2, -2))
    tree = canonical_reduction_tree(g)
    assert len(tree.nodes) == 1
    assert tree.leaves() == [0]


def test_volume_conservation_G_lambda():
    for lam in [(2, 1, 0), (3, 1, 0), (3, 2, 1, 0)]:
        g = build_G_lambda(lam).network
        tree = canonical_reduction_tree(g)
        assert reduction_tree_volume(tree) == gt_volume_product(lam)


def test_volume_conservation_after_simplify():
    # repeated parts make a zero-netflow source; simplify restores the sign
    # convention (the polytope drops to a lower-dimensional coordinate
    # subspace, so volumes are conserved in the simplified normalization)
    g = build_G_lambda((2, 1, 1, 0)).network
    with pytest.raises(FlowError):
        canonical_reduction_tree(g)
    s, _, _ = simplify(g)
    tree = canonical_reduction_tree(s)
    assert reduction_tree_volume(tree) == lidskii_volume(s)
    assert gt_volume_product((2, 1, 1, 0)) == 0  # full-dimension normalization


CRY5 = FlowNetwork.make(
    5, [(i, j) for i in range(5) for j in range(i + 1, 5)], (1, 0, 0, 0, -1)
)
CRY5_LEAF_COUNT = 2


def test_cry_volume_and_leaf_count():
    tree = canonical_reduction_tree(CRY5)
    vol = reduction_tree_volume(tree)
    # normalized volume of the K5 Chan-Robbins-Yuen polytope is 2
    assert vol == lidskii_volume(CRY5) == Fraction(2, math.factorial(6))
    # golden leaf count, cross-checked by the shifted-netflow identity below
    assert len(tree.leaves()) == CRY5_LEAF_COUNT


def test_leaf_counts_by_out_degrees_match_kostant():
    # leaves grouped by source out-degrees are counted by Kostant values at
    # the matching shifted netflow (this doubles as the independent check of
    # the frozen CRY5 leaf count)
    for g in (CRY5, build_G_lambda((2, 1, 0)).network, build_G_lambda((3, 1, 0)).network):
        tree = canonical_reduction_tree(g)
        sources = [v for v in range(g.num_vertices) if g.netflow[v] > 0]
        groups: dict[tuple, int] = {}
        for li in tree.leaves():
            net = tree.nodes[li].network
            degs = tuple(
                net.outdeg(v) for v in range(net.num_vertices) if net.netflow[v] > 0
            )
            groups[degs] = groups.get(degs, 0) + 1
        for degs, cnt in groups.items():
            j = dict(zip(sources, (d - 1 for d in degs)))
            shifted = tuple(
                j.get(v, 0) - g.out_shift(v) for v in range(g.num_vertices - 1)
            ) + (0,)
            assert kostant(g, shifted) == cnt


def test_interior_sample_disjoint():
    # cry5's two leaves first hold an interior point at dilation 7
    assert interior_sample_disjoint(canonical_reduction_tree(CRY5)) == (7, 2, True)
    assert interior_sample_disjoint(canonical_reduction_tree(build_G_lambda((2, 1, 0)).network))[2]


def test_interior_sample_disjoint_catches_overlapping_cells():
    g = dict(corpus.networks())["double-rail"]
    tree = canonical_reduction_tree(g)
    assert interior_sample_disjoint(tree) == (2, 6, True)
    leaf = tree.nodes[tree.leaves()[0]]
    # a second leaf with the same cell: a separate node, so its points
    # collide with the first leaf's under another leaf index
    tree.nodes.append(dataclasses.replace(leaf))
    assert interior_sample_disjoint(tree)[2] is False


def test_interior_sample_disjoint_fails_without_an_interior_point():
    # the edge (1, 2) leaves a vertex with no in-edges and netflow 0, so it
    # carries 0 in every flow and no dilation has an interior point
    g = FlowNetwork.make(3, [(0, 2), (1, 2)], (1, 0, -1))
    tree = ReductionTree([ReductionNode(g, ((0,), (1,)))])
    assert interior_sample_disjoint(tree) == (None, 0, False)


def _root_vertex(tree, ni, u):
    """The root vertex that vertex u of node ni descends from."""
    node = tree.nodes[ni]
    while node.parent is not None:
        u += u >= node.reduced_vertex
        node = tree.nodes[node.parent]
    return u


def test_inclusions_are_root_paths():
    for g in (CRY5, build_G_lambda((3, 1, 0)).network):
        tree = canonical_reduction_tree(g)
        for ni, node in enumerate(tree.nodes):
            for (tail, head), path in zip(node.network.edges, node.inclusion):
                walk = [g.edges[e] for e in path]
                assert walk[0][0] == _root_vertex(tree, ni, tail)
                assert walk[-1][1] == _root_vertex(tree, ni, head)
                assert all(a[1] == b[0] for a, b in zip(walk, walk[1:]))
        for li in tree.leaves():
            for f in enumerate_integer_flows(tree.nodes[li].network):
                assert g.check_flow(subdivision._root_point(f, tree.nodes[li].inclusion, len(g.edges)))


def _scanned_tree(g):
    """Reference for canonical_reduction_tree: each node is scanned for its
    highest zero-netflow vertex, reduced one tree at a time, and its root
    paths are placed by the tree-edge indices of the reduction."""
    nodes = [ReductionNode(g, tuple((i,) for i in range(len(g.edges))))]
    stack = [0]
    while stack:
        ni = stack.pop()
        net, inc = nodes[ni].network, nodes[ni].inclusion
        zeros = [v for v in range(net.num_vertices) if net.netflow[v] == 0]
        if net.num_vertices == 1 or not zeros:
            continue
        v = zeros[-1]
        for comp in enumerate_noncrossing_trees(net.indeg(v), net.outdeg(v)):
            child, old_to_new, pairs = compound_reduce(net, v, comp)
            paths = [None] * len(child.edges)
            for old, new in old_to_new.items():
                paths[new] = inc[old]
            for idx, a, b in pairs:
                paths[idx] = inc[a] + inc[b]
            nodes.append(ReductionNode(child, tuple(paths), ni, v, comp))
            stack.append(len(nodes) - 1)
    return ReductionTree(nodes)


def test_canonical_reduction_tree_matches_a_per_node_scan():
    duals = [simplify(transform.build_G_PAlambda(me).network)[0] for _, me in corpus.embeddings()]
    compared = 0
    gts = [build_G_lambda(lam).network for lam in ((3, 2, 1, 0), (4, 3, 2, 1, 0))]
    for g in [g for _, g in corpus.networks()] + duals + gts:
        try:
            tree = canonical_reduction_tree(g)
        except FlowError:  # outside the sign convention
            continue
        ref = _scanned_tree(g)
        assert tree.to_json() == ref.to_json()
        assert tree.to_dot() == ref.to_dot()
        assert tree.leaves() == ref.leaves()
        assert [n.inclusion for n in tree.nodes] == [n.inclusion for n in ref.nodes]
        compared += len(tree.nodes) > 1
    assert compared >= 20


# ---------------------------------------------------------------------------
# order side


def test_face_extensions_counts():
    f = Face.make(["a", "x", "b"], ["a", "y", "z", "b"])
    exts = face_extensions(f)
    assert len(exts) == math.comb(3, 1)
    f2 = Face.make(["a", "b"], ["a", "b"])
    assert face_extensions(f2) == [("a", "b")]


def test_sigma_from_tree_quadrilateral():
    f = Face.make(["a", "x", "b"], ["a", "y", "b"])
    pairs = gamma_cells_fixture(f)
    assert sorted(s for _, s in pairs) == [("a", "x", "y", "b"), ("a", "y", "x", "b")]


def gamma_cells_fixture(face):
    trees = enumerate_noncrossing_trees(len(face.right) - 1, len(face.left) - 1)
    return [(t, sigma_from_tree(face, t)) for t in trees]


def test_gamma_cells_on_gt_diamond():
    me = gt_embedding((2, 1, 0))
    face = me.faces[me.face_ids.index("D2_3")]
    pairs = gamma_cells_fixture(face)
    assert len(pairs) == 2
    sigmas = {s for _, s in pairs}
    assert sigmas == set(face_extensions(face)) == {
        ("x2_2", "x3_3", "x1_2", "x2_3"),
        ("x2_2", "x1_2", "x3_3", "x2_3"),
    }


def test_subdivide_marked_face_volumes():
    me = gt_embedding((2, 1, 0))
    face = me.faces[me.face_ids.index("D2_3")]
    children = [subdivide_with_extension(me, "D2_3", s) for s in face_extensions(face)]
    assert len(children) == 2
    assert sum(marked_volume(c.mp) for c in children) == marked_volume(me.mp)


def test_full_subdivision_check_gt():
    report = full_subdivision_check(gt_embedding((2, 1, 0)))
    assert report.cells == 2
    assert report.ok
    report2 = full_subdivision_check(gt_embedding((3, 1, 0)))
    assert report2.ok


def test_full_subdivision_check_trivial():
    report = full_subdivision_check(chain_embedding(["a", "m", "c"], {"a": 0, "c": 2}))
    assert report.cells == 1 and report.ok


def test_full_subdivision_check_diamond():
    report = full_subdivision_check(diamond_embedding({"a": 0, "c": 3}))
    assert report.cells == 2 and report.ok
    # a mark on the right boundary does not block the face reduction
    report2 = full_subdivision_check(diamond_embedding({"a": 0, "c": 3, "y": 2}))
    assert report2.cells == 2 and report2.ok


def five_element_fixture():
    # a < {x, y, p} < c with p marked and drawn easternmost, so all marks
    # lie on the left boundary of Fs and the dual has a single sink
    p = Poset.from_covers(
        ["a", "x", "p", "y", "c"],
        [("a", "x"), ("a", "p"), ("a", "y"), ("x", "c"), ("p", "c"), ("y", "c")],
    )
    mp = MarkedPoset.make(p, {"a": 0, "c": 3, "p": 1})
    from gtflow.poset import BOTTOM, TOP

    faces = [
        Face.make(SENTINEL, [TOP, "c", "x", "a", BOTTOM]),
        Face.make(["c", "x", "a"], ["c", "y", "a"]),
        Face.make(["c", "y", "a"], ["c", "p", "a"]),
        Face.make([TOP, "c", "p", "a", BOTTOM], SENTINEL),
    ]
    return MarkedEmbedding.make(mp, faces, face_ids=("Ft", "F1", "F2", "Fs"))


def test_extension_bijection_on_fixtures():
    cases = [
        (gt_embedding((2, 1, 0)), 3),
        (gt_embedding((1, 0)), 3),
        (five_element_fixture(), 3),
        (diamond_embedding({"a": 0, "c": 3}), 3),
    ]
    for me, amax in cases:
        k = len(me.mp.sorted_marked())
        dim = len(me.mp.poset.elements) - k
        for a in enumerate_compositions(dim, k - 1):
            if any(x > amax for x in a):
                continue
            records = leaves_to_extensions(me, a)
            assert len(records) == count_marked_extensions(me.mp, a), (a,)


# every rejected order of the sweep below: the exception and message that
# making the child raises
SWEEP_REJECTIONS = {
    ("EmbeddingError", "boundary edges do not tile the Hasse diagram: missing=[('0hat', 'a'), ('a', 'b')] extra=[]"): 1,
    ("EmbeddingError", "boundary edges do not tile the Hasse diagram: missing=[('0hat', 'b'), ('b', 'a')] extra=[]"): 1,
    ("EmbeddingError", "face D2_1: marked R boundary but max/min unmarked"): 1,
    ("EmbeddingError", "face D3_1: marked L boundary but max/min unmarked"): 1,
    ("EmbeddingError", "face F1: (0hat,c) is not a cover"): 2,
    ("EmbeddingError", "face F2 chains must share max and min"): 1,
    ("EmbeddingError", "face F2: (b,0hat) is not a cover"): 1,
    ("EmbeddingError", "face Fs chain repeats an element"): 1,
    ("EmbeddingError", "face Ft: (0hat,c) is not a cover"): 4,
    ("EmbeddingError", "face Ft: (a,0hat) is not a cover"): 1,
    ("EmbeddingError", "face Ft: (a,1hat) is not a cover"): 4,
    ("EmbeddingError", "face Ft: (b,c) is not a cover"): 1,
    ("PosetError", "added relations create a cycle"): 442,
    ("PosetError", "marking not order-preserving: c<d but 2>1"): 4,
}


def _with_index(me):
    """An embedding with the index of its poset and the covers and order of
    its hat poset, to compare a cell step's child with a twin built from
    scratch."""
    return me, me.mp.poset.topo_order, me.mp.poset._below, me.hat_poset.covers, me.hat_poset.topo_order


def _twin(child):
    """A twin of a cell step's child, made from scratch of the same fields:
    its poset index is built from the covers, not carried over by
    with_relations."""
    p = child.mp.poset
    mp = MarkedPoset.make(Poset.from_covers(p.elements, p.covers), child.mp.marking)
    return MarkedEmbedding.make(mp, child.faces, child.flags, child.face_ids, child.hat_values)


def test_a_child_changes_only_covers_of_the_replaced_face():
    # every order of every inner face's elements, on the corpus and on the
    # n = 5 GT embedding: an accepted child has lost only hat covers of the
    # replaced face's boundary and gained only covers of the new chain, and
    # equals a twin whose poset index is built from scratch; any other order
    # is rejected while the child is made
    embeddings = [*corpus.embeddings(), ("gt-4-3-2-1-0", gt_embedding((4, 3, 2, 1, 0)))]
    accepted = 0
    rejected = Counter()
    for name, me in embeddings:
        for face_id, face in zip(me.face_ids, me.faces):
            if SENTINEL in (face.left, face.right):
                continue
            boundary = set(_chain_covers(face.left)) | set(_chain_covers(face.right))
            for sigma in itertools.permutations(dict.fromkeys(face.left + face.right)):
                try:
                    child = subdivide_with_extension(me, face_id, sigma)
                except (EmbeddingError, PosetError) as exc:
                    rejected[type(exc).__name__, str(exc)] += 1
                    continue
                accepted += 1
                old, new = set(me.hat_poset.covers), set(child.hat_poset.covers)
                assert old - new <= boundary, (name, face_id, sigma)
                assert new - old <= set(_chain_covers(sigma)), (name, face_id, sigma)
                assert _with_index(child) == _with_index(_twin(child)), (name, face_id, sigma)
    assert accepted == 39
    assert rejected == SWEEP_REJECTIONS


def test_the_local_check_agrees_with_the_full_check(monkeypatch):
    # every cell full_subdivision_check makes on the covered corpus and at
    # n = 5: the child a cell step makes from its parent's poset index
    # (with_relations updates it locally) equals a twin whose index is built
    # and checked in full from scratch
    children = []
    real = subdivision.subdivide_with_extension
    monkeypatch.setattr(subdivision, "subdivide_with_extension", lambda *a: children.append(real(*a)) or children[-1])
    cells = 0
    for name, me in [*corpus.embeddings(), ("gt-4-3-2-1-0", gt_embedding((4, 3, 2, 1, 0)))]:
        children.clear()
        try:
            assert full_subdivision_check(me).ok, name
        except UncoveredEmbeddingError:
            continue
        assert [i for i, c in enumerate(children) if _with_index(c) != _with_index(_twin(c))] == [], name
        cells += len(children)
    assert cells > 448  # the n = 5 check makes 448


def test_an_extension_must_list_each_face_element_once():
    me = dict(corpus.embeddings())["n-poset-full"]  # F1: left c, a, 0hat; right c, b, 0hat
    for sigma in [("c", "a", "b", "a", "0hat"), ("c", "0hat", "a", "b", "0hat"), ("c", "a", "a", "b", "0hat")]:
        with pytest.raises(EmbeddingError, match="^extension must order exactly the face elements$"):
            subdivide_with_extension(me, "F1", sigma)


def test_a_cell_step_builds_no_poset_index_and_one_embedding_check(monkeypatch):
    me = gt_embedding((4, 3, 2, 1, 0))
    runs = Counter()
    for cls in (MarkedEmbedding, Poset):
        real = cls.__post_init__

        def counted(self, _real=real, _name=cls.__name__):
            runs[_name] += 1
            return _real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    children = Counter()
    real_step = subdivision.subdivide_with_extension

    def step(*args):
        children["cells"] += 1
        return real_step(*args)

    monkeypatch.setattr(subdivision, "subdivide_with_extension", step)
    report = full_subdivision_check(me)
    assert (report.cells, report.total_volume, report.root_volume, report.ok) == (286, 1, 1, True)
    # each child is checked once, when it is made; its poset keeps the
    # index that with_relations computes
    assert children == Counter(cells=448)
    assert runs == Counter(MarkedEmbedding=448)


def test_a_cell_step_without_one_of_its_relations_gives_the_same_child_or_raises(monkeypatch):
    # with_relations drops one of the relations a step adds, one at a time,
    # for every accepted order of every inner face: the child is then the
    # same (the relation was implied by the others) or making it raises
    real = Poset.with_relations
    drop = {}

    def dropping(self, pairs):
        pairs = list(pairs)
        drop["added"] = len(pairs)
        if "index" in drop:
            del pairs[drop["index"]]
        return real(self, pairs)

    monkeypatch.setattr(Poset, "with_relations", dropping)
    outcomes = Counter()
    embeddings = [
        *corpus.embeddings(),
        ("gt-3-2-1-0", gt_embedding((3, 2, 1, 0))),
        ("gt-4-3-2-1-0", gt_embedding((4, 3, 2, 1, 0))),
    ]
    for name, me in embeddings:
        for face_id, face in zip(me.face_ids, me.faces):
            if SENTINEL in (face.left, face.right):
                continue
            for sigma in itertools.permutations(dict.fromkeys(face.left + face.right)):
                drop.clear()
                try:
                    child = subdivide_with_extension(me, face_id, sigma)
                except (EmbeddingError, PosetError):
                    continue
                for i in range(drop["added"]):
                    drop["index"] = i
                    try:
                        same = subdivide_with_extension(me, face_id, sigma) == child
                    except (EmbeddingError, PosetError):
                        outcomes["raised"] += 1
                        continue
                    assert same, (name, face_id, sigma, i)
                    outcomes["same"] += 1
    assert outcomes == Counter(same=87, raised=45)


def test_extension_bijection_infeasible_gap():
    me = gt_embedding((2, 1, 0))
    assert leaves_to_extensions(me, (9, 9)) == []


def test_face_order_naturality():
    from gtflow.combinat import enumerate_shsyt
    from gtflow.subdivision import _reduction_order, _simplified_dual_state

    me = gt_embedding((3, 2, 1, 0))
    root, _ = _simplified_dual_state(me)
    plan = _reduction_order(root)
    r1 = full_subdivision_check(me)
    r2 = full_subdivision_check(me, face_order=list(reversed(plan)))
    assert r1.ok and r2.ok
    assert r1.cells == r2.cells
    assert r1.total_volume == r2.total_volume
    # the cells of the GT subdivision are labeled by shifted tableaux
    assert r1.cells == len(enumerate_shsyt(4))


@pytest.mark.parametrize("tamper", ["add-outside-point", "drop-point"])
def test_full_subdivision_check_flags_tampered_cell_points(monkeypatch, tamper):
    me = gt_embedding((3, 1, 0))
    elements = me.mp.poset.elements
    free = next(i for i, e in enumerate(elements) if e not in me.mp.marking)
    real = subdivision._cell_points
    calls = []

    def tampered(parent, child):
        pts = real(parent, child)
        calls.append(child)
        if tamper == "drop-point":
            return pts[:-1]
        return pts + (pts[0][:free] + (99,) + pts[0][free + 1 :],)

    monkeypatch.setattr(subdivision, "_cell_points", tampered)
    report = full_subdivision_check(me)
    assert calls
    assert not report.lattice_matches
    assert report.volumes_match


def test_carried_cell_points_equal_a_fresh_search(monkeypatch):
    # lattice_points is the independent oracle: it searches each cell again
    cells = []
    real = subdivision._cell_points

    def spy(parent, child):
        pts = real(parent, child)
        cells.append((child.me.mp, pts))
        return pts

    monkeypatch.setattr(subdivision, "_cell_points", spy)
    checked = set()
    # the corpus embeddings full_subdivision_check covers, and one n = 4 GT embedding
    for name, me in (("gt-3-2-1-0", gt_embedding((3, 2, 1, 0))), *corpus.embeddings()):
        cells.clear()
        try:
            report = full_subdivision_check(me)
        except UncoveredEmbeddingError:
            continue
        assert report.ok, name
        elements = me.mp.poset.elements
        for mp, pts in cells:
            assert mp.poset.elements == elements
            fresh = sorted(tuple(x[e] for e in elements) for x in lattice_points(mp))
            assert sorted(pts) == fresh, name
        if cells:
            checked.add(name)
    assert "gt-3-2-1-0" in checked and len(checked) >= 5


def _reductions(make):
    try:
        return [(child.to_json(), old_to_new, pairs) for child, old_to_new, pairs in make()]
    except FlowError as exc:
        return str(exc)


def test_compound_reductions_match_one_tree_at_a_time():
    nets = [g for _, g in corpus.networks()] + [build_G_lambda((4, 3, 2, 1, 0)).network]
    checked = 0
    for g in nets:
        for v in range(g.num_vertices):
            if g.netflow[v] != 0:
                continue
            if not g.indeg(v) or not g.outdeg(v):
                tree = (0,)
                assert _reductions(lambda: compound_reductions(g, v, (tree,))) == _reductions(
                    lambda: [compound_reduce(g, v, tree)]
                )
                continue
            trees = enumerate_noncrossing_trees(g.indeg(v), g.outdeg(v))
            together = _reductions(lambda: compound_reductions(g, v, trees))
            assert together == _reductions(lambda: [compound_reduce(g, v, t) for t in trees])
            assert len(together) == len(trees)
            checked += 1
    assert checked >= 20


def test_full_subdivision_check_rejects_degenerate_markings():
    # verify_subdivision skips exactly UncoveredEmbeddingError; other failures propagate
    with pytest.raises(DegenerateMarkingError):
        full_subdivision_check(gt_embedding((2, 2, 0)))


DEGENERATE = "degenerate markings: equal consecutive boundary marks prune gap sources"
SINGLE_SINK = "the extension bijection needs a single sink, last in the order"


def _flags(flags):
    return f"flags {flags}: the check runs on left-flagged embeddings"


def test_verify_lists_the_subdivision_skips_with_reasons():
    from gtflow.verify import run_verify

    report = run_verify("subdivision")
    assert report["pass"]
    skipped = {(s["identity"], s["instance"]): s["reason"] for s in report["skipped"]}
    pairing, bijection = "subdivision/cell-pairing", "extension-bijection/count"
    assert skipped == {
        (pairing, "gt-2-2-0"): DEGENERATE,
        (pairing, "marked-interior-mirror"): _flags("LRL"),
        (pairing, "skew-21-10"): _flags("RLRL"),
        (bijection, "gt-2-2-0"): DEGENERATE,
        (bijection, "marked-interior"): SINGLE_SINK,
        (bijection, "marked-interior-mirror"): _flags("LRL"),
        (bijection, "n-poset-full"): SINGLE_SINK,
        (bijection, "skew-21-10"): _flags("RLRL"),
    }


@pytest.mark.parametrize("amax", [0, 3])
def test_each_embedding_is_one_record_or_one_skip_of_each_route(amax):
    from gtflow.verify import run_verify

    report = run_verify("subdivision", {"amax": amax})
    names = sorted(name for name, _ in corpus.embeddings())
    for identity in ("subdivision/cell-pairing", "extension-bijection/count"):
        # a bijection record's instance is "<name> (<m> gap vectors)"
        recorded = [r["instance"].split(" ")[0] for r in report["results"] if r["identity"] == identity]
        skipped = [s["instance"] for s in report["skipped"] if s["identity"] == identity]
        assert sorted(recorded + skipped) == names, identity
    # at amax = 0 no gap vector is left: a skip that names amax, not a vacuous record
    if amax == 0:
        reasons = {s["reason"] for s in report["skipped"] if s["identity"] == "extension-bijection/count"}
        assert "no gap vector has all parts at most amax = 0" in reasons
        assert not any("(0 gap vectors)" in r["instance"] for r in report["results"])
