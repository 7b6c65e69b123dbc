import math
import pytest

from gtflow import flow, gt
from gtflow.combinat import ShiftedTableau, count_N, count_ssyt, enumerate_compositions, enumerate_shsyt
from gtflow.flow import enumerate_integer_flows, kostant, lidskii_points_binomial, lidskii_volume
from gtflow.gt import (
    GTPattern,
    build_G_lambda,
    enumerate_gt_points,
    flow_to_gt,
    flow_to_shsyt,
    gt_marked_poset,
    gt_points_lidskii,
    gt_to_flow,
    gt_volume_lidskii,
    gt_volume_product,
    gt_volume_shsyt,
    shifted_netflow,
    shsyt_to_flow,
    weyl_dimension,
)
from gtflow.poset import lattice_points


def all_partitions(max_n, max_part):
    for n in range(1, max_n + 1):
        def rec(prefix, lo):
            if len(prefix) == n:
                yield tuple(prefix)
                return
            hi = prefix[-1] if prefix else max_part
            for v in range(hi, -1, -1):
                yield from rec(prefix + [v], v)
        yield from rec([], max_part)


def test_build_G_lambda_structure_n2():
    gtn = build_G_lambda((1, 0))
    assert gtn.vertex_cells == ((2, 2), (3, 2), (3, 3), (4, 3))
    assert gtn.network.netflow == (1, 0, 0, -1)
    assert len(gtn.network.edges) == 4


def test_build_G_lambda_n1():
    gtn = build_G_lambda((5,))
    assert gtn.network.num_vertices == 1
    assert gtn.network.edges == ()
    # the Lidskii sums over its empty pass: one point, volume 1
    g = gtn.network
    assert (flow.lidskii_volume(g), flow.lidskii_points_binomial(g), flow.lidskii_points_multiset(g)) == (1, 1, 1)


def test_build_G_lambda_needs_a_part():
    with pytest.raises(ValueError, match="at least one part"):
        build_G_lambda(())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_build_G_lambda_counts(n):
    lam = tuple(range(n, 0, -1))
    gtn = build_G_lambda(lam)
    assert gtn.network.num_vertices == math.comb(n + 2, 2) - 2
    assert len(gtn.network.edges) == (n - 1) * (n + 2)


def test_enumerate_gt_points_examples():
    assert len(enumerate_gt_points((2, 1, 0))) == 8
    assert len(enumerate_gt_points((0, 0, 0))) == 1
    assert len(enumerate_gt_points((1, 0))) == 2


def _loop_pattern_error(rows):
    """Reference for GTPattern's compiled check: the loop it replaced, which
    returns the first error's message, or None for a pattern."""
    n = len(rows)
    if any(len(rows[i]) != n - i for i in range(n)):
        return "rows must have lengths n, n-1, ..., 1"
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            if not rows[i - 2][j - i] >= rows[i - 1][j - i] >= rows[i - 2][j - i + 1]:
                return f"interlacing fails at ({i},{j})"
    if any(v < 0 for row in rows for v in row):
        return "entries must be nonnegative"
    return None


def _backtracked_gt_points(lam):
    """Reference for enumerate_gt_points: the row-wise backtracking it
    replaced, as row tuples."""
    n = len(lam)
    rows, out = [tuple(lam)], []

    def rec(i):
        if i > n:
            out.append(tuple(rows))
            return
        prev = rows[-1]

        def fill(row, j):
            if j > n:
                rows.append(tuple(row))
                rec(i + 1)
                rows.pop()
                return
            for v in range(prev[j - i + 1], prev[j - i] + 1):
                row.append(v)
                fill(row, j + 1)
                row.pop()

        fill([], i)

    rec(2)
    return out


def _one_entry_changes(rows):
    """rows with one entry moved by +-1 or made negative, or one row made
    one entry longer or shorter."""
    for i, row in enumerate(rows):
        for k, v in enumerate(row):
            for w in (v - 1, v + 1, -1):
                yield (*rows[:i], (*row[:k], w, *row[k + 1 :]), *rows[i + 1 :])
        yield (*rows[:i], (*row, 0), *rows[i + 1 :])
        yield (*rows[:i], row[:-1], *rows[i + 1 :])


def test_compiled_pattern_check_is_the_loop():
    # every pattern with top row length n <= 4 and entries <= 3, and every
    # one-entry change of it: accepted alike, or rejected with one message
    cases = [()]
    for lam in all_partitions(4, 3):
        for rows in _backtracked_gt_points(lam):
            cases.append(rows)
            cases.extend(_one_entry_changes(rows))
    rejected = 0
    for rows in cases:
        want = _loop_pattern_error(rows)
        if want is None:
            assert GTPattern(rows).rows == rows
        else:
            rejected += 1
            with pytest.raises(ValueError) as exc:
                GTPattern(rows)
            assert str(exc.value) == want, rows
    assert 0 < rejected < len(cases)


def test_enumerate_gt_points_is_the_backtracking():
    for lam in [*all_partitions(4, 3), (5, 3, 2, 0, 0)]:
        assert [p.rows for p in enumerate_gt_points(lam)] == _backtracked_gt_points(lam)


def test_weyl_dimension_examples():
    assert weyl_dimension((2, 1, 0)) == 8
    assert weyl_dimension((0, 0, 0, 0)) == 1
    for m in range(5):
        assert weyl_dimension((m, 0)) == m + 1


def test_gt_volume_product_examples():
    assert gt_volume_product((2, 1, 0)) == 1
    assert gt_volume_product((3, 3, 1)) == 0
    assert gt_volume_product((4, 0)) == 4


def test_volume_formulas_agree_small():
    for lam in all_partitions(3, 3):
        v1 = gt_volume_product(lam)
        assert gt_volume_shsyt(lam) == v1
        assert gt_volume_lidskii(lam) == v1


def test_point_formulas_agree_small():
    for lam in all_partitions(3, 3):
        pts = weyl_dimension(lam)
        assert gt_points_lidskii(lam) == pts
        assert len(enumerate_gt_points(lam)) == pts
        if len(lam) >= 2:
            assert kostant(build_G_lambda(lam).network) == pts


def test_points_match_ssyt_oracle():
    for lam in [(2, 1, 0), (3, 1, 0), (2, 2, 1), (3, 2, 1, 0)]:
        shape = tuple(p for p in lam if p > 0)
        assert weyl_dimension(lam) == count_ssyt(shape, len(lam))


def test_gt_to_flow_bijection():
    lam = (2, 1, 0)
    pts = enumerate_gt_points(lam)
    flows = {gt_to_flow(lam, p) for p in pts}
    assert len(flows) == len(pts) == 8
    direct = set(enumerate_integer_flows(build_G_lambda(lam).network))
    assert flows == direct
    for p in pts:
        assert flow_to_gt(lam, gt_to_flow(lam, p)) == p


def test_gt_to_flow_zero_pattern():
    lam = (0, 0, 0)
    z = enumerate_gt_points(lam)[0]
    assert set(gt_to_flow(lam, z)) == {0}


def test_marked_poset_lattice_points_matches():
    mp = gt_marked_poset((2, 1, 0))
    assert len(lattice_points(mp)) == 8
    mp2 = gt_marked_poset((1, 1))
    assert len(lattice_points(mp2)) == 1


def test_shsyt_flow_round_trip_small():
    for n in (1, 2, 3, 4):
        for t in enumerate_shsyt(n):
            f = shsyt_to_flow(t)
            back = flow_to_shsyt(n, f)
            assert back == t


def test_flow_to_shsyt_rejects_exactly_the_non_flows():
    # every flow on G_lambda(0^n) with a diagonal-shifted netflow, and every
    # change of one edge of one by +-1: a vector is accepted exactly when it
    # is such a flow, and its tableau maps back to it
    changes = 0
    for n in (1, 2, 3, 4):
        network = build_G_lambda((0,) * n).network
        total = n * (n - 1) // 2
        flows = {
            f
            for b in enumerate_compositions(total, n - 1)
            for f in enumerate_integer_flows(network, shifted_netflow(n, b))
        }
        for f in flows:
            assert shsyt_to_flow(flow_to_shsyt(n, f)) == f
            for k in range(len(f)):
                for step in (-1, 1):
                    g = f[:k] + (f[k] + step,) + f[k + 1 :]
                    changes += 1
                    if g in flows:
                        assert shsyt_to_flow(flow_to_shsyt(n, g)) == g
                    else:
                        with pytest.raises(ValueError):
                            flow_to_shsyt(n, g)
    assert changes == 480


def test_tableau_maps_need_n_at_least_1():
    with pytest.raises(ValueError, match="n >= 1"):
        shsyt_to_flow(ShiftedTableau(()))
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            flow_to_shsyt(n, ())


def test_shsyt_to_flow_diagonal_and_border_zeros():
    for n in (2, 3, 4):
        gtn = build_G_lambda((0,) * n)
        for t in enumerate_shsyt(n):
            f = shsyt_to_flow(t)
            for i in range(2, n + 1):
                assert f[gtn.edge_index[("a", i, i)]] == 0
                assert f[gtn.edge_index[("b", i, n)]] == 0


def test_diagonal_counts_match_kostant():
    from itertools import product

    for n in (2, 3, 4):
        gtn = build_G_lambda((0,) * n)
        for b in product(range(4), repeat=n - 1):
            lhs = count_N(n, b)
            rhs = kostant(gtn.network, shifted_netflow(n, b))
            assert lhs == rhs, (n, b)


def test_flow_to_shsyt_inverse_on_flows():
    for n in (2, 3):
        gtn = build_G_lambda((0,) * n)
        total = n * (n - 1) // 2
        for b in enumerate_compositions(total, n - 1):
            nf = shifted_netflow(n, b)
            for f in enumerate_integer_flows(gtn.network, nf):
                t = flow_to_shsyt(n, f)
                assert t.diagonal_composition() == b
                assert shsyt_to_flow(t) == f


def test_gt_lidskii_against_flow_module():
    for lam in [(2, 1, 0), (3, 1, 0), (1, 1, 0), (2, 0), (1, 0)]:
        g = build_G_lambda(lam).network
        assert lidskii_volume(g) == gt_volume_product(lam)
        assert lidskii_points_binomial(g) == weyl_dimension(lam)
    from gtflow.flow import lidskii_points_multiset

    assert lidskii_points_multiset(build_G_lambda((1, 0)).network) == 2


def test_kostant_dps_reach_n7():
    # 10 460 353 203 flows; the index-order DPs took 14-22 s on each of these
    lam = (12, 10, 8, 6, 4, 2, 0)
    g = build_G_lambda(lam).network
    assert kostant(g) == lidskii_points_binomial(g) == weyl_dimension(lam)
    lam = (6, 5, 4, 3, 2, 1, 0)
    assert lidskii_volume(build_G_lambda(lam).network) == gt_volume_product(lam)


def test_lidskii_routes_run_no_kostant_dp(monkeypatch):
    # every Lidskii sum is one weighted DP, not a Kostant DP per composition
    def no_kostant(*args):
        raise RuntimeError("a Lidskii route called kostant")

    monkeypatch.setattr(flow, "kostant", no_kostant)
    monkeypatch.setattr(gt, "kostant", no_kostant, raising=False)
    lam = (3, 2, 1, 0)
    net = build_G_lambda(lam).network
    assert lidskii_volume(net) == gt_volume_lidskii(lam) == gt_volume_product(lam)
    assert lidskii_points_binomial(net) == gt_points_lidskii(lam) == weyl_dimension(lam)
    assert flow.lidskii_points_multiset(net) == weyl_dimension(lam)


def test_tableau_round_trip_builds_each_zero_network_once(monkeypatch):
    # flow_to_shsyt / shsyt_to_flow read their index arrays over
    # G_lambda((0,)*n) from one cache per n: the n = 5 network is built once
    calls = []
    build = gt.build_G_lambda

    def counting(lam):
        calls.append(lam)
        return build(lam)

    monkeypatch.setattr(gt, "build_G_lambda", counting)
    gt._tableau_flow_maps.cache_clear()
    try:
        for t in enumerate_shsyt(5):
            assert flow_to_shsyt(5, shsyt_to_flow(t)) == t
    finally:
        gt._tableau_flow_maps.cache_clear()
    assert calls == [(0,) * 5]
