import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtflow import combinat, gt
from gtflow.combinat import (
    ShiftedTableau,
    binomial,
    count_N,
    count_ssyt,
    enumerate_compositions,
    enumerate_shsyt,
    enumerate_shsyt_corner_oracle,
    gap_volume,
    leading_coefficient,
    multiset_binomial,
)


def test_enumerate_compositions_examples():
    assert enumerate_compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert enumerate_compositions(0, 3) == [(0, 0, 0)]
    assert enumerate_compositions(1, 0) == []


def brute_compositions(total, parts):
    out = []

    def rec(prefix, left):
        if len(prefix) == parts:
            if left == 0:
                out.append(tuple(prefix))
            return
        for v in range(left, -1, -1):
            rec(prefix + [v], left - v)

    rec([], total)
    return out


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=4))
@settings(deadline=None, max_examples=60)
def test_enumerate_compositions_matches_brute_generation(total, parts):
    got = enumerate_compositions(total, parts)
    assert got == brute_compositions(total, parts)
    assert len(set(got)) == len(got)


def test_binomial_polynomial_convention():
    assert binomial(3, 2) == 3
    assert binomial(3, 5) == 0
    assert binomial(-1, 2) == 1
    assert binomial(-2, 3) == -4
    assert binomial(5, 0) == 1
    assert binomial(5, -1) == 0


def test_leading_coefficient_of_polynomial_values():
    # t^3 - t + 5: t^3 coefficient 1 through four values, t^4 coefficient 0
    # through five
    values = [t**3 - t + 5 for t in range(5)]
    assert leading_coefficient(values[:4]) == 1
    assert leading_coefficient(values) == 0
    assert leading_coefficient([7]) == 7
    assert isinstance(leading_coefficient(values[:4]), Fraction)


def _gap_volume_reference(table, gaps):
    # the sum term by term in Fractions, one factorial division per factor
    vol = Fraction(0)
    for a, count in table.items():
        term = Fraction(count)
        for g, k in zip(gaps, a):
            term *= Fraction(g) ** k / math.factorial(k)
        vol += term
    return vol


@pytest.mark.parametrize("seed", range(25))
def test_gap_volume_matches_a_fraction_reference(seed):
    rng = random.Random(seed)
    parts, total = rng.randint(1, 4), rng.randint(0, 6)
    comps = enumerate_compositions(total, parts)
    table = {a: rng.randint(1, 40) for a in rng.sample(comps, rng.randint(1, len(comps)))}
    gaps = [rng.choice([0, 1, rng.randint(2, 9), Fraction(rng.randint(0, 9), rng.randint(1, 6))]) for _ in range(parts)]
    assert gap_volume(table, gaps) == _gap_volume_reference(table, gaps)


def test_gap_volume_edge_cases():
    assert gap_volume({}, [1, 2]) == 0
    assert gap_volume({(): 5}, []) == 5
    # a zero gap keeps only the terms that put nothing in it: 5 * 2^2 / 2!
    assert gap_volume({(2, 0): 3, (1, 1): 4, (0, 2): 5}, [0, 2]) == 10
    assert gap_volume({(1, 1): 1}, [Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 6)
    with pytest.raises(ValueError, match="one sum"):
        gap_volume({(1, 0): 1, (1, 1): 1}, [1, 1])


def test_multiset_binomial_examples():
    assert multiset_binomial(2, 2) == 3
    assert multiset_binomial(1, 5) == 1
    assert multiset_binomial(0, 0) == 1
    # polynomial in n for negative arguments: <-1 over k> = binom(k-2, k)
    assert multiset_binomial(-1, 1) == -1
    assert multiset_binomial(-2, 2) == 1


def test_enumerate_shsyt_small():
    assert len(enumerate_shsyt(1)) == 1
    two = enumerate_shsyt(2)
    assert len(two) == 1
    assert all(t.entry(1, 1) == 1 for t in two)
    assert len(enumerate_shsyt(3)) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_shsyt_against_corner_oracle(n):
    assert len(enumerate_shsyt(n)) == enumerate_shsyt_corner_oracle(n)


def cell_scan_shsyt(n):
    """The staircase shSYT by trying every cell at every step, row-major."""
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    grid = {}
    out = []

    def rec(v):
        if v > len(cells):
            out.append(tuple(tuple(grid[(i, j)] for j in range(i, n + 1)) for i in range(1, n + 1)))
            return
        for (i, j) in cells:
            if (i, j) in grid or (j > i and (i, j - 1) not in grid) or (i > 1 and (i - 1, j) not in grid):
                continue
            grid[(i, j)] = v
            rec(v + 1)
            del grid[(i, j)]

    rec(1)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_shsyt_matches_cell_scan_in_order(n):
    assert [t.rows for t in enumerate_shsyt(n)] == cell_scan_shsyt(n)


def flatten(rows):
    return tuple(x for row in rows for x in row)


def test_shifted_tableau_invariants_rejected():
    with pytest.raises(ValueError):
        ShiftedTableau(flatten(((2, 1), (3,))))
    with pytest.raises(ValueError):
        ShiftedTableau(flatten(((1, 3), (2,))))
    rejected = [
        (((1, 2, 4), (3, 5), (6, 7)), "must number binom"),
        (((1, 2, 4), (3, 5)), "must number binom"),
        (((1, 2, 4), (3, 5), (5,)), "must be a permutation"),
        (((1, 2, 4), (3, 5), (7,)), "must be a permutation"),
        (((1, 2, 3), (5, 4), (6,)), r"row violation at \(2,2\)"),
        (((1, 2, 4), (3, 6), (5,)), r"column violation at \(2,3\)"),
        (((1, 4, 2), (3, 5), (6,)), r"row violation at \(1,2\)"),
        (((1, 2, 5), (3, 4), (6,)), r"column violation at \(1,3\)"),
    ]
    for rows, message in rejected:
        with pytest.raises(ValueError, match=message):
            ShiftedTableau(flatten(rows))
    ShiftedTableau(flatten(((1, 2, 4), (3, 5), (6,))))
    flat_rejected = [
        ((1, 2), "must number binom"),
        ((1, 2, 3, 4), "must number binom"),
        ((1, 2, 2), "must be a permutation"),
        ((0, 1, 2), "must be a permutation"),
        ((1, 2, 3, 4, 5, 7), "must be a permutation"),
        ((2, 1, 3), r"row violation at \(1,1\)"),
        ((), r"needs n >= 1"),
    ]
    for entries, message in flat_rejected:
        with pytest.raises(ValueError, match=message):
            ShiftedTableau(entries)
    with pytest.raises(TypeError):
        ShiftedTableau([1, 2, 3])
    assert ShiftedTableau((1, 2, 4, 3, 5, 6)).rows == ((1, 2, 4), (3, 5), (6,))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_shifted_tableau_row_major_accessors(n):
    for t in enumerate_shsyt(n):
        rows = t.rows
        again = ShiftedTableau(flatten(rows))
        assert again == t and hash(again) == hash(t)
        assert t.n == len(rows) == n
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                assert t.entry(i, j) == rows[i - 1][j - i]
        diagonal = tuple(row[0] for row in rows)
        assert t.diagonal() == diagonal
        assert t.diagonal_composition() == tuple(
            diagonal[i + 1] - diagonal[i] - 1 for i in range(n - 1)
        )


def pairwise_first_violation(n, entries):
    """The first row pair (i, j) < (i, j+1) or column pair (i, j) < (i+1, j)
    that entries break, scanning cells row-major, as the error it raises;
    None when every pair increases."""
    cell = {c: k for k, c in enumerate((i, j) for i in range(1, n + 1) for j in range(i, n + 1))}
    for (i, j), k in cell.items():
        if (i, j + 1) in cell and not entries[k] < entries[cell[i, j + 1]]:
            return f"row violation at ({i},{j})"
        if (i + 1, j) in cell and not entries[k] < entries[cell[i + 1, j]]:
            return f"column violation at ({i},{j})"
    return None


def test_compiled_order_check_is_the_pairwise_rule():
    # tableaux from the cell scan, so the walk's own validation is not used
    for n in range(1, 6):
        for rows in cell_scan_shsyt(n):
            entries = flatten(rows)
            assert pairwise_first_violation(n, entries) is None
            assert ShiftedTableau(entries).entries == entries
    for n in range(1, 5):
        for rows in cell_scan_shsyt(n):
            entries = flatten(rows)
            for a in range(len(entries)):
                for b in range(a + 1, len(entries)):
                    swapped = list(entries)
                    swapped[a], swapped[b] = swapped[b], swapped[a]
                    swapped = tuple(swapped)
                    expected = pairwise_first_violation(n, swapped)
                    if expected is None:
                        assert ShiftedTableau(swapped).entries == swapped
                    else:
                        with pytest.raises(ValueError) as raised:
                            ShiftedTableau(swapped)
                        assert str(raised.value) == expected
    for n in range(1, 31):
        size = n * (n + 1) // 2
        assert ShiftedTableau(tuple(range(1, size + 1))).n == n


def test_walk_output_is_validated(monkeypatch):
    moves = combinat._sub_staircase_moves(3)
    s = next(s for s, m in enumerate(moves) if len(m) >= 2)
    (i1, c1, t1), (i2, c2, t2) = moves[s][:2]
    swapped = list(moves)
    swapped[s] = ((i1, c2, t1), (i2, c1, t2)) + moves[s][2:]
    monkeypatch.setattr(combinat, "_sub_staircase_moves", lambda n: tuple(swapped))
    combinat.enumerate_shsyt.cache_clear()
    try:
        with pytest.raises(ValueError):
            enumerate_shsyt(3)
    finally:
        combinat.enumerate_shsyt.cache_clear()


def test_tableaux_are_compact_at_n6():
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = []
        combinat.walk_shsyt(6, held.append)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(held) == 33592
    assert not hasattr(held[0], "__dict__")
    assert retained / len(held) < 400


def test_counts_and_shsyt_volume_never_enumerate(monkeypatch):
    def refuse(n):
        raise AssertionError("enumerate_shsyt called")

    monkeypatch.setattr(combinat, "enumerate_shsyt", refuse)
    combinat.diagonal_counts.cache_clear()
    assert count_N(3, (2, 1)) == 1
    assert sum(combinat.diagonal_counts(5).values()) == 286
    for lam in [(4, 3, 2, 1, 0), (5, 4, 3, 2, 1, 0), (7, 4, 4, 2, 1, 0)]:
        assert gt.gt_volume_shsyt(lam) == gt.gt_volume_product(lam)


def test_tableau_roundtrip_streams_without_enumerate_shsyt(monkeypatch):
    from gtflow import verify

    expected = verify.verify_bijection(4, 3)
    assert all(r["pass"] for r in expected)

    def refuse(n):
        raise AssertionError("enumerate_shsyt called")

    monkeypatch.setattr(combinat, "enumerate_shsyt", refuse)
    monkeypatch.setattr(verify, "enumerate_shsyt", refuse, raising=False)
    assert verify.verify_bijection(4, 3) == expected


def thrall_count(n):
    """N! prod_{k<n} k!/(2k+1)!: the shifted staircase's standard tableaux."""
    num = math.factorial(n * (n + 1) // 2)
    den = 1
    for k in range(n):
        num *= math.factorial(k)
        den *= math.factorial(2 * k + 1)
    return num // den


def test_count_N_at_n7_sums_to_thrall_count():
    assert thrall_count(7) == 23178480
    summed = sum(count_N(7, b) for b in enumerate_compositions(7 * 8 // 2 - 7, 6))
    assert summed == thrall_count(7)


@pytest.mark.parametrize("lam", [(6, 5, 4, 3, 2, 1, 0), (9, 7, 4, 3, 3, 1, 0), (3, 3, 3, 2, 0, 0, 0)])
def test_gt_volume_shsyt_at_n7_equals_product(lam):
    assert gt.gt_volume_shsyt(lam) == gt.gt_volume_product(lam)


def test_gt_volume_shsyt_at_one_part_and_at_repeated_parts():
    # n = 1 is a point; a repeated part is a zero gap, and the volume is 0
    assert gt.gt_volume_shsyt((5,)) == 1
    for lam in [(2, 2), (3, 3, 1), (4, 2, 2, 0)]:
        assert gt.gt_volume_shsyt(lam) == 0 == gt.gt_volume_product(lam)


def test_count_N_small():
    # side 2: the unique tableau has diagonal (1, 3)
    assert count_N(2, (0,)) == 0
    assert count_N(2, (1,)) == 1
    assert count_N(2, (5,)) == 0
    # side 3: diagonals (1,4,6) and (1,3,6)
    assert count_N(3, (2, 1)) == 1
    assert count_N(3, (1, 2)) == 1
    assert count_N(3, (1, 1)) == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_count_N_sums_to_total(n):
    total = 0
    bound = n * (n + 1) // 2
    for t in enumerate_shsyt(n):
        total += 1
    summed = sum(
        count_N(n, b)
        for b in enumerate_compositions(bound - n, n - 1)
    )
    assert summed == total


def test_count_ssyt_examples():
    assert count_ssyt((1,), 3) == 3
    assert count_ssyt((2, 1), 3) == 8
    assert count_ssyt((), 5) == 1
    assert count_ssyt((2, 2), 2) == 1  # columns must strictly increase
    assert count_ssyt((1, 1, 1), 2) == 0
    assert count_ssyt((3, 1, 0), 0) == 0


@given(
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)
@settings(deadline=None, max_examples=50)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a != 0:
        assert a * (1 / a) == 1


def test_rational_canonical_form():
    f = Fraction(6, -4)
    assert f.denominator > 0
    assert (f.numerator, f.denominator) == (-3, 2)
