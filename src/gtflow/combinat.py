"""Exact combinatorial primitives shared by every other module.

Weak compositions, signed binomial coefficients, shifted standard Young
tableaux of staircase shape, and semistandard tableau counts.
All arithmetic is exact: Python ints and fractions.Fraction only, no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

Rational = Fraction


def as_partition(parts) -> tuple[int, ...]:
    """Validate and normalize a weakly decreasing tuple of nonnegative ints."""
    t = tuple(int(x) for x in parts)
    if any(x < 0 for x in t):
        raise ValueError(f"partition entries must be nonnegative: {t}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"partition must be weakly decreasing: {t}")
    return t


def as_weak_composition(parts) -> tuple[int, ...]:
    t = tuple(int(x) for x in parts)
    if any(x < 0 for x in t):
        raise ValueError(f"weak composition entries must be nonnegative: {t}")
    return t


def enumerate_compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Weak compositions of `total` into `parts` parts.

    Deterministic order: first coordinate descending, recursing left to right.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    if parts < 0:
        raise ValueError("parts must be nonnegative")
    if parts == 0:
        return [()] if total == 0 else []
    out: list[tuple[int, ...]] = []
    comp = [0] * parts

    def rec(pos: int, remaining: int) -> None:
        if pos == parts - 1:
            comp[pos] = remaining
            out.append(tuple(comp))
            return
        for v in range(remaining, -1, -1):
            comp[pos] = v
            rec(pos + 1, remaining - v)

    rec(0, total)
    return out


def binomial(m: int, k: int) -> int:
    """binom(m, k) as a polynomial in m, so m may be any integer."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= m - i
    q, r = divmod(num, math.factorial(k))
    if r:
        raise ValueError(f"product of {k} consecutive integers is not divisible by {k}!")
    return q


def finite_difference(values) -> int:
    """sum_i (-1)^(k-i) binom(k, i) values[i] over values at t = 0..k: k! times
    the t^k coefficient of the polynomial of degree at most k through them."""
    k = len(values) - 1
    return sum((-1) ** (k - i) * math.comb(k, i) * c for i, c in enumerate(values))


def multiset_binomial(n: int, k: int) -> int:
    """<n over k> = binom(n + k - 1, k), polynomial-in-n convention."""
    return binomial(n + k - 1, k)


# ---------------------------------------------------------------------------
# shifted standard Young tableaux of staircase shape


def shifted_cells(n: int) -> list[tuple[int, int]]:
    """Cells (i, j), 1 <= i <= j <= n, in row-major order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


@dataclass(frozen=True)
class ShiftedTableau:
    """Shifted standard tableau of staircase shape.

    rows[i-1] holds the entries of cells (i, i), ..., (i, n); entries are a
    permutation of 1..binom(n+1, 2), strictly increasing along rows and
    down columns.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(self.rows[i]) != n - i for i in range(n)):
            raise ValueError("rows must have staircase lengths n, n-1, ..., 1")
        vals = sorted(v for row in self.rows for v in row)
        if vals != list(range(1, n * (n + 1) // 2 + 1)):
            raise ValueError("entries must be a permutation of 1..binom(n+1,2)")
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                v = self.entry(i, j)
                if j + 1 <= n and not v < self.entry(i, j + 1):
                    raise ValueError(f"row violation at ({i},{j})")
                if i + 1 <= j and not v < self.entry(i + 1, j):
                    raise ValueError(f"column violation at ({i},{j})")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - i]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entry(i, i) for i in range(1, self.n + 1))

    def diagonal_composition(self) -> tuple[int, ...]:
        """b with T(i,i) = i + b_1 + ... + b_{i-1}."""
        d = self.diagonal()
        return tuple(d[i + 1] - d[i] - 1 for i in range(self.n - 1))


@lru_cache(maxsize=None)
def enumerate_shsyt(n: int) -> tuple[ShiftedTableau, ...]:
    """All shifted standard tableaux of staircase side n, deterministic order.

    Values 1..N are placed in increasing order; at each step the candidate
    cells (left and upper neighbors already filled) are tried row-major.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cells = shifted_cells(n)
    total = len(cells)
    grid: dict[tuple[int, int], int] = {}
    out: list[ShiftedTableau] = []

    def placeable(i: int, j: int) -> bool:
        if j > i and (i, j - 1) not in grid:
            return False
        if i > 1 and (i - 1, j) not in grid:
            return False
        return True

    def rec(v: int) -> None:
        if v > total:
            rows = tuple(
                tuple(grid[(i, j)] for j in range(i, n + 1)) for i in range(1, n + 1)
            )
            out.append(ShiftedTableau(rows))
            return
        for c in cells:
            if c not in grid and placeable(*c):
                grid[c] = v
                rec(v + 1)
                del grid[c]

    rec(1)
    return tuple(out)


def enumerate_shsyt_corner_oracle(n: int) -> int:
    """Independent count of staircase shSYT: peel removable corners, largest
    value first. Used only as an oracle against enumerate_shsyt."""
    cells = frozenset(shifted_cells(n))

    @lru_cache(maxsize=None)
    def count(remaining: frozenset) -> int:
        if not remaining:
            return 1
        total = 0
        for (i, j) in remaining:
            if (i, j + 1) not in remaining and (i + 1, j) not in remaining:
                total += count(remaining - {(i, j)})
        return total

    return count(cells)


@lru_cache(maxsize=None)
def _diagonal_counts(n: int) -> dict[tuple[int, ...], int]:
    counts: dict[tuple[int, ...], int] = {}
    for t in enumerate_shsyt(n):
        d = t.diagonal()
        counts[d] = counts.get(d, 0) + 1
    return counts


def count_N(n: int, b) -> int:
    """Number of side-n shSYT with diagonal T(i,i) = i + b_1 + ... + b_{i-1}."""
    b = as_weak_composition(b)
    if len(b) != n - 1:
        raise ValueError(f"b must have {n - 1} entries, got {len(b)}")
    diag = []
    acc = 0
    for i in range(1, n + 1):
        diag.append(i + acc)
        if i <= n - 1:
            acc += b[i - 1]
    if diag[-1] > n * (n + 1) // 2:
        return 0
    return _diagonal_counts(n).get(tuple(diag), 0)


# ---------------------------------------------------------------------------
# semistandard Young tableaux (counting oracle only)


@dataclass(frozen=True)
class SemistandardTableau:
    shape: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if tuple(len(r) for r in self.rows) != self.shape:
            raise ValueError("rows do not match shape")
        for r, row in enumerate(self.rows):
            for c, v in enumerate(row):
                if c + 1 < len(row) and not v <= row[c + 1]:
                    raise ValueError("rows must weakly increase")
                if r + 1 < len(self.rows) and c < len(self.rows[r + 1]):
                    if not v < self.rows[r + 1][c]:
                        raise ValueError("columns must strictly increase")


def enumerate_ssyt(shape, alphabet: int) -> Iterator[SemistandardTableau]:
    shape = as_partition(shape)
    shape = tuple(p for p in shape if p > 0)
    if not shape:
        yield SemistandardTableau((), ())
        return
    rows: list[list[int]] = [[0] * p for p in shape]

    def rec(r: int, c: int):
        if r == len(shape):
            yield SemistandardTableau(shape, tuple(tuple(row) for row in rows))
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        lo = 1
        if c > 0:
            lo = max(lo, rows[r][c - 1])
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, alphabet + 1):
            rows[r][c] = v
            yield from rec(nr, nc)

    yield from rec(0, 0)


def count_ssyt(shape, alphabet: int) -> int:
    return sum(1 for _ in enumerate_ssyt(shape, alphabet))
