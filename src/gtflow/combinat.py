"""Exact combinatorial primitives shared by every other module.

Weak compositions, signed binomial coefficients, Ehrhart leading
coefficients, the gap-vector volume sum, shifted standard Young tableaux of
staircase shape, and semistandard tableau counts.
All arithmetic is exact: Python ints and Fractions, no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple


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


def leading_coefficient(values) -> Fraction:
    """The t^k coefficient of the polynomial of degree at most k through
    values at t = 0..k: the k-th finite difference
    sum_i (-1)^(k-i) binom(k, i) values[i], over k!."""
    k = len(values) - 1
    diff = sum((-1) ** (k - i) * math.comb(k, i) * c for i, c in enumerate(values))
    return Fraction(diff, math.factorial(k))


def gap_volume(table: Mapping[tuple[int, ...], int], gaps) -> Fraction:
    """sum over the gap vectors a of table[a] * prod_t gaps[t]^a_t / a_t!.

    Every a must sum to one M, so each term is table[a] times the int
    multinomial M! / prod_t a_t! times the gap powers, and the sum is
    divided by M! once.  The gaps may be Fractions; a zero gap contributes
    0**0 == 1 where a_t = 0 and 0 elsewhere."""
    sizes = {sum(a) for a in table}
    if len(sizes) > 1:
        raise ValueError(f"gap vectors must all have one sum, got sums {sorted(sizes)}")
    scale = math.factorial(sizes.pop() if sizes else 0)
    total = 0
    for a, count in table.items():
        term = count * (scale // math.prod(map(math.factorial, a)))
        for g, k in zip(gaps, a):
            term *= g**k
        total += term
    return Fraction(total, scale)


def multiset_binomial(n: int, k: int) -> int:
    """<n over k> = binom(n + k - 1, k), polynomial-in-n convention."""
    return binomial(n + k - 1, k)


# ---------------------------------------------------------------------------
# shifted standard Young tableaux of staircase shape


def shifted_cells(n: int) -> list[tuple[int, int]]:
    """Cells (i, j), 1 <= i <= j <= n, in row-major order."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


class _Layout(NamedTuple):
    """Row-major layout of a side-n staircase tableau with N = binom(n+1, 2)
    cells, and what its entries are checked against."""

    n: int
    starts: tuple[int, ...]  # flat index of cell (i, i) for i = 1..n, then N
    values: list[int]  # 1..N
    ordered: Callable  # entries -> whether every row pair and column pair increases


def _compile_lambda(source: str) -> Callable:
    """The lambda whose source is given, compiled once (the way namedtuple
    builds its methods) so that it runs as one call; it sees no builtins."""
    return eval(source, {"__builtins__": {}})


def _compile_order_check(n: int, starts: tuple[int, ...]) -> Callable:
    """entries -> whether e(i, j) < e(i, j+1) and e(i, j) < e(i+1, j) for
    every such pair of cells: one chained comparison per row and one
    comparison per column pair, over fixed indices, so that a check is one
    call."""
    rows = [
        " < ".join(f"e[{k}]" for k in range(starts[i], starts[i + 1]))
        for i in range(n)
        if starts[i + 1] - starts[i] >= 2
    ]
    columns = [
        f"e[{starts[i] + k + 1}] < e[{starts[i + 1] + k}]"
        for i in range(n - 1)
        for k in range(n - i - 1)
    ]
    return _compile_lambda(f"lambda e: {' and '.join(rows + columns) or 'True'}")


@lru_cache(maxsize=None)
def _staircase_layout(size: int) -> _Layout | None:
    """The layout of a staircase tableau with `size` entries, or None when
    size is not binom(n+1, 2) for some n >= 1."""
    n = (math.isqrt(8 * size + 1) - 1) // 2
    if n < 1 or n * (n + 1) // 2 != size:
        return None
    starts = tuple(i * n - i * (i - 1) // 2 for i in range(n + 1))
    return _Layout(n, starts, list(range(1, size + 1)), _compile_order_check(n, starts))


@dataclass(frozen=True, slots=True)
class ShiftedTableau:
    """Shifted standard tableau of staircase shape, stored row-major.

    entries lists cells (1, 1), ..., (1, n), (2, 2), ..., (n, n) for some
    n >= 1; they are a permutation of 1..binom(n+1, 2), strictly increasing
    along rows and down columns.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.entries, tuple):
            raise TypeError("entries must be a tuple")
        layout = _staircase_layout(len(self.entries))
        if layout is None:
            if not self.entries:
                raise ValueError("a staircase tableau needs n >= 1")
            raise ValueError("entries must number binom(n+1,2) for some n")
        if sorted(self.entries) != layout.values:
            raise ValueError("entries must be a permutation of 1..binom(n+1,2)")
        if not layout.ordered(self.entries):
            self._raise_first_violation()

    def _raise_first_violation(self) -> None:
        n = self.n
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                v = self.entry(i, j)
                if j + 1 <= n and not v < self.entry(i, j + 1):
                    raise ValueError(f"row violation at ({i},{j})")
                if i + 1 <= j and not v < self.entry(i + 1, j):
                    raise ValueError(f"column violation at ({i},{j})")

    @property
    def _layout(self) -> _Layout:
        return _staircase_layout(len(self.entries))

    @property
    def n(self) -> int:
        return self._layout.n

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """rows[i-1] holds the entries of cells (i, i), ..., (i, n)."""
        e, s = self.entries, self._layout.starts
        return tuple(e[s[i] : s[i + 1]] for i in range(len(s) - 1))

    def entry(self, i: int, j: int) -> int:
        return self.entries[self._layout.starts[i - 1] + j - i]

    def diagonal(self) -> tuple[int, ...]:
        return tuple(map(self.entries.__getitem__, self._layout.starts[:-1]))

    def diagonal_composition(self) -> tuple[int, ...]:
        """b with T(i,i) = i + b_1 + ... + b_{i-1}."""
        d = self.diagonal()
        return tuple([y - x - 1 for x, y in zip(d, d[1:])])


@lru_cache(maxsize=None)
def _sub_staircase_moves(n: int) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Transition table of the lattice of shifted sub-staircases of side n.

    A state is the tuple of row lengths (r_1, ..., r_n) of an order ideal of
    the staircase: its nonzero parts strictly decrease and r_i <= n - i + 1,
    so there are 2^n states, numbered from 0 = empty.  moves[s] lists
    (row index, cell index, next state) for every addable cell of s in
    row-major order: cell (i, i + r_i) is addable when it lies in the
    staircase and the cell above it, (i - 1, i + r_i), is filled; its cell
    index is its place in ShiftedTableau.entries.  Rows start in order, so a
    move fills a diagonal cell exactly when its row index is the number of
    nonempty rows of s.
    """
    starts = _staircase_layout(n * (n + 1) // 2).starts
    index: dict[tuple[int, ...], int] = {}
    moves: list[tuple[tuple[int, int, int], ...]] = []

    def visit(state: tuple[int, ...]) -> int:
        if state in index:
            return index[state]
        s = index[state] = len(moves)
        moves.append(())
        moves[s] = tuple(
            (i, starts[i] + r, visit(state[:i] + (r + 1,) + state[i + 1 :]))
            for i, r in enumerate(state)
            if r < n - i and (i == 0 or state[i - 1] >= r + 2)
        )
        return s

    visit((0,) * n)
    return tuple(moves)


def walk_shsyt(n: int, emit) -> None:
    """Call emit(T) for every shifted standard tableau T of staircase side n,
    one at a time: nothing is held after emit returns.

    Values 1..N are placed in increasing order; at each step the addable
    cells of the filled sub-staircase are tried row-major.  Every path from
    the empty staircase to the full one writes each cell of one row-major
    buffer once, so a leaf's buffer is its tableau.  A state with a single
    addable cell forces its move, so each move is followed through the run
    of forced moves after it, and the walk branches only where a state has
    two or more.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    moves = _sub_staircase_moves(n)
    total = n * (n + 1) // 2
    buf = [0] * total

    def forced_run(cell: int, t: int) -> tuple[tuple[int, ...], int]:
        """The cells filled by the move into state t and the forced moves
        after it, in order, and the state where they stop."""
        cells = [cell]
        while len(moves[t]) == 1:
            [(_, cell, t)] = moves[t]
            cells.append(cell)
        return tuple(cells), t

    runs = [[forced_run(cell, t) for _, cell, t in m] for m in moves]

    def rec(s: int, v: int) -> None:
        for cells, t in runs[s]:
            for w, cell in enumerate(cells, v):
                buf[cell] = w
            if w == total:
                emit(ShiftedTableau(tuple(buf)))
            else:
                rec(t, w + 1)

    rec(0, 1)


@lru_cache(maxsize=None)
def enumerate_shsyt(n: int) -> tuple[ShiftedTableau, ...]:
    """All shifted standard tableaux of staircase side n, in walk_shsyt's order."""
    out: list[ShiftedTableau] = []
    walk_shsyt(n, out.append)
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
def diagonal_counts(n: int) -> Mapping[tuple[int, ...], int]:
    """{b: number of side-n shSYT with diagonal T(i,i) = i + b_1 + ... + b_{i-1}}
    over the b with a nonzero count.

    One forward pass over the sub-staircase lattice, keyed by (state,
    diagonal prefix): filling cell (i, i) with value v appends v to the
    prefix, so the full staircase's prefix is its diagonal.  No tableau is
    built.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    moves = _sub_staircase_moves(n)
    layer: dict[tuple[int, tuple[int, ...]], int] = {(0, ()): 1}
    for v in range(1, n * (n + 1) // 2 + 1):
        nxt: dict[tuple[int, tuple[int, ...]], int] = {}
        for (s, diag), c in layer.items():
            for i, _, t in moves[s]:
                key = (t, diag + (v,) if i == len(diag) else diag)
                nxt[key] = nxt.get(key, 0) + c
        layer = nxt
    return MappingProxyType(
        {tuple(d[i + 1] - d[i] - 1 for i in range(n - 1)): c for (_, d), c in layer.items()}
    )


def count_N(n: int, b) -> int:
    """Number of side-n shSYT with diagonal T(i,i) = i + b_1 + ... + b_{i-1}."""
    b = as_weak_composition(b)
    if len(b) != n - 1:
        raise ValueError(f"b must have {n - 1} entries, got {len(b)}")
    return diagonal_counts(n).get(b, 0)


# ---------------------------------------------------------------------------
# semistandard Young tableaux (counting oracle only)


def count_ssyt(shape, alphabet: int) -> int:
    """Semistandard tableaux of the given shape with entries in 1..alphabet,
    counted by filling the cells row-major; no tableau is kept."""
    shape = tuple(p for p in as_partition(shape) if p > 0)
    # per cell, its largest entry: one that leaves room for the column below
    cells = [
        (r, c, alphabet + r + 1 - sum(q > c for q in shape)) for r, p in enumerate(shape) for c in range(p)
    ]
    rows = [[0] * p for p in shape]

    def rec(k: int) -> int:
        if k == len(cells):
            return 1
        r, c, hi = cells[k]
        lo = max(rows[r][c - 1] if c else 1, rows[r - 1][c] + 1 if r else 1)
        if k == len(cells) - 1:  # the last cell takes any value from lo to hi
            return max(hi + 1 - lo, 0)
        total = 0
        for v in range(lo, hi + 1):
            rows[r][c] = v
            total += rec(k + 1)
        return total

    return rec(0)
