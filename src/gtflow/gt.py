"""Gelfand-Tsetlin patterns, the flow network G_lambda, five exact formulas
for volumes and lattice-point counts, and the explicit bijections between
patterns, flows, and shifted standard Young tableaux.

Patterns are triangular arrays x_{ij} (1 <= i <= j <= n) whose top row is
pinned to the partition (x_{1j} = lambda_j) and whose rows interlace:
x_{i-1,j-1} >= x_{ij} >= x_{i-1,j}.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, product
from typing import Callable, NamedTuple

from .combinat import ShiftedTableau, _compile, as_partition, diagonal_counts, gap_volume, shifted_cells
from .flow import FlowNetwork, lidskii_points_binomial, lidskii_volume
from .poset import MarkedPoset, Poset
from .transform import BOTTOM, SENTINEL, TOP, Face, MarkedEmbedding


def cell_id(i: int, j: int) -> str:
    return f"x{i}_{j}"


@dataclass(frozen=True)
class GTPattern:
    """Triangular array, rows[i-1] = (x_{i,i}, ..., x_{i,n})."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if _pattern_check(len(self.rows))(self.rows):
            return
        n = len(self.rows)
        if any(len(self.rows[i]) != n - i for i in range(n)):
            raise ValueError("rows must have lengths n, n-1, ..., 1")
        for i in range(2, n + 1):
            for j in range(i, n + 1):
                if not self.entry(i - 1, j - 1) >= self.entry(i, j) >= self.entry(i - 1, j):
                    raise ValueError(f"interlacing fails at ({i},{j})")
        if any(v < 0 for row in self.rows for v in row):
            raise ValueError("entries must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i - 1][j - i]

    def top_row(self) -> tuple[int, ...]:
        return self.rows[0]


@lru_cache(maxsize=None)
def _pattern_check(n: int) -> Callable:
    """rows -> whether they pass GTPattern's checks, for n rows, as one
    compiled call: the row lengths, then per row i >= 2 one interlacing
    chain x_{i-1,i-1} >= x_{ii} >= x_{i-1,i} >= ... >= x_{in} >= x_{i-1,n},
    then x_{1n} >= 0.  The chains make the top row weakly decreasing and
    every column weakly increasing downwards, so every entry is at least
    x_{1n} and that one comparison makes them all nonnegative."""
    x = [[f"x{i}_{j}" for j in range(i, n + 1)] for i in range(1, n + 1)]
    rows = "".join(f"r{i}, " for i in range(n))
    lengths = "".join(f"len(r{i}), " for i in range(n))
    unpack = "".join(f"    {''.join(v + ', ' for v in row)}= r{i}\n" for i, row in enumerate(x))
    chains = [
        " >= ".join(v for pair in zip(x[i - 1], x[i]) for v in pair) + f" >= {x[i - 1][-1]}" for i in range(1, n)
    ]
    tests = " and ".join(chains + [f"{x[0][-1]} >= 0"] if n else ["True"])
    source = (
        f"def f(rows):\n    ({rows}) = rows\n    if ({lengths}) != {tuple(range(n, 0, -1))}:\n        return False\n"
        f"{unpack}    return {tests}\n"
    )
    return _compile(source, len=len)


def enumerate_gt_points(lam) -> list[GTPattern]:
    """All integral patterns with top row lam, row by row: each pattern's
    rows so far are extended by every row that interlaces with its last
    one, leftmost entry slowest, so the patterns come out in lexicographic
    order of their rows."""
    lam = as_partition(lam)
    patterns: list[tuple[tuple[int, ...], ...]] = [(lam,)]
    for _ in range(len(lam) - 1):
        patterns = [
            (*rows, row)
            for rows in patterns
            for row in product(*(range(lo, hi + 1) for hi, lo in zip(rows[-1], rows[-1][1:])))
        ]
    return [GTPattern(rows) for rows in patterns]


def weyl_dimension(lam) -> int:
    """Product formula for the lattice-point count of GT(lam)."""
    lam = as_partition(lam)
    n = len(lam)
    num = 1
    den = 1
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            num *= lam[i - 1] - lam[j - 1] + j - i
            den *= j - i
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"Weyl dimension product {num}/{den} is not an integer")
    return q


def gt_volume_product(lam) -> Fraction:
    """Product formula for the volume of GT(lam)."""
    lam = as_partition(lam)
    n = len(lam)
    vol = Fraction(1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vol *= Fraction(lam[i - 1] - lam[j - 1], j - i)
    return vol


def gt_volume_shsyt(lam) -> Fraction:
    """Volume as a sum of gap powers weighted by shifted-tableau counts:
    sum over b of count_N(n, b) * prod_i g_i^b_i / b_i!, over the b with a
    nonzero count, g_i = lam_i - lam_(i+1)."""
    lam = as_partition(lam)
    return gap_volume(diagonal_counts(len(lam)), [x - y for x, y in zip(lam, lam[1:])])


# ---------------------------------------------------------------------------
# the network G_lambda


@dataclass(frozen=True)
class GTNetwork:
    """The GT flow network with its canonical vertex order and labeled edges.

    Edge labels: ("a", i, j) for v_ij -> v_{i+1,j}, ("b", i, j) for
    v_ij -> v_{i+1,j+1}, ("gamma", i) for v_{i,i-1} -> v_{i+1,i}, and
    ("delta", i) for v_{i,n+1} -> v_{i+1,n+1}.
    """

    n: int
    network: FlowNetwork
    vertex_cells: tuple[tuple[int, int], ...]
    edge_labels: tuple[tuple, ...]

    @cached_property
    def edge_index(self) -> dict[tuple, int]:
        return {lab: k for k, lab in enumerate(self.edge_labels)}


def canonical_gt_vertices(n: int) -> list[tuple[int, int]]:
    group1 = [(i, j) for i in range(2, n + 1) for j in range(i, n + 1)]
    group2 = [(i, i - 1) for i in range(3, n + 2)]
    group3 = [(i, n + 1) for i in range(3, n + 2)]
    return group1 + group2 + group3 + [(n + 2, n + 1)]


def build_G_lambda(lam) -> GTNetwork:
    """The flow network whose polytope realizes GT(lam), in the canonical
    vertex order (row sources, interior cells, the two border chains, sink)."""
    lam = as_partition(lam)
    n = len(lam)
    if n == 0:
        raise ValueError("G_lambda needs a partition with at least one part")
    if n == 1:
        g = FlowNetwork.make(1, [], (0,), names=["v2_2"])
        return GTNetwork(1, g, ((2, 2),), ())
    cells = canonical_gt_vertices(n)
    index = {c: k for k, c in enumerate(cells)}
    edges = []
    labels = []
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            edges.append((index[(i, j)], index[(i + 1, j)]))
            labels.append(("a", i, j))
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            edges.append((index[(i, j)], index[(i + 1, j + 1)]))
            labels.append(("b", i, j))
    for i in range(3, n + 2):
        edges.append((index[(i, i - 1)], index[(i + 1, i)]))
        labels.append(("gamma", i))
    for i in range(3, n + 2):
        edges.append((index[(i, n + 1)], index[(i + 1, n + 1)]))
        labels.append(("delta", i))
    netflow = [0] * len(cells)
    for j in range(2, n + 1):
        netflow[index[(2, j)]] = lam[j - 2] - lam[j - 1]
    netflow[index[(n + 2, n + 1)]] = lam[n - 1] - lam[0]
    g = FlowNetwork.make(
        len(cells), edges, netflow, names=[f"v{i}_{j}" for i, j in cells]
    )
    return GTNetwork(n, g, tuple(cells), tuple(labels))


def shifted_netflow(n: int, b) -> tuple[int, ...]:
    """(b_1-1, ..., b_{n-1}-1, -1, ..., -1, 0, ..., 0, 0) in canonical order."""
    head = [int(x) - 1 for x in b]
    if len(head) != n - 1:
        raise ValueError(f"b needs {n - 1} entries")
    rest = (n - 1) * (n - 2) // 2
    return (*head, *(-1,) * rest, *(0,) * (2 * (n - 1)), 0)


def gt_volume_lidskii(lam) -> Fraction:
    """Volume of GT(lam) as the Lidskii volume of G_lambda: only the n - 1 row
    sources carry netflow (the gaps of lam), so only they draw j terms."""
    return lidskii_volume(build_G_lambda(lam).network)


def gt_points_lidskii(lam) -> int:
    """Lattice points of GT(lam) as the binomial Lidskii sum on G_lambda: the
    weight is binom(gap + 1, j) at a row source, binom(1, j) at an interior
    cell and binom(0, j) on the two border chains."""
    return lidskii_points_binomial(build_G_lambda(lam).network)


# ---------------------------------------------------------------------------
# pattern <-> flow


def gt_to_flow(lam, pattern: GTPattern) -> tuple[int, ...]:
    """Image of a pattern under the integral equivalence GT -> F_{G_lambda}."""
    lam = as_partition(lam)
    n = len(lam)
    if pattern.n != n or pattern.top_row() != lam:
        raise ValueError("pattern does not match the partition")
    gtn = build_G_lambda(lam)
    if n == 1:
        return ()
    x = pattern.entry
    values = [0] * len(gtn.network.edges)
    for lab, k in gtn.edge_index.items():
        if lab[0] == "a":
            _, i, j = lab
            values[k] = x(i - 1, j - 1) - x(i, j)
        elif lab[0] == "b":
            _, i, j = lab
            values[k] = x(i, j) - x(i - 1, j)
        elif lab[0] == "gamma":
            i = lab[1]
            values[k] = lam[0] - x(i - 1, i - 1)
        else:
            i = lab[1]
            values[k] = x(i - 1, n) - lam[n - 1]
    if not gtn.network.check_flow(values):
        raise ValueError("pattern does not map to a feasible flow on G_lambda")
    return tuple(values)


def flow_to_gt(lam, flow) -> GTPattern:
    """Inverse of gt_to_flow: x_{ij} = lambda_j + b_{2j} + ... + b_{ij}."""
    lam = as_partition(lam)
    n = len(lam)
    gtn = build_G_lambda(lam)
    flow = tuple(flow)
    if not gtn.network.check_flow(flow):
        raise ValueError("not a flow on G_lambda")
    rows = [lam]
    for i in range(2, n + 1):
        row = []
        for j in range(i, n + 1):
            v = lam[j - 1] + sum(
                flow[gtn.edge_index[("b", t, j)]] for t in range(2, i + 1)
            )
            row.append(v)
        rows.append(tuple(row))
    return GTPattern(tuple(rows))


# ---------------------------------------------------------------------------
# shifted tableaux <-> flows (the diagonal-count bijection)


def _compile_tuple(arg: str, items: list[str]) -> Callable:
    """arg -> the tuple of the expressions in items, as one compiled call."""
    return _compile(f"def f({arg}):\n    return ({''.join(x + ', ' for x in items)})\n")


class _TableauFlowMaps(NamedTuple):
    """The tableau/flow bijection at side n, compiled over index arrays.  A
    cell index is a place in ShiftedTableau.entries, an edge index a place
    in a flow on G_lambda((0,) * n)."""

    rows: tuple[int, ...]  # cell index -> its row, 0-based
    num_edges: int
    # above -> the flow of shsyt_to_flow, where above[k] counts the smaller
    # values in the rows above cell k
    flow_of: Callable
    netflow: Callable  # flow -> out - in at each vertex
    # flow -> the outflows plus one of the vertices of rows n, n - 1, ..., 2
    # in turn: peel level m = 2..n reads the m - 1 of row n - m + 2, its
    # diagonal gaps
    gaps: Callable
    # cell index -> its place in the peel's value list, which holds the
    # diagonal bands j - i = n - 1, ..., 1, 0 in turn, each by row
    order: tuple[int, ...]


@lru_cache(maxsize=None)
def _tableau_flow_maps(n: int) -> _TableauFlowMaps:
    gtn = build_G_lambda((0,) * n)
    cells = shifted_cells(n)
    cell = {c: k for k, c in enumerate(cells)}
    terms = []
    for kind, *at in gtn.edge_labels:
        if kind in ("a", "b"):
            r, j = at
            i = j - r + 1
            if kind == "a":
                terms.append(f"A[{cell[i, j]}] - A[{cell[i, j - 1]}]")
            else:
                terms.append(f"A[{cell[i + 1, j]}] - A[{cell[i, j]}] - {j - i + 1}")
        else:  # the chains carry no flow
            terms.append("0")
    net = [""] * gtn.network.num_vertices
    for k, (u, w) in enumerate(gtn.network.edges):
        net[u] += f" + f[{k}]"
        net[w] += f" - f[{k}]"
    index = gtn.edge_index
    gaps = [
        f"f[{index['a', r, c]}] + f[{index['b', r, c]}] + 1" for r in range(n, 1, -1) for c in range(r, n + 1)
    ]
    # the bands j - i > d hold (n - d - 1)(n - d) / 2 cells
    order = tuple((n - j + i - 1) * (n - j + i) // 2 + i - 1 for i, j in cells)
    return _TableauFlowMaps(
        tuple(i - 1 for i, _ in cells),
        len(terms),
        _compile_tuple("A", terms),
        _compile_tuple("f", [x or "0" for x in net]),
        _compile_tuple("f", gaps),
        order,
    )


def shsyt_to_flow(t: ShiftedTableau) -> tuple[int, ...]:
    """Flow on G_lambda(n) realizing the tableau; the chain edges carry zero
    flow.  Edge ("a", r, c), with i = c - r + 1 and j = c, carries the number
    of values between T(i, j-1) and T(i, j) in rows < i (all of them lie in
    columns >= j); edge ("b", r, c) the number between T(i, j) and T(i+1, j)
    in rows <= i (all in columns > j).

    Both are differences of above(i, j), the number of values below T(i, j)
    in rows < i, which one pass over the values computes from the inverse
    permutation: a = above(i, j) - above(i, j-1) and
    b = above(i+1, j) - above(i, j) - (j - i + 1), since the values up to
    T(i, j) in rows <= i are the above(i, j) ones in rows < i and the
    j - i + 1 of row i up to T(i, j).
    """
    n = t.n
    maps = _tableau_flow_maps(n)
    rows = maps.rows
    e = t.entries
    above = [0] * len(e)
    per_row = [0] * n
    for k in sorted(range(len(e)), key=e.__getitem__):
        r = rows[k]
        above[k] = sum(per_row[:r])
        per_row[r] += 1
    values = maps.flow_of(above)
    if maps.netflow(values) != shifted_netflow(n, t.diagonal_composition()):
        raise ValueError("tableau flow fails conservation")
    return values


def flow_to_shsyt(n: int, flow) -> ShiftedTableau:
    """Tableau from a flow on G_lambda(n) with a diagonal-shifted netflow, by
    peeling the rows of G_lambda from the last to the source row.

    Level m = 1..n builds the side-m tableau on the cells (i, j) with
    j - i >= n - m.  Its diagonal gaps b are the outflows of the vertices of
    row n - m + 2, plus one; its diagonal band j - i = n - m takes the values
    i + b_1 + ... + b_{i-1}, and each value e of the levels before it moves
    past them to e + k, where k is the first index with e <= b_1 + ... + b_k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    flow = tuple(flow)
    maps = _tableau_flow_maps(n)
    if len(flow) != maps.num_edges:
        raise ValueError("flow has the wrong number of edges")
    if min(flow, default=0) < 0:
        raise ValueError("flow values must be nonnegative")
    # netflow (out - in) at each vertex, then sanity-check its shape
    net = maps.netflow(flow)
    b = [x + 1 for x in net[: n - 1]]
    if net != shifted_netflow(n, b):
        raise ValueError("flow netflow is not of the diagonal-shifted shape")
    gaps = maps.gaps(flow)
    vals = [1]  # level 1: the side-1 tableau
    start = 0
    for m in range(2, n + 1):
        prefix = list(accumulate(gaps[start : start + m - 1], initial=0))
        start += m - 1
        vals = [x + bisect_left(prefix, x) for x in vals]
        vals += [i + d for i, d in enumerate(prefix, 1)]
    return ShiftedTableau(tuple(map(vals.__getitem__, maps.order)))


# ---------------------------------------------------------------------------
# GT polytopes as marked order polytopes


def gt_marked_poset(lam) -> MarkedPoset:
    lam = as_partition(lam)
    n = len(lam)
    cells = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    covers = []
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            covers.append((cell_id(i, j), cell_id(i - 1, j - 1)))
            covers.append((cell_id(i - 1, j), cell_id(i, j)))
    p = Poset.from_covers([cell_id(i, j) for i, j in cells], covers)
    return MarkedPoset.make(p, {cell_id(1, j): lam[j - 1] for j in range(1, n + 1)})


def gt_embedding(lam) -> MarkedEmbedding:
    """Bounded strongly planar embedding of the GT marked poset, with the
    marked top row zigzagging along the right boundary."""
    mp = gt_marked_poset(lam)
    n = len(as_partition(lam))
    faces = []
    ids = []
    for i in range(2, n + 1):
        for j in range(i + 1, n + 1):
            faces.append(
                Face.make(
                    [cell_id(i, j - 1), cell_id(i + 1, j), cell_id(i, j)],
                    [cell_id(i, j - 1), cell_id(i - 1, j - 1), cell_id(i, j)],
                )
            )
            ids.append(f"D{i}_{j}")
    west = [TOP] + [cell_id(i, i) for i in range(1, n + 1)]
    west += [cell_id(i, n) for i in range(n - 1, 0, -1)] + [BOTTOM]
    faces.append(Face.make(SENTINEL, west))
    ids.append("Ft")
    east = [TOP, cell_id(1, 1)]
    for j in range(2, n + 1):
        east += [cell_id(2, j), cell_id(1, j)]
    east += [BOTTOM]
    faces.append(Face.make(east, SENTINEL))
    ids.append("Fs")
    return MarkedEmbedding.make(mp, faces, face_ids=ids)
