"""Gelfand-Tsetlin patterns, the flow network G_lambda, five exact formulas
for volumes and lattice-point counts, and the explicit bijections between
patterns, flows, and shifted standard Young tableaux.

Patterns are triangular arrays x_{ij} (1 <= i <= j <= n) whose top row is
pinned to the partition (x_{1j} = lambda_j) and whose rows interlace:
x_{i-1,j-1} >= x_{ij} >= x_{i-1,j}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .combinat import ShiftedTableau, as_partition, diagonal_counts, shifted_cells
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


def enumerate_gt_points(lam) -> list[GTPattern]:
    """All integral patterns with top row lam, by row-wise backtracking."""
    lam = as_partition(lam)
    n = len(lam)
    rows: list[tuple[int, ...]] = [lam]
    out: list[GTPattern] = []

    def rec(i: int):
        if i > n:
            out.append(GTPattern(tuple(rows)))
            return
        prev = rows[-1]

        def fill(row: list[int], j: int):
            if j > n:
                rows.append(tuple(row))
                rec(i + 1)
                rows.pop()
                return
            hi = prev[j - i]  # x_{i-1,j-1}
            lo = prev[j - i + 1]  # x_{i-1,j}
            for v in range(lo, hi + 1):
                row.append(v)
                fill(row, j + 1)
                row.pop()

        fill([], i)

    rec(2)
    return out


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
    nonzero count.  Every b sums to M = binom(n, 2), so the sum is taken in
    ints scaled by M! (M! / prod b_i! is a multinomial) and divided once."""
    lam = as_partition(lam)
    n = len(lam)
    gaps = [lam[i] - lam[i + 1] for i in range(n - 1)]
    total = n * (n - 1) // 2
    scaled = 0
    for b, cnt in diagonal_counts(n).items():
        term = cnt * math.factorial(total)
        for g, bi in zip(gaps, b):
            term = term * g**bi // math.factorial(bi)
        scaled += term
    return Fraction(scaled, math.factorial(total))


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


@lru_cache(maxsize=None)
def _zero_G_lambda(n: int) -> GTNetwork:
    """build_G_lambda((0,) * n), built once per n: the tableau bijections
    read it at every level of their recursion."""
    return build_G_lambda((0,) * n)


def shifted_netflow(n: int, b) -> tuple[int, ...]:
    """(b_1-1, ..., b_{n-1}-1, -1, ..., -1, 0, ..., 0, 0) in canonical order."""
    b = tuple(int(x) for x in b)
    if len(b) != n - 1:
        raise ValueError(f"b needs {n - 1} entries")
    rest = (n - 1) * (n - 2) // 2
    return tuple(x - 1 for x in b) + (-1,) * rest + (0,) * (2 * (n - 1)) + (0,)


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


def _netflow_of(g: FlowNetwork, flow) -> list[int]:
    """out - in of `flow` at each vertex of g."""
    net = [0] * g.num_vertices
    for x, (u, w) in zip(flow, g.edges):
        net[u] += x
        net[w] -= x
    return net


def shsyt_to_flow(t: ShiftedTableau) -> tuple[int, ...]:
    """Flow on G_lambda(n) realizing the tableau, via the counting formulas
    for the a and b edge values; the chain edges carry zero flow."""
    n = t.n
    if n == 1:
        return ()
    gtn = _zero_G_lambda(n)
    values = [0] * len(gtn.network.edges)
    rows = t.rows
    cells = list(zip(shifted_cells(n), t.entries))
    for r in range(2, n + 1):
        for c in range(r, n + 1):
            i, j = c - r + 1, c
            row = rows[i - 1]
            lo, hi = row[j - 1 - i], row[j - i]
            a = sum(1 for (ii, jj), v in cells if ii < i and jj >= j and lo < v < hi)
            values[gtn.edge_index[("a", r, c)]] = a
            if i + 1 <= j:
                lo, hi = hi, rows[i][j - i - 1]
                b = sum(1 for (ii, jj), v in cells if ii <= i and jj > j and lo < v < hi)
                values[gtn.edge_index[("b", r, c)]] = b
    if tuple(_netflow_of(gtn.network, values)) != shifted_netflow(n, t.diagonal_composition()):
        raise ValueError("tableau flow fails conservation")
    return tuple(values)


def flow_to_shsyt(n: int, flow) -> ShiftedTableau:
    """Tableau from a flow on G_lambda(n) with a diagonal-shifted netflow, by the
    inductive peeling of the source row."""
    flow = tuple(flow)
    gtn = _zero_G_lambda(n)
    if len(flow) != len(gtn.network.edges):
        raise ValueError("flow has the wrong number of edges")
    if any(v < 0 for v in flow):
        raise ValueError("flow values must be nonnegative")
    # netflow (out - in) at each vertex, then sanity-check its shape
    net = _netflow_of(gtn.network, flow)
    b = tuple(net[k] + 1 for k in range(n - 1))
    if any(x < 0 for x in b):
        raise ValueError("netflow at a source is below -1")
    expected = shifted_netflow(n, b)
    if tuple(net) != expected:
        raise ValueError("flow netflow is not of the diagonal-shifted shape")
    if n == 1:
        return ShiftedTableau((1,))
    # restrict to the subnetwork on rows >= 3, relabelled down by one
    sub = _zero_G_lambda(n - 1)
    subflow = [0] * len(sub.network.edges)
    for lab, k in sub.edge_index.items():
        if lab[0] == "a":
            _, i, j = lab
            subflow[k] = flow[gtn.edge_index[("a", i + 1, j + 1)]]
        elif lab[0] == "b":
            _, i, j = lab
            subflow[k] = flow[gtn.edge_index[("b", i + 1, j + 1)]]
    # chain flows of the subnetwork are the partial sums forced by conservation
    for i in range(3, n + 1):
        g = sum(subflow[sub.edge_index[("a", t, t)]] for t in range(2, i))
        subflow[sub.edge_index[("gamma", i)]] = g
        d = sum(subflow[sub.edge_index[("b", t, n - 1)]] for t in range(2, i))
        subflow[sub.edge_index[("delta", i)]] = d
    tprime = flow_to_shsyt(n - 1, subflow)
    prefix = [0]
    for x in b:
        prefix.append(prefix[-1] + x)

    def shift(e: int) -> int:
        for k in range(1, n):
            if e <= prefix[k]:
                return e + k
        raise ValueError("entry exceeds the diagonal composition range")

    sub_rows = tprime.rows
    rows = [(i + prefix[i - 1], *map(shift, sub_rows[i - 1])) for i in range(1, n)]
    return ShiftedTableau.from_rows(rows + [(n + prefix[n - 1],)])


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
