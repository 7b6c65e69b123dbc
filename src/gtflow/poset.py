"""Finite posets, marked posets, and marked order polytopes.

Implements the marked-order-polytope toolkit: lattice point enumeration,
the table of linear-extension counts N(a) by gap vector a of the marked
elements, volumes from that table, the vertex criterion, Minkowski-sum checks
by support functions, and the log-concavity property of the extension counts.

Conventions: a linear extension is an order-REVERSING listing (largest
element first).  Marked elements are sorted by marking value descending,
ties broken so that larger poset elements come first.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .combinat import enumerate_compositions, gap_volume

BOTTOM = "0hat"
TOP = "1hat"


class PosetError(ValueError):
    pass


def _kahn(ups: dict, indeg: dict) -> list:
    """Kahn's algorithm, smallest available element first, over the upper
    neighbours `ups` and the lower-neighbour counts `indeg` (used up); the
    order misses the elements on or above a cycle."""
    avail = [e for e, d in indeg.items() if not d]
    heapq.heapify(avail)
    order = []
    while avail:
        e = heapq.heappop(avail)
        order.append(e)
        for q in ups[e]:
            indeg[q] -= 1
            if not indeg[q]:
                heapq.heappush(avail, q)
    return order


def _index(bit: dict[str, int], lowers: dict[str, list[str]]) -> tuple[list[str], dict[str, int], dict[str, int]]:
    """The index of the order that the lower-cover candidates `lowers` (per
    element; they may repeat or be redundant) generate: Kahn's order over
    them and, per element, the int of the elements strictly below it and
    the int of those strictly below one of its candidates.  A candidate in
    the latter is redundant; it never delays its element (the candidate
    above it comes later), so the order is Kahn's over the reduced covers.
    The order and the ints miss the elements on or above a cycle."""
    ups: dict[str, list[str]] = {e: [] for e in bit}
    for q, ds in lowers.items():
        for d in ds:
            ups[d].append(q)
    order = _kahn(ups, {e: len(ds) for e, ds in lowers.items()})
    below: dict[str, int] = {}
    under: dict[str, int] = {}
    for e in order:
        u = c = 0
        for d in lowers[e]:
            u |= below[d]
            c |= bit[d]
        below[e] = u | c
        under[e] = u
    return order, below, under


@dataclass(frozen=True)
class Poset:
    """Finite poset given by elements and cover pairs (lower, upper)."""

    elements: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]

    @staticmethod
    def from_covers(elements, covers) -> "Poset":
        els = tuple(sorted(str(e) for e in elements))
        if len(set(els)) != len(els):
            raise PosetError("duplicate elements")
        cvs = tuple(sorted((str(p), str(q)) for p, q in covers))
        return Poset(els, cvs)

    def __post_init__(self):
        # the index every query reads: a bit per element (in name order), the
        # topological order and, per element, the int of the elements
        # strictly below it
        bit = {e: 1 << i for i, e in enumerate(sorted(self.elements))}
        downs: dict[str, list[str]] = {e: [] for e in bit}
        for p, q in self.covers:
            if p not in bit or q not in bit:
                raise PosetError(f"cover ({p},{q}) references unknown element")
            if p == q:
                raise PosetError(f"loop at {p}")
            downs[q].append(p)
        order, below, under = _index(bit, downs)
        if len(order) != len(self.elements):
            raise PosetError("cover relation has a cycle")
        for p, q in self.covers:
            if bit[p] & under[q]:
                raise PosetError(f"redundant cover ({p},{q})")
        object.__setattr__(self, "topo_order", tuple(order))
        object.__setattr__(self, "_bit", bit)
        object.__setattr__(self, "_below", below)

    @cached_property
    def _cover_tuples(self) -> tuple[dict, dict]:
        """Per element, its sorted up- and down-cover tuples (duplicates kept);
        built on first use, as a cell step never reads them."""
        lists = ({e: [] for e in self._bit}, {e: [] for e in self._bit})
        for p, q in self.covers:
            lists[0][p].append(q)
            lists[1][q].append(p)
        return tuple({e: tuple(sorted(c)) for e, c in side.items()} for side in lists)

    @cached_property
    def _above(self) -> dict[str, int]:
        """Per element, the int of the elements strictly above it."""
        return {p: sum(self._bit[q] for q, m in self._below.items() if m & b) for p, b in self._bit.items()}

    def lt(self, p: str, q: str) -> bool:
        return bool(self._below[q] & self._bit[p])

    def up_covers(self, p: str) -> tuple[str, ...]:
        return self._cover_tuples[0][p]

    def down_covers(self, q: str) -> tuple[str, ...]:
        return self._cover_tuples[1][q]

    def maximal_elements(self) -> tuple[str, ...]:
        lower = {p for p, _ in self.covers}
        return tuple(e for e in self._bit if e not in lower)

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(e for e in self._bit if not self._below[e])

    def count_linear_extensions(self) -> int:
        items = [(b, self._above[e]) for e, b in self._bit.items()]
        memo: dict[int, int] = {0: 1}

        def count(remaining: int) -> int:
            if remaining not in memo:
                memo[remaining] = sum(
                    count(remaining ^ b) for b, above in items if b & remaining and not above & remaining
                )
            return memo[remaining]

        return count((1 << len(items)) - 1)

    def with_relations(self, pairs) -> "Poset":
        """New poset with extra relations (p below q), transitively reduced.
        Its index is built by `_index`, as in `__post_init__`, over the old
        covers and the added pairs, and its covers are the candidates that
        are not redundant: no second build."""
        bit = self._bit
        lowers: dict[str, list[str]] = {e: [] for e in bit}
        for p, q in self.covers:
            lowers[q].append(p)
        bad = None
        for p, q in pairs:
            p, q = str(p), str(q)
            if p not in bit or q not in bit:
                bad = f"relation ({p},{q}) references unknown element"
            elif p == q:
                bad = f"reflexive relation at {p}"
            if bad:
                break
            lowers[q].append(p)
        order, below, under = _index(bit, lowers)
        # a cycle closed by the pairs before a bad one is reported first
        if len(order) != len(bit):
            raise PosetError("added relations create a cycle")
        if bad:
            raise PosetError(bad)
        out = object.__new__(Poset)
        covers = tuple(sorted({(d, q) for q, ds in lowers.items() for d in ds if not bit[d] & under[q]}))
        index = (tuple(bit), covers, tuple(order), bit, below)
        for name, value in zip(("elements", "covers", "topo_order", "_bit", "_below"), index):
            object.__setattr__(out, name, value)
        return out

    def order_polynomial(self, m: int) -> int:
        """Number of order-preserving maps P -> {0, ..., m}."""
        if m < 0:
            raise ValueError("m must be >= 0")
        count = 0
        order = self.topo_order
        vals: dict[str, int] = {}

        def rec(idx: int):
            nonlocal count
            if idx == len(order):
                count += 1
                return
            e = order[idx]
            lo = max((vals[d] for d in self.down_covers(e)), default=0)
            for v in range(lo, m + 1):
                vals[e] = v
                rec(idx + 1)
            vals.pop(e, None)

        rec(0)
        return count

    def to_json(self) -> dict:
        return {"elements": list(self.elements), "covers": [list(c) for c in self.covers]}

    @staticmethod
    def from_json(data: dict) -> "Poset":
        for key in ("elements", "covers"):
            if not isinstance(data, dict) or key not in data:
                raise PosetError(f"poset JSON has no {key!r} key")
        return Poset.from_covers(data["elements"], [tuple(c) for c in data["covers"]])


def _parse_rational(s) -> Fraction:
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(str(s))


@dataclass(frozen=True)
class MarkedPoset:
    """A poset with an order-preserving marking on a subset containing all
    extremal elements."""

    poset: Poset
    marking_items: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def make(poset: Poset, marking: dict) -> "MarkedPoset":
        items = tuple(sorted((str(k), _parse_rational(v)) for k, v in marking.items()))
        return MarkedPoset(poset, items)

    @cached_property
    def marking(self) -> dict[str, Fraction]:
        return dict(self.marking_items)

    @property
    def marked(self) -> frozenset:
        return frozenset(k for k, _ in self.marking_items)

    def validate(self) -> None:
        lam = self.marking
        for a in lam:
            if a not in self.poset._bit:
                raise PosetError(f"marked element {a} not in poset")
        for e in self.poset.maximal_elements() + self.poset.minimal_elements():
            if e not in lam:
                raise PosetError(f"extremal element {e} is unmarked")
        for p in lam:
            for q in lam:
                if self.poset.lt(p, q) and not lam[p] <= lam[q]:
                    raise PosetError(
                        f"marking not order-preserving: {p}<{q} but {lam[p]}>{lam[q]}"
                    )

    def sorted_marked(self) -> tuple[str, ...]:
        """Marked elements with values descending; ties: larger elements first."""
        lam = self.marking
        groups: dict[Fraction, list[str]] = {}
        for a in lam:
            groups.setdefault(lam[a], []).append(a)
        out: list[str] = []
        for value in sorted(groups, reverse=True):
            block = set(groups[value])
            while block:
                maxi = sorted(
                    e for e in block if not any(self.poset.lt(e, o) for o in block if o != e)
                )
                e = maxi[0]
                out.append(e)
                block.discard(e)
        return tuple(out)

    def with_marking(self, marking: dict) -> "MarkedPoset":
        return MarkedPoset.make(self.poset, marking)

    def to_json(self) -> dict:
        d = self.poset.to_json()
        d["marked"] = {k: str(v) for k, v in self.marking_items}
        return d

    @staticmethod
    def from_json(data: dict) -> "MarkedPoset":
        poset = Poset.from_json(data)
        marked = data.get("marked", {})
        if not isinstance(marked, dict):
            raise PosetError("poset JSON 'marked' must be an object")
        return MarkedPoset.make(poset, marked)


def hat_covers(p: Poset) -> list[tuple[str, str]]:
    """The covers of hat_poset(p), without building it: p's covers, 0hat
    below each minimal and 1hat above each maximal element (0hat < 1hat if
    p is empty)."""
    if BOTTOM in p._bit or TOP in p._bit:
        raise PosetError(f"element ids {BOTTOM}/{TOP} are reserved")
    if not p.elements:
        return [(BOTTOM, TOP)]
    return [*p.covers, *((BOTTOM, e) for e in p.minimal_elements()), *((e, TOP) for e in p.maximal_elements())]


def hat_poset(p: Poset) -> Poset:
    """p extended by 0hat below its minimal and 1hat above its maximal
    elements (0hat < 1hat if p is empty)."""
    return Poset.from_covers(p.elements + (BOTTOM, TOP), hat_covers(p))


def make_order_polytope_mp(p: Poset, bot=Fraction(0), top=Fraction(1)) -> MarkedPoset:
    """Hat-extended marked poset whose marked order polytope is the order
    polytope of p (dilated to [bot, top])."""
    return MarkedPoset.make(hat_poset(p), {BOTTOM: bot, TOP: top})


# ---------------------------------------------------------------------------
# lattice points


def _order_search(p: Poset, marks: dict, candidates) -> list[dict]:
    """Every point of the marked order polytope of p with the marks `marks`
    whose unmarked coordinates come from `candidates(lo, hi)`, by interval
    propagation along `topo_order`: lo is the largest value on a down cover,
    hi the smallest mark above.  Every extremal element must be marked
    (`MarkedPoset.validate`), so an unmarked element has a down cover."""
    order = p.topo_order
    downs = [p.down_covers(e) for e in order]
    upper = {}
    for e in reversed(order):
        upper[e] = marks[e] if e in marks else min(upper[q] for q in p.up_covers(e))
    points: list[dict] = []
    vals = {}

    def rec(idx: int):
        if idx == len(order):
            points.append(dict(vals))
            return
        e = order[idx]
        lo = max((vals[d] for d in downs[idx]), default=None)
        if e in marks:
            if lo is not None and lo > marks[e]:
                return
            choices = (marks[e],)
        else:
            choices = candidates(lo, upper[e])
        for v in choices:
            vals[e] = v
            rec(idx + 1)
        vals.pop(e, None)

    rec(0)
    return points


def lattice_points(mp: MarkedPoset) -> list[dict[str, int]]:
    """All integer points of O(P,A)_lambda, by interval propagation."""
    mp.validate()
    for a, v in mp.marking.items():
        if v.denominator != 1:
            raise PosetError(f"lattice_points needs integer markings, got {a}={v}")
    marks = {a: int(v) for a, v in mp.marking.items()}
    return _order_search(mp.poset, marks, lambda lo, hi: range(lo, hi + 1))


def point_feasible(mp: MarkedPoset, x: dict) -> bool:
    lam = mp.marking
    if set(x) != set(mp.poset.elements):
        return False
    for a, v in lam.items():
        if x[a] != v:
            return False
    for p, q in mp.poset.covers:
        if not x[p] <= x[q]:
            return False
    return True


# ---------------------------------------------------------------------------
# linear extensions by gap vector of the marked elements, volumes


@lru_cache(maxsize=64)
def extension_gap_counts(mp: MarkedPoset) -> Mapping[tuple[int, ...], int]:
    """{a: N(a)} over the gap vectors a with a nonzero count: N(a) is the
    number of linear extensions listing the sorted marked elements in order
    with a_t unmarked elements between the t-th and the (t+1)-th.

    One forward pass places elements largest first, keyed by (unplaced
    elements, closed gaps, unmarked run since the last mark); a marked
    element is placed only when it is the next one in sorted order.  The
    first closed gap is the run before the first mark (0, as the maximal
    elements are marked) and is dropped at the end.  No extension is built.
    """
    mp.validate()
    p = mp.poset
    rank = {e: i for i, e in enumerate(mp.sorted_marked())}
    items = [(b, p._above[e], rank.get(e)) for e, b in p._bit.items()]
    layer: dict[tuple[int, tuple[int, ...], int], int] = {((1 << len(items)) - 1, (), 0): 1}
    for _ in items:
        nxt: dict[tuple[int, tuple[int, ...], int], int] = {}
        for (rest, gaps, run), c in layer.items():
            for b, above, r in items:
                # maximal among the unplaced elements
                if not b & rest or above & rest:
                    continue
                if r is None:
                    key = (rest ^ b, gaps, run + 1)
                elif r == len(gaps):
                    key = (rest ^ b, gaps + (run,), 0)
                else:
                    continue
                nxt[key] = nxt.get(key, 0) + c
        layer = nxt
    table: dict[tuple[int, ...], int] = {}
    for (_, gaps, _), c in layer.items():
        table[gaps[1:]] = table.get(gaps[1:], 0) + c
    return MappingProxyType(table)


def count_marked_extensions(mp: MarkedPoset, a) -> int:
    """N_{P,A,lambda}(a): linear extensions placing the sorted marked
    elements at positions 1, 2+a_1, ..., k+a_1+...+a_{k-1}."""
    k = len(mp.marked)
    if len(a) != k - 1:
        raise ValueError(f"gap vector needs {k - 1} entries, got {len(a)}")
    return extension_gap_counts(mp).get(tuple(a), 0)


def marked_volume(mp: MarkedPoset) -> Fraction:
    """Volume of the projected marked order polytope: the sum over gap
    vectors a of N(a) times the simplex-product volume prod g_t^a_t / a_t!,
    g_t the t-th difference of the sorted marks."""
    table = extension_gap_counts(mp)  # validates mp
    values = [mp.marking[e] for e in mp.sorted_marked()]
    return gap_volume(table, [x - y for x, y in zip(values, values[1:])])


def normalized_volume(mp: MarkedPoset) -> Fraction:
    """dim! times marked_volume, dim = number of unmarked elements."""
    dim = len(mp.poset.elements) - len(mp.marked)
    return marked_volume(mp) * math.factorial(dim)


# ---------------------------------------------------------------------------
# vertices


def point_partition(mp: MarkedPoset, x: dict) -> list[frozenset]:
    """Blocks of the transitive closure of 'equal value and comparable'."""
    parent = {e: e for e in mp.poset.elements}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for p, q in mp.poset.covers:
        if Fraction(x[p]) == Fraction(x[q]):
            parent[find(p)] = find(q)
    blocks: dict[str, set] = {}
    for e in mp.poset.elements:
        blocks.setdefault(find(e), set()).add(e)
    return [frozenset(b) for b in blocks.values()]


def is_vertex(mp: MarkedPoset, x: dict) -> bool:
    """Vertex criterion: every block of the point partition is marked."""
    if not point_feasible(mp, x):
        raise PosetError("point is not in the marked order polytope")
    return all(b & mp.marked for b in point_partition(mp, x))


def enumerate_vertices(mp: MarkedPoset) -> list[dict]:
    """All vertices, by their unmarked values in element order.  Each block
    of a vertex's point partition holds a marked element (Pegel, Order 2018),
    so a vertex takes marking values only: the order search runs over the
    marking values in each interval and keeps the points that pass `is_vertex`."""
    mp.validate()
    lam = mp.marking
    values = sorted(set(lam.values()))
    unmarked = [e for e in mp.poset.elements if e not in lam]
    points = _order_search(mp.poset, lam, lambda lo, hi: values[bisect_left(values, lo) : bisect_right(values, hi)])
    return sorted((x for x in points if is_vertex(mp, x)), key=lambda x: [x[e] for e in unmarked])


def check_minkowski(mp: MarkedPoset, lam: dict, mu: dict, trials: int = 100, seed: int = 0) -> bool:
    """Support-function additivity of O_{lam+mu} vs O_lam + O_mu on seeded
    random rational objectives."""
    mp_l = mp.with_marking(lam)
    mp_m = mp.with_marking(mu)
    both = {a: _parse_rational(lam[a]) + _parse_rational(mu[a]) for a in lam}
    mp_b = mp.with_marking(both)
    els = mp.poset.elements
    verts = [
        [tuple(Fraction(v[e]) for e in els) for v in enumerate_vertices(m)]
        for m in (mp_l, mp_m, mp_b)
    ]
    # one common denominator D turns every vertex into an int tuple; scaling
    # all supports by the same positive factor keeps the comparison exact
    den = math.lcm(*(x.denominator for vs in verts for v in vs for x in v))
    vl, vm, vb = ([tuple(int(x * den) for x in v) for v in vs] for vs in verts)
    rng = random.Random(seed)

    def support(vertices, c):
        return max(sum(map(operator.mul, c, v)) for v in vertices)

    for _ in range(trials):
        # the objective is num/d per element, d in 1..7, scaled to an int by
        # 420 = lcm(1..7)
        c = [rng.randint(-30, 30) * 420 // rng.randint(1, 7) for _ in els]
        if support(vb, c) != support(vl, c) + support(vm, c):
            return False
    return True


def unit_markings(mp: MarkedPoset) -> list[dict]:
    """The 0/1 markings omega_i: 1 on the i largest marked elements."""
    marked = mp.sorted_marked()
    return [
        {e: Fraction(1) if idx < i else Fraction(0) for idx, e in enumerate(marked)}
        for i in range(1, len(marked) + 1)
    ]


def check_log_concavity(mp: MarkedPoset) -> list[tuple[tuple[int, ...], int]]:
    """Adjacent-trade log-concavity of the extension counts.

    For every feasible gap vector a and index j with a_{j-1} >= 1 and
    a_j >= 1, checks N(a)^2 >= N(a + e_{j-1} - e_j) * N(a - e_{j-1} + e_j).
    Returns the violating (a, j) pairs (expected none).
    """
    mp.validate()
    k = len(mp.sorted_marked())
    dim = len(mp.poset.elements) - k
    if k < 3:
        return []
    buckets = extension_gap_counts(mp)

    def N(a):
        return buckets.get(tuple(a), 0)

    bad = []
    for a in enumerate_compositions(dim, k - 1):
        for j in range(1, k - 1):
            if a[j - 1] < 1 or a[j] < 1:
                continue
            up = list(a)
            up[j - 1] += 1
            up[j] -= 1
            dn = list(a)
            dn[j - 1] -= 1
            dn[j] += 1
            if N(a) ** 2 < N(up) * N(dn):
                bad.append((a, j))
    return bad
