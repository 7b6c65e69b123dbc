"""Flow networks, flow polytopes, Kostant partition functions, and the
Baldoni-Vergne-Lidskii volume and lattice-point formulas.

A FlowNetwork is a loopless acyclic directed multigraph on vertices
0..num_vertices-1 (every edge goes from a smaller to a larger index)
together with an integer netflow vector summing to zero.  Flows are
edge-indexed vectors; conservation at v reads inflow + netflow = outflow.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import chain

from .combinat import binomial, enumerate_compositions, multiset_binomial


class FlowError(ValueError):
    pass


@dataclass(frozen=True)
class FlowNetwork:
    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    netflow: tuple[int, ...]
    # per-vertex edge orderings (indices into `edges`); None = list order
    in_orders: tuple[tuple[int, ...], ...] | None = None
    out_orders: tuple[tuple[int, ...], ...] | None = None
    names: tuple[str, ...] | None = None

    @staticmethod
    def make(num_vertices, edges, netflow, in_orders=None, out_orders=None, names=None):
        return FlowNetwork(
            int(num_vertices),
            tuple((int(u), int(v)) for u, v in edges),
            tuple(int(a) for a in netflow),
            None if in_orders is None else tuple(tuple(o) for o in in_orders),
            None if out_orders is None else tuple(tuple(o) for o in out_orders),
            None if names is None else tuple(names),
        )

    def __post_init__(self):
        n = self.num_vertices
        if n < 1:
            raise FlowError("need at least one vertex")
        for u, v in self.edges:
            if not (0 <= u < v < n):
                raise FlowError(f"edge ({u},{v}) must satisfy 0 <= u < v < {n}")
        if len(self.netflow) != n:
            raise FlowError("netflow length must equal num_vertices")
        if sum(self.netflow) != 0:
            raise FlowError("netflow must sum to zero")
        incidence = None
        for orders, side in ((self.in_orders, 0), (self.out_orders, 1)):
            if orders is None:
                continue
            if len(orders) != n:
                raise FlowError("edge orderings must cover every vertex")
            incidence = incidence or self._incidence()
            if list(map(sorted, orders)) != incidence[side]:
                v = next(v for v in range(n) if sorted(orders[v]) != incidence[side][v])
                raise FlowError(f"edge ordering at vertex {v} is not a permutation")
        if self.names is not None and len(self.names) != n:
            raise FlowError("names must cover every vertex")

    # -- structure ---------------------------------------------------------

    def _incidence(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per vertex, its in- and out-edge indices in list order."""
        ins: list[list[int]] = [[] for _ in range(self.num_vertices)]
        outs: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for i, (u, v) in enumerate(self.edges):
            ins[v].append(i)
            outs[u].append(i)
        return ins, outs

    @cached_property
    def _edge_lists(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """Per vertex, its in- and out-edge indices in list order; not a field."""
        return tuple(tuple(map(tuple, lists)) for lists in self._incidence())

    def in_edges(self, v: int) -> tuple[int, ...]:
        return (self._edge_lists[0] if self.in_orders is None else self.in_orders)[v]

    def out_edges(self, v: int) -> tuple[int, ...]:
        return (self._edge_lists[1] if self.out_orders is None else self.out_orders)[v]

    def indeg(self, v: int) -> int:
        return len(self.in_edges(v))

    def outdeg(self, v: int) -> int:
        return len(self.out_edges(v))

    def out_shift(self, v: int) -> int:
        """out_v = outdegree - 1."""
        return self.outdeg(v) - 1

    def in_shift(self, v: int) -> int:
        return self.indeg(v) - 1

    def dimension(self) -> int:
        return len(self.edges) - (self.num_vertices - 1)

    def is_connected(self) -> bool:
        comp = list(range(self.num_vertices))

        def find(a):
            while comp[a] != a:
                comp[a] = comp[comp[a]]
                a = comp[a]
            return a

        for u, v in self.edges:
            comp[find(u)] = find(v)
        return len({find(v) for v in range(self.num_vertices)}) == 1

    def name(self, v: int) -> str:
        return self.names[v] if self.names is not None else str(v)

    def with_netflow(self, b) -> "FlowNetwork":
        return FlowNetwork.make(
            self.num_vertices, self.edges, b, self.in_orders, self.out_orders, self.names
        )

    def check_flow(self, f) -> bool:
        f = tuple(f)
        if len(f) != len(self.edges) or any(x < 0 for x in f):
            return False
        # conservation: inflow + netflow - outflow is zero at every vertex
        balance = list(self.netflow)
        for x, (u, v) in zip(f, self.edges):
            balance[u] -= x
            balance[v] += x
        return not any(balance)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        d = {
            "n": self.num_vertices,
            "edges": [list(e) for e in self.edges],
            "netflow": list(self.netflow),
        }
        for key in ("in_orders", "out_orders"):
            orders = getattr(self, key)
            if orders is not None:
                d[key] = [list(o) for o in orders]
        if self.names is not None:
            d["names"] = list(self.names)
        return d

    @staticmethod
    def from_json(data: dict) -> "FlowNetwork":
        for key in ("n", "edges", "netflow"):
            if not isinstance(data, dict) or key not in data:
                raise FlowError(f"network JSON has no {key!r} key")
        try:
            return FlowNetwork.make(
                data["n"],
                [tuple(e) for e in data["edges"]],
                data["netflow"],
                in_orders=data.get("in_orders"),
                out_orders=data.get("out_orders"),
                names=data.get("names"),
            )
        except TypeError as exc:  # a number where a list belongs, or the reverse
            raise FlowError(f"network JSON has a value of the wrong shape: {exc}") from exc

    def to_dot(self) -> str:
        lines = ["digraph flownetwork {", "  rankdir=TB;"]
        for v in range(self.num_vertices):
            lines.append(f'  v{v} [label="{self.name(v)} ({self.netflow[v]:+d})"];')
        for i, (u, v) in enumerate(self.edges):
            lines.append(f'  v{u} -> v{v} [label="e{i}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# integer flows


def enumerate_integer_flows(g: FlowNetwork, b=None) -> list[tuple[int, ...]]:
    """All integer flows with netflow b, by vertex-by-vertex assignment in
    index order with conservation pruning."""
    b = g.netflow if b is None else tuple(int(x) for x in b)
    if len(b) != g.num_vertices:
        raise FlowError("netflow vector has wrong length")
    if sum(b) != 0:
        return []
    outs = [g.out_edges(v) for v in range(g.num_vertices)]
    heads = [[g.edges[i][1] for i in out] for out in outs]
    flows: list[tuple[int, ...]] = []
    _assign_flows(0, b, outs, heads, [0] * len(g.edges), [0] * g.num_vertices, {}, flows)
    return flows


def _assign_flows(v, b, outs, heads, values, inflow, splits, flows) -> None:
    """Append to `flows` every completion of the flow in `values`, set on
    the out-edges of the vertices before v, that splits each later vertex's
    supply over its out-edges `outs` (their heads `heads`) in composition
    order.  `splits` holds the compositions of each (supply, outdegree) met
    so far.  An edge's value is read only after its tail set it on the
    current path, so none is reset."""
    if v == len(b):
        flows.append(tuple(values))
        return
    supply = inflow[v] + b[v]
    if supply < 0:
        return
    out = outs[v]
    if not out:
        if supply == 0:
            _assign_flows(v + 1, b, outs, heads, values, inflow, splits, flows)
        return
    split = splits.get((supply, len(out)))
    if split is None:
        split = splits[supply, len(out)] = enumerate_compositions(supply, len(out))
    hv = heads[v]
    for comp in split:
        for idx, w, amount in zip(out, hv, comp):
            values[idx] = amount
            inflow[w] += amount
        _assign_flows(v + 1, b, outs, heads, values, inflow, splits, flows)
        for w, amount in zip(hv, comp):
            inflow[w] -= amount


def _targets(g: FlowNetwork) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per vertex v, the sorted (w, multiplicity of edges v -> w) pairs."""
    targets = []
    for v in range(g.num_vertices):
        mult: dict[int, int] = {}
        for i in g.out_edges(v):
            w = g.edges[i][1]
            mult[w] = mult.get(w, 0) + 1
        targets.append(tuple(sorted(mult.items())))
    return tuple(targets)


def _narrow_order(targets) -> tuple[int, ...]:
    """A topological order of the vertices of `targets` that keeps the
    frontier (unvisited vertices with a visited in-neighbour) narrow: each
    step visits the available vertex whose visit leaves the fewest frontier
    vertices, the smaller index on ties."""
    succ = [{w for w, _ in tv} for tv in targets]
    waiting = Counter(chain.from_iterable(succ))  # unvisited in-neighbours
    available = {v for v in range(len(targets)) if not waiting[v]}
    frontier, order = set(), []
    while available:
        v = min(available, key=lambda u: (len(frontier | succ[u]) - (u in frontier), u))
        available.remove(v)
        order.append(v)
        frontier = (frontier | succ[v]) - {v}
        for w in succ[v]:
            waiting[w] -= 1
            if not waiting[w]:
                available.add(w)
    return tuple(order)


@lru_cache(maxsize=1024)  # one network shape often gets many DPs: the Lidskii routes, netflow loops
def _plan(targets) -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]:
    """The steps of _frontier_dp over `targets`: per vertex v in
    _narrow_order, (v, v's slot, its targets' slots, the m - 1 of each
    target).  A vertex takes the lowest free slot when it first appears, as
    v or as a target, and frees it when visited, before its targets are
    placed."""
    frontier: list[int | None] = []  # the vertex in each slot, None when free

    def place(u: int) -> int:
        if u not in frontier:
            i = (frontier + [None]).index(None)
            frontier[i : i + 1] = [u]
        return frontier.index(u)

    steps = []
    for v in _narrow_order(targets):
        p = place(v)
        frontier[p] = None  # a target may take v's slot: v's supply leaves it before the split
        steps.append((v, p, tuple(place(u) for u, _ in targets[v]), tuple(m - 1 for _, m in targets[v])))
    return tuple(steps)


def _frontier_dp(targets, b, draw, most_drawn) -> int:
    """Sum, over draws j and integer flows with netflow b + j, of the product
    of the draws' weights; v sends flow along its edge groups targets[v].

    Vertices are visited in _narrow_order; a state holds the flow committed
    to each frontier vertex and the j-mass drawn so far, at most most_drawn.
    At v, draw(v, need, drawn) returns the (j_v, weight) pairs to take, j_v
    >= need keeping v's supply nonnegative.  m parallel edges carry an amount
    a in comb(a + m - 1, m - 1) ways; each step splits a supply value once.

    A state is one int: slot i in bits [w*i, w*(i+1)), the drawn mass from
    bit w * len(targets) on (a slot holds one vertex).  A vertex holds the
    lowest free slot from when it joins the frontier, or is visited, until
    its supply, parked there between the draw and the split, is split.  No
    edge enters the visited set from outside, so the slots sum to the flow
    in flight, the sum over the visited v of b_v + j_v <= (the sum of the
    positive b) + most_drawn; with w the bit length of that bound no slot
    carries into the next.  The slots come from _plan, once per shape of
    targets.
    """
    w = (sum(x for x in b if x > 0) + most_drawn).bit_length()
    mask, top = (1 << w) - 1, w * len(targets)
    states: dict[int, int] = {0: 1}
    for v, p, slots, ms in _plan(targets):
        at, bv = w * p, b[v]
        units = [1 << w * slot for slot in slots]
        clear, shift, unit = ~(mask << at), bv << at, (1 << at) + (1 << top)
        drawn: dict[int, int] = {}
        for state, count in states.items():
            for jv, weight in draw(v, -bv - (state >> at & mask), state >> top):
                key = state + shift + jv * unit
                drawn[key] = drawn.get(key, 0) + count * weight
        splits: dict[int, list[tuple[int, int]]] = {}
        states = {}
        for key, count in drawn.items():
            supply = key >> at & mask
            split = splits.get(supply)
            if split is None:
                split = splits[supply] = [
                    (sum(map(operator.mul, c, units)), math.prod(map(math.comb, map(operator.add, c, ms), ms)))
                    for c in enumerate_compositions(supply, len(units))
                ]
            base = key & clear
            for add, ways in split:
                states[base + add] = states.get(base + add, 0) + count * ways
    return sum(states.values())  # the frontier ends empty: at most one state


def kostant(g: FlowNetwork, b=None) -> int:
    """K_G(b): number of integer flows with netflow b.

    One _frontier_dp pass with no draw, keyed by the frontier's flow only.
    Independent of the brute-force enumeration above, its oracle in tests.
    """
    b = g.netflow if b is None else tuple(int(x) for x in b)
    if len(b) != g.num_vertices:
        raise FlowError("netflow vector has wrong length")
    if sum(b) != 0:
        return 0
    return _frontier_dp(_targets(g), b, lambda v, need, drawn: () if need > 0 else ((0, 1),), 0)


# ---------------------------------------------------------------------------
# Lidskii formulas


def check_lidskii_preconditions(g: FlowNetwork) -> None:
    n = g.num_vertices
    if not g.is_connected():
        raise FlowError("Lidskii formulas need a connected network")
    for v in range(n - 1):
        if g.netflow[v] < 0:
            raise FlowError(f"Lidskii formulas need netflow >= 0 at vertex {v}")
        if g.outdeg(v) == 0:
            raise FlowError(f"Lidskii formulas need an outgoing edge at vertex {v}")


def _weighted_kostant(g: FlowNetwork, weight) -> int:
    """Sum over weak compositions j of total = dim G = m - n + 1 of
    prod_v weight(v, j_v, rem_v) * K_G(j - out, 0), where out_v = outdeg - 1
    and rem_v is the j-mass still unassigned when v draws j_v.

    One _frontier_dp pass in which v draws j_v on top of b_v = -out_v; rem_v
    is read off the state.  Vertices are not visited in index order, so a
    weight reading rem_v must multiply out to an order-free product, as
    comb(rem_v, j_v) does (total! / prod_v j_v!).  The sink takes netflow 0,
    so its in-edges carry nothing and it is left out of the pass; on one
    vertex the pass is empty and the sum is 1.  Raises FlowError where
    check_lidskii_preconditions does.
    """
    check_lidskii_preconditions(g)
    total = g.dimension()
    sink = g.num_vertices - 1
    targets = tuple(tuple((w, m) for w, m in tv if w != sink) for tv in _targets(g)[:sink])

    @lru_cache(maxsize=None)  # within this pass: each (v, rem) weight list once
    def weights(v, rem):
        return [(jv, w) for jv in range(rem + 1) if (w := weight(v, jv, rem))]

    def draw(v, need, drawn):
        pairs = weights(v, total - drawn)
        return pairs if need <= 0 else [pair for pair in pairs if pair[0] >= need]

    return _frontier_dp(targets, [-g.out_shift(v) for v in range(sink)], draw, total)


def lidskii_volume(g: FlowNetwork) -> Fraction:
    """Volume of the flow polytope (Ehrhart leading-coefficient
    normalization): the sum over j dominating out of
    prod_v a_v^{j_v}/j_v! times K_G(j - out, 0), a_v the netflow.

    The kernel weight comb(rem_v, j_v) * a_v^{j_v} multiplies out to total!
    times that term, so the integer sum is divided by total! once."""
    a = g.netflow
    total = _weighted_kostant(g, lambda v, jv, rem: math.comb(rem, jv) * a[v] ** jv)
    return Fraction(total, math.factorial(g.dimension()))


def lidskii_points_binomial(g: FlowNetwork) -> int:
    """Lattice points of the flow polytope: the Lidskii sum with weight
    prod_v binom(a_v + out_v, j_v)."""
    top = [g.netflow[v] + g.out_shift(v) for v in range(g.num_vertices)]
    return _weighted_kostant(g, lambda v, jv, rem: binomial(top[v], jv))


def lidskii_points_multiset(g: FlowNetwork) -> int:
    """Lattice points via the multiset-binomial weight
    prod_v <a_v - in_v over j_v>, in_v = indegree - 1; a_v - in_v may be
    negative, so the weight can be nonzero at every j_v."""
    top = [g.netflow[v] - g.in_shift(v) for v in range(g.num_vertices)]
    return _weighted_kostant(g, lambda v, jv, rem: multiset_binomial(top[v], jv))


# ---------------------------------------------------------------------------
# fully reduced networks


def leaf_volume(g: FlowNetwork) -> Fraction:
    """Volume of a fully reduced network: a product of dilated simplices,
    one factor a_i^(d_i - 1)/(d_i - 1)! per source with outdegree d_i.

    Requires every vertex to be a source (positive netflow, no incoming) or
    a sink (negative netflow, no outgoing), with a single sink.
    """
    sinks = 0
    num = den = 1
    for v in range(g.num_vertices):
        a = g.netflow[v]
        if a == 0 and g.num_vertices > 1:
            raise FlowError(f"vertex {v} has netflow 0: network is not fully reduced")
        if a > 0:
            if g.indeg(v) > 0:
                raise FlowError(f"source {v} has incoming edges")
            d = g.outdeg(v)
            if d == 0:
                raise FlowError(f"source {v} has no outgoing edges")
            num *= a ** (d - 1)
            den *= math.factorial(d - 1)
        elif a < 0:
            if g.outdeg(v) > 0:
                raise FlowError(f"sink {v} has outgoing edges")
            sinks += 1
    if sinks > 1:
        raise FlowError("leaf volume formula needs a single sink")
    return Fraction(num, den)


def simplify(g: FlowNetwork):
    """Drop edges whose flow is forced to zero (out-edges of netflow-0
    vertices with no live in-edge, in-edges of netflow-0 vertices with no
    live out-edge) and then drop isolated netflow-0 vertices.

    Returns (network, vertex_map, edge_map): maps from new indices to old.
    """
    # Every edge goes up in index, so a forward sweep settles forced-zero
    # inflow and a backward sweep forced-zero outflow.  Neither makes work for
    # the other: each strips a vertex's edges on one side only once it has no
    # live edge on the other.
    alive = [True] * len(g.edges)
    for v in range(g.num_vertices):
        if g.netflow[v] == 0 and not any(alive[i] for i in g.in_edges(v)):
            for i in g.out_edges(v):
                alive[i] = False
    for v in reversed(range(g.num_vertices)):
        if g.netflow[v] == 0 and not any(alive[i] for i in g.out_edges(v)):
            for i in g.in_edges(v):
                alive[i] = False
    emap = [i for i in range(len(g.edges)) if alive[i]]
    live = {u for i in emap for u in g.edges[i]}
    # with every netflow 0 every edge is forced to zero; vertex 0 stays to carry the zero flow
    vmap = [v for v in range(g.num_vertices) if g.netflow[v] != 0 or v in live] or [0]
    vidx = {old: new for new, old in enumerate(vmap)}
    edges = [(vidx[g.edges[i][0]], vidx[g.edges[i][1]]) for i in emap]
    netflow = [g.netflow[v] for v in vmap]
    eidx = {old: new for new, old in enumerate(emap)}
    in_orders, out_orders = (
        None if orders is None else [[eidx[i] for i in orders[v] if i in eidx] for v in vmap]
        for orders in (g.in_orders, g.out_orders)
    )
    names = None if g.names is None else [g.names[v] for v in vmap]
    new = FlowNetwork.make(len(vmap), edges, netflow, in_orders, out_orders, names)
    return new, tuple(vmap), tuple(emap)
