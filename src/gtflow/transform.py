"""Bounded strongly planar embeddings and the dual flow networks of marked
order polytopes, together with the integral equivalence in both directions.

An embedding is given by an explicit list of bounded faces of the Hasse
diagram of P extended by hats 0hat/1hat and two outer (0hat,1hat) edges.
Each face carries a left and a right boundary chain, listed from max(F) down
to min(F); the two faces containing the outer edges use the sentinel chain
(1hat, 0hat) on their outer side.

The dual network is built face by face.  Hats always carry the auxiliary
markings min/max of the marking values.  A face is processed when it is one
of the two outer faces or when its flagged boundary chain (left by default,
right for faces flagged "R", the mixed boundary-side generalization) has a marked
element strictly inside.  Processing a left-flagged face turns its vertex
into a sink that keeps the incoming edges, and hands the outgoing edges to
new sources, one per gap between consecutive marked elements of the chain;
right-flagged faces are treated mirror-image (source remnant, sink gaps).
Remnants without any edges (the outer faces) are dropped.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import neg, pos

from .combinat import as_partition
from .flow import FlowError, FlowNetwork
from .poset import BOTTOM, TOP, MarkedPoset, Poset, PosetError, _kahn, _parse_rational, hat_covers, hat_poset, point_feasible

SENTINEL = (TOP, BOTTOM)


class EmbeddingError(ValueError):
    pass


@dataclass(frozen=True)
class Face:
    left: tuple[str, ...]
    right: tuple[str, ...]

    @staticmethod
    def make(left, right) -> "Face":
        return Face(tuple(str(e) for e in left), tuple(str(e) for e in right))

    @property
    def is_left_outer(self) -> bool:
        return self.left == SENTINEL

    @property
    def is_right_outer(self) -> bool:
        return self.right == SENTINEL

    @property
    def max(self) -> str:
        return self.right[0] if self.is_left_outer else self.left[0]

    @property
    def min(self) -> str:
        return self.right[-1] if self.is_left_outer else self.left[-1]


def _chain_covers(chain) -> list[tuple[str, str]]:
    """Cover pairs (lower, upper) along a descending chain."""
    return list(zip(chain[1:], chain))


@dataclass(frozen=True)
class MarkedEmbedding:
    """Embedding of the hat extension of mp.poset.

    If the marking is empty (order-polytope mode) the hats carry the explicit
    hat_values; otherwise they carry min/max of the marking values.  An
    embedding checks itself when it is made, so every instance is valid.
    """

    mp: MarkedPoset
    faces: tuple[Face, ...]
    flags: tuple[str, ...]
    face_ids: tuple[str, ...]
    hat_values: tuple[Fraction, Fraction] | None = None

    @staticmethod
    def make(mp: MarkedPoset, faces, flags=None, face_ids=None, hat_values=None) -> "MarkedEmbedding":
        faces = tuple(f if isinstance(f, Face) else Face.make(*f) for f in faces)
        if flags is None:
            flags = ("L",) * len(faces)
        if face_ids is None:
            face_ids = tuple(f"F{i}" for i in range(len(faces)))
        if hat_values is not None:
            hat_values = (_parse_rational(hat_values[0]), _parse_rational(hat_values[1]))
        return MarkedEmbedding(mp, faces, tuple(flags), tuple(face_ids), hat_values)

    @cached_property
    def hat_poset(self) -> Poset:
        return hat_poset(self.mp.poset)

    @cached_property
    def extended_marking(self) -> dict[str, Fraction]:
        lam = dict(self.mp.marking)
        if lam:
            values = list(lam.values())
            lam[BOTTOM] = min(values)
            lam[TOP] = max(values)
        else:
            lam[BOTTOM], lam[TOP] = self.hat_values
        return lam

    def flagged_chain(self, i: int) -> tuple[str, ...]:
        return self.faces[i].left if self.flags[i] == "L" else self.faces[i].right

    @cached_property
    def edge_sides(self) -> tuple[dict, dict]:
        """Maps cover -> face index: east (cover on left chain) and west."""
        east: dict[tuple[str, str], int] = {}
        west: dict[tuple[str, str], int] = {}
        for fi, face in enumerate(self.faces):
            for chain, store in ((face.left, east), (face.right, west)):
                if chain == SENTINEL:
                    continue
                for cov in _chain_covers(chain):
                    if cov in store:
                        raise EmbeddingError(
                            f"edge {cov} appears on two {'left' if store is east else 'right'} boundaries"
                        )
                    store[cov] = fi
        return east, west

    def __post_init__(self) -> None:
        n = len(self.faces)
        if len(self.flags) != n or any(f not in ("L", "R") for f in self.flags):
            raise EmbeddingError(f"need one flag per face, each 'L' or 'R': got {list(self.flags)}")
        ids = self.face_ids
        if len(ids) != n or len(set(ids)) != n:
            raise EmbeddingError(f"need one distinct id per face: got {list(ids)}")
        if self.mp.marking_items:
            self.mp.validate()
        else:
            if self.hat_values is None or not self.hat_values[0] <= self.hat_values[1]:
                raise EmbeddingError("empty marking needs ordered hat values")
        covers = set(hat_covers(self.mp.poset))
        marked = {*self.mp.marking, BOTTOM, TOP}  # the hats always carry a mark
        lo = [f for f in self.faces if f.is_left_outer]
        ro = [f for f in self.faces if f.is_right_outer]
        if len(lo) != 1 or len(ro) != 1:
            raise EmbeddingError("need exactly one left-outer and one right-outer face")
        for fi, face in enumerate(self.faces):
            for chain in (face.left, face.right):
                if chain == SENTINEL:
                    continue
                if len(set(chain)) != len(chain):
                    raise EmbeddingError(f"face {self.face_ids[fi]} chain repeats an element")
                for cov in _chain_covers(chain):
                    if cov not in covers:
                        raise EmbeddingError(
                            f"face {self.face_ids[fi]}: ({cov[0]},{cov[1]}) is not a cover"
                        )
            if face.left[0] != face.right[0] or face.left[-1] != face.right[-1]:
                if not (face.is_left_outer or face.is_right_outer):
                    raise EmbeddingError(
                        f"face {self.face_ids[fi]} chains must share max and min"
                    )
        east, west = self.edge_sides
        if east.keys() != covers or west.keys() != covers:
            missing = (covers - set(east)) | (covers - set(west))
            extra = (set(east) - covers) | (set(west) - covers)
            raise EmbeddingError(f"boundary edges do not tile the Hasse diagram: missing={sorted(missing)} extra={sorted(extra)}")
        n_vertices = len(self.mp.poset.elements) + 2
        n_edges = len(covers) + 2
        if len(self.faces) != n_edges - n_vertices + 1:
            raise EmbeddingError(
                f"Euler check failed: {len(self.faces)} faces, expected {n_edges - n_vertices + 1}"
            )
        for fi, face in enumerate(self.faces):
            chain = self.flagged_chain(fi)
            if chain == SENTINEL:
                continue
            if not marked.isdisjoint(chain[1:-1]):
                if face.max not in marked or face.min not in marked:
                    raise EmbeddingError(
                        f"face {self.face_ids[fi]}: marked {self.flags[fi]} boundary "
                        f"but max/min unmarked"
                    )

    def to_json(self) -> dict:
        d = {
            "poset": self.mp.to_json(),
            "faces": [
                {"id": fid, "left": list(f.left), "right": list(f.right), "flag": flag}
                for fid, f, flag in zip(self.face_ids, self.faces, self.flags)
            ],
        }
        if self.hat_values is not None:
            d["hat_values"] = [str(v) for v in self.hat_values]
        return d

    @staticmethod
    def from_json(data: dict) -> "MarkedEmbedding":
        for key in ("poset", "faces"):
            if not isinstance(data, dict) or key not in data:
                raise EmbeddingError(f"embedding JSON has no {key!r} key")
        if not isinstance(data["faces"], list):
            raise EmbeddingError("embedding JSON 'faces' must be a list")
        for f in data["faces"]:
            for key in ("left", "right"):
                if not isinstance(f, dict) or key not in f:
                    raise EmbeddingError(f"embedding face has no {key!r} key")
            if not all(isinstance(f.get(key, ""), str) for key in ("id", "flag")):
                raise EmbeddingError("embedding face 'id' and 'flag' must be strings")
        hv = data.get("hat_values")
        if hv is not None and (not isinstance(hv, list) or len(hv) != 2):
            raise EmbeddingError("embedding JSON 'hat_values' must be a list of two values")
        try:
            mp = MarkedPoset.from_json(data["poset"])
            faces = [Face.make(f["left"], f["right"]) for f in data["faces"]]
            flags = [f.get("flag", "L") for f in data["faces"]]
            ids = [f.get("id", f"F{i}") for i, f in enumerate(data["faces"])]
            return MarkedEmbedding.make(mp, faces, flags, ids, hv)
        except TypeError as exc:  # a number where a list belongs, or the reverse
            raise EmbeddingError(f"embedding JSON has a value of the wrong shape: {exc}") from exc


# ---------------------------------------------------------------------------
# dual network construction


@dataclass(frozen=True)
class DualNetwork:
    """Flow network dual to a bounded strongly planar embedding.

    vertex_keys identify each network vertex by face id: ("face", id)
    untouched face, ("src", id, g) / ("sink", id, g) gap vertices,
    ("rsrc", id) / ("rsink", id) processed-face remnants.  crossings[i] is
    the Hasse cover crossed by edge i.
    """

    embedding: MarkedEmbedding
    network: FlowNetwork
    vertex_keys: tuple[tuple, ...]
    crossings: tuple[tuple[str, str], ...]
    # for gap vertices: key -> (upper marked element, lower marked element)
    gap_bounds: tuple[tuple[tuple, tuple[str, str]], ...] = ()

    @cached_property
    def edge_of_cover(self) -> dict[tuple[str, str], int]:
        return {cov: i for i, cov in enumerate(self.crossings)}

    @cached_property
    def gap_bound_map(self) -> dict[tuple, tuple[str, str]]:
        return dict(self.gap_bounds)

    @cached_property
    def hat_marks(self) -> tuple:
        """The extended marking at (0hat, 1hat), ints where integral."""
        lamhat = self.embedding.extended_marking
        return tuple(int(v) if v.denominator == 1 else v for v in (lamhat[BOTTOM], lamhat[TOP]))


def _vertex_name(key) -> str:
    if key[0] == "face":
        return key[1]
    gap = key[2] + 1 if len(key) > 2 else ""
    return f"{'s' if 'src' in key[0] else 't'}{gap}^{key[1]}"


def build_G_PAlambda(me: MarkedEmbedding) -> DualNetwork:
    """The flow network of a bounded strongly planar embedding of a marked
    poset, with the vertex order: sources (marking value descending), faces
    in topological order, sinks last."""
    lamhat = me.extended_marking
    east, west = me.edge_sides
    faces = me.faces

    # face index -> (positions of the marked elements on its flagged chain, those elements)
    processed: dict[int, tuple[list[int], list[str]]] = {}
    for fi, face in enumerate(faces):
        chain = me.flagged_chain(fi)
        outer = face.is_left_outer or face.is_right_outer
        strict = chain != SENTINEL and any(p in lamhat for p in chain[1:-1])
        if not (outer or strict):
            continue
        if chain == SENTINEL:
            mpos = [0, 1]
        else:
            mpos = [t for t, p in enumerate(chain) if p in lamhat]
            if mpos[0] != 0 or mpos[-1] != len(chain) - 1:
                raise EmbeddingError(
                    f"face {me.face_ids[fi]}: flagged chain endpoints must be marked"
                )
        processed[fi] = (mpos, [chain[t] for t in mpos])

    def owner(fi, cov, side):
        """The vertex at side 0 (tail: cov on the left chain of face fi) or
        side 1 (head: cov on its right chain) of the dual edge across cov."""
        if fi not in processed:
            return ("face", fi)
        if side == "LR".index(me.flags[fi]):  # cov lies on the flagged chain
            t = _chain_covers(me.flagged_chain(fi)).index(cov)
            # the marked positions run from 0 to the chain's end (checked above),
            # so cover t lies in exactly one gap
            return (("src", "sink")[side], fi, bisect_right(processed[fi][0], t) - 1)
        return (("rsrc", "rsink")[side], fi)

    all_covers = [cov for face in faces if face.left != SENTINEL for cov in _chain_covers(face.left)]
    edge_tail = {cov: owner(east[cov], cov, 0) for cov in all_covers}
    edge_head = {cov: owner(west[cov], cov, 1) for cov in all_covers}

    # vertex keys and netflows: a left flag makes gap sources and a sink
    # remnant, a right flag the mirror image, with every sign flipped
    netflows: dict[tuple, Fraction] = {}
    for fi, face in enumerate(faces):
        if fi not in processed:
            netflows[("face", fi)] = Fraction(0)
            continue
        marks = processed[fi][1]
        side = "LR".index(me.flags[fi])
        sign = (pos, neg)[side]
        if (face.right, face.left)[side] != SENTINEL:  # the unflagged chain holds the remnant
            netflows[(("rsink", "rsrc")[side], fi)] = sign(lamhat[marks[-1]] - lamhat[marks[0]])
        if me.flagged_chain(fi) != SENTINEL:
            for g in range(len(marks) - 1):
                netflows[(("src", "sink")[side], fi, g)] = sign(lamhat[marks[g]] - lamhat[marks[g + 1]])

    sources = [k for k in netflows if k[0] in ("src", "rsrc")]
    plains = [k for k in netflows if k[0] == "face"]
    sinks = [k for k in netflows if k[0] in ("sink", "rsink")]

    def upper_value(k):
        marks = processed[k[1]][1]
        return lamhat[marks[k[2]]] if k[0] == "src" else lamhat[marks[0]]

    sources.sort(key=lambda k: (-upper_value(k), k[1], k[2] if len(k) > 2 else -1))
    # topological order of untouched faces along dual edges, smallest face index first
    adj = {k: [] for k in plains}
    indeg = {k: 0 for k in plains}
    for cov in all_covers:
        t, h = edge_tail[cov], edge_head[cov]
        if t in indeg and h in indeg:
            adj[t].append(h)
            indeg[h] += 1
    topo = _kahn(adj, indeg)
    if len(topo) != len(plains):
        raise EmbeddingError("dual network has a cycle among faces")
    sinks.sort(key=lambda k: (k[1], k[2] if len(k) > 2 else -1))

    order = sources + topo + sinks
    index = {k: i for i, k in enumerate(order)}

    edges = []
    crossings = []
    for cov in all_covers:
        edges.append((index[edge_tail[cov]], index[edge_head[cov]]))
        crossings.append(cov)

    # integer netflows
    nets = []
    for k in order:
        v = netflows[k]
        if v.denominator != 1:
            raise EmbeddingError("network construction needs integer markings")
        nets.append(int(v))

    # per-vertex edge orders from the boundary chains
    eidx = {cov: i for i, cov in enumerate(crossings)}
    out_orders = [[] for _ in order]
    in_orders = [[] for _ in order]
    for fi, face in enumerate(faces):
        if face.left != SENTINEL:
            for cov in _chain_covers(face.left):
                out_orders[index[edge_tail[cov]]].append(eidx[cov])
        if face.right != SENTINEL:
            for cov in _chain_covers(face.right):
                in_orders[index[edge_head[cov]]].append(eidx[cov])

    # the keys name faces by id from here on
    keys = tuple((k[0], me.face_ids[k[1]]) + k[2:] for k in order)
    network = FlowNetwork.make(
        len(keys), edges, nets, in_orders=in_orders, out_orders=out_orders,
        names=[_vertex_name(k) for k in keys],
    )
    gap_bounds = []
    for k, key in zip(order, keys):
        if k[0] in ("src", "sink"):
            marks = processed[k[1]][1]
            gap_bounds.append((key, (marks[k[2]], marks[k[2] + 1])))
    return DualNetwork(me, network, keys, tuple(crossings), tuple(gap_bounds))


# ---------------------------------------------------------------------------
# the integral equivalence Gamma


def gamma(dn: DualNetwork, x: dict):
    """Map a point of the marked order polytope to a flow: the value on a
    dual edge is the difference of the point across the crossed cover.

    A point whose coordinates are all ints is mapped in int arithmetic;
    any other point is converted to Fractions first.  Every call checks
    that the point is feasible and that its image is a feasible flow.
    """
    if not all(type(v) is int for v in x.values()):
        x = {k: Fraction(v) for k, v in x.items()}
    if not point_feasible(dn.embedding.mp, x):
        raise PosetError("point is not in the marked order polytope")
    xh = dict(x)
    xh[BOTTOM], xh[TOP] = dn.hat_marks
    values = [xh[q] - xh[p] for p, q in dn.crossings]
    values = tuple(int(v) if v.denominator == 1 else v for v in values)
    if not dn.network.check_flow(values):
        raise EmbeddingError("Gamma image of a feasible point is not a feasible flow on the dual")
    return values


def gamma_inverse(dn: DualNetwork, f) -> dict:
    """Inverse map: x_p is the flow summed over a canonical descending chain
    from p to 0hat (the lexicographically smallest lower covers)."""
    me = dn.embedding
    f = tuple(f)
    if not dn.network.check_flow(f):
        raise FlowError("not a feasible flow on the dual network")
    lamhat = me.extended_marking
    hat = me.hat_poset
    xh: dict[str, Fraction] = {BOTTOM: lamhat[BOTTOM]}
    for e in hat.topo_order:
        if e == BOTTOM:
            continue
        d = hat.down_covers(e)[0]
        xh[e] = xh[d] + f[dn.edge_of_cover[(d, e)]]
    x = {e: xh[e] for e in me.mp.poset.elements}
    for a, v in me.mp.marking.items():
        if x[a] != v:
            raise FlowError(f"flow does not restore the marking at {a}")
    if not point_feasible(me.mp, x):
        raise FlowError("flow maps outside the marked order polytope")
    return {k: int(v) if v.denominator == 1 else v for k, v in x.items()}


# ---------------------------------------------------------------------------
# skew Gelfand-Tsetlin polytopes


def _skew_id(i: int, j: int) -> str:
    return f"y{i}_{j}"


def _skew_rows(lam, mu, m: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """lam, mu padded with zeros to lam's length, and that length n; a skew
    instance needs n >= 1, m >= 1 and mu no longer than lam."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if len(mu) > len(lam):
        raise ValueError("mu must fit inside lam")
    if not lam or m < 1:
        raise ValueError("need at least one column and m >= 1")
    return lam, mu + (0,) * (len(lam) - len(mu)), len(lam)


def build_skew_gt(lam, mu, m: int) -> MarkedEmbedding:
    """Marked poset plus embedding for the skew polytope with top row lam,
    bottom row mu, and m+1 rows in total.

    Cells (i, j): i = 1 (bottom, marked mu) .. m+1 (top, marked lam),
    j = 1..n.  Relations: (i-1,j) <= (i,j) and (i+1,j+1) <= (i,j).
    """
    lam, mu, n = _skew_rows(lam, mu, m)
    if any(mu[j] > lam[j] for j in range(n)):
        raise ValueError("mu must be contained in lam columnwise")

    cells = [(i, j) for i in range(1, m + 2) for j in range(1, n + 1)]
    covers = []
    for i in range(2, m + 2):
        for j in range(1, n + 1):
            covers.append((_skew_id(i - 1, j), _skew_id(i, j)))
    for i in range(1, m + 1):
        for j in range(1, n):
            covers.append((_skew_id(i + 1, j + 1), _skew_id(i, j)))
    p = Poset.from_covers([_skew_id(i, j) for i, j in cells], covers)
    marking = {_skew_id(m + 1, j): lam[j - 1] for j in range(1, n + 1)}
    marking.update({_skew_id(1, j): mu[j - 1] for j in range(1, n + 1)})
    mp = MarkedPoset.make(p, marking)

    faces = []
    flags = []
    ids = []
    for i in range(2, m + 1):
        for j in range(1, n):
            faces.append(
                Face.make(
                    [_skew_id(i, j), _skew_id(i - 1, j), _skew_id(i, j + 1)],
                    [_skew_id(i, j), _skew_id(i + 1, j + 1), _skew_id(i, j + 1)],
                )
            )
            flags.append("R" if i == 2 else "L")
            ids.append(f"D{i}_{j}")
    west = [TOP] + [_skew_id(i, 1) for i in range(m + 1, 0, -1)]
    for j in range(2, n + 1):
        west += [_skew_id(2, j), _skew_id(1, j)]
    west += [BOTTOM]
    faces.append(Face.make(SENTINEL, west))
    flags.append("R")
    ids.append("Ft")
    east = [TOP, _skew_id(m + 1, 1)]
    for j in range(1, n):
        east += [_skew_id(m, j), _skew_id(m + 1, j + 1)]
    east += [_skew_id(i, n) for i in range(m, 0, -1)]
    east += [BOTTOM]
    faces.append(Face.make(east, SENTINEL))
    flags.append("L")
    ids.append("Fs")
    return MarkedEmbedding.make(mp, faces, flags, ids)


def enumerate_skew_points(lam, mu, m: int) -> list[dict[str, int]]:
    """Independent cell-by-cell enumeration of the integer skew arrays."""
    lam, mu, n = _skew_rows(lam, mu, m)
    vals: dict[tuple[int, int], int] = {}
    for j in range(1, n + 1):
        vals[(1, j)] = mu[j - 1]
        vals[(m + 1, j)] = lam[j - 1]
    if m == 1:
        ok = all(
            vals[(1, j)] <= vals[(2, j)] for j in range(1, n + 1)
        ) and all(vals[(2, j + 1)] <= vals[(1, j)] for j in range(1, n))
        return [{_skew_id(i, j): v for (i, j), v in vals.items()}] if ok else []
    # columns right to left, rows bottom up: both lower covers of a cell,
    # (i-1,j) and (i+1,j+1), are always already assigned
    free = [(i, j) for j in range(n, 0, -1) for i in range(2, m + 1)]
    points: list[dict[str, int]] = []

    def rec(idx):
        if idx == len(free):
            points.append({_skew_id(i, j): v for (i, j), v in vals.items()})
            return
        i, j = free[idx]
        lo = vals[(i - 1, j)]
        if j < n:
            lo = max(lo, vals[(i + 1, j + 1)])
        hi = lam[j - 1]
        if i == 2 and j > 1:
            hi = min(hi, vals[(1, j - 1)])  # upper cover (1, j-1) is marked
        for v in range(lo, hi + 1):
            vals[(i, j)] = v
            rec(idx + 1)
            del vals[(i, j)]

    rec(0)
    return points


def build_skew_flow(lam, mu, m: int) -> DualNetwork:
    """Flow network for a skew polytope: the dual of build_skew_gt."""
    try:
        me = build_skew_gt(lam, mu, m)
    except EmbeddingError as e:
        raise EmbeddingError(
            f"no valid boundary-side assignment for this skew instance: {e}"
        ) from e
    return build_G_PAlambda(me)
