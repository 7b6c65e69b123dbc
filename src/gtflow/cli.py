"""Command-line front end.

One subcommand per capability: gt, kostant, lidskii, poset2flow, skew,
subdivide, bijection, verify, export.  All numeric output is exact
(integers in decimal, rationals as p/q); JSON output is deterministic.
Exit codes: 0 success, 1 a checked identity failed, 2 bad input (one
`gtflow: <message>` line on standard error).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .combinat import as_partition
from .flow import FlowNetwork, enumerate_integer_flows, kostant, lidskii_points_binomial, lidskii_points_multiset, lidskii_volume, simplify
from .gt import (
    build_G_lambda,
    enumerate_gt_points,
    flow_to_gt,
    gt_points_lidskii,
    gt_to_flow,
    gt_volume_lidskii,
    gt_volume_product,
    gt_volume_shsyt,
    weyl_dimension,
)
from .subdivision import canonical_reduction_tree, leaves_to_extensions, reduction_tree_volume
from .transform import MarkedEmbedding, build_G_PAlambda, build_skew_flow, enumerate_skew_points
from .verify import DEFAULT_BOUNDS, SCOPES, run_verify


def _parse_ints(s: str) -> tuple[int, ...]:
    if not s:
        return ()
    return tuple(int(x) for x in s.split(","))


def _parse_bounds(s: str) -> dict:
    out = {}
    for item in s.split(",") if s else ():
        k, _, v = item.partition("=")
        k = k.strip()
        if k not in DEFAULT_BOUNDS:
            raise ValueError(f"--bounds item {item!r}: no bound {k!r}; choose from {', '.join(DEFAULT_BOUNDS)}")
        if k in out:
            raise ValueError(f"--bounds item {item!r}: bound {k!r} is given twice")
        try:
            out[k] = int(v)
        except ValueError:
            raise ValueError(f"--bounds item {item!r} is not {k}=<integer>") from None
        if out[k] < 0:
            raise ValueError(f"--bounds item {item!r} is negative")
    return out


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _dump_json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_network(path: str) -> FlowNetwork:
    return FlowNetwork.from_json(json.loads(Path(path).read_text()))


def _load_embedding(path: str) -> MarkedEmbedding:
    return MarkedEmbedding.from_json(json.loads(Path(path).read_text()))


_GT_METHODS = {
    "vol": {"product": gt_volume_product, "shsyt": gt_volume_shsyt, "lidskii": gt_volume_lidskii},
    "points": {
        "product": weyl_dimension,
        "lidskii": gt_points_lidskii,
        "enumerate": lambda lam: len(enumerate_gt_points(lam)),
    },
}


def cmd_gt(args) -> int:
    lam = as_partition(_parse_ints(args.partition))
    if not lam:
        raise ValueError("gt needs a partition with at least one part")
    if args.check and args.what != "bijection":
        raise ValueError(f"gt {args.what} takes no --check")
    if args.what in _GT_METHODS:
        methods = _GT_METHODS[args.what]
        method = args.method or "product"
        if method not in methods:
            raise ValueError(f"gt {args.what} has no method {method!r}; choose from {', '.join(methods)}")
        _emit(str(methods[method](lam)), args.out)
    elif args.method:
        raise ValueError(f"gt {args.what} takes no --method")
    elif args.what == "dim":
        _emit(str(weyl_dimension(lam)), args.out)
    elif args.what == "bijection":
        pts = enumerate_gt_points(lam)
        flows = [gt_to_flow(lam, p) for p in pts]
        if args.check:
            ok = len(set(flows)) == len(pts)
            ok = ok and set(flows) == set(
                enumerate_integer_flows(build_G_lambda(lam).network)
            )
            ok = ok and all(flow_to_gt(lam, f) == p for p, f in zip(pts, flows))
            _emit(f"bijection {'OK' if ok else 'FAILED'}: {len(pts)} patterns", args.out)
            return 0 if ok else 1
        lines = [
            _dump_json_line({"pattern": [list(r) for r in p.rows], "flow": list(f)})
            for p, f in zip(pts, flows)
        ]
        _emit("\n".join(lines), args.out)
    return 0


def cmd_kostant(args) -> int:
    g = _load_network(args.network)
    b = _parse_ints(args.netflow) if args.netflow else None
    _emit(str(kostant(g, b)), args.out)
    return 0


def cmd_lidskii(args) -> int:
    g = _load_network(args.network)
    if args.what == "volume":
        _emit(str(lidskii_volume(g)), args.out)
    elif args.what == "points":
        _emit(str(lidskii_points_binomial(g)), args.out)
    else:
        _emit(str(lidskii_points_multiset(g)), args.out)
    return 0


def cmd_poset2flow(args) -> int:
    me = _load_embedding(args.embedding)
    dn = build_G_PAlambda(me)
    if args.format == "dot":
        _emit(dn.network.to_dot(), args.out)
    else:
        _emit(_dump_json(dn.network.to_json()), args.out)
    return 0


def cmd_skew(args) -> int:
    lam = as_partition(_parse_ints(args.lam))
    mu = as_partition(_parse_ints(args.mu))
    if args.what == "points":
        _emit(str(len(enumerate_skew_points(lam, mu, args.rows))), args.out)
        return 0
    dn = build_skew_flow(lam, mu, args.rows)
    if args.what == "network":
        _emit(_dump_json(dn.network.to_json()), args.out)
        return 0
    flows, points = kostant(dn.network), len(enumerate_skew_points(lam, mu, args.rows))
    if flows != points:
        _emit(f"check FAILED: {flows} flows != {points} points", args.out)
        return 1
    _emit(f"check OK: {flows} flows = {points} points", args.out)
    return 0


def cmd_subdivide(args) -> int:
    g = _load_network(args.network)
    if args.simplify:
        g, _, _ = simplify(g)
    tree = canonical_reduction_tree(g)
    if args.format == "dot":
        _emit(tree.to_dot(), args.out)
    else:
        data = tree.to_json()
        data["leaves"] = tree.leaves()
        data["total_volume"] = str(reduction_tree_volume(tree))
        _emit(_dump_json(data), args.out)
    return 0


def cmd_bijection(args) -> int:
    me = _load_embedding(args.embedding)
    gaps = _parse_ints(args.gaps)
    records = leaves_to_extensions(me, gaps)
    lines = [
        _dump_json_line(
            {
                "flow": list(r["flow"]),
                "extension": list(r["extension"]),
                "positions": list(r["positions"]),
            }
        )
        for r in records
    ]
    _emit("\n".join(lines) if lines else "", args.out)
    return 0


def cmd_verify(args) -> int:
    report = run_verify(args.scope, _parse_bounds(args.bounds or ""), args.seed)
    # streamed: the report's text is never held whole
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0 if report["pass"] else 1


def cmd_export(args) -> int:
    if args.network:
        g = _load_network(args.network)
        _emit(g.to_dot() if args.format == "dot" else _dump_json(g.to_json()), args.out)
    elif args.embedding:
        me = _load_embedding(args.embedding)
        if args.format == "dot":
            _emit(_embedding_dot(me), args.out)
        else:
            _emit(_dump_json(me.to_json()), args.out)
    else:
        raise ValueError("export needs --network or --embedding")
    return 0


def _embedding_dot(me: MarkedEmbedding) -> str:
    """Hasse diagram with the dual edges overlaid: each cover carries the
    crossing dual edge as an attribute."""
    dn = build_G_PAlambda(me)
    lines = ["digraph embedding {", "  rankdir=BT;"]
    lam = me.extended_marking
    for e in me.hat_poset.elements:
        mark = f" = {lam[e]}" if e in lam else ""
        lines.append(f'  "{e}" [label="{e}{mark}"];')
    for (p, q) in me.hat_poset.covers:
        i = dn.edge_of_cover[(p, q)]
        u, v = dn.network.edges[i]
        dual = f"{dn.network.name(u)}->{dn.network.name(v)}"
        lines.append(f'  "{p}" -> "{q}" [dual="{dual}"];')
    for v in range(dn.network.num_vertices):
        lines.append(
            f'  "{dn.network.name(v)}" [shape=box, style=dashed, '
            f'label="{dn.network.name(v)} ({dn.network.netflow[v]:+d})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="gtflow", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gt", help="Gelfand-Tsetlin formulas and bijections")
    p.add_argument("what", choices=["dim", "vol", "points", "bijection"])
    p.add_argument("partition", help="comma-separated weakly decreasing integers")
    p.add_argument("--method", choices=["product", "shsyt", "lidskii", "enumerate"])
    p.add_argument("--check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gt)

    p = sub.add_parser("kostant", help="Kostant partition function of a network")
    p.add_argument("--network", required=True)
    p.add_argument("--netflow", help="override netflow, comma-separated")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_kostant)

    p = sub.add_parser("lidskii", help="Lidskii volume / point count of a network")
    p.add_argument("--network", required=True)
    p.add_argument("--what", choices=["volume", "points", "points-multiset"], default="volume")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_lidskii)

    p = sub.add_parser("poset2flow", help="dual flow network of a marked embedding")
    p.add_argument("--embedding", required=True)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_poset2flow)

    p = sub.add_parser("skew", help="skew polytopes as flow networks")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("--rows", "-m", type=int, required=True, help="alphabet size m")
    p.add_argument("--what", choices=["points", "network", "check"], default="check")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_skew)

    p = sub.add_parser("subdivide", help="canonical compounded reduction tree")
    p.add_argument("--network", required=True)
    p.add_argument("--simplify", action="store_true", help="prune forced-zero edges first")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_subdivide)

    p = sub.add_parser("bijection", help="flows -> leaves -> linear extensions")
    p.add_argument("--embedding", required=True)
    p.add_argument("--gaps", required=True, help="comma-separated gap vector")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bijection)

    p = sub.add_parser("verify", help="run the identity suites")
    p.add_argument("--scope", choices=[*SCOPES, "all"], default="all")
    defaults = ",".join(f"{k}={v}" for k, v in DEFAULT_BOUNDS.items())
    p.add_argument("--bounds", help=f"comma-separated nonnegative ints; the defaults are {defaults}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("export", help="serialize objects as JSON or DOT")
    p.add_argument("--network")
    p.add_argument("--embedding")
    p.add_argument("--format", choices=["json", "dot"], default="dot")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_export)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # FlowError, PosetError and EmbeddingError included
        print(f"gtflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
