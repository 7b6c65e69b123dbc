"""Per-layer tracing of gtflow from outside the library.

A traced run rebinds each public function listed in TRACED to a timing
wrapper, in every gtflow module namespace that holds it (and
`Poset.with_relations` on the class).  Nothing under src/ changes and
untraced runs wrap nothing.

Library calls are aggregated per (function, caller) pair, where the caller
is the nearest enclosing wrapped function or benchmark step, so kernels
called millions of times per run use bounded memory.  Benchmark steps are
kept as full span records (name, start, end, parent, run id).  Self time is
a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import importlib
import sys
import time

# module -> public names wrapped in a traced run
TRACED = {
    "combinat": ("enumerate_compositions", "enumerate_shsyt", "count_N"),
    "flow": (
        "kostant",
        "enumerate_integer_flows",
        "lidskii_volume",
        "lidskii_points_binomial",
        "lidskii_points_multiset",
        "simplify",
    ),
    "gt": (
        "build_G_lambda",
        "gt_volume_lidskii",
        "gt_points_lidskii",
        "gt_volume_shsyt",
        "enumerate_gt_points",
    ),
    "poset": (
        "lattice_points",
        "enumerate_vertices",
        "check_minkowski",
        "marked_volume",
        "Poset.with_relations",
        "count_marked_extensions",
        "check_log_concavity",
    ),
    "transform": (
        "build_G_PAlambda",
        "gamma",
        "gamma_inverse",
        "build_skew_flow",
        "enumerate_skew_points",
    ),
    "subdivision": (
        "canonical_reduction_tree",
        "compound_reduce",
        "subdivide_with_extension",
        "full_subdivision_check",
        "leaves_to_extensions",
    ),
    "verify": (
        "verify_gt",
        "verify_bijection",
        "verify_flow",
        "verify_poset",
        "verify_transform",
        "verify_subdivision",
    ),
    "cli": ("main",),
    "corpus": ("networks", "embeddings", "posets"),
}

FUNCTIONS = tuple(f"{mod}.{name}" for mod, names in TRACED.items() for name in names)

def _items(result, args):
    return len(result)


# function -> {stat name: counter(result, args)}, beyond calls/self_s/errors
COUNTERS = {
    "combinat.enumerate_compositions": {"items": _items},
    "combinat.enumerate_shsyt": {"items": _items},
    "flow.kostant": {"nonzero": lambda r, a: int(r != 0)},
    "flow.enumerate_integer_flows": {"items": _items},
    "gt.enumerate_gt_points": {"items": _items},
    "poset.lattice_points": {"items": _items},
    "poset.enumerate_vertices": {
        "items": _items,
        # candidates tried: |marking values| ** |unmarked elements|
        "candidates": lambda r, a: len(set(a[0].marking.values()))
        ** (len(a[0].poset.elements) - len(a[0].marking)),
    },
    "transform.enumerate_skew_points": {"items": _items},
    "subdivision.canonical_reduction_tree": {"nodes": lambda r, a: len(r.nodes)},
    "subdivision.full_subdivision_check": {"cells": lambda r, a: r.cells},
    "subdivision.leaves_to_extensions": {"items": _items},
    "verify.verify_gt": {"items": _items},
    "verify.verify_bijection": {"items": _items},
    "verify.verify_flow": {"items": _items},
    "verify.verify_poset": {"items": _items},
    "verify.verify_transform": {"items": _items},
    "verify.verify_subdivision": {"items": _items},
    "corpus.networks": {"items": _items},
    "corpus.embeddings": {"items": _items},
    "corpus.posets": {"items": _items},
}

COUNT_STATS = ("calls", "items", "nodes", "cells", "nonzero", "candidates", "errors")
REPORTED_COUNTS = ("items", "nodes", "cells")  # per-function counts reported as metrics
RATIOS = (
    "flow.lidskii.kostant_calls_per_call",
    "gt.lidskii.kostant_calls_per_call",
    "flow.kostant.nonzero_frac",
    "poset.enumerate_vertices.yield",
    "trace.overhead_frac",  # filled in by run.py from traced and untraced walls
)


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for stat in COUNTERS.get(name, {}):
            if stat in REPORTED_COUNTS:
                units[f"{name}.{stat}"] = "count"
    units["trace.errors"] = "count"
    units.update({ratio: "ratio" for ratio in RATIOS})
    return units


PER_LAYER_UNITS = _per_layer_units()


class Tracer:
    """Span recorder.  `install()` wraps the library for the rest of the
    process; `step()` opens a benchmark-level span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stack: list[list] = []  # active frames: [name, child_s, span_index]
        self.stats: dict[tuple[str, str | None], dict[str, float]] = {}
        self.spans: list[dict] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack = self.stack
        stats = self.stats
        clock = time.perf_counter
        counters = tuple(COUNTERS.get(name, {}).items())

        def wrapper(*args, **kwargs):
            caller = stack[-1] if stack else None
            frame = [name, 0.0, None]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if caller is not None:
                    caller[1] += elapsed
                key = (name, caller[0] if caller is not None else None)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}
                rec["calls"] += 1
                rec["total_s"] += elapsed
                rec["self_s"] += elapsed - frame[1]
                if ok:
                    for stat, count in counters:
                        rec[stat] = rec.get(stat, 0) + count(result, args)
                else:
                    rec["errors"] += 1

        return wrapper

    def install(self) -> None:
        modules = {m: importlib.import_module(f"gtflow.{m}") for m in TRACED}
        namespaces = [m for k, m in sys.modules.items() if k == "gtflow" or k.startswith("gtflow.")]
        for mod_name, names in TRACED.items():
            mod = modules[mod_name]
            for attr in names:
                qualified = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(qualified, cls.__dict__[meth]))
                    continue
                original = getattr(mod, attr)
                wrapped = self._wrap(qualified, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapped)

    # -- benchmark steps --------------------------------------------------

    def step(self, name: str, reanchor: str | None = None):
        return _StepSpan(self, name, reanchor)

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Stats per wrapped function, summed over callers."""
        totals: dict[str, dict[str, float]] = {f: {} for f in FUNCTIONS}
        for (name, _caller), rec in self.stats.items():
            acc = totals[name]
            for stat, value in rec.items():
                acc[stat] = acc.get(stat, 0) + value
        return totals

    def callers(self) -> list[dict]:
        return [
            {"function": name, "caller": caller, **rec}
            for (name, caller), rec in sorted(self.stats.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
        ]


class _StepSpan:
    def __init__(self, tracer: Tracer, name: str, reanchor: str | None):
        self.tracer = tracer
        self.name = name
        self.reanchor = reanchor

    def __enter__(self):
        t = self.tracer
        parent = t.stack[-1][2] if t.stack else None
        self.index = len(t.spans)
        t.spans.append(
            {"name": self.name, "run_id": t.run_id, "parent": parent, "reanchor": self.reanchor}
        )
        self.frame = [f"step:{self.name}", 0.0, self.index]
        t.stack.append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t.stack.pop()
        if t.stack:
            t.stack[-1][1] += end - self.start
        span = t.spans[self.index]
        span["start"] = self.start
        span["end"] = end
        span["self_s"] = end - self.start - self.frame[1]
        return False


def per_layer_metrics(totals: dict[str, dict[str, float]], stats: dict) -> dict[str, float]:
    """Flatten per-function totals into `<module>.<function>.<stat>` metrics
    and add the ratios computed from outside.  `stats` is the raw
    (function, caller) aggregation, needed for the per-caller ratios."""
    out: dict[str, float] = {}
    for name in FUNCTIONS:
        rec = totals.get(name, {})
        out[f"{name}.calls"] = rec.get("calls", 0)
        out[f"{name}.self_s"] = rec.get("self_s", 0.0)
        for stat in COUNTERS.get(name, {}):
            if stat in REPORTED_COUNTS:
                out[f"{name}.{stat}"] = rec.get(stat, 0)
    errors = sum(rec.get("errors", 0) for rec in totals.values())
    out["trace.errors"] = errors

    def child_calls(child: str, parents: tuple[str, ...]) -> int:
        return sum(
            rec["calls"] for (name, caller), rec in stats.items() if name == child and caller in parents
        )

    def ratio(num, den):
        return num / den if den else 0.0

    flow_lidskii = ("flow.lidskii_volume", "flow.lidskii_points_binomial", "flow.lidskii_points_multiset")
    gt_lidskii = ("gt.gt_volume_lidskii", "gt.gt_points_lidskii")
    out["flow.lidskii.kostant_calls_per_call"] = ratio(
        child_calls("flow.kostant", flow_lidskii),
        sum(totals[f].get("calls", 0) for f in flow_lidskii),
    )
    out["gt.lidskii.kostant_calls_per_call"] = ratio(
        child_calls("flow.kostant", gt_lidskii),
        sum(totals[f].get("calls", 0) for f in gt_lidskii),
    )
    kostant = totals["flow.kostant"]
    out["flow.kostant.nonzero_frac"] = ratio(kostant.get("nonzero", 0), kostant.get("calls", 0))
    verts = totals["poset.enumerate_vertices"]
    out["poset.enumerate_vertices.yield"] = ratio(verts.get("items", 0), verts.get("candidates", 0))
    return out
