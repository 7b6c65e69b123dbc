"""Fixture corpus: flow networks, marked embeddings, and plain posets used
by the verification harness and the acceptance suite.

All fixtures are generated deterministically.  Setting GTFLOW_CORPUS to a
directory of JSON files (*.network.json, *.embedding.json, *.poset.json)
replaces the built-in corpus.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from pathlib import Path

from .flow import FlowNetwork
from .gt import gt_embedding
from .poset import BOTTOM, TOP, MarkedPoset, Poset
from .transform import SENTINEL, Face, MarkedEmbedding, build_skew_gt

CORPUS_ENV = "GTFLOW_CORPUS"


def _builtin_networks() -> list[tuple[str, FlowNetwork]]:
    mk = FlowNetwork.make
    nets = [
        ("triangle", mk(3, [(0, 1), (1, 2), (0, 2)], (1, 0, -1))),
        ("triangle-x2", mk(3, [(0, 1), (1, 2), (0, 2)], (2, 0, -2))),
        ("path3", mk(3, [(0, 1), (1, 2)], (1, 0, -1))),
        ("path3-x2", mk(3, [(0, 1), (1, 2)], (2, 0, -2))),
        ("path5", mk(5, [(0, 1), (1, 2), (2, 3), (3, 4)], (1, 0, 0, 0, -1))),
        ("bundle2", mk(2, [(0, 1), (0, 1)], (1, -1))),
        ("bundle3", mk(2, [(0, 1), (0, 1), (0, 1)], (2, -2))),
        ("diamond", mk(4, [(0, 1), (0, 2), (1, 3), (2, 3)], (1, 0, 0, -1))),
        ("diamond-chord", mk(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], (1, 0, 0, -1))),
        ("diamond-chord-x2", mk(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], (2, 0, 0, -2))),
        ("double-rail", mk(3, [(0, 1), (0, 1), (1, 2), (1, 2)], (2, 0, -2))),
        ("zigzag-parallel", mk(3, [(0, 1), (0, 1), (1, 2), (0, 2)], (1, 0, -1))),
        ("two-source-fan", mk(4, [(0, 2), (1, 2), (2, 3), (2, 3)], (1, 1, 0, -2))),
        ("two-source-grid", mk(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (1, 2, 0, -3))),
        ("k4", mk(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (1, 0, 0, -1))),
        ("k4-x2", mk(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (2, 0, 0, -2))),
        ("cry5", mk(5, [(i, j) for i in range(5) for j in range(i + 1, 5)], (1, 0, 0, 0, -1))),
        ("layer5", mk(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4), (0, 4)], (2, 0, 0, 0, -2))),
        ("braid6", mk(6, [(0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)], (1, 1, 0, 0, 0, -2))),
        ("multi6", mk(6, [(0, 1), (0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5), (4, 5)], (2, 0, 0, 0, 0, -2))),
        ("wide-star", mk(4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)], (3, 0, 0, -3))),
        ("skewpath5", mk(5, [(0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 4)], (2, 0, 0, 0, -2))),
    ]
    return nets


def _stacked_diamonds() -> MarkedEmbedding:
    p = Poset.from_covers(
        ["a", "x", "y", "b", "z", "w", "c"],
        [
            ("a", "x"), ("a", "y"), ("x", "b"), ("y", "b"),
            ("b", "z"), ("b", "w"), ("z", "c"), ("w", "c"),
        ],
    )
    mp = MarkedPoset.make(p, {"a": 0, "b": 1, "c": 3})
    faces = [
        Face.make(SENTINEL, [TOP, "c", "z", "b", "x", "a", BOTTOM]),
        Face.make(["b", "x", "a"], ["b", "y", "a"]),
        Face.make(["c", "z", "b"], ["c", "w", "b"]),
        Face.make([TOP, "c", "w", "b", "y", "a", BOTTOM], SENTINEL),
    ]
    return MarkedEmbedding.make(mp, faces, face_ids=("Ft", "D1", "D2", "Fs"))


def _chain_embedding(names, marking) -> MarkedEmbedding:
    covers = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    mp = MarkedPoset.make(Poset.from_covers(names, covers), marking)
    chain = [TOP] + list(reversed(names)) + [BOTTOM]
    faces = [Face.make(SENTINEL, chain), Face.make(chain, SENTINEL)]
    return MarkedEmbedding.make(mp, faces, face_ids=("Ft", "Fs"))


def _diamond_embedding(marking) -> MarkedEmbedding:
    p = Poset.from_covers(
        ["a", "c", "x", "y"], [("a", "x"), ("a", "y"), ("x", "c"), ("y", "c")]
    )
    mp = MarkedPoset.make(p, marking)
    faces = [
        Face.make(SENTINEL, [TOP, "c", "x", "a", BOTTOM]),
        Face.make(["c", "x", "a"], ["c", "y", "a"]),
        Face.make([TOP, "c", "y", "a", BOTTOM], SENTINEL),
    ]
    return MarkedEmbedding.make(mp, faces, face_ids=("Ft", "Fmid", "Fs"))


def _marked_interior_face(mirror=False) -> MarkedEmbedding:
    """The square a < b, d < c marked at a, b, c, with the marked b inside
    F's flagged chain: its left chain, or in the mirror, with F flagged R,
    its right chain, which makes F a source remnant."""
    p = Poset.from_covers(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")]
    )
    mp = MarkedPoset.make(p, {"a": 0, "b": 1, "c": 3})
    left, right = ("d", "b") if mirror else ("b", "d")
    faces = [
        Face.make(SENTINEL, [TOP, "c", left, "a", BOTTOM]),
        Face.make(["c", left, "a"], ["c", right, "a"]),
        Face.make([TOP, "c", right, "a", BOTTOM], SENTINEL),
    ]
    return MarkedEmbedding.make(mp, faces, ("L", "R" if mirror else "L", "L"), ("Ft", "F", "Fs"))


def _three_arms() -> MarkedEmbedding:
    p = Poset.from_covers(
        ["a", "x", "p", "y", "c"],
        [("a", "x"), ("a", "p"), ("a", "y"), ("x", "c"), ("p", "c"), ("y", "c")],
    )
    mp = MarkedPoset.make(p, {"a": 0, "c": 3, "p": 1})
    faces = [
        Face.make(SENTINEL, [TOP, "c", "x", "a", BOTTOM]),
        Face.make(["c", "x", "a"], ["c", "y", "a"]),
        Face.make(["c", "y", "a"], ["c", "p", "a"]),
        Face.make([TOP, "c", "p", "a", BOTTOM], SENTINEL),
    ]
    return MarkedEmbedding.make(mp, faces, face_ids=("Ft", "F1", "F2", "Fs"))


def _n_poset_full() -> MarkedEmbedding:
    p = Poset.from_covers(
        ["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")]
    )
    mp = MarkedPoset.make(p, {"a": 0, "b": 0, "c": 2, "d": 1})
    faces = [
        Face.make(SENTINEL, [TOP, "c", "a", BOTTOM]),
        Face.make(["c", "a", BOTTOM], ["c", "b", BOTTOM]),
        Face.make([TOP, "c", "b"], [TOP, "d", "b"]),
        Face.make([TOP, "d", "b", BOTTOM], SENTINEL),
    ]
    return MarkedEmbedding.make(mp, faces, face_ids=("Ft", "F1", "F2", "Fs"))


def _builtin_embeddings() -> list[tuple[str, MarkedEmbedding]]:
    return [
        ("gt-1-0", gt_embedding((1, 0))),
        ("gt-2-1-0", gt_embedding((2, 1, 0))),
        ("gt-3-1-0", gt_embedding((3, 1, 0))),
        ("gt-2-2-0", gt_embedding((2, 2, 0))),
        ("chain3", _chain_embedding(["a", "m", "c"], {"a": 0, "c": 3})),
        ("chain4", _chain_embedding(["a", "m1", "m2", "c"], {"a": 0, "c": 4})),
        ("diamond", _diamond_embedding({"a": 0, "c": 3})),
        ("diamond-marked-arm", _diamond_embedding({"a": 0, "c": 4, "y": 2})),
        ("three-arms", _three_arms()),
        ("marked-interior", _marked_interior_face()),
        ("marked-interior-mirror", _marked_interior_face(mirror=True)),
        ("n-poset-full", _n_poset_full()),
        ("stacked-diamonds", _stacked_diamonds()),
        ("skew-21-10", build_skew_gt((2, 1), (1, 0), 3)),
    ]


def _builtin_posets() -> list[tuple[str, Poset]]:
    mk = Poset.from_covers
    return [
        ("single", mk(["a"], [])),
        ("chain2", mk(["a", "b"], [("a", "b")])),
        ("chain3", mk(["a", "b", "c"], [("a", "b"), ("b", "c")])),
        ("chain4", mk(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])),
        ("antichain2", mk(["a", "b"], [])),
        ("antichain3", mk(["a", "b", "c"], [])),
        ("vee", mk(["a", "b", "c"], [("a", "b"), ("a", "c")])),
        ("wedge", mk(["a", "b", "c"], [("a", "c"), ("b", "c")])),
        ("diamond", mk(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])),
        ("n-poset", mk(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("b", "d")])),
        ("fence5", mk(["a", "b", "c", "d", "e"], [("a", "b"), ("c", "b"), ("c", "d"), ("e", "d")])),
        (
            "double-diamond",
            mk(
                ["a", "x", "y", "b", "z", "w", "c"],
                [
                    ("a", "x"), ("a", "y"), ("x", "b"), ("y", "b"),
                    ("b", "z"), ("b", "w"), ("z", "c"), ("w", "c"),
                ],
            ),
        ),
        ("chain-plus-point", mk(["a", "b", "c", "z"], [("a", "b"), ("b", "c")])),
    ]


def _load(kind: str, from_json, builtin) -> tuple:
    """(name, fixture) for each <name>.{kind}.json file of the GTFLOW_CORPUS
    directory, or the built-in fixtures if it is not set."""
    d = os.environ.get(CORPUS_ENV)
    if not d:
        return tuple(builtin())
    suffix = f".{kind}.json"
    paths = sorted(Path(d).glob(f"*{suffix}"))
    return tuple((path.name[: -len(suffix)], from_json(json.loads(path.read_text()))) for path in paths)


@lru_cache(maxsize=None)
def networks() -> tuple[tuple[str, FlowNetwork], ...]:
    return _load("network", FlowNetwork.from_json, _builtin_networks)


@lru_cache(maxsize=None)
def embeddings() -> tuple[tuple[str, MarkedEmbedding], ...]:
    return _load("embedding", MarkedEmbedding.from_json, _builtin_embeddings)


@lru_cache(maxsize=None)
def posets() -> tuple[tuple[str, Poset], ...]:
    return _load("poset", Poset.from_json, _builtin_posets)

