"""The identity harness: its record families and the bounds it reads."""

import json
from collections import Counter

import pytest

from gtflow import cli, corpus, verify

PROMOTED = (
    "gt/pts:weyl=ssyt",
    "subdivision/interior-disjoint",
    "subdivision/face-extensions=binomial",
    "subdivision/trees=face-extensions",
)
FACE_FAMILIES = PROMOTED[2:]


def test_promoted_families_run_and_pass_at_default_bounds():
    report = verify.run_verify("all")
    records = [r for r in report["results"] if r["identity"] in PROMOTED]
    counts = Counter(r["identity"] for r in records)
    # one record per partition, per corpus network, and per inner face (15:
    # the 14 of the other embeddings and F of marked-interior-mirror)
    assert counts == {PROMOTED[0]: 34, PROMOTED[1]: 22, PROMOTED[2]: 15, PROMOTED[3]: 15}
    assert all(r["pass"] for r in records)
    assert report["pass"]


def test_a_dropped_face_extension_fails_both_face_families(monkeypatch):
    real = verify.face_extensions
    monkeypatch.setattr(verify, "face_extensions", lambda face: real(face)[:-1])
    records = [r for r in verify.run_verify("subdivision")["results"] if r["identity"] in FACE_FAMILIES]
    assert Counter(r["identity"] for r in records) == {FACE_FAMILIES[0]: 15, FACE_FAMILIES[1]: 15}
    assert not any(r["pass"] for r in records)


def test_an_unknown_scope_is_rejected(capsys):
    with pytest.raises(ValueError, match="no verify scope 'subdivisions'"):
        verify.run_verify("subdivisions")
    with pytest.raises(SystemExit):
        cli.main(["verify", "--scope", "subdivisions"])
    err = capsys.readouterr().err
    assert "--scope" in err and "subdivisions" in err


def test_run_verify_reads_its_defaults_from_default_bounds(monkeypatch):
    monkeypatch.setitem(verify.DEFAULT_BOUNDS, "n", 2)
    monkeypatch.setitem(verify.DEFAULT_BOUNDS, "lmax", 1)
    records = verify.run_verify("gt")["results"]
    instances = {r["instance"] for r in records if r["identity"] == "gt/pts:weyl=ssyt"}
    assert instances == {"(0,)", "(1,)", "(0, 0)", "(1, 0)", "(1, 1)"}


def test_an_exported_builtin_corpus_gives_the_same_report(tmp_path, monkeypatch):
    builtin = json.dumps(verify.run_verify("all"), sort_keys=True)
    for kind, load in (("network", corpus.networks), ("embedding", corpus.embeddings), ("poset", corpus.posets)):
        for name, fixture in load():
            (tmp_path / f"{name}.{kind}.json").write_text(json.dumps(fixture.to_json()))
    loaders = (corpus.networks, corpus.embeddings, corpus.posets)
    monkeypatch.setenv(corpus.CORPUS_ENV, str(tmp_path))
    try:
        for load in loaders:
            load.cache_clear()
        assert json.dumps(verify.run_verify("all"), sort_keys=True) == builtin
    finally:
        for load in loaders:
            load.cache_clear()
