import json

import pytest

from gtflow import cli, corpus, transform
from gtflow.cli import _GT_METHODS, main
from gtflow.flow import FlowNetwork
from gtflow.gt import gt_embedding
from gtflow.poset import MarkedPoset, PosetError
from gtflow.transform import MarkedEmbedding


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gt_dim_vol_points(capsys):
    assert run(capsys, "gt", "dim", "2,1,0") == (0, "8\n")
    assert run(capsys, "gt", "vol", "2,1,0", "--method", "shsyt") == (0, "1\n")
    assert run(capsys, "gt", "vol", "3,1,0", "--method", "lidskii") == (0, "3\n")
    assert run(capsys, "gt", "points", "2,1,0", "--method", "enumerate") == (0, "8\n")
    code, out = run(capsys, "gt", "vol", "1,0")
    assert code == 0 and out == "1\n"


def test_gt_bijection_check(capsys):
    code, out = run(capsys, "gt", "bijection", "2,1,0", "--check")
    assert code == 0
    assert "OK" in out and "8" in out


def test_kostant_and_lidskii(tmp_path, capsys):
    g = FlowNetwork.make(3, [(0, 1), (1, 2), (0, 2)], (1, 0, -1))
    f = tmp_path / "tri.network.json"
    f.write_text(json.dumps(g.to_json()))
    assert run(capsys, "kostant", "--network", str(f)) == (0, "2\n")
    assert run(capsys, "kostant", "--network", str(f), "--netflow", "2,0,-2") == (0, "3\n")
    assert run(capsys, "lidskii", "--network", str(f), "--what", "volume") == (0, "1\n")
    assert run(capsys, "lidskii", "--network", str(f), "--what", "points") == (0, "2\n")


def test_poset2flow_round_trip(tmp_path, capsys):
    me = gt_embedding((2, 1, 0))
    f = tmp_path / "gt.embedding.json"
    f.write_text(json.dumps(me.to_json()))
    code, out = run(capsys, "poset2flow", "--embedding", str(f))
    assert code == 0
    net = FlowNetwork.from_json(json.loads(out))
    assert sum(net.netflow) == 0
    # determinism: a second run is byte-identical
    code2, out2 = run(capsys, "poset2flow", "--embedding", str(f))
    assert out2 == out


def test_embedding_json_round_trip():
    for name, me in corpus.embeddings():
        again = MarkedEmbedding.from_json(json.loads(json.dumps(me.to_json())))
        assert again == me, name
    # a file without face ids numbers its faces
    data = gt_embedding((1, 0)).to_json()
    for f in data["faces"]:
        del f["id"]
    assert MarkedEmbedding.from_json(data).face_ids == ("F0", "F1")


def test_skew_check(capsys):
    code, out = run(capsys, "skew", "2,1", "1,0", "--rows", "3")
    assert code == 0 and "check OK" in out
    code, out = run(capsys, "skew", "2,1", "1,0", "--rows", "3", "--what", "points")
    assert code == 0


def test_a_skew_count_mismatch_fails_the_check_with_exit_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "kostant", lambda g: 10)
    assert run(capsys, "skew", "2,1", "1,0", "--rows", "3") == (1, "check FAILED: 10 flows != 9 points\n")


def test_a_skew_network_enumerates_no_point(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerate_skew_points called")

    monkeypatch.setattr(cli, "enumerate_skew_points", refuse)
    monkeypatch.setattr(transform, "enumerate_skew_points", refuse)
    code, out = run(capsys, "skew", "2,1", "1,0", "--rows", "3", "--what", "network")
    assert code == 0 and FlowNetwork.from_json(json.loads(out)).num_vertices > 0


def test_bad_skew_input_gives_one_line_and_exit_2(capsys):
    # no rows between mu and lam, or a mu longer than lam, is bad input for
    # every --what, the point count included
    for argv in (("2,1", "1,0", "--rows", "0"), ("2,1", "1,0", "--rows", "-1"), ("1", "1,1", "--rows", "2")):
        for what in ("points", "network", "check"):
            assert main(["skew", *argv, "--what", what]) == 2, (argv, what)
            err = capsys.readouterr().err
            assert err.startswith("gtflow: ") and err.count("\n") == 1, (argv, what)
    # a mu not inside lam columnwise is an empty polytope: it has 0 points
    assert run(capsys, "skew", "1,0", "2,0", "--rows", "2", "--what", "points") == (0, "0\n")


def test_subdivide_json(tmp_path, capsys):
    g = FlowNetwork.make(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)], (1, 0, 0, -1))
    f = tmp_path / "net.json"
    f.write_text(json.dumps(g.to_json()))
    code, out = run(capsys, "subdivide", "--network", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["leaves"]
    code, dot = run(capsys, "subdivide", "--network", str(f), "--format", "dot")
    assert dot.startswith("digraph")


def test_bijection_cli(tmp_path, capsys):
    me = gt_embedding((2, 1, 0))
    f = tmp_path / "gt.embedding.json"
    f.write_text(json.dumps(me.to_json()))
    code, out = run(capsys, "bijection", "--embedding", str(f), "--gaps", "2,1")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines() if l]
    for rec in lines:
        assert rec["positions"] == [1, 4, 6]


def test_verify_cli(capsys):
    code, out = run(capsys, "verify", "--scope", "flow", "--bounds", "tmax=1")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(r["pass"] for r in report["results"])


def test_subdivide_dual_network_after_simplify(tmp_path, capsys):
    # pipeline: embedding -> dual network JSON -> simplified reduction tree
    me = gt_embedding((2, 1, 0))
    fe = tmp_path / "gt.embedding.json"
    fe.write_text(json.dumps(me.to_json()))
    code, out = run(capsys, "poset2flow", "--embedding", str(fe))
    fn = tmp_path / "dual.json"
    fn.write_text(out)
    code, out = run(capsys, "subdivide", "--network", str(fn), "--simplify")
    assert code == 0
    data = json.loads(out)
    assert data["total_volume"] == "1"


def test_gt_bijection_listing(capsys):
    code, out = run(capsys, "gt", "bijection", "1,0")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 2
    assert all("pattern" in rec and "flow" in rec for rec in lines)


def test_export_dot(tmp_path, capsys):
    g = FlowNetwork.make(3, [(0, 1), (1, 2), (0, 2)], (1, 0, -1))
    f = tmp_path / "net.json"
    f.write_text(json.dumps(g.to_json()))
    code, out = run(capsys, "export", "--network", str(f), "--format", "dot")
    assert code == 0 and out.startswith("digraph")
    me = gt_embedding((1, 0))
    fe = tmp_path / "e.json"
    fe.write_text(json.dumps(me.to_json()))
    code, out = run(capsys, "export", "--embedding", str(fe), "--format", "dot")
    assert code == 0 and "dual=" in out


def test_network_json_round_trip_via_files(tmp_path, capsys):
    g = FlowNetwork.make(3, [(0, 1), (0, 1), (1, 2)], (2, 0, -2), names=["s", "m", "t"])
    f = tmp_path / "net.json"
    f.write_text(json.dumps(g.to_json()))
    code, out = run(capsys, "export", "--network", str(f), "--format", "json")
    assert FlowNetwork.from_json(json.loads(out)) == g


def test_bad_input_gives_one_line_and_exit_2(tmp_path, capsys):
    def fails(*argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        return code == 2 and err.startswith("gtflow: ") and err.count("\n") == 1

    assert fails("gt", "dim", "1,2,3")
    f = tmp_path / "bad.network.json"
    f.write_text(json.dumps({"n": 2, "edges": [[1, 0]], "netflow": [1, -1]}))
    assert fails("kostant", "--network", str(f))
    f.write_text("{not json")
    assert fails("lidskii", "--network", str(f))


def test_missing_json_keys_give_one_line_and_exit_2(tmp_path, capsys):
    f = tmp_path / "empty.network.json"
    f.write_text("{}")
    assert main(["kostant", "--network", str(f)]) == 2
    assert capsys.readouterr().err == "gtflow: network JSON has no 'n' key\n"
    data = gt_embedding((2, 1, 0)).to_json()
    del data["faces"]
    fe = tmp_path / "nofaces.embedding.json"
    fe.write_text(json.dumps(data))
    assert main(["poset2flow", "--embedding", str(fe)]) == 2
    assert capsys.readouterr().err == "gtflow: embedding JSON has no 'faces' key\n"


def test_gt_method_not_offered_gives_one_line_and_exit_2(capsys):
    assert main(["gt", "vol", "2,1,0", "--method", "enumerate"]) == 2
    assert capsys.readouterr().err == (
        "gtflow: gt vol has no method 'enumerate'; choose from product, shsyt, lidskii\n"
    )
    assert main(["gt", "points", "2,1,0", "--method", "shsyt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gtflow: gt points has no method 'shsyt'; choose from product, lidskii, enumerate\n"
    assert main(["gt", "dim", "2,1,0", "--method", "lidskii"]) == 2
    assert capsys.readouterr().err == "gtflow: gt dim takes no --method\n"


def test_json_values_of_the_wrong_shape_give_one_line_and_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.network.json"
    f.write_text(json.dumps({"n": 2, "edges": [5], "netflow": [1, -1]}))
    assert main(["kostant", "--network", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gtflow: network JSON has a value of the wrong shape") and err.count("\n") == 1
    data = gt_embedding((2, 1, 0)).to_json()
    data["hat_values"] = ["0"]
    fe = tmp_path / "hat.embedding.json"
    fe.write_text(json.dumps(data))
    assert main(["poset2flow", "--embedding", str(fe)]) == 2
    assert capsys.readouterr().err == "gtflow: embedding JSON 'hat_values' must be a list of two values\n"
    data = gt_embedding((2, 1, 0)).to_json()
    data["faces"][0]["left"] = 5
    fe.write_text(json.dumps(data))
    assert main(["poset2flow", "--embedding", str(fe)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gtflow: embedding JSON has a value of the wrong shape") and err.count("\n") == 1
    data = gt_embedding((2, 1, 0)).to_json()
    data["poset"]["marked"] = sorted(data["poset"]["marked"])
    fe.write_text(json.dumps(data))
    for cmd in ("poset2flow", "export"):
        assert main([cmd, "--embedding", str(fe)]) == 2
        assert capsys.readouterr().err == "gtflow: poset JSON 'marked' must be an object\n"


def test_an_invalid_embedding_is_rejected_wherever_it_is_made(tmp_path, capsys):
    # a marking that is not order-preserving: every route that makes the
    # embedding rejects it, and both commands that read one exit 2 alike
    me = dict(corpus.embeddings())["chain3"]
    data = me.to_json()
    data["poset"]["marked"] = {"a": "3", "c": "0"}
    message = "marking not order-preserving: a<c but 3>0"
    with pytest.raises(PosetError, match=message):
        MarkedEmbedding.make(MarkedPoset.from_json(data["poset"]), me.faces, me.flags, me.face_ids)
    with pytest.raises(PosetError, match=message):
        MarkedEmbedding.from_json(data)
    fe = tmp_path / "decreasing.embedding.json"
    fe.write_text(json.dumps(data))
    for argv in (["export", "--embedding", str(fe)], ["poset2flow", "--embedding", str(fe)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"gtflow: {message}\n")


GT_ROUTES = [("dim", None), ("bijection", None)]
GT_ROUTES += [(what, method) for what, methods in _GT_METHODS.items() for method in (None, *methods)]


@pytest.mark.parametrize("what, method", GT_ROUTES)
def test_an_empty_partition_gives_one_line_and_exit_2(capsys, what, method):
    argv = ["gt", what, ""] + (["--method", method] if method else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "gtflow: gt needs a partition with at least one part\n")


def test_reserved_hat_id_in_an_embedding_gives_one_line_and_exit_2(tmp_path, capsys):
    data = {
        "poset": {"elements": ["0hat", "a"], "covers": [["0hat", "a"]], "marked": {"0hat": "0", "a": "1"}},
        "faces": [
            {"left": ["1hat", "0hat"], "right": ["1hat", "a", "0hat"]},
            {"left": ["1hat", "a", "0hat"], "right": ["1hat", "0hat"]},
        ],
    }
    fe = tmp_path / "reserved.embedding.json"
    fe.write_text(json.dumps(data))
    assert main(["poset2flow", "--embedding", str(fe)]) == 2
    assert capsys.readouterr().err == "gtflow: element ids 0hat/1hat are reserved\n"


def test_unreadable_input_file_gives_one_line_and_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.network.json"
    assert main(["kostant", "--network", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gtflow: ") and str(missing) in err and err.count("\n") == 1


def test_unwritable_output_file_gives_one_line_and_exit_2(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "dim.txt"
    assert main(["gt", "dim", "2,1,0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gtflow: ") and str(out) in err and err.count("\n") == 1


def test_unknown_bound_gives_one_line_and_exit_2(capsys):
    assert main(["verify", "--bounds", "n=2,q=2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "gtflow: --bounds item 'q=2': no bound 'q'; choose from n, lmax, bmax, tmax, mmax, trials, amax\n"
    )


def test_malformed_bound_gives_one_line_and_exit_2(capsys):
    for item in ("n", "n=two"):
        assert main(["verify", "--bounds", item]) == 2
        assert capsys.readouterr().err == f"gtflow: --bounds item {item!r} is not n=<integer>\n"


def test_negative_bound_gives_one_line_and_exit_2(capsys):
    assert main(["verify", "--scope", "gt", "--bounds", "n=-1"]) == 2
    assert capsys.readouterr().err == "gtflow: --bounds item 'n=-1' is negative\n"


def test_unknown_face_flag_gives_one_line_and_exit_2(tmp_path, capsys):
    data = gt_embedding((2, 1, 0)).to_json()
    data["faces"][0]["flag"] = "Q"
    fe = tmp_path / "flag.embedding.json"
    fe.write_text(json.dumps(data))
    assert main(["poset2flow", "--embedding", str(fe)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gtflow: need one flag per face, each 'L' or 'R'") and err.count("\n") == 1
    # a face id that is not a string is bad input before anything hashes it
    data = gt_embedding((2, 1, 0)).to_json()
    data["faces"][0]["id"] = ["x"]
    fe.write_text(json.dumps(data))
    assert main(["bijection", "--embedding", str(fe), "--gaps", "2,1"]) == 2
    assert capsys.readouterr().err == "gtflow: embedding face 'id' and 'flag' must be strings\n"


def test_subdivide_simplify_with_edge_orders_on_one_side(tmp_path, capsys):
    # a whisker (0, 2) that simplify prunes, and orders on one side only
    data = {"n": 4, "edges": [[0, 2], [1, 2], [1, 3], [2, 3]], "netflow": [0, 1, 0, -1]}
    f = tmp_path / "net.json"
    results = []
    for side, orders in (("in_orders", [[], [], [1, 0], [3, 2]]), ("out_orders", [[0], [2, 1], [3], []])):
        f.write_text(json.dumps({**data, side: orders}))
        code, out = run(capsys, "subdivide", "--network", str(f), "--simplify")
        assert code == 0, side
        results.append(json.loads(out))
    assert [r["total_volume"] for r in results] == ["1", "1"]
    root = [r["nodes"][0]["network"] for r in results]
    assert root[0]["in_orders"] == [[], [0], [2, 1]] and "out_orders" not in root[0]
    assert root[1]["out_orders"] == [[1, 0], [2], []] and "in_orders" not in root[1]


def test_export_names_its_two_inputs(capsys):
    assert main(["export"]) == 2
    assert capsys.readouterr().err == "gtflow: export needs --network or --embedding\n"


def test_bijection_on_a_right_flagged_embedding_gives_one_line_and_exit_2(tmp_path, capsys):
    fe = tmp_path / "skew.embedding.json"
    fe.write_text(json.dumps(dict(corpus.embeddings())["skew-21-10"].to_json()))
    assert main(["bijection", "--embedding", str(fe), "--gaps", "1,1,2"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "gtflow: flags RLRL: the check runs on left-flagged embeddings\n")
