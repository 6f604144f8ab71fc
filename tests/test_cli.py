"""End-to-end runs of the command line entry point."""

import json
import random
import time

import pytest

from flagstone import (
    Graph,
    dump_edge_list,
    dump_graph6,
    euler_characteristic,
    f_vector,
    gen_cycle,
    gen_grid_torus,
    gen_join_of_cycles,
    gen_suspension_sphere,
    h_vector,
    parse_facet_list,
)
from flagstone.cli import main
from flagstone.complexes import VERTEX_LIMIT
from helpers import random_graph


def test_gen_edgelist(capsys):
    assert main(["gen", "cycle", "5"]) == 0
    assert capsys.readouterr().out == dump_edge_list(gen_cycle(5))


def test_gen_graph6(capsys):
    assert main(["gen", "join_of_cycles", "2", "10", "--format", "graph6"]) == 0
    assert capsys.readouterr().out == "Ihf~~vx~G\n"


def test_gen_comma_params(capsys):
    assert main(["gen", "complete_multipartite", "2,2,2"]) == 0
    head = capsys.readouterr().out.splitlines()[0]
    assert head == "6 12"


def test_gen_usage_errors(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["gen", "moebius", "5"])
    assert ei.value.code == 2
    assert main(["gen", "cycle", "five"]) == 2
    assert main(["gen", "cycle", "5", "7"]) == 2
    assert main(["gen", "cycle", "2"]) == 2  # too short for a cycle
    err = capsys.readouterr().err
    assert "error:" in err
    # the vertex counts these imply are over the limit, but the parameters are wrong first
    assert main(["gen", "grid_torus", "-300", "-300"]) == 2
    assert main(["gen", "complete_multipartite", "0,70000"]) == 2
    err = capsys.readouterr().err
    assert "torus grid needs p, q >= 4" in err and "all sizes >= 1" in err
    assert "vertex limit" not in err


@pytest.mark.parametrize(
    "family,params",
    [
        ("cycle", [str(VERTEX_LIMIT + 1)]),
        ("independent", [str(VERTEX_LIMIT + 1)]),
        ("complete_multipartite", [f"1,{VERTEX_LIMIT}"]),
        ("join_of_cycles", ["1", str(VERTEX_LIMIT + 1)]),
        ("suspension_sphere", [str(VERTEX_LIMIT - 1)]),
        # VERTEX_LIMIT + 1 = 65537 is prime: the nearest torus over the limit
        ("grid_torus", ["6", "10923"]),
    ],
)
def test_gen_vertex_limit_exit(capsys, family, params):
    start = time.perf_counter()
    assert main(["gen", family, *params]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "vertices, over the vertex limit" in err


def test_check_ok_and_json(tmp_path, capsys):
    f = tmp_path / "j.g6"
    f.write_text(dump_graph6(gen_join_of_cycles(2, 10)) + "\n")
    out_json = tmp_path / "report.json"
    assert main(["check", str(f), "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert ": ok (" in out and "checked 1 instance(s): 1 ok" in out
    payload = json.loads(out_json.read_text())
    assert set(payload) == {"entries", "summary"}
    assert payload["summary"]["equality_cases"] == 1


def test_check_parse_error_exit(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("3 1\n9 9\n")
    out_json = tmp_path / "report.json"
    assert main(["check", str(f), "--json", str(out_json)]) == 2
    message = "edge (9, 9) violates 0 <= u < v < n=3"
    # the position is named once, by the entry's own fields
    assert f"{f}: PARSE ERROR line 2: {message}\n" in capsys.readouterr().out
    [entry] = json.loads(out_json.read_text())["entries"]
    assert entry["error"] == {"stage": "parse", "message": message, "path": str(f), "line": 2}


def test_check_non_ascii_file_is_a_parse_error(tmp_path, capsys):
    good = tmp_path / "c4.txt"
    good.write_text(dump_edge_list(gen_cycle(4)))
    bad = tmp_path / "accent.txt"
    bad.write_bytes(b"3 1\n0 1\n\xe9\n")
    out_json = tmp_path / "report.json"
    assert main(["check", str(good), str(bad), "--json", str(out_json)]) == 2
    out = capsys.readouterr().out
    assert f"{good}: ok (" in out
    assert f"{bad}: PARSE ERROR line 3: byte 0xe9 is not ASCII\n" in out
    entries = json.loads(out_json.read_text())["entries"]
    assert entries[0]["kind"] == "graph"
    assert entries[1]["error"] == {"stage": "parse", "message": "byte 0xe9 is not ASCII",
                                   "path": str(bad), "line": 3}


def test_bounds_non_ascii_exit(tmp_path, capsys):
    bad = tmp_path / "accent.txt"
    bad.write_bytes(b"3 1\r\n0 \xe9\n")
    assert main(["bounds", str(bad), "--s", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {bad}:2: byte 0xe9 is not ASCII\n"


def test_check_unwritable_json_exit(tmp_path, capsys):
    good = tmp_path / "c4.txt"
    good.write_text(dump_edge_list(gen_cycle(4)))
    target = tmp_path / "missing" / "x.json"
    assert main(["check", str(good), "--json", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_search_unwritable_out_exit(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    args = ["search", "--mode", "exhaustive", "--d", "1", "--n", "3..4", "--out", str(target)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_check_oversized_facet_is_a_parse_error(tmp_path, capsys):
    good = tmp_path / "c4.txt"
    good.write_text(dump_edge_list(gen_cycle(4)))
    big = tmp_path / "big.facets"
    big.write_text("26 1\n" + " ".join(map(str, range(26))) + "\n")
    assert main(["check", str(good), str(big)]) == 2
    out = capsys.readouterr().out
    assert f"{good}: ok (" in out
    assert f"{big}: PARSE ERROR line 2: facet of dimension 25 exceeds cap 24\n" in out
    assert "checked 2 instance(s): 1 ok, 1 parse error(s)" in out


def test_check_counterexample_exit(monkeypatch, capsys):
    entry = {
        "instance": "planted",
        "kind": "graph",
        "n": 10,
        "edges": 36,
        "potential_counterexample": True,
    }
    monkeypatch.setattr("flagstone.cli.run_corpus_checks", lambda paths: [entry])
    assert main(["check", "whatever"]) == 1
    assert "CANDIDATE" in capsys.readouterr().out


def test_bounds_report(tmp_path, capsys):
    f = tmp_path / "j.txt"
    f.write_text(dump_edge_list(gen_join_of_cycles(2, 10)))
    assert main(["bounds", str(f), "--s", "2", "--C", "1/2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bounds"]["thm_odd"]["equality"] is True
    assert any("k_3 = 50 <=" in note for note in report["notes"])
    with pytest.raises(SystemExit) as ei:
        main(["bounds", str(f)])  # --s is required
    assert ei.value.code == 2


def test_bounds_facets_ignore_unused_vertices(tmp_path, capsys):
    # a 4-cycle plus vertex 4, which lies in no facet: the same graph `check` sees
    f = tmp_path / "c4.facets"
    f.write_text("5 4\n0 1\n1 2\n2 3\n0 3\n")
    assert main(["bounds", str(f), "--s", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 4 and report["edges"] == 4
    assert report["leveled"] == {"d": 1, "verdict": True}
    assert report["bounds"]["thm_odd"]["equality"] is True
    assert report["bounds"]["lower_odd"]["equality"] is True


def test_bounds_rejects_non_flag_complex(tmp_path, capsys):
    # C4*C4 with the tetrahedron (0, 1, 4, 5) hollowed out: its skeleton's
    # clique complex passes the level test, the complex itself is not flag
    hollow = (0, 1, 4, 5)
    facets = [c for c in gen_join_of_cycles(2, 8).maximal_cliques() if c != hollow]
    facets += [tuple(v for v in hollow if v != u) for u in hollow]
    f = tmp_path / "hollow.facets"
    f.write_text(f"8 {len(facets)}\n" + "".join(" ".join(map(str, c)) + "\n" for c in facets))
    assert main(["check", str(f)]) == 0
    assert "not flag, witness (0, 1, 4, 5)" in capsys.readouterr().out
    assert main(["bounds", str(f), "--s", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"bounds: {f}: not flag, witness (0, 1, 4, 5); "
                   "bounds apply to clique complexes only\n")


def test_bounds_rejects_instances_without_vertices(tmp_path, capsys):
    # an empty edge list, the empty graph6 graph, and a facet file with no
    # facets, whose support skeleton is empty: a valid --s is not blamed
    files = {"empty.txt": ("0 0\n", "empty.txt"), "empty.g6": ("?\n", "empty.g6:1"),
             "none.facets": ("3 0\n", "none.facets")}
    for name, (text, instance) in files.items():
        f = tmp_path / name
        f.write_text(text)
        assert main(["bounds", str(f), "--s", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"bounds: {tmp_path / instance}: no vertices; the edge bounds need n >= 1\n"


def test_bounds_malformed_cap(tmp_path, capsys):
    f = tmp_path / "j.txt"
    f.write_text(dump_edge_list(gen_join_of_cycles(2, 10)))
    for cap in ("abc", "1/0"):
        with pytest.raises(SystemExit) as ei:
            main(["bounds", str(f), "--s", "2", "--C", cap])
        assert ei.value.code == 2
        assert f"argument --C: expected a fraction p/q, got {cap!r}" in capsys.readouterr().err


def test_check_over_face_budget_exit(tmp_path, capsys):
    # a 20-vertex facet next to a hollow triangle: not flag, and 2^20 faces
    f = tmp_path / "big.facets"
    f.write_text("23 4\n" + " ".join(map(str, range(20))) + "\n20 21\n21 22\n20 22\n")
    good = tmp_path / "ok.txt"
    good.write_text(dump_edge_list(gen_cycle(5)))
    out_json = tmp_path / "report.json"
    start = time.perf_counter()
    assert main(["check", str(good), str(f), str(good), "--json", str(out_json)]) == 2
    assert time.perf_counter() - start < 5
    out = capsys.readouterr().out
    assert "face budget" in out and "checked 3 instance(s): 2 ok, 1 parse error(s)" in out
    assert f"{f}: BUDGET ERROR: facets span up to" in out and "PARSE ERROR" not in out
    payload = json.loads(out_json.read_text())
    assert [e["kind"] for e in payload["entries"]] == ["graph", "error", "graph"]
    err = payload["entries"][1]
    assert err["instance"] == str(f)
    assert err["error"]["path"] == str(f) and err["error"]["line"] is None
    assert err["error"]["stage"] == "budget"
    assert "face budget" in err["error"]["message"]
    assert payload["summary"]["parse_errors"] == 1


def _graph6_size_header(n):
    return "~" + "".join(chr(((n >> k) & 63) + 63) for k in (12, 6, 0))


@pytest.mark.parametrize(
    "name,text",
    [
        ("huge.txt", f"{VERTEX_LIMIT + 1} 0\n"),
        ("huge.g6", _graph6_size_header(VERTEX_LIMIT + 1) + "\n"),
        ("huge.facets", f"{VERTEX_LIMIT + 1} 1\n0 1\n"),
    ],
    ids=["edge-list", "graph6", "facets"],
)
def test_check_vertex_limit_exit(tmp_path, capsys, name, text):
    f = tmp_path / name
    f.write_text(text)
    start = time.perf_counter()
    assert main(["check", str(f)]) == 2
    assert time.perf_counter() - start < 5
    out = capsys.readouterr().out
    assert f"{f}: PARSE ERROR line 1: " in out
    assert f"declares {VERTEX_LIMIT + 1} vertices, over the vertex limit {VERTEX_LIMIT}" in out
    assert "1 parse error(s)" in out


def test_bounds_vertex_limit_exit(tmp_path, capsys):
    f = tmp_path / "huge.txt"
    f.write_text("1000000000 0\n")
    start = time.perf_counter()
    assert main(["bounds", str(f), "--s", "1"]) == 2
    assert time.perf_counter() - start < 5
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {f}:1: declares 1000000000 vertices, over the vertex limit" in err


def test_check_facets_ignore_unused_vertices(tmp_path, capsys):
    # vertex 3 of tri, vertex 6 of oct and every vertex of bare lie in no facet
    octahedron = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    files = {
        "tri.facets": "4 1\n0 1 2\n",
        "oct.facets": "7 8\n" + "".join(" ".join(map(str, t)) + "\n" for t in octahedron),
        "bare.facets": "3 0\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out_json = tmp_path / "report.json"
    assert main(["check", *(str(tmp_path / name) for name in files), "--json", str(out_json)]) == 0
    capsys.readouterr()
    entries = json.loads(out_json.read_text())["entries"]
    for entry, text in zip(entries, files.values()):
        k = parse_facet_list(text)
        f = f_vector(k)
        assert entry["kind"] == "complex" and entry["n"] == k.n
        assert entry["f"] == list(f)
        assert entry["h"] == (list(h_vector(f, len(f) - 2)) if f else None)
        assert entry["chi"] == (euler_characteristic(f) if f else None)
    tri, octa, bare = entries
    assert tri["f"] == [1, 3, 3, 1] and tri["chi"] == 1
    assert octa["leveled"] == {"d": 2, "verdict": True} and octa["pseudomanifold"] is True
    assert octa["report"]["n"] == 6 and octa["report"]["bounds"]["conj_even"]["equality"] is True
    assert bare["f"] == [] and bare["leveled"] == {"d": 0, "verdict": False}


def test_check_zero_vertex_instances(tmp_path, capsys):
    files = {"void.txt": "0 0\n", "void.facets": "0 0\n", "void.g6": "?\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out_json = tmp_path / "report.json"
    paths = [str(tmp_path / name) for name in files]
    assert main(["check", *paths, "--json", str(out_json)]) == 0
    assert "3 ok" in capsys.readouterr().out
    entries = json.loads(out_json.read_text())["entries"]
    assert [e["kind"] for e in entries] == ["graph", "complex", "graph"]
    for entry in entries:
        assert entry["n"] == 0 and entry["f"] == []
        assert entry["h"] is None and entry["chi"] is None and entry["gamma"] is None
        assert entry["dehn_sommerville"] is None and entry["klee"] is None
        assert entry["leveled"] == {"d": 0, "verdict": False}


def test_bounds_missing_file(tmp_path, capsys):
    assert main(["bounds", str(tmp_path / "absent.txt"), "--s", "1"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_search_exhaustive(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(["search", "--mode", "exhaustive", "--d", "1", "--n", "4..6", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "n=4: found=1, max_edges=4, bound=4" in text
    payload = json.loads(out.read_text())
    assert [e["n"] for e in payload["per_n"]] == [4, 5, 6]


def test_search_random(capsys):
    code = main(["search", "--mode", "random", "--d", "3", "--n", "10", "--seed", "3",
                 "--budget", "20"])
    assert code == 0
    assert "max_edges=35" in capsys.readouterr().out


def test_search_usage_errors(capsys):
    assert main(["search", "--mode", "exhaustive", "--d", "1", "--n", "lots"]) == 2
    assert main(["search", "--mode", "random", "--d", "3", "--n", "10..10"]) == 2  # no seed
    assert main(["search", "--mode", "exhaustive", "--d", "3", "--n", "4..9"]) == 2  # over cap
    err = capsys.readouterr().err
    assert "bad range" in err and "seed" in err and "cap" in err
    # rejected while the config is built, before any search work starts
    random10 = ["search", "--mode", "random", "--d", "3", "--n", "10..10", "--seed", "1"]
    assert main(random10 + ["--budget", "-5"]) == 2
    assert main(random10 + ["--workers", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "need budget >= 0" in err and "need workers >= 1" in err


def test_search_has_no_s_option(capsys):
    # s follows from d; --s is refused, not read as an abbreviation of --seed
    with pytest.raises(SystemExit) as ei:
        main(["search", "--mode", "exhaustive", "--d", "1", "--n", "3..4", "--s", "1"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --s 1" in capsys.readouterr().err


def _cli_outputs(tmp_path, tag, capsys):
    """stdout and written files of `check --json` over a mixed corpus and of
    an exhaustive and a random `search --out`; no output names the tag."""
    rng = random.Random(61)
    mixed = [gen_join_of_cycles(2, 9), gen_join_of_cycles(3, 14), gen_suspension_sphere(6),
             gen_join_of_cycles(2, 8).without_edge(0, 4)]
    mixed += [random_graph(rng.randrange(1, 12), rng.random(), rng) for _ in range(30)]
    files = {
        "mixed.g6": "".join(dump_graph6(g) + "\n" for g in mixed),
        "join.txt": dump_edge_list(gen_join_of_cycles(2, 11)),
        "k6.facets": "6 1\n0 1 2 3 4 5\n",
        "torus.txt": dump_edge_list(gen_grid_torus(4, 4)),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    runs = [
        ["check", *(str(tmp_path / name) for name in files), "--json", str(tmp_path / f"{tag}.json")],
        ["search", "--mode", "exhaustive", "--d", "3", "--n", "6..8", "--out", str(tmp_path / f"{tag}-ex.json")],
        ["search", "--mode", "random", "--d", "3", "--n", "8..11", "--seed", "2", "--budget", "40",
         "--out", str(tmp_path / f"{tag}-walk.json")],
    ]
    out = []
    for argv in runs:
        assert main(argv) == 0
        out.append(capsys.readouterr().out)
    for suffix in (".json", "-ex.json", "-walk.json"):
        out.append((tmp_path / f"{tag}{suffix}").read_bytes())
    return out


def test_cli_output_does_not_depend_on_join_factors(tmp_path, monkeypatch, capsys):
    factored = _cli_outputs(tmp_path, "factored", capsys)
    # every graph its own single factor: the whole-graph paths throughout
    monkeypatch.setattr(Graph, "join_factors", lambda self: ((self, tuple(range(self.n))),))
    whole = _cli_outputs(tmp_path, "whole", capsys)
    assert whole == factored
