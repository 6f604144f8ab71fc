"""End-to-end runs of the command line entry point."""

import argparse
import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

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
    corpus_summary,
    parse_facet_list,
    run_corpus_checks,
)
from flagstone import bounds, kernels
from flagstone.cli import main, write_json
from flagstone.complexes import CLIQUE_BUDGET, VERTEX_LIMIT
from flagstone.search import SearchResult, check_instance
from helpers import random_graph


def test_gen_edgelist(capsys):
    assert main(["gen", "cycle", "5"]) == 0
    assert capsys.readouterr().out == dump_edge_list(gen_cycle(5))


def test_only_the_process_entry_freezes_the_heap(monkeypatch, capsys):
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *args: events.append("parse") or parse_args(self, *args))
    assert main(["gen", "cycle", "5"]) == 0
    assert events == ["parse"]
    events.clear()
    monkeypatch.setattr(sys, "argv", ["flagstone", "gen", "cycle", "5"])
    assert main() == 0
    assert events == ["freeze", "parse"]
    assert capsys.readouterr().out == 2 * dump_edge_list(gen_cycle(5))


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


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "join_of_cycles", "2", "3000"],
        ["gen", "complete_multipartite", "1500,1500"],
        # the join at n_max is refused before the first size is reported
        ["search", "--mode", "random", "--d", "3", "--n", "8..4000", "--seed", "1", "--budget", "1"],
    ],
    ids=["gen-join", "gen-multipartite", "search-random"],
)
def test_edge_limit_exit(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "edges, over the edge limit" in err


def test_gen_graph6_pair_limit(monkeypatch, capsys):
    # a graph6 body has one bit per vertex pair: 2048 vertices make
    # 2 096 128 pairs, within EDGE_LIMIT = 2^21, and 2049 make 2 098 176
    assert main(["gen", "independent", "2048", "--format", "graph6"]) == 0
    out, _ = capsys.readouterr()
    assert out == "~?_?" + "?" * ((2048 * 2047 // 2 + 5) // 6) + "\n"
    start = time.perf_counter()
    assert main(["gen", "independent", "2049", "--format", "graph6"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: graph6 needs 2098176 bits for n=2049, over the edge limit 2097152\n"
    # refused from its parameters: the torus builds its rows in from_edges,
    # and the 65 536 rows of 65 536 bits would take about 450 MB
    def build_rows(*args):
        raise AssertionError("rows built for a graph6 over the edge limit")
    monkeypatch.setattr(Graph, "from_edges", build_rows)
    assert main(["gen", "grid_torus", "256", "256", "--format", "graph6"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: graph6 needs 2147450880 bits for n=65536, over the edge limit 2097152\n"


@pytest.mark.parametrize(
    "params,message",
    [
        (["grid_torus", "2", "5000"], "torus grid needs p, q >= 4"),
        (["grid_torus", "-300", "-300"], "torus grid needs p, q >= 4"),
        (["join_of_cycles", "800", "3000"], "n=3000 too small: each of the 800 cycles needs >= 4 vertices"),
        (["complete_multipartite", "0,3000"], "need at least one part, all sizes >= 1"),
    ],
    ids=["torus-thin", "torus-negative", "join-short-cycles", "multipartite-empty-part"],
)
def test_gen_parameter_error_does_not_depend_on_the_format(capsys, params, message):
    # each request implies a graph6 body over the edge limit, but its
    # parameters are wrong first, in either format
    for fmt in ("edgelist", "graph6"):
        assert main(["gen", *params, "--format", fmt]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_search_random_refuses_a_range_by_its_payload_edges(tmp_path, capsys):
    # at d=3 the joins for n=10..291 list 2 106 446 edges in all, over
    # EDGE_LIMIT = 2^21; the largest alone has 21 461
    out = tmp_path / "res.json"
    start = time.perf_counter()
    assert main(["search", "--mode", "random", "--d", "3", "--n", "10..291", "--seed", "1",
                 "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1
    assert not out.exists()
    assert capsys.readouterr() == (
        "", "error: the 2-cycle joins for n=10..291 total 2106446 edges, over the edge limit 2097152\n"
    )


def test_search_random_at_even_level_lists_no_edges(tmp_path, capsys):
    # at d=4 the 2-cycle joins for n=8..400 would total 5 433 438 edges; the
    # join never passes at an even level, so none is listed and none refused
    out = tmp_path / "res.json"
    assert main(["search", "--mode", "random", "--d", "4", "--n", "8..400", "--seed", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload["per_n"]) == 393 and payload["reports"] == []
    assert all(entry["argmax_edges"] is None for entry in payload["per_n"])
    assert capsys.readouterr().err == ""


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


def test_check_blank_graph6_file_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "blank.g6"
    f.write_text("\n  \n\n")
    out_json = tmp_path / "report.json"
    assert main(["check", str(f), "--json", str(out_json)]) == 2
    assert f"{f}: PARSE ERROR line 1: no graph6 lines found\n" in capsys.readouterr().out
    [entry] = json.loads(out_json.read_text())["entries"]
    assert entry["error"] == {"stage": "parse", "message": "no graph6 lines found",
                              "path": str(f), "line": 1}


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


@pytest.mark.parametrize("argv", [
    ["gen", "cycle", "5"],
    ["check", "tests/data/golden/join.txt"],
    ["bounds", "tests/data/golden/join.txt", "--s", "2"],
    ["search", "--mode", "exhaustive", "--d", "1", "--n", "3..6"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exit(argv, unbuffered):
    # exit 1 would claim a potential counterexample; the interpreter's flush
    # at exit must not raise again either.  A buffered stdout meets the
    # closed pipe at the flush, an unbuffered one at the first write.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "flagstone.cli", *argv], stdout=write, stderr=subprocess.PIPE,
                              cwd=root, env=env, text=True)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (2, "error: cannot write standard output: Broken pipe\n")


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


def test_bounds_exits_1_after_its_report_on_a_failed_theorem_bound(tmp_path, monkeypatch, capsys):
    # C5*C5 is leveled at d = 3 with as many edges as the theorem's bound
    # allows; one edge less makes it a potential counterexample
    bound = bounds.edge_bound_odd
    monkeypatch.setattr(bounds, "edge_bound_odd", lambda n, s: bound(n, s) - 1)
    f = tmp_path / "j.txt"
    f.write_text(dump_edge_list(gen_join_of_cycles(2, 10)))
    assert main(["bounds", str(f), "--s", "2"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["potential_counterexample"] is True
    assert report["bounds"]["thm_odd"]["holds"] is False
    assert main(["check", str(f)]) == 1
    assert capsys.readouterr().out.startswith(f"{f}: CANDIDATE (")


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
    # an 18-vertex facet next to a hollow triangle: not flag, 2^18 + 12
    # faces over FACE_BUDGET, and 2^18 + 7 cliques under CLIQUE_BUDGET
    f = tmp_path / "big.facets"
    f.write_text("21 4\n" + " ".join(map(str, range(18))) + "\n18 19\n19 20\n18 20\n")
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
    # with a 20-vertex facet the skeleton has 2^20 + 7 cliques, and the
    # clique budget refuses it before any face is listed
    f.write_text("23 4\n" + " ".join(map(str, range(20))) + "\n20 21\n21 22\n20 22\n")
    assert main(["check", str(f)]) == 2
    assert capsys.readouterr().out.splitlines()[0] == (
        f"{f}: BUDGET ERROR: a join factor on 23 vertices has more than {CLIQUE_BUDGET} cliques, "
        "over the clique budget")


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("backend", ["py", "c"])
def test_check_over_clique_budget_exit(backend, request, monkeypatch, tmp_path, capsys):
    # the complement of C40 (740 edges, one join factor) has about 2.3 * 10^8
    # cliques, over CLIQUE_BUDGET = 2^20: the capped census refuses it at once
    monkeypatch.setattr(kernels, "_c", request.getfixturevalue("compiled_kernels") if backend == "c" else None)
    c40 = gen_cycle(40)
    dense = tmp_path / "co-c40.txt"
    dense.write_text(dump_edge_list(Graph.from_edges(
        40, [(u, v) for u in range(40) for v in range(u + 1, 40) if not c40.has_edge(u, v)])))
    out_json = tmp_path / "report.json"
    monkeypatch.chdir(GOLDEN)
    start = time.perf_counter()
    assert main(["check", str(dense), "join.txt", "--json", str(out_json)]) == 2
    assert time.perf_counter() - start < 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (f"{dense}: BUDGET ERROR: a join factor on 40 vertices has more than {CLIQUE_BUDGET} "
                      "cliques, over the clique budget")
    # the golden checked beside it is unchanged
    assert out[1] == (GOLDEN / "check.stdout").read_text().splitlines()[0]
    entries = json.loads(out_json.read_text())["entries"]
    assert entries[0]["error"] == {"stage": "budget", "message": out[0].split("BUDGET ERROR: ")[1],
                                   "path": str(dense), "line": None}
    assert entries[1] == json.loads((GOLDEN / "check.json").read_text())["entries"][0]
    # `bounds` reads the file through the same gate and gives the same message
    start = time.perf_counter()
    assert main(["bounds", str(dense), "--s", "2"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: {out[0].split('BUDGET ERROR: ')[1]}\n")


def _facet_file(path, g):
    """Write the maximal cliques of g as a facet list on g's vertices."""
    facets = g.maximal_cliques()
    path.write_text(f"{g.n} {len(facets)}\n" + "".join(" ".join(map(str, c)) + "\n" for c in facets))


def test_edge_and_facet_lists_meet_one_clique_budget(tmp_path, capsys):
    # the complement of C29 has 1 149 851 cliques, over CLIQUE_BUDGET; its
    # 3 480 maximal cliques as facets span more than that, so the flag
    # census is capped at the budget and gives the edge list's entry
    c29 = gen_cycle(29)
    co = Graph.from_edges(29, [(u, v) for u in range(29) for v in range(u + 1, 29) if not c29.has_edge(u, v)])
    edges, facets = tmp_path / "co-c29.txt", tmp_path / "co-c29.facets"
    edges.write_text(dump_edge_list(co))
    _facet_file(facets, co)
    message = f"a join factor on 29 vertices has more than {CLIQUE_BUDGET} cliques, over the clique budget"
    assert main(["check", str(edges), str(facets)]) == 2
    assert capsys.readouterr().out.splitlines()[:2] == [f"{edges}: BUDGET ERROR: {message}",
                                                        f"{facets}: BUDGET ERROR: {message}"]
    for f in (edges, facets):
        assert main(["bounds", str(f), "--s", "2"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
    # C128*C128 as facets: 16 384 tetrahedra span 2^18 faces, over
    # FACE_BUDGET, yet a flag complex is counted by cliques and never listed
    torus = tmp_path / "c128-c128.facets"
    _facet_file(torus, gen_join_of_cycles(2, 256))
    assert main(["check", str(torus)]) == 0
    assert f"{torus}: ok (n=256, edges=16640, level d=3: pass" in capsys.readouterr().out
    assert main(["bounds", str(torus), "--s", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["leveled"] == {"d": 3, "verdict": True}


def test_dense_facet_list_meets_the_clique_budget_in_seconds(tmp_path):
    # the complement of C34 as its 14 197 maximal cliques (537 KB): no clique
    # has a common neighbour, so the reduction keeps each one unscanned and
    # the process entry refuses the file at the clique budget, as it does
    # the 3 KB edge list, where a pairwise scan of the facets took 8-10 s
    c34 = gen_cycle(34)
    path = tmp_path / "co-c34.facets"
    _facet_file(path, Graph.from_edges(34, [(u, v) for u in range(34) for v in range(u + 1, 34)
                                            if not c34.has_edge(u, v)]))
    message = f"a join factor on 34 vertices has more than {CLIQUE_BUDGET} cliques, over the clique budget"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    for argv, head, err in ((["check", str(path)], f"{path}: BUDGET ERROR: {message}", ""),
                            (["bounds", str(path), "--s", "2"], None, f"error: {message}\n")):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "flagstone.cli", *argv], capture_output=True, text=True, env=env)
        assert time.perf_counter() - start < 5
        assert (done.returncode, done.stderr) == (2, err)
        assert done.stdout.splitlines()[:1] == ([head] if head else [])


@pytest.mark.parametrize("backend", ["py", "c"])
def test_an_ambient_vertex_changes_no_verdict(backend, request, monkeypatch, tmp_path, capsys):
    # the 15 625 maximal cliques of the join of six 5-cycles as facets, on
    # its 30 vertices and with one vertex in no facet: the support skeleton
    # is the same six-factor join, 11 cliques a factor, while the whole
    # 1-skeleton on 31 vertices is prime with 11^6 cliques, over the budget
    monkeypatch.setattr(kernels, "_c", request.getfixturevalue("compiled_kernels") if backend == "c" else None)
    g = gen_join_of_cycles(6, 30)
    paths = [tmp_path / "on30.facets", tmp_path / "on31.facets"]
    _facet_file(paths[0], g)
    paths[1].write_text(paths[0].read_text().replace("30", "31", 1))
    entries, reports = [], []
    for path in paths:
        assert main(["check", str(path), "--json", str(tmp_path / "out.json")]) == 0
        assert "1 ok" in capsys.readouterr().out
        [entry] = json.loads((tmp_path / "out.json").read_text())["entries"]
        assert main(["bounds", str(path), "--s", "6"]) == 0
        report = json.loads(capsys.readouterr().out)
        entries.append({key: value for key, value in entry.items() if key not in ("instance", "n")})
        entries[-1]["report"].pop("instance")
        reports.append({key: value for key, value in report.items() if key != "instance"})
        assert entry["n"] == int(path.read_text().split()[0])
    assert entries[0] == entries[1] and reports[0] == reports[1]
    assert entries[0]["leveled"] == {"d": 11, "verdict": True} and entries[0]["f"][1:3] == [30, 405]
    assert reports[0]["n"] == 30 and reports[0]["bounds"]["thm_odd"]["equality"] is True


def test_check_admits_a_dense_random_graph_under_the_clique_budget(compiled_kernels, monkeypatch):
    # a seeded G(60, 0.7) with 754 390 cliques stays under CLIQUE_BUDGET
    # (other seeds go past it: 1 068 624 at seed 3); the budget is the same
    # in either backend, and the compiled census counts it in milliseconds
    monkeypatch.setattr(kernels, "_c", compiled_kernels)
    entry = check_instance("g60", random_graph(60, 0.7, random.Random(0)))
    assert entry["kind"] == "graph" and sum(entry["f"]) == 754390 <= CLIQUE_BUDGET


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


def test_check_facet_files_at_the_census_limit(tmp_path, capsys):
    # no facets on three and on five vertices, where every clique of the
    # skeleton is the empty one or an ambient vertex, the n + 1 that the
    # census limit adds to the faces; an empty triangle beside an ambient
    # vertex; a repeated facet
    files = {
        "three.facets": "3 0\n",
        "five.facets": "5 0\n",
        "hollow.facets": "4 3\n0 1\n1 2\n0 2\n",
        "twice.facets": "4 3\n0 1 2\n1 2 3\n0 1 2\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out_json = tmp_path / "report.json"
    assert main(["check", *(str(tmp_path / name) for name in files), "--json", str(out_json)]) == 0
    assert "4 ok" in capsys.readouterr().out
    three, five, hollow, twice = json.loads(out_json.read_text())["entries"]
    for entry, n in ((three, 3), (five, 5)):
        assert (entry["n"], entry["facets"], entry["flag"], entry["f"]) == (n, 0, {"verdict": True}, [])
        assert entry["pseudomanifold_witness"] == ["empty"]
    assert hollow["flag"] == {"verdict": False, "witness": [0, 1, 2]}
    assert hollow["f"] == [1, 3, 3] and hollow["leveled"] is None
    assert (twice["facets"], twice["flag"], twice["f"]) == (2, {"verdict": True}, [1, 4, 5, 2])
    assert twice["leveled"] == {"d": 2, "verdict": False}


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


def test_search_exits_1_only_on_a_failed_theorem_bound(tmp_path, monkeypatch, capsys):
    # every bound stubbed to 0, so every leveled extreme breaks it
    zero = lambda n, s: Fraction(0)  # noqa: E731
    for name in ("search.edge_bound_even_conjecture", "search.edge_bound_odd", "bounds.edge_bound_odd"):
        monkeypatch.setattr(f"flagstone.{name}", zero)
    out = tmp_path / "res.json"
    # at even d the broken bound is the conjecture: recorded, not a candidate
    assert main(["search", "--mode", "exhaustive", "--d", "2", "--n", "6..6", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["per_n"][0]["bound_holds"] is False and payload["reports"] == []
    # at odd d the theorem-status bound fails in the report
    assert main(["search", "--mode", "exhaustive", "--d", "1", "--n", "4..4", "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["per_n"][0]["bound_holds"] is False
    assert [r["potential_counterexample"] for r in payload["reports"]] == [True]


def test_search_encodes_its_payload_only_for_out(tmp_path, monkeypatch, capsys):
    encoded = []
    encode = SearchResult.to_json_bytes
    monkeypatch.setattr(SearchResult, "to_json_bytes", lambda self: encoded.append(encode(self)) or encoded[-1])
    argv = ["search", "--mode", "random", "--d", "3", "--n", "10..12", "--seed", "1", "--budget", "20"]
    assert main(argv) == 0
    listing = capsys.readouterr().out
    assert encoded == []
    out = tmp_path / "res.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == listing
    assert [out.read_bytes()] == encoded


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


def test_cli_imports_only_what_commands_run():
    # no command runs the stability machinery, and with no bytecode written
    # (-B) the whole module would be compiled at every start; the package
    # still re-exports it on use
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import flagstone.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'flagstone.stability'} & (set(sys.modules) - before)))\n"
        "from flagstone import extract_partition, PartitionWitness\n"
        "from flagstone import stability\n"
        "print(extract_partition is stability.extract_partition, PartitionWitness is stability.PartitionWitness)\n"
        "star = {}\n"
        "exec('from flagstone import *', star)\n"
        "print(star['witness_link'] is stability.witness_link,\n"
        "      star['run_corpus_checks'] is flagstone.cli.run_corpus_checks)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-B", "-c", script], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[]", "True True", "True True"]


_STRINGS = ["", "plain", 'say "hi"', "back\\slash", "tab\tline\nfeed\x00\x1f\x7f", "caf\u00e9",
            "\u2603 \U0001f600", "/slash/", "\ud800 lone surrogate"]


def _payload(rng, depth=0):
    """A random JSON value of the kinds the report writer takes; a list,
    tuple or dict at the top, scalars only below depth 3."""
    kind = rng.randrange(5, 9) if depth == 0 else rng.randrange(5 if depth > 3 else 9)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice([0, -1, 1 << 63, -(1 << 64) - 1, 3 ** 90, rng.randint(-999, 999)])
    if kind == 3:
        return rng.choice(_STRINGS)
    if kind == 4:
        return [rng.randint(-(1 << 70), 1 << 70) for _ in range(rng.randrange(5))]
    if kind == 5:
        return [_payload(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return tuple(_payload(rng, depth + 1) for _ in range(rng.randrange(3)))
    if kind == 7:
        return [[rng.randint(-5, 5) for _ in range(rng.randrange(3))] for _ in range(rng.randrange(4))]
    return {rng.choice(_STRINGS) + str(rng.randrange(3)): _payload(rng, depth + 1)
            for _ in range(rng.randrange(5))}


def _written(obj):
    out = io.StringIO()
    write_json(out, obj)
    return out.getvalue()


@pytest.mark.parametrize("seed", range(40))
def test_report_writer_matches_json_dumps(seed):
    obj = _payload(random.Random(seed))
    assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_report_writer_edge_cases_match_json_dumps():
    objs = [{}, [], (), [{}], {"a": []}, [[], [[]]], [True, 1, False, 0], [None], -(1 << 100),
            {"z": 1, "a": {"y": [1, -2], "b": "\u00e9\"\\"}},
            # past the point where the writer hands its pieces to the file
            {"entries": [{"k": i, "v": [i, -i], "s": str(i)} for i in range(3000)]}]
    for obj in objs:
        assert _written(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [1.5, {1, 2}, [0, 0.0], {"a": {"b": {3}}}, {1: "int key"}])
def test_report_writer_refuses_other_types(bad):
    with pytest.raises(TypeError):
        _written(bad)


def test_check_json_on_a_non_ascii_file_name(tmp_path, capsys):
    f = tmp_path / "zyklus-\u00e9\u2603.txt"
    f.write_text(dump_edge_list(gen_join_of_cycles(2, 9)))
    out_json = tmp_path / "report.json"
    assert main(["check", str(f), "--json", str(out_json)]) == 0
    capsys.readouterr()
    entries = run_corpus_checks([str(f)])
    expected = json.dumps({"entries": entries, "summary": corpus_summary(entries)}, indent=2, sort_keys=True)
    assert out_json.read_text(encoding="ascii") == expected + "\n"
    assert entries[0]["instance"] == str(f)
