"""Serialization round trips and strict parser diagnostics."""

import random

import pytest

from flagstone import (
    InvalidComplex,
    Graph,
    ParseError,
    SimplicialComplex,
    clique_complex,
    dump_edge_list,
    dump_facet_list,
    dump_graph6,
    gen_join_of_cycles,
    load_instances,
    parse_edge_list,
    parse_facet_list,
    parse_graph6_line,
)
from flagstone import kernels
from helpers import random_graph


def test_graph6_known_strings():
    assert dump_graph6(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])) == "C~"
    assert dump_graph6(Graph(5, (0,) * 5)) == "D??"
    assert parse_graph6_line("C~").edge_count == 6
    assert parse_graph6_line("D??").n == 5


def test_graph6_round_trip():
    rng = random.Random(61)
    for _ in range(60):
        g = random_graph(rng.randrange(0, 15), rng.random(), rng)
        assert parse_graph6_line(dump_graph6(g)) == g
    # dense graphs, and n on both sides of the one-byte size header (n <= 62)
    for n in (0, 1, 2, 7, 61, 62, 63, 64, 70):
        for p in (0.0, 0.5, 0.9, 1.0):
            g = random_graph(n, p, rng)
            assert parse_graph6_line(dump_graph6(g)) == g
    # graph6 bodies and canonical keys share one bit order, past the
    # one-byte size header too, and the key decoder ignores higher bits
    for _ in range(40):
        g = random_graph(rng.randrange(0, 71), rng.random(), rng)
        s = dump_graph6(g)
        assert parse_graph6_line(s) == g
        total = g.n * (g.n - 1) // 2
        bits = "".join(format(ord(ch) - 63, "06b") for ch in s[1 if g.n <= 62 else 4:])[:total]
        key = kernels.masks_key(g.masks, g.n)
        assert key == int(bits or "0", 2)
        assert kernels.key_to_masks(key, g.n) == list(g.masks)
        assert kernels.key_to_masks(key | rng.getrandbits(9) << total, g.n) == list(g.masks)


def test_graph6_long_size_header():
    g = random_graph(70, 0.1, random.Random(62))
    s = dump_graph6(g)
    assert s[0] == chr(126) and parse_graph6_line(s) == g


def test_graph6_header_prefix_tolerated():
    g = gen_join_of_cycles(2, 10)
    assert parse_graph6_line(">>graph6<<" + dump_graph6(g)) == g


def test_graph6_parse_errors():
    with pytest.raises(ParseError):
        parse_graph6_line("")
    with pytest.raises(ParseError):
        parse_graph6_line("C~~")  # extra body group
    with pytest.raises(ParseError):
        parse_graph6_line("C")  # missing body
    with pytest.raises(ParseError):
        parse_graph6_line("B" + chr(62))  # byte below offset
    with pytest.raises(ParseError):
        parse_graph6_line("A" + chr(63 + 16))  # nonzero padding bits


def test_edge_list_round_trip():
    rng = random.Random(63)
    for _ in range(40):
        g = random_graph(rng.randrange(1, 12), rng.random(), rng)
        assert parse_edge_list(dump_edge_list(g)) == g


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(ParseError) as ei:
        parse_edge_list("")
    assert ei.value.line == 1
    with pytest.raises(ParseError) as ei:
        parse_edge_list("3 2\n0 1\n")  # promised 2, gave 1
    assert ei.value.line == 1
    with pytest.raises(ParseError) as ei:
        parse_edge_list("3 1\n1 0\n")  # needs u < v
    assert ei.value.line == 2
    with pytest.raises(ParseError) as ei:
        parse_edge_list("\n\n3 1\n0 3\n")  # out of range, blank-line offset
    assert ei.value.line == 4
    with pytest.raises(ParseError) as ei:
        parse_edge_list("3 2\n0 1\n0 1\n")
    assert ei.value.line == 3
    with pytest.raises(ParseError) as ei:
        parse_edge_list("3 1\n0 x\n")
    assert ei.value.line == 2


def test_facet_list_round_trip():
    k = SimplicialComplex.from_facets(5, [(0, 1, 2), (2, 3), (3, 4)])
    assert parse_facet_list(dump_facet_list(k)) == k
    void = SimplicialComplex.from_facets(3, [])
    assert parse_facet_list(dump_facet_list(void)) == void
    # {()} would dump as a blank line, so it is rejected outright
    with pytest.raises(InvalidComplex):
        dump_facet_list(SimplicialComplex.from_facets(3, [()]))


def test_facet_list_errors():
    with pytest.raises(ParseError) as ei:
        parse_facet_list("3 1\n2 1\n")  # not increasing
    assert ei.value.line == 2
    with pytest.raises(ParseError) as ei:
        parse_facet_list("3 1\n0 7\n")
    assert ei.value.line == 2
    with pytest.raises(ParseError):
        parse_facet_list("")
    with pytest.raises(ParseError, match="facet of dimension 25 exceeds cap 24") as ei:
        parse_facet_list("26 2\n0 1\n" + " ".join(map(str, range(26))) + "\n")
    assert ei.value.line == 3


def test_load_instances_dispatch(tmp_path):
    g1, g2 = gen_join_of_cycles(2, 10), Graph.from_edges(3, [(0, 1)])
    p6 = tmp_path / "two.g6"
    p6.write_text(dump_graph6(g1) + "\n\n" + dump_graph6(g2) + "\n")
    got = load_instances(p6)
    assert [i for i, _ in got] == [f"{p6}:1", f"{p6}:3"]  # ids keep line numbers
    assert [g for _, g in got] == [g1, g2]

    pe = tmp_path / "one.txt"
    pe.write_text(dump_edge_list(g1))
    assert load_instances(pe) == [(str(pe), g1)]

    k = SimplicialComplex.from_facets(4, [(0, 1, 2), (1, 2, 3)])
    pf = tmp_path / "one.facets"
    pf.write_text(dump_facet_list(k))
    assert load_instances(pf) == [(str(pf), k)]


def test_formats_load_equal_graphs(tmp_path):
    rng = random.Random(64)
    for n, p in ((1, 0.0), (9, 0.2), (24, 0.4), (40, 0.7)):
        g = random_graph(n, p, rng)
        k = clique_complex(g)
        (tmp_path / "g.txt").write_text(dump_edge_list(g))
        (tmp_path / "g.g6").write_text(dump_graph6(g) + "\n")
        (tmp_path / "g.facets").write_text(dump_facet_list(k))
        [(_, from_edges)] = load_instances(tmp_path / "g.txt")
        [(_, from_graph6)] = load_instances(tmp_path / "g.g6")
        [(_, from_facets)] = load_instances(tmp_path / "g.facets")
        assert from_facets == k
        assert from_edges == from_graph6 == from_facets.one_skeleton() == g


def test_load_instances_wraps_io_errors(tmp_path):
    with pytest.raises(ParseError) as ei:
        load_instances(tmp_path / "absent.g6")
    assert "cannot read" in str(ei.value)
    with pytest.raises(ParseError):
        load_instances(tmp_path)  # a directory, not a file
