"""Serialization round trips and strict parser diagnostics."""

import random
import time
import tracemalloc
from itertools import combinations

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
    gen_cycle,
    gen_join_of_cycles,
    load_instances,
    parse_edge_list,
    parse_facet_list,
    parse_graph6_line,
)
from flagstone import kernels
from helpers import brute_maximal_facets, random_graph


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
        key = int(kernels.triangle_bits(g.masks, g.n) or "0", 2)
        assert key == int(bits or "0", 2)
        assert kernels.key_to_masks(key, g.n) == list(g.masks)
        assert kernels.key_to_masks(key | rng.getrandbits(9) << total, g.n) == list(g.masks)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 62, 63, 100])
def test_triangle_decoder_inverts_triangle_bits(n):
    # bit k of the decoder's integer is the k-th triangle bit; a graph6
    # body and a canonical key hold the same bits in the opposite order
    rng = random.Random(n)
    total = n * (n - 1) // 2
    for p in (0.0, 0.3, 0.7, 1.0):
        g = random_graph(n, p, rng)
        bits = kernels.triangle_bits(g.masks, n)
        t = int(bits[::-1] or "0", 2)
        assert kernels.rows_of_triangle(t, n) == list(g.masks)
        assert kernels.rows_of_triangle(t | rng.getrandbits(9) << total, n) == list(g.masks)
        assert parse_graph6_line(dump_graph6(g)) == g
        key = int(bits or "0", 2)
        assert kernels.key_to_masks(key, n) == list(g.masks)
        assert kernels.key_to_masks(key | rng.getrandbits(9) << total, n) == list(g.masks)


@pytest.mark.parametrize("n", [2, 3, 5, 7, 63])
def test_graph6_padding_bits_each_refused(n):
    # every padding bit past the n(n-1)/2 of the triangle is refused with
    # the same message, and the last triangle bit is not padding
    s = dump_graph6(Graph(n, (0,) * n))
    head, body = s[:1 if n <= 62 else 4], s[1 if n <= 62 else 4:]
    need = n * (n - 1) // 2
    code = [ord(ch) - 63 for ch in body]
    for k in range(need - 1, 6 * len(body)):
        set_bit = code.copy()
        set_bit[k // 6] |= 32 >> k % 6
        line = head + "".join(chr(63 + c) for c in set_bit)
        if k < need:
            assert parse_graph6_line(line).edge_count == 1
        else:
            with pytest.raises(ParseError) as err:
                parse_graph6_line(line, path="x.g6", line_no=3)
            assert (err.value.message, err.value.path, err.value.line) == (
                "nonzero padding bits in graph6 body", "x.g6", 3)


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


def test_parser_and_from_facets_build_equal_complexes():
    # lists with repeated facets, facets inside others and vertices in no
    # facet: the parser reads them sorted, from_facets gets each facet
    # shuffled and with a vertex repeated, and both reduce them alike
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 14)
        facets = [tuple(sorted(rng.sample(range(n), rng.randint(1, min(n, 6))))) for _ in range(rng.randint(0, 12))]
        facets += [rng.choice(facets) for _ in range(rng.randint(0, 3))] if facets else []
        facets += [tuple(sorted(rng.sample(f, rng.randint(1, len(f))))) for f in facets[:rng.randint(0, 3)]]
        rng.shuffle(facets)
        text = f"{n} {len(facets)}\n" + "".join(" ".join(map(str, f)) + "\n" for f in facets)
        parsed = parse_facet_list(text)
        messy = [rng.sample(f, len(f)) + [f[0]] for f in facets]
        assert parsed == SimplicialComplex.from_facets(n, messy), text
        assert parsed.facets == brute_maximal_facets(facets), text


def test_cone_facet_list_is_reduced_in_linear_time():
    # every facet holds the apex 0: triangles over a path on 1..N, their
    # edges to the apex, contained, and N free edges from the apex.  Each
    # small facet is compared only with the facets through its other
    # vertex, not with all of them through the apex.
    N = 8000
    lines = [f"0 {v} {v + 1}" for v in range(1, N)] + [f"0 {v}" for v in range(1, 2 * N + 1)]
    text = f"{2 * N + 1} {len(lines)}\n" + "\n".join(lines) + "\n"
    start = time.perf_counter()
    k = parse_facet_list(text)
    assert time.perf_counter() - start < 1
    assert len(k.facets) == 2 * N - 1
    assert k.facets[:2] == ((0, 1, 2), (0, 2, 3)) and k.facets[-1] == (0, 2 * N)


def test_reduction_keeps_the_maximal_facets_and_their_skeleton():
    # lists with repeated facets, facets inside others, facets whose
    # vertices have a common neighbour but no facet holding them (the
    # boundary of a simplex) and vertices in no facet, and the pure list of
    # their facets of one size: the kept facets are the maximal ones, and
    # the rows the reduction built are the skeleton of the kept facets
    rng = random.Random(43)
    for _ in range(500):
        n = rng.randint(4, 16)
        facets = [tuple(sorted(rng.sample(range(n - 1), rng.randint(1, min(n - 1, 6)))))
                  for _ in range(rng.randint(1, 8))]
        hollow = rng.sample(range(n - 1), rng.randint(3, min(n - 1, 5)))
        facets += [tuple(sorted(face)) for face in combinations(hollow, len(hollow) - 1)]
        facets += [rng.choice(facets) for _ in range(rng.randint(0, 3))]
        facets += [tuple(sorted(rng.sample(f, rng.randint(1, len(f))))) for f in rng.sample(facets, 3)]
        rng.shuffle(facets)
        for lines in (facets, [f for f in facets if len(f) == len(hollow) - 1]):
            text = f"{n} {len(lines)}\n" + "".join(" ".join(map(str, f)) + "\n" for f in lines)
            for k in (parse_facet_list(text), SimplicialComplex.from_facets(n, lines)):
                assert k.facets == brute_maximal_facets(lines), text
                assert k.one_skeleton() == SimplicialComplex(n, k.facets).one_skeleton(), text


def _co_cycle(n):
    """The complement of the n-cycle."""
    c = gen_cycle(n)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if not c.has_edge(u, v)])


def test_dense_facet_list_is_reduced_in_linear_time(tmp_path):
    # the complement of C34 as its 14 197 maximal cliques of 12 to 17
    # vertices, 537 KB, every vertex in 5 842 of them: no clique has a
    # common neighbour, so each is kept without a scan
    k = clique_complex(_co_cycle(34))
    path = tmp_path / "co-c34.facets"
    path.write_text(dump_facet_list(k))
    start = time.perf_counter()
    [(_, parsed)] = load_instances(path)
    assert time.perf_counter() - start < 1
    assert len(parsed.facets) == 14197 and parsed == k
    assert parsed.one_skeleton() == _co_cycle(34)


def test_dense_facet_list_with_sub_faces_is_reduced_in_linear_time(tmp_path):
    # the same 14 197 cliques, each followed by itself less one vertex:
    # 28 394 lines, 1 MB.  Every sub-face has a common neighbour, and the
    # maximal clique grown from it by least common neighbours is a listed
    # line, so none is compared with other lines (17.5 s when each was)
    k = clique_complex(_co_cycle(34))
    rng = random.Random(1)
    lines = []
    for f in k.facets:
        i = rng.randrange(len(f))
        lines += [f, f[:i] + f[i + 1:]]
    path = tmp_path / "co-c34-sub.facets"
    path.write_text("34 28394\n" + "".join(" ".join(map(str, f)) + "\n" for f in lines))
    start = time.perf_counter()
    [(_, parsed)] = load_instances(path)
    assert time.perf_counter() - start < 2
    assert parsed == k
    assert parsed.one_skeleton() == _co_cycle(34)


def test_cycle_cone_reduction_keeps_no_mask_per_facet():
    # a cone over an 8 000-cycle: its triangles, apex edges and cycle
    # edges, 24 000 lines.  A vertex mask per facet took a peak of 21.5 MB;
    # the rows of the skeleton and the facet lists per vertex take under half
    N = 8000
    lines = [f"0 {v} {v + 1}" for v in range(1, N)] + [f"0 1 {N}"]
    lines += [f"0 {v}" for v in range(1, N + 1)] + [f"{v} {v + 1}" for v in range(1, N)] + [f"1 {N}"]
    text = f"{N + 1} {len(lines)}\n" + "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        k = parse_facet_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(k.facets) == N
    assert peak < 21.5 / 2 * 2**20


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
