"""Graph container, clique machinery, links, joins, multipartite search."""

import itertools
import math
import random

import pytest

from flagstone import (
    Graph,
    InvalidParameter,
    NotAClique,
    SimplicialComplex,
    contains_multipartite_subgraph,
    cycle_part_sizes,
    disjoint_union,
    dump_edge_list,
    dump_graph6,
    gen_complete_multipartite,
    gen_cycle,
    gen_grid_torus,
    gen_independent,
    gen_join_of_cycles,
    gen_suspension_sphere,
    graph_from_key,
    join,
    parse_edge_list,
    parse_graph6_line,
    verify_multipartite_witness,
)
from flagstone import kernels
from helpers import brute_maximal_cliques, random_graph


def test_construction_validates():
    Graph(2, (2, 1))
    with pytest.raises(InvalidParameter, match="^vertex count must be nonnegative$"):
        Graph(-1, ())
    with pytest.raises(InvalidParameter, match="^need one adjacency row per vertex$"):
        Graph(2, (2,))  # wrong length
    with pytest.raises(InvalidParameter, match="^self-loop at vertex 0$"):
        Graph(2, (3, 1))
    with pytest.raises(InvalidParameter, match=r"^adjacency not symmetric at \(1, 0\)$"):
        Graph(2, (2, 0))
    with pytest.raises(InvalidParameter, match=r"^row 0 mentions vertices outside 0\.\.0$"):
        Graph(1, (2,))  # out-of-range bit


def test_asymmetric_rows_name_the_first_unmirrored_pair():
    # an unmirrored bit above the diagonal, then one below it
    with pytest.raises(InvalidParameter, match=r"adjacency not symmetric at \(2, 0\)$"):
        Graph(3, (0b110, 0b001, 0))
    with pytest.raises(InvalidParameter, match=r"adjacency not symmetric at \(0, 2\)$"):
        Graph(3, (0, 0b100, 0b011))


def test_symmetry_check_matches_a_full_scan():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randrange(1, 12)
        rows = list(random_graph(n, rng.random(), rng).masks)
        for _ in range(rng.randrange(0, 3)):
            u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if u != v:
                rows[u] ^= 1 << v
        symmetric = all((rows[u] >> v) & 1 == (rows[v] >> u) & 1
                        for u in range(n) for v in range(n))
        if symmetric:
            assert Graph(n, tuple(rows)).masks == tuple(rows)
        else:
            with pytest.raises(InvalidParameter, match="not symmetric"):
                Graph(n, tuple(rows))


def test_from_edges_and_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.edge_count == 3
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(1) == 2
    assert g.neighbors(1) == (0, 2)
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)
    with pytest.raises(InvalidParameter):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(InvalidParameter):
        Graph.from_edges(2, [(0, 5)])


@pytest.mark.parametrize(
    "g",
    [
        gen_cycle(5),
        gen_grid_torus(4, 4),
        gen_join_of_cycles(3, 13),
        # C4*C4 beside an edge and an isolated vertex
        Graph.from_edges(11, gen_join_of_cycles(2, 8).edges() + [(8, 9)]),
        Graph(1, (0,)),
    ],
    ids=["C5", "torus-4x4", "join-C4-C4-C5", "join-with-strays", "K1"],
)
def test_edges_match_has_edge(g):
    assert g.edges() == [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.has_edge(u, v)]


def test_edge_editing():
    g = Graph.from_edges(3, [(0, 1)])
    g2 = g.with_edge(1, 2)
    assert g2.has_edge(1, 2) and not g.has_edge(1, 2)
    g3 = g2.without_edge(0, 1)
    assert not g3.has_edge(0, 1)
    assert g3.edge_count == 1


def test_clique_predicates():
    g = gen_cycle(5)
    assert g.is_clique(()) and g.is_clique((3,)) and g.is_clique((0, 1))
    assert not g.is_clique((0, 2))
    assert kernels.clique_number(g.masks, g.n) == 2
    assert g.clique_counts() == (1, 5, 5)
    assert g.clique_count(2) == 5
    assert g.clique_count(9) == 0
    with pytest.raises(InvalidParameter, match="^clique size must be nonnegative$"):
        g.clique_count(-1)


def test_maximal_cliques_match_brute():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng.randrange(0, 8), rng.random(), rng)
        assert list(g.maximal_cliques()) == brute_maximal_cliques(g)


def test_k_cliques_lists_all():
    g = gen_complete_multipartite((2, 2, 2))
    tris = kernels.k_cliques(g.masks, g.n, 3)
    assert len(tris) == 8
    assert all(g.is_clique(t) for t in tris)


def test_induced():
    g = gen_cycle(6)
    sub, vmap = g.induced((0, 1, 3))
    assert sub.n == 3
    assert sub.edge_count == 1  # only 0-1 survives
    assert vmap == (0, 1, 3)  # new index -> original vertex


def test_link_of_vertex_in_octahedron_is_c4():
    g = gen_suspension_sphere(4)
    lk, vmap = g.link((0,))
    assert lk.n == 4
    assert lk.edge_count == 4
    assert all(lk.degree(v) == 2 for v in range(4))  # a 4-cycle
    assert 0 not in vmap


def test_link_rejects_non_clique():
    g = gen_cycle(5)
    with pytest.raises(NotAClique):
        g.link((0, 2))
    assert g.link(()) [0] == g


def test_clique_tests_reject_vertices_out_of_range():
    # a negative vertex would index a row from the end, and one past n - 1
    # would read a missing row or no bit at all
    g = gen_cycle(5)
    for sigma in ((-1,), (7,), (-1, 0), (0, 9), (0, 1, 5)):
        with pytest.raises(InvalidParameter, match="out of range"):
            g.is_clique(sigma)
        with pytest.raises(InvalidParameter, match="out of range"):
            g.link(sigma)
    assert g.link((4,))[1] == (0, 3)
    # the accessors and edge edits name the first vertex outside 0..4
    for method, args, bad in (
        ("has_edge", (-1, 0), -1), ("has_edge", (0, 5), 5), ("degree", (-1,), -1),
        ("degree", (5,), 5), ("neighbors", (-1,), -1), ("with_edge", (-1, 2), -1),
        ("with_edge", (2, 9), 9), ("without_edge", (7, 1), 7), ("without_edge", (1, -3), -3),
    ):
        with pytest.raises(InvalidParameter, match=f"^vertex {bad} out of range$"):
            getattr(g, method)(*args)


def test_link_vs_induced_common_neighborhood():
    rng = random.Random(12)
    for _ in range(40):
        g = random_graph(rng.randrange(2, 8), 0.6, rng)
        for size in (1, 2):
            for sigma in itertools.combinations(range(g.n), size):
                if not g.is_clique(sigma):
                    continue
                lk, vmap = g.link(sigma)
                common = [u for u in range(g.n) if u not in sigma
                          and all(g.has_edge(u, v) for v in sigma)]
                assert sorted(vmap) == common
                inv = {old: new for new, old in enumerate(vmap)}
                for a, b in itertools.combinations(common, 2):
                    assert lk.has_edge(inv[a], inv[b]) == g.has_edge(a, b)


def test_join_counts():
    g = join(gen_cycle(5), gen_cycle(5))
    assert g.n == 10 and g.edge_count == 5 + 5 + 25
    e = join(Graph(0, ()), gen_cycle(4))
    assert e.masks == gen_cycle(4).masks
    # clique counts multiply across a join
    a, b = gen_cycle(4), gen_cycle(5)
    ca, cb, cj = a.clique_counts(), b.clique_counts(), join(a, b).clique_counts()
    for k in range(len(cj)):
        assert cj[k] == sum(
            ca[i] * cb[k - i]
            for i in range(len(ca))
            if 0 <= k - i < len(cb)
        )


@pytest.mark.parametrize("s, n", [(1, 7), (3, 17), (30, 243)])
def test_wide_join_counts_are_the_cycle_polynomial_product(s, n):
    # a cycle on c >= 4 vertices has c vertices, c edges and no triangle, so
    # the join's clique counts are the coefficients of prod (1 + c x + c x^2)
    poly = [1]
    for c in cycle_part_sizes(s, n):
        poly = [a + c * b + c * e for a, b, e in zip(poly + [0, 0], [0] + poly + [0], [0, 0] + poly)]
    for k in (0, 1, 2, s, s + 1, 2 * s, 2 * s + 1, 2 * s + 4):
        # a fresh graph each time, so no full vector is cached to slice
        assert gen_join_of_cycles(s, n).clique_count(k) == (poly[k] if k < len(poly) else 0)
        assert gen_join_of_cycles(s, n).clique_counts(k) == tuple(poly[:k + 1]) + (0,) * (k + 1 - len(poly))


def test_disjoint_union():
    g = disjoint_union(gen_cycle(4), gen_cycle(5))
    assert g.n == 9 and g.edge_count == 9
    assert not any(g.has_edge(u, v) for u in range(4) for v in range(4, 9))


def test_relabel_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        g = random_graph(rng.randrange(1, 8), rng.random(), rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        inv = [0] * g.n
        for v, p in enumerate(perm):
            inv[p] = v
        assert h.relabel(inv).masks == g.masks
        assert h.canonical_key() == g.canonical_key()


def test_multipartite_positive_controls():
    for pattern in ((1, 3), (1, 3, 3), (2, 2, 2)):
        g = gen_complete_multipartite(pattern)
        found, witness = contains_multipartite_subgraph(g, pattern)
        assert found
        assert verify_multipartite_witness(g, pattern, witness)


def test_multipartite_negatives():
    found, witness = contains_multipartite_subgraph(gen_cycle(6), (1, 3))
    assert not found and witness is None
    g = join(gen_cycle(5), gen_cycle(5))
    found, witness = contains_multipartite_subgraph(g, (1, 3, 3))
    assert not found and witness is None


def test_multipartite_subgraph_not_induced():
    # parts need not be independent: any degree-3 vertex hosts a K(1,3)
    g = gen_suspension_sphere(4)
    found, witness = contains_multipartite_subgraph(g, (1, 3))
    assert found
    assert verify_multipartite_witness(g, (1, 3), witness)


def test_multipartite_witness_checker_rejects_bad():
    g = gen_complete_multipartite((1, 3))
    assert not verify_multipartite_witness(g, (1, 3), ((1,), (0, 2, 3)))  # 0 is the apex
    assert not verify_multipartite_witness(g, (1, 3), ((0,), (1, 2)))  # wrong sizes
    assert not verify_multipartite_witness(g, (1, 3), ((0,), (0, 1, 2)))  # overlap


def test_multipartite_matches_brute():
    def brute(g, pattern):
        verts = range(g.n)
        for assign in itertools.product(range(len(pattern) + 1), repeat=g.n):
            parts = [[v for v in verts if assign[v] == i + 1] for i in range(len(pattern))]
            if [len(p) for p in parts] != list(pattern):
                continue
            if all(
                g.has_edge(u, v)
                for a, b in itertools.combinations(range(len(pattern)), 2)
                for u in parts[a]
                for v in parts[b]
            ):
                return True
        return False

    rng = random.Random(14)
    for _ in range(25):
        g = random_graph(rng.randrange(3, 7), rng.random(), rng)
        for pattern in ((1, 2), (2, 2), (1, 1, 2)):
            got, witness = contains_multipartite_subgraph(g, pattern)
            assert got == brute(g, pattern)
            if got:
                assert verify_multipartite_witness(g, pattern, witness)


def test_clique_counts_complete_graph():
    n = 9
    g = gen_complete_multipartite((1,) * n)
    assert g.clique_counts() == tuple(math.comb(n, k) for k in range(n + 1))


@pytest.mark.parametrize("make", [lambda: gen_grid_torus(4, 5), lambda: gen_join_of_cycles(2, 9)],
                         ids=["prime", "join"])
def test_truncated_counts_slice_the_cached_vector(monkeypatch, make):
    g = make()
    full = g.clique_counts()

    def refuse(*args):
        raise AssertionError("a kernel was called")

    for name in ("clique_counts", "clique_census", "maximal_cliques"):
        monkeypatch.setattr(kernels, name, refuse)
    for kmax in range(len(full) + 3):
        assert g.clique_counts(kmax) == (full + (0, 0, 0))[:kmax + 1]
    assert [g.clique_count(k) for k in range(len(full) + 3)] == list(full) + [0, 0, 0]


def test_census_keeps_the_cached_maximal_cliques(monkeypatch):
    # Bron-Kerbosch first: the full vector still comes from the census, which
    # leaves the cached tuple in place
    def refuse(*args):
        raise AssertionError("capped count called")

    monkeypatch.setattr(kernels, "clique_counts", refuse)
    g = gen_grid_torus(4, 5)
    cliques = g.maximal_cliques()
    assert g.clique_counts() == (1, 20, 60, 40)
    assert g.maximal_cliques() is cliques


def _components(n, adjacent):
    """The components of the graph on 0..n-1 that `adjacent` defines, as
    sorted vertex tuples ordered by lowest vertex, by brute force."""
    parts, seen = [], set()
    for v in range(n):
        if v in seen:
            continue
        part, stack = {v}, [v]
        while stack:
            w = stack.pop()
            for u in range(n):
                if u not in part and adjacent(u, w):
                    part.add(u)
                    stack.append(u)
        seen |= part
        parts.append(tuple(sorted(part)))
    return parts


def test_is_connected():
    # also the join factors, which are the components of the complement
    assert Graph(0, ()).is_connected() and Graph(1, (0,)).is_connected()
    assert not Graph(2, (0, 0)).is_connected()
    assert gen_cycle(6).is_connected()
    assert not disjoint_union(gen_cycle(3), gen_cycle(4)).is_connected()
    rng = random.Random(15)
    graphs = [random_graph(rng.randrange(1, 9), rng.choice([0.1, 0.3, 0.5]), rng) for _ in range(40)]
    graphs += [random_graph(rng.randrange(65, 90), p, rng) for p in (0.01, 0.03, 0.97, 0.99)]
    graphs += [disjoint_union(graphs[-4], gen_cycle(3)), join(graphs[-1], graphs[-2])]
    for g in graphs:
        assert g.is_connected() == (len(_components(g.n, g.has_edge)) == 1)
        factors = _components(g.n, lambda u, v: not g.has_edge(u, v))
        assert [vmap for _, vmap in g.join_factors()] == factors


def _trusted_builds(rng):
    """(name, graph) for every builder whose rows skip the constructor's
    scan, on inputs drawn from rng."""
    n = rng.randint(1, 12)
    g = random_graph(n, rng.random(), rng)
    h = random_graph(rng.randint(0, 6), rng.random(), rng)
    u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
    clique = rng.choice(g.maximal_cliques())
    facets = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(0, 5))]
    perm = rng.sample(range(n), n)
    yield "gen_cycle", gen_cycle(rng.randint(3, 12))
    yield "gen_independent", gen_independent(rng.randint(0, 6))
    yield "gen_complete_multipartite", gen_complete_multipartite(
        [rng.randint(1, 4) for _ in range(rng.randint(1, 4))])
    s = rng.randint(1, 3)
    yield "gen_join_of_cycles", gen_join_of_cycles(s, rng.randint(4 * s, 4 * s + 5))
    yield "gen_suspension_sphere", gen_suspension_sphere(rng.randint(4, 9))
    yield "gen_grid_torus", gen_grid_torus(rng.randint(4, 6), rng.randint(4, 6))
    yield "parse_edge_list", parse_edge_list(dump_edge_list(g))
    yield "parse_graph6_line", parse_graph6_line(dump_graph6(g))
    yield "one_skeleton", SimplicialComplex.from_facets(n, facets).one_skeleton()
    yield "induced", g.induced(rng.sample(range(n), rng.randint(0, n)))[0]
    yield "link", g.link(clique[:rng.randint(0, len(clique))])[0]
    yield "relabel", g.relabel(perm)
    if u != v:
        yield "with_edge", g.with_edge(u, v)
        yield "without_edge", g.without_edge(u, v)
    yield "join", join(g, h)
    yield "disjoint_union", disjoint_union(g, h)
    yield "from_edges", Graph.from_edges(n, g.edges())
    yield "graph_from_key", graph_from_key(rng.getrandbits(n * (n - 1) // 2 + 3), n)


@pytest.mark.parametrize("seed", range(8))
def test_trusted_builders_yield_rows_the_constructor_accepts(seed):
    for name, g in _trusted_builds(random.Random(seed)):
        assert type(g) is Graph and type(g.masks) is tuple, name
        assert Graph(g.n, g.masks) == g, name


def test_negative_vertex_count_is_refused_without_the_scan():
    with pytest.raises(InvalidParameter, match="^vertex count must be nonnegative$"):
        Graph.from_edges(-1, [])
    with pytest.raises(InvalidParameter, match="^vertex count must be nonnegative$"):
        graph_from_key(0, -1)


def test_edge_count_is_cached():
    g = gen_join_of_cycles(2, 9)
    assert "edge_count" not in g.__dict__
    assert g.edge_count == len(g.edges()) == g.__dict__["edge_count"]
