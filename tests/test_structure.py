"""Flagness, weak pseudomanifolds, the level test, and almost-join
partitions with their restriction/link calculus."""

import itertools
import random

from fractions import Fraction

import pytest

from flagstone import (
    Graph,
    InvalidParameter,
    InvalidPartition,
    LeveledVerdict,
    NotAClique,
    PartitionWitness,
    PreconditionFailed,
    SimplicialComplex,
    bollobas_lower_bound,
    check_lemma_independent_bound,
    clique_complex,
    cycle_part_sizes,
    default_alpha,
    default_eta,
    detect_level,
    disjoint_union,
    dump_facet_list,
    extract_partition,
    find_transversal_clique,
    gen_complete_multipartite,
    gen_cycle,
    gen_grid_torus,
    gen_join_of_cycles,
    gen_suspension_sphere,
    graph_from_key,
    is_d_leveled,
    is_flag,
    is_weak_pseudomanifold,
    join,
    parse_facet_list,
    restrict_witness,
    verify_type_partition,
    witness_link,
)
from flagstone import _kernels_py, kernels
from flagstone.complexes import maximal_cliques_are_facets
from flagstone.search import check_instance
from helpers import (
    all_graphs,
    brute_flag_witness,
    brute_is_d_leveled,
    brute_is_weak_pseudomanifold,
    brute_unpaired_ridge,
    random_graph,
    reference_is_d_leveled,
    unpruned_classes,
)


# -- flagness -----------------------------------------------------------


def test_hollow_triangle_is_not_flag():
    k = SimplicialComplex.from_facets(3, [(0, 1), (1, 2), (0, 2)])
    ok, witness = is_flag(k)
    assert not ok and witness == (0, 1, 2)


def test_clique_complexes_are_flag():
    rng = random.Random(31)
    for _ in range(30):
        g = random_graph(rng.randrange(1, 8), rng.random(), rng)
        ok, witness = is_flag(clique_complex(g))
        assert ok and witness is None


def test_flag_matches_brute():
    rng = random.Random(32)
    complexes = [
        SimplicialComplex.from_facets(0, []),  # void
        SimplicialComplex.from_facets(2, [()]),  # {()}
        SimplicialComplex.from_facets(7, [(1, 2), (2, 3), (1, 3)]),  # unused ambient vertices
        SimplicialComplex.from_facets(6, [(0, 1, 2), (4,)]),
        SimplicialComplex.from_facets(4, [(0,), (1,), (2, 3)]),  # single-vertex facets
        SimplicialComplex.from_facets(6, [tuple(range(6))]),  # lone simplex facet
        SimplicialComplex.from_facets(5, itertools.combinations(range(5), 4)),  # bd4
        # two hollow triangles, and a hollow tetrahedron before a hollow triangle
        SimplicialComplex.from_facets(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        SimplicialComplex.from_facets(7, [*itertools.combinations(range(4), 3), (4, 5), (5, 6), (4, 6)]),
    ]
    for _ in range(60):
        g = random_graph(rng.randrange(1, 7), rng.random(), rng)
        # drop some top faces to create non-flag complexes
        facets = list(clique_complex(g).facets)
        if facets and rng.random() < 0.6:
            big = max(facets, key=len)
            if len(big) >= 3:
                facets.remove(big)
                facets.extend(itertools.combinations(big, len(big) - 1))
        complexes.append(SimplicialComplex.from_facets(g.n, facets))
    for k in complexes:
        witness = brute_flag_witness(k)
        assert is_flag(k) == (witness is None, witness), k
    assert is_flag(complexes[5]) == (True, None)
    assert is_flag(complexes[6]) == (False, (0, 1, 2, 3, 4))
    assert is_flag(complexes[7]) == (False, (0, 1, 2))
    assert is_flag(complexes[8]) == (False, (4, 5, 6))


def test_flag_test_lists_at_most_its_limit_of_cliques(monkeypatch):
    # the edges of the complement of a 30-vertex path: a prime skeleton with
    # about 2.2 million cliques, while a flag complex with these 406 edge
    # facets has at most 4 * 406 + 30 + 1 cliques.  The Python census reads
    # one row per clique it visits, so counting the reads counts the cliques.
    n = 30
    k = SimplicialComplex.from_facets(n, [(u, v) for u in range(n) for v in range(u + 2, n)])
    reads, limits = [], []

    class Rows(tuple):
        def __getitem__(self, v):
            reads.append(v)
            return tuple.__getitem__(self, v)

    def census(masks, n, limit=-1):
        limits.append(limit)
        return _kernels_py.clique_census(Rows(masks), n, limit)

    monkeypatch.setattr(kernels, "clique_census", census)
    assert is_flag(k) == (False, (0, 2, 4))
    assert limits == [4 * 406 + 30 + 1]
    assert 0 < len(reads) <= limits[0]


def _gadgets(count):
    """Hollow triangles xyz, each with the triangles xya, yzb and xzc on its
    edges, on the vertices 6i to 6i + 5."""
    facets = []
    for base in range(0, 6 * count, 6):
        x, y, z, a, b, c = range(base, base + 6)
        facets += [(x, y, a), (y, z, b), (x, z, c)]
    return facets


@pytest.mark.parametrize("backend", ["py", "c"])
def test_flag_test_needs_both_of_its_checks(backend, request, monkeypatch):
    monkeypatch.setattr(kernels, "_c", request.getfixturevalue("compiled_kernels") if backend == "c" else None)
    # three gadgets beside the boundary of a tetrahedron have as many
    # maximal cliques as facets, but a tetrahedron's triangle is not a
    # maximal clique; one gadget alone has only maximal cliques as facets,
    # but one maximal clique more than facets
    both = SimplicialComplex.from_facets(22, _gadgets(3) + list(itertools.combinations(range(18, 22), 3)))
    one = SimplicialComplex.from_facets(6, _gadgets(1))
    for k, counts in ((both, (13, 13)), (one, (3, 4))):
        g = k.one_skeleton()
        assert (len(k.facets), len(kernels.maximal_cliques(g.masks, g.n))) == counts
        assert maximal_cliques_are_facets(k) is False
        assert is_flag(k) == (False, (0, 1, 2))
        assert check_instance("x", k)["flag"] == {"verdict": False, "witness": [0, 1, 2]}
    # {()} and the void complex, whose support skeletons have no vertex
    for k in (SimplicialComplex.from_facets(2, [()]), SimplicialComplex.from_facets(2, [])):
        assert maximal_cliques_are_facets(k) is True
        assert is_flag(k) == (True, None)
        assert check_instance("x", k)["flag"] == {"verdict": True}


# -- weak pseudomanifolds ----------------------------------------------


def test_wpm_examples():
    octa = clique_complex(gen_suspension_sphere(4))
    assert is_weak_pseudomanifold(octa, 2)[0]
    circle = clique_complex(gen_cycle(5))
    assert is_weak_pseudomanifold(circle, 1)[0]
    path = SimplicialComplex.from_facets(3, [(0, 1), (1, 2)])
    ok, witness = is_weak_pseudomanifold(path, 1)
    assert not ok and witness[0] == "ridge"
    impure = SimplicialComplex.from_facets(4, [(0, 1, 2), (2, 3)])
    ok, witness = is_weak_pseudomanifold(impure, 2)
    assert not ok and witness[0] == "impure"
    void = SimplicialComplex.from_facets(0, [])
    assert not is_weak_pseudomanifold(void, 1)[0]


def test_wpm_matches_brute():
    rng = random.Random(33)
    complexes = [clique_complex(random_graph(rng.randrange(1, 7), rng.random(), rng)) for _ in range(80)]
    # random pure complexes, and simplex boundaries, which pass
    for _ in range(300):
        n, size = rng.randrange(1, 8), rng.randrange(2, 5)
        cells = list(itertools.combinations(range(n), size))
        complexes.append(SimplicialComplex.from_facets(n, [c for c in cells if rng.random() < 0.5]))
    complexes += [SimplicialComplex.from_facets(d + 2, itertools.combinations(range(d + 2), d + 1)) for d in (1, 2, 3)]
    for k in complexes:
        for d in (1, 2, 3):
            ok, witness = is_weak_pseudomanifold(k, d)
            assert ok == brute_is_weak_pseudomanifold(k, d)
            if k.facets and all(len(f) == d + 1 for f in k.facets):
                ridge = brute_unpaired_ridge(k.facets)
                assert witness == (None if ridge is None else ("ridge", *ridge)), k


def _flag_complexes():
    """Facet-list round trips of the clique complexes of the corpus
    families and of one graph per isomorphism class on 1..6 vertices."""
    graphs = [gen_grid_torus(p, q) for p in (4, 5, 6) for q in (4, 5)]
    graphs += [gen_join_of_cycles(s, n) for s in (1, 2, 3) for n in range(4 * s, 4 * s + 5)]
    graphs += [gen_suspension_sphere(k) for k in range(4, 9)]
    graphs += [graph_from_key(key, n) for n, keys in unpruned_classes(6).items() for key in keys]
    return [parse_facet_list(dump_facet_list(clique_complex(g))) for g in graphs]


def test_level_verdict_of_a_flag_complex_is_its_pseudomanifold_verdict():
    # check_instance takes a passing level test of a flag complex's support
    # skeleton as its pseudomanifold verdict, and runs the ridge count only
    # on a failing one; the verdicts agree, so the shortcut is exact
    complexes = _flag_complexes()
    assert sum(detect_level(k.support_skeleton())[1].is_leveled for k in complexes) >= 25
    for k in complexes:
        assert k.facets and all(k.facets) and is_flag(k)[0]
        assert detect_level(k.support_skeleton())[1].is_leveled == is_weak_pseudomanifold(k, k.dimension)[0]


# -- the level test -----------------------------------------------------


def test_leveled_examples():
    assert is_d_leveled(gen_cycle(5), 1).is_leveled
    assert is_d_leveled(gen_suspension_sphere(4), 2).is_leveled
    assert is_d_leveled(join(gen_cycle(5), gen_cycle(5)), 3).is_leveled
    assert is_d_leveled(gen_grid_torus(4, 4), 2).is_leveled  # chi = 0, still passes
    assert not is_d_leveled(gen_cycle(5), 2).is_leveled
    assert not is_d_leveled(gen_complete_multipartite((1, 1, 1)), 1).is_leveled
    assert not is_d_leveled(Graph(0, ()), 1).is_leveled


def test_leveled_witness_shapes():
    v = is_d_leveled(gen_complete_multipartite((1, 1, 1)), 1)
    assert v.witness[0] == "maximal-clique"
    # K4 violates both conditions at d=1, but one violation settles the test
    v = is_d_leveled(gen_complete_multipartite((1, 1, 1, 1)), 1)
    assert v.witness == ("maximal-clique", (0, 1, 2, 3))
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    v = is_d_leveled(star, 1)
    assert not v.is_leveled
    v = is_d_leveled(Graph(0, ()), 3)
    assert v.witness == ("empty",)


def test_leveled_matches_brute_small():
    rng = random.Random(34)
    for _ in range(120):
        g = random_graph(rng.randrange(1, 7), rng.random(), rng)
        for d in (1, 2, 3):
            assert is_d_leveled(g, d).is_leveled == brute_is_d_leveled(g, d), (g.masks, d)


def test_ridge_test_matches_reference():
    graphs = [g for n in range(7) for g in all_graphs(n)]
    rng = random.Random(35)
    graphs += [random_graph(rng.randrange(7, 13), rng.random(), rng) for _ in range(400)]
    # pure joins of cycles pass at d = 3; strays and a missing edge do not
    c4, c5 = gen_cycle(4), gen_cycle(5)
    graphs += [join(c4, c5), join(c4, c5).without_edge(0, 4), join(c4, gen_cycle(6))]
    for g in graphs:
        for d in range(5):
            verdict = is_d_leveled(g, d)
            assert (verdict.is_leveled, verdict.witness) == reference_is_d_leveled(g, d), (g.masks, d)


def test_ridge_test_named_cases():
    # two triangles on a shared edge: every maximal clique has 3 vertices,
    # but the ridge (0, 1) lies in one triangle only
    kite = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert is_d_leveled(kite, 2).witness == ("link", (0, 1), (2,))
    assert is_d_leveled(Graph(2, (0, 0)), 0) == LeveledVerdict(True, 0)
    assert is_d_leveled(Graph(3, (0, 0, 0)), 0).witness == ("link", (), (0, 1, 2))


def test_ridge_scan_decides_and_names_without_the_link_kernel(monkeypatch):
    # two disjoint cross-polytope skeletons O_12: one join factor whose
    # 2 * 2^12 maximal cliques all have 12 vertices.  The ridge count reads
    # the 12 ridges of each clique; the link kernel at d = 11 would step
    # through every smaller clique, about 3^12 per copy, so it never runs
    calls = []
    kernel = kernels.leveled_violation

    def counted(masks, n, d):
        calls.append((n, d))
        return kernel(masks, n, d)

    monkeypatch.setattr(kernels, "leveled_violation", counted)
    o = gen_complete_multipartite([2] * 12)
    g = disjoint_union(o, o)
    assert len(g.join_factors()) == 1
    assert detect_level(g) == (11, LeveledVerdict(True, 11))
    # the kite is K1 * K1 * (two isolated vertices); the ridge of each K1
    # is the empty clique, in one maximal clique, and the count names it
    kite = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert is_d_leveled(kite, 2).witness == ("link", (0, 1), (2,))
    # O_13 + K_13 fails late, at the clique K_13 after all 2^13 of O_13
    o, k = gen_complete_multipartite([2] * 13), gen_complete_multipartite([1] * 13)
    assert detect_level(disjoint_union(o, k)) == (12, LeveledVerdict(False, 12, ("link", tuple(range(26, 38)), (38,))))
    assert detect_level(disjoint_union(k, o)) == (12, LeveledVerdict(False, 12, ("link", tuple(range(12)), (12,))))
    assert calls == []


def test_ridge_scan_names_the_link_kernel_witness():
    # with one maximal-clique size k the (k-1)-cliques are exactly the
    # ridges, so the least failing ridge is the link kernel's at k - 1
    rng = random.Random(113)
    graphs = []
    for k in range(1, 7):
        o, kk = gen_complete_multipartite([2] * k), gen_complete_multipartite([1] * k)
        graphs += [disjoint_union(o, kk), disjoint_union(kk, o), disjoint_union(o, o)]
    while len(graphs) < 400:
        g = random_graph(rng.randrange(1, 11), rng.random(), rng)
        if len(g.maximal_clique_sizes()) == 1:
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs += [g, g.relabel(perm)]
    for g in graphs:
        k = g.maximal_clique_sizes()[0]
        assert g.ridge_violation == kernels.leveled_violation(g.masks, g.n, k - 1), g.masks
    assert sum(g.ridge_violation is None for g in graphs) > 20


# -- type partitions ----------------------------------------------------


def test_verify_type_partition_accepts_join():
    g = join(gen_cycle(5), gen_cycle(5))
    w = PartitionWitness(t=2, eta=0, C=0, parts=(tuple(range(5)), tuple(range(5, 10))))
    assert bool(verify_type_partition(g, w))


def test_verify_type_partition_exact_threshold():
    g = gen_complete_multipartite((5, 5)).without_edge(0, 5)
    parts = (tuple(range(5)), tuple(range(5, 10)))
    # vertex 0 has cross-degree 4 = 5 (1 - 1/5): eta = 1/5 is tight
    ok = verify_type_partition(g, PartitionWitness(t=2, eta=Fraction(1, 5), C=0, parts=parts))
    assert ok.type_ok
    bad = verify_type_partition(g, PartitionWitness(t=2, eta=Fraction(1, 10), C=0, parts=parts))
    assert not bad.type_ok
    assert bad.failure[0] in (0, 5) and bad.failure[3] == Fraction(9, 2)


def test_verify_type_partition_extra_clauses():
    g = gen_complete_multipartite((5, 5))
    parts = (tuple(range(5)), tuple(range(5, 10)))
    w = PartitionWitness(t=2, eta=0, C=0, parts=parts, alpha=Fraction(1, 10), m=5)
    diag = verify_type_partition(g, w)
    assert diag.ok and diag.large_ok and diag.flat_ok
    w2 = PartitionWitness(t=2, eta=0, C=0, parts=parts, m=6)
    assert verify_type_partition(g, w2).large_ok is False
    w3 = PartitionWitness(t=2, eta=0, C=0, parts=parts, alpha=0)
    assert verify_type_partition(g, w3).flat_ok is True


def test_verify_type_partition_rejects_bad_cover():
    g = gen_complete_multipartite((2, 2))
    with pytest.raises(InvalidPartition):
        verify_type_partition(g, PartitionWitness(t=2, eta=0, C=0, parts=((0, 1), (1, 2)), X=(3,)))
    with pytest.raises(InvalidPartition):
        verify_type_partition(g, PartitionWitness(t=1, eta=0, C=0, parts=((0, 1),)))
    with pytest.raises(InvalidPartition):
        PartitionWitness(t=3, eta=0, C=0, parts=((0,), (1,)))


def test_witness_json_roundtrip():
    w = PartitionWitness(
        t=2, eta=Fraction(1, 7), C=3, parts=((0, 1), (2, 3)), X=(4,), alpha=Fraction(1, 9), m=2
    )
    data = w.to_json_dict()
    assert data["eta"] == "1/7" and data["parts"] == [[0, 1], [2, 3]]
    assert PartitionWitness.from_json_dict(data) == w
    lean = PartitionWitness(t=1, eta=0, C=0, parts=((0, 1, 2),))
    assert set(lean.to_json_dict()) == {"t", "eta", "C", "parts", "X"}
    assert PartitionWitness.from_json_dict(lean.to_json_dict()) == lean


def test_extract_partition_recovers_examples():
    w = extract_partition(gen_complete_multipartite((5, 5)), 2, Fraction(1, 10))
    # reported eta never drops below the request, even when the parts are exact
    assert w.eta == Fraction(1, 10) and w.X == () and sorted(map(len, w.parts)) == [5, 5]
    g = gen_join_of_cycles(3, 30)
    w = extract_partition(g, 3, Fraction(1, 10))
    assert w.eta == Fraction(1, 10) and w.X == ()
    assert sorted(w.parts) == [tuple(range(10)), tuple(range(10, 20)), tuple(range(20, 30))]


@pytest.mark.parametrize("s", [2, 3])
def test_extract_partition_finds_the_cycles_of_every_join(s):
    # at odd n the cycles differ in length; each vertex is measured against
    # the size of the other cycle, not against n / s
    for n in range(4 * s, 31):
        g = gen_join_of_cycles(s, n)
        w = extract_partition(g, s, Fraction(1, 10))
        assert w.X == () and w.eta == Fraction(1, 10), n
        assert bool(verify_type_partition(g, w))
        sizes = cycle_part_sizes(s, n)
        ends = list(itertools.accumulate(sizes, initial=0))
        cycles = [tuple(range(a, b)) for a, b in zip(ends, ends[1:])]
        if min(sizes) >= 5:
            assert sorted(w.parts) == cycles, n
        else:
            # a 4-cycle is itself a join of two non-edges, so the parts may
            # regroup those; they are still unions of join factors
            factors = [set(vmap) for _, vmap in g.join_factors()]
            assert sorted(map(len, w.parts)) == sorted(sizes), n
            assert all(f <= set(p) or not f & set(p) for p in w.parts for f in factors), n


def test_extract_partition_absorbs_deficient_vertices_into_x():
    # at a tight eta the half-eta cut moves both endpoints of the deleted
    # cross edge into X rather than weakening the witness
    g = gen_join_of_cycles(2, 10).without_edge(0, 5)
    w = extract_partition(g, 2, Fraction(1, 100))
    assert set(w.X) == {0, 5} and w.eta == Fraction(1, 100)
    assert bool(verify_type_partition(g, w))
    # at a loose eta the endpoints survive and the request is already met
    w2 = extract_partition(g, 2, Fraction(1, 2))
    assert w2.X == () and w2.eta == Fraction(1, 2)
    assert sorted(w2.parts) == [tuple(range(5)), tuple(range(5, 10))]


def test_extract_partition_sends_low_degree_vertex_to_x():
    base = join(gen_cycle(5), gen_cycle(5))
    masks = list(base.masks) + [0]
    for u in (0, 3, 7):  # three arbitrary attachments
        masks[u] |= 1 << 10
        masks[10] |= 1 << u
    g = Graph(11, tuple(masks))
    w = extract_partition(g, 2, Fraction(1, 5))
    assert w.X == (10,)
    assert sorted(w.parts) == [tuple(range(5)), tuple(range(5, 10))]
    assert bool(verify_type_partition(g, w))


def test_extract_partition_deterministic_and_validated():
    g = gen_join_of_cycles(2, 14)
    a = extract_partition(g, 2, Fraction(1, 4), seed=5)
    b = extract_partition(g, 2, Fraction(1, 4), seed=5)
    assert a == b
    with pytest.raises(InvalidParameter):
        extract_partition(g, 15, Fraction(1, 4))
    with pytest.raises(InvalidParameter):
        extract_partition(g, 0, Fraction(1, 4))


def test_extract_partition_seed_parts():
    g = gen_complete_multipartite((4, 4))
    w = extract_partition(g, 2, Fraction(1, 10), seed_parts=((0, 1, 2, 3), (4, 5, 6, 7)))
    assert w.eta == Fraction(1, 10) and w.X == ()
    assert sorted(w.parts) == [(0, 1, 2, 3), (4, 5, 6, 7)]
    with pytest.raises(InvalidPartition):
        extract_partition(g, 2, Fraction(1, 10), seed_parts=((0, 1), (2, 3)))


def test_find_transversal_clique():
    g = gen_complete_multipartite((6, 6, 6))
    w = extract_partition(g, 3, Fraction(1, 10))
    c = find_transversal_clique(g, w)
    assert c is not None and len(c) == 3 and g.is_clique(c)
    # independent parts with no cross edges: no transversal exists
    empty = Graph(4, (0, 0, 0, 0))
    w2 = PartitionWitness(t=2, eta=1, C=0, parts=((0, 1), (2, 3)))
    assert find_transversal_clique(empty, w2) is None


def test_restriction_rescales_eta():
    # Fact: T_i >= beta |S_i| turns a type (t, eta) witness into (t, eta/beta)
    rng = random.Random(35)
    for _ in range(25):
        s, n = rng.choice([(2, 10), (2, 14), (3, 18)])
        g = gen_join_of_cycles(s, n)
        w = extract_partition(g, s, Fraction(1, 2))
        # delete a few cross edges to give eta something to do
        for _ in range(rng.randrange(0, 3)):
            u = rng.choice(w.parts[0])
            v = rng.choice(w.parts[1])
            if g.has_edge(u, v):
                g = g.without_edge(u, v)
        w = extract_partition(g, s, Fraction(1, 2))
        subsets = [rng.sample(p, rng.randrange(max(1, len(p) - 2), len(p) + 1)) for p in w.parts]
        sub, wr = restrict_witness(g, w, subsets)
        beta = min(Fraction(len(ts), len(p)) for ts, p in zip(subsets, w.parts))
        assert wr.eta == w.eta / beta
        assert bool(verify_type_partition(sub, wr))


def test_restriction_validates_subsets():
    g = gen_complete_multipartite((3, 3))
    w = extract_partition(g, 2, 0)
    with pytest.raises(InvalidParameter):
        restrict_witness(g, w, [(), w.parts[1]])
    with pytest.raises(InvalidParameter):
        restrict_witness(g, w, [w.parts[0]])
    with pytest.raises(InvalidParameter):
        restrict_witness(g, w, [w.parts[1], w.parts[1]])


def test_common_neighborhood_lower_bound():
    # Fact: for P inside other parts, |S_j cap common N(P)| >= (1 - eta |P|) |S_j|
    rng = random.Random(36)
    for _ in range(25):
        g = gen_join_of_cycles(2, 12)
        for _ in range(rng.randrange(0, 3)):
            g2 = g.without_edge(rng.randrange(0, 6), 6 + rng.randrange(0, 6))
            g = g2
        w = extract_partition(g, 2, Fraction(1, 4))
        if w.eta >= Fraction(1, 2):
            continue
        for j, own in enumerate(w.parts):
            other = w.parts[1 - j]
            for size in (1, 2, 3):
                if size > len(other):
                    continue
                pset = rng.sample(other, size)
                common = set(own)
                for v in pset:
                    common &= {u for u in own if g.has_edge(u, v)}
                assert len(common) >= (1 - w.eta * size) * len(own)


def test_transversal_greedy_succeeds_under_eta_bound():
    # Fact: a type witness with eta (t-1) < 1 always yields a transversal clique
    rng = random.Random(37)
    for _ in range(25):
        s, n = rng.choice([(2, 12), (3, 15), (3, 18)])
        g = gen_join_of_cycles(s, n)
        if rng.random() < 0.5:
            u = rng.randrange(0, n // s)
            v = n // s + rng.randrange(0, n - n // s)
            if g.has_edge(u, v):
                g = g.without_edge(u, v)
        w = extract_partition(g, s, Fraction(1, 5))
        if w.eta * (s - 1) >= 1:
            continue
        c = find_transversal_clique(g, w)
        assert c is not None and g.is_clique(c) and len(c) == s


def test_link_type_rescaling():
    # Fact: link of a clique in the parts is type (t-k, eta (1 - eta|sigma|)^-1)
    rng = random.Random(38)
    for _ in range(25):
        g = gen_join_of_cycles(3, 15)
        for _ in range(rng.randrange(0, 3)):
            u, v = rng.randrange(0, 5), 5 + rng.randrange(0, 10)
            if g.has_edge(u, v):
                g = g.without_edge(u, v)
        w = extract_partition(g, 3, Fraction(1, 4))
        # sigma: an edge of the first part's cycle, or a cross pair
        p0 = list(w.parts[0])
        a = rng.choice(p0)
        nbrs_in = [v for v in p0 if g.has_edge(a, v)]
        if rng.random() < 0.5 and nbrs_in:
            sigma = (a, rng.choice(nbrs_in))
        else:
            b = rng.choice(list(w.parts[1]))
            if not g.has_edge(a, b):
                continue
            sigma = (a, b)
        if w.eta * len(sigma) >= 1:
            continue
        lk, wl = witness_link(g, w, sigma)
        touched = len({i for i, p in enumerate(w.parts) if set(p) & set(sigma)})
        assert wl.t == w.t - touched
        assert wl.eta == w.eta / (1 - w.eta * len(sigma))
        assert bool(verify_type_partition(lk, wl))


def test_witness_link_validations():
    g = gen_join_of_cycles(2, 10)
    w = extract_partition(g, 2, Fraction(1, 4))
    with pytest.raises(NotAClique):
        witness_link(g, w, (0, 2))  # non-adjacent cycle vertices
    loose = PartitionWitness(t=2, eta=Fraction(1, 2), C=0, parts=w.parts)
    with pytest.raises(InvalidParameter):
        witness_link(g, loose, (0, 1))  # eta |sigma| = 1
    wx = PartitionWitness(t=2, eta=0, C=1, parts=(w.parts[0][:-1], w.parts[1]), X=(4,))
    with pytest.raises(InvalidParameter):
        witness_link(g, wx, (4,))  # sigma meets X


# -- independent sets and clique density --------------------------------


def test_lemma_examples():
    c4 = gen_cycle(4)
    assert check_lemma_independent_bound(c4, 1, (0, 2), (1, 3)) == (True, 2, 4)
    c6 = gen_cycle(6)
    assert check_lemma_independent_bound(c6, 1, (0, 2, 4), (1, 3, 5)) == (True, 3, 6)
    octa = gen_suspension_sphere(4)
    ok, lhs, rhs = check_lemma_independent_bound(octa, 2, (0, 1), (2, 3, 4, 5))
    assert ok and lhs == 2 and rhs == 32


def test_lemma_preconditions():
    c4 = gen_cycle(4)
    with pytest.raises(PreconditionFailed):
        check_lemma_independent_bound(c4, 1, (0, 1), (2, 3))  # not independent
    with pytest.raises(PreconditionFailed):
        check_lemma_independent_bound(c4, 1, (0, 2), (3,))  # not a partition
    with pytest.raises(PreconditionFailed):
        check_lemma_independent_bound(c4, 2, (0, 2), (1, 3))  # wrong level


def test_lemma_on_random_leveled_instances():
    # independent subsets of one cycle class against everything else
    rng = random.Random(39)
    for _ in range(25):
        s, n = rng.choice([(1, 8), (2, 10), (2, 12)])
        g = gen_join_of_cycles(s, n)
        d = 2 * s - 1
        k = n // s
        # alternate vertices of the first cycle form an independent set
        ind = tuple(range(0, k - 1, 2))[: k // 2]
        exc = tuple(v for v in range(g.n) if v not in ind)
        ok, lhs, rhs = check_lemma_independent_bound(g, d, ind, exc)
        assert ok and lhs <= rhs


def test_bollobas_bound():
    value, in_range = bollobas_lower_bound(10, 30, 2)
    assert value == Fraction(200, 9) and in_range
    assert bollobas_lower_bound(10, 20, 2)[1] is False  # below the window
    assert bollobas_lower_bound(10, 40, 2)[1] is False  # above the window
    v, ok = bollobas_lower_bound(12, 30, 1)
    assert v == 30 and ok  # t=1: the bound is just m
    with pytest.raises(InvalidParameter):
        bollobas_lower_bound(0, 0, 1)


def test_bollobas_bound_is_valid_in_window():
    rng = random.Random(40)
    for _ in range(30):
        n = rng.randrange(6, 16)
        t = rng.choice([2, 3])
        g = random_graph(n, rng.uniform(0.5, 0.95), rng)
        value, in_range = bollobas_lower_bound(n, g.edge_count, t)
        if in_range:
            assert g.clique_count(t + 1) >= value


# -- parameter schedules ------------------------------------------------


def test_default_schedules():
    for t in range(1, 51):
        eta = default_eta(t)
        assert eta < Fraction(1, 100 * t)
        assert default_alpha(t) < eta / (10 * t)
        if t > 1:
            # the link rescaling at a full transversal stays below level t-1
            assert eta / (1 - 2 * t * eta) < default_eta(t - 1)
    with pytest.raises(InvalidParameter):
        default_eta(0)


# -- structural claims on the extremal instances ------------------------


def test_parts_are_triangle_free_max_degree_two():
    for s, n in ((2, 10), (2, 14), (3, 15), (4, 16)):
        g = gen_join_of_cycles(s, n)
        w = extract_partition(g, s, Fraction(1, 10))
        for part in w.parts:
            sub, _ = g.induced(part)
            assert kernels.clique_number(sub.masks, sub.n) <= 2
            assert max(sub.degree(v) for v in range(sub.n)) <= 2


def test_large_type_instances_fail_low_level_tests():
    # a 2-part almost-join with big parts is never d-leveled for d <= 2
    for n in (10, 12, 14):
        g = gen_join_of_cycles(2, n)
        for d in (1, 2):
            assert not is_d_leveled(g, d).is_leveled
