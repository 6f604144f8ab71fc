"""Join factors and what is computed per factor, pinned to the kernels run
on the whole graph and to the reference level test."""

import math
import random
from itertools import combinations

import pytest

from flagstone import (
    Graph,
    SimplicialComplex,
    detect_level,
    enumerate_classes,
    gen_complete_multipartite,
    gen_cycle,
    gen_independent,
    gen_join_of_cycles,
    gen_suspension_sphere,
    graph_from_key,
    is_d_leveled,
    is_flag,
    join,
    kernels,
)
from flagstone.complexes import maximal_cliques_are_facets
from helpers import all_graphs, random_graph, reference_is_d_leveled

LEVELS = range(8)


def _complement_connected(g):
    if g.n == 0:
        return True
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for u in range(g.n):
            if u != v and u not in seen and not g.has_edge(u, v):
                seen.add(u)
                todo.append(u)
    return len(seen) == g.n


def check_factors(g):
    factors = g.join_factors()
    assert sorted(v for _, vmap in factors for v in vmap) == list(range(g.n))
    assert [vmap[0] for _, vmap in factors if vmap] == sorted(vmap[0] for _, vmap in factors if vmap)
    for f, vmap in factors:
        assert f == g.induced(vmap)[0]
        assert _complement_connected(f)
    for (_, a), (_, b) in combinations(factors, 2):
        assert all(g.has_edge(u, v) for u in a for v in b)
    if len(factors) == 1:
        assert factors[0][0] is g
    return factors


def check_counts(g, kmaxes=None):
    full = tuple(kernels.clique_census(g.masks, g.n)[0])
    fresh = Graph(g.n, g.masks)  # nothing cached: the counting-up-to-k path
    for k in range(g.n + 3):
        assert fresh.clique_count(k) == (full[k] if k < len(full) else 0)
    for kmax in range(g.n + 3) if kmaxes is None else kmaxes:
        assert g.clique_counts(kmax) == tuple(kernels.clique_counts(g.masks, g.n, kmax))
    assert g.clique_counts() == full
    for k in range(g.n + 3):
        assert g.clique_count(k) == (full[k] if k < len(full) else 0)


def check_sizes(g):
    sizes = tuple(sorted({len(c) for c in kernels.maximal_cliques(g.masks, g.n)}))
    assert g.maximal_clique_sizes() == sizes


def check_levels(g):
    for d in LEVELS:
        verdict = is_d_leveled(g, d)
        assert (verdict.is_leveled, verdict.witness) == reference_is_d_leveled(g, d), (g.masks, d)
    # the one level g can pass: its largest maximal clique less one
    d = max((len(c) for c in kernels.maximal_cliques(g.masks, g.n)), default=1) - 1
    assert detect_level(g) == (d, is_d_leveled(g, d)), g.masks


def check_all(g, kmaxes=None):
    check_factors(g)
    check_counts(g, kmaxes)
    check_sizes(g)
    check_levels(g)


@pytest.mark.parametrize("n", range(6))
def test_every_small_labeled_graph(n):
    for g in all_graphs(n):
        check_all(g, kmaxes=(0, 1, 2, n))


def test_every_six_vertex_class():
    # all 156 isomorphism classes, each under several labelings, so factors
    # come with interleaved vertex sets (all 32 768 labeled graphs are too
    # slow for Tier-1)
    rng = random.Random(66)
    for key in enumerate_classes(6)[6]:
        base = graph_from_key(key, 6)
        for _ in range(6):
            perm = list(range(6))
            rng.shuffle(perm)
            check_all(base.relabel(perm), kmaxes=(0, 1, 2, 6))


def test_complete_graphs_are_binomial_rows():
    for n in range(18):
        g = gen_complete_multipartite((1,) * n) if n else Graph(0, ())
        row = tuple(math.comb(n, k) for k in range(n + 1))
        assert len(g.join_factors()) == max(n, 1)
        assert g.clique_counts() == row
        for kmax in range(n + 3):
            assert g.clique_counts(kmax) == (row + (0, 0))[:kmax + 1]
        fresh = Graph(g.n, g.masks)
        assert [fresh.clique_count(k) for k in range(n + 3)] == list(row + (0, 0))
        assert g.maximal_clique_sizes() == ((n,) if n else ())
        check_levels(g)


@pytest.mark.parametrize("parts", [(2,), (1, 3), (2, 2), (3, 3), (1, 1, 4), (2, 2, 2), (2, 3, 4), (2, 2, 2, 2)])
def test_complete_multipartite(parts):
    g = gen_complete_multipartite(parts)
    assert sorted(f.n for f, _ in g.join_factors()) == sorted(parts)
    check_all(g)
    # the cross-polytope of dimension t - 1 is leveled at t - 1
    assert is_d_leveled(g, len(parts) - 1).is_leveled == all(p == 2 for p in parts)


def test_suspensions():
    bases = [gen_cycle(4), gen_cycle(7), gen_suspension_sphere(5), join(gen_cycle(4), gen_cycle(5)),
             Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)]), gen_independent(3)]
    for base in bases:
        g = join(gen_independent(2), base)
        check_all(g)
        d = base.maximal_clique_sizes()[-1]
        assert is_d_leveled(g, d).is_leveled == is_d_leveled(base, d - 1).is_leveled


def _random_join(rng):
    factors = []
    for _ in range(rng.randrange(2, 5)):
        kind = rng.random()
        if kind < 0.2:
            factors.append(Graph(1, (0,)))
        elif kind < 0.35:
            factors.append(gen_independent(rng.randrange(2, 4)))
        elif kind < 0.5:
            factors.append(gen_cycle(rng.randrange(4, 7)))
        else:
            factors.append(random_graph(rng.randrange(1, 6), rng.random(), rng))
    g = factors[0]
    for f in factors[1:]:
        g = join(g, f)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_random_joins():
    rng = random.Random(67)
    for _ in range(300):
        g = _random_join(rng)
        assert len(check_factors(g)) >= 2
        check_all(g)


def test_factor_failing_the_ridge_test_lists_no_whole_graph_cliques(monkeypatch):
    # joins whose maximal cliques all have d+1 vertices but where a factor
    # fails the ridge test: C4 * P4 (factors: two non-edges and P4) at
    # d = 3, then seeded random joins
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cases = [(join(gen_cycle(4), path), 3)]
    rng = random.Random(68)
    while len(cases) < 40:
        g = _random_join(rng)
        sizes = {len(c) for c in kernels.maximal_cliques(g.masks, g.n)}
        if len(sizes) == 1 and not reference_is_d_leveled(g, min(sizes) - 1)[0]:
            cases.append((g, min(sizes) - 1))
    # joins that fail the size check through a factor with mixed
    # maximal-clique sizes, such as K2 + K1: at the size of the least
    # maximal clique (the witness swaps one factor's part) and one below
    # the largest size
    mixed = Graph.from_edges(3, [(0, 1)])
    while len(cases) < 80:
        g = _random_join(rng)
        if len(cases) % 4 == 0:
            g = join(mixed, g)
        cliques = kernels.maximal_cliques(g.masks, g.n)
        sizes = {len(c) for c in cliques}
        if len(sizes) > 1:
            cases += [(g, len(cliques[0]) - 1), (g, max(sizes) - 1)]
    expected = [reference_is_d_leveled(g, d) for g, d in cases]
    assert expected[0] == (False, ("link", (0, 1, 4), (5,)))
    assert all(want[1][0] == "maximal-clique" for want in expected[40:])
    seen = []
    for name in ("maximal_cliques", "leveled_violation"):
        def counted(masks, n, *rest, _kernel=getattr(kernels, name)):
            seen.append(n)
            return _kernel(masks, n, *rest)
        monkeypatch.setattr(kernels, name, counted)
    for (g, d), want in zip(cases, expected):
        seen.clear()
        verdict = is_d_leveled(Graph(g.n, g.masks), d)
        assert (verdict.is_leveled, verdict.witness) == want, (g.masks, d)
        assert seen and g.n not in seen, (g.masks, seen)


def test_flag_test_of_join_skeletons_matches_the_whole_skeleton():
    # complexes on random join skeletons: the clique complex, one facet
    # hollowed out, and the edges alone
    rng = random.Random(69)
    for _ in range(150):
        g = _random_join(rng)
        facets = list(kernels.maximal_cliques(g.masks, g.n))
        kind = rng.randrange(3)
        if kind == 1:
            big = facets.pop(rng.randrange(len(facets)))
            facets += combinations(big, len(big) - 1)
        elif kind == 2:
            facets = g.edges()
        k = SimplicialComplex.from_facets(g.n, facets)
        whole = k.one_skeleton()
        cliques = kernels.maximal_cliques(whole.masks, whole.n)
        want = all(len(c) < 3 or c in set(k.facets) for c in cliques)
        assert maximal_cliques_are_facets(k) == want, (g.masks, kind)


def test_slow_whole_graph_instances_are_decided_per_factor(monkeypatch):
    # the level test and the flag test on joins of up to ten cycles, whose
    # whole-graph clique lists run to millions: no call of a clique-listing
    # or link kernel sees the whole graph (is_flag then names its witness
    # from the whole skeleton's triangles)
    seen = []
    for name in ("maximal_cliques", "leveled_violation", "clique_census", "clique_counts"):
        def counted(masks, n, *rest, _kernel=getattr(kernels, name)):
            seen.append(n)
            return _kernel(masks, n, *rest)
        monkeypatch.setattr(kernels, name, counted)
    g = gen_join_of_cycles(10, 50).without_edge(3, 4)
    assert is_d_leveled(g, 19).witness == (
        "link", (3, 5, 6, 10, 11, 15, 16, 20, 21, 25, 26, 30, 31, 35, 36, 40, 41, 45, 46), (2,))
    assert max(seen) < g.n
    seen.clear()
    g = Graph.from_edges(3, [(0, 1)])
    for _ in range(8):
        g = join(g, gen_cycle(5))
    assert is_d_leveled(g, 17).witness == (
        "maximal-clique", (2, 3, 4, 8, 9, 13, 14, 18, 19, 23, 24, 28, 29, 33, 34, 38, 39))
    assert max(seen) < g.n
    seen.clear()
    g = gen_join_of_cycles(10, 50)
    assert is_flag(SimplicialComplex.from_facets(g.n, g.edges())) == (False, (0, 1, 5))
    assert max(seen) < g.n


def test_prime_graph_is_its_own_factor():
    g = gen_cycle(6)
    assert g.join_factors() == ((g, tuple(range(6))),)
    assert g.join_factors() is g.join_factors()
