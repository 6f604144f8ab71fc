"""Backend equivalence: the compiled kernels must match the reference ones
bit for bit on everything the dispatcher can route to either."""

import random

import pytest

from flagstone import _kernels_py
from flagstone import Graph, detect_level, gen_complete_multipartite, gen_cycle
from flagstone import kernels

try:
    from flagstone import _kernels_cy
except ImportError:
    _kernels_cy = None

BACKENDS = [_kernels_py] + ([_kernels_cy] if _kernels_cy else [])
IDS = ["py"] + (["cy"] if _kernels_cy else [])

from helpers import (
    brute_canonical_key,
    brute_clique_counts,
    brute_crowded_link,
    brute_maximal_cliques,
    random_graph,
)


@pytest.fixture(params=BACKENDS, ids=IDS)
def backend(request):
    return request.param


def test_clique_counts_small_fixed(backend):
    # triangle
    assert backend.clique_counts([6, 5, 3], 3, -1) == [1, 3, 3, 1]
    # path 0-1-2
    assert backend.clique_counts([2, 5, 2], 3, -1) == [1, 3, 2]
    # no vertices
    assert backend.clique_counts([], 0, -1) == [1]
    # explicit kmax keeps trailing zeros
    assert backend.clique_counts([2, 5, 2], 3, 3) == [1, 3, 2, 0]
    assert backend.clique_counts([6, 5, 3], 3, 1) == [1, 3]


def test_counts_match_brute(backend):
    rng = random.Random(101)
    for _ in range(60):
        g = random_graph(rng.randrange(0, 8), rng.choice([0.2, 0.5, 0.8]), rng)
        got = backend.clique_counts(list(g.masks), g.n, -1)
        assert got == brute_clique_counts(g)


def test_maximal_cliques_match_brute(backend):
    rng = random.Random(202)
    for _ in range(60):
        g = random_graph(rng.randrange(0, 8), rng.choice([0.2, 0.5, 0.8]), rng)
        assert backend.maximal_cliques(list(g.masks), g.n) == brute_maximal_cliques(g)


def _census_cases():
    rng = random.Random(808)
    graphs = [Graph(0, ()), Graph(4, (0, 0, 0, 0)), Graph.from_edges(5, [(1, 3)])]
    graphs += [gen_complete_multipartite((1,) * n) for n in (1, 2, 5, 9)]
    graphs += [random_graph(rng.randrange(0, 10), rng.choice([0.2, 0.5, 0.8]), rng) for _ in range(80)]
    return graphs


def test_clique_census_matches_brute():
    for g in _census_cases():
        counts, cliques = _kernels_py.clique_census(list(g.masks), g.n)
        assert counts == brute_clique_counts(g)
        assert cliques == brute_maximal_cliques(g)


def test_clique_census_matches_separate_kernels():
    rng = random.Random(909)
    # n > 64 leaves the compiled backend's word size, so both dispatch paths run
    graphs = _census_cases() + [random_graph(n, 0.15, rng) for n in (65, 70, 90)]
    for g in graphs:
        m = list(g.masks)
        expected = (_kernels_py.clique_counts(m, g.n), _kernels_py.maximal_cliques(m, g.n))
        assert _kernels_py.clique_census(m, g.n) == expected
        assert kernels.clique_census(m, g.n) == expected


def test_graph_counts_and_cliques_agree_in_either_order():
    rng = random.Random(1010)
    for _ in range(40):
        g = random_graph(rng.randrange(0, 11), rng.choice([0.3, 0.6, 0.9]), rng)
        first = Graph(g.n, g.masks)
        counts_first = (first.clique_counts(), first.maximal_cliques())
        second = Graph(g.n, g.masks)
        cliques = second.maximal_cliques()
        cliques_first = (second.clique_counts(), cliques)
        assert counts_first == cliques_first
        assert counts_first == (tuple(brute_clique_counts(g)), tuple(brute_maximal_cliques(g)))


def test_level_test_never_runs_the_census(monkeypatch):
    # the complement of a 30-vertex path is prime and has about 2.2 million
    # cliques but only 4 410 maximal ones: only Bron-Kerbosch is affordable
    def refuse(masks, n):
        raise AssertionError("clique_census called")

    monkeypatch.setattr(kernels, "clique_census", refuse)
    n = 30
    g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 2, n)])
    d, verdict = detect_level(g)
    assert d == 14 and not verdict.is_leveled
    assert len(g.maximal_cliques()) == 4410


def test_canonical_matches_brute_minimum(backend):
    rng = random.Random(303)
    for _ in range(40):
        g = random_graph(rng.randrange(1, 7), rng.random(), rng)
        assert backend.canonical_key(list(g.masks), g.n) == brute_canonical_key(g)


def test_canonical_relabel_invariant(backend):
    rng = random.Random(404)
    for _ in range(80):
        g = random_graph(rng.randrange(1, 9), rng.random(), rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert backend.canonical_key(list(g.masks), g.n) == backend.canonical_key(list(h.masks), h.n)


def test_canonical_separates_nonisomorphic(backend):
    # path P4 vs star K_{1,3}: same degree sum, different keys
    p4 = [2, 5, 10, 4]
    star = [14, 1, 1, 1]
    assert backend.canonical_key(p4, 4) != backend.canonical_key(star, 4)


@pytest.mark.skipif(_kernels_cy is None, reason="compiled backend not built")
def test_backends_agree_randomized():
    rng = random.Random(505)
    for _ in range(150):
        g = random_graph(rng.randrange(0, 13), rng.random(), rng)
        m, n = list(g.masks), g.n
        assert _kernels_cy.clique_counts(m, n, -1) == _kernels_py.clique_counts(m, n, -1)
        assert _kernels_cy.maximal_cliques(m, n) == _kernels_py.maximal_cliques(m, n)
        k = rng.randrange(1, n + 2) if n else 1
        assert _kernels_cy.k_cliques(m, n, k) == _kernels_py.k_cliques(m, n, k)
        assert _kernels_cy.clique_number(m, n, 0) == _kernels_py.clique_number(m, n, 0)
        for d in (1, 2, 3):
            assert _kernels_cy.leveled_violation(m, n, d) == _kernels_py.leveled_violation(m, n, d)
        if n <= 11:
            assert _kernels_cy.canonical_key(m, n) == _kernels_py.canonical_key(m, n)


def test_crowded_link_matches_brute():
    rng = random.Random(707)
    for _ in range(300):
        g = random_graph(rng.randrange(0, 9), rng.choice([0.3, 0.5, 0.7, 0.9]), rng)
        within = rng.randrange(1 << g.n) if rng.random() < 0.7 else (1 << g.n) - 1
        for d in (0, 1, 2, 3):
            got = kernels.crowded_link(list(g.masks), g.n, d, within)
            assert got == brute_crowded_link(g, d, within)


def test_clique_counts_past_n():
    c5 = gen_cycle(5)
    assert c5.clique_count(500) == 0
    counts = kernels.clique_counts(list(c5.masks), 5, 500)
    assert len(counts) == 501
    assert counts[:3] == [1, 5, 5] and not any(counts[3:])


def test_key_roundtrip():
    rng = random.Random(606)
    for _ in range(50):
        g = random_graph(rng.randrange(1, 9), rng.random(), rng)
        key = kernels.canonical_key(list(g.masks), g.n)
        masks = kernels.key_to_masks(key, g.n)
        assert kernels.masks_key(masks, g.n) == key
        # the decoded graph is isomorphic to g: canonical form is idempotent
        assert kernels.canonical_key(masks, g.n) == key


def test_backend_env_reporting():
    assert kernels.BACKEND in ("cython", "python")
    if _kernels_cy is not None:
        assert kernels.BACKEND == "cython"


def test_dispatcher_large_n_falls_back():
    # 70 vertices exceeds the 64-bit kernels; the dispatcher must still answer
    n = 70
    masks = [0] * n
    for v in range(n - 1):
        masks[v] |= 1 << (v + 1)
        masks[v + 1] |= 1 << v
    assert kernels.clique_counts(masks, n, -1) == [1, n, n - 1]
    assert len(kernels.maximal_cliques(masks, n)) == n - 1
