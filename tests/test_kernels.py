"""Backend equivalence: the compiled kernels must match the reference ones
bit for bit on everything the dispatcher can route to either.

The compiled module comes from the `compiled_kernels` fixture, which builds
src/flagstone/_kernels_c.c for this session, so these tests run whether or
not the package was installed with its extension.
"""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from flagstone import _kernels_py
from flagstone import Graph, detect_level, gen_complete_multipartite, gen_cycle, gen_join_of_cycles
from flagstone import kernels
from flagstone.cli import main

from helpers import (
    all_graphs,
    brute_canonical_key,
    brute_clique_counts,
    brute_cliques,
    brute_common_neighbors,
    brute_crowded_link,
    brute_maximal_cliques,
    random_graph,
)

HOT = ("maximal_cliques", "clique_census", "crowded_link", "canonical_key")


@pytest.fixture(params=["py", "c"])
def backend(request):
    if request.param == "py":
        return _kernels_py
    return request.getfixturevalue("compiled_kernels")


def test_clique_counts_small_fixed():
    # triangle
    assert kernels.clique_counts([6, 5, 3], 3, 3) == [1, 3, 3, 1]
    assert kernels.clique_counts([6, 5, 3], 3, 1) == [1, 3]
    # path 0-1-2: sizes past the clique number are zero-padded
    assert kernels.clique_counts([2, 5, 2], 3, 3) == [1, 3, 2, 0]
    # no vertices
    assert kernels.clique_counts([], 0, 0) == [1]
    assert kernels.clique_counts([], 0, 2) == [1, 0, 0]


def test_clique_counts_rejects_negative_kmax():
    with pytest.raises(ValueError):
        kernels.clique_counts([6, 5, 3], 3, -1)
    with pytest.raises(ValueError):
        kernels.clique_counts([], 0, -1)


def _omega(g):
    """The largest maximal-clique size, 0 on the empty graph."""
    return max(map(len, brute_maximal_cliques(g)), default=0)


def test_counts_match_brute(backend):
    rng = random.Random(101)
    for _ in range(60):
        g = random_graph(rng.randrange(0, 8), rng.choice([0.2, 0.5, 0.8]), rng)
        assert backend.clique_census(list(g.masks), g.n)[0] == brute_clique_counts(g)


def test_capped_counts_match_brute():
    rng = random.Random(101)
    for _ in range(60):
        g = random_graph(rng.randrange(0, 8), rng.choice([0.2, 0.5, 0.8]), rng)
        m, n = list(g.masks), g.n
        full = brute_clique_counts(g)
        for kmax in (0, 1, _omega(g), n, n + 7):
            assert kernels.clique_counts(m, n, kmax) == (full + [0] * (kmax + 1))[:kmax + 1]


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
        cliques = _kernels_py.maximal_cliques(m, g.n)
        # the full vector ends at the largest maximal clique
        omega = max(map(len, cliques), default=0)
        expected = (_kernels_py.clique_counts(m, g.n, omega), cliques)
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


def test_capped_census_stops_just_past_its_limit(backend):
    # the limit counts every clique, the empty one included: the census
    # finishes at the exact count, gives None one below it, and -1 is no limit
    for g in _census_cases():
        m = list(g.masks)
        full = backend.clique_census(m, g.n)
        total = sum(full[0])
        assert backend.clique_census(m, g.n, total) == full
        assert backend.clique_census(m, g.n, total - 1) is None
        assert backend.clique_census(m, g.n, -1) == full
    assert backend.clique_census([], 0, 0) is None


def test_dispatcher_passes_the_census_limit(backend, monkeypatch):
    # a cycle on n vertices has 2n + 1 cliques; C70 is past the compiled
    # kernel's 64 vertices and always runs in Python
    monkeypatch.setattr(kernels, "_c", None if backend is _kernels_py else backend)
    for g in (gen_cycle(9), gen_cycle(70)):
        m = list(g.masks)
        assert kernels.clique_census(m, g.n, 2 * g.n) is None
        assert kernels.clique_census(m, g.n, 2 * g.n + 1) == kernels.clique_census(m, g.n)


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


def _sparse_graph(n, rng):
    # dense enough for cliques of 3-4 vertices, sparse enough that the
    # Python kernels enumerate every clique of a 64-vertex graph quickly
    return random_graph(n, rng.choice([0.2, 0.5, 0.8]) if n <= 12 else rng.choice([0.05, 0.1, 0.2]), rng)


def test_backends_agree_randomized(compiled_kernels):
    c = compiled_kernels
    rng = random.Random(505)
    graphs = [gen_cycle(n) for n in range(3, 13)] + [gen_join_of_cycles(2, n) for n in (8, 10, 12)]
    graphs += [gen_complete_multipartite(p) for p in ((2, 2, 2), (3, 3, 3), (1, 2, 3, 4), (6, 6))]
    graphs += [random_graph(rng.randrange(0, 13), rng.random(), rng) for _ in range(150)]
    graphs += [_sparse_graph(n, rng) for n in range(65) for _ in range(3)]
    for g in graphs:
        m, n = list(g.masks), g.n
        cliques = _kernels_py.maximal_cliques(m, n)
        assert c.maximal_cliques(m, n) == cliques
        assert c.clique_census(m, n) == _kernels_py.clique_census(m, n)
        for d in (-1, 0, 1, 2, 3):
            within = rng.randrange(1 << n) if n else 0
            assert c.crowded_link(m, n, d, within) == _kernels_py.crowded_link(m, n, d, within)
        if n <= 12:
            assert c.canonical_key(m, n) == _kernels_py.canonical_key(m, n)


def test_compiled_full_word_rows(compiled_kernels):
    # n = 64 sets bit 63 of the rows and fills the whole word with `full`
    c = compiled_kernels
    full = (1 << 64) - 1
    complete = [full ^ (1 << v) for v in range(64)]
    assert c.maximal_cliques(complete, 64) == [tuple(range(64))]
    cycle = list(gen_cycle(64).masks)
    assert c.clique_census(cycle, 64) == ([1, 64, 64], [(0, 1), (0, 63), *((v, v + 1) for v in range(1, 63))])
    assert c.canonical_key(complete, 64) == (1 << 2016) - 1
    assert c.crowded_link(complete, 64, 1, 1 << 63) == (63,)
    empty = [0] * 64
    assert c.clique_census(empty, 64) == ([1, 64], [(v,) for v in range(64)])
    assert c.canonical_key(empty, 64) == 0


def test_compiled_crowded_link_matches_brute(compiled_kernels):
    rng = random.Random(1414)
    for _ in range(300):
        g = random_graph(rng.randrange(0, 9), rng.choice([0.3, 0.5, 0.7, 0.9]), rng)
        within = rng.randrange(1 << g.n) if rng.random() < 0.7 else (1 << g.n) - 1
        for d in (0, 1, 2, 3):
            got = compiled_kernels.crowded_link(list(g.masks), g.n, d, within)
            assert got == brute_crowded_link(g, d, within)


def test_compiled_census_matches_its_separate_kernels(compiled_kernels):
    c = compiled_kernels
    rng = random.Random(1515)
    graphs = _census_cases() + [_sparse_graph(n, rng) for n in (20, 40, 63, 64)]
    for g in graphs:
        m = list(g.masks)
        cliques = c.maximal_cliques(m, g.n)
        omega = max(map(len, cliques), default=0)
        assert c.clique_census(m, g.n) == (_kernels_py.clique_counts(m, g.n, omega), cliques)


def _anticycle(n):
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~m & ~(1 << v) for v, m in enumerate(gen_cycle(n).masks)))


@pytest.mark.parametrize("n", [40, 52, 63, 64])
def test_compiled_canonical_key_past_12_vertices(compiled_kernels, n):
    # dense graphs tie on few orderings, so the branch-and-bound keys them in
    # milliseconds: the key must survive relabelling and decoding, and on the
    # complement of C64 (full-word rows) equal the Python kernel's
    c = compiled_kernels
    rng = random.Random(1600 + n)
    for g in (random_graph(n, 0.9, rng), _anticycle(n)):
        key = c.canonical_key(list(g.masks), n)
        for _ in range(3):
            perm = list(range(n))
            rng.shuffle(perm)
            assert c.canonical_key(list(g.relabel(perm).masks), n) == key
        assert c.canonical_key(kernels.key_to_masks(key, n), n) == key
        assert key.bit_length() <= n * (n - 1) // 2
    if n == 64:
        m = list(_anticycle(n).masks)
        assert c.canonical_key(m, n) == _kernels_py.canonical_key(m, n)


@pytest.mark.parametrize("name", HOT)
def test_compiled_rejects_bad_sizes(compiled_kernels, name):
    fn = getattr(compiled_kernels, name)
    extra = {"crowded_link": (2, 0)}.get(name, ())
    with pytest.raises(ValueError):
        fn([0] * 65, 65, *extra)  # more vertices than a word holds
    with pytest.raises(OverflowError):
        fn([1 << 64, 0], 2, *extra)  # a row past 64 bits
    with pytest.raises(ValueError):
        fn([0, 0], 3, *extra)  # fewer rows than n
    with pytest.raises(ValueError):
        fn([4, 0], 2, *extra)  # a neighbour outside 0..n-1
    with pytest.raises(TypeError):
        fn(["x"], 1, *extra)


def test_compiled_rejects_within_outside_n(compiled_kernels):
    with pytest.raises(ValueError):
        compiled_kernels.crowded_link([2, 1], 2, 1, 4)
    with pytest.raises(OverflowError):
        compiled_kernels.crowded_link([2, 1], 2, 1, -1)


def test_dispatcher_routes_to_compiled(compiled_kernels, monkeypatch):
    calls = []

    class Spy:
        def __getattr__(self, name):
            def call(*args):
                calls.append(name)
                return getattr(compiled_kernels, name)(*args)
            return call

    monkeypatch.setattr(kernels, "_c", Spy())
    m = list(gen_cycle(6).masks)
    kernels.maximal_cliques(m, 6)
    kernels.clique_census(m, 6)
    kernels.crowded_link(m, 6, 1, 63)
    kernels.canonical_key(m, 6)
    assert calls == list(HOT)
    # past 64 vertices every kernel stays in Python
    big = [0] * 65
    kernels.clique_census(big, 65)
    kernels.canonical_key(big, 65)
    assert calls == list(HOT)


def test_compiled_surface_is_the_hot_list(compiled_kernels):
    # a kernel dropped from C must leave HOT and its dispatcher with it
    assert {name for name in dir(compiled_kernels) if not name.startswith("_")} == set(HOT)
    for name in dir(kernels):
        fn = getattr(kernels, name)
        if callable(fn) and hasattr(_kernels_py, name):
            # a dispatcher for each compiled kernel, the reference for the rest
            assert (fn is getattr(_kernels_py, name)) == (name not in HOT), name


GOLDEN = Path(__file__).parent / "data" / "golden"


def test_compiled_golden_check_bytes(compiled_kernels, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(kernels, "_c", compiled_kernels)
    monkeypatch.chdir(GOLDEN)
    out_json = tmp_path / "check.json"
    files = ["join.txt", "suspension.txt", "torus.facets", "pair.g6", "hollow.facets"]
    assert main(["check", *files, "--json", str(out_json)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "check.stdout").read_text()
    assert out_json.read_bytes() == (GOLDEN / "check.json").read_bytes()


def test_compiled_exhaustive_payload_bytes(compiled_kernels, monkeypatch, tmp_path, capsys):
    args = ["search", "--mode", "exhaustive", "--d", "2", "--n", "3..8", "--out"]
    monkeypatch.setattr(kernels, "_c", None)
    assert main(args + [str(tmp_path / "py.json")]) == 0
    monkeypatch.setattr(kernels, "_c", compiled_kernels)
    assert main(args + [str(tmp_path / "c.json")]) == 0
    payload = (tmp_path / "py.json").read_bytes()
    assert (tmp_path / "c.json").read_bytes() == payload
    assert json.loads(payload)["per_n"][-1]["leveled_classes"] == 2
    out = capsys.readouterr().out
    assert out.count("n=8: found=2, max_edges=18, bound=18") == 2


def test_crowded_link_matches_brute():
    rng = random.Random(707)
    for _ in range(300):
        g = random_graph(rng.randrange(0, 9), rng.choice([0.3, 0.5, 0.7, 0.9]), rng)
        within = rng.randrange(1 << g.n) if rng.random() < 0.7 else (1 << g.n) - 1
        for d in (0, 1, 2, 3):
            got = kernels.crowded_link(list(g.masks), g.n, d, within)
            assert got == brute_crowded_link(g, d, within)


def test_clique_derivations_match_brute(monkeypatch):
    # k_cliques, clique_number and leveled_violation read maximal_cliques;
    # each is held to the brute-force cliques here, not to that kernel,
    # which test_maximal_cliques_match_brute pins, so it runs once per graph
    listed = {}
    kernel = _kernels_py.maximal_cliques

    def once(masks, n):
        key = tuple(masks)
        if key not in listed:
            listed[key] = kernel(masks, n)
        return listed[key]

    monkeypatch.setattr(_kernels_py, "maximal_cliques", once)
    rng = random.Random(909)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [random_graph(rng.randrange(0, 11), rng.choice([0.2, 0.5, 0.8]), rng) for _ in range(200)]
    for g in graphs:
        m, n = list(g.masks), g.n
        cliques = brute_cliques(g)  # by size, each size in lexicographic order
        omega = len(cliques[-1])
        for k in range(n + 2):
            assert kernels.k_cliques(m, n, k) == [c for c in cliques if len(c) == k]
        assert kernels.clique_number(m, n) == omega
        for stop_at in range(n + 2):
            assert kernels.clique_number(m, n, stop_at) == min(omega, stop_at)
        for d in range(5):
            links = ((sigma, tuple(brute_common_neighbors(g, sigma))) for sigma in cliques if len(sigma) == d)
            first = next(((sigma, link) for sigma, link in links if len(link) != 2 or g.has_edge(*link)), None)
            assert kernels.leveled_violation(m, n, d) == first, (m, d)


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
        assert int(kernels.triangle_bits(masks, g.n) or "0", 2) == key
        # the decoded graph is isomorphic to g: canonical form is idempotent
        assert kernels.canonical_key(masks, g.n) == key


def test_backend_env_reporting():
    # one token, since tooling splits the reported line on whitespace
    try:
        importlib.import_module("flagstone._kernels_c")
    except ImportError:
        expected = "python"
    else:
        expected = "c"
    assert kernels.BACKEND == expected
    # no environment variable picks the backend
    package_root = str(Path(kernels.__file__).resolve().parent.parent)
    env = dict(os.environ, FLAGSTONE_BACKEND="python", PYTHONPATH=package_root)
    done = subprocess.run([sys.executable, "-c", "import flagstone; print(flagstone.BACKEND)"],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == [expected]


def test_dispatcher_large_n_falls_back():
    # 70 vertices exceeds the 64-bit kernels; the dispatcher must still answer
    n = 70
    masks = [0] * n
    for v in range(n - 1):
        masks[v] |= 1 << (v + 1)
        masks[v + 1] |= 1 << v
    assert kernels.clique_census(masks, n)[0] == [1, n, n - 1]
    assert kernels.clique_counts(masks, n, 3) == [1, n, n - 1, 0]
    assert len(kernels.maximal_cliques(masks, n)) == n - 1
