"""Enumeration, seeded local search, and corpus checking."""

import concurrent.futures
import os
import random
from functools import cached_property

import pytest

from flagstone import (
    BudgetExceeded,
    Graph,
    InvalidParameter,
    SearchConfig,
    check_instance,
    corpus_summary,
    detect_level,
    dump_edge_list,
    dump_facet_list,
    dump_graph6,
    enumerate_classes,
    exhaustive_cap,
    exhaustive_search,
    gen_cycle,
    gen_grid_torus,
    gen_join_of_cycles,
    gen_suspension_sphere,
    graph_from_key,
    is_d_leveled,
    random_search,
    run_corpus_checks,
)
from flagstone import kernels, search
from flagstone.complexes import SimplicialComplex
from helpers import all_graphs, partitions, reference_random_moves


def test_enumerate_classes_counts():
    levels = enumerate_classes(6)
    assert [len(levels[n]) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_enumerate_classes_matches_brute_classes():
    levels = enumerate_classes(5)
    for n in (3, 4, 5):
        seen = {kernels.canonical_key(list(g.masks), g.n) for g in all_graphs(n)}
        assert sorted(seen) == levels[n]


def test_enumerate_classes_clique_cap():
    levels = enumerate_classes(6, clique_cap=4)
    assert [len(levels[n]) for n in (4, 5, 6)] == [11, 33, 150]
    for key in levels[6]:
        assert graph_from_key(key, 6).clique_number() <= 4


def test_enumerate_workers_byte_identical():
    assert enumerate_classes(5, workers=2) == enumerate_classes(5, workers=1)
    assert enumerate_classes(7, workers=2, level=2) == enumerate_classes(7, level=2)


def test_enumerate_workers_capped_at_cpu_count(monkeypatch):
    # on one CPU a request for many workers starts no process at all
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    assert enumerate_classes(6, workers=8) == enumerate_classes(6)


@pytest.mark.parametrize("d,n_max", [(1, 8), (2, 7), (3, 7)])
def test_pruned_enumeration_keeps_leveled_classes(d, n_max):
    # the unpruned enumerator is the oracle: pruning only drops classes
    # that cannot be d-leveled, and prune (a) implies the clique cap
    pruned = enumerate_classes(n_max, level=d)
    full = enumerate_classes(n_max, clique_cap=d + 1)

    def leveled(keys, n):
        return [key for key in keys if is_d_leveled(graph_from_key(key, n), d).is_leveled]

    for n in range(1, n_max + 1):
        assert set(pruned[n]) <= set(full[n])
        assert leveled(pruned[n], n) == leveled(full[n], n)


def test_exhaustive_cap():
    assert exhaustive_cap(1) == 10 and exhaustive_cap(3) == 8


def test_exhaustive_search_rejects_huge_range(monkeypatch):
    cfg = SearchConfig(mode="exhaustive", d=3, n_min=4, n_max=9)
    with pytest.raises(BudgetExceeded, match="--i-know-this-is-huge"):
        exhaustive_search(cfg)
    # the acknowledgment flag bypasses the cap (kept tiny here)
    monkeypatch.setattr(search, "DEFAULT_CAP", 4)
    cfg = SearchConfig(mode="exhaustive", d=3, n_min=4, n_max=5, allow_huge=True)
    exhaustive_search(cfg)


def test_exhaustive_search_level_one():
    cfg = SearchConfig(mode="exhaustive", d=1, n_min=4, n_max=8)
    res = exhaustive_search(cfg)
    assert res.s == 1
    # the pruned space: a weaker prune keeps more classes
    assert [entry["classes_visited"] for entry in res.per_n] == [6, 9, 15, 7, 2]
    # leveled classes at level 1 are disjoint unions of cycles of length >= 4
    for entry in res.per_n:
        n = entry["n"]
        assert entry["leveled_classes"] == len(partitions(n, 4))
        assert entry["max_edges"] == n and entry["bound"] == str(n)
        assert entry["bound_holds"] is True
        g = Graph.from_edges(n, [tuple(e) for e in entry["argmax_edges"]])
        assert g.edge_count == entry["max_edges"]
        assert is_d_leveled(g, 1).is_leveled


def test_exhaustive_search_level_three_small():
    cfg = SearchConfig(mode="exhaustive", d=3, n_min=4, n_max=6)
    res = exhaustive_search(cfg)
    got = {e["n"]: e for e in res.per_n}
    # prune (b) alone empties n = 4..6: on 4 vertices it asks for degree 4
    assert [got[n]["classes_visited"] for n in (4, 5, 6)] == [0, 0, 0]
    # no 3-leveled graph exists below n = 8
    assert all(got[n]["leveled_classes"] == 0 for n in (4, 5, 6))
    assert all(got[n]["max_edges"] is None for n in (4, 5, 6))
    assert res.reports == ()


def test_exhaustive_workers_byte_identical():
    one = exhaustive_search(SearchConfig(mode="exhaustive", d=1, n_min=4, n_max=6, workers=1))
    two = exhaustive_search(SearchConfig(mode="exhaustive", d=1, n_min=4, n_max=6, workers=2))
    assert one.to_json_bytes() == two.to_json_bytes()


def test_search_tie_breaks(monkeypatch):
    # at level 1 every leveled graph on n vertices (a union of cycles) has
    # n edges: exhaustive mode reports the least canonical key
    res = exhaustive_search(SearchConfig(mode="exhaustive", d=1, n_min=8, n_max=9))
    levels = enumerate_classes(9, level=1)
    for entry in res.per_n:
        n = entry["n"]
        leveled = [key for key in levels[n] if is_d_leveled(graph_from_key(key, n), 1).is_leveled]
        best = Graph.from_edges(n, [tuple(e) for e in entry["argmax_edges"]])
        assert len(leveled) > 1 and kernels.canonical_key(list(best.masks), n) == min(leveled)
    # random mode reports the first graph in walk order: the starting join,
    # ahead of two relabelings of it the stubbed walk finds
    monkeypatch.setattr(search, "_random_moves", lambda g, rng, d, budget: [
        g.relabel([(v + k) % g.n for v in range(g.n)]) for k in (1, 2)
    ])
    res = random_search(SearchConfig(mode="random", d=3, n_min=8, n_max=10, seed=3, budget=1))
    for entry in res.per_n:
        assert entry["candidates_found"] == 3
        base = gen_join_of_cycles(2, entry["n"])
        assert entry["argmax_edges"] == [list(e) for e in base.edges()]


def test_random_search_reproducible():
    cfg = SearchConfig(mode="random", d=3, n_min=10, n_max=10, seed=7, budget=60)
    a, b = random_search(cfg), random_search(cfg)
    assert a.to_json_bytes() == b.to_json_bytes()
    entry = a.per_n[0]
    # the balanced join meets the bound exactly; nothing found may beat it
    assert entry["max_edges"] == 35 and entry["bound_holds"] is True
    g = Graph.from_edges(10, [tuple(e) for e in entry["argmax_edges"]])
    assert is_d_leveled(g, 3).is_leveled and g.edge_count == 35
    assert a.reports and a.reports[0]["bounds"]["thm_odd"]["equality"]


def test_random_search_skips_too_small_and_budget_zero():
    res = random_search(SearchConfig(mode="random", d=3, n_min=4, n_max=7, seed=1, budget=10))
    assert res.per_n == ()
    assert any("skipped" in note for note in res.notes)
    res = random_search(SearchConfig(mode="random", d=3, n_min=10, n_max=12, seed=1, budget=0))
    assert res.per_n == ()


# C4*C4 beside an edge and an isolated vertex: swaps that move the lone edge
# leave every 3-clique's link intact but keep a 2-vertex maximal clique,
# which only the full level test rejects
_JOIN_WITH_STRAYS = Graph.from_edges(11, gen_join_of_cycles(2, 8).edges() + [(8, 9)])


@pytest.mark.parametrize(
    "g,d,accepted",
    [(gen_grid_torus(4, 4), 2, 48), (gen_join_of_cycles(2, 10), 3, 0), (_JOIN_WITH_STRAYS, 3, 0)],
    ids=["torus-4x4", "join-C5-C5", "join-with-strays"],
)
def test_swap_matches_level_test(g, d, accepted):
    edges = g.edges()
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    hits = 0
    for drop in edges:
        for add in non_edges:
            swapped = g.without_edge(*drop).with_edge(*add)
            got = search._swap(g, drop, add, d)
            if is_d_leveled(swapped, d).is_leveled:
                assert got == swapped
                hits += 1
            else:
                assert got is None
    assert hits == accepted


def test_random_moves_match_reference_walk():
    g = gen_grid_torus(4, 4)
    got = search._random_moves(g, random.Random(5), 2, 200)
    assert got == reference_random_moves(g, random.Random(5), 2, 200)
    # several accepted moves, so draws after an acceptance are compared too
    assert len(got) == 6


@pytest.mark.parametrize("d,n_min,n_max", [(1, 4, 12), (3, 8, 14)])
def test_random_search_matches_reference_walk(monkeypatch, d, n_min, n_max):
    cfg = SearchConfig(mode="random", d=d, n_min=n_min, n_max=n_max, seed=3, budget=150)
    screened = random_search(cfg).to_json_bytes()
    monkeypatch.setattr(search, "_random_moves", reference_random_moves)
    assert screened == random_search(cfg).to_json_bytes()


def test_search_config_validation():
    with pytest.raises(InvalidParameter, match="^unknown search mode 'sideways'$"):
        SearchConfig(mode="sideways", d=1, n_min=1, n_max=2)
    with pytest.raises(InvalidParameter, match="^random mode needs an explicit seed$"):
        SearchConfig(mode="random", d=1, n_min=1, n_max=2)
    with pytest.raises(InvalidParameter, match="^need level d >= 1$"):
        SearchConfig(mode="exhaustive", d=0, n_min=1, n_max=2)
    for n_min, n_max in ((3, 2), (0, 2)):
        with pytest.raises(InvalidParameter, match="^need 1 <= n_min <= n_max$"):
            SearchConfig("exhaustive", 1, n_min, n_max)
    for workers in (0, -1):
        with pytest.raises(InvalidParameter, match="^need workers >= 1$"):
            SearchConfig(mode="exhaustive", d=1, n_min=1, n_max=2, workers=workers)
    for budget in (-1, -5):
        with pytest.raises(InvalidParameter, match="^need budget >= 0$"):
            SearchConfig(mode="random", d=3, n_min=10, n_max=10, seed=1, budget=budget)
    # _replace and _make build through the same checks
    with pytest.raises(InvalidParameter, match="^unknown search mode 'sideways'$"):
        SearchConfig("random", 3, 10, 12, seed=1)._replace(workers=0, mode="sideways")
    with pytest.raises(InvalidParameter, match="^need level d >= 1$"):
        SearchConfig._make(["exhaustive", 0, 5, 2, None, 1, 1000, False])
    assert SearchConfig(mode="random", d=3, n_min=10, n_max=10, seed=1, budget=0).budget == 0
    assert SearchConfig(mode="exhaustive", d=3, n_min=1, n_max=2).s_effective == 2
    assert SearchConfig(mode="exhaustive", d=4, n_min=1, n_max=2).s_effective == 2


def test_detect_level():
    d, verdict = detect_level(gen_cycle(5))
    assert d == 1 and verdict.is_leveled
    d, verdict = detect_level(gen_suspension_sphere(4))
    assert d == 2 and verdict.is_leveled
    d, verdict = detect_level(gen_join_of_cycles(2, 10))
    assert d == 3 and verdict.is_leveled
    # mixed maximal-clique sizes fail with the short clique as witness
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
    d, verdict = detect_level(g)
    assert d == 2 and not verdict.is_leveled
    assert verdict.witness == ("maximal-clique", (3, 4))
    d, verdict = detect_level(Graph(0, ()))
    assert d == 0 and not verdict.is_leveled


def test_check_instance_graph_pipeline():
    entry = check_instance("j", gen_join_of_cycles(2, 10))
    assert entry["kind"] == "graph" and entry["flag"]["verdict"] is True
    assert entry["f"] == [1, 10, 35, 50, 25]
    assert entry["h"] == [1, 6, 11, 6, 1]
    assert entry["chi"] == 0
    assert entry["dehn_sommerville"]["all"] and entry["klee"]["all"]
    assert entry["gamma"] == [1, 2, 1]
    assert entry["leveled"] == {"d": 3, "verdict": True}
    assert entry["pseudomanifold"] is True
    assert entry["report"]["bounds"]["thm_odd"]["equality"] is True
    assert entry["potential_counterexample"] is False


def test_check_instance_torus_even_path():
    entry = check_instance("t", gen_grid_torus(4, 4))
    assert entry["leveled"] == {"d": 2, "verdict": True}
    assert entry["gamma"] is None  # h is not palindromic
    assert not entry["dehn_sommerville"]["all"]
    report = entry["report"]
    # the even bound targets sphere-like instances; the torus misses the
    # palindromy hypothesis and overshoots without raising a flag
    assert report["bounds"]["conj_even"]["holds"] is False
    assert any("palindromy" in note for note in report["notes"])
    assert entry["potential_counterexample"] is False


def test_check_instance_flag_complex_delegates():
    k = SimplicialComplex.from_facets(6, gen_suspension_sphere(4).maximal_cliques())
    entry = check_instance("oct", k)
    assert entry["kind"] == "complex" and entry["facets"] == 8
    assert entry["flag"]["verdict"] is True
    assert entry["f"] == [1, 6, 12, 8]
    assert entry["leveled"] == {"d": 2, "verdict": True}
    assert entry["pseudomanifold"] is True


@pytest.mark.parametrize(
    "make,expected",
    [
        # C5 * C5 and the suspension (two apexes) * C5 are worked factor by
        # factor: one census per factor gives its counts and maximal cliques,
        # and no kernel call sees the whole graph
        (lambda: gen_join_of_cycles(2, 10), {"clique_census": [5, 5]}),
        (lambda: gen_suspension_sphere(5), {"clique_census": [2, 5]}),
        # the torus is prime, and is_flag lists its maximal cliques before
        # the counts are asked for: Bron-Kerbosch once, counts once
        (
            lambda: SimplicialComplex.from_facets(16, gen_grid_torus(4, 4).maximal_cliques()),
            {"maximal_cliques": [16], "clique_counts": [16]},
        ),
    ],
    ids=["join-odd-report", "sphere-even-entry", "torus-facets"],
)
def test_check_instance_does_clique_work_once(monkeypatch, make, expected):
    obj = make()
    names = ("maximal_cliques", "leveled_violation", "clique_counts", "clique_census")
    calls = {name: [] for name in names}
    for name in calls:
        def counted(masks, n, *rest, _name=name, _kernel=getattr(kernels, name)):
            calls[_name].append(n)
            return _kernel(masks, n, *rest)
        monkeypatch.setattr(kernels, name, counted)
    entry = check_instance("x", obj)
    assert entry["leveled"]["verdict"] is True and "report" in entry
    assert calls == {name: expected.get(name, []) for name in names}


def test_ridge_test_runs_once_per_factor(monkeypatch):
    # detect_level and the odd-level bound report both ask for the ridge test
    sizes = []
    ridges = Graph.ridge_violation.func

    def counted(g):
        sizes.append(g.n)
        return ridges(g)

    prop = cached_property(counted)
    prop.__set_name__(Graph, "ridge_violation")
    monkeypatch.setattr(Graph, "ridge_violation", prop)
    entry = check_instance("x", gen_join_of_cycles(2, 10))
    assert entry["leveled"] == {"d": 3, "verdict": True} and "report" in entry
    assert sizes == [5, 5]


def test_maximal_cliques_are_an_immutable_cache():
    g = gen_cycle(5)
    assert isinstance(g.maximal_cliques(), tuple)
    assert g.maximal_cliques() is g.maximal_cliques()


def test_check_instance_non_flag_complex():
    k = SimplicialComplex.from_facets(3, [(0, 1), (1, 2), (0, 2)])
    entry = check_instance("hollow", k)
    assert entry["flag"]["verdict"] is False
    assert entry["flag"]["witness"] == [0, 1, 2]
    assert entry["f"] == [1, 3, 3]
    assert entry["leveled"] is None
    assert entry["pseudomanifold"] is True  # every vertex lies in two edges
    assert any("not flag" in note for note in entry["notes"])


def test_run_corpus_checks_isolates_failures(tmp_path):
    good6 = tmp_path / "pair.g6"
    good6.write_text(dump_graph6(gen_join_of_cycles(2, 10)) + "\n" + dump_graph6(gen_cycle(5)) + "\n")
    bad = tmp_path / "broken.txt"
    bad.write_text("3 1\n7 9\n")
    facets = tmp_path / "oct.facets"
    facets.write_text(dump_facet_list(
        SimplicialComplex.from_facets(6, gen_suspension_sphere(4).maximal_cliques())
    ))
    entries = run_corpus_checks([good6, bad, facets])
    kinds = [e["kind"] for e in entries]
    assert kinds == ["graph", "graph", "error", "complex"]
    err = entries[2]["error"]
    assert err["line"] == 2 and err["path"] == str(bad) and err["stage"] == "parse"

    summary = corpus_summary(entries)
    assert summary["instances"] == 4 and summary["parse_errors"] == 1
    assert summary["ok"] == 3 and summary["potential_counterexamples"] == 0
    # join at upper-bound equality, C5 at equality for both odd bounds,
    # octahedron at even-bound equality (12 = 3n - 6)
    assert summary["equality_cases"] == 4
