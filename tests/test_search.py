"""Enumeration, random mode's cycle-join report, and corpus checking."""

import concurrent.futures
import itertools
import os
from functools import cached_property
from pathlib import Path

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
    parse_facet_list,
    random_search,
    run_corpus_checks,
)
from flagstone import complexes, kernels, search
from flagstone.complexes import SimplicialComplex
from helpers import all_graphs, leveled_keys, partitions, unpruned_classes

GOLDEN = Path(__file__).parent / "data" / "golden"


def test_enumerate_classes_counts():
    # the unpruned oracle counts every class: 1, 2, 4, 11, 34, 156 graphs
    levels = unpruned_classes(6)
    assert [len(levels[n]) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_enumerate_classes_matches_brute_classes():
    # the unpruned oracle against every labeled graph
    levels = unpruned_classes(5)
    for n in range(1, 6):
        seen = {kernels.canonical_key(list(g.masks), g.n) for g in all_graphs(n)}
        assert sorted(seen) == levels[n]


def test_enumerate_classes_clique_cap():
    levels = unpruned_classes(6, clique_cap=4)
    assert [len(levels[n]) for n in (4, 5, 6)] == [11, 33, 150]
    for key in levels[6]:
        g = graph_from_key(key, 6)
        assert kernels.clique_number(g.masks, g.n) <= 4


def test_enumerate_workers_byte_identical():
    assert enumerate_classes(8, 1, workers=2) == enumerate_classes(8, 1, workers=1)
    assert enumerate_classes(7, 2, workers=2) == enumerate_classes(7, 2)


def test_enumerate_workers_capped_at_cpu_count(monkeypatch):
    # on one CPU a request for many workers starts no process at all; at
    # d=1, n_max=8 the classes on 6 vertices (15) would fill a pool of 8
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    # pinned to one CPU of eight: the affinity mask is the cap
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert enumerate_classes(8, 1, workers=8) == enumerate_classes(8, 1)
    # where the platform has no affinity mask, the CPU count is
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert enumerate_classes(8, 1, workers=8) == enumerate_classes(8, 1)


@pytest.mark.parametrize("n_max,d", [(0, 1), (-3, 2)])
def test_enumerate_classes_rejects_n_max_below_one(n_max, d):
    with pytest.raises(InvalidParameter, match="need n_max >= 1"):
        enumerate_classes(n_max, d)
    # the level is required, and checked as SearchConfig checks it
    with pytest.raises(InvalidParameter, match="need level d >= 1"):
        enumerate_classes(1 - n_max, 1 - d)


@pytest.mark.parametrize("d,n_max", [(1, 8), (2, 7), (3, 7)])
def test_pruned_enumeration_keeps_leveled_classes(d, n_max):
    # the unpruned oracle: pruning only drops classes that cannot be
    # d-leveled, and prune (a) implies the clique cap
    pruned = enumerate_classes(n_max, d)
    full = unpruned_classes(n_max, clique_cap=d + 1)
    for n in range(1, n_max + 1):
        assert set(pruned[n]) <= set(full[n])
        assert leveled_keys(pruned[n], n, d) == leveled_keys(full[n], n, d)


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


def test_search_tie_breaks():
    # at level 1 every leveled graph on n vertices (a union of cycles) has
    # n edges: exhaustive mode reports the least canonical key
    res = exhaustive_search(SearchConfig(mode="exhaustive", d=1, n_min=8, n_max=9))
    levels = enumerate_classes(9, 1)
    for entry in res.per_n:
        n = entry["n"]
        leveled = leveled_keys(levels[n], n, 1)
        best = Graph.from_edges(n, [tuple(e) for e in entry["argmax_edges"]])
        assert len(leveled) > 1 and kernels.canonical_key(list(best.masks), n) == min(leveled)


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
    assert res.notes[1:] == ("n=4..7 skipped: below the smallest 2-cycle-join size 8",)
    res = random_search(SearchConfig(mode="random", d=3, n_min=10, n_max=12, seed=1, budget=0))
    assert res.per_n == ()


def test_random_search_writes_one_note_for_a_huge_skipped_range():
    # about 10^9 skipped sizes: one note, written at once
    res = random_search(SearchConfig(mode="random", d=999_999_999, n_min=1, n_max=10**9, seed=1))
    assert res.per_n == ()
    assert res.notes[1:] == ("n=1..1000000000 skipped: below the smallest 500000000-cycle-join size 2000000000",)


@pytest.mark.parametrize("d,n_min,n_max,total", [(3, 10, 290, 2106446), (1, 4, 2047, 2098170)])
def test_random_search_refuses_a_range_by_its_total_edges(monkeypatch, d, n_min, n_max, total):
    # the payload lists the edges of every join in the range; n_max + 1 takes
    # their sum past EDGE_LIMIT = 2^21, though each join stays far under it
    class Built(Exception):
        pass

    def first_join(s, n):
        raise Built(n)

    monkeypatch.setattr(search, "gen_join_of_cycles", first_join)
    with pytest.raises(Built, match=f"^{n_min}$"):
        random_search(SearchConfig(mode="random", d=d, n_min=n_min, n_max=n_max, seed=1))
    s = (d + 1) // 2
    with pytest.raises(InvalidParameter, match=f"^the {s}-cycle joins for n={n_min}..{n_max + 1} "
                                               f"total {total} edges, over the edge limit 2097152$"):
        random_search(SearchConfig(mode="random", d=d, n_min=n_min, n_max=n_max + 1, seed=1))


def test_random_search_range_check_counts_the_payload_edges(monkeypatch):
    # sizes below 4s build no join and count for nothing
    cfg = SearchConfig(mode="random", d=3, n_min=5, n_max=14, seed=1)
    total = sum(len(entry["argmax_edges"]) for entry in random_search(cfg).per_n)
    monkeypatch.setattr(search, "EDGE_LIMIT", total)
    assert [entry["n"] for entry in random_search(cfg).per_n] == list(range(8, 15))
    monkeypatch.setattr(search, "EDGE_LIMIT", total - 1)
    with pytest.raises(InvalidParameter, match=f"^the 2-cycle joins for n=8..14 total {total} edges, "
                                               f"over the edge limit {total - 1}$"):
        random_search(cfg)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_cycle_join_passes_at_odd_level_only(s):
    # random mode lists the join at d = 2s - 1 and none at d = 2s without
    # running the level test
    for n in range(4 * s, 41):
        g = gen_join_of_cycles(s, n)
        assert is_d_leveled(g, 2 * s - 1).is_leveled and not is_d_leveled(g, 2 * s).is_leveled, n


def test_random_search_at_even_level_builds_no_join(monkeypatch):
    # at d=4 the 2-cycle joins for n=8..400 would total 5 433 438 edges, over
    # EDGE_LIMIT, but none is listed, so none is built or counted
    def built(s, n):
        raise AssertionError("a join was built")

    monkeypatch.setattr(search, "gen_join_of_cycles", built)
    assert len(random_search(SearchConfig(mode="random", d=4, n_min=8, n_max=400, seed=1)).per_n) == 393
    # the largest join is still checked, which bounds the number of entries
    with pytest.raises(InvalidParameter, match="^6255000 edges, over the edge limit 2097152$"):
        random_search(SearchConfig(mode="random", d=4, n_min=8, n_max=5000, seed=1))


@pytest.mark.parametrize("s,n", [(s, n) for s in (1, 2, 3) for n in range(4 * s, 4 * s + 4)])
def test_no_edge_swap_of_a_cycle_join_is_leveled(s, n):
    # the theorem of random_search: a walk from the join never moves
    g = gen_join_of_cycles(s, n)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
    for drop in g.edges():
        for add in non_edges:
            swapped = g.without_edge(*drop).with_edge(*add)
            assert not is_d_leveled(swapped, 2 * s - 1).is_leveled, (drop, add)
            assert not is_d_leveled(swapped, 2 * s).is_leveled, (drop, add)


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
        # the torus is prime: is_flag runs its one census, and the f-vector
        # and the level test read what that census cached
        (
            lambda: SimplicialComplex.from_facets(16, gen_grid_torus(4, 4).maximal_cliques()),
            {"clique_census": [16]},
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


@pytest.mark.parametrize(
    "make,census",
    [
        # the facets of K2,2,2,2's clique complex but one: four 2-vertex factors
        (lambda: parse_facet_list((GOLDEN / "hollow.facets").read_text()), [2, 2, 2, 2]),
        # the boundary of the 4-simplex: K5 is the join of five vertices
        (lambda: SimplicialComplex.from_facets(5, itertools.combinations(range(5), 4)), [1] * 5),
        # the edges of the complement of P12: a prime skeleton whose capped
        # census stops, caching nothing on the graph
        (lambda: SimplicialComplex.from_facets(12, [(u, v) for u in range(12) for v in range(u + 2, 12)]),
         [12]),
    ],
    ids=["hollow-facets", "simplex-boundary", "prime-edges"],
)
def test_check_instance_tests_a_non_flag_complex_once(monkeypatch, make, census):
    # is_flag decides and lists the faces for its witness; the f-vector
    # reads both from the complex instead of deciding and listing again
    k = make()
    calls = {"flag": 0, "faces_by_size": 0, "listing": 0, "clique_census": []}

    def count(key, fn):
        def counted(*args):
            if key == "clique_census":
                calls[key].append(args[1])
            else:
                calls[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(complexes, "maximal_cliques_are_facets",
                        count("flag", complexes.maximal_cliques_are_facets))
    monkeypatch.setattr(SimplicialComplex, "faces_by_size", count("faces_by_size", SimplicialComplex.faces_by_size))
    monkeypatch.setattr(kernels, "clique_census", count("clique_census", kernels.clique_census))
    listing = cached_property(count("listing", SimplicialComplex._faces.func))
    listing.__set_name__(SimplicialComplex, "_faces")
    monkeypatch.setattr(SimplicialComplex, "_faces", listing)
    entry = check_instance("x", k)
    assert calls == {"flag": 1, "faces_by_size": 1, "listing": 1, "clique_census": census}
    assert entry["flag"]["verdict"] is False
    assert entry["f"] == [len(level) for _, level in sorted(k.faces_by_size().items())]


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


def test_corpus_summary_counts_each_kind_of_entry():
    # one entry of each kind the summary tells apart, built by hand
    def bound(holds, equality):
        return {"value": "35", "holds": holds, "equality": equality, "status": "theorem", "slack": "0"}

    def error(stage):
        return {"instance": stage, "kind": "error",
                "error": {"stage": stage, "message": "m", "path": f"{stage}.txt", "line": None}}

    entries = [
        error("parse"),
        error("budget"),
        {"instance": "candidate", "kind": "graph", "potential_counterexample": True,
         "report": {"bounds": {"thm_odd": bound(False, False), "lower_odd": bound(True, False)}}},
        {"instance": "tight", "kind": "graph", "potential_counterexample": False,
         "report": {"bounds": {"thm_odd": bound(True, True), "lower_odd": bound(True, True)}}},
        {"instance": "plain", "kind": "complex", "potential_counterexample": False},
    ]
    assert corpus_summary(entries) == {
        "instances": 5,
        "ok": 2,
        "parse_errors": 2,
        "potential_counterexamples": 1,
        "equality_cases": 2,
    }
    assert corpus_summary([]) == dict.fromkeys(
        ("instances", "ok", "parse_errors", "potential_counterexamples", "equality_cases"), 0
    )
