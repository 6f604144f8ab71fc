"""Top-level acceptance run: nine exact, desk-scale criteria.

Each test prints one [criterion-N] PASS line on success (run with -s to
see them); any failure surfaces as a plain assert with the offending
instance.  All comparisons are exact; nothing here is approximate.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from flagstone import (
    Graph,
    SearchConfig,
    bollobas_lower_bound,
    check_dehn_sommerville,
    check_klee,
    check_lemma_independent_bound,
    clique_complex,
    contains_multipartite_subgraph,
    disjoint_union,
    edge_bound_odd,
    euler_characteristic,
    exhaustive_search,
    extract_partition,
    gamma_check,
    gamma_vector,
    gen_complete_multipartite,
    gen_cycle,
    gen_grid_torus,
    gen_join_of_cycles,
    gen_suspension_sphere,
    graph_f_vector,
    graph_from_key,
    h_vector,
    is_d_leveled,
    is_weak_pseudomanifold,
    join,
    restrict_witness,
    verify_multipartite_witness,
    verify_type_partition,
    witness_link,
)
from flagstone import kernels
from helpers import partitions, unpruned_classes


def test_criterion_1_extremal_joins():
    t0 = time.monotonic()
    cases = 0
    for s in (1, 2, 3, 4):
        for n in range(4 * s, 61, s):
            g = gen_join_of_cycles(s, n)
            assert is_d_leveled(g, 2 * s - 1).is_leveled, (s, n)
            bound = edge_bound_odd(n, s)
            assert bound.denominator == 1
            assert g.edge_count == bound, (s, n, g.edge_count, bound)
            cases += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"\n[criterion-1] PASS: {cases} cycle joins leveled at edge equality "
          f"({elapsed:.1f}s)")


def test_criterion_2_face_vector_pipeline():
    def h_of(g, d):
        return h_vector(graph_f_vector(g), d)

    h5 = h_of(gen_cycle(5), 1)
    assert h5 == (1, 3, 1) and gamma_vector(h5) == (1, 1)
    hoct = h_of(gen_suspension_sphere(4), 2)
    assert hoct == (1, 3, 3, 1) and gamma_vector(hoct) == (1, 0)
    h44 = h_of(gen_join_of_cycles(2, 8), 3)
    assert h44 == (1, 4, 6, 4, 1) and gamma_vector(h44) == (1, 0, 0)
    g55 = gamma_vector(h_of(gen_join_of_cycles(2, 10), 3))
    assert g55 == (1, 2, 1)
    # gamma_2 = ((s-1)/2s) gamma_1^2 exactly, s = 2
    assert g55[2] == Fraction(1, 4) * g55[1] ** 2
    print("[criterion-2] PASS: h and gamma vectors exact on the four reference instances")


def test_criterion_3_gamma_matches_edge_bound():
    rng = random.Random(3303)
    checked = 0
    for _ in range(10000):
        s = rng.randrange(1, 11)
        f0 = rng.randrange(1, 10**6 + 1)
        f1 = rng.randrange(0, f0 * f0 + 1)
        assert gamma_check(f0, f1, s)[2] == (f1 <= edge_bound_odd(f0, s)), (f0, f1, s)
        checked += 1
    # boundary shots: straddle the bound where the verdict flips
    for _ in range(500):
        s = rng.randrange(1, 11)
        f0 = rng.randrange(1, 10**6 + 1)
        pivot = edge_bound_odd(f0, s)
        for f1 in (math.floor(pivot) - 1, math.floor(pivot), math.ceil(pivot) + 1):
            if f1 < 0:
                continue
            assert gamma_check(f0, f1, s)[2] == (f1 <= pivot), (f0, f1, s)
            checked += 1
    assert checked >= 10**4
    print(f"[criterion-3] PASS: gamma verdict = edge-bound verdict on {checked} triples")


def test_criterion_4_palindromy_and_klee():
    spheres = []
    for s in (1, 2, 3, 4):
        for n in range(4 * s, 4 * s + 9, s):
            spheres.append((gen_join_of_cycles(s, n), 2 * s - 1))
    for k in range(4, 11):
        spheres.append((gen_suspension_sphere(k), 2))
    for d in range(1, 8):
        spheres.append((gen_complete_multipartite((2,) * (d + 1)), d))
    for g, d in spheres:
        h = h_vector(graph_f_vector(g), d)
        ok, _ = check_dehn_sommerville(h)
        assert ok, (g.n, d, h)

    f = graph_f_vector(gen_grid_torus(4, 4))
    h = h_vector(f, 2)
    assert h == (1, 13, 19, -1)
    ds_ok, per = check_dehn_sommerville(h)
    assert not ds_ok and per[1] is False
    assert h[2] - h[1] == 6
    chi = euler_characteristic(f)
    assert chi == 0
    klee_ok, _ = check_klee(h, chi, 2)
    assert klee_ok
    print(f"[criterion-4] PASS: {len(spheres)} sphere instances palindromic; "
          "torus breaks palindromy by 6 yet satisfies the chi=0 equations")


def test_criterion_5_clique_count_floor():
    t0 = time.monotonic()
    rng = random.Random(3305)
    corpus = [gen_join_of_cycles(s, n) for s in (1, 2, 3) for n in (4 * s, 5 * s)]
    corpus += [gen_suspension_sphere(k) for k in (4, 6, 8)]
    corpus.append(gen_grid_torus(4, 4))
    for i in range(50):
        t = 2 + i % 2
        n = rng.randrange(10, 41)
        lo = math.ceil(Fraction(t - 1, 2 * t) * n * n)
        hi = math.floor(Fraction(t, 2 * (t + 1)) * n * n)
        m = rng.randrange(lo, hi + 1)
        pairs = list(itertools.combinations(range(n), 2))
        corpus.append(Graph.from_edges(n, rng.sample(pairs, m)))
    checked = 0
    for g in corpus:
        for t in (2, 3):
            value, in_window = bollobas_lower_bound(g.n, g.edge_count, t)
            if not in_window:
                continue
            assert g.clique_count(t + 1) >= math.ceil(value), (g.n, g.edge_count, t)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked >= 50
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"[criterion-5] PASS: clique counts clear the floor in {checked} "
          f"in-window cases ({elapsed:.1f}s)")


def test_criterion_6_no_forbidden_multipartite():
    negatives = 0
    for n in range(4, 21):
        for parts in partitions(n, 4):
            g = gen_cycle(parts[0])
            for k in parts[1:]:
                g = disjoint_union(g, gen_cycle(k))
            found, _ = contains_multipartite_subgraph(g, (1, 3))
            assert not found, parts
            negatives += 1
    for a in range(4, 17):
        for b in range(a, 21 - a):
            found, _ = contains_multipartite_subgraph(join(gen_cycle(a), gen_cycle(b)), (1, 3, 3))
            assert not found, (a, b)
            negatives += 1
    for pattern in ((1, 3), (1, 3, 3)):
        g = gen_complete_multipartite(pattern)
        found, witness = contains_multipartite_subgraph(g, pattern)
        assert found and verify_multipartite_witness(g, pattern, witness)
    print(f"[criterion-6] PASS: {negatives} skeletons free of the forbidden pattern; "
          "positive controls witnessed")


def test_criterion_7_exhaustive_oracle():
    t0 = time.monotonic()
    res = exhaustive_search(
        SearchConfig(mode="exhaustive", d=3, n_min=4, n_max=10, allow_huge=True)
    )
    got = {e["n"]: e for e in res.per_n}
    assert all(got[n]["leveled_classes"] == 0 for n in range(4, 8))
    expected = {8: (1, 24, "24"), 9: (1, 29, "117/4"), 10: (3, 35, "35")}
    for n, (classes, edges, bound) in expected.items():
        top = got[n]
        assert (top["leveled_classes"], top["max_edges"], top["bound"]) == (classes, edges, bound)
        assert top["bound_holds"] is True
    for n in (8, 10):
        best = Graph.from_edges(n, [tuple(e) for e in got[n]["argmax_edges"]])
        reference = join(gen_cycle(n // 2), gen_cycle(n // 2))
        assert kernels.canonical_key(list(best.masks), n) == kernels.canonical_key(
            list(reference.masks), n
        )
    res1 = exhaustive_search(SearchConfig(mode="exhaustive", d=1, n_min=4, n_max=9))
    for entry in res1.per_n:
        assert entry["max_edges"] == entry["n"]
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    print(f"[criterion-7] PASS: level-3 space empty through n=7; 1, 1 and 3 classes "
          f"at n=8, 9, 10 with 24, 29 and 35 edges, extremal at n=8 the double-square "
          f"join and at n=10 the double-pentagon join; level-1 maxima equal n "
          f"({elapsed:.1f}s)")


def test_criterion_8_predicates_agree():
    levels = unpruned_classes(7)
    classes = 0
    # both predicates are relabeling-invariant, so one representative per
    # isomorphism class covers every graph on <= 7 vertices
    for n in range(1, 8):
        for key in levels[n]:
            g = graph_from_key(key, n)
            k = clique_complex(g)
            for d in (1, 2, 3):
                assert is_d_leveled(g, d).is_leveled == is_weak_pseudomanifold(k, d)[0], (n, key, d)
            classes += 1
    assert classes == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    print(f"[criterion-8] PASS: level test = pseudomanifold test on {classes} classes x 3 levels")


def _random_instance(rng, s, n):
    g = gen_join_of_cycles(s, n)
    k = n // s
    for _ in range(rng.randrange(0, 3)):
        u = rng.randrange(0, k)
        v = k + rng.randrange(0, n - k)
        if g.has_edge(u, v):
            g = g.without_edge(u, v)
    return g


def test_criterion_9_structure_suites():
    rng = random.Random(3309)
    for _ in range(100):  # restriction
        s, n = rng.choice([(2, 10), (2, 14), (3, 18)])
        g = _random_instance(rng, s, n)
        w = extract_partition(g, s, Fraction(1, 4))
        subsets = [rng.sample(p, rng.randrange(max(1, len(p) - 2), len(p) + 1)) for p in w.parts]
        sub, wr = restrict_witness(g, w, subsets)
        beta = min(Fraction(len(ts), len(p)) for ts, p in zip(subsets, w.parts))
        assert wr.eta == w.eta / beta
        assert verify_type_partition(sub, wr).ok

    for _ in range(100):  # common neighborhood floor
        s, n = rng.choice([(2, 10), (2, 12), (2, 14)])
        g = _random_instance(rng, s, n)
        w = extract_partition(g, s, Fraction(1, 4))
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

    for _ in range(100):  # link type rescaling
        g = _random_instance(rng, 3, 15)
        w = extract_partition(g, 3, Fraction(1, 4))
        p0 = list(w.parts[0])
        a = rng.choice([v for v in p0 if any(g.has_edge(v, u) for u in p0)])
        nbrs_in = [v for v in p0 if g.has_edge(a, v)]
        b = rng.choice(list(w.parts[1]))
        # half the time take a cross pair when available, else a cycle edge
        if rng.random() < 0.5 and g.has_edge(a, b):
            sigma = (a, b)
        else:
            sigma = (a, rng.choice(nbrs_in))
        lk, wl = witness_link(g, w, sigma)
        assert wl.eta == w.eta / (1 - w.eta * len(sigma))
        assert verify_type_partition(lk, wl).ok

    for _ in range(100):  # independent set against the complement
        s, n = rng.choice([(1, 8), (1, 12), (2, 10), (2, 12)])
        g = gen_join_of_cycles(s, n)
        k = n // s
        ind = tuple(range(0, k - 1, 2))[: k // 2]
        exc = tuple(v for v in range(g.n) if v not in ind)
        ok, lhs, rhs = check_lemma_independent_bound(g, 2 * s - 1, ind, exc)
        assert ok and lhs <= rhs

    print("[criterion-9] PASS: restriction, neighborhood floor, link rescaling, "
          "and independent-complement suites clean on 100 seeded instances each")
