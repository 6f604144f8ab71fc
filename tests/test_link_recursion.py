"""The level test is local: `link_leveled`, its recursion on vertex links,
against `is_d_leveled` in both backends.

For d >= 1 a graph passes at d exactly when it has a vertex and every
vertex link passes at d - 1.  Random graphs rarely pass, so the table of
leveled classes and named families carry the passing cases, and the
random graphs mostly pin the failing ones.
"""

import random

import pytest

from flagstone import (
    disjoint_union,
    gen_cycle,
    gen_grid_torus,
    gen_independent,
    gen_join_of_cycles,
    gen_suspension_sphere,
    graph_from_key,
    is_d_leveled,
    join,
    kernels,
)
from helpers import link_leveled, random_graph, read_leveled_table


@pytest.fixture(params=["py", "c"])
def backend(request, monkeypatch):
    compiled = request.getfixturevalue("compiled_kernels") if request.param == "c" else None
    monkeypatch.setattr(kernels, "_c", compiled)


def _agree(g, d):
    verdict = is_d_leveled(g, d).is_leveled
    assert link_leveled(g, d) == verdict, (g.n, g.masks, d)
    return verdict


def test_link_recursion_on_the_leveled_table(backend):
    passed = 0
    for (d, n), keys in read_leveled_table().items():
        for key in keys:
            g = graph_from_key(key, n)
            assert [_agree(g, level) for level in (d - 1, d, d + 1)] == [False, True, False], (d, n, key)
            passed += 1
    assert passed == 41


def test_link_recursion_on_named_families(backend):
    cases = [(gen_cycle(k), 1) for k in (4, 5, 9)]
    cases += [(gen_join_of_cycles(s, n), 2 * s - 1) for s, n in ((2, 8), (2, 11), (3, 12), (3, 14))]
    cases += [(gen_suspension_sphere(k), 2) for k in (4, 6, 9)]
    cases += [(join(gen_independent(2), gen_join_of_cycles(2, 9)), 4)]
    cases += [(gen_grid_torus(p, q), 2) for p, q in ((4, 4), (4, 6), (5, 5))]
    for g, d in cases:
        assert [_agree(g, level) for level in (d - 1, d, d + 1)] == [False, True, False], (g.n, d)
    # failing shapes: a missing apex, a cycle beside a sphere, one edge too
    # many, and the graphs on no and on one vertex
    assert not _agree(join(gen_independent(1), gen_cycle(6)), 2)
    assert not _agree(disjoint_union(gen_cycle(5), gen_suspension_sphere(4)), 2)
    assert not _agree(gen_cycle(6).with_edge(0, 3), 1)
    for g in (gen_independent(0), gen_independent(1), gen_independent(2)):
        assert [_agree(g, d) for d in range(3)] == [g.n == 2, False, False]


def test_link_recursion_on_seeded_random_graphs(backend):
    rng = random.Random(29)
    passed = 0
    for _ in range(1000):
        g = random_graph(rng.randint(0, 10), rng.random(), rng)
        passed += sum(_agree(g, d) for d in range(5))
    assert passed == 60  # of 5 000 pairs
