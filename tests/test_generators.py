"""Deterministic instance generators."""

import pytest

from flagstone import (
    InvalidParameter,
    cycle_part_sizes,
    gen_complete_multipartite,
    gen_cycle,
    gen_grid_torus,
    gen_independent,
    gen_join_of_cycles,
    gen_suspension_sphere,
    graph_f_vector,
    euler_characteristic,
)
from flagstone.complexes import VERTEX_LIMIT


def test_cycle():
    g = gen_cycle(5)
    assert g.n == 5 and g.edge_count == 5
    assert all(g.degree(v) == 2 for v in range(5))
    assert gen_cycle(3).edge_count == 3  # K3: allowed, degenerate downstream
    with pytest.raises(InvalidParameter):
        gen_cycle(2)


def test_independent_and_multipartite():
    assert gen_independent(4).edge_count == 0
    assert gen_independent(0).n == 0
    g = gen_complete_multipartite((2, 3))
    assert g.edge_count == 6
    assert gen_complete_multipartite((1, 1, 1)).edge_count == 3
    with pytest.raises(InvalidParameter):
        gen_complete_multipartite(())
    with pytest.raises(InvalidParameter):
        gen_complete_multipartite((2, 0))


def test_cycle_part_sizes():
    assert cycle_part_sizes(2, 10) == (5, 5)
    assert cycle_part_sizes(3, 13) == (5, 4, 4)
    assert cycle_part_sizes(2, 9) == (5, 4)
    assert sum(cycle_part_sizes(4, 23)) == 23
    for s, n in ((0, 5), (-1, 5), (2, -3)):
        with pytest.raises(InvalidParameter):
            cycle_part_sizes(s, n)


def test_join_of_cycles_edge_formula():
    # s | n: exactly ((s-1)/2s) n^2 + n edges
    for s, n in ((1, 8), (2, 10), (2, 12), (3, 12), (4, 16)):
        g = gen_join_of_cycles(s, n)
        assert g.n == n
        assert 2 * s * g.edge_count == (s - 1) * n * n + 2 * s * n
    with pytest.raises(InvalidParameter):
        gen_join_of_cycles(2, 7)  # parts would drop below 4
    with pytest.raises(InvalidParameter):
        gen_join_of_cycles(0, 8)


def test_join_of_cycles_unbalanced():
    g = gen_join_of_cycles(2, 9)  # parts 5 and 4
    assert g.edge_count == 5 + 4 + 20


def test_suspension_sphere_is_octahedron():
    g = gen_suspension_sphere(4)
    assert g.n == 6 and g.edge_count == 12
    assert g.canonical_key() == gen_complete_multipartite((2, 2, 2)).canonical_key()
    assert not g.has_edge(0, 1)  # the two apexes
    with pytest.raises(InvalidParameter):
        gen_suspension_sphere(3)


def test_grid_torus():
    g = gen_grid_torus(4, 4)
    f = graph_f_vector(g)
    assert f == (1, 16, 48, 32)
    assert all(g.degree(v) == 6 for v in range(16))
    assert euler_characteristic(f) == 0
    g2 = gen_grid_torus(4, 5)
    assert g2.n == 20 and all(g2.degree(v) == 6 for v in range(20))
    with pytest.raises(InvalidParameter):
        gen_grid_torus(3, 4)


def test_generators_refuse_sizes_over_the_vertex_limit():
    # each raises before building a row, so a huge request costs nothing
    over = VERTEX_LIMIT + 1
    for build in (lambda: gen_cycle(over), lambda: gen_independent(10**9),
                  lambda: gen_complete_multipartite((1, VERTEX_LIMIT)),
                  lambda: gen_join_of_cycles(1, over), lambda: gen_suspension_sphere(over - 2),
                  lambda: gen_grid_torus(10**6, 10**6)):
        with pytest.raises(InvalidParameter, match="over the vertex limit"):
            build()
