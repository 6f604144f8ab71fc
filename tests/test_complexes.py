"""Simplicial complexes and the f/h/gamma transform stack.

Every identity here must hold exactly; the module is all integer
arithmetic, so any deviation is a logic error, not noise.
"""

import itertools
import math
import random

import pytest

from flagstone import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidComplex,
    InvalidParameter,
    NotPalindromic,
    SimplicialComplex,
    check_dehn_sommerville,
    check_klee,
    clique_complex,
    euler_characteristic,
    f_vector,
    gamma_vector,
    gen_cycle,
    gen_suspension_sphere,
    graph_f_vector,
    h_vector,
    join,
    kernels,
    sphere_euler_characteristic,
)
from helpers import (
    brute_faces,
    brute_maximal_facets,
    random_graph,
    reference_h_vector,
    reference_h_from_gamma,
)


def test_from_facets_normalizes():
    k = SimplicialComplex.from_facets(4, [(2, 1), (1, 2), (0,), (3, 2, 1)])
    assert k.facets == ((0,), (1, 2, 3))
    assert k.dimension == 2
    with pytest.raises(InvalidComplex):
        SimplicialComplex.from_facets(2, [(0, 5)])
    # repeats inside a facet are dropped, not rejected
    assert SimplicialComplex.from_facets(2, [(0, 0)]).facets == ((0,),)


def test_from_facets_matches_brute():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(1, 8)
        facets = [
            rng.sample(range(n), rng.randrange(0, n + 1)) for _ in range(rng.randrange(0, 12))
        ]
        assert SimplicialComplex.from_facets(n, facets).facets == brute_maximal_facets(facets)


def test_void_and_empty_complexes():
    void = SimplicialComplex.from_facets(0, [])
    assert void.facets == () and void.dimension == -1
    assert f_vector(void) == ()
    empty = SimplicialComplex.from_facets(0, [()])
    assert empty.facets == ((),) and empty.dimension == -1
    assert f_vector(empty) == (1,)


def test_faces_and_membership():
    k = SimplicialComplex.from_facets(4, [(0, 1, 2), (2, 3)])
    by_size = k.faces_by_size()
    assert sorted(by_size) == [0, 1, 2, 3]
    assert (0, 2) in by_size[2] and () in by_size[0] and (1, 3) not in by_size[2]
    assert set().union(*by_size.values()) == brute_faces(k)
    assert all(len(face) == size for size, faces in by_size.items() for face in faces)
    assert SimplicialComplex.from_facets(0, []).faces_by_size() == {}
    assert SimplicialComplex.from_facets(0, [()]).faces_by_size() == {0: {()}}


def test_one_skeleton_and_clique_complex_roundtrip():
    g = gen_suspension_sphere(4)
    k = clique_complex(g)
    assert k.one_skeleton().masks == g.masks
    assert f_vector(k) == graph_f_vector(g)


def test_f_vector_counts_cliques_by_size():
    rng = random.Random(21)
    for _ in range(25):
        g = random_graph(rng.randrange(1, 8), rng.random(), rng)
        f = graph_f_vector(g)
        for size in range(len(f)):
            assert f[size] == g.clique_count(size)


def test_h_vector_examples():
    assert h_vector((1, 5, 5), 1) == (1, 3, 1)  # C5
    assert h_vector((1, 6, 12, 8), 2) == (1, 3, 3, 1)  # octahedron
    assert h_vector((1, 8, 24, 32, 16), 3) == (1, 4, 6, 4, 1)  # C4*C4
    assert h_vector((1, 10, 35, 50, 25), 3) == (1, 6, 11, 6, 1)  # C5*C5
    assert h_vector((1, 16, 48, 32), 2) == (1, 13, 19, -1)  # grid torus 4x4
    with pytest.raises(DimensionMismatch):
        h_vector((1, 5, 5), 2)
    with pytest.raises(InvalidParameter):
        h_vector((2, 5, 5), 1)


@pytest.mark.parametrize("d", range(-1, 21))
def test_h_transforms_match_the_defining_sums(d):
    rng = random.Random(100 + d)
    for _ in range(25):
        f = (1,) + tuple(rng.randrange(-10 ** 6, 10 ** 6) for _ in range(d + 1))
        assert h_vector(f, d) == reference_h_vector(f, d)


def test_gamma_examples():
    assert gamma_vector((1, 3, 1)) == (1, 1)
    assert gamma_vector((1, 3, 3, 1)) == (1, 0)
    assert gamma_vector((1, 4, 6, 4, 1)) == (1, 0, 0)
    assert gamma_vector((1, 6, 11, 6, 1)) == (1, 2, 1)
    with pytest.raises(NotPalindromic):
        gamma_vector((1, 13, 19, -1))


def test_gamma_roundtrip_random():
    # build a palindromic h by pushing a random gamma forward, then invert
    rng = random.Random(23)
    for _ in range(200):
        d = rng.randrange(0, 7)
        s = (d + 1) // 2
        gamma = (1,) + tuple(rng.randrange(-30, 60) for _ in range(s))
        h = reference_h_from_gamma(gamma, d)
        assert h[0] == 1 and h == tuple(reversed(h))
        assert gamma_vector(h) == gamma


def test_euler_characteristic():
    assert euler_characteristic((1, 6, 12, 8)) == 2  # 2-sphere
    assert euler_characteristic((1, 16, 48, 32)) == 0  # torus
    assert euler_characteristic((1, 5, 5)) == 0  # circle
    assert sphere_euler_characteristic(2) == 2
    assert sphere_euler_characteristic(3) == 0


def test_dehn_sommerville():
    ok, per = check_dehn_sommerville((1, 3, 3, 1))
    assert ok and all(per)
    ok, per = check_dehn_sommerville((1, 13, 19, -1))
    assert not ok and per[1] is False
    # difference at the failing index is 6: h2 - h1 = 19 - 13
    assert (1, 13, 19, -1)[2] - (1, 13, 19, -1)[1] == 6


def test_klee():
    # torus: chi = 0 != chi(S^2), Klee holds where plain DS does not
    ok, per = check_klee((1, 13, 19, -1), 0, 2)
    assert ok and all(per)
    # sphere h-vectors satisfy Klee with chi of the sphere
    ok, _ = check_klee((1, 3, 3, 1), 2, 2)
    assert ok
    ok, _ = check_klee((1, 6, 11, 6, 1), 0, 3)
    assert ok


def test_klee_reduces_to_ds_for_sphere_chi():
    rng = random.Random(24)
    for _ in range(100):
        d = rng.randrange(1, 6)
        h = (1,) + tuple(rng.randrange(-20, 40) for _ in range(d + 1))
        ds_ok, _ = check_dehn_sommerville(h)
        klee_ok, _ = check_klee(h, sphere_euler_characteristic(d), d)
        assert ds_ok == klee_ok


def test_join_multiplies_h_polynomials():
    # h(K1 * K2) corresponds to the product of h-polynomials; check C5 * C5
    g = join(gen_cycle(5), gen_cycle(5))
    h = h_vector(graph_f_vector(g), 3)
    c5h = h_vector(graph_f_vector(gen_cycle(5)), 1)
    prod = [0] * 5
    for i, a in enumerate(c5h):
        for j, b in enumerate(c5h):
            prod[i + j] += a * b
    assert h == tuple(prod)


def test_dimension_cap():
    with pytest.raises(InvalidComplex):
        SimplicialComplex.from_facets(26, [tuple(range(26))])
    k = SimplicialComplex.from_facets(25, [tuple(range(25))])
    assert k.dimension == 24


def test_face_budget():
    # an 18-vertex facet spans 2^18 faces, over the 2^17 budget
    k = SimplicialComplex.from_facets(18, [tuple(range(18))])
    with pytest.raises(BudgetExceeded):
        k.faces_by_size()
    # the boundary of that simplex is not flag, so its faces must be listed
    boundary = SimplicialComplex.from_facets(18, itertools.combinations(range(18), 17))
    with pytest.raises(BudgetExceeded):
        f_vector(boundary)


def test_f_vector_of_flag_complex_counts_cliques():
    # the K18 simplex is flag: its faces are counted as the cliques of K18,
    # never listed, so the face budget does not apply
    k = SimplicialComplex.from_facets(18, [tuple(range(18))])
    assert f_vector(k) == tuple(math.comb(18, i) for i in range(19))
    # ambient vertices in no facet are not faces
    k = SimplicialComplex.from_facets(7, [(0, 1, 2), (2, 3), (3, 4)])
    listed = k.faces_by_size()
    assert f_vector(k) == (1, 5, 5, 1) == tuple(len(listed[size]) for size in range(4))


def test_flag_complex_of_triangle_free_graph_is_graph():
    rng = random.Random(25)
    for _ in range(20):
        g = random_graph(rng.randrange(1, 9), 0.2, rng)
        if kernels.clique_number(g.masks, g.n) > 2:
            continue
        k = clique_complex(g)
        assert k.dimension <= 1
        assert f_vector(k) == graph_f_vector(g)
