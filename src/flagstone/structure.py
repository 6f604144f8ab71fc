"""Structural predicates: flagness, weak pseudomanifolds and leveled graphs.

The almost-join machinery of the paper's stability argument lives in
`flagstone.stability`.

The level test has one path, on the join factors (`Graph.join_factors`;
a graph with a connected complement is its own single factor): their
maximal-clique sizes, then one cached ridge count per factor
(`graphs.unpaired_ridge`, as in `is_weak_pseudomanifold`), which both
decides and names the least failing ridge.  `detect_level` picks the one
level a graph can pass and runs the same test there.
"""

from collections import namedtuple
from itertools import count

from . import kernels
from .errors import InvalidParameter
from .graphs import unpaired_ridge


# -- flagness and pseudomanifolds ---------------------------------------


def is_flag(k):
    """Is every clique of the 1-skeleton a face?

    Yes exactly when every maximal clique of size >= 3 is a facet
    (`maximal_cliques_are_facets`).  Returns (True, None) or (False,
    witness) with witness the lexicographically first non-face clique of
    the smallest size s, a minimal non-face: tau + (w,) for an (s-1)-face
    tau and a common neighbor w > max tau, first in the walk over the
    sorted faces (`faces_by_size`, within FACE_BUDGET).  The
    complex keeps the verdict and the face listing, so `f_vector` of a
    complex that is not flag decides and lists nothing again.
    """
    if k._flag:
        return True, None
    faces = k.faces_by_size()
    masks = k.one_skeleton().masks
    for size in count(3):
        for tau in sorted(faces[size - 1]):
            common = -1 << (tau[-1] + 1)
            for v in tau:
                common &= masks[v]
            for w in kernels.bits_of(common):
                if tau + (w,) not in faces.get(size, ()):
                    return False, tau + (w,)


def is_weak_pseudomanifold(k, d):
    """Pure of dimension d with every (d-1)-face in exactly two facets.

    Returns (True, None) or (False, witness); witness is ("empty",) for a
    complex with no facets, ("impure", facet) for a facet of the wrong
    dimension, or ("ridge", ridge, count) for the least ridge with incidence
    != 2 (`unpaired_ridge`).
    """
    if not k.facets:
        return False, ("empty",)
    for facet in k.facets:
        if len(facet) != d + 1:
            return False, ("impure", facet)
    hit = unpaired_ridge(k.facets)
    if hit is not None:
        return False, ("ridge", *hit)
    return True, None


class LeveledVerdict(namedtuple("LeveledVerdict", "is_leveled d witness", defaults=(None,))):
    """Outcome of the level test at a fixed d.

    witness is None on a pass, else the one violation that settles the
    test: ("maximal-clique", clique) for a maximal clique of size != d+1,
    ("link", sigma, link_vertices) for a d-clique whose common neighborhood
    is not two isolated vertices, or ("empty",) for the 0-vertex graph.
    """

    __slots__ = ()


def is_d_leveled(g, d):
    """Every maximal clique has size d+1 and every d-clique's common
    neighborhood is exactly two nonadjacent vertices.

    Equivalent to the clique complex being a d-dimensional weak
    pseudomanifold; both code paths exist and the test suite cross-checks
    them on every small graph.

    The test reads only the join factors G_1, ..., G_t (a graph with a
    connected complement is its own single factor).  The maximal cliques
    of G are the unions of one maximal clique per factor, so G's sizes are
    the sums of one size per factor, a singleton exactly when each factor
    has a single size k_i, and then k_1 + ... + k_t = d+1.  A d-clique
    then meets each G_i in at most k_i vertices, so it is a (k_j - 1)-clique
    of one factor G_j with a maximal clique of every other G_i, which adds
    no common neighbor: the link condition holds exactly when every ridge
    F_j - v of every factor's maximal cliques has two common neighbors in
    G_j (`Graph.ridge_violation`, which also names the least failing one).

    Both witnesses are the lexicographically first violations.  Two unions
    of the same part sizes, or two maximal cliques, compare by the least
    element of their symmetric difference, so the least union takes the
    least part in every factor.  The link witness is the least, over the
    failing factors G_j, of G_j's failing ridge with every other factor's
    first maximal clique.  The union U of the first maximal
    cliques is the least maximal clique, the wrong-size witness when
    |U| != d+1.  Otherwise a wrong-size union that differs from U in two
    or more factors can undo one change, stay wrong-size and get smaller,
    so the witness is the least U with one factor's part swapped for that
    factor's first maximal clique of another size.
    """
    if d < 0:
        raise InvalidParameter("level must be nonnegative")
    if g.n == 0:
        return LeveledVerdict(False, d, ("empty",))
    factors = g.join_factors()
    firsts = [f.maximal_cliques()[0] for f, _ in factors]

    def union(j=0, part=None):
        # the factors' first maximal cliques, with factor j's swapped for
        # part, as one sorted clique of g
        parts = [*firsts[:j], firsts[j] if part is None else part, *firsts[j + 1:]]
        return tuple(sorted(vmap[v] for (_, vmap), p in zip(factors, parts) for v in p))

    if g.maximal_clique_sizes() == (d + 1,):
        hits = [(j, f.ridge_violation) for j, (f, _) in enumerate(factors) if f.ridge_violation is not None]
        if not hits:
            return LeveledVerdict(True, d)
        return LeveledVerdict(False, d, min(
            ("link", union(j, sigma), tuple(factors[j][1][v] for v in link)) for j, (sigma, link) in hits
        ))
    bad = union()
    if len(bad) == d + 1:
        bad = min(
            union(j, next(c for c in f.maximal_cliques() if len(c) != len(firsts[j])))
            for j, (f, _) in enumerate(factors) if len(f.maximal_clique_sizes()) > 1
        )
    return LeveledVerdict(False, d, ("maximal-clique", bad))


def detect_level(g):
    """The only level g can pass, with the verdict of the level test there.

    The level is d = k - 1 for the largest maximal-clique size k (d = 0 for
    the graph on zero vertices); with mixed sizes the test fails at d with
    a wrong-size maximal clique as the witness.
    """
    sizes = g.maximal_clique_sizes()
    d = sizes[-1] - 1 if sizes else 0
    return d, is_d_leveled(g, d)

