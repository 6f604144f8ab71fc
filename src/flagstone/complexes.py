"""Simplicial complexes and their enumerative algebra.

Face-count vectors are plain tuples indexed from the empty face: a complex
of dimension d has f = (f_-1, f_0, ..., f_d) with f[0] = f_-1 = 1.  Read
as coefficients from the highest degree down, f(x) = sum_i f_i x^(d-i)
over i = -1..d, and the h-vector is the Taylor shift h(x) = f(x - 1):

    sum_i h_i x^(d+1-i) = sum_i f_i (x-1)^(d-i),

computed by Horner's rule in exact integers.  The gamma-vector is one
more change of basis,

    sum_i h_i x^i = sum_i gamma_i x^i (x+1)^(d+1-2i),

which has a (unique, integer) solution exactly when h is palindromic.  All
arithmetic is exact: integers, never floats.
"""

from functools import cached_property
from itertools import chain
from math import comb, prod

from .errors import BudgetExceeded, DimensionMismatch, InvalidComplex, InvalidParameter, NotPalindromic
from .graphs import Graph, _Value

DIMENSION_CAP = 24
FACE_BUDGET = 1 << 17  # caps sum(2^|F|) over facets; a 16-simplex facet fits
CLIQUE_BUDGET = 1 << 20  # caps the cliques of each join factor of a checked graph
VERTEX_LIMIT = 1 << 16  # caps the vertex count a parsed file may declare
EDGE_LIMIT = 1 << 21  # caps the edges of a generated dense graph, whose rows grow as n^2


class SimplicialComplex(_Value):
    """Vertex count plus inclusion-maximal faces as sorted vertex tuples.

    A value: equal, hashed and shown by n and facets, which cannot be
    reassigned; the 1-skeleton, the support skeleton, the flag verdict
    and the face listing are made once and kept, immutable, in its
    `__dict__`.  The constructor stores the facets as given, as
    `clique_complex` does with a graph's sorted maximal cliques;
    `_of_facets` reduces facets that are sorted and checked already, and
    `from_facets` sorts and checks arbitrary facet lists for it.
    """

    _fields = ("n", "facets")

    def __init__(self, n, facets):
        self.__dict__.update(n=n, facets=facets)

    @classmethod
    def from_facets(cls, n, facets):
        """Normalize: sort each facet and check it against n and
        DIMENSION_CAP, then drop duplicates and contained faces as
        `_of_facets` does.  A parsed facet list is checked into that form
        line by line, so `parse_facet_list` calls `_of_facets` directly."""
        normal = []
        for facet in facets:
            fs = tuple(sorted(set(facet)))
            if fs and not (0 <= fs[0] and fs[-1] < n):
                raise InvalidComplex(f"facet {fs} out of range for n={n}")
            if len(fs) - 1 > DIMENSION_CAP:
                raise InvalidComplex(f"facet of dimension {len(fs) - 1} exceeds cap {DIMENSION_CAP}")
            normal.append(fs)
        return cls._of_facets(n, normal)

    @classmethod
    def _of_facets(cls, n, facets):
        """The complex on facets that are sorted tuples within 0..n-1 and
        DIMENSION_CAP by construction, with duplicates and the facets that
        lie inside larger ones dropped, the rest in sorted order.  The
        skeleton rows of all of them (`_skeleton_rows`) are its 1-skeleton.

        A facet lies only in a larger one whose other vertices are its
        common neighbours, so one whose rows AND to 0 is kept unscanned,
        as every facet of a flag complex is.  Else it is grown into a
        maximal clique by its least common neighbour, over and over, and
        dropped if that clique is listed, as every such facet of a flag
        complex is.  Only the rest are compared, by a subset test, with
        the facets through their least frequent vertex: on a cone that is
        not the apex, which lies in every facet.
        """
        unique = dict.fromkeys(facets)  # keeps the input order: sorted() below is linear on sorted input
        rows = _skeleton_rows(n, unique)
        top = max(map(len, unique), default=0)
        through = None
        for fs in [fs for fs in unique if len(fs) < top]:
            if not fs:  # () lies in every facet
                del unique[fs]
                continue
            common = _common_neighbours(rows, fs)
            if not common:
                continue
            clique = list(fs)
            while common:
                w = (common & -common).bit_length() - 1
                clique.append(w)
                common &= rows[w]
            if tuple(sorted(clique)) in unique:
                del unique[fs]
                continue
            if through is None:  # every facet dropped so far lies in one still listed
                through = [[] for _ in range(n)]
                for other in unique:
                    for v in other:
                        through[v].append(other)
            vertices = set(fs)
            if any(len(other) > len(fs) and vertices.issubset(other)
                   for other in min(map(through.__getitem__, fs), key=len)):
                del unique[fs]
        k = cls(n, tuple(sorted(unique)))
        k.__dict__["_one_skeleton"] = Graph._of_rows(n, tuple(rows))
        return k

    @property
    def dimension(self):
        """Max facet dimension; -1 for the complex {()} and the void complex."""
        if not self.facets:
            return -1
        return max(len(f) for f in self.facets) - 1

    def faces_by_size(self):
        """Dict size -> frozenset of the faces of that size, for sizes 0 to
        dimension + 1; {} for the void complex.  The faces are listed level
        by level, once their facets span at most FACE_BUDGET faces (sum
        of 2^|F|; BudgetExceeded otherwise), and kept."""
        return dict(enumerate(self._faces))

    @cached_property
    def _faces(self):
        # a tuple of the faces of each size, the empty face first
        total = sum(1 << len(f) for f in self.facets)
        if total > FACE_BUDGET:
            raise BudgetExceeded(f"facets span up to {total} faces, over the face budget {FACE_BUDGET}")
        by_size = {}
        for facet in self.facets:
            by_size.setdefault(len(facet), set()).add(facet)
        if not by_size:
            return ()
        levels = []
        level = ()
        for size in range(max(by_size), 0, -1):
            level = frozenset(by_size.get(size, ())).union(
                face[:i] + face[i + 1:] for face in level for i in range(len(face)))
            levels.append(level)
        return (frozenset({()}), *reversed(levels))

    @cached_property
    def _flag(self):
        # is_flag and f_vector both ask; the capped census that says no caches nothing
        return maximal_cliques_are_facets(self)

    def one_skeleton(self):
        """The underlying Graph on the same vertex set, built once: kept
        from the rows that `_of_facets` built to reduce a facet list, or
        from the facets when first asked for."""
        return self._one_skeleton

    def support_skeleton(self):
        """The 1-skeleton induced on the vertices that lie in some facet.

        Ambient vertices in no facet are not part of the complex, so they
        are dropped and the rest relabeled in order; for a flag complex the
        clique complex of this graph is the complex itself.  Built once, it
        is the one graph that the clique budget, the flag test, the
        f-vector and the level test read; with no ambient vertex it is
        `one_skeleton()`.
        """
        return self._support

    @cached_property
    def _support(self):
        g = self.one_skeleton()
        used = set(chain.from_iterable(self.facets))
        return g if len(used) == g.n else g.induced(used)[0]

    @cached_property
    def _one_skeleton(self):
        return Graph._of_rows(self.n, tuple(_skeleton_rows(self.n, self.facets)))


def _skeleton_rows(n, facets):
    """Row v is the OR of the vertex masks of the facets through v, with
    v's own bit cleared: the adjacency rows of the facets' 1-skeleton."""
    rows = [0] * n
    for fs in facets:
        mask = 0
        for v in fs:
            mask |= 1 << v
        for v in fs:
            rows[v] |= mask
    for v, row in enumerate(rows):
        if row:
            rows[v] = row ^ (1 << v)
    return rows


def _common_neighbours(rows, clique):
    """The AND of the clique's rows: its common neighbours."""
    common = -1
    for v in clique:
        common &= rows[v]
    return common


def clique_complex(g):
    """The complex whose faces are the cliques of g; flag by construction."""
    return SimplicialComplex(g.n, g.maximal_cliques())


def flag_clique_cap(k):
    """The most cliques a join factor of k's support skeleton has if k is
    flag: sum(2^|F|) over the facets bounds the faces, and n + 1 more
    covers the empty clique when there are none."""
    return sum(1 << len(f) for f in k.facets) + k.n + 1


def maximal_cliques_are_facets(k):
    """Are the facets exactly the maximal cliques of the support skeleton?

    That holds exactly when k is flag, as it is when k has no vertex.  It
    takes two checks.  Every facet is a maximal clique: its vertices'
    skeleton rows AND to 0.  And there are as many maximal cliques as
    facets: the product over the join factors of their counts, each from
    one clique census (`Graph.census`) that also caches the factor's
    count vector for the f-vector and the level test.  A hollow triangle
    with a triangle on each edge passes the first check alone, and three
    of them beside the boundary of a tetrahedron the second.  The census
    is capped by `flag_clique_cap`, so a factor with more cliques decides
    "not flag"; the clique budget is applied before, on the same factors,
    by `search.admit_instance`.
    """
    g = k.support_skeleton()
    limit = flag_clique_cap(k)
    listed = [f.census(limit) for f, _ in g.join_factors()]
    if None in listed:
        return False
    if not g.n:
        return True
    rows = k.one_skeleton().masks
    return prod(map(len, listed)) == len(k.facets) and not any(_common_neighbours(rows, fs) for fs in k.facets)


def f_vector(k):
    """Face counts (f_-1, f_0, ..., f_d); the void complex yields ().

    A flag complex with a vertex is the clique complex of its support
    skeleton, so its faces are counted as cliques and never listed; any
    other complex lists its faces within FACE_BUDGET.
    """
    if not k.facets:
        return ()
    if k.dimension >= 0 and k._flag:
        return graph_f_vector(k.support_skeleton())
    return tuple(map(len, k._faces))


def graph_f_vector(g):
    """f_vector of the clique complex, via clique counting (f_i = #(i+1)-cliques)."""
    if g.n == 0:
        return ()
    return g.clique_counts()


def h_vector(f, d):
    """The h-vector of an f-vector of a d-dimensional complex: the Taylor
    shift h(x) = f(x - 1) of the coefficients, highest degree first, by
    Horner's rule applied once per degree."""
    f = tuple(f)
    if len(f) != d + 2:
        raise DimensionMismatch(f"f-vector of a {d}-complex needs {d + 2} entries, got {len(f)}")
    if f[0] != 1:
        raise InvalidParameter("f_-1 must be 1")
    h = list(f)
    for top in range(len(h) - 1, 0, -1):
        for j in range(1, top + 1):
            h[j] -= h[j - 1]
    return tuple(h)


def euler_characteristic(f):
    """Alternating sum over nonempty faces: f_0 - f_1 + f_2 - ..."""
    return sum((-1) ** (j - 1) * f[j] for j in range(1, len(f)))


def sphere_euler_characteristic(d):
    return 1 + (-1) ** d


def check_dehn_sommerville(h):
    """Per-index verdicts of h_i == h_(d+1-i); overall = conjunction."""
    top = len(h) - 1
    per_index = tuple(h[i] == h[top - i] for i in range(len(h)))
    return all(per_index), per_index


def check_klee(h, chi, d):
    """Per-index verdicts of h_(d+1-i) - h_i == (-1)^i C(d+1, i) (chi - chi(S^d))."""
    h = tuple(h)
    if len(h) != d + 2:
        raise DimensionMismatch(f"h-vector of a {d}-complex needs {d + 2} entries, got {len(h)}")
    defect = chi - sphere_euler_characteristic(d)
    per_index = tuple(
        h[d + 1 - i] - h[i] == (-1) ** i * comb(d + 1, i) * defect for i in range(d + 2)
    )
    return all(per_index), per_index


def gamma_vector(h):
    """Solve sum h_i x^i = sum gamma_i x^i (x+1)^(d+1-2i) for integer gamma.

    The system is triangular (the x^i coefficient of the i-th basis vector
    is 1), so gamma is read off low index first; if the re-expansion does
    not consume h exactly the input was not palindromic and NotPalindromic
    is raised.  Returns (gamma_0, ..., gamma_s), s = floor((d+1)/2).
    """
    h = tuple(h)
    d = len(h) - 2
    if d < 0:
        raise DimensionMismatch("h-vector needs at least two entries")
    s = (d + 1) // 2
    rem = list(h)
    gamma = []
    for i in range(s + 1):
        c = rem[i]
        gamma.append(c)
        for j in range(d + 2 - 2 * i):
            rem[i + j] -= c * comb(d + 1 - 2 * i, j)
    if any(rem):
        raise NotPalindromic(f"h-vector {h} fails Dehn-Sommerville; no gamma-vector exists")
    return tuple(gamma)
