"""Simplicial complexes and their enumerative algebra.

Face-count vectors are plain tuples indexed from the empty face: a complex
of dimension d has f = (f_-1, f_0, ..., f_d) with f[0] = f_-1 = 1.  The
h-vector is the binomial transform defined by

    sum_i h_i x^(d+1-i) = sum_i f_i (x-1)^(d-i)

and the gamma-vector is the further change of basis

    sum_i h_i x^i = sum_i gamma_i x^i (x+1)^(d+1-2i),

which has a (unique, integer) solution exactly when h is palindromic.  All
arithmetic is exact: integers and fractions.Fraction, never floats.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from math import comb

from .errors import BudgetExceeded, DimensionMismatch, InvalidComplex, InvalidParameter, NotPalindromic

DIMENSION_CAP = 24
FACE_BUDGET = 1 << 17  # caps sum(2^|F|) over facets; a 16-simplex facet fits
VERTEX_LIMIT = 1 << 16  # caps the vertex count a parsed file may declare


def require_face_budget(k):
    """Raise BudgetExceeded when the facets of k could span more than FACE_BUDGET faces."""
    total = sum(1 << len(f) for f in k.facets)
    if total > FACE_BUDGET:
        raise BudgetExceeded(f"facets span up to {total} faces, over the face budget {FACE_BUDGET}")


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertex count plus inclusion-maximal faces as sorted vertex tuples."""

    n: int
    facets: tuple

    @classmethod
    def from_facets(cls, n, facets):
        """Normalize: sort each facet, drop duplicates and contained faces."""
        masks = {}
        containing = {}
        for facet in facets:
            fs = tuple(sorted(set(facet)))
            if fs and not (0 <= fs[0] and fs[-1] < n):
                raise InvalidComplex(f"facet {fs} out of range for n={n}")
            if len(fs) - 1 > DIMENSION_CAP:
                raise InvalidComplex(f"facet of dimension {len(fs) - 1} exceeds cap {DIMENSION_CAP}")
            if fs not in masks:
                masks[fs] = mask = _vertex_mask(fs)
                for v in fs:
                    containing.setdefault(v, []).append(mask)
        maximal = []
        for fs, mask in masks.items():
            # a facet containing fs contains its lowest vertex; () lies in every facet
            for other in containing[fs[0]] if fs else masks.values():
                if other != mask and other | mask == other:
                    break
            else:
                maximal.append(fs)
        return cls(n, tuple(sorted(maximal)))

    @property
    def dimension(self):
        """Max facet dimension; -1 for the complex {()} and the void complex."""
        if not self.facets:
            return -1
        return max(len(f) for f in self.facets) - 1

    def faces_by_size(self):
        """Dict size -> set of faces, built level by level once require_face_budget passes."""
        require_face_budget(self)
        by_size = {}
        for facet in self.facets:
            by_size.setdefault(len(facet), set()).add(facet)
        if not by_size:
            return {}
        top = max(by_size)
        out = {}
        level = set()
        for size in range(top, 0, -1):
            level = set(by_size.get(size, ())) | {
                face[:i] + face[i + 1:] for face in level for i in range(len(face))
            }
            out[size] = level
        out[0] = {()}
        return out

    def faces(self):
        by_size = self.faces_by_size()
        return {face for level in by_size.values() for face in level}

    def has_face(self, face):
        fs = tuple(sorted(face))
        s = set(fs)
        return any(s <= set(facet) for facet in self.facets)

    def one_skeleton(self):
        """The underlying Graph on the same vertex set, built once."""
        return self._one_skeleton

    def support_skeleton(self):
        """The 1-skeleton induced on the vertices that lie in some facet.

        Ambient vertices in no facet are not part of the complex, so they
        are dropped and the rest relabeled in order; for a flag complex the
        clique complex of this graph is the complex itself.
        """
        g = self.one_skeleton()
        used = sorted({v for facet in self.facets for v in facet})
        if len(used) < g.n:
            g, _ = g.induced(used)
        return g

    @cached_property
    def _one_skeleton(self):
        from .graphs import Graph

        rows = [0] * self.n
        for facet in self.facets:
            mask = _vertex_mask(facet)
            for v in facet:
                rows[v] |= mask ^ (1 << v)
        return Graph(self.n, tuple(rows))


def _vertex_mask(vertices):
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def clique_complex(g):
    """The complex whose faces are the cliques of g; flag by construction."""
    return SimplicialComplex(g.n, g.maximal_cliques())


def maximal_cliques_are_facets(k):
    """Is every maximal clique of the 1-skeleton with 3 or more vertices a facet?

    That holds exactly when k is flag: vertices and edges of the skeleton
    are faces by construction, and ambient vertices that lie in no facet
    are 1-vertex maximal cliques, so they are ignored.  The maximal cliques
    of the skeleton are the unions of one maximal clique per join factor
    (a prime skeleton is its own single factor); they are built one at a
    time and the first non-facet stops the scan, so at most one more than
    the facets are built.
    """
    facets = set(k.facets)
    factors = k.one_skeleton().join_factors()
    mapped = [[tuple(vmap[v] for v in c) for c in f.maximal_cliques()] for f, vmap in factors]
    cliques = (tuple(sorted(chain.from_iterable(parts))) for parts in product(*mapped))
    return all(len(c) < 3 or c in facets for c in cliques)


def f_vector(k):
    """Face counts (f_-1, f_0, ..., f_d); the void complex yields ().

    A flag complex with a vertex is the clique complex of its support
    skeleton, so its faces are counted as cliques and never listed; any
    other complex lists its faces within require_face_budget.
    """
    if not k.facets:
        return ()
    if k.dimension >= 0 and maximal_cliques_are_facets(k):
        return graph_f_vector(k.support_skeleton())
    by_size = k.faces_by_size()
    top = max(by_size)
    return (1,) + tuple(len(by_size[s]) for s in range(1, top + 1))


def graph_f_vector(g):
    """f_vector of the clique complex, via clique counting (f_i = #(i+1)-cliques)."""
    if g.n == 0:
        return ()
    return g.clique_counts()


def h_vector(f, d):
    """Binomial transform of an f-vector of a d-dimensional complex.

    h_k = sum_i f_i C(d-i, d+1-k) (-1)^(k-i-1), an exact integer identity.
    """
    f = tuple(f)
    if len(f) != d + 2:
        raise DimensionMismatch(f"f-vector of a {d}-complex needs {d + 2} entries, got {len(f)}")
    if f[0] != 1:
        raise InvalidParameter("f_-1 must be 1")
    out = []
    for k in range(d + 2):
        total = 0
        for i in range(-1, d + 1):
            c = comb(d - i, d + 1 - k) if 0 <= d + 1 - k <= d - i else 0
            if c:
                total += f[i + 1] * c * (-1) ** ((k - i - 1) % 2)
        out.append(total)
    return tuple(out)


def inverse_h_vector(h, d):
    """Recover the f-vector: f_i = sum_k h_k C(d+1-k, d-i)."""
    h = tuple(h)
    if len(h) != d + 2:
        raise DimensionMismatch(f"h-vector of a {d}-complex needs {d + 2} entries, got {len(h)}")
    out = []
    for i in range(-1, d + 1):
        total = 0
        for k in range(d + 2):
            if 0 <= d - i <= d + 1 - k:
                total += h[k] * comb(d + 1 - k, d - i)
        out.append(total)
    return tuple(out)


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


def h_from_gamma(gamma, d):
    """Re-expand a gamma-vector through the x^i (x+1)^(d+1-2i) basis."""
    s = (d + 1) // 2
    if len(gamma) > s + 1:
        raise DimensionMismatch(f"gamma-vector for d={d} has at most {s + 1} entries")
    out = [0] * (d + 2)
    for i, c in enumerate(gamma):
        for j in range(d + 2 - 2 * i):
            out[i + j] += c * comb(d + 1 - 2 * i, j)
    return tuple(out)


def _h_row_in_f_basis(k, d):
    """Coefficients (index i = -1..d) of f_i in h_k."""
    return {
        i: (comb(d - i, d + 1 - k) if 0 <= d + 1 - k <= d - i else 0) * (-1) ** ((k - i - 1) % 2)
        for i in range(-1, d + 1)
    }


def middle_ds_coefficients(d):
    """Express f_s as a linear form in f_-1..f_(s-1), s = floor((d+1)/2).

    The middle palindromy equation (h_(s-1) = h_(s+1) for odd d, h_s =
    h_(s+1) for even d) is expanded symbolically in the f-basis; the f_s
    coefficient is 1, so solving for f_s is a single normalization.
    Returns ({i: a_i for i = -1..s-1}, sum of |a_i|), all exact rationals.
    """
    if d < 1:
        raise InvalidParameter("need dimension >= 1")
    s = (d + 1) // 2
    a_idx = s - 1 if d % 2 else s
    b_idx = s + 1
    row_a = _h_row_in_f_basis(a_idx, d)
    row_b = _h_row_in_f_basis(b_idx, d)
    diff = {i: row_b[i] - row_a[i] for i in range(-1, d + 1)}
    if diff[s] != 1 or any(diff[i] for i in range(s + 1, d + 1)):
        raise AssertionError("middle palindromy row is not triangular in the f-basis")
    coeffs = {i: Fraction(-diff[i]) for i in range(-1, s)}
    bound_constant = sum(abs(c) for c in coeffs.values())
    return coeffs, bound_constant
