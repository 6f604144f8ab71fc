"""Immutable graphs with clique machinery, links, joins, and pattern search.

Vertices are 0..n-1.  Adjacency is stored as a tuple of bitmask rows
(masks[v] has bit u set iff uv is an edge); the bitset form is canonical and
everything else (edge lists, degree sequences) is derived from it.

A graph whose complement is disconnected is the join of its join factors,
the subgraphs induced on the components of the complement.  A clique of a
join is a union of one clique per factor, so the clique-count vector is the
product of the factors' count polynomials, and the maximal-clique sizes are
the sums of one maximal-clique size per factor.  `clique_counts`,
`clique_count`, `maximal_clique_sizes` and the level test work per factor
when there are two or more; `maximal_cliques()` lists the whole graph's.

A single factor's full count vector comes from one clique census,
`Graph.census`, which lists every clique and fills the `maximal_cliques()`
cache on the way unless Bron-Kerbosch filled it first.  The census takes
a limit on the number of cliques: the flag test of a complex passes one,
reads the maximal cliques of each factor of its skeleton from the census,
and leaves the counts cached for the f-vector.  Bron-Kerbosch runs only
when the maximal cliques are asked for before (or without) the counts:
it is output-sensitive, while the census visits every clique.  A
truncated vector, `clique_counts(kmax)` or `clique_count(k)`, is a slice
of the full one once that is cached, and otherwise one capped count that
stops at kmax: on a dense graph the full vector can be huge.

`unpaired_ridge` is the package's one ridge count, for a factor's maximal
cliques (`Graph.ridge_violation`) and for a complex's facets.
"""

from collections import Counter
from functools import cached_property
from itertools import chain, combinations

from . import kernels
from .errors import InvalidParameter, NotAClique


class _Value:
    """Equality, hash and repr by the fields named in `_fields`, which are
    kept in the instance `__dict__` and cannot be reassigned or deleted;
    cached properties may still add entries there."""

    _fields = ()

    def _values(self):
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Value):
    """A finite simple graph: symmetric, irreflexive adjacency on 0..n-1.

    A value: equal, hashed and shown by n and masks, which cannot be
    reassigned.  The edge count, the join factors, the maximal cliques,
    their sizes, the full clique-count vector and the ridge violation are
    computed at most once per graph and kept in its `__dict__` as
    immutable values.

    The public constructor `Graph(n, masks)` checks the rows in one plain
    pass: first each row's range and self-loop bit, row by row, then the
    mirror of each edge in scan order, so the first unmirrored pair is the
    one named.  The package's own builders skip it: the parsers after
    their own checks, the generators, `from_edges`, the derived graphs,
    joins and unions, 1-skeletons of complexes and graphs decoded from
    canonical keys make rows that are symmetric, irreflexive and in range
    by construction, and store them through `_of_rows`.
    """

    _fields = ("n", "masks")

    def __init__(self, n, masks):
        self.__dict__.update(n=n, masks=masks)
        if n < 0:
            raise InvalidParameter("vertex count must be nonnegative")
        if len(masks) != n:
            raise InvalidParameter("need one adjacency row per vertex")
        full = (1 << n) - 1
        for v, row in enumerate(masks):
            if row & ~full:
                raise InvalidParameter(f"row {v} mentions vertices outside 0..{n - 1}")
            if (row >> v) & 1:
                raise InvalidParameter(f"self-loop at vertex {v}")
        for v, row in enumerate(masks):
            for u in kernels.bits_of(row):
                if not (masks[u] >> v) & 1:
                    raise InvalidParameter(f"adjacency not symmetric at ({u}, {v})")

    @classmethod
    def _of_rows(cls, n, rows):
        """The graph on rows that are symmetric, irreflexive and within
        0..n-1 by construction, a tuple of n ints, stored without a scan."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, masks=rows)
        return g

    @classmethod
    def from_edges(cls, n, edges):
        if n < 0:
            raise InvalidParameter("vertex count must be nonnegative")
        rows = [0] * n
        for u, v in edges:
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise InvalidParameter(f"bad edge ({u}, {v}) for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._of_rows(n, tuple(rows))

    # -- basic accessors -------------------------------------------------

    def _out_of_range(self, *vertices):
        """The error naming the first of vertices outside 0..n-1: a negative
        vertex would index a row from the end, a large one a missing row."""
        v = next(v for v in vertices if not 0 <= v < self.n)
        return InvalidParameter(f"vertex {v} out of range")

    def degree(self, v):
        if not 0 <= v < self.n:
            raise self._out_of_range(v)
        return self.masks[v].bit_count()

    def neighbors(self, v):
        if not 0 <= v < self.n:
            raise self._out_of_range(v)
        return kernels.bits_of(self.masks[v])

    def has_edge(self, u, v):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise self._out_of_range(u, v)
        return bool((self.masks[u] >> v) & 1)

    def edges(self):
        """Edge list as sorted (u, v) pairs with u < v."""
        return [(v, u) for v, row in enumerate(self.masks)
                for u in kernels.bits_of(row >> (v + 1) << (v + 1))]

    @cached_property
    def edge_count(self):
        return sum(row.bit_count() for row in self.masks) // 2

    def is_connected(self):
        """Does every vertex reach every other, that is, does the component
        of vertex 0 hold them all?  True for n <= 1."""
        return self.n == 0 or next(self._components()) == (1 << self.n) - 1

    def _components(self, complement=False):
        # the component masks of the graph (or of its complement), lowest
        # vertex first, by a breadth-first search over bitsets: a vertex
        # reaches the unvisited vertices in (or outside) its row, so each
        # vertex costs O(1) masks, and a component is closed once the
        # frontier or the rest is empty
        unseen = (1 << self.n) - 1
        while unseen:
            part = frontier = unseen & -unseen
            unseen ^= part
            while frontier and unseen:
                low = frontier & -frontier
                frontier ^= low
                row = self.masks[low.bit_length() - 1]
                reached = unseen & (~row if complement else row)
                unseen ^= reached
                part |= reached
                frontier |= reached
            yield part

    def with_edge(self, u, v):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise self._out_of_range(u, v)
        if u == v:
            raise InvalidParameter("no self-loops")
        rows = list(self.masks)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._of_rows(self.n, tuple(rows))

    def without_edge(self, u, v):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise self._out_of_range(u, v)
        rows = list(self.masks)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._of_rows(self.n, tuple(rows))

    # -- clique machinery ------------------------------------------------

    def is_clique(self, vertices):
        vs = sorted(set(vertices))
        if vs and not 0 <= vs[0] <= vs[-1] < self.n:
            raise self._out_of_range(vs[0], vs[-1])
        return all(self.has_edge(a, b) for a, b in combinations(vs, 2))

    @cached_property
    def _join_factors(self):
        # the subgraphs induced on the complement's components
        parts = list(self._components(complement=True))
        if len(parts) < 2:
            return ((self, tuple(range(self.n))),)
        return tuple(self.induced(kernels.bits_of(part)) for part in parts)

    def join_factors(self):
        """The join factors as (factor, vmap) pairs, ordered by lowest vertex.

        Each factor is the subgraph induced on one connected component of
        the complement, with vmap[i] the original label of its vertex i;
        every pair of vertices in different factors is an edge.  A graph
        with a connected complement (and the 0-vertex graph) is its own
        single factor: the result is ((self, (0, ..., n-1)),).
        """
        return self._join_factors

    @cached_property
    def _clique_counts(self):
        factors = self.join_factors()
        if len(factors) > 1:
            return _poly_product([f.clique_counts() for f, _ in factors])
        self.census()
        return self.__dict__["_clique_counts"]

    def census(self, limit=-1):
        """The maximal cliques, from one clique census of the whole graph
        that caches them and the full count vector; None, caching nothing,
        when limit >= 0 and the graph has more than `limit` cliques, the
        empty one included.  Once the counts are cached it returns
        `maximal_cliques()` without a census.  Maximal cliques that
        Bron-Kerbosch cached first are kept; the census lists the same.
        """
        if "_clique_counts" not in self.__dict__:
            found = kernels.clique_census(self.masks, self.n, limit)
            if found is None:
                return None
            self.__dict__["_clique_counts"] = tuple(found[0])
            self.__dict__.setdefault("_maximal_cliques", tuple(found[1]))
        return self.maximal_cliques()

    @cached_property
    def _maximal_cliques(self):
        return tuple(kernels.maximal_cliques(self.masks, self.n))

    def clique_counts(self, kmax=-1):
        """Vector c with c[k] = number of k-vertex cliques (c[0] = 1).

        With kmax < 0 it runs to the clique number and is computed once;
        with kmax >= 0 it has length kmax+1 (zero-padded), sliced from
        the full vector when that is cached.  A join multiplies its
        factors' vectors, each cut to its nonzero prefix: it is zero past
        the factor's clique number, and a wide join has many narrow
        factors.
        """
        if kmax < 0:
            return self._clique_counts
        full = self.__dict__.get("_clique_counts")
        if full is not None:
            return full[:kmax + 1] + (0,) * (kmax + 1 - len(full))
        factors = self.join_factors()
        if len(factors) == 1:
            return tuple(kernels.clique_counts(self.masks, self.n, kmax))
        prod = _poly_product([_nonzero_prefix(f.clique_counts(kmax)) for f, _ in factors], kmax)
        return prod + (0,) * (kmax + 1 - len(prod))

    def clique_count(self, k):
        if k < 0:
            raise InvalidParameter("clique size must be nonnegative")
        if k > self.n:
            return 0
        return self.clique_counts(k)[k]

    def maximal_cliques(self):
        """All inclusion-maximal cliques as a lexicographically sorted tuple."""
        return self._maximal_cliques

    @cached_property
    def _maximal_clique_sizes(self):
        factors = self.join_factors()
        if len(factors) == 1:
            return tuple(sorted({len(c) for c in self.maximal_cliques()}))
        sizes = {0}
        for f, _ in factors:
            sizes = {a + b for a in sizes for b in f.maximal_clique_sizes()}
        return tuple(sorted(sizes))

    def maximal_clique_sizes(self):
        """Sorted tuple of the distinct maximal-clique sizes; () when n = 0.

        A maximal clique of a join is a union of one maximal clique per
        factor, so a join's sizes are the sums of one size per factor.
        """
        return self._maximal_clique_sizes

    @cached_property
    def ridge_violation(self):
        """None when every ridge F - v of the maximal cliques lies in two of
        them, else (ridge, common neighbors) for the least that does not.
        With one maximal-clique size k, the (k-1)-cliques are the ridges and
        the maximal cliques through R are R + w for its common neighbors w,
        so this is the link kernel's witness at k - 1."""
        hit = unpaired_ridge(self.maximal_cliques())
        if hit is None:
            return None
        common = (1 << self.n) - 1
        for v in hit[0]:
            common &= self.masks[v]
        return hit[0], kernels.bits_of(common)

    # -- derived graphs --------------------------------------------------

    def induced(self, vertices):
        """Induced subgraph plus the map new index -> old vertex."""
        vmap = tuple(sorted(set(vertices)))
        for v in vmap:
            if not 0 <= v < self.n:
                raise self._out_of_range(v)
        idx = {v: i for i, v in enumerate(vmap)}
        keep = sum(1 << v for v in vmap)
        rows = [0] * len(vmap)
        for i, v in enumerate(vmap):
            for u in kernels.bits_of(self.masks[v] & keep):
                rows[i] |= 1 << idx[u]
        return Graph._of_rows(len(vmap), tuple(rows)), vmap

    def link(self, sigma):
        """Induced subgraph on the common neighborhood of a clique.

        Returns (graph, vmap) with vmap[i] the original label of new vertex
        i.  link(g, ()) is g itself.  Raises NotAClique when sigma has a
        missing pair, InvalidParameter when it has a vertex out of range.
        """
        if not self.is_clique(sigma):
            raise NotAClique(f"{tuple(sorted(set(sigma)))} is not a clique")
        common = (1 << self.n) - 1
        for v in set(sigma):
            common &= self.masks[v]
        return self.induced(kernels.bits_of(common))

    def relabel(self, perm):
        """Image under the permutation new_label = perm[old_label]."""
        if sorted(perm) != list(range(self.n)):
            raise InvalidParameter("not a permutation of 0..n-1")
        rows = [0] * self.n
        for v in range(self.n):
            for u in kernels.bits_of(self.masks[v]):
                rows[perm[v]] |= 1 << perm[u]
        return Graph._of_rows(self.n, tuple(rows))

    def canonical_key(self):
        """Isomorphism-invariant integer key; feasible for small n only.

        The branch-and-bound is exponential in the worst case, and long
        sparse cycles come close: with the compiled kernel on a 2-vCPU
        Xeon, C16 takes 0.07 s, C18 0.9 s and C20 11 s.  The exhaustive
        enumerator keys only graphs of about 12 vertices or fewer.
        """
        return kernels.canonical_key(self.masks, self.n)


def _poly_product(polys, kmax=-1):
    """Coefficients of the product of integer polynomials, given low degree
    first; with kmax >= 0 only those of degree <= kmax are kept."""
    out = (1,)
    for p in polys:
        size = len(out) + len(p) - 1
        if kmax >= 0:
            size = min(size, kmax + 1)
        prod = [0] * size
        for i, a in enumerate(out):
            for j, b in enumerate(p[:size - i]):
                prod[i + j] += a * b
        out = tuple(prod)
    return out


def _nonzero_prefix(counts):
    """A clique count vector up to its first zero entry."""
    return counts[:counts.index(0)] if 0 in counts else counts


def unpaired_ridge(cells):
    """(ridge, count) for the least ridge C - v of the cells C, sorted
    tuples, that lies in a number of cells other than two, or None."""
    # the ridges of a cell are its subsets one vertex short; () has none
    cells = [cell for cell in cells if cell]
    incidence = Counter(chain.from_iterable(map(combinations, cells, [len(cell) - 1 for cell in cells])))
    return min(((ridge, count) for ridge, count in incidence.items() if count != 2), default=None)


def join(g, h):
    """Disjoint union of g and h plus every cross edge."""
    n = g.n + h.n
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = []
    for v in range(g.n):
        rows.append(g.masks[v] | hmask)
    for v in range(h.n):
        rows.append((h.masks[v] << g.n) | gmask)
    return Graph._of_rows(n, tuple(rows))


def disjoint_union(g, h):
    rows = list(g.masks) + [row << g.n for row in h.masks]
    return Graph._of_rows(g.n + h.n, tuple(rows))


def verify_multipartite_witness(g, pattern, witness):
    """Check an embedding of the complete multipartite pattern.

    Part sizes must match the pattern, parts must be disjoint, and every
    cross-part pair must be an edge of g.  Within-part adjacency is
    unconstrained (the pattern is matched as a subgraph, not induced).
    """
    if len(witness) != len(pattern):
        return False
    seen = set()
    for size, part in zip(pattern, witness):
        if len(part) != size or len(set(part)) != size:
            return False
        for v in part:
            if not 0 <= v < g.n or v in seen:
                return False
            seen.add(v)
    for pa, pb in combinations(witness, 2):
        for a in pa:
            for b in pb:
                if not g.has_edge(a, b):
                    return False
    return True


def contains_multipartite_subgraph(g, pattern):
    """Search for a complete multipartite subgraph with the given part sizes.

    Returns (True, witness) with witness a tuple of vertex tuples aligned
    with pattern, or (False, None).  Only cross-part adjacencies are
    required.  Parts are filled largest-first with degree pruning; the
    witness is deterministic (lexicographically first in that search order)
    and is re-verified before being returned.
    """
    pattern = tuple(pattern)
    if not pattern or any(p < 1 for p in pattern):
        raise InvalidParameter("pattern needs at least one part, all sizes >= 1")
    total = sum(pattern)
    if total > g.n:
        return False, None
    order = sorted(range(len(pattern)), key=lambda j: (-pattern[j], j))
    sizes = [pattern[j] for j in order]
    r = len(sizes)
    suffix = [0] * (r + 1)
    for i in range(r - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]
    deg = [g.masks[v].bit_count() for v in range(g.n)]
    chosen = [None] * r

    def place(i, avail):
        if i == r:
            return True
        need = sizes[i]
        # a part-i vertex must reach every vertex of every other part
        cand = [v for v in kernels.bits_of(avail) if deg[v] >= total - need]
        if len(cand) < need:
            return False
        for combo in combinations(cand, need):
            nxt = avail
            for v in combo:
                nxt &= g.masks[v]
            if nxt.bit_count() >= suffix[i + 1]:
                chosen[i] = combo
                if place(i + 1, nxt):
                    return True
        return False

    if not place(0, (1 << g.n) - 1):
        return False, None
    witness = [None] * r
    for slot, j in enumerate(order):
        witness[j] = chosen[slot]
    witness = tuple(witness)
    if not verify_multipartite_witness(g, pattern, witness):
        raise AssertionError("multipartite search produced an invalid witness")
    return True, witness
