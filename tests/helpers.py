"""Brute-force oracles and small-graph generators shared by the tests.

Everything here is written for clarity over speed: subsets are enumerated
outright, definitions are transcribed literally, and nothing is shared
with the package internals, so agreement between the two is evidence.
The exceptions say so: the reference level test and the unpruned class
enumerator call the kernels, which the tests pin to the brute-force
oracles here.  Only usable for small n.
"""

import itertools
from math import comb
from pathlib import Path

from flagstone import Graph, graph_from_key, is_d_leveled, kernels

LEVELED_TABLE = Path(__file__).resolve().parent / "data" / "leveled_classes.txt"


def random_graph(n, p, rng):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_graph_masks(n, p, rng):
    return random_graph(n, p, rng).masks


def brute_cliques(g):
    """Every clique of g as a sorted tuple, the empty clique included."""
    out = []
    for r in range(g.n + 1):
        for sub in itertools.combinations(range(g.n), r):
            if g.is_clique(sub):
                out.append(sub)
    return out


def brute_clique_counts(g):
    counts = {}
    for c in brute_cliques(g):
        counts[len(c)] = counts.get(len(c), 0) + 1
    top = max(counts)
    return [counts.get(i, 0) for i in range(top + 1)]


def brute_maximal_cliques(g):
    # the 0-vertex graph has no maximal cliques (void complex convention)
    cliques = set(brute_cliques(g)) - {()}
    out = []
    for c in cliques:
        cs = set(c)
        if any(cs < set(other) for other in cliques):
            continue
        out.append(c)
    return sorted(out)


def brute_common_neighbors(g, vertices):
    common = set(range(g.n))
    for v in vertices:
        common &= {u for u in range(g.n) if g.has_edge(u, v)}
    return sorted(common)


def brute_is_d_leveled(g, d):
    """Literal transcription of the definition.

    Every maximal clique has d+1 vertices, and the common neighborhood of
    every d-clique consists of exactly two nonadjacent vertices.
    """
    if g.n == 0:
        return False
    for c in brute_maximal_cliques(g):
        if len(c) != d + 1:
            return False
    for sigma in itertools.combinations(range(g.n), d):
        if not g.is_clique(sigma):
            continue
        common = brute_common_neighbors(g, sigma)
        if len(common) != 2:
            return False
        if g.has_edge(common[0], common[1]):
            return False
    return True


def reference_is_d_leveled(g, d):
    """The short-circuit level test as the size check on the maximal
    cliques followed by the link kernel over every d-clique, returned as
    (verdict, witness) for comparison with the level test of the package.

    Uses the kernels directly and no cached clique list; the kernels are
    pinned to the brute-force oracles above."""
    if g.n == 0:
        return False, ("empty",)
    for c in kernels.maximal_cliques(g.masks, g.n):
        if len(c) != d + 1:
            return False, ("maximal-clique", c)
    hit = kernels.leveled_violation(g.masks, g.n, d)
    if hit is not None:
        return False, ("link", hit[0], hit[1])
    return True, None


def link_leveled(g, d):
    """The level test as a recursion on vertex links, a second reference
    for `is_d_leveled`: at d = 0 a graph passes when it is exactly two
    nonadjacent vertices, and at d >= 1 when it has a vertex and every
    vertex link `g.link((v,))[0]` passes at d - 1.

    A link of a link is the link of an edge, reached once per order of
    its vertices as the same relabeled graph, so verdicts are memoized on
    the rows within one call."""
    seen = {}

    def leveled(h, d):
        if d == 0:
            return h.n == 2 and not h.masks[0]
        key = h.masks, d
        if key not in seen:
            seen[key] = h.n > 0 and all(leveled(h.link((v,))[0], d - 1) for v in range(h.n))
        return seen[key]

    return leveled(g, d)


def brute_crowded_link(g, d, within):
    """First d-clique inside `within` (lexicographically) with more than two
    common neighbors or two adjacent ones, or None."""
    inside = [v for v in range(g.n) if (within >> v) & 1]
    for sigma in itertools.combinations(inside, d):
        if not g.is_clique(sigma):
            continue
        common = brute_common_neighbors(g, sigma)
        if len(common) > 2 or (len(common) == 2 and g.has_edge(*common)):
            return sigma
    return None


def brute_canonical_key(g):
    """Minimum upper-triangle bitstring over all n! relabelings.

    Bit order matches graph6: column v, rows 0..v-1, most significant
    first.  Only sane for n <= 7.
    """
    best = None
    for perm in itertools.permutations(range(g.n)):
        h = g.relabel(perm)
        key = 0
        for v in range(h.n):
            for u in range(v):
                key = (key << 1) | (1 if h.has_edge(u, v) else 0)
        if best is None or key < best:
            best = key
    return best


def brute_faces(k):
    """All faces of a complex from its facets, the empty face included."""
    faces = set()
    for f in k.facets:
        for r in range(len(f) + 1):
            faces.update(itertools.combinations(f, r))
    return faces


def brute_flag_witness(k):
    """The lexicographically first non-face of the smallest size >= 3 among
    the sets of pairwise connected vertices of the 1-skeleton, or None when
    every such set is a face (the complex is flag)."""
    faces = brute_faces(k)
    verts = sorted({v for f in k.facets for v in f})
    edges = {f for f in faces if len(f) == 2}
    for r in range(3, len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            if all(pair in edges for pair in itertools.combinations(sub, 2)):
                if sub not in faces:
                    return sub
    return None


def brute_maximal_facets(facets):
    """Sorted, deduplicated facets not strictly contained in another one."""
    cleaned = {tuple(sorted(set(f))) for f in facets}
    return tuple(sorted(f for f in cleaned if not any(set(f) < set(g) for g in cleaned)))


def brute_is_weak_pseudomanifold(k, d):
    facets = k.facets
    if not facets or facets == ((),):
        return False
    if any(len(f) != d + 1 for f in facets):
        return False
    for ridge in {r for f in facets for r in itertools.combinations(f, d)}:
        deg = sum(1 for f in facets if set(ridge) <= set(f))
        if deg != 2:
            return False
    return True


def brute_unpaired_ridge(facets):
    """(ridge, count) for the least ridge of the facets, sets of one size,
    that lies in a number of facets other than two, or None."""
    ridges = sorted({r for f in facets for r in itertools.combinations(f, len(f) - 1)})
    for ridge in ridges:
        count = sum(1 for f in facets if set(ridge) <= set(f))
        if count != 2:
            return ridge, count
    return None


def _h_coefficient(k, i, d):
    """The coefficient of f_i in h_k: C(d-i, d+1-k) (-1)^(k-i-1)."""
    if not 0 <= d + 1 - k <= d - i:
        return 0
    return comb(d - i, d + 1 - k) * (-1) ** ((k - i - 1) % 2)


def reference_h_vector(f, d):
    """h_k = sum_i f_i C(d-i, d+1-k) (-1)^(k-i-1) over i = -1..d."""
    return tuple(sum(f[i + 1] * _h_coefficient(k, i, d) for i in range(-1, d + 1))
                 for k in range(d + 2))


def reference_h_from_gamma(gamma, d):
    """h_k = sum_i gamma_i C(d+1-2i, k-i): the sum of gamma_i x^i (x+1)^(d+1-2i)."""
    return tuple(sum(c * comb(d + 1 - 2 * i, k - i) for i, c in enumerate(gamma) if 0 <= k - i <= d + 1 - 2 * i)
                 for k in range(d + 2))


def all_graphs(n):
    """Every labeled graph on n vertices; 2^(n(n-2)/2)-ish, keep n small."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield Graph.from_edges(n, edges)


def unpruned_classes(n_max, clique_cap=None):
    """Canonical keys of every isomorphism class on 1..n_max vertices, as
    {n: sorted key list}, restricted to clique number <= clique_cap when a
    cap is given.

    Vertex extension with deduplication on `kernels.canonical_key`: every
    class on k+1 vertices is a class on k vertices plus one vertex, and
    deleting a vertex keeps the cap, so extending every kept class by every
    neighbourhood visits every kept class.  The new vertex keeps the cap
    when its neighbourhood has no clique of size clique_cap.  Single
    process, no prunes: the oracle of the level-pruned `enumerate_classes`.
    """
    levels = {1: [0]}
    for k in range(1, n_max):
        found = set()
        for key in levels[k]:
            base = kernels.key_to_masks(key, k)
            for mask in range(1 << k):
                # a clique of clique_cap vertices needs that many neighbours
                if clique_cap is not None and mask.bit_count() >= clique_cap:
                    nbr_rows = [row & mask if mask >> v & 1 else 0 for v, row in enumerate(base)]
                    if kernels.clique_number(nbr_rows, k, stop_at=clique_cap) >= clique_cap:
                        continue
                rows = [row | (mask >> v & 1) << k for v, row in enumerate(base)] + [mask]
                found.add(kernels.canonical_key(rows, k + 1))
        levels[k + 1] = sorted(found)
    return levels


def leveled_keys(keys, n, d):
    """The keys, of classes on n vertices, whose graphs pass the level test at d."""
    return [key for key in keys if is_d_leveled(graph_from_key(key, n), d).is_leveled]


def read_leveled_table(path=LEVELED_TABLE):
    """{(d, n): sorted keys} from the table of leveled classes, whose lines
    past the `#` comments read `d n key key ...`."""
    table = {}
    for line in path.read_text(encoding="ascii").splitlines():
        if line and not line.startswith("#"):
            d, n, *keys = map(int, line.split())
            table[d, n] = keys
    return table


def compositions(total, min_part):
    """Ordered compositions of total into parts >= min_part."""
    if total == 0:
        yield ()
        return
    for first in range(min_part, total + 1):
        for rest in compositions(total - first, min_part):
            yield (first,) + rest


def partitions(total, min_part):
    """Unordered partitions of total into parts >= min_part."""
    seen = set()
    for comp in compositions(total, min_part):
        seen.add(tuple(sorted(comp)))
    return sorted(seen)
