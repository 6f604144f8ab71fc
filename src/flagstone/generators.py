"""Deterministic labeled graph families used throughout the toolkit."""

from .complexes import VERTEX_LIMIT
from .errors import InvalidParameter
from .graphs import Graph, join


def _check_size(n):
    """Refuse a family member over the vertex limit before building a row."""
    if n > VERTEX_LIMIT:
        raise InvalidParameter(f"{n} vertices, over the vertex limit {VERTEX_LIMIT}")


def gen_cycle(k):
    """Cycle on k >= 3 vertices, edges i ~ i+1 mod k.

    k = 3 is permitted as a graph; note that a triangle is a complete graph,
    so none of the level/pseudomanifold predicates accept it.
    """
    if k < 3:
        raise InvalidParameter("cycle needs at least 3 vertices")
    _check_size(k)
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def gen_independent(k):
    """Edgeless graph on k vertices."""
    if k < 0:
        raise InvalidParameter("vertex count must be nonnegative")
    _check_size(k)
    return Graph(k, (0,) * k)


def gen_complete_multipartite(parts):
    """Complete multipartite graph; blocks of consecutive labels."""
    parts = tuple(parts)
    if not parts or any(p < 1 for p in parts):
        raise InvalidParameter("need at least one part, all sizes >= 1")
    n = sum(parts)
    _check_size(n)
    starts = []
    acc = 0
    for p in parts:
        starts.append(acc)
        acc += p
    rows = [0] * n
    full = (1 << n) - 1
    for start, p in zip(starts, parts):
        block = ((1 << p) - 1) << start
        for v in range(start, start + p):
            rows[v] = full & ~block
    return Graph(n, tuple(rows))


def cycle_part_sizes(s, n):
    """Balanced split of n into s parts of size floor(n/s) or ceil(n/s)."""
    if s < 1:
        raise InvalidParameter("need at least one cycle")
    if n < 0:
        raise InvalidParameter("vertex count must be nonnegative")
    q, r = divmod(n, s)
    return tuple([q + 1] * r + [q] * (s - r))


def gen_join_of_cycles(s, n):
    """Join of s cycles whose lengths are as balanced as possible.

    Requires n >= 4s so every part has at least 4 vertices.  When s divides
    n the edge count is exactly ((s-1)/2s) n^2 + n.
    """
    if s < 1:
        raise InvalidParameter("need at least one cycle")
    if n < 4 * s:
        raise InvalidParameter(f"n={n} too small: each of the {s} cycles needs >= 4 vertices")
    _check_size(n)
    g = gen_cycle(cycle_part_sizes(s, n)[0])
    for size in cycle_part_sizes(s, n)[1:]:
        g = join(g, gen_cycle(size))
    return g


def gen_suspension_sphere(k):
    """Two nonadjacent apexes joined to a k-cycle, k >= 4.

    The clique complex is a 2-sphere; k = 4 gives the octahedron.
    """
    if k < 4:
        raise InvalidParameter("suspension needs a cycle of length >= 4")
    _check_size(k + 2)
    return join(gen_independent(2), gen_cycle(k))


def gen_grid_torus(p, q):
    """Triangulated torus on the p x q grid, p, q >= 4.

    Vertex (i, j) is labeled i*q + j and is adjacent to the vertices at
    offsets (i+-1, j), (i, j+-1), (i+1, j+1), (i-1, j-1), all mod (p, q).
    The graph is 6-regular with 3pq edges and 2pq triangles.
    """
    if p < 4 or q < 4:
        raise InvalidParameter("torus grid needs p, q >= 4")
    _check_size(p * q)
    edges = set()
    for i in range(p):
        for j in range(q):
            v = i * q + j
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                u = ((i + di) % p) * q + (j + dj) % q
                edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(p * q, sorted(edges))
