"""Deterministic labeled graph families used throughout the toolkit.

Each family `gen_X` has a check `check_X` with the same parameters.  It
raises InvalidParameter where `gen_X` would, parameter errors before the
size limits, and otherwise returns the vertex and edge counts of the graph
`gen_X` builds, without building a row.
"""

from .complexes import EDGE_LIMIT, VERTEX_LIMIT
from .errors import InvalidParameter
from .graphs import Graph, join


def _check_size(n, edges):
    """Refuse a family member over the vertex limit, then one over the edge
    limit; return (n, edges)."""
    if n > VERTEX_LIMIT:
        raise InvalidParameter(f"{n} vertices, over the vertex limit {VERTEX_LIMIT}")
    if edges > EDGE_LIMIT:
        raise InvalidParameter(f"{edges} edges, over the edge limit {EDGE_LIMIT}")
    return n, edges


def check_cycle(k):
    if k < 3:
        raise InvalidParameter("cycle needs at least 3 vertices")
    return _check_size(k, k)


def gen_cycle(k):
    """Cycle on k >= 3 vertices, edges i ~ i+1 mod k.

    k = 3 is permitted as a graph; note that a triangle is a complete graph,
    so none of the level/pseudomanifold predicates accept it.
    """
    check_cycle(k)
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def check_independent(k):
    if k < 0:
        raise InvalidParameter("vertex count must be nonnegative")
    return _check_size(k, 0)


def gen_independent(k):
    """Edgeless graph on k vertices."""
    check_independent(k)
    return Graph._of_rows(k, (0,) * k)


def check_complete_multipartite(parts):
    if not parts or any(p < 1 for p in parts):
        raise InvalidParameter("need at least one part, all sizes >= 1")
    n = sum(parts)
    # every pair of vertices in different parts
    return _check_size(n, (n * n - sum(p * p for p in parts)) // 2)


def gen_complete_multipartite(parts):
    """Complete multipartite graph; blocks of consecutive labels."""
    parts = tuple(parts)
    n, _ = check_complete_multipartite(parts)
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
    return Graph._of_rows(n, tuple(rows))


def cycle_part_sizes(s, n):
    """Balanced split of n into s parts of size floor(n/s) or ceil(n/s)."""
    if s < 1:
        raise InvalidParameter("need at least one cycle")
    if n < 0:
        raise InvalidParameter("vertex count must be nonnegative")
    q, r = divmod(n, s)
    return tuple([q + 1] * r + [q] * (s - r))


def check_join_of_cycles(s, n):
    if s < 1:
        raise InvalidParameter("need at least one cycle")
    if n < 4 * s:
        raise InvalidParameter(f"n={n} too small: each of the {s} cycles needs >= 4 vertices")
    # n cycle edges, plus every pair of vertices in different cycles
    q, r = divmod(n, s)
    return _check_size(n, n + (n * n - r * (q + 1) ** 2 - (s - r) * q * q) // 2)


def gen_join_of_cycles(s, n):
    """Join of s cycles whose lengths are as balanced as possible.

    Requires n >= 4s so every part has at least 4 vertices.  When s divides
    n the edge count is exactly ((s-1)/2s) n^2 + n.
    """
    check_join_of_cycles(s, n)
    # parts are blocks of consecutive labels; a vertex sees everything
    # outside its block and its two cycle neighbours inside it
    full = (1 << n) - 1
    rows = []
    start = 0
    for size in cycle_part_sizes(s, n):
        outside = full & ~(((1 << size) - 1) << start)
        for i in range(size):
            rows.append(outside | 1 << start + (i + 1) % size | 1 << start + (i - 1) % size)
        start += size
    return Graph._of_rows(n, tuple(rows))


def check_suspension_sphere(k):
    if k < 4:
        raise InvalidParameter("suspension needs a cycle of length >= 4")
    # the k-cycle, and each apex joined to it
    return _check_size(k + 2, 3 * k)


def gen_suspension_sphere(k):
    """Two nonadjacent apexes joined to a k-cycle, k >= 4.

    The clique complex is a 2-sphere; k = 4 gives the octahedron.
    """
    check_suspension_sphere(k)
    return join(gen_independent(2), gen_cycle(k))


def check_grid_torus(p, q):
    if p < 4 or q < 4:
        raise InvalidParameter("torus grid needs p, q >= 4")
    return _check_size(p * q, 3 * p * q)


def gen_grid_torus(p, q):
    """Triangulated torus on the p x q grid, p, q >= 4.

    Vertex (i, j) is labeled i*q + j and is adjacent to the vertices at
    offsets (i+-1, j), (i, j+-1), (i+1, j+1), (i-1, j-1), all mod (p, q).
    The graph is 6-regular with 3pq edges and 2pq triangles.
    """
    check_grid_torus(p, q)
    edges = set()
    for i in range(p):
        for j in range(q):
            v = i * q + j
            for di, dj in ((1, 0), (0, 1), (1, 1)):
                u = ((i + di) % p) * q + (j + dj) % q
                edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(p * q, sorted(edges))
