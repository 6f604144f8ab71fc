"""Reference computations the workload oracles compare the CLI against.

Nothing here imports flagstone: graphs are adjacency sets, cliques are
found by plain extension, and every bound is a closed form evaluated with
Fraction.  Agreement with the program is therefore evidence, not an echo.
"""

from fractions import Fraction
from math import comb


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def all_cliques(adj):
    """Every nonempty clique as a sorted tuple, grown one higher vertex at a time."""
    out = []
    stack = [((v,), {u for u in adj[v] if u > v}) for v in range(len(adj))]
    while stack:
        clique, higher = stack.pop()
        out.append(clique)
        for u in higher:
            stack.append((clique + (u,), {w for w in higher & adj[u] if w > u}))
    return out


def common_neighbours(adj, clique):
    common = set(adj[clique[0]])
    for v in clique[1:]:
        common &= adj[v]
    return common


def maximal_cliques(adj):
    return [c for c in all_cliques(adj) if not common_neighbours(adj, c)]


def is_leveled(adj, d):
    """Level test by definition: every maximal clique has d+1 vertices and
    every d-clique has exactly two common neighbours, and they are not adjacent."""
    if not adj:
        return False
    cliques = all_cliques(adj)
    for c in cliques:
        common = common_neighbours(adj, c)
        if not common and len(c) != d + 1:
            return False
        if len(c) == d:
            if len(common) != 2:
                return False
            a, b = common
            if b in adj[a]:
                return False
    return True


def detect_level(adj):
    """(d, verdict) as `flagstone check` defines it: the level is one less
    than the maximal clique size when all maximal cliques share one size,
    and the verdict is negative when they do not."""
    sizes = {len(c) for c in maximal_cliques(adj)}
    d = max(sizes) - 1
    return d, len(sizes) == 1 and is_leveled(adj, d)


def partitions_min_part(n, least):
    """Number of partitions of n into parts of size >= least."""
    ways = [1] + [0] * n
    for part in range(least, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def is_union_of_cycles(n, edges, shortest):
    """Is the graph a disjoint union of cycles, each of length >= shortest?"""
    adj = adjacency(n, edges)
    if any(len(a) != 2 for a in adj):
        return False
    seen = set()
    for start in range(n):
        if start in seen:
            continue
        size, stack = 0, [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            size += 1
            for u in adj[v] - seen:
                seen.add(u)
                stack.append(u)
        if size < shortest:
            return False
    return True


def edge_bound_odd(n, s):
    return Fraction(s - 1, 2 * s) * n * n + n


def edge_lower_bound_odd(n, s):
    return Fraction((4 * s - 3) * n - 8 * s * (s - 1))


def edge_bound_even(n, s):
    return Fraction(s - 1, 2 * s) * n * n + (1 + Fraction(2, s)) * n - (4 + Fraction(2, s))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cycle_join_h(sizes):
    """h-vector of a join of cycles: the product of the cycles' (1, k-2, 1)."""
    h = [1]
    for k in sizes:
        h = poly_mul(h, [1, k - 2, 1])
    return h


def balanced_sizes(s, n):
    q, r = divmod(n, s)
    return [q + 1] * r + [q] * (s - r)


def cycle_join_edges(sizes):
    n = sum(sizes)
    return sum(sizes) + (n * n - sum(k * k for k in sizes)) // 2


def simplex_f(dim):
    return [comb(dim + 1, i) for i in range(dim + 2)]


def is_edge_list(n, edges):
    pairs = [tuple(e) for e in edges]
    return all(len(p) == 2 and 0 <= p[0] < p[1] < n for p in pairs) and len(set(pairs)) == len(pairs)
