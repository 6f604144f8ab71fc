"""The table of leveled classes, `tests/data/leveled_classes.txt`.

Every row is checked in both backends: each key is canonical and its graph
passes the level test, and per level the class counts and edge extremes
are those in EXTREMES.  The rows of d=2, n<=8 and d=3, n<=9 are re-derived
from `enumerate_classes`; `tests/data/make_leveled_table.py --check`
re-derives them all.  The joins in every row are re-derived without the
enumerator, as the joins of the prime classes below it.
"""

from functools import cache, reduce

import pytest

from flagstone import (disjoint_union, enumerate_classes, gen_cycle, gen_independent, graph_from_key, is_d_leveled,
                       join, kernels)
from helpers import leveled_keys, partitions, read_leveled_table

# level -> {n: (leveled classes, most edges, fewest edges)} over the sizes
# that have a leveled class; the table runs from n=1 to the largest n here
EXTREMES = {
    2: {6: (1, 12, 12), 7: (1, 15, 15), 8: (2, 18, 18), 9: (4, 21, 21), 10: (11, 24, 24)},
    3: {8: (1, 24, 24), 9: (1, 29, 29), 10: (3, 35, 34), 11: (7, 41, 39)},
    4: {10: (1, 40, 40), 11: (1, 47, 47), 12: (3, 55, 54)},
    5: {12: (1, 60, 60), 13: (1, 69, 69), 14: (3, 79, 78)},
}

# (d, n) -> leveled classes whose complement is connected, in the rows that
# have one; every other nonempty row holds joins only
PRIMES = {(2, 8): 1, (2, 9): 3, (2, 10): 9, (3, 11): 2}

TABLE = read_leveled_table()


@pytest.fixture(params=["py", "c"])
def backend(request, monkeypatch):
    compiled = request.getfixturevalue("compiled_kernels") if request.param == "c" else None
    monkeypatch.setattr(kernels, "_c", compiled)


def test_table_counts_and_edge_extremes():
    assert set(TABLE) == {(d, n) for d, rows in EXTREMES.items() for n in range(1, max(rows) + 1)}
    # a key's bits are its graph's edges
    got = {d: {} for d in EXTREMES}
    for (d, n), keys in TABLE.items():
        assert keys == sorted(set(keys))
        if keys:
            edges = [key.bit_count() for key in keys]
            got[d][n] = (len(keys), max(edges), min(edges))
    assert got == EXTREMES


def test_every_row_is_leveled_and_canonical(backend):
    for (d, n), keys in TABLE.items():
        for key in keys:
            g = graph_from_key(key, n)
            assert kernels.canonical_key(list(g.masks), n) == key, (d, n, key)
            assert is_d_leveled(g, d).is_leveled, (d, n, key)


@pytest.mark.parametrize("d,n_max", [(2, 8), (3, 9)])
def test_small_rows_rederived(d, n_max):
    levels = enumerate_classes(n_max, d)
    for n in range(1, n_max + 1):
        assert leveled_keys(levels[n], n, d) == TABLE[d, n], (d, n)


def _is_join(g):
    """Is the complement of g disconnected?"""
    full = (1 << g.n) - 1
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(g.n):
            if frontier >> v & 1:
                reach |= full & ~g.masks[v]
        frontier = reach & ~seen
        seen |= reach
    return seen != full


@cache
def _primes(e, m):
    """The prime e-leveled graphs on m vertices: at e=0 the two-vertex
    graph with no edge, at e=1 the disjoint unions of cycles of length 4 or
    more but C4 alone, and above that the table's classes that are not joins."""
    if e == 0:
        return [gen_independent(2)] if m == 2 else []
    if e == 1:
        return [reduce(disjoint_union, map(gen_cycle, parts)) for parts in partitions(m, 4) if parts not in ((), (4,))]
    return [g for g in (graph_from_key(key, m) for key in TABLE.get((e, m), ())) if not _is_join(g)]


def _join_keys(d, n):
    """The canonical keys of the joins of two or more prime classes (d_i, n_i)
    with sum(d_i + 1) = d + 1 and sum(n_i) = n, each factor multiset once."""
    primes = [(e + 1, g) for e in range(d) for m in range(2, n + 1) for g in _primes(e, m)]
    keys = set()

    def grow(start, factors, level, size):
        if level == d + 1 and size == n and len(factors) > 1:
            g = reduce(join, factors)
            keys.add(kernels.canonical_key(list(g.masks), n))
        for i in range(start, len(primes)):
            weight, g = primes[i]
            if level + weight <= d + 1 and size + g.n <= n:
                grow(i, factors + [g], level + weight, size + g.n)

    grow(0, [], 0, 0)
    return keys


def test_joins_are_the_closure_of_the_prime_classes():
    joins = 0
    for (d, n), keys in TABLE.items():
        found = {key for key in keys if _is_join(graph_from_key(key, n))}
        assert found == _join_keys(d, n), (d, n)
        if keys:
            assert len(keys) - len(found) == PRIMES.get((d, n), 0), (d, n)
        joins += len(found)
    assert joins == 26
