"""The table of leveled classes, `tests/data/leveled_classes.txt`.

Every row is checked in both backends: each key is canonical and its graph
passes the level test, and per level the class counts and edge extremes
are those in EXTREMES.  The rows of d=2, n<=8 and d=3, n<=9 are re-derived
from `enumerate_classes`; `tests/data/make_leveled_table.py --check`
re-derives them all.
"""

import pytest

from flagstone import enumerate_classes, graph_from_key, is_d_leveled, kernels
from helpers import leveled_keys, read_leveled_table

# level -> {n: (leveled classes, most edges, fewest edges)} over the sizes
# that have a leveled class; the table runs from n=1 to the largest n here
EXTREMES = {
    2: {6: (1, 12, 12), 7: (1, 15, 15), 8: (2, 18, 18), 9: (4, 21, 21), 10: (11, 24, 24)},
    3: {8: (1, 24, 24), 9: (1, 29, 29), 10: (3, 35, 34), 11: (7, 41, 39)},
    4: {10: (1, 40, 40), 11: (1, 47, 47), 12: (3, 55, 54)},
    5: {12: (1, 60, 60), 13: (1, 69, 69), 14: (3, 79, 78)},
}

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
