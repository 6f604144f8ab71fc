"""Backend dispatch for the bitset kernels.

The four hot kernels (maximal_cliques, clique_census, crowded_link,
canonical_key) run in the compiled extension `_kernels_c` when it imported
and n <= 64, since it carries a row in one 64-bit word; every other call,
and every call on a machine where the extension was not built, runs the
pure-Python reference `_kernels_py`.  BACKEND is "c" when the extension
imported, else "python".  clique_counts (the count capped at a size, for a
truncated vector), bits_of, the key decoder key_to_masks, the triangle
codec under it and graph6 (triangle_bits writes a string,
rows_of_triangle reads one integer), and k_cliques, clique_number and
leveled_violation, which `_kernels_py` reads off its own maximal_cliques,
are pure Python only and are that module's functions.  No command calls
those last three: leveled_violation is the link test the tests check the
level test against, the tests' unpruned class enumerator caps cliques
with clique_number, and the benchmark's per-layer tracer looks all three
up by name.  Each kernel has one contract, stated on its `_kernels_py`
namesake; clique_census's limit on the number of cliques is passed to
whichever backend runs.
"""

from . import _kernels_py
from ._kernels_py import (bits_of, clique_counts, clique_number, k_cliques, key_to_masks, leveled_violation,
                          rows_of_triangle, triangle_bits)

try:
    from . import _kernels_c as _c
except ImportError:
    _c = None

BACKEND = "c" if _c is not None else "python"

_C_MAX_N = 64


def maximal_cliques(masks, n):
    if _c is not None and n <= _C_MAX_N:
        return _c.maximal_cliques(masks, n)
    return _kernels_py.maximal_cliques(masks, n)


def clique_census(masks, n, limit=-1):
    if _c is not None and n <= _C_MAX_N:
        return _c.clique_census(masks, n, limit)
    return _kernels_py.clique_census(masks, n, limit)


def crowded_link(masks, n, d, within):
    if _c is not None and n <= _C_MAX_N:
        return _c.crowded_link(masks, n, d, within)
    return _kernels_py.crowded_link(masks, n, d, within)


def canonical_key(masks, n):
    if _c is not None and n <= _C_MAX_N:
        return _c.canonical_key(masks, n)
    return _kernels_py.canonical_key(masks, n)
