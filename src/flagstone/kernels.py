"""Backend dispatch for the bitset kernels.

The six hot kernels (clique_counts, maximal_cliques, clique_census,
leveled_violation, crowded_link, canonical_key) run in the compiled
extension `_kernels_c` when it imported and n <= 64, since it carries a row
in one 64-bit word; every other call, and every call on a machine where the
extension was not built, runs the pure-Python reference `_kernels_py`.
BACKEND is "c" when the extension imported, else "python".  k_cliques,
clique_number, bits_of and the key and graph6 codecs (key_to_masks,
masks_key, triangle_bits, rows_of_bits) are pure Python only and are that
module's functions.  Each kernel has one contract, stated on its
`_kernels_py` namesake.
"""

from . import _kernels_py
from ._kernels_py import (bits_of, clique_number, k_cliques, key_to_masks, masks_key, rows_of_bits,
                          triangle_bits)

try:
    from . import _kernels_c as _c
except ImportError:
    _c = None

BACKEND = "c" if _c is not None else "python"

_C_MAX_N = 64


def clique_counts(masks, n, kmax):
    if _c is not None and n <= _C_MAX_N:
        return _c.clique_counts(masks, n, kmax)
    return _kernels_py.clique_counts(masks, n, kmax)


def maximal_cliques(masks, n):
    if _c is not None and n <= _C_MAX_N:
        return _c.maximal_cliques(masks, n)
    return _kernels_py.maximal_cliques(masks, n)


def clique_census(masks, n):
    if _c is not None and n <= _C_MAX_N:
        return _c.clique_census(masks, n)
    return _kernels_py.clique_census(masks, n)


def leveled_violation(masks, n, d):
    if _c is not None and n <= _C_MAX_N:
        return _c.leveled_violation(masks, n, d)
    return _kernels_py.leveled_violation(masks, n, d)


def crowded_link(masks, n, d, within):
    if _c is not None and n <= _C_MAX_N:
        return _c.crowded_link(masks, n, d, within)
    return _kernels_py.crowded_link(masks, n, d, within)


def canonical_key(masks, n):
    if _c is not None and n <= _C_MAX_N:
        return _c.canonical_key(masks, n)
    return _kernels_py.canonical_key(masks, n)
