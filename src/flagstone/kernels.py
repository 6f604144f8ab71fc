"""Backend dispatch for the bitset kernels.

Imports the compiled extension when it is present and usable, otherwise the
pure-Python module.  Setting FLAGSTONE_BACKEND=python forces the fallback;
FLAGSTONE_BACKEND=cython raises if the extension is missing.  The compiled
kernels carry masks in 64-bit words, so calls with n > 64 (or n > 11 for the
canonical form, whose key must fit one word) are routed to Python regardless.
"""

import os

from . import _kernels_py

_choice = os.environ.get("FLAGSTONE_BACKEND", "").strip().lower()

_cy = None
if _choice != "python":
    try:
        from . import _kernels_cy as _cy
    except ImportError:
        if _choice == "cython":
            raise
        _cy = None

BACKEND = "cython" if _cy is not None else "python"

_CY_MAX_N = 64
_CY_CANON_MAX_N = 11


def clique_counts(masks, n, kmax=-1):
    # no clique has more than n vertices, and the compiled kernel's count
    # array has room for 65 sizes only: count to n and pad with zeros
    pad = [0] * (kmax - n)
    if _cy is not None and n <= _CY_MAX_N:
        return _cy.clique_counts(list(masks), n, min(kmax, n)) + pad
    return _kernels_py.clique_counts(masks, n, min(kmax, n)) + pad


def maximal_cliques(masks, n):
    if _cy is not None and n <= _CY_MAX_N:
        return _cy.maximal_cliques(list(masks), n)
    return _kernels_py.maximal_cliques(masks, n)


def clique_census(masks, n):
    # the compiled backend has no census: its two kernels give the same pair
    if _cy is not None and n <= _CY_MAX_N:
        rows = list(masks)
        return _cy.clique_counts(rows, n, -1), _cy.maximal_cliques(rows, n)
    return _kernels_py.clique_census(masks, n)


def k_cliques(masks, n, k):
    if _cy is not None and n <= _CY_MAX_N:
        return _cy.k_cliques(list(masks), n, k)
    return _kernels_py.k_cliques(masks, n, k)


def clique_number(masks, n, stop_at=-1):
    if _cy is not None and n <= _CY_MAX_N:
        return _cy.clique_number(list(masks), n, stop_at)
    return _kernels_py.clique_number(masks, n, stop_at)


def leveled_violation(masks, n, d):
    if _cy is not None and n <= _CY_MAX_N:
        return _cy.leveled_violation(list(masks), n, d)
    return _kernels_py.leveled_violation(masks, n, d)


def crowded_link(masks, n, d, within):
    return _kernels_py.crowded_link(masks, n, d, within)


def leveled_violations_all(masks, n, d):
    return _kernels_py.leveled_violations_all(masks, n, d)


def canonical_key(masks, n):
    if _cy is not None and n <= _CY_CANON_MAX_N:
        return _cy.canonical_key(list(masks), n)
    return _kernels_py.canonical_key(masks, n)


def key_to_masks(key, n):
    return _kernels_py.key_to_masks(key, n)


def masks_key(masks, n):
    return _kernels_py.masks_key(masks, n)


def bits_of(mask):
    return _kernels_py.bits_of(mask)
