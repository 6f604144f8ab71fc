"""Pure-Python bitset kernels.

Reference implementation of the hot loops: clique counting up to a size
cap, maximal-clique enumeration (Bron-Kerbosch with pivoting), a one-pass
census giving the full count vector and the maximal cliques (or None
past a limit on the number of cliques), the first d-clique inside a
vertex set with a crowded link (the level prune), and canonical forms for
isomorphism dedup.  k_cliques, clique_number and leveled_violation (the
first d-clique failing the link test, the reference the tests hold the
level test to) are read off maximal_cliques.  Each kernel has one
contract.  The C extension `_kernels_c` implements the four hot ones
(maximal_cliques, clique_census, crowded_link, canonical_key) with the
same contracts for n <= 64, and `flagstone.kernels` sends each call to
one or the other; the rest, clique_counts among them, run only here.
Graphs enter as a sequence of adjacency bitmask rows (row v = OR of 1<<u
over neighbors u of v).  Canonical keys and graph6 bodies share one
upper-triangle codec: triangle_bits writes the bits as a string, and
rows_of_triangle reads them back from one integer.
"""

from itertools import combinations


def clique_counts(masks, n, kmax):
    """Count the cliques of at most kmax vertices: result[k] = number of
    k-vertex cliques for k = 0..kmax, so result[0] = 1 (the empty clique)
    and entries past the clique number are 0.  kmax < 0 raises ValueError;
    the full vector, to the clique number, comes from clique_census.
    """
    if kmax < 0:
        raise ValueError(f"kmax={kmax} is negative")
    counts = [0] * (kmax + 1)
    counts[0] = 1

    def rec(cand, size):
        # cand: vertices above the last chosen one, adjacent to all chosen;
        # each closes one clique of this size
        counts[size] += cand.bit_count()
        if size < kmax:
            while cand:
                low = cand & -cand
                cand ^= low
                sub = cand & masks[low.bit_length() - 1]
                if sub:
                    rec(sub, size + 1)

    if kmax >= 1:
        rec((1 << n) - 1, 1)
    return counts


def maximal_cliques(masks, n):
    """All inclusion-maximal cliques, sorted lexicographically as vertex tuples."""
    out = []
    if n == 0:
        return out

    def bk(r, p, x):
        if p == 0 and x == 0:
            out.append(bits_of(r))
            return
        # Tomita pivot: highest |P & N(u)| over u in P|X
        px = p | x
        best_u, best = -1, -1
        m = px
        while m:
            low = m & -m
            m ^= low
            u = low.bit_length() - 1
            c = (p & masks[u]).bit_count()
            if c > best:
                best, best_u = c, u
        cand = p & ~masks[best_u]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            bk(r | low, p & masks[v], x & masks[v])
            p ^= low
            x |= low

    bk(0, (1 << n) - 1, 0)
    out.sort()
    return out


class _OverLimit(Exception):
    """Unwinds clique_census once it has counted more than its limit."""


def clique_census(masks, n, limit=-1):
    """(counts, maximal_cliques(masks, n)) from one pass, where counts[k] is
    the number of k-vertex cliques for k = 0 up to the clique number; None
    once more than `limit` cliques, the empty one included, are counted.
    A negative limit means no limit.

    Lists every clique in lexicographic order (Chiba-Nishizeki), keeping
    the candidates above the last vertex and the full common neighbourhood;
    a clique is maximal exactly when its common neighbourhood is empty, so
    the maximal cliques come out already sorted.  Each call counts its
    candidates before it visits any, so a capped pass visits at most
    `limit` cliques.
    """
    if limit == 0:
        return None  # the empty clique is already one too many
    counts = [0] * (n + 2)  # room for counts[1] when n = 0
    counts[0] = 1
    out = []
    left = limit - 1 if limit > 0 else 1 << n  # nonempty cliques still allowed; 2^n never run out

    def rec(cand, common, prefix, size):
        # cand: vertices above the last chosen one, adjacent to all chosen;
        # common: every vertex adjacent to all chosen.  Each candidate
        # closes one clique of this size.
        nonlocal left
        k = cand.bit_count()
        counts[size] += k
        left -= k
        if left < 0:
            raise _OverLimit
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            row = masks[v]
            sub = cand & row
            if sub:
                rec(sub, common & row, prefix + (v,), size + 1)
            elif not common & row:
                out.append(prefix + (v,))

    full = (1 << n) - 1
    try:
        rec(full, full, (), 1)
    except _OverLimit:
        return None
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts, out


def k_cliques(masks, n, k):
    """All k-vertex cliques as sorted tuples, in lexicographic order: the
    k-subsets of the maximal cliques, each once."""
    if k == 0:
        return [()]
    return sorted({sub for c in maximal_cliques(masks, n) for sub in combinations(c, k)})


def clique_number(masks, n, stop_at=-1):
    """Size of a largest clique, the largest maximal clique's; with
    stop_at >= 0, the smaller of that size and stop_at."""
    omega = max(map(len, maximal_cliques(masks, n)), default=0)
    return min(omega, stop_at) if stop_at >= 0 else omega


def leveled_violation(masks, n, d):
    """First d-clique whose common neighborhood is not two nonadjacent vertices.

    Returns (sigma, link_vertices) for the first (lexicographic) violating
    d-clique, or None when every d-clique passes.  The maximal-clique size
    condition of the leveled predicate is checked separately by the caller.
    """
    for sigma in k_cliques(masks, n, d):
        common = (1 << n) - 1
        for v in sigma:
            common &= masks[v]
        link = bits_of(common)
        if len(link) != 2 or masks[link[0]] >> link[1] & 1:
            return sigma, link
    return None


def crowded_link(masks, n, d, within):
    """First d-clique inside `within` with more than two common neighbors,
    or with two adjacent ones; None when there is none.

    This is the part of the level test that every induced subgraph of a
    leveled graph passes too.  A prefix whose common neighborhood is already
    at most two nonadjacent vertices cannot grow into a violation, so its
    branch is cut.
    """
    found = None

    def crowded(common):
        if common.bit_count() <= 1:
            return False
        rest = common & (common - 1)
        if rest & (rest - 1):
            return True
        u = (common & -common).bit_length() - 1
        return (masks[u] & rest) != 0

    def rec(chosen, cand, common, need):
        nonlocal found
        if not crowded(common):
            return
        if need == 0:
            found = bits_of(chosen)
            return
        while cand and found is None:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            sub = cand & masks[v]
            if sub.bit_count() >= need - 1:
                rec(chosen | low, sub, common & masks[v], need - 1)

    rec(0, within, (1 << n) - 1, d)
    return found


def canonical_key(masks, n):
    """Lexicographically least adjacency bitstring over all vertex relabelings.

    The string reads the upper triangle column by column (the graph6 bit
    order): for j = 1..n-1, bits (0,j),(1,j),...,(j-1,j), first bit most
    significant.  Branch-and-bound over slot assignments; interchangeable
    ("twin") candidates are expanded only once.
    """
    if n <= 1:
        return 0
    total = n * (n - 1) // 2
    best = None

    def rec(depth, prefix, length, unplaced, items):
        # items: (pattern, v) for each unplaced v, sorted, where the pattern
        # is v's adjacency to the placed slots, the first slot's bit most
        # significant; a child shifts in the bit of the slot it fills
        nonlocal best
        seen = []
        for pat, v in items:
            bit_v = 1 << v
            rest = unplaced ^ bit_v
            # skip v if a same-pattern predecessor is interchangeable with it
            twin = False
            for pat2, u in seen:
                if pat2 != pat:
                    continue
                r2 = rest & ~(1 << u)
                if masks[u] & r2 == masks[v] & r2:
                    twin = True
                    break
            seen.append((pat, v))
            if twin:
                continue
            new_prefix = (prefix << depth) | pat
            new_len = length + depth
            if best is not None:
                ref = best >> (total - new_len)
                if new_prefix > ref:
                    break  # items sorted by pattern: the rest only get bigger
            if depth + 1 == n:
                if best is None or new_prefix < best:
                    best = new_prefix
            else:
                row = masks[v]
                rec(depth + 1, new_prefix, new_len, rest,
                    sorted([((p << 1) | ((row >> u) & 1), u) for p, u in items if u != v]))

    rec(0, 0, 0, (1 << n) - 1, [(0, v) for v in range(n)])
    return best


def triangle_bits(masks, n):
    """The upper triangle as a 0/1 string, column by column: for j = 1..n-1,
    the bits of (0,j),(1,j),...,(j-1,j).  graph6 bodies and canonical keys
    share this order; column j is the low j bits of row j, reversed."""
    return "".join(format(masks[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))


def rows_of_triangle(t, n):
    """Inverse of triangle_bits, from the integer t whose bit k is the k-th
    triangle bit: column j is the next j bits of t, cut with one shift and
    mask and read as the low part of its vertex's row, and its set bits are
    mirrored into the rows above.  Bits past the n(n-1)/2 of the triangle
    are ignored."""
    rows = [0] * n
    for j in range(1, n):
        col = t & ((1 << j) - 1)
        t >>= j
        rows[j] = col
        bit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    return rows


def key_to_masks(key, n):
    """Inverse of canonical_key's encoding, whose most significant bit is
    the first triangle bit; bits above the triangle are ignored."""
    total = n * (n - 1) // 2
    return rows_of_triangle(int(format(key & ((1 << total) - 1), f"0{total}b")[::-1], 2), n)


def bits_of(mask):
    """Vertex tuple of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)
