"""Pure-Python bitset kernels.

Reference implementation of the hot loops: clique counting up to a size
cap, maximal-clique enumeration (Bron-Kerbosch with pivoting), a one-pass
census giving the full count vector and the maximal cliques, the first
d-clique that fails the link test of the leveled predicate, and canonical
forms for isomorphism dedup.  Each kernel has one contract.  The C
extension `_kernels_c` implements the six hot ones (clique_counts,
maximal_cliques, clique_census, leveled_violation, crowded_link,
canonical_key) with the same contracts for n <= 64, and `flagstone.kernels`
sends each call to one or the other; the rest run only here.  Graphs enter
as a sequence of adjacency bitmask rows (row v = OR of 1<<u over neighbors
u of v).  Canonical keys and graph6 bodies share one upper-triangle codec,
triangle_bits and rows_of_bits.
"""


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


def clique_census(masks, n):
    """(counts, maximal_cliques(masks, n)) from one pass, where counts[k] is
    the number of k-vertex cliques for k = 0 up to the clique number.

    Lists every clique in lexicographic order (Chiba-Nishizeki), keeping
    the candidates above the last vertex and the full common neighbourhood;
    a clique is maximal exactly when its common neighbourhood is empty, so
    the maximal cliques come out already sorted.
    """
    counts = [0] * (n + 2)  # room for counts[1] when n = 0
    counts[0] = 1
    out = []

    def rec(cand, common, prefix, size):
        # cand: vertices above the last chosen one, adjacent to all chosen;
        # common: every vertex adjacent to all chosen.  Each candidate
        # closes one clique of this size.
        counts[size] += cand.bit_count()
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
    rec(full, full, (), 1)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts, out


def k_cliques(masks, n, k):
    """All k-vertex cliques as sorted tuples, in lexicographic order."""
    if k == 0:
        return [()]
    if k == 1:
        return [(v,) for v in range(n)]
    out = []

    def rec(prefix, cand, need):
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if need == 1:
                out.append(prefix + (v,))
            else:
                sub = cand & masks[v]
                if sub.bit_count() >= need - 1:
                    rec(prefix + (v,), sub, need - 1)

    rec((), (1 << n) - 1, k)
    return out


def clique_number(masks, n, stop_at=-1):
    """Size of a largest clique; stops early once stop_at is reached (if >= 0)."""
    best = 0

    def rec(cand, size):
        nonlocal best
        if size > best:
            best = size
        while cand:
            if size + cand.bit_count() <= best:
                return
            if stop_at >= 0 and best >= stop_at:
                return
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            rec(cand & masks[v], size + 1)

    rec((1 << n) - 1, 0)
    return best


def leveled_violation(masks, n, d):
    """First d-clique whose common neighborhood is not two isolated vertices.

    Returns (sigma, link_vertices) for the first (lexicographic) violating
    d-clique, or None when every d-clique passes.  The maximal-clique size
    condition of the leveled predicate is checked separately by the caller.
    """
    full = (1 << n) - 1
    found = None

    def bad(common):
        if common.bit_count() != 2:
            return True
        u = (common & -common).bit_length() - 1
        w = (common & (common - 1)).bit_length() - 1
        return (masks[u] >> w) & 1 == 1

    def rec(prefix, cand, common, need):
        nonlocal found
        if need == 0:
            if bad(common):
                found = (prefix, bits_of(common))
            return
        while cand and found is None:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            rec(prefix + (v,), cand & masks[v], common & masks[v], need - 1)

    rec((), full, full, d)
    return found


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
    placed = [0] * n

    def rec(depth, prefix, length, unplaced):
        nonlocal best
        items = []
        m = unplaced
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            pat = 0
            for a in range(depth):
                pat = (pat << 1) | ((masks[placed[a]] >> v) & 1)
            items.append((pat, v))
        items.sort()
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
                placed[depth] = v
                rec(depth + 1, new_prefix, new_len, rest)
        return

    rec(0, 0, 0, (1 << n) - 1)
    return best


def triangle_bits(masks, n):
    """The upper triangle as a 0/1 string, column by column: for j = 1..n-1,
    the bits of (0,j),(1,j),...,(j-1,j).  graph6 bodies and canonical keys
    share this order; column j is the low j bits of row j, reversed."""
    return "".join(format(masks[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))


def rows_of_bits(bits, n):
    """Inverse of triangle_bits on the first n(n-1)/2 characters of bits:
    each column is read as one integer, the low part of its vertex's row,
    and its set bits are mirrored into the rows above."""
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        col = int(bits[pos:pos + j][::-1], 2)
        pos += j
        rows[j] = col
        bit = 1 << j
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= bit
            col ^= low
    return rows


def key_to_masks(key, n):
    """Inverse of canonical_key's encoding; bits above the triangle are ignored."""
    total = n * (n - 1) // 2
    return rows_of_bits(format(key & ((1 << total) - 1), f"0{total}b"), n)


def masks_key(masks, n):
    """The adjacency bitstring of the labeling as given (no minimization)."""
    return int(triangle_bits(masks, n) or "0", 2)


def bits_of(mask):
    """Vertex tuple of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)
