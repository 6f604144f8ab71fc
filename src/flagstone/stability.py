"""The almost-join machinery of the paper's stability argument.

Almost-join partitions (`PartitionWitness`, `verify_type_partition`, the
heuristic `extract_partition`, restriction and link witnesses), the
independent-set lemma check and the Bollobas clique-count floor, with the
default parameter schedules.  No command of the CLI uses them, so the CLI
never loads this module; `flagstone` re-exports its names on first use.

All numeric comparisons here are exact (integers and Fractions); there are
no tolerance parameters because every inequality is sharp at fixed n.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InvalidParameter, InvalidPartition, NotAClique, PreconditionFailed
from .structure import is_d_leveled


# -- almost-join partitions ---------------------------------------------


def _as_fraction(x):
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class PartitionWitness:
    """A partition V = S_1 u ... u S_t u X with its claimed parameters.

    eta bounds the relative cross-degree deficit (every v in S_i must see
    at least |S_j| (1-eta) vertices of every other part S_j), C caps |X|.
    alpha (balance slack) and m (minimum part size) are optional extra
    claims; leave them None to skip those clauses.
    """

    t: int
    eta: Fraction
    C: int
    parts: tuple
    X: tuple = ()
    alpha: Fraction = None
    m: int = None

    def __post_init__(self):
        if self.t != len(self.parts):
            raise InvalidPartition(f"t={self.t} but {len(self.parts)} parts given")
        object.__setattr__(self, "eta", _as_fraction(self.eta))
        object.__setattr__(self, "parts", tuple(tuple(sorted(p)) for p in self.parts))
        object.__setattr__(self, "X", tuple(sorted(self.X)))
        if self.alpha is not None:
            object.__setattr__(self, "alpha", _as_fraction(self.alpha))

    def to_json_dict(self):
        out = {
            "t": self.t,
            "eta": str(self.eta),
            "C": self.C,
            "parts": [list(p) for p in self.parts],
            "X": list(self.X),
        }
        if self.alpha is not None:
            out["alpha"] = str(self.alpha)
        if self.m is not None:
            out["m"] = self.m
        return out

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            t=data["t"],
            eta=Fraction(data["eta"]),
            C=data["C"],
            parts=tuple(tuple(p) for p in data["parts"]),
            X=tuple(data["X"]),
            alpha=Fraction(data["alpha"]) if "alpha" in data else None,
            m=data.get("m"),
        )


@dataclass(frozen=True)
class PartitionDiagnostics:
    """Per-clause outcome of verify_type_partition.

    large_ok and flat_ok are None when the witness makes no such claim.
    failure carries the first offending (vertex, part, degree, required)
    tuple for the cross-degree clause, else None.
    """

    ok: bool
    type_ok: bool
    excess_ok: bool
    large_ok: bool
    flat_ok: bool
    failure: tuple = None

    def __bool__(self):
        return self.ok


def _check_partition_cover(g, w):
    seen = {}
    for i, part in enumerate(w.parts):
        for v in part:
            if v in seen:
                raise InvalidPartition(f"vertex {v} in part {i} and in {seen[v]}")
            seen[v] = i
    for v in w.X:
        if v in seen:
            raise InvalidPartition(f"vertex {v} both exceptional and in part {seen[v]}")
        seen[v] = "X"
    missing = [v for v in range(g.n) if v not in seen]
    extra = [v for v in seen if not 0 <= v < g.n]
    if missing or extra:
        raise InvalidPartition(f"not a partition of 0..{g.n - 1}: missing {missing}, extra {extra}")


def verify_type_partition(g, w):
    """Check the cross-degree, |X| cap, largeness, and flatness clauses.

    Exact rational comparisons throughout; raises InvalidPartition when the
    sets fail to partition the vertices at all.
    """
    _check_partition_cover(g, w)
    part_masks = [sum(1 << v for v in part) for part in w.parts]
    type_ok = True
    failure = None
    for i, part in enumerate(w.parts):
        for v in part:
            for j, mask in enumerate(part_masks):
                if j == i:
                    continue
                need = len(w.parts[j]) * (1 - w.eta)
                have = (g.masks[v] & mask).bit_count()
                if have < need:
                    type_ok = False
                    failure = failure or (v, j, have, need)
    excess_ok = len(w.X) <= w.C
    large_ok = None if w.m is None else all(len(p) >= w.m for p in w.parts)
    flat_ok = None
    if w.alpha is not None:
        lo = Fraction(g.n, w.t) * (1 - w.alpha)
        hi = Fraction(g.n, w.t) * (1 + w.alpha)
        flat_ok = all(lo <= len(p) <= hi for p in w.parts)
    ok = type_ok and excess_ok and large_ok is not False and flat_ok is not False
    return PartitionDiagnostics(ok, type_ok, excess_ok, large_ok, flat_ok, failure)


def _greedy_parts(g, t, start, max_sweeps):
    """Iterated reassignment: each vertex joins the part it sees least.

    Ties go to the lowest part index; sweeps stop at the first fixed point
    or after max_sweeps rounds.
    """
    part_of = list(start)
    part_masks = [0] * t
    for v, i in enumerate(part_of):
        part_masks[i] |= 1 << v
    for _ in range(max_sweeps):
        moved = False
        for v in range(g.n):
            degs = [(g.masks[v] & part_masks[j]).bit_count() for j in range(t)]
            best = min(range(t), key=lambda j: (degs[j], j))
            if best != part_of[v]:
                part_masks[part_of[v]] &= ~(1 << v)
                part_masks[best] |= 1 << v
                part_of[v] = best
                moved = True
        if not moved:
            break
    return part_of


def _similarity_start(g, t):
    """Merge non-adjacent pairs, best common neighborhood first, down to t
    classes.

    In an almost-join two non-adjacent vertices of one part see everything
    outside that part, while a cross pair with a deleted edge misses both
    its parts, so ranking pairs by |N(u) & N(v)| separates the two cases
    with a margin that grows with the part size.  Leftover classes (when
    non-adjacent pairs run out) go to the part they are least adjacent to.
    """
    pairs = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not (g.masks[u] >> v) & 1:
                pairs.append(((g.masks[u] & g.masks[v]).bit_count(), u, v))
    pairs.sort(key=lambda x: (-x[0], x[1], x[2]))
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    classes = g.n
    for _, u, v in pairs:
        if classes <= t:
            break
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
            classes -= 1
    groups = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    # t largest classes seed the parts; order ties by smallest member
    ordered = sorted(groups.values(), key=lambda grp: (-len(grp), grp[0]))
    start = [None] * g.n
    part_masks = [0] * t
    for i, grp in enumerate(ordered[:t]):
        for v in grp:
            start[v] = i
            part_masks[i] |= 1 << v
    for grp in ordered[t:]:
        j = min(
            range(t),
            key=lambda i: (sum((g.masks[v] & part_masks[i]).bit_count() for v in grp), i),
        )
        for v in grp:
            start[v] = j
            part_masks[j] |= 1 << v
    return start


def _peel_exceptional(g, t, part_of, eta):
    """The exceptional set X of the half-eta cut on the parts part_of.

    A vertex is cut when it sees at most |S_j| (1 - eta/2) vertices of some
    other surviving part S_j.  Cut vertices leave their part, which changes
    the sizes, so the cut peels: each round sets aside the cut vertices of
    the largest deficit 1 - deg/|S_j| (an empty part counts as deficit 1),
    all ties at once, and measures again.  One stray vertex in a part thus
    goes alone, without the vertices that see all of the part but it.
    """
    keep = 1 - eta / 2
    alive = [0] * t
    for v, i in enumerate(part_of):
        alive[i] |= 1 << v
    exceptional = set()
    while True:
        deficits = {}
        for v in range(g.n):
            if v in exceptional:
                continue
            for j, mask in enumerate(alive):
                size = mask.bit_count()
                have = (g.masks[v] & mask).bit_count()
                if j != part_of[v] and have <= size * keep:
                    deficit = 1 - Fraction(have, size) if size else Fraction(1)
                    deficits[v] = max(deficit, deficits.get(v, deficit))
        if not deficits:
            return exceptional
        worst = max(deficits.values())
        for v, deficit in deficits.items():
            if deficit == worst:
                exceptional.add(v)
                alive[part_of[v]] &= ~(1 << v)


def extract_partition(g, t, eta, seed_parts=None, seed=0, restarts=3):
    """Heuristic search for an almost-join partition at target eta.

    Candidate parts come from iterated cross-degree reassignment (from the
    given seed_parts, or from a common-neighborhood merge start plus
    balanced random starts derived from seed);
    vertices whose degree into some other part S_j is at most
    |S_j| (1 - eta/2), measured against that part's own size as in
    verify_type_partition's |S_j| (1 - eta) floor, become the exceptional
    set X, worst first (see _peel_exceptional).  The returned witness
    carries eta' = max(eta, deficit actually achieved by the survivors),
    so it always passes verify_type_partition; compare w.eta == eta to see
    whether the target was met.  Note the half-eta cut is a weak
    inequality, so a request of eta = 0 on an exactly balanced instance
    sends full-degree vertices to X; request a small positive eta instead.
    This is a heuristic: failure to find a small X does not mean no
    witness exists.
    """
    if t < 1 or t > g.n:
        raise InvalidParameter(f"need 1 <= t <= n, got t={t}, n={g.n}")
    eta = _as_fraction(eta)
    if seed_parts is not None:
        start = [None] * g.n
        for i, part in enumerate(seed_parts):
            for v in part:
                start[v] = i
        if None in start or len(seed_parts) != t:
            raise InvalidPartition("seed_parts must assign every vertex to one of t parts")
        starts = [start]
    else:
        starts = [_similarity_start(g, t)]
        for r in range(max(1, restarts)):
            rng = random.Random(1000003 * seed + r)
            order = list(range(g.n))
            rng.shuffle(order)
            start = [0] * g.n
            for pos, v in enumerate(order):
                start[v] = pos % t
            starts.append(start)

    best = None
    for start in starts:
        part_of = _greedy_parts(g, t, start, max_sweeps=g.n)
        exceptional = _peel_exceptional(g, t, part_of, eta)
        parts = [
            tuple(v for v in range(g.n) if part_of[v] == i and v not in exceptional)
            for i in range(t)
        ]
        final_masks = [sum(1 << v for v in part) for part in parts]
        achieved = Fraction(0)
        for i, part in enumerate(parts):
            for v in part:
                for j in range(t):
                    if j == i or not parts[j]:
                        continue
                    have = (g.masks[v] & final_masks[j]).bit_count()
                    deficit = 1 - Fraction(have, len(parts[j]))
                    if deficit > achieved:
                        achieved = deficit
        # prefer starts that meet the target, then fewest exceptional vertices;
        # achieved-first would favor dumping most of the graph into X
        key = (achieved > eta, len(exceptional), achieved, tuple(parts))
        if best is None or key < best[0]:
            best = (key, parts, tuple(sorted(exceptional)), achieved)

    _, parts, exceptional, achieved = best
    witness = PartitionWitness(
        t=t,
        eta=max(eta, achieved),
        C=len(exceptional),
        parts=tuple(parts),
        X=exceptional,
    )
    diag = verify_type_partition(g, witness)
    if not diag.ok:
        raise AssertionError("extracted witness failed its own verification")
    return witness


def find_transversal_clique(g, w):
    """One vertex per part, pairwise adjacent, by lowest-vertex greedy.

    Succeeds whenever the witness verifies with eta < 1/t (each step keeps
    a positive fraction of the next part available).  Returns the clique
    as a sorted tuple, or None if some part runs out of candidates.
    """
    available = (1 << g.n) - 1
    chosen = []
    for part in w.parts:
        cands = [v for v in part if (available >> v) & 1]
        if not cands:
            return None
        v = min(cands)
        chosen.append(v)
        available &= g.masks[v]
    return tuple(sorted(chosen))


def restrict_witness(g, w, subsets):
    """Induce on T_1 u ... u T_t u X for T_i inside S_i; rescale eta.

    With beta = min |T_i| / |S_i|, the restriction claims eta/beta.
    Returns (induced graph, witness on the new labels).  All T_i must be
    nonempty subsets of the corresponding parts.
    """
    subsets = [tuple(sorted(set(s))) for s in subsets]
    if len(subsets) != w.t:
        raise InvalidParameter("need one subset per part")
    beta = None
    for part, sub in zip(w.parts, subsets):
        if not sub or not set(sub) <= set(part):
            raise InvalidParameter("each T_i must be a nonempty subset of S_i")
        ratio = Fraction(len(sub), len(part))
        beta = ratio if beta is None else min(beta, ratio)
    keep = sorted(set(v for s in subsets for v in s) | set(w.X))
    sub_g, vmap = g.induced(keep)
    new_index = {old: new for new, old in enumerate(vmap)}
    new_parts = tuple(tuple(new_index[v] for v in s) for s in subsets)
    new_x = tuple(new_index[v] for v in w.X)
    new_eta = w.eta / beta
    return sub_g, PartitionWitness(t=w.t, eta=new_eta, C=w.C, parts=new_parts, X=new_x)


def witness_link(g, w, sigma):
    """Witness for the link of a clique lying inside the parts.

    Every part sigma meets is dropped entirely; the remaining parts shrink
    to their common neighborhoods, and eta rescales to
    eta / (1 - eta |sigma|).  Requires eta |sigma| < 1 and sigma disjoint
    from X.  Returns (link graph, witness on the new labels).
    """
    sigma = tuple(sorted(set(sigma)))
    owner = {}
    for i, part in enumerate(w.parts):
        for v in part:
            owner[v] = i
    touched = set()
    for v in sigma:
        if v not in owner:
            raise InvalidParameter(f"vertex {v} is exceptional or unassigned")
        touched.add(owner[v])
    if w.eta * len(sigma) >= 1:
        raise InvalidParameter("eta |sigma| must be < 1 to rescale")
    if not g.is_clique(sigma):
        raise NotAClique(f"{sigma} is not a clique")
    common = (1 << g.n) - 1
    for v in sigma:
        common &= g.masks[v]
    keep_parts = [
        tuple(v for v in part if (common >> v) & 1)
        for i, part in enumerate(w.parts)
        if i not in touched
    ]
    keep_x = tuple(v for v in w.X if (common >> v) & 1)
    keep = sorted({v for p in keep_parts for v in p} | set(keep_x))
    lk, vmap = g.induced(keep)
    new_index = {old: new for new, old in enumerate(vmap)}
    new_parts = tuple(tuple(new_index[v] for v in p) for p in keep_parts)
    new_x = tuple(new_index[v] for v in keep_x)
    new_eta = w.eta / (1 - w.eta * len(sigma))
    return lk, PartitionWitness(
        t=w.t - len(touched), eta=new_eta, C=w.C, parts=new_parts, X=new_x
    )


# -- independent sets and clique density --------------------------------


def check_lemma_independent_bound(g, d, independent, exceptional):
    """For a leveled graph split into an independent set I and the rest X,
    check |I| <= 2 |X|^d.  Returns (holds, |I|, 2 |X|^d).

    Raises PreconditionFailed unless I and X partition the vertices, I is
    independent, and the graph passes the level test at d.
    """
    ind = tuple(sorted(set(independent)))
    exc = tuple(sorted(set(exceptional)))
    if set(ind) & set(exc) or sorted(ind + exc) != list(range(g.n)):
        raise PreconditionFailed("I and X must partition the vertex set")
    for a, b in combinations(ind, 2):
        if g.has_edge(a, b):
            raise PreconditionFailed(f"I is not independent: edge ({a}, {b})")
    if not is_d_leveled(g, d).is_leveled:
        raise PreconditionFailed(f"graph fails the level test at d={d}")
    lhs = len(ind)
    rhs = 2 * len(exc) ** d
    return lhs <= rhs, lhs, rhs


def bollobas_lower_bound(n, m, t):
    """Exact clique-count lower bound with its validity window.

    Returns (value, in_range) with value = (2 t m n^(t-1) - (t-1) n^(t+1))
    / (t+1)^t, a lower bound for the number of (t+1)-cliques of any graph
    with n vertices and m edges whenever (t-1)/(2t) n^2 <= m <= t/(2(t+1))
    n^2.  Callers must not rely on the value outside the window.
    """
    if n < 1 or m < 0 or t < 1:
        raise InvalidParameter("need n >= 1, m >= 0, t >= 1")
    value = Fraction(2 * t * m * n ** (t - 1) - (t - 1) * n ** (t + 1), (t + 1) ** t)
    in_range = Fraction(t - 1, 2 * t) * n * n <= m <= Fraction(t, 2 * (t + 1)) * n * n
    return value, in_range


# -- default parameter schedules ----------------------------------------


def default_eta(t):
    """Schedule 1/(200 t^2): below 1/(100 t), and stable under the link
    rescaling eta -> eta (1 - 2 t eta)^(-1) staying under the previous
    level's value."""
    if t < 1:
        raise InvalidParameter("need t >= 1")
    return Fraction(1, 200 * t * t)


def default_alpha(t):
    """Schedule 1/(4000 t^3), below default_eta(t) / (10 t)."""
    if t < 1:
        raise InvalidParameter("need t >= 1")
    return Fraction(1, 4000 * t ** 3)
