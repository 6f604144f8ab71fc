"""Exhaustive search, the cycle-join report of random mode, and corpus
checking.

The exhaustive enumerator walks graphs up to isomorphism by vertex
extension: every class on k+1 vertices arises by attaching a new vertex to
the canonical representative of one of its (k-vertex) deleted subgraphs,
so extending every class on k vertices by every neighborhood mask and
deduplicating on the canonical key visits every class exactly once per
key.  The argument needs only that the kept classes are closed under
deleting a vertex, so any hereditary property can prune during
generation.

Given a level d and the largest size n_max, two such prunes apply, both
read off the level test (every maximal clique has d+1 vertices and every
d-clique has exactly two common neighbors, which are nonadjacent):

(a) No d-clique has more than two common neighbors, or two adjacent ones.
    Deleting a vertex only shrinks common neighborhoods and keeps the
    edges among the survivors, so every induced subgraph passes too.  When
    a vertex w joins a passing graph with neighborhood N, only the d-cliques
    inside N + w can have gained a common neighbor, so only those are
    checked.  It also caps the clique number at d+1: in a (d+2)-clique,
    any d of the vertices have the other two as adjacent common neighbors.
(b) On m vertices the minimum degree is at least 2d - (n_max - m).  A
    d-leveled graph has minimum degree at least 2d: a vertex v of a
    maximal clique K lies in d of K's d-subsets, and each one's second
    common neighbor is a neighbor of v outside K; two equal ones would
    extend K to a (d+2)-clique.  Deleting n - m vertices of a graph on
    n <= n_max vertices costs each survivor at most n - m neighbors, and
    deleting one vertex from a graph that meets the bound on m vertices
    gives one that meets it on m - 1.

So every d-leveled graph on at most n_max vertices passes both prunes, as
do all its induced subgraphs, and each class kept on k+1 vertices is still
reached from a kept class on k vertices.  Prune (b) also fixes part of the
new neighborhood: a vertex one short of the bound must be in it.  Search
output is deterministic and byte-identical regardless of worker count.

Random mode reports the balanced cycle join at each size at odd levels,
where it passes the level test by construction, and none at even ones,
where it never does: no single edge swap of that join passes it
(`random_search` gives the proof), so there is no walk to run.

Both modes only choose an extremal graph and counts per n; the one
payload builder `_search_result` makes the per-n entries, the odd-level
reports and the `SearchResult`.  A `check` entry writes each field once:
`_add_face_algebra` the face algebra, `_add_skeleton` what a clique
complex's graph gives (for a graph and for a flag complex alike), and
`check_instance` the rest.
"""

import json
import os
from collections import namedtuple

from . import kernels
from .bounds import (
    STATUS_CONJECTURE,
    bound_entry,
    edge_bound_even_conjecture,
    edge_bound_odd,
    verify_theorem_instance,
)
from .complexes import (
    CLIQUE_BUDGET,
    EDGE_LIMIT,
    check_dehn_sommerville,
    check_klee,
    euler_characteristic,
    f_vector,
    flag_clique_cap,
    gamma_vector,
    graph_f_vector,
    h_vector,
)
from .errors import BudgetExceeded, InvalidParameter, ParseError
from .formats import load_instances
from .generators import check_join_of_cycles, gen_join_of_cycles
from .graphs import Graph
from .structure import detect_level, is_d_leveled, is_flag, is_weak_pseudomanifold

DEFAULT_CAP_LEVEL_ONE = 10
DEFAULT_CAP = 8


def exhaustive_cap(d):
    """Feasibility cap on n for exhaustive mode."""
    return DEFAULT_CAP_LEVEL_ONE if d == 1 else DEFAULT_CAP


class SearchConfig(namedtuple(
    "SearchConfig",
    "mode d n_min n_max seed workers budget allow_huge",
)):
    __slots__ = ()

    def __new__(cls, mode, d, n_min, n_max, seed=None, workers=1, budget=1000, allow_huge=False):
        if mode not in ("exhaustive", "random"):
            raise InvalidParameter(f"unknown search mode {mode!r}")
        if d < 1:
            raise InvalidParameter("need level d >= 1")
        if not 1 <= n_min <= n_max:
            raise InvalidParameter("need 1 <= n_min <= n_max")
        if mode == "random" and seed is None:
            raise InvalidParameter("random mode needs an explicit seed")
        if workers < 1:
            raise InvalidParameter("need workers >= 1")
        if budget < 0:
            raise InvalidParameter("need budget >= 0")
        return super().__new__(cls, mode, d, n_min, n_max, seed, workers, budget, allow_huge)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: both go through __new__'s checks
        return cls(*iterable)

    @property
    def s_effective(self):
        """The s of the reports: (d+1)/2 at odd d, d/2 at even d."""
        return (self.d + 1) // 2


class SearchResult(namedtuple(
    "SearchResult",
    "mode d s n_min n_max seed budget per_n reports notes",
)):
    """Per-n summaries plus full reports for the extremal instances.

    Serialization excludes the worker count on purpose: results must be
    byte-identical however the work was split.
    """

    __slots__ = ()

    def to_json_bytes(self):
        return (json.dumps(self._asdict(), sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def _extend_chunk(args):
    keys, k, d, n_max = args
    # prune (b): on k+1 vertices every degree must reach 2d - (n_max - (k+1))
    min_degree = 2 * d - (n_max - k - 1)
    out = set()
    for key in keys:
        base = kernels.key_to_masks(key, k)
        degrees = [row.bit_count() for row in base]
        if min(degrees) < min_degree - 1:
            continue
        # a vertex one short of the bound must take the new vertex as neighbor
        forced = sum(1 << v for v in range(k) if degrees[v] < min_degree)
        for new_mask in range(1 << k):
            if new_mask & forced != forced or new_mask.bit_count() < min_degree:
                continue
            rows = list(base) + [new_mask]
            for v in range(k):
                if (new_mask >> v) & 1:
                    rows[v] |= 1 << k
            # prune (a): only d-cliques through the new vertex or inside its
            # neighborhood can have gained a common neighbor
            within = new_mask | 1 << k
            if kernels.crowded_link(rows, k + 1, d, within) is None:
                out.add(kernels.canonical_key(rows, k + 1))
    return out


def enumerate_classes(n_max, d, workers=1):
    """Canonical keys of the classes that pass the level prunes at d, per
    vertex count: {n: sorted key list} for 1 <= n <= n_max.

    The prunes are (a) and (b) of the module docstring, for largest size
    n_max; every d-leveled class on at most n_max vertices passes them.
    The pool holds at most one worker per CPU this process may run on, as
    a forking pool starts all of its workers at once.
    """
    if n_max < 1:
        raise InvalidParameter(f"n_max={n_max}: need n_max >= 1")
    if d < 1:
        raise InvalidParameter(f"d={d}: need level d >= 1")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(workers, cpus)
    levels = {1: [0]}
    for k in range(1, n_max):
        keys = levels[k]
        if workers > 1 and len(keys) > workers:
            from concurrent.futures import ProcessPoolExecutor

            chunks = [(keys[i::workers], k, d, n_max) for i in range(workers)]
            merged = set()
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(_extend_chunk, chunks):
                    merged |= part
        else:
            merged = _extend_chunk((keys, k, d, n_max))
        levels[k + 1] = sorted(merged)
    return levels


def graph_from_key(key, n):
    if n < 0:
        raise InvalidParameter("vertex count must be nonnegative")
    return Graph._of_rows(n, tuple(kernels.key_to_masks(key, n)))


def _search_result(cfg, chosen, notes):
    """The SearchResult of either mode, from its notes and its `(n, best,
    counts)` per size: `best` is the chosen extremal graph on n vertices,
    None when none passed the level test, and `counts` a dict of the mode's
    counts.  Each size gets a per-n entry, and each `best` at odd d the
    theorem report.  `chosen` is read one size at a time, so the graphs
    of a size are freed once the next size is read."""
    s = cfg.s_effective
    per_n = []
    reports = []
    for n, best, counts in chosen:
        bound = edge_bound_odd(n, s) if cfg.d % 2 else edge_bound_even_conjecture(n, s)
        entry = {"n": n, **counts, "max_edges": None, "argmax_edges": None,
                 "bound": str(bound), "bound_holds": None}
        if best is not None:
            entry.update(max_edges=best.edge_count, argmax_edges=best.edges(),
                         bound_holds=best.edge_count <= bound)
            if cfg.d % 2:
                reports.append(verify_theorem_instance(best, s, instance=f"{cfg.mode}:n={n}").to_json_dict())
        per_n.append(entry)
    return SearchResult(cfg.mode, cfg.d, s, cfg.n_min, cfg.n_max, cfg.seed, cfg.budget,
                        tuple(per_n), tuple(reports), tuple(notes))


def exhaustive_search(cfg):
    """Enumerate the classes that pass the level prunes up to n_max, filter
    them by the level test, report extremes per n.  Raises BudgetExceeded
    when n_max is over the cap and the config does not acknowledge the
    blowup."""
    if cfg.mode != "exhaustive":
        raise InvalidParameter("config is not in exhaustive mode")
    cap = exhaustive_cap(cfg.d)
    if cfg.n_max > cap and not cfg.allow_huge:
        raise BudgetExceeded(
            f"n_max={cfg.n_max} exceeds the exhaustive cap {cap}; "
            "pass --i-know-this-is-huge to proceed"
        )
    levels = enumerate_classes(cfg.n_max, cfg.d, workers=cfg.workers)

    def chosen():
        for n in range(cfg.n_min, cfg.n_max + 1):
            found = {}
            for key in levels[n]:
                g = graph_from_key(key, n)
                if is_d_leveled(g, cfg.d).is_leveled:
                    found[key] = g
            # a key's bits are the graph's edges; ties go to the least key
            best = found[min(found, key=lambda key: (-key.bit_count(), key))] if found else None
            yield n, best, {"classes_visited": len(levels[n]), "leveled_classes": len(found)}

    notes = [
        f"exhaustive over all isomorphism classes with clique number <= {cfg.d + 1}, "
        f"n in [{cfg.n_min}, {cfg.n_max}]; no claim beyond this range",
    ]
    return _search_result(cfg, chosen(), notes)


def random_search(cfg):
    """The balanced cycle join G = gen_join_of_cycles(s, n) for each n >= 4s
    at odd d, and no graph at even d; reproducible.

    G passes the level test exactly at odd d = 2s - 1: each cycle passes
    at 1 with the one maximal-clique size 2, so by the join rule of
    `is_d_leveled` G passes with the one size 2s.  At even d = 2s that
    size is d, not d + 1.  So the level test decides nothing here and is
    not run; the report of each listed join runs its own.  The seed and
    the budget only appear in the payload (a zero budget reports no
    sizes): by the theorem below, a walk from G by single edge swaps
    would never move.

    Theorem.  Let G be the join of s cycles, each on at least 4 vertices.
    Drop one edge ab of G and add one non-edge uv.  The result H fails the
    level test at d = 2s - 1 and at d = 2s.  (tests/test_search.py checks
    every swap for s <= 3.)

    Proof.  Split H as a join of parts (any grouping of its join factors).
    H passes at d exactly when every part has one maximal-clique size, the
    sizes sum to d+1, and every part passes its own ridge test
    (`is_d_leveled`).  A cycle on at least 4 vertices has the one size 2
    and passes at 1.  The non-edges of G lie inside the cycles, so uv is a
    chord of a single cycle C.

    Even d = 2s.  G has clique number d, so every (d+1)-clique of H
    contains u and v.  If H passed, every vertex would lie in such a
    clique, so u would be adjacent to every other vertex.  Then for a
    (d+1)-clique K the ridge K - u has u and a second common neighbour,
    and these two are adjacent.

    Odd d = 2s - 1, so the sizes must sum to 2s.
    (i) ab lies on C.  With the other s - 1 cycles as parts, C - ab + uv
        must have the one size 2 and pass at 1: be 2-regular with no
        triangles.  But a or b has lost a neighbour and does not get one
        back, since uv is not ab.
    (ii) ab lies on another cycle D.  D - ab becomes a path part, whose
        maximal cliques are its edges, and its end vertex a lies in only
        one edge.
    (iii) ab is a cross edge between cycles D and E, neither of them C.
        The part C + uv fails in one of three ways: it has no triangle
        and a degree-3 vertex (u and v at distance 3 or more on C); it has
        maximal cliques of sizes 2 and 3 (distance 2 on at least 5
        vertices); or it is C4 plus a diagonal, of size 3.  In the last
        case the block D * E - ab still has 4-cliques (an edge of D and an
        edge of E avoiding a and b), so the sizes sum to 3 + 4 + 2(s - 3)
        = d + 2.
    (iv) ab is a cross edge from a on C to b on another cycle D.  Take a
        cycle neighbour a' of a and a facet K of G containing a, a' and b.
        The ridge K - a loses its common neighbour a.  It can gain one only
        through uv, with one end in K - a, whose only vertex on C is a'.
        So a' is u or v for both cycle neighbours a1, a2 of a, and uv =
        a1a2.  Then {a, a1, a2}, plus an edge of D that avoids b, plus an
        edge of every other cycle, is a (d+2)-clique.
    """
    if cfg.mode != "random":
        raise InvalidParameter("config is not in random mode")
    s = cfg.s_effective
    stop = cfg.n_max + 1 if cfg.budget > 0 else cfg.n_min
    joins = range(max(cfg.n_min, 4 * s), stop)
    if joins:
        # the payload lists the edges of every join at odd d: refuse the
        # largest join, then the joins' sum, before the first is built
        check_join_of_cycles(s, joins[-1])
        total = sum(check_join_of_cycles(s, n)[1] for n in joins) if cfg.d % 2 else 0
        if total > EDGE_LIMIT:
            raise InvalidParameter(f"the {s}-cycle joins for n={joins[0]}..{joins[-1]} total {total} edges, "
                                   f"over the edge limit {EDGE_LIMIT}")
    notes = [
        f"random local search, seed={cfg.seed}, budget={cfg.budget} moves per n; "
        "findings are samples, not exhaustive claims",
    ]
    if cfg.n_min < min(stop, 4 * s):  # one note for the whole skipped range
        notes.append(f"n={cfg.n_min}..{min(stop, 4 * s) - 1} skipped: below the smallest {s}-cycle-join size {4 * s}")

    def chosen():
        for n in joins:
            best = gen_join_of_cycles(s, n) if cfg.d % 2 else None
            yield n, best, {"candidates_found": 0 if best is None else 1}

    return _search_result(cfg, chosen(), notes)


# -- corpus checking ----------------------------------------------------


def _add_face_algebra(entry, f):
    """Set f, h, chi and the Dehn-Sommerville and Klee verdicts of an f-vector.

    The void complex (no vertices, f = ()) has none of the derived values.
    """
    if not f:
        entry.update(f=[], h=None, chi=None, dehn_sommerville=None, klee=None)
        return
    d = len(f) - 2
    h = h_vector(f, d)
    chi = euler_characteristic(f)
    ds_all, ds_per = check_dehn_sommerville(h)
    klee_all, klee_per = check_klee(h, chi, d)
    entry["f"] = list(f)
    entry["h"] = list(h)
    entry["chi"] = chi
    entry["dehn_sommerville"] = {"all": ds_all, "per_index": list(ds_per)}
    entry["klee"] = {"all": klee_all, "per_index": list(klee_per)}


def _add_skeleton(entry, instance, g):
    """Set the facts of a clique complex read off its graph g: the edge
    count, the face algebra and gamma, the level test, and the bound report
    of a leveled g with whether it is a potential counterexample."""
    entry["edges"] = g.edge_count
    _add_face_algebra(entry, graph_f_vector(g))
    # gamma exists exactly when h is palindromic
    palindromic = entry["h"] is not None and entry["dehn_sommerville"]["all"]
    entry["gamma"] = list(gamma_vector(entry["h"])) if palindromic else None
    level_d, verdict = detect_level(g)
    entry["leveled"] = {"d": level_d, "verdict": verdict.is_leveled}
    entry["potential_counterexample"] = False
    if verdict.is_leveled and level_d % 2 == 1:
        report = verify_theorem_instance(g, (level_d + 1) // 2, instance=instance)
        entry["report"] = report.to_json_dict()
        entry["potential_counterexample"] = report.potential_counterexample
    elif verdict.is_leveled and level_d >= 2:
        s = level_d // 2
        conj_even = bound_entry(edge_bound_even_conjecture(g.n, s), g.edge_count, STATUS_CONJECTURE)
        entry["report"] = {
            "instance": instance,
            "n": g.n,
            "s": s,
            "edges": g.edge_count,
            "bounds": {"conj_even": conj_even.to_json_dict()},
            "leveled": {"d": level_d, "verdict": True},
            "notes": [] if palindromic else [
                "conjectured bound targets sphere-like instances; this one fails the palindromy test"
            ],
        }


def admit_instance(obj):
    """(g, None) with the graph g whose clique complex is checked, obj
    itself or a flag complex's `support_skeleton()`; or (None, the least
    non-face) for a complex that is not flag.  The one clique budget: each
    join factor of g gets one census capped at CLIQUE_BUDGET, and past it
    BudgetExceeded is raised.  A complex's census runs on the factors of
    its support skeleton, the graph that its flag test, f-vector and level
    test read too, so ambient vertices change no verdict.  It is capped at
    the smaller of `flag_clique_cap` and the budget: past a facet cap below
    the budget the complex is not flag, past the budget it gets the
    graph's error.  The censuses are cached for what follows.
    """
    g = obj if isinstance(obj, Graph) else obj.support_skeleton()
    if g is obj or flag_clique_cap(obj) >= CLIQUE_BUDGET:
        for f, _ in g.join_factors():
            if f.census(CLIQUE_BUDGET) is None:
                raise BudgetExceeded(f"a join factor on {f.n} vertices has more than {CLIQUE_BUDGET} cliques, "
                                     "over the clique budget")
    if g is obj:
        return g, None
    flag_ok, witness = is_flag(obj)
    return (g if flag_ok else None), witness


def check_instance(instance, obj):
    """Full pipeline for one parsed graph or complex, read through
    `admit_instance`, which may raise BudgetExceeded."""
    g, witness = admit_instance(obj)
    if g is obj:
        entry = {"instance": instance, "kind": "graph", "n": obj.n,
                 "flag": {"verdict": True, "note": "clique complex of the graph; flag by construction"}}
    else:
        entry = {"instance": instance, "kind": "complex", "n": obj.n, "facets": len(obj.facets),
                 "flag": {"verdict": True} if g is not None else {"verdict": False, "witness": list(witness)}}
    if g is not None:
        _add_skeleton(entry, instance, g)
        # g's clique complex is the instance's own, so the level test is its pseudomanifold test
        entry["pseudomanifold"] = entry["leveled"]["verdict"]
        if entry["pseudomanifold"] or g is obj:
            return entry
    else:
        # a non-face clique needs an edge, so the complex is not void
        _add_face_algebra(entry, f_vector(obj))
        entry["leveled"] = None
        entry["notes"] = ["not flag: level and bound checks apply to clique complexes only"]
        entry["potential_counterexample"] = False
    # the test that names the witness, for a non-flag complex or a failing one
    pm_ok, pm_witness = is_weak_pseudomanifold(obj, obj.dimension)
    entry["pseudomanifold"] = pm_ok
    if not pm_ok:
        entry["pseudomanifold_witness"] = list(map(str, pm_witness))
    return entry


def _error_entry(instance, stage, message, path, line):
    """An entry for an instance that failed at `stage`: "parse" or "budget"."""
    return {
        "instance": instance,
        "kind": "error",
        "error": {"stage": stage, "message": message, "path": path, "line": line},
    }


def run_corpus_checks(paths):
    """Check every file, isolating failures per file and per instance.

    Returns a list of entry dicts; parse failures and instances over the
    face or the clique budget become entries with kind "error" carrying
    the message and position, and never abort the batch.
    """
    entries = []
    for path in paths:
        try:
            instances = load_instances(path)
        except ParseError as exc:
            entries.append(_error_entry(str(path), "parse", exc.message, exc.path, exc.line))
            continue
        for instance, obj in instances:
            try:
                entries.append(check_instance(instance, obj))
            except BudgetExceeded as exc:
                entries.append(_error_entry(instance, "budget", str(exc), str(path), None))
    return entries


def corpus_summary(entries):
    """Aggregate counts for a corpus run: an entry that is not an error is
    ok or a potential counterexample."""
    errors = counterexamples = equalities = 0
    for e in entries:
        if e["kind"] == "error":
            errors += 1
            continue
        counterexamples += e["potential_counterexample"]
        if "report" in e:
            equalities += sum(b["equality"] for b in e["report"]["bounds"].values())
    return {
        "instances": len(entries),
        "ok": len(entries) - errors - counterexamples,
        "parse_errors": errors,
        "potential_counterexamples": counterexamples,
        "equality_cases": equalities,
    }
