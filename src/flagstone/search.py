"""Exhaustive and randomized searches plus corpus checking.

The exhaustive enumerator walks graphs up to isomorphism by vertex
extension: every class on k+1 vertices arises by attaching a new vertex to
the canonical representative of one of its (k-vertex) deleted subgraphs,
so extending every class on k vertices by every neighborhood mask and
deduplicating on the canonical key visits every class exactly once per
key.  The argument needs only that the kept classes are closed under
deleting a vertex, so any hereditary property can prune during
generation.  A clique-size cap is one (induced subgraphs never gain
cliques).

Given a level d and the largest size n_max, two more prunes apply, both
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
"""

import json
import os
import random
from collections import namedtuple

from . import kernels
from .bounds import (
    edge_bound_even_conjecture,
    edge_bound_odd,
    even_entry,
    verify_theorem_instance,
)
from .complexes import (
    check_dehn_sommerville,
    check_klee,
    euler_characteristic,
    f_vector,
    gamma_vector,
    graph_f_vector,
    h_vector,
)
from .errors import BudgetExceeded, InvalidParameter, NotPalindromic, ParseError
from .formats import load_instances
from .generators import gen_join_of_cycles
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

    def to_json_dict(self):
        return {
            "mode": self.mode,
            "d": self.d,
            "s": self.s,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "seed": self.seed,
            "budget": self.budget,
            "per_n": list(self.per_n),
            "reports": list(self.reports),
            "notes": list(self.notes),
        }

    def to_json_bytes(self):
        return (json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def _extend_chunk(args):
    keys, k, clique_cap, level, n_max = args
    # prune (b): on k+1 vertices every degree must reach 2d - (n_max - (k+1))
    min_degree = 0 if level is None else 2 * level - (n_max - k - 1)
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
            if clique_cap is not None and new_mask:
                nbr_rows = [base[v] & new_mask if (new_mask >> v) & 1 else 0 for v in range(k)]
                if 1 + kernels.clique_number(nbr_rows, k, stop_at=clique_cap) > clique_cap:
                    continue
            rows = list(base) + [new_mask]
            for v in range(k):
                if (new_mask >> v) & 1:
                    rows[v] |= 1 << k
            # prune (a): only d-cliques through the new vertex or inside its
            # neighborhood can have gained a common neighbor
            within = new_mask | 1 << k
            if level is not None and kernels.crowded_link(rows, k + 1, level, within) is not None:
                continue
            out.add(kernels.canonical_key(rows, k + 1))
    return out


def enumerate_classes(n_max, clique_cap=None, workers=1, level=None):
    """Canonical keys of all isomorphism classes, per vertex count.

    Returns {n: sorted key list} for 1 <= n <= n_max, restricted to graphs
    with clique number <= clique_cap when a cap is given.  With a level d,
    only classes that pass prunes (a) and (b) of the module docstring are
    kept; every d-leveled class on at most n_max vertices is among them.
    The pool holds at most one worker per CPU, as a forking pool starts
    all of its workers at once.
    """
    workers = min(workers, os.cpu_count() or 1)
    levels = {1: [0]}
    for k in range(1, n_max):
        keys = levels[k]
        if workers > 1 and len(keys) > workers:
            from concurrent.futures import ProcessPoolExecutor

            chunks = [(keys[i::workers], k, clique_cap, level, n_max) for i in range(workers)]
            merged = set()
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for part in pool.map(_extend_chunk, chunks):
                    merged |= part
        else:
            merged = _extend_chunk((keys, k, clique_cap, level, n_max))
        levels[k + 1] = sorted(merged)
    return levels


def graph_from_key(key, n):
    return Graph(n, tuple(kernels.key_to_masks(key, n)))


def _bound_for(n, d, s):
    return edge_bound_odd(n, s) if d % 2 else edge_bound_even_conjecture(n, s)


def _extremal_entry(cfg, s, n, best, **counts):
    """The per-n entry of a search around its chosen extremal graph `best`
    (None when nothing on n vertices passed the level test), with the
    mode's counts, and the odd-level report of `best` or None."""
    bound = _bound_for(n, cfg.d, s)
    entry = {"n": n, **counts, "max_edges": None, "argmax_edges": None,
             "bound": str(bound), "bound_holds": None}
    if best is None:
        return entry, None
    entry["max_edges"] = best.edge_count
    entry["argmax_edges"] = [[u, v] for u, v in best.edges()]
    entry["bound_holds"] = best.edge_count <= bound
    if cfg.d % 2 == 0:
        return entry, None
    return entry, verify_theorem_instance(best, s, instance=f"{cfg.mode}:n={n}").to_json_dict()


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
    s = cfg.s_effective
    levels = enumerate_classes(cfg.n_max, workers=cfg.workers, level=cfg.d)
    per_n = []
    reports = []
    for n in range(cfg.n_min, cfg.n_max + 1):
        found = {}
        for key in levels[n]:
            g = graph_from_key(key, n)
            if is_d_leveled(g, cfg.d).is_leveled:
                found[key] = g
        # a key's bits are the graph's edges; ties go to the least key
        best = found[min(found, key=lambda key: (-key.bit_count(), key))] if found else None
        entry, report = _extremal_entry(
            cfg, s, n, best, classes_visited=len(levels[n]), leveled_classes=len(found)
        )
        per_n.append(entry)
        if report is not None:
            reports.append(report)
    notes = (
        f"exhaustive over all isomorphism classes with clique number <= {cfg.d + 1}, "
        f"n in [{cfg.n_min}, {cfg.n_max}]; no claim beyond this range",
    )
    return SearchResult(
        mode="exhaustive",
        d=cfg.d,
        s=s,
        n_min=cfg.n_min,
        n_max=cfg.n_max,
        seed=cfg.seed,
        budget=cfg.budget,
        per_n=tuple(per_n),
        reports=tuple(reports),
        notes=notes,
    )


def _move_lists(g):
    """Edges and non-edges of g, each as sorted (u, v) pairs with u < v."""
    non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    return g.edges(), non_edges


def _swap(g, drop, add, d):
    """g with the edge `drop` replaced by the non-edge `add` when the result
    passes the level test at d, else None.

    A d-clique whose common neighborhood is not two nonadjacent vertices
    fails the level test wherever it sits, so the link kernel rejects most
    swaps on the edited rows; only a swap it lets through becomes a Graph
    and goes through the full test.
    """
    rows = list(g.masks)
    (a, b), (u, v) = drop, add
    rows[a] &= ~(1 << b)
    rows[b] &= ~(1 << a)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    if kernels.leveled_violation(rows, g.n, d) is not None:
        return None
    candidate = Graph(g.n, tuple(rows))
    return candidate if is_d_leveled(candidate, d).is_leveled else None


def _random_moves(g, rng, d, budget):
    """Walk by single edge swaps, staying on graphs that pass the level test."""
    found = []
    current = g
    edges, non_edges = _move_lists(current)
    for _ in range(budget):
        if not edges or not non_edges:
            break
        drop = edges[rng.randrange(len(edges))]
        add = non_edges[rng.randrange(len(non_edges))]
        candidate = _swap(current, drop, add, d)
        if candidate is not None:
            found.append(candidate)
            current = candidate
            edges, non_edges = _move_lists(current)
    return found


def random_search(cfg):
    """Seeded local search around balanced cycle joins; reproducible."""
    if cfg.mode != "random":
        raise InvalidParameter("config is not in random mode")
    s = cfg.s_effective
    per_n = []
    reports = []
    notes = [
        f"random local search, seed={cfg.seed}, budget={cfg.budget} moves per n; "
        "findings are samples, not exhaustive claims",
    ]
    if cfg.budget > 0:
        for n in range(cfg.n_min, cfg.n_max + 1):
            if n < 4 * s:
                notes.append(f"n={n} skipped: below the smallest {s}-cycle-join size {4 * s}")
                continue
            rng = random.Random(1000003 * cfg.seed + n)
            base = gen_join_of_cycles(s, n)
            candidates = [base] if is_d_leveled(base, cfg.d).is_leveled else []
            candidates += _random_moves(base, rng, cfg.d, cfg.budget)
            # max keeps the first of the tied graphs in walk order
            best = max(candidates, key=lambda g: g.edge_count) if candidates else None
            entry, report = _extremal_entry(cfg, s, n, best, candidates_found=len(candidates))
            per_n.append(entry)
            if report is not None:
                reports.append(report)
    return SearchResult(
        mode="random",
        d=cfg.d,
        s=s,
        n_min=cfg.n_min,
        n_max=cfg.n_max,
        seed=cfg.seed,
        budget=cfg.budget,
        per_n=tuple(per_n),
        reports=tuple(reports),
        notes=tuple(notes),
    )


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


def _graph_entry(instance, g):
    entry = {"instance": instance, "kind": "graph", "n": g.n, "edges": g.edge_count}
    entry["flag"] = {"verdict": True, "note": "clique complex of the graph; flag by construction"}
    _add_face_algebra(entry, graph_f_vector(g))
    try:
        entry["gamma"] = None if entry["h"] is None else list(gamma_vector(entry["h"]))
    except NotPalindromic:
        entry["gamma"] = None
    level_d, verdict = detect_level(g)
    entry["leveled"] = {"d": level_d, "verdict": verdict.is_leveled}
    entry["pseudomanifold"] = verdict.is_leveled
    entry["potential_counterexample"] = False
    if verdict.is_leveled and level_d % 2 == 1:
        s = (level_d + 1) // 2
        report = verify_theorem_instance(g, s, instance=instance)
        entry["report"] = report.to_json_dict()
        entry["potential_counterexample"] = report.potential_counterexample
    elif verdict.is_leveled and level_d >= 2:
        s = level_d // 2
        note = None
        if not entry["dehn_sommerville"]["all"]:
            note = "conjectured bound targets sphere-like instances; this one fails the palindromy test"
        entry["report"] = {
            "instance": instance,
            "n": g.n,
            "s": s,
            "edges": g.edge_count,
            "bounds": {"conj_even": even_entry(g.n, s, g.edge_count).to_json_dict()},
            "leveled": {"d": level_d, "verdict": True},
            "notes": [note] if note else [],
        }
    return entry


def check_instance(instance, obj):
    """Full pipeline for one parsed graph or complex."""
    if isinstance(obj, Graph):
        return _graph_entry(instance, obj)
    flag_ok, witness = is_flag(obj)
    if flag_ok:
        entry = _graph_entry(instance, obj.support_skeleton())
        entry["flag"] = {"verdict": True}
    else:
        # a non-face clique needs an edge, so the complex is not void
        entry = {"instance": instance, "flag": {"verdict": False, "witness": list(witness)}}
        _add_face_algebra(entry, f_vector(obj))
        entry["leveled"] = None
        entry["notes"] = ["not flag: level and bound checks apply to clique complexes only"]
        entry["potential_counterexample"] = False
    entry.update(kind="complex", n=obj.n, facets=len(obj.facets))
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

    Returns a list of entry dicts; parse failures, and complexes whose faces
    would pass the face budget, become entries with kind "error" carrying
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
    """Aggregate counts for a corpus run."""
    ok = sum(
        1
        for e in entries
        if e["kind"] != "error" and not e.get("potential_counterexample")
    )
    errors = sum(1 for e in entries if e["kind"] == "error")
    counterexamples = sum(1 for e in entries if e.get("potential_counterexample"))
    equalities = 0
    for e in entries:
        report = e.get("report")
        if report:
            equalities += sum(1 for b in report["bounds"].values() if b.get("equality"))
    return {
        "instances": len(entries),
        "ok": ok,
        "parse_errors": errors,
        "potential_counterexamples": counterexamples,
        "equality_cases": equalities,
    }
