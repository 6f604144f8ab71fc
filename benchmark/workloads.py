"""The three benchmark workloads: their CLI arguments, their generated
inputs and the oracle that checks each invocation's output.

A workload is built from the benchmark's seed and a scratch directory.  The
program sees only the argument list and the files written there.  `check`
takes one invocation's exit code, standard output and output file and
returns a Tally of operations attempted and failed: one operation per n for
the searches, one per instance for `check`.  An invocation whose exit code
or output as a whole is wrong fails every one of its operations.
"""

import json
import random
from dataclasses import dataclass, field
from itertools import combinations

import oracle


class Mismatch(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


@dataclass
class Tally:
    attempted: int
    failed: int
    problems: list = field(default_factory=list)


def tally(ops, whole, one):
    """Run whole() once, then one(op) per op; any exception fails the op.

    The output under test is untrusted, so a KeyError or TypeError from a
    malformed payload is a failed check like any Mismatch.
    """
    try:
        whole()
    except Exception as exc:
        return Tally(len(ops), len(ops), [f"invocation: {exc!r}"])
    problems = []
    for op in ops:
        try:
            one(op)
        except Exception as exc:
            problems.append(f"{op}: {exc!r}")
    return Tally(len(ops), len(problems), problems)


def _edges(entry, n):
    edges = [tuple(e) for e in entry["argmax_edges"]]
    expect(oracle.is_edge_list(n, edges), "argmax_edges is not a simple edge list")
    expect(len(edges) == entry["max_edges"], "argmax_edges disagrees with max_edges")
    return edges


class Exhaustive:
    """`search --mode exhaustive --d 1 --n 3..7`, about 0.5 s in pure Python.

    Why: canonical labelling dominates the search, and the level
    test and the odd-level bound reports run on every class.  The answer has
    a closed form, so the oracle costs nothing: the leveled classes on n
    vertices are the disjoint unions of cycles of length >= 4, counted by the
    partitions of n into parts >= 4, each with n edges.  `classes_enumerated`
    is deliberately not pinned, because pruning changes what is visited.
    n <= 8 (about 5 s) leaves too few invocations in a run for a steady
    median, d=3 with n <= 8 (64 s) is too slow to repeat, and d=3 with
    n <= 7 finds no leveled class.  The seed is recorded but unused.
    """

    name = "exhaustive"
    N_MIN, N_MAX = 3, 7

    def __init__(self, seed, workdir):
        self.out = workdir / "exhaustive.json"
        self.argv = ["search", "--mode", "exhaustive", "--d", "1",
                     "--n", f"{self.N_MIN}..{self.N_MAX}", "--out", str(self.out)]

    def check(self, code, stdout, payload):
        ops = list(range(self.N_MIN, self.N_MAX + 1))
        state = {}

        def whole():
            expect(code == 0, f"exit code {code}")
            data = json.loads(payload)
            expect((data["mode"], data["d"], data["n_min"], data["n_max"])
                   == ("exhaustive", 1, self.N_MIN, self.N_MAX), "wrong search header")
            expect(len(stdout.splitlines()) == len(ops), "one stdout line per n expected")
            state["per_n"] = {e["n"]: e for e in data["per_n"]}
            state["reports"] = {r["instance"]: r for r in data["reports"]}

        def one(n):
            entry = state["per_n"][n]
            classes = oracle.partitions_min_part(n, 4)
            expect(entry["leveled_classes"] == classes, f"leveled_classes {entry['leveled_classes']} != {classes}")
            expect(entry["bound"] == str(oracle.edge_bound_odd(n, 1)), "bound")
            if not classes:
                expect(entry["max_edges"] is None and entry["bound_holds"] is None, "empty n has no argmax")
                return
            expect(entry["max_edges"] == n, f"max_edges {entry['max_edges']} != {n}")
            expect(entry["bound_holds"] is True, "bound_holds")
            expect(oracle.is_union_of_cycles(n, _edges(entry, n), 4), "argmax is not a union of cycles >= 4")
            report = state["reports"][f"exhaustive:n={n}"]
            expect(report["leveled"] == {"d": 1, "verdict": True}, "report level verdict")
            expect(report["bounds"]["thm_odd"]["equality"] and report["bounds"]["lower_odd"]["equality"],
                   "a union of cycles meets both odd bounds")

        return tally(ops, whole, one)


class Walk:
    """`search --mode random --d 3 --n 10..30 --seed <seed> --budget 100`,
    about 1 s.

    Why: no canonical labelling at all; the time splits between move
    generation and level-test rejections on dense graphs of up to 30
    vertices, the opposite use of the level-test layer from `corpus`.  The
    oracle level-tests each argmax graph by definition, recomputes each
    bound with Fraction, and requires byte-identical payloads for one seed.
    A budget of 500 (about 5 s) runs the same code five times longer and
    leaves too few invocations in a run for a steady median.
    """

    name = "walk"
    N_MIN, N_MAX, D, S = 10, 30, 3, 2
    BUDGET = 100

    def __init__(self, seed, workdir):
        self.out = workdir / "walk.json"
        self.argv = ["search", "--mode", "random", "--d", str(self.D),
                     "--n", f"{self.N_MIN}..{self.N_MAX}", "--seed", str(seed),
                     "--budget", str(self.BUDGET), "--out", str(self.out)]
        self.reference = None

    def check(self, code, stdout, payload):
        ops = list(range(self.N_MIN, self.N_MAX + 1))
        state = {}

        def whole():
            if self.reference is None:
                self.reference = payload
            expect(payload == self.reference, "payload differs from the first one for this seed")
            data = json.loads(payload)
            per_n = data["per_n"]
            expect(code == (1 if any(e["bound_holds"] is False for e in per_n) else 0), f"exit code {code}")
            expect(len(stdout.splitlines()) == len(ops), "one stdout line per n expected")
            state["per_n"] = {e["n"]: e for e in per_n}
            state["reports"] = {r["instance"]: r for r in data["reports"]}

        def one(n):
            entry = state["per_n"][n]
            bound = oracle.edge_bound_odd(n, self.S)
            expect(entry["bound"] == str(bound), f"bound {entry['bound']} != {bound}")
            expect(entry["candidates_found"] >= 1, "the starting join is leveled")
            edges = _edges(entry, n)
            join_edges = oracle.cycle_join_edges(oracle.balanced_sizes(self.S, n))
            expect(entry["max_edges"] >= join_edges, "argmax has fewer edges than the starting join")
            expect(entry["bound_holds"] is (entry["max_edges"] <= bound), "bound_holds")
            expect(oracle.is_leveled(oracle.adjacency(n, edges), self.D), "argmax fails the level test")
            report = state["reports"][f"random:n={n}"]
            expect(report["leveled"] == {"d": self.D, "verdict": True}, "report level verdict")
            expect(report["bounds"]["thm_odd"]["value"] == str(bound), "report bound")
            expect(report["bounds"]["thm_odd"]["holds"] is entry["bound_holds"], "report holds")

        return tally(ops, whole, one)


def _relabel(n, edges, rng):
    perm = rng.sample(range(n), n)
    return sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def _cycle(k, offset=0):
    return [(offset + i, offset + (i + 1) % k) for i in range(k)]


def _cycle_join(sizes):
    edges, start = [], 0
    for k in sizes:
        edges += _cycle(k, start)
        start += k
    n = sum(sizes)
    block = [b for b, k in enumerate(sizes) for _ in range(k)]
    edges += [(u, v) for u in range(n) for v in range(u + 1, n) if block[u] != block[v]]
    return n, edges


def _torus(p, q):
    def v(i, j):
        return (i % p) * q + j % q
    triangles = []
    for i in range(p):
        for j in range(q):
            triangles.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            triangles.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    edges = {tuple(sorted(e)) for t in triangles for e in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))}
    return p * q, sorted(edges), triangles


def edge_list_text(n, edges):
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def facet_list_text(n, facets):
    return "".join([f"{n} {len(facets)}\n"] + [" ".join(map(str, f)) + "\n" for f in facets])


def graph6_line(n, edges):
    """graph6 for n <= 62: chr(63+n), then the upper triangle column by column in 6-bit groups."""
    present = {(min(e), max(e)) for e in edges}
    bits = [int((i, j) in present) for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = (bits[k:k + 6] for k in range(0, len(bits), 6))
    return chr(63 + n) + "".join(chr(63 + int("".join(map(str, g)), 2)) for g in groups)


def _graph_basics(entry, n, edges, d, leveled):
    expect(entry["n"] == n, f"n {entry['n']} != {n}")
    expect(entry["edges"] == edges, f"edges {entry['edges']} != {edges}")
    expect(entry["leveled"] == {"d": d, "verdict": leveled}, f"leveled {entry['leveled']}")
    expect(entry["pseudomanifold"] is leveled, "pseudomanifold")
    expect(entry["potential_counterexample"] is False, "potential_counterexample")


def _bound(entry, name, value, holds, equality, status):
    b = entry["report"]["bounds"][name]
    expect(b["value"] == str(value), f"{name} value {b['value']} != {value}")
    expect((b["holds"], b["equality"], b["status"]) == (holds, equality, status),
           f"{name} verdict {b['holds']}, {b['equality']}, {b['status']}")


def expect_cycle_join(s, sizes):
    n, edges, d = sum(sizes), oracle.cycle_join_edges(sizes), 2 * s - 1
    upper, lower = oracle.edge_bound_odd(n, s), oracle.edge_lower_bound_odd(n, s)

    def check(entry):
        expect(entry["kind"] == "graph", "kind")
        _graph_basics(entry, n, edges, d, True)
        expect(entry["dehn_sommerville"]["all"] is True, "join h is palindromic")
        expect(entry["h"] == oracle.cycle_join_h(sizes), f"h {entry['h']}")
        _bound(entry, "thm_odd", upper, True, upper == edges, "theorem")
        expect(entry["report"]["bounds"]["lower_odd"]["equality"] is (lower == edges), "lower_odd equality")
    return check, (upper == edges) + (lower == edges)


def expect_torus(n, facets=None):
    def check(entry):
        if facets is None:
            expect(entry["kind"] == "graph", "kind")
        else:
            expect((entry["kind"], entry["facets"], entry["flag"]["verdict"]) == ("complex", facets, True),
                   "torus complex is flag with all its facets")
        _graph_basics(entry, n, 3 * n, 2, True)
        expect(entry["h"] == [1, n - 3, n + 3, -1], f"h {entry['h']}")
        expect(entry["dehn_sommerville"]["all"] is False, "torus h is not palindromic")
        _bound(entry, "conj_even", oracle.edge_bound_even(n, 1), False, False, "conjecture")
        expect(entry["report"]["notes"], "the failed palindromy is noted")
    return check, 0


def expect_sphere(k):
    def check(entry):
        _graph_basics(entry, k + 2, 3 * k, 2, True)
        expect(entry["h"] == [1, k - 1, k - 1, 1] and entry["dehn_sommerville"]["all"] is True, "sphere h")
        expect(entry["gamma"] == [1, k - 4], f"gamma {entry['gamma']}")
        _bound(entry, "conj_even", oracle.edge_bound_even(k + 2, 1), True, True, "conjecture")
    return check, 1


def expect_cycle(k):
    def check(entry):
        _graph_basics(entry, k, k, 1, True)
        expect(entry["h"] == [1, k - 2, 1] and entry["dehn_sommerville"]["all"] is True, "cycle h")
        _bound(entry, "thm_odd", k, True, True, "theorem")
        _bound(entry, "lower_odd", k, True, True, "theorem")
    return check, 2


def expect_random(n, edges, d):
    def check(entry):
        expect(entry["kind"] == "graph", "kind")
        _graph_basics(entry, n, edges, d, False)
    return check, 0


def expect_simplex(dim):
    def check(entry):
        expect((entry["kind"], entry["facets"], entry["flag"]["verdict"]) == ("complex", 1, True), "simplex is flag")
        expect(entry["n"] == dim + 1 and entry["leveled"] == {"d": dim, "verdict": False}, "simplex is not leveled")
        expect(entry["pseudomanifold"] is False, "pseudomanifold")
        expect(entry["f"] == oracle.simplex_f(dim), "f")
        expect(entry["h"] == [1] + [0] * (dim + 1), "h")
    return check, 0


def expect_boundary_of_simplex(dim):
    def check(entry):
        expect((entry["kind"], entry["n"], entry["facets"]) == ("complex", dim + 1, dim + 1), "shape")
        expect(entry["flag"] == {"verdict": False, "witness": list(range(dim + 1))}, f"flag {entry['flag']}")
        expect(entry["f"] == oracle.simplex_f(dim)[:-1], "f")
        expect(entry["h"] == [1] * (dim + 1) and entry["dehn_sommerville"]["all"] is True, "h")
        expect(entry["leveled"] is None and entry["pseudomanifold"] is True, "verdicts")
        expect(entry["potential_counterexample"] is False, "potential_counterexample")
    return check, 0


class Corpus:
    """`check <files> --json <out>` over a corpus generated from the seed.

    Why: the only workload that parses files, builds complexes, runs
    `is_flag`, and level-tests a huge accepted graph (the 784-vertex torus,
    past every 64-bit kernel).  The corpus holds the 28x28 grid torus as a
    facet list and as an edge list, five balanced cycle joins, one graph6
    file of suspension spheres and cycles for k = 4..59 plus 100 G(n, 0.3)
    graphs, the boundary of the 4-simplex (not flag) and one 16-dimensional
    simplex facet.  The seed only relabels vertices and draws the random
    graphs.  Every family has closed-form verdicts; the random graphs are
    level-tested by definition.  About 2 s, 40% of it parsing the torus
    facets; the 40x40 torus (about 4.5 s, its quadratic facet parse alone
    3-4 s) leaves too few invocations in a run for a steady median.
    """

    name = "corpus"
    TORUS = 28
    JOINS = ((2, 40), (2, 60), (3, 36), (3, 48), (4, 40))
    RANDOM_GRAPHS = 100

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.out = workdir / "corpus.json"
        self.expected = {}
        files = []

        def write(name, text, expectation=None):
            path = workdir / name
            path.write_text(text, encoding="ascii")
            files.append(str(path))
            if expectation:
                self.expected[str(path)] = expectation

        n, edges, triangles = _torus(self.TORUS, self.TORUS)
        perm = rng.sample(range(n), n)
        facets = sorted(tuple(sorted(perm[v] for v in t)) for t in triangles)
        write("torus.facets", facet_list_text(n, facets), expect_torus(n, len(facets)))
        write("torus.txt", edge_list_text(n, _relabel(n, edges, rng)), expect_torus(n))
        for s, n in self.JOINS:
            sizes = oracle.balanced_sizes(s, n)
            _, edges = _cycle_join(sizes)
            write(f"join_s{s}_n{n}.txt", edge_list_text(n, _relabel(n, edges, rng)), expect_cycle_join(s, sizes))

        lines, line_expect = [], []
        for k in range(4, 60):
            sphere = _cycle(k) + [(v, k + a) for v in range(k) for a in (0, 1)]
            lines.append(graph6_line(k + 2, _relabel(k + 2, sphere, rng)))
            line_expect.append(expect_sphere(k))
            lines.append(graph6_line(k, _relabel(k, _cycle(k), rng)))
            line_expect.append(expect_cycle(k))
        for _ in range(self.RANDOM_GRAPHS):
            while True:
                n = rng.randint(8, 39)
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
                d, leveled = oracle.detect_level(oracle.adjacency(n, edges))
                if not leveled:  # a leveled draw would need bound expectations
                    break
            lines.append(graph6_line(n, edges))
            line_expect.append(expect_random(n, len(edges), d))
        write("mixed.g6", "".join(line + "\n" for line in lines))
        for i, expectation in enumerate(line_expect):
            self.expected[f"{files[-1]}:{i + 1}"] = expectation

        write("bd4.facets", facet_list_text(5, list(combinations(range(5), 4))), expect_boundary_of_simplex(4))
        write("simplex16.facets", facet_list_text(17, [tuple(range(17))]), expect_simplex(16))

        self.argv = ["check", *files, "--json", str(self.out)]
        total = len(self.expected)
        equalities = sum(eq for _, eq in self.expected.values())
        self.summary = {"instances": total, "ok": total, "parse_errors": 0,
                        "potential_counterexamples": 0, "equality_cases": equalities}
        self.summary_line = (f"checked {total} instance(s): {total} ok, 0 parse error(s), "
                             f"0 potential counterexample(s), {equalities} bound equality case(s)")

    def check(self, code, stdout, payload):
        ops = list(self.expected)
        state = {}

        def whole():
            expect(code == 0, f"exit code {code}")
            data = json.loads(payload)
            expect(data["summary"] == self.summary, f"summary {data['summary']}")
            expect(stdout.splitlines()[-1] == self.summary_line, "summary line")
            entries = {e["instance"]: e for e in data["entries"]}
            expect(len(entries) == len(data["entries"]) == len(ops), "one entry per instance")
            state["entries"] = entries

        def one(instance):
            self.expected[instance][0](state["entries"][instance])

        return tally(ops, whole, one)


WORKLOADS = {w.name: w for w in (Exhaustive, Walk, Corpus)}
