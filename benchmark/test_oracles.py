"""Tests of the benchmark itself: each oracle accepts the program's real
output and rejects a corrupted one, and the tracer restores what it wraps.

    python -m pytest benchmark/test_oracles.py -q

The output fixtures run the CLI once per workload (about 15 s in all).
"""

import json
import sys

import pytest

import layers
import oracle
import run
import workloads


def test_partition_counts():
    assert [oracle.partitions_min_part(n, 4) for n in range(3, 9)] == [0, 1, 1, 1, 1, 2]
    assert oracle.partitions_min_part(12, 4) == 5  # 12, 8+4, 7+5, 6+6, 4+4+4


def test_level_test_by_definition():
    def leveled(n, edges, d):
        return oracle.is_leveled(oracle.adjacency(n, edges), d)

    assert leveled(5, workloads._cycle(5), 1)
    assert not leveled(3, workloads._cycle(3), 1)
    assert not leveled(3, workloads._cycle(3), 2)
    octahedron = workloads._cycle(4) + [(v, 4 + a) for v in range(4) for a in (0, 1)]
    assert leveled(6, octahedron, 2)
    assert not leveled(6, octahedron[:-1], 2)
    n, edges = workloads._cycle_join([4, 5])
    assert leveled(n, edges, 3) and not leveled(n, edges, 2)
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert not leveled(4, k4, 2) and not leveled(4, k4, 3)
    n, edges, _ = workloads._torus(4, 5)
    assert leveled(n, edges, 2)
    assert oracle.detect_level(oracle.adjacency(4, k4)) == (3, False)
    assert oracle.detect_level(oracle.adjacency(5, workloads._cycle(5))) == (1, True)


def test_closed_forms():
    assert oracle.cycle_join_h([4, 4]) == [1, 4, 6, 4, 1]
    assert oracle.cycle_join_edges([5, 5]) == len(workloads._cycle_join([5, 5])[1]) == 35
    assert oracle.edge_bound_odd(40, 2) == 440
    assert oracle.edge_bound_even(1600, 1) == 4794
    assert oracle.is_union_of_cycles(8, workloads._cycle(4) + workloads._cycle(4, 4), 4)
    assert not oracle.is_union_of_cycles(8, workloads._cycle(8)[:-1], 4)


def test_graph6_encoder():
    # the join of two 5-cycles, as the graph6 standard encodes it
    assert workloads.graph6_line(*workloads._cycle_join([5, 5])) == "Ihf~~vx~G"


def _real_output(workload):
    workload.out.unlink(missing_ok=True)
    code, stdout, *_ = run.invoke(workload.argv, run.child_env(), workload.out.parent)
    return code, stdout, workload.out.read_bytes()


@pytest.fixture(scope="module")
def exhaustive(tmp_path_factory):
    workload = workloads.Exhaustive(0, tmp_path_factory.mktemp("exhaustive"))
    return workload, _real_output(workload)


@pytest.fixture(scope="module")
def walk(tmp_path_factory):
    workload = workloads.Walk(7, tmp_path_factory.mktemp("walk"))
    return workload, _real_output(workload)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    workload = workloads.Corpus(7, tmp_path_factory.mktemp("corpus"))
    return workload, _real_output(workload)


def _edited(payload, edit):
    data = json.loads(payload)
    edit(data)
    return json.dumps(data).encode()


def test_exhaustive_oracle(exhaustive):
    workload, (code, stdout, payload) = exhaustive
    assert workload.check(code, stdout, payload) == workloads.Tally(5, 0, [])

    def wrong_max_edges(data):
        data["per_n"][2]["max_edges"] += 1

    def wrong_class_count(data):
        data["per_n"][4]["leveled_classes"] += 1

    for edit in (wrong_max_edges, wrong_class_count):
        verdict = workload.check(code, stdout, _edited(payload, edit))
        assert (verdict.attempted, verdict.failed) == (5, 1)
    assert workload.check(1, stdout, payload).failed == 5
    assert workload.check(code, stdout, b"{").failed == 5


def test_walk_oracle(walk):
    workload, (code, stdout, payload) = walk
    assert workload.check(code, stdout, payload) == workloads.Tally(21, 0, [])

    def not_leveled(data):
        # swap one edge for a non-edge: same edge count, no longer leveled
        edges = data["per_n"][0]["argmax_edges"]
        present = {tuple(e) for e in edges}
        edges.remove(edges[0])
        edges.append(next([u, v] for u in range(10) for v in range(u + 1, 10) if (u, v) not in present))

    def flipped_bound(data):
        data["per_n"][3]["bound_holds"] = False

    fresh = workloads.Walk(7, workload.out.parent)
    edited = _edited(payload, not_leveled)
    assert fresh.check(code, stdout, edited).failed == 1
    # a second invocation of the same seed must repeat the first byte for byte
    assert fresh.check(code, stdout, payload).failed == 21
    fresh = workloads.Walk(7, workload.out.parent)
    assert fresh.check(1, stdout, _edited(payload, flipped_bound)).failed == 1


def test_corpus_oracle(corpus):
    workload, (code, stdout, payload) = corpus
    verdict = workload.check(code, stdout, payload)
    assert verdict == workloads.Tally(len(workload.expected), 0, [])
    assert 215 <= verdict.attempted <= 225

    def entry(data, name):
        return next(e for e in data["entries"] if e["instance"].endswith(name))

    def join_not_leveled(data):
        entry(data, "join_s3_n48.txt")["leveled"]["verdict"] = False

    def bd4_flag(data):
        entry(data, "bd4.facets")["flag"] = {"verdict": True}

    def torus_palindromic(data):
        entry(data, "torus.facets")["dehn_sommerville"]["all"] = True

    def sphere_gamma(data):
        entry(data, "mixed.g6:1")["gamma"][1] += 1

    def random_leveled(data):
        entry(data, "mixed.g6:200")["leveled"]["verdict"] = True

    def simplex_leveled(data):
        entry(data, "simplex16.facets")["leveled"]["verdict"] = True

    for edit in (join_not_leveled, bd4_flag, torus_palindromic, sphere_gamma, random_leveled,
                 simplex_leveled):
        assert workload.check(code, stdout, _edited(payload, edit)).failed == 1, edit.__name__

    def summary(data):
        data["summary"]["equality_cases"] -= 1

    assert workload.check(code, stdout, _edited(payload, summary)).failed == verdict.attempted
    assert workload.check(2, stdout, payload).failed == verdict.attempted


def test_checker_counts_failed_operations(exhaustive):
    workload, (code, stdout, payload) = exhaustive
    checker = run.Checker(workload)
    workload.out.write_bytes(payload)
    checker(code, stdout)
    workload.out.write_bytes(_edited(payload, lambda data: data["per_n"][1].update(max_edges=5)))
    checker(code, stdout)
    assert (checker.attempted, checker.failed) == (10, 1)


def test_tracer_wraps_every_binding_and_restores_it():
    sys.path.insert(0, str(run.SRC))
    import flagstone.bounds
    import flagstone.search
    from flagstone import Graph

    original = flagstone.search.is_d_leveled
    tracer = layers.Tracer()
    with layers.traced(tracer):
        assert flagstone.bounds.is_d_leveled is flagstone.search.is_d_leveled is not original
        flagstone.search.detect_level(Graph.from_edges(5, workloads._cycle(5)))
    assert flagstone.search.is_d_leveled is original is flagstone.bounds.is_d_leveled
    names = [span[0] for span in tracer.spans]
    assert names == ["kernels.maximal_cliques", "structure.is_d_leveled",
                     "kernels.maximal_cliques", "kernels.leveled_violation"]
    metrics, _ = layers.layer_metrics(tracer.spans)
    assert metrics["structure.is_d_leveled.accept_ratio"] == 1.0
    assert metrics["kernels.maximal_cliques.calls"] == 2


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["b", 5.0, 6.0, 0, None],
             ["kernels.canonical_key", 2.0, 3.0, 1, None],
             ["formats.load_instances", 7.0, 8.0, 0, ("x.g6", 3_000_000)],
             ["formats.load_instances", 8.0, 9.0, 0, None]]  # this call raised
    metrics, profile = layers.layer_metrics(spans)
    assert profile["self_s"] == {"a": 4.0, "b": 3.0, "kernels.canonical_key": 1.0,
                                 "formats.load_instances": 2.0}
    assert metrics["formats.load_instances.mb_per_s"] == 1.5
    assert profile["load_instances_s"] == {"x.g6": 1.0}
