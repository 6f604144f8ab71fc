"""Edge-count bounds, the gamma verdict, and the per-instance report."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from flagstone import (
    InvalidParameter,
    edge_bound_even_conjecture,
    edge_bound_odd,
    edge_lower_bound_odd,
    disjoint_union,
    gamma_check,
    gamma_vector,
    gen_complete_multipartite,
    gen_cycle,
    gen_grid_torus,
    gen_independent,
    gen_join_of_cycles,
    gen_suspension_sphere,
    graph_from_key,
    is_d_leveled,
    join,
    lower_bound_status,
    verify_theorem_instance,
)
from flagstone.search import check_instance
from helpers import read_leveled_table

GOLDEN = Path(__file__).parent / "data" / "golden"


def test_edge_bound_odd_values():
    assert edge_bound_odd(10, 1) == 10  # s=1 collapses to n
    assert edge_bound_odd(10, 2) == 35
    assert edge_bound_odd(12, 3) == 60
    assert edge_bound_odd(11, 2) == Fraction(165, 4)


def test_edge_lower_bound_odd_values():
    assert edge_lower_bound_odd(10, 2) == 34
    assert edge_lower_bound_odd(10, 1) == 10
    assert edge_lower_bound_odd(20, 3) == 9 * 20 - 48


def test_lower_bound_status():
    assert lower_bound_status(1) == "theorem"
    assert lower_bound_status(2) == "theorem"
    assert lower_bound_status(3) == "conjecture"
    assert lower_bound_status(7) == "conjecture"
    assert lower_bound_status(1, connected=False) == "theorem"
    assert lower_bound_status(2, connected=False) == "theorem_if_connected"
    assert lower_bound_status(3, connected=False) == "conjecture"


def test_lower_odd_status_needs_connectivity_at_s2():
    cross = gen_complete_multipartite((2, 2, 2, 2))
    two = disjoint_union(cross, cross)
    assert is_d_leveled(two, 3).is_leveled and not two.is_connected()
    lower = verify_theorem_instance(two, 2).to_json_dict()
    assert lower["bounds"]["lower_odd"] == {
        "value": "64", "holds": False, "equality": False,
        "status": "theorem_if_connected", "slack": "16",
    }
    assert any("proven for connected graphs only" in note for note in lower["notes"])
    # one copy is connected: the bound holds at equality and is a theorem
    one = verify_theorem_instance(cross, 2).to_json_dict()
    assert one["bounds"]["lower_odd"]["status"] == "theorem"
    assert one["bounds"]["lower_odd"]["equality"] is True
    assert not any("connected" in note for note in one["notes"])
    # at s = 1 every leveled graph is a union of cycles with n edges
    cycles = verify_theorem_instance(disjoint_union(gen_cycle(4), gen_cycle(5)), 1).to_json_dict()
    assert cycles["bounds"]["lower_odd"]["status"] == "theorem"
    assert cycles["bounds"]["lower_odd"]["equality"] is True


def test_edge_bound_even_values():
    assert edge_bound_even_conjecture(12, 1) == 30  # 3n - 6
    assert edge_bound_even_conjecture(12, 2) == 55


def test_bounds_are_the_chained_fraction_expressions():
    # each bound is one fraction over 2s; the statements read them as sums
    for s in range(1, 9):
        for n in range(1, 301):
            assert edge_bound_odd(n, s) == Fraction(s - 1, 2 * s) * n * n + n
            assert edge_bound_even_conjecture(n, s) == (
                Fraction(s - 1, 2 * s) * n * n + (1 + Fraction(2, s)) * n - (4 + Fraction(2, s)))


def test_even_bound_equality_family():
    # join of s-1 cycles with a suspended cycle: n = sk+2 and the edge count
    # meets the even-level bound exactly
    for s in (1, 2, 3):
        for k in range(4, 13):
            g = gen_suspension_sphere(k)
            for _ in range(s - 1):
                g = join(gen_cycle(k), g)
            assert g.n == s * k + 2
            assert g.edge_count == edge_bound_even_conjecture(g.n, s)
            if k <= 6:
                assert is_d_leveled(g, 2 * s).is_leveled


def test_even_level_closed_form_meets_the_conjecture_when_s_divides():
    # the suspension of the balanced s-cycle join on n - 2 vertices passes
    # at d = 2s; it meets the even bound exactly when s divides n - 2, and
    # otherwise lies 1/4 under it at s = 2 and 1/3 under it at s = 3
    for s in (1, 2, 3):
        for n in range(4 * s + 2, 7 * s + 3):
            g = join(gen_independent(2), gen_join_of_cycles(s, n - 2))
            assert is_d_leveled(g, 2 * s).is_leveled, (s, n)
            gap = edge_bound_even_conjecture(n, s) - g.edge_count
            assert gap == (0 if (n - 2) % s == 0 else {2: Fraction(1, 4), 3: Fraction(1, 3)}[s]), (s, n)
            entry = check_instance(f"s{s}-n{n}", g)
            assert entry["leveled"] == {"d": 2 * s, "verdict": True}
            conj_even = entry["report"]["bounds"]["conj_even"]
            assert (conj_even["holds"], conj_even["equality"], conj_even["slack"]) == (True, gap == 0, str(gap))


def _palindromic_odd_entries(entries):
    """(n, edges, s, h) of the entries at odd level 2s - 1 with s >= 2 and a
    palindromic h."""
    for e in entries:
        if e.get("leveled") and e["leveled"]["verdict"] and e["leveled"]["d"] % 2 and e["leveled"]["d"] >= 3:
            if e["dehn_sommerville"]["all"]:
                yield e["f"][1], e["f"][2], (e["leveled"]["d"] + 1) // 2, e["h"]


def test_gamma_2_is_the_lower_bound_slack_on_palindromic_instances():
    # gamma_1 and gamma_2 read off h equal gamma_check's closed forms, so
    # edges - edge_lower_bound_odd(n, s) is gamma_2
    golden = json.loads((GOLDEN / "check.json").read_text())["entries"]
    corpus = [check_instance(f"{name}{args}", gen(*args)) for name, gen, args in (
        [("join", gen_join_of_cycles, sn) for sn in ((2, 40), (2, 60), (3, 36), (3, 48), (4, 40))]
        + [("sphere", gen_suspension_sphere, (k,)) for k in (4, 9, 30)]
        + [("cycle", gen_cycle, (k,)) for k in (4, 9)]
        + [("torus", gen_grid_torus, (28, 28))])]
    table = [check_instance(f"{d}-{n}-{key}", graph_from_key(key, n))
             for (d, n), keys in read_leveled_table().items() if d % 2 for key in keys]
    checked = 0
    for entries, expected in ((golden, 1), (corpus, 5), (table, 12 + 5)):
        found = list(_palindromic_odd_entries(entries))
        assert len(found) == expected
        for n, edges, s, h in found:
            assert gamma_vector(h)[1:3] == gamma_check(n, edges, s)[:2], (n, edges, s)
            assert gamma_check(n, edges, s)[1] == edges - edge_lower_bound_odd(n, s)
            checked += 1
    assert checked == 23


def test_parameter_validation():
    with pytest.raises(InvalidParameter):
        edge_bound_odd(0, 1)
    with pytest.raises(InvalidParameter):
        edge_bound_odd(5, 0)
    with pytest.raises(InvalidParameter):
        edge_lower_bound_odd(5, 0)
    with pytest.raises(InvalidParameter):
        edge_bound_even_conjecture(5, 0)
    with pytest.raises(InvalidParameter):
        gamma_check(5, 5, 0)


def test_gamma_check_values():
    assert gamma_check(10, 35, 2) == (2, 1, True)
    assert gamma_check(8, 24, 2) == (0, 0, True)
    # one extra edge on the extremal pair flips the verdict
    assert gamma_check(10, 36, 2) == (2, 2, False)


def test_gamma_check_matches_edge_bound():
    # the gamma inequality is the edge bound in disguise
    rng = random.Random(91)
    for _ in range(300):
        s = rng.randrange(1, 9)
        f0 = rng.randrange(1, 500)
        f1 = rng.randrange(0, f0 * f0 + 1)
        _, _, holds = gamma_check(f0, f1, s)
        assert holds == (f1 <= edge_bound_odd(f0, s))


def test_report_on_extremal_join():
    g = gen_join_of_cycles(2, 10)
    rep = verify_theorem_instance(g, 2, cap=Fraction(1, 2), instance="j")
    assert rep.instance == "j" and rep.n == 10 and rep.edges == 35
    assert rep.leveled and rep.leveled_d == 3
    assert rep.gamma == (2, 1, True)
    up = rep.bounds["thm_odd"]
    assert up.holds and up.equality and up.value == 35 and up.slack == 0
    assert up.status == "theorem"
    lo = rep.bounds["lower_odd"]
    assert lo.holds and not lo.equality and lo.value == 34 and lo.slack == -1
    assert not rep.potential_counterexample
    assert any("k_3 = 50 <=" in note for note in rep.notes)


def test_report_on_cycle():
    rep = verify_theorem_instance(gen_cycle(5), 1)
    assert rep.leveled and rep.leveled_d == 1
    # 1-leveled graphs sit at equality for both bounds
    assert rep.bounds["thm_odd"].equality
    assert rep.bounds["lower_odd"].equality
    assert rep.gamma == (1, 0, True)
    assert any("no cap supplied" in note for note in rep.notes)


def test_report_flags_level_failure():
    g = gen_suspension_sphere(4)  # 2-leveled, not 3
    rep = verify_theorem_instance(g, 2)
    assert not rep.leveled
    assert any("level test failed at d=3" in note for note in rep.notes)
    assert rep.bounds["thm_odd"].holds  # 12 <= 15, reported for reference
    assert not rep.potential_counterexample


def test_report_json_schema():
    rep = verify_theorem_instance(gen_join_of_cycles(2, 10), 2, cap=1)
    d = rep.to_json_dict()
    assert set(d) == {
        "instance", "n", "s", "edges", "bounds", "leveled", "gamma",
        "notes", "potential_counterexample",
    }
    assert set(d["leveled"]) == {"d", "verdict"}
    assert set(d["gamma"]) == {"g1", "g2", "holds"}
    for entry in d["bounds"].values():
        assert set(entry) == {"value", "holds", "equality", "status", "slack"}
        Fraction(entry["value"])  # str-encoded exact rationals
        Fraction(entry["slack"])
    json.dumps(d)


def test_slack_signs():
    rng = random.Random(92)
    for _ in range(30):
        s = rng.randrange(1, 4)
        n = rng.randrange(2 * s + 2, 30)
        g = gen_suspension_sphere(rng.randrange(4, 10))
        rep = verify_theorem_instance(g, s)
        up, lo = rep.bounds["thm_odd"], rep.bounds["lower_odd"]
        assert up.holds == (up.slack >= 0)
        assert lo.holds == (lo.slack <= 0)
        assert up.slack == up.value - rep.edges
        assert lo.slack == lo.value - rep.edges


def test_invalid_report_parameters():
    with pytest.raises(InvalidParameter):
        verify_theorem_instance(gen_cycle(5), 0)
