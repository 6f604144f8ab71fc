"""The value classes compare, hash and print by their fields, as the frozen
dataclasses they replaced did, and refuse attribute assignment."""

from fractions import Fraction

import pytest

from flagstone import (
    BoundEntry,
    BoundReport,
    Graph,
    LeveledVerdict,
    SearchConfig,
    SearchResult,
    SimplicialComplex,
)

ENTRY = BoundEntry(Fraction(5), True, True, "theorem", Fraction(0))

# (constructor, arguments, other arguments, field, repr of the first)
CASES = [
    (Graph, (2, (0, 0)), (2, (2, 1)), "n", "Graph(n=2, masks=(0, 0))"),
    (SimplicialComplex, (3, ((0, 1), (1, 2))), (3, ((0, 1, 2),)), "facets",
     "SimplicialComplex(n=3, facets=((0, 1), (1, 2)))"),
    (LeveledVerdict, (True, 0), (False, 0, ("empty",)), "witness",
     "LeveledVerdict(is_leveled=True, d=0, witness=None)"),
    (BoundEntry, (Fraction(1, 2), True, False, "theorem", Fraction(0)),
     (Fraction(1, 2), False, False, "theorem", Fraction(0)), "holds",
     "BoundEntry(value=Fraction(1, 2), holds=True, equality=False, status='theorem', "
     "slack=Fraction(0, 1))"),
    (BoundReport, ("c5", 5, 1, 5, {"thm_odd": ENTRY}, 1, True, (1, 0, True), (), False),
     ("c5", 5, 1, 5, {}, 1, True, (1, 0, True), (), False), "n",
     "BoundReport(instance='c5', n=5, s=1, edges=5, bounds={'thm_odd': BoundEntry("
     "value=Fraction(5, 1), holds=True, equality=True, status='theorem', slack=Fraction(0, 1))}, "
     "leveled_d=1, leveled=True, gamma=(1, 0, True), notes=(), potential_counterexample=False)"),
    (SearchConfig, ("exhaustive", 1, 3, 7), ("exhaustive", 1, 3, 8), "budget",
     "SearchConfig(mode='exhaustive', d=1, n_min=3, n_max=7, seed=None, workers=1, "
     "budget=1000, allow_huge=False)"),
    (SearchResult, ("random", 3, 2, 8, 8, 1, 0, (), (), ("note",)),
     ("random", 3, 2, 8, 8, 2, 0, (), (), ("note",)), "seed",
     "SearchResult(mode='random', d=3, s=2, n_min=8, n_max=8, seed=1, budget=0, per_n=(), "
     "reports=(), notes=('note',))"),
]


@pytest.mark.parametrize("cls, args, other, field, text", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, args, other, field, text):
    value = cls(*args)
    assert value == cls(*args) and not value != cls(*args)
    assert value != cls(*other)
    if cls is not BoundReport:  # its bounds are a dict, so it has no hash
        assert hash(value) == hash(cls(*args))
    assert repr(value) == text
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


def test_graph_is_equal_only_to_graphs():
    g = Graph(2, (0, 0))
    assert g != (2, (0, 0)) and g != SimplicialComplex(2, (0, 0))
    assert len({g, Graph(2, (0, 0)), Graph(2, (2, 1))}) == 2
