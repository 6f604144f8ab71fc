"""The value classes compare, hash and print by their fields, as frozen
dataclasses do, and refuse attribute assignment and deletion.  The
records among them are namedtuples; those that normalise or check their
fields do so again in `_replace` and `_make`."""

from fractions import Fraction

import pytest

from flagstone import (
    BoundEntry,
    BoundReport,
    Graph,
    InvalidPartition,
    LeveledVerdict,
    PartitionDiagnostics,
    PartitionWitness,
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
    (PartitionWitness, (2, 0, 1, ((3, 1), (0, 2)), (4,)), (2, 0, 0, ((1, 3), (0, 2)), (4,)), "parts",
     "PartitionWitness(t=2, eta=Fraction(0, 1), C=1, parts=((1, 3), (0, 2)), X=(4,), alpha=None, m=None)"),
    (PartitionDiagnostics, (False, True, False, None, None), (False, True, True, None, None), "excess_ok",
     "PartitionDiagnostics(ok=False, type_ok=True, excess_ok=False, large_ok=None, flat_ok=None, "
     "failure=None)"),
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
    assert g != (2, (0, 0)) and g != SimplicialComplex(2, ((0,), (1,)))
    assert len({g, Graph(2, (0, 0)), Graph(2, (2, 1))}) == 2


def test_partition_records_rebuild_through_their_constructor():
    w = PartitionWitness(2, Fraction(1, 2), 0, ((1, 0), (2, 3)), X=(), alpha=1)
    assert w.parts == ((0, 1), (2, 3)) and type(w.eta) is type(w.alpha) is Fraction
    for made in (w._replace(eta=0, parts=((3, 2), (1, 0)), X=[5, 4]),
                 PartitionWitness._make([2, 0, 0, [[3, 2], [1, 0]], [5, 4], None, None])):
        assert made.parts == ((2, 3), (0, 1)) and made.X == (4, 5)
        assert type(made.eta) is Fraction and made.eta == 0
    with pytest.raises(InvalidPartition, match="^t=3 but 2 parts given$"):
        w._replace(t=3)
    with pytest.raises(InvalidPartition, match="^t=1 but 2 parts given$"):
        PartitionWitness._make([1, 0, 0, ((0,), (1,))])
    for ok in (True, False):
        d = PartitionDiagnostics(ok, ok, ok, None, None)
        assert bool(d) is d.ok is ok
