"""Edge-count bounds, the gamma-inequality, and per-instance reports.

Every bound evaluates to an exact Fraction and every verdict is an exact
comparison.  Bounds carry a status tag: "theorem" for statements with a
proof (possibly only for large n; see the notes emitted per report),
"conjecture" for open ones, and "theorem_if_connected" for a lower bound
whose proof needs a connected graph, reported on a disconnected one.
Reports never present a conjecture failure as an error, and a
level-verified instance beating a theorem-status bound is flagged as a
potential counterexample, not as a refutation: the proven statements are
asymptotic, so a finite instance can at most be a candidate.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import InvalidParameter
from .structure import is_d_leveled

STATUS_THEOREM = "theorem"
STATUS_CONJECTURE = "conjecture"
STATUS_IF_CONNECTED = "theorem_if_connected"


def edge_bound_odd(n, s):
    """Upper bound ((s-1)/2s) n^2 + n for graphs passing the level test at
    2s-1, as one fraction ((s-1) n^2 + 2s n) / 2s."""
    if s < 1 or n < 1:
        raise InvalidParameter("need s >= 1 and n >= 1")
    return Fraction((s - 1) * n * n + 2 * s * n, 2 * s)


def edge_lower_bound_odd(n, s):
    """Lower bound (4s-3) n - 8s(s-1); conjectural for s >= 3."""
    if s < 1:
        raise InvalidParameter("need s >= 1")
    return Fraction((4 * s - 3) * n - 8 * s * (s - 1))


def lower_bound_status(s, connected=True):
    """Status of the lower bound at s.  At s = 1 every graph passing the
    level test has exactly n edges, so it holds outright; at s = 2 the
    proof needs a connected graph (two disjoint copies of K_{2,2,2,2} pass
    at level 3 with 48 edges, under the value 64)."""
    if s >= 3:
        return STATUS_CONJECTURE
    return STATUS_THEOREM if s == 1 or connected else STATUS_IF_CONNECTED


def edge_bound_even_conjecture(n, s):
    """Conjectured upper bound ((s-1)/2s) n^2 + (1+2/s) n - (4+2/s) for
    sphere-like instances at even level 2s, as one fraction
    ((s-1) n^2 + 2(s+2) n - 4(2s+1)) / 2s."""
    if s < 1:
        raise InvalidParameter("need s >= 1")
    return Fraction((s - 1) * n * n + 2 * (s + 2) * n - 4 * (2 * s + 1), 2 * s)


def gamma_check(f0, f1, s):
    """Closed-form gamma entries and the verdict gamma_2 <= ((s-1)/2s) gamma_1^2.

    gamma_1 = f0 - 4s and gamma_2 = f1 - (4s-3) f0 + 8s(s-1); the verdict
    is compared by cross-multiplication, so everything stays integral.
    The inequality is algebraically the same statement as f1 <=
    edge_bound_odd(f0, s); the test suite pins that equivalence.
    """
    if s < 1:
        raise InvalidParameter("need s >= 1")
    g1 = f0 - 4 * s
    g2 = f1 - (4 * s - 3) * f0 + 8 * s * (s - 1)
    holds = 2 * s * g2 <= (s - 1) * g1 * g1
    return g1, g2, holds


class BoundEntry(namedtuple("BoundEntry", "value holds equality status slack")):
    # slack = value - quantity: >= 0 when an upper bound holds, <= 0 when a
    # lower bound does, 0 exactly at equality
    __slots__ = ()

    def to_json_dict(self):
        return {
            "value": str(self.value),
            "holds": self.holds,
            "equality": self.equality,
            "status": self.status,
            "slack": str(self.slack),
        }


class BoundReport(namedtuple(
    "BoundReport",
    "instance n s edges bounds leveled_d leveled gamma notes potential_counterexample",
)):
    """Everything checked about one instance, JSON-serializable."""

    __slots__ = ()

    def to_json_dict(self):
        return {
            "instance": self.instance,
            "n": self.n,
            "s": self.s,
            "edges": self.edges,
            "bounds": {name: entry.to_json_dict() for name, entry in sorted(self.bounds.items())},
            "leveled": {"d": self.leveled_d, "verdict": self.leveled},
            "gamma": {"g1": self.gamma[0], "g2": self.gamma[1], "holds": self.gamma[2]},
            "notes": list(self.notes),
            "potential_counterexample": self.potential_counterexample,
        }


def bound_entry(value, edges, status, upper=True):
    """The BoundEntry of an edge count against an upper bound, or a lower
    one when upper is False."""
    slack = value - edges
    return BoundEntry(value, slack >= 0 if upper else slack <= 0, slack == 0, status, slack)


def verify_theorem_instance(g, s, cap=None, instance="graph"):
    """Full odd-level report: level verdict, clique-count hypothesis, both
    edge bounds, and the gamma quantities.

    cap, when given, is the constant of the clique-count hypothesis
    k_(s+1) <= cap * n^s; the report records whether the instance satisfies
    it.  A level-verified instance exceeding the upper bound sets
    potential_counterexample.  The report never asserts the asymptotic
    statement itself: the bound is proven only for all sufficiently large
    n, with a nonconstructive threshold, so finite instances can only
    corroborate it or surface candidates.
    """
    if s < 1:
        raise InvalidParameter("need s >= 1")
    d = 2 * s - 1
    n, edges = g.n, g.edge_count
    verdict = is_d_leveled(g, d)
    notes = [
        "upper bound proven only for n large (nonconstructive threshold); "
        "verdicts at this n corroborate or contradict the finite-n question only",
    ]
    k = g.clique_count(s + 1)
    if cap is not None:
        cap = Fraction(cap)
        hyp = Fraction(k) <= cap * Fraction(n) ** s
        notes.append(
            f"clique hypothesis k_{s + 1} = {k} {'<=' if hyp else '>'} {cap} * n^{s}"
        )
    else:
        notes.append(f"clique count k_{s + 1} = {k}; no cap supplied")
    if not verdict.is_leveled:
        notes.append(f"level test failed at d={d}; bounds reported for reference only")
    connected = s != 2 or g.is_connected()
    if not connected:
        notes.append("lower_odd is proven for connected graphs only; this graph is disconnected")
    bounds = {
        "thm_odd": bound_entry(edge_bound_odd(n, s), edges, STATUS_THEOREM),
        "lower_odd": bound_entry(
            edge_lower_bound_odd(n, s), edges, lower_bound_status(s, connected), upper=False
        ),
    }
    return BoundReport(
        instance=instance,
        n=n,
        s=s,
        edges=edges,
        bounds=bounds,
        leveled_d=d,
        leveled=verdict.is_leveled,
        gamma=gamma_check(n, edges, s),
        notes=tuple(notes),
        potential_counterexample=verdict.is_leveled and not bounds["thm_odd"].holds,
    )
