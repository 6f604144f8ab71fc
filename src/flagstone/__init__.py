"""Exact combinatorics of clique complexes: level tests, face-count
algebra, almost-join structure, edge bounds, and search harnesses."""

from .bounds import (
    BoundEntry,
    BoundReport,
    edge_bound_even_conjecture,
    edge_bound_odd,
    edge_lower_bound_odd,
    gamma_check,
    lower_bound_status,
    verify_theorem_instance,
)
from .complexes import (
    SimplicialComplex,
    check_dehn_sommerville,
    check_klee,
    clique_complex,
    euler_characteristic,
    f_vector,
    gamma_vector,
    graph_f_vector,
    h_vector,
    sphere_euler_characteristic,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FlagstoneError,
    InvalidComplex,
    InvalidParameter,
    InvalidPartition,
    NotAClique,
    NotPalindromic,
    ParseError,
    PreconditionFailed,
)
from .formats import (
    dump_edge_list,
    dump_facet_list,
    dump_graph6,
    load_instances,
    parse_edge_list,
    parse_facet_list,
    parse_graph6_line,
)
from .generators import (
    cycle_part_sizes,
    gen_complete_multipartite,
    gen_cycle,
    gen_grid_torus,
    gen_independent,
    gen_join_of_cycles,
    gen_suspension_sphere,
)
from .graphs import (
    Graph,
    contains_multipartite_subgraph,
    disjoint_union,
    join,
    verify_multipartite_witness,
)
from .kernels import BACKEND
from .search import (
    SearchConfig,
    SearchResult,
    check_instance,
    corpus_summary,
    enumerate_classes,
    exhaustive_cap,
    exhaustive_search,
    graph_from_key,
    random_search,
    run_corpus_checks,
)
from .structure import (
    LeveledVerdict,
    detect_level,
    is_d_leveled,
    is_flag,
    is_weak_pseudomanifold,
)

# The stability machinery is library-only: importing it on first use keeps
# it out of the command line's start-up.
_STABILITY = frozenset((
    "PartitionDiagnostics",
    "PartitionWitness",
    "bollobas_lower_bound",
    "check_lemma_independent_bound",
    "default_alpha",
    "default_eta",
    "extract_partition",
    "find_transversal_clique",
    "restrict_witness",
    "verify_type_partition",
    "witness_link",
))


def __getattr__(name):
    if name in _STABILITY:
        from . import stability

        return getattr(stability, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

# what `from flagstone import *` binds: every public name, the lazy ones too
__all__ = [name for name in globals() if not name.startswith("_")] + sorted(_STABILITY)
