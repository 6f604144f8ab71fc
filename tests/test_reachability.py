"""Which functions of the package the commands reach.

The test runs the command line in process under `sys.setprofile`: `check`
on the golden files, both golden `bounds` runs, `search` at exhaustive
d=1 and random d=3, every `gen` family in both formats, and two runs on
bad input.  The compiled kernels are switched off for the trace, so the
answer is the same whether or not `_kernels_c` is built.

Every function of `src/flagstone` that no run calls must be in UNREACHED,
with one reason:

- library: public API that no command needs, kept for library callers
  and for the tests that build inputs with it;
- oracle: an unpruned or reference path that the tests check a fast path
  against;
- traced: a kernel that `benchmark/layers.py` looks up by name;
- error-path: reached only by bad input that no run here gives.

A nested function, lambda or comprehension counts with the function that
encloses it, and `stability.py` counts as one unit.  So a function that
drops out of every command's reach fails the test until it is listed on
purpose (or deleted), and a listed one that a command reaches again
fails it until it leaves the list.
"""

import ast
import sys
from pathlib import Path

from flagstone import kernels
from flagstone.cli import main

SRC = Path(kernels.__file__).resolve().parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
WHOLE = {"stability"}  # modules that count as one unit

GEN = {
    "cycle": ["5"],
    "independent": ["4"],
    "complete_multipartite": ["2,2,3"],
    "join_of_cycles": ["2", "10"],
    "suspension_sphere": ["5"],
    "grid_torus": ["4", "4"],
}

UNREACHED = {
    # the almost-join machinery of the stability argument
    "stability": "library",
    "graphs.contains_multipartite_subgraph": "library",
    "graphs.verify_multipartite_witness": "library",
    # value and graph API for library callers, and for the tests that
    # build their inputs with it
    "graphs._Value._values": "library",
    "graphs._Value.__eq__": "library",
    "graphs._Value.__hash__": "library",
    "graphs._Value.__repr__": "library",
    "graphs._Value.__setattr__": "library",
    "graphs._Value.__delattr__": "library",
    "graphs.Graph.__init__": "library",
    "graphs.Graph.degree": "library",
    "graphs.Graph.neighbors": "library",
    "graphs.Graph.has_edge": "library",
    "graphs.Graph.with_edge": "library",
    "graphs.Graph.without_edge": "library",
    "graphs.Graph.is_clique": "library",
    "graphs.Graph.link": "library",
    "graphs.Graph.relabel": "library",
    "graphs.Graph.canonical_key": "library",
    "graphs.disjoint_union": "library",
    "complexes.clique_complex": "library",
    "complexes.SimplicialComplex.from_facets": "library",
    # a parsed complex keeps the rows its reduction built as its skeleton
    "complexes.SimplicialComplex._one_skeleton": "library",
    "formats.dump_facet_list": "library",
    "search.SearchConfig._make": "library",
    "__init__.__getattr__": "library",
    # the clique cap of the unpruned enumerator in tests/helpers.py (an
    # oracle first, though benchmark/layers.py also traces it by name),
    # and the level test's reference
    "_kernels_py.clique_number": "oracle",
    "_kernels_py.leveled_violation": "oracle",
    "_kernels_py.k_cliques": "traced",
    "graphs.Graph._out_of_range": "error-path",
}


def _units():
    """{(file name, line): unit name} over every line that a module-level
    function or a method spans, decorators included."""
    owner = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for top in tree.body:
            in_class = isinstance(top, ast.ClassDef)
            for node in top.body if in_class else [top]:
                if not isinstance(node, ast.FunctionDef):
                    continue
                if path.stem in WHOLE:
                    name = path.stem
                else:
                    name = f"{path.stem}.{top.name}.{node.name}" if in_class else f"{path.stem}.{node.name}"
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                for line in range(first, node.end_lineno + 1):
                    owner[path.name, line] = name
    return owner


def _run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses a bad value this way
        return exc.code


def _traced_runs(tmp_path):
    """Exit codes of the runs, and the code objects of every Python call."""
    golden = [str(GOLDEN / name) for name in
              ("join.txt", "suspension.txt", "torus.facets", "pair.g6", "hollow.facets")]
    runs = [
        (0, ["check", *golden, "--json", str(tmp_path / "check.json")]),
        (0, ["bounds", str(GOLDEN / "join.txt"), "--s", "2"]),
        (0, ["bounds", str(GOLDEN / "torus.facets"), "--s", "1"]),
        (0, ["search", "--mode", "exhaustive", "--d", "1", "--n", "3..7",
             "--out", str(tmp_path / "d1.json")]),
        (0, ["search", "--mode", "random", "--d", "3", "--n", "10..30", "--seed", "1", "--budget", "100",
             "--out", str(tmp_path / "d3.json")]),
        *((0, ["gen", family, *params, "--format", fmt])
          for family, params in GEN.items() for fmt in ("edgelist", "graph6")),
        (2, ["check", str(tmp_path / "missing.txt")]),
        (2, ["bounds", str(GOLDEN / "join.txt"), "--s", "2", "--C", "1/0"]),
    ]
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    codes = []
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for _, argv in runs:
            codes.append(_run(argv))
    finally:
        sys.setprofile(previous)
    assert codes == [code for code, _ in runs]
    return seen


def test_unreached_functions_are_listed(tmp_path, monkeypatch, capsys):
    assert set(UNREACHED.values()) <= {"library", "oracle", "traced", "error-path"}
    monkeypatch.setattr(kernels, "_c", None)
    owner = _units()
    reached = set()
    for code in _traced_runs(tmp_path):
        path = Path(code.co_filename).resolve()
        if path.parent == SRC:
            reached.add(owner.get((path.name, code.co_firstlineno)))
    capsys.readouterr()
    unreached = set(owner.values()) - reached
    assert unreached == set(UNREACHED), (
        f"reached but listed: {sorted(set(UNREACHED) - unreached)}; "
        f"unreached and unlisted: {sorted(unreached - set(UNREACHED))}")
