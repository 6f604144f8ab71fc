"""Command line interface.

Exit codes: 0 when every requested check passes or completes, 1 when a
level-verified instance violates a theorem-status bound (a potential
counterexample worth human eyes), 2 for usage and parse errors, for an
output path that cannot be written and for a closed standard output.

`main()` without argv, as the `flagstone` script and `python -m
flagstone.cli` call it, freezes the start-up heap with `gc.freeze()`, so
the collections at exit do not walk it; `main(argv)`, as tests and other
in-process callers call it, leaves the heap as it is.
"""

import argparse
import gc
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .bounds import verify_theorem_instance
from .errors import FlagstoneError
from .formats import check_graph6_size, dump_edge_list, dump_graph6, load_instances
from . import generators
from .search import (
    SearchConfig,
    admit_instance,
    corpus_summary,
    exhaustive_search,
    random_search,
    run_corpus_checks,
)

# family: (generator, its check, parameter count or None for one list of any length)
_FAMILIES = {
    "cycle": (generators.gen_cycle, generators.check_cycle, 1),
    "independent": (generators.gen_independent, generators.check_independent, 1),
    "complete_multipartite": (
        generators.gen_complete_multipartite, generators.check_complete_multipartite, None
    ),
    "join_of_cycles": (generators.gen_join_of_cycles, generators.check_join_of_cycles, 2),
    "suspension_sphere": (generators.gen_suspension_sphere, generators.check_suspension_sphere, 1),
    "grid_torus": (generators.gen_grid_torus, generators.check_grid_torus, 2),
}


def _int_params(tokens):
    out = []
    for tok in tokens:
        for piece in tok.split(","):
            if piece:
                out.append(int(piece))
    return out


def _cmd_gen(args):
    try:
        params = _int_params(args.params)
    except ValueError:
        print("gen: parameters must be integers", file=sys.stderr)
        return 2
    fn, check, arity = _FAMILIES[args.family]
    if arity is None:
        params = [tuple(params)]
    elif len(params) != arity:
        print(f"gen: {args.family} takes {arity} parameter(s), got {len(params)}", file=sys.stderr)
        return 2
    if args.format == "graph6":
        # the generator's own refusals first, then the graph6 size, all
        # before a row of a graph too big to write is built
        n, _ = check(*params)
        check_graph6_size(n)
        print(dump_graph6(fn(*params)))
    else:
        sys.stdout.write(dump_edge_list(fn(*params)))
    return 0


@contextmanager
def _opened_for_writing(path, mode, **kwargs):
    """open(path, mode) for the body; an OS error opening or writing it
    becomes a FlagstoneError naming the path, so main exits 2."""
    try:
        with open(path, mode, **kwargs) as fh:
            yield fh
    except OSError as exc:
        raise FlagstoneError(f"cannot write {path}: {exc.strerror or exc}") from None


_FLUSH_PARTS = 4096  # pieces write_json holds before it writes them out


def write_json(fh, obj):
    """Write obj as `json.dump(obj, fh, indent=2, sort_keys=True)` does,
    byte for byte, but without the stdlib's pure-Python indenting encoder
    (its C encoder cannot indent).

    It takes dicts with str keys, lists and tuples, str, int, bool and
    None; any other value, a float too, raises TypeError.  A list of
    plain ints is one join.  The text goes to fh in chunks, so the whole
    report is never held at once.
    """
    parts = []
    _encode(obj, "\n", parts, fh)
    fh.write("".join(parts))


def _encode(value, pad, parts, fh):
    """Append the text of value, which starts a line indented as pad (a
    newline plus spaces) says, to parts; write parts out once they pile up."""
    if value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            # raises TypeError on a key that is not a str
            parts.append(f"{sep}{encode_basestring_ascii(key)}: ")
            _encode(value[key], inner, parts, fh)
            sep = "," + inner
        parts.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = pad + "  "
        if set(map(type, value)) == {int}:
            parts.append(f"[{inner}{(',' + inner).join(map(str, value))}{pad}]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _encode(item, inner, parts, fh)
            sep = "," + inner
            if len(parts) > _FLUSH_PARTS:
                fh.write("".join(parts))
                parts.clear()
        parts.append(pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_listing(lines):
    """Write lines to stdout, each ending in a newline, with one write: an
    unbuffered stdout pays two system calls for every print."""
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _describe(entry):
    if entry["kind"] == "error":
        err = entry["error"]
        where = f" line {err['line']}" if err.get("line") else ""
        return f"{entry['instance']}: {err['stage'].upper()} ERROR{where}: {err['message']}"
    bits = [f"n={entry['n']}"]
    if "edges" in entry:
        bits.append(f"edges={entry['edges']}")
    lv = entry.get("leveled")
    if lv:
        bits.append(f"level d={lv['d']}: {'pass' if lv['verdict'] else 'fail'}")
    flag = entry.get("flag")
    if flag and not flag.get("verdict", True):
        bits.append(f"not flag, witness {tuple(flag['witness'])}")
    ds = entry.get("dehn_sommerville")
    if ds:
        bits.append("palindromic h" if ds["all"] else "h not palindromic")
    report = entry.get("report")
    if report:
        for name, b in sorted(report["bounds"].items()):
            ok_tag = ">=" if name.startswith("lower") else "<="
            tag = "=" if b["equality"] else (ok_tag if b["holds"] else "VIOLATED")
            bits.append(f"edges {tag} {name} {b['value']}")
    head = "CANDIDATE" if entry.get("potential_counterexample") else "ok"
    return f"{entry['instance']}: {head} ({', '.join(bits)})"


def _cmd_check(args):
    entries = run_corpus_checks(args.files)
    summary = corpus_summary(entries)
    _write_listing([
        *map(_describe, entries),
        "checked {instances} instance(s): {ok} ok, {parse_errors} parse error(s), "
        "{potential_counterexamples} potential counterexample(s), "
        "{equality_cases} bound equality case(s)".format(**summary),
    ])
    if args.json:
        with _opened_for_writing(args.json, "w", encoding="ascii") as fh:
            write_json(fh, {"entries": entries, "summary": summary})
            fh.write("\n")
    if summary["parse_errors"]:
        return 2
    if summary["potential_counterexamples"]:
        return 1
    return 0


def _cmd_bounds(args):
    instances = load_instances(args.file)
    code = 0
    for instance, obj in instances:
        g, witness = admit_instance(obj)
        if g is None:
            print(f"bounds: {instance}: not flag, witness {tuple(witness)}; "
                  "bounds apply to clique complexes only", file=sys.stderr)
            return 2
        if g.n == 0:
            print(f"bounds: {instance}: no vertices; the edge bounds need n >= 1", file=sys.stderr)
            return 2
        report = verify_theorem_instance(g, args.s, cap=args.C, instance=instance)
        write_json(sys.stdout, report.to_json_dict())
        sys.stdout.write("\n")
        if report.potential_counterexample:
            code = 1
    return code


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a fraction p/q, got {text!r}") from None


def _parse_range(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    return int(lo), int(hi)


def _cmd_search(args):
    try:
        n_min, n_max = _parse_range(args.n)
    except ValueError:
        print(f"search: bad range {args.n!r}, expected min..max", file=sys.stderr)
        return 2
    cfg = SearchConfig(
        mode=args.mode,
        d=args.d,
        n_min=n_min,
        n_max=n_max,
        seed=args.seed,
        workers=args.workers,
        budget=args.budget,
        allow_huge=args.i_know_this_is_huge,
    )
    result = exhaustive_search(cfg) if cfg.mode == "exhaustive" else random_search(cfg)
    if args.out:
        with _opened_for_writing(args.out, "wb") as fh:
            fh.write(result.to_json_bytes())
    _write_listing([
        "n={n}: found={found}, max_edges={me}, bound={bound}".format(
            n=entry["n"],
            found=entry.get("leveled_classes", entry.get("candidates_found")),
            me=entry["max_edges"],
            bound=entry["bound"],
        )
        for entry in result.per_n
    ])
    # only the odd-level bound is a theorem; reports exist at odd d alone
    return 1 if any(r["potential_counterexample"] for r in result.reports) else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flagstone",
        description="Clique-structured graph and complex checks: level tests, "
        "face-count algebra, edge bounds, and searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a generated graph")
    p_gen.add_argument("family", choices=sorted(_FAMILIES))
    p_gen.add_argument("params", nargs="+", help="integer parameters (commas allowed)")
    p_gen.add_argument("--format", choices=("edgelist", "graph6"), default="edgelist")
    p_gen.set_defaults(fn=_cmd_gen)

    p_check = sub.add_parser("check", help="run the full pipeline over instance files")
    p_check.add_argument("files", nargs="+")
    p_check.add_argument("--json", help="also write entries and summary to this path")
    p_check.set_defaults(fn=_cmd_check)

    p_bounds = sub.add_parser("bounds", help="bound report for one instance file")
    p_bounds.add_argument("file")
    p_bounds.add_argument("--s", type=int, required=True, help="half of d+1 for the level test")
    p_bounds.add_argument("--C", type=_fraction, help="clique hypothesis constant, as p/q")
    p_bounds.set_defaults(fn=_cmd_bounds)

    # no abbreviations: a retired option such as --s must not turn into --seed
    p_search = sub.add_parser("search", help="exhaustive or random search", allow_abbrev=False)
    p_search.add_argument("--mode", choices=("exhaustive", "random"), required=True)
    p_search.add_argument("--d", type=int, required=True)
    p_search.add_argument("--n", required=True, help="vertex range min..max")
    p_search.add_argument("--seed", type=int, default=None)
    p_search.add_argument("--workers", type=int, default=1)
    p_search.add_argument("--budget", type=int, default=1000)
    p_search.add_argument("--out", default=None)
    p_search.add_argument("--i-know-this-is-huge", action="store_true")
    p_search.set_defaults(fn=_cmd_search)
    return parser


def main(argv=None):
    """Run the command argv names, sys.argv[1:] when it is None, and return
    its exit code.  Without argv this is the process entry, and it first
    freezes the start-up heap: every module is imported and a collection
    would find nothing to free, so the collections at exit skip it."""
    if argv is None:
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a buffered stdout meets a closed pipe here
        return code
    except FlagstoneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        if argv is None:  # or the interpreter's flush at exit raises again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
