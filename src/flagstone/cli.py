"""Command line interface.

Exit codes: 0 when every requested check passes or completes, 1 when a
level-verified instance violates a theorem-status bound (a potential
counterexample worth human eyes), 2 for usage and parse errors and for an
output path that cannot be written.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from .bounds import verify_theorem_instance
from .errors import FlagstoneError
from .formats import dump_edge_list, dump_graph6, load_instances
from .generators import (
    gen_complete_multipartite,
    gen_cycle,
    gen_grid_torus,
    gen_independent,
    gen_join_of_cycles,
    gen_suspension_sphere,
)
from .graphs import Graph
from .search import (
    SearchConfig,
    corpus_summary,
    exhaustive_search,
    random_search,
    run_corpus_checks,
)
from .structure import is_flag

_FAMILIES = {
    "cycle": (gen_cycle, 1),
    "independent": (gen_independent, 1),
    "complete_multipartite": (None, None),
    "join_of_cycles": (gen_join_of_cycles, 2),
    "suspension_sphere": (gen_suspension_sphere, 1),
    "grid_torus": (gen_grid_torus, 2),
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
    family = args.family
    if family == "complete_multipartite":
        g = gen_complete_multipartite(tuple(params))
    else:
        fn, arity = _FAMILIES[family]
        if len(params) != arity:
            print(f"gen: {family} takes {arity} parameter(s), got {len(params)}", file=sys.stderr)
            return 2
        g = fn(*params)
    if args.format == "graph6":
        print(dump_graph6(g))
    else:
        sys.stdout.write(dump_edge_list(g))
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
    for entry in entries:
        print(_describe(entry))
    summary = corpus_summary(entries)
    print(
        "checked {instances} instance(s): {ok} ok, {parse_errors} parse error(s), "
        "{potential_counterexamples} potential counterexample(s), "
        "{equality_cases} bound equality case(s)".format(**summary)
    )
    if args.json:
        with _opened_for_writing(args.json, "w", encoding="ascii") as fh:
            # streamed: building the whole text first raises the peak RSS
            json.dump({"entries": entries, "summary": summary}, fh, indent=2, sort_keys=True)
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
        if not isinstance(obj, Graph):
            flag_ok, witness = is_flag(obj)
            if not flag_ok:
                print(f"bounds: {instance}: not flag, witness {tuple(witness)}; "
                      "bounds apply to clique complexes only", file=sys.stderr)
                return 2
            obj = obj.support_skeleton()
        if obj.n == 0:
            print(f"bounds: {instance}: no vertices; the edge bounds need n >= 1", file=sys.stderr)
            return 2
        report = verify_theorem_instance(obj, args.s, cap=args.C, instance=instance)
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
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
    payload = result.to_json_bytes()
    if args.out:
        with _opened_for_writing(args.out, "wb") as fh:
            fh.write(payload)
    for entry in result.per_n:
        print(
            "n={n}: found={found}, max_edges={me}, bound={bound}".format(
                n=entry["n"],
                found=entry.get("leveled_classes", entry.get("candidates_found")),
                me=entry["max_edges"],
                bound=entry["bound"],
            )
        )
    bad = [e for e in result.per_n if e["bound_holds"] is False]
    return 1 if bad else 0


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FlagstoneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
