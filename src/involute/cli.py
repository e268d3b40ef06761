"""Command-line front end.

Subcommands: ``analyze``, ``construct``, ``verify``, ``factor``, ``trace``.
Exit codes: 0 success, 1 verification failure, 2 bad input or an output
that cannot be written, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import families
from .battery import check_names, run_battery
from .errors import AlgebraError, BudgetExceededError, InputFormatError, OrderBudgetExceededError
from .graphs import frucht_semigroup, load_graph, parse_edge_list
from .perms import compose, cycle_bodies, cycle_string, from_cycles, identity_tuple
from .perms import parse_cycles, parse_natural
from .permgroups import two_involution_factorization
from .report import analyze, report_to_text, write_json
from .semigroups import FiniteSemigroup, dump_table, load_table, to_json_dict
from .traces import TraceContext, delta_map, gamma_map, normal_form, trace_equal

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3


# --- construct: a tiny recursive grammar over the argv tail ----------------

#: family name -> (builder, number of integer arguments)
_FAMILIES = {
    "cyclic": (families.cyclic_group, 1),
    "zn": (families.cyclic_group, 1),
    "klein": (families.klein_four, 0),
    "sym": (families.sym_group_table, 1),
    "alt": (families.alternating_group_table, 1),
    "transformation": (families.full_transformation_monoid, 1),
    "tn": (families.full_transformation_monoid, 1),
    "inverse": (families.symmetric_inverse_monoid, 1),
    "dual-inverse": (families.dual_symmetric_inverse_monoid, 1),
    "partition": (families.partition_monoid, 1),
    "band": (families.rectangular_band, 2),
    "zero": (families.zero_semigroup, 1),
    "dihedral": (families.dihedral_group, 1),
    "quaternion": (families.quaternion_group, 0),
    "z2^k": (families.elementary_abelian_two_group, 1),
}


def _parse_construct(tokens: list[str]) -> tuple[FiniteSemigroup, list[str]]:
    if not tokens:
        raise InputFormatError("missing family name")
    head, rest = tokens[0], tokens[1:]
    if head == "doubled":
        inner, rest = _parse_construct(rest)
        return families.doubled_semigroup(inner), rest
    if head == "dual":
        inner, rest = _parse_construct(rest)
        return inner.dual(), rest
    if head == "product":
        left, rest = _parse_construct(rest)
        right, rest = _parse_construct(rest)
        return families.direct_product_table(left, right), rest
    if head == "frucht":
        if not rest:
            raise InputFormatError("frucht needs a graph file or '<n> <edges>'")
        if rest[0].endswith(".json"):
            return frucht_semigroup(load_graph(rest[0])), rest[1:]
        if len(rest) < 2:
            raise InputFormatError("inline frucht needs '<n> <edges like 0-1,1-2>'")
        n = parse_natural(rest[0], "the frucht vertex count")
        return frucht_semigroup(parse_edge_list(rest[1], n=n)), rest[2:]
    if head == "file":
        if not rest:
            raise InputFormatError("file needs a path")
        return load_table(rest[0]), rest[1:]
    if head not in _FAMILIES:
        raise InputFormatError(f"unknown family {head!r} (see --help)")
    build, arity = _FAMILIES[head]
    if len(rest) < arity:
        raise InputFormatError(f"{head} needs {arity} integer argument(s)")
    args = [parse_natural(tok, f"a {head} argument") for tok in rest[:arity]]
    rest = rest[arity:]
    try:
        return build(*args), rest
    except ValueError as exc:
        raise InputFormatError(f"{head}: {exc}") from exc


# --- trace helpers ---------------------------------------------------------

def _trace_context(args) -> TraceContext:
    words = [w for w in (getattr(args, "word", None), getattr(args, "word2", None)) if w]
    letters = set("".join(words))
    edge_pairs = []
    if args.edges:
        for pair in args.edges.split(","):
            pair = pair.strip()
            if len(pair) != 2:
                raise InputFormatError(f"edge {pair!r} must be two letters, like ab")
            edge_pairs.append(pair)
            letters.update(pair)
    if args.alphabet is None:
        alphabet = "".join(sorted(letters))
    else:
        alphabet = args.alphabet
        if not alphabet:
            raise InputFormatError("--alphabet is empty")
        if len(set(alphabet)) != len(alphabet):
            raise InputFormatError(f"--alphabet {alphabet!r} repeats a letter")
        missing = letters - set(alphabet)
        if missing:
            raise InputFormatError(f"letters {sorted(missing)} outside --alphabet")
    pos = {ch: i for i, ch in enumerate(alphabet)}
    edges = [(pos[a], pos[b]) for a, b in edge_pairs]
    return TraceContext.from_edges(len(alphabet), edges, letters=alphabet)


def _letter_permutation(text: str, ctx: TraceContext) -> tuple[int, ...]:
    cycles = []
    for body in cycle_bodies(text):
        try:
            # spaces inside a cycle separate letters: "(a b)" is (ab)
            cycles.append([ctx.letters.index(ch) for ch in "".join(body.split())])
        except ValueError as exc:
            raise InputFormatError(f"letter in {body!r} outside alphabet {ctx.letters!r}") from exc
    try:
        return from_cycles(cycles, ctx.m)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


# --- subcommand implementations ---------------------------------------------

def _requested(build, *args):
    """``build(*args)``, with a table past a size limit refused as bad input:
    the input asked for that size, and no flag sets the limit."""
    try:
        return build(*args)
    except OrderBudgetExceededError as exc:
        raise InputFormatError(f"the requested table exceeds the limit of {exc.limit} elements") from exc


def _cmd_analyze(args) -> int:
    doc = analyze(
        _requested(load_table, args.file),
        name=args.file,
        budget=args.budget_nodes,
        order_cap=args.budget_order,
    )
    if args.json:
        write_json(doc, sys.stdout)
    else:
        print(report_to_text(doc), end="")
    return EXIT_OK


def _cmd_construct(args) -> int:
    try:
        s, rest = _requested(_parse_construct, list(args.spec))
    except RecursionError as exc:
        raise InputFormatError("the construct spec is nested too deeply") from exc
    if rest:
        raise InputFormatError(f"unused construct arguments: {rest}")
    if args.output:
        try:
            dump_table(s, args.output)
        except OSError as exc:
            raise InputFormatError(f"cannot write {args.output}: {exc}") from exc
        print(f"wrote {s.n}x{s.n} table to {args.output}")
    else:
        print(json.dumps(to_json_dict(s), sort_keys=True))
    return EXIT_OK


def _cmd_verify(args) -> int:
    only = None if args.only is None else set(args.only.split(","))
    if only is not None:
        unknown = only - set(check_names())
        if unknown:
            raise InputFormatError(f"unknown check name(s): {sorted(unknown)}")
    def announce(r):
        flag = "PASS" if r.passed else "FAIL"
        print(f"[{flag}] {r.name} ({r.seconds:.2f}s): {r.detail}", flush=True)

    results = run_battery(
        stretch=args.stretch,
        only=only,
        budget=args.budget_nodes,
        order_cap=args.budget_order,
        on_result=None if args.json else announce,
    )
    if args.json:
        print(json.dumps(
            [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "seconds": round(r.seconds, 3),
                    "detail": r.detail,
                }
                for r in results
            ],
            indent=2,
        ))
    else:
        failed = [r.name for r in results if not r.passed]
        print(f"{len(results) - len(failed)}/{len(results)} checks passed"
              + (f"; failed: {', '.join(failed)}" if failed else ""))
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _cmd_factor(args) -> int:
    pi = parse_cycles(args.perm, degree=args.degree)
    sigma, tau = two_involution_factorization(pi)
    print(f"pi    = {cycle_string(pi)}")
    print(f"sigma = {cycle_string(sigma)}")
    print(f"tau   = {cycle_string(tau)}")
    one = identity_tuple(len(pi))
    ok = compose(sigma, tau) == pi and compose(sigma, sigma) == one == compose(tau, tau)
    print(f"check: sigma^2 = tau^2 = id and sigma∘tau = pi: {'OK' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_trace(args) -> int:
    ctx = _trace_context(args)
    if args.action == "nf":
        print(str(normal_form(ctx.parse(args.word), bound=args.bound)))
    elif args.action == "eq":
        u = ctx.parse(args.word)
        w = ctx.parse(args.word2)
        print("true" if trace_equal(u, w, bound=args.bound) else "false")
    else:  # map
        pi = _letter_permutation(args.perm, ctx)
        w = ctx.parse(args.word)
        out = gamma_map(pi, w) if args.kind == "gamma" else delta_map(pi, w)
        print(str(out))
    return EXIT_OK


def _count(text: str) -> int:
    """An argparse type for the counts of budgets, degrees and bounds."""
    try:
        return parse_natural(text, "the value")
    except InputFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help, written to stdout, raises when the
    write fails, so that :func:`main` reports it; argparse drops the error."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
            file.flush()
        else:
            super()._print_message(message, file)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of :func:`main`, built on its first call, not at import."""
    parser = _Parser(
        prog="involute",
        description="Involutions and (anti-)automorphisms of finite semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def budgets(p):
        p.add_argument("--budget-nodes", type=_count, default=None, metavar="N",
                       help="cap on morphism-search nodes")
        p.add_argument("--budget-order", type=_count, default=None, metavar="N",
                       help="cap on materialized group order")

    p = sub.add_parser("analyze", help="full report for a Cayley-table JSON file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    budgets(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "construct",
        help="emit a family table (cyclic N, klein, sym N, transformation N, "
             "inverse N, dual-inverse N, partition N, band P Q, zero K, "
             "dihedral K, quaternion, alt N, z2^k K, frucht ..., and the "
             "combinators doubled/dual/product/file)",
    )
    p.add_argument("spec", nargs="+", help="family name plus arguments")
    p.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("verify", help="run the verification battery")
    p.add_argument("--stretch", action="store_true",
                   help="add Sym(6) and T_4 to a full run")
    p.add_argument("--only", help="comma-separated check names to run, stretch checks included")
    p.add_argument("--json", action="store_true")
    budgets(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("factor", help="write a permutation as a product of two involutions")
    p.add_argument("perm", help="cycle notation, e.g. '(0 1 2)(3 4)'")
    p.add_argument("--degree", type=_count, default=None)
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("trace", help="partially commutative word tools")
    tsub = p.add_subparsers(dest="action", required=True)
    for action in ("nf", "eq", "map"):
        tp = tsub.add_parser(action)
        if action == "map":
            tp.add_argument("kind", choices=("gamma", "delta"))
            tp.add_argument("perm", help="letter cycles like '(ab)' or 'id'")
        tp.add_argument("word")
        if action == "eq":
            tp.add_argument("word2")
        if action != "map":  # gamma_map and delta_map are linear in the word
            tp.add_argument("--bound", type=_count, default=16, help="word length cap")
        tp.add_argument("--edges", default="", help="commuting pairs, e.g. ab,bc")
        tp.add_argument("--alphabet", default=None)
        tp.set_defaults(fn=_cmd_trace)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a write that fails at the flush fails here, not at exit
        return code
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        # reading a file or writing --output raises InputFormatError, so
        # this is stdout, the report or the help: a closed pipe or a full disk
        _drop_stdout()
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _drop_stdout() -> None:
    """Point the stdout descriptor at the null device, so the buffered
    bytes that failed are dropped at exit without a second error."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not a file: nothing is flushed at exit
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
