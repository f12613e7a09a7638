"""Command-line front end.

Every subcommand reads its inputs from arguments (or stdin when an argument
is "-" or omitted), evaluates them in the expression language, and prints
newline-terminated, byte-deterministic output.

Exit codes: 0 success or true; 1 a negative answer (not isomorphic, false);
2 domain error (including a missing tuple position); 3 syntax error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import corpus as corpus_mod
from . import fusion
from .errors import CalculusError, ExprSyntaxError, MalformedText
from .expr import evaluate
from .kernel import (
    SetHandle,
    cardinality,
    constituents,
    instance_count,
    parse,
    to_text,
)
from .numerals import add_vn, add_zermelo, as_vn, as_zermelo, is_vn, is_zermelo, mul_structural, vn, zermelo
from .structure import isomorphic, structure_of, to_dot, to_json
from .tuples import contains_position, get_at

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_DOMAIN = 2
EXIT_SYNTAX = 3


def _read_source(arg: str | None) -> str:
    if arg is None or arg == "-":
        return sys.stdin.read()
    return arg


def _structure_text(g) -> str:
    lines = ["vertices:"]
    texts: dict[SetHandle, str] = {}
    for v in range(g.n):
        tag = to_text(g.tags[v], texts) if g.tags[v] is not None else "-"
        lines.append(f"  {v}  {tag}")
    lines.append("edges:")
    for a, b in g.edges:
        lines.append(f"  {a} -> {b}")
    lines.append(f"top: {g.top}")
    lines.append(f"bottom: {g.bottom}")
    return "\n".join(lines) + "\n"


def _parse_path(text: str) -> list[int]:
    try:
        coords = [int(part) for part in text.split(",")]
    except ValueError:
        raise ExprSyntaxError(f"malformed path {text!r}: expected naturals separated by commas")
    if not coords or any(c < 0 for c in coords):
        raise ExprSyntaxError(f"malformed path {text!r}: coordinates must be naturals")
    return coords


def _budget(text: str) -> int:
    """argparse type of --budget: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, not {text!r}")
    return int(text)


def _scheme_of(operands: list[SetHandle], requested: str) -> str | None:
    """Resolve --scheme auto to the one scheme every operand is a numeral of.

    On failure the reason goes to stderr and None is returned.
    """
    if requested != "auto":
        return requested
    z = all(is_zermelo(h) for h in operands)
    v = all(is_vn(h) for h in operands)
    if z != v:
        return "zermelo" if z else "vn"
    if z:
        plural = "s" if len(operands) > 1 else ""
        reason = f"ambiguous numeral{plural} (valid in both schemes); pass --scheme"
    elif len(operands) > 1:
        reason = "operands are not numerals of one scheme"
    else:
        reason = "not a numeral in either scheme"
    print(reason, file=sys.stderr)
    return None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conset",
        description="A calculus of hereditarily finite sets: canonical text, "
        "structure diagrams, numerals, positional tuples, and fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression to canonical text")
    p_eval.add_argument("expr", nargs="?", help="expression (stdin if omitted)")

    p_canon = sub.add_parser("canon", help="re-canonicalize brace text")
    p_canon.add_argument("text", nargs="?", help="brace text (stdin if omitted)")

    p_card = sub.add_parser("card", help="number of elements")
    p_card.add_argument("expr", nargs="?")

    p_cons = sub.add_parser("constituents", help="all constituents, one per line")
    p_cons.add_argument("expr", nargs="?")

    p_inst = sub.add_parser("instances", help="number of instances (occurrences)")
    p_inst.add_argument("expr", nargs="?")

    p_struct = sub.add_parser("structure", help="covering diagram of the constituents")
    p_struct.add_argument("expr", nargs="?")
    p_struct.add_argument(
        "--format", choices=("dot", "json", "text"), default="dot"
    )

    p_iso = sub.add_parser("iso", help="isomorphism of two structure diagrams")
    p_iso.add_argument("left")
    p_iso.add_argument("right")

    p_tuple = sub.add_parser("tuple", help="positional tuple access")
    tuple_sub = p_tuple.add_subparsers(dest="tuple_command", required=True)
    p_tget = tuple_sub.add_parser("get", help="occupant at a path")
    p_tget.add_argument("expr")
    p_tget.add_argument("path", help="comma-separated naturals, innermost-first")
    p_thas = tuple_sub.add_parser("has", help="whether a path is occupied")
    p_thas.add_argument("expr")
    p_thas.add_argument("path", help="comma-separated naturals, innermost-first")

    p_num = sub.add_parser("num", help="numeral arithmetic and codecs")
    num_sub = p_num.add_subparsers(dest="num_command", required=True)
    p_nadd = num_sub.add_parser("add", help="sum of two numerals")
    p_nadd.add_argument("left")
    p_nadd.add_argument("right")
    p_nadd.add_argument("--scheme", choices=("auto", "zermelo", "vn"), default="auto")
    p_nmul = num_sub.add_parser("mul", help="product of two successor numerals")
    p_nmul.add_argument("left")
    p_nmul.add_argument("right")
    p_nenc = num_sub.add_parser("encode", help="natural number to numeral")
    p_nenc.add_argument("value", type=int)
    p_nenc.add_argument("--scheme", choices=("zermelo", "vn"), required=True)
    p_ndec = num_sub.add_parser("decode", help="numeral to natural number")
    p_ndec.add_argument("expr", nargs="?")
    p_ndec.add_argument("--scheme", choices=("auto", "zermelo", "vn"), default="auto")

    p_fuse = sub.add_parser("fuse", help="fuse a top structure onto a bottom structure")
    p_fuse.add_argument("top")
    p_fuse.add_argument("bottom")
    group = p_fuse.add_mutually_exclusive_group()
    group.add_argument(
        "--check-top",
        action="store_true",
        help="only ask whether TOP decomposes BOTTOM's argument: "
        "treat arguments as (top, whole) and print true/false",
    )
    group.add_argument(
        "--check-bottom",
        action="store_true",
        help="treat arguments as (whole, bottom) and print true/false",
    )
    p_fuse.add_argument(
        "--budget",
        type=_budget,
        default=fusion.DEFAULT_BUDGET,
        help="search bound for --check-top (--check-bottom needs none)",
    )

    p_close = sub.add_parser("close", help="ground a middle structure to a plain set")
    p_close.add_argument("expr", nargs="?")

    p_corpus = sub.add_parser("corpus", help="deterministic pseudo-random sets")
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.add_argument("--count", type=int, default=10)
    p_corpus.add_argument("--max-depth", type=int, default=4)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    out = sys.stdout

    try:
        if args.command == "eval":
            print(evaluate(_read_source(args.expr)).text, file=out)
            return EXIT_OK

        if args.command == "canon":
            print(parse(_read_source(args.text)).text, file=out)
            return EXIT_OK

        if args.command == "card":
            print(cardinality(evaluate(_read_source(args.expr))), file=out)
            return EXIT_OK

        if args.command == "constituents":
            for c in constituents(evaluate(_read_source(args.expr))):
                print(c.text, file=out)
            return EXIT_OK

        if args.command == "instances":
            print(instance_count(evaluate(_read_source(args.expr))), file=out)
            return EXIT_OK

        if args.command == "structure":
            g = structure_of(evaluate(_read_source(args.expr)))
            if args.format == "dot":
                out.write(to_dot(g))
            elif args.format == "json":
                out.write(to_json(g))
            else:
                out.write(_structure_text(g))
            return EXIT_OK

        if args.command == "iso":
            g1 = structure_of(evaluate(args.left))
            g2 = structure_of(evaluate(args.right))
            witness = isomorphic(g1, g2)
            if witness is None:
                print("NOT-ISO", file=out)
                return EXIT_FALSE
            print("ISO", file=out)
            texts: dict[SetHandle, str] = {}
            for v in range(g1.n):
                lhs = to_text(g1.tags[v], texts) if g1.tags[v] is not None else f"v{v}"
                w = witness.mapping[v]
                rhs = to_text(g2.tags[w], texts) if g2.tags[w] is not None else f"v{w}"
                print(f"{lhs} -> {rhs}", file=out)
            return EXIT_OK

        if args.command == "tuple":
            t = evaluate(args.expr)
            path = _parse_path(args.path)
            if args.tuple_command == "has":
                if contains_position(t, path):
                    print("true", file=out)
                    return EXIT_OK
                print("false", file=out)
                return EXIT_DOMAIN
            print(get_at(t, path).text, file=out)
            return EXIT_OK

        if args.command == "num":
            if args.num_command == "encode":
                if args.value < 0:
                    print("value must be a natural number", file=sys.stderr)
                    return EXIT_DOMAIN
                build = zermelo if args.scheme == "zermelo" else vn
                print(build(args.value).text, file=out)
                return EXIT_OK
            if args.num_command == "decode":
                h = evaluate(_read_source(args.expr))
                scheme = _scheme_of([h], args.scheme)
                if scheme is None:
                    return EXIT_DOMAIN
                value = as_zermelo(h) if scheme == "zermelo" else as_vn(h)
                if value is None:
                    print(f"not a {scheme} numeral", file=sys.stderr)
                    return EXIT_DOMAIN
                print(value, file=out)
                return EXIT_OK
            a = evaluate(args.left)
            b = evaluate(args.right)
            if args.num_command == "mul":
                print(mul_structural(a, b).text, file=out)
                return EXIT_OK
            scheme = _scheme_of([a, b], args.scheme)
            if scheme is None:
                return EXIT_DOMAIN
            result = add_zermelo(a, b) if scheme == "zermelo" else add_vn(a, b)
            print(result.text, file=out)
            return EXIT_OK

        if args.command == "fuse":
            left = evaluate(args.top)
            right = evaluate(args.bottom)
            if args.check_top:
                found = fusion.has_top_structure(left, right, budget=args.budget)
                print("true" if found else "false", file=out)
                return EXIT_OK if found else EXIT_FALSE
            if args.check_bottom:
                found = fusion.has_bottom_structure(left, right, budget=args.budget)
                print("true" if found else "false", file=out)
                return EXIT_OK if found else EXIT_FALSE
            print(fusion.fuse(left, right).text, file=out)
            return EXIT_OK

        if args.command == "close":
            print(fusion.close(evaluate(_read_source(args.expr))).text, file=out)
            return EXIT_OK

        if args.command == "corpus":
            for h in corpus_mod.generate(args.seed, args.count, args.max_depth):
                print(h.text, file=out)
            return EXIT_OK

    except (ExprSyntaxError, MalformedText) as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return EXIT_SYNTAX
    except CalculusError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN

    raise AssertionError(f"unhandled command {args.command!r}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
