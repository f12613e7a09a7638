"""Command-line front end.

Every subcommand reads its inputs from arguments, evaluates them in the
expression language, and prints newline-terminated, byte-deterministic
output.  The one-operand commands (eval, canon, card, constituents,
instances, structure, num decode and close) read their operand from stdin
when the argument is "-" or omitted; the others take every operand as an
argument.

Exit codes: 0 success or true; 1 a negative answer (not isomorphic, false);
2 domain error (including a missing tuple position); 3 syntax error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable

from . import corpus as corpus_mod
from . import fusion
from .errors import CalculusError, ExprSyntaxError, MalformedText
from .expr import evaluate
from .kernel import SetHandle, cardinality, constituents, instance_count, parse, to_text
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


def _truth(found: bool, false_code: int = EXIT_FALSE) -> int:
    """Print true or false; exit 0 when true, else false_code."""
    print("true" if found else "false")
    return EXIT_OK if found else false_code


def _structure_text(g) -> str:
    """The text format of a diagram from structure_of, whose every vertex is tagged."""
    lines = ["vertices:"]
    texts: dict[SetHandle, str] = {}
    for v, tag in enumerate(g.tags):
        lines.append(f"  {v}  {to_text(tag, texts)}")
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


def _printing(show: Callable[[argparse.Namespace], object]) -> Callable[[argparse.Namespace], int]:
    """The runner of a command that prints show(args) and exits 0."""

    def run(args: argparse.Namespace) -> int:
        print(show(args))
        return EXIT_OK

    return run


def _operand(args: argparse.Namespace) -> SetHandle:
    """The value of the one expression: the argument, or stdin when omitted or "-"."""
    return evaluate(_read_source(args.expr))


def _structure(args: argparse.Namespace) -> int:
    g = structure_of(_operand(args))
    # built per call, so that wrappers bound after import (perfbench's tracer) see the calls
    render = {"dot": to_dot, "json": to_json, "text": _structure_text}[args.format]
    sys.stdout.write(render(g))
    return EXIT_OK


def _iso(args: argparse.Namespace) -> int:
    g1, g2 = structure_of(evaluate(args.left)), structure_of(evaluate(args.right))
    witness = isomorphic(g1, g2)
    if witness is None:
        print("NOT-ISO")
        return EXIT_FALSE
    print("ISO")
    texts: dict[SetHandle, str] = {}
    for v, w in enumerate(witness.mapping):
        print(f"{to_text(g1.tags[v], texts)} -> {to_text(g2.tags[w], texts)}")
    return EXIT_OK


def _tuple_at(args: argparse.Namespace) -> tuple[SetHandle, list[int]]:
    """The tuple and the path of a tuple command."""
    return evaluate(args.expr), _parse_path(args.path)


def _num_add(args: argparse.Namespace) -> int:
    a, b = evaluate(args.left), evaluate(args.right)
    scheme = _scheme_of([a, b], args.scheme)
    if scheme is None:
        return EXIT_DOMAIN
    result = add_zermelo(a, b) if scheme == "zermelo" else add_vn(a, b)
    print(result.text)
    return EXIT_OK


def _num_encode(args: argparse.Namespace) -> int:
    if args.value < 0:
        print("value must be a natural number", file=sys.stderr)
        return EXIT_DOMAIN
    build = zermelo if args.scheme == "zermelo" else vn
    print(build(args.value).text)
    return EXIT_OK


def _num_decode(args: argparse.Namespace) -> int:
    h = _operand(args)
    scheme = _scheme_of([h], args.scheme)
    if scheme is None:
        return EXIT_DOMAIN
    value = as_zermelo(h) if scheme == "zermelo" else as_vn(h)
    if value is None:
        print(f"not a {scheme} numeral", file=sys.stderr)
        return EXIT_DOMAIN
    print(value)
    return EXIT_OK


def _fuse(args: argparse.Namespace) -> int:
    left, right = evaluate(args.top), evaluate(args.bottom)
    if args.check_top:
        return _truth(fusion.has_top_structure(left, right, budget=args.budget))
    if args.check_bottom:
        return _truth(fusion.has_bottom_structure(left, right))
    print(fusion.fuse(left, right).text)
    return EXIT_OK


def _corpus(args: argparse.Namespace) -> int:
    for h in corpus_mod.generate(args.seed, args.count, args.max_depth):
        print(h.text)
    return EXIT_OK


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
    p_eval.set_defaults(run=_printing(lambda args: _operand(args).text))

    p_canon = sub.add_parser("canon", help="re-canonicalize brace text")
    p_canon.add_argument("text", nargs="?", help="brace text (stdin if omitted)")
    p_canon.set_defaults(run=_printing(lambda args: parse(_read_source(args.text)).text))

    p_card = sub.add_parser("card", help="number of elements")
    p_card.add_argument("expr", nargs="?")
    p_card.set_defaults(run=_printing(lambda args: cardinality(_operand(args))))

    p_cons = sub.add_parser("constituents", help="all constituents, one per line")
    p_cons.add_argument("expr", nargs="?")
    p_cons.set_defaults(
        run=_printing(lambda args: "\n".join(c.text for c in constituents(_operand(args))))
    )

    p_inst = sub.add_parser("instances", help="number of instances (occurrences)")
    p_inst.add_argument("expr", nargs="?")
    p_inst.set_defaults(run=_printing(lambda args: instance_count(_operand(args))))

    p_struct = sub.add_parser("structure", help="covering diagram of the constituents")
    p_struct.add_argument("expr", nargs="?")
    p_struct.add_argument(
        "--format", choices=("dot", "json", "text"), default="dot"
    )
    p_struct.set_defaults(run=_structure)

    p_iso = sub.add_parser("iso", help="isomorphism of two structure diagrams")
    p_iso.add_argument("left")
    p_iso.add_argument("right")
    p_iso.set_defaults(run=_iso)

    p_tuple = sub.add_parser("tuple", help="positional tuple access")
    tuple_sub = p_tuple.add_subparsers(dest="tuple_command", required=True)
    p_tget = tuple_sub.add_parser("get", help="occupant at a path")
    p_tget.add_argument("expr")
    p_tget.add_argument("path", help="comma-separated naturals, innermost-first")
    p_tget.set_defaults(run=_printing(lambda args: get_at(*_tuple_at(args)).text))
    p_thas = tuple_sub.add_parser("has", help="whether a path is occupied")
    p_thas.add_argument("expr")
    p_thas.add_argument("path", help="comma-separated naturals, innermost-first")
    p_thas.set_defaults(run=lambda args: _truth(contains_position(*_tuple_at(args)), EXIT_DOMAIN))

    p_num = sub.add_parser("num", help="numeral arithmetic and codecs")
    num_sub = p_num.add_subparsers(dest="num_command", required=True)
    p_nadd = num_sub.add_parser("add", help="sum of two numerals")
    p_nadd.add_argument("left")
    p_nadd.add_argument("right")
    p_nadd.add_argument("--scheme", choices=("auto", "zermelo", "vn"), default="auto")
    p_nadd.set_defaults(run=_num_add)
    p_nmul = num_sub.add_parser("mul", help="product of two successor numerals")
    p_nmul.add_argument("left")
    p_nmul.add_argument("right")
    p_nmul.set_defaults(
        run=_printing(lambda args: mul_structural(evaluate(args.left), evaluate(args.right)).text)
    )
    p_nenc = num_sub.add_parser("encode", help="natural number to numeral")
    p_nenc.add_argument("value", type=int)
    p_nenc.add_argument("--scheme", choices=("zermelo", "vn"), required=True)
    p_nenc.set_defaults(run=_num_encode)
    p_ndec = num_sub.add_parser("decode", help="numeral to natural number")
    p_ndec.add_argument("expr", nargs="?")
    p_ndec.add_argument("--scheme", choices=("auto", "zermelo", "vn"), default="auto")
    p_ndec.set_defaults(run=_num_decode)

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
    p_fuse.set_defaults(run=_fuse)

    p_close = sub.add_parser("close", help="ground a middle structure to a plain set")
    p_close.add_argument("expr", nargs="?")
    p_close.set_defaults(run=_printing(lambda args: fusion.close(_operand(args)).text))

    p_corpus = sub.add_parser("corpus", help="deterministic pseudo-random sets")
    p_corpus.add_argument("--seed", type=int, default=0)
    p_corpus.add_argument("--count", type=int, default=10)
    p_corpus.add_argument("--max-depth", type=int, default=4)
    p_corpus.set_defaults(run=_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except (ExprSyntaxError, MalformedText) as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return EXIT_SYNTAX
    except CalculusError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
