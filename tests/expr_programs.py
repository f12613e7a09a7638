"""Seeded random programs of the expression language, for a golden replay.

A small grammar generator writes well-formed programs as token lists: let
statements, juxtaposition, every atom and every kind of parenthesized tail,
brace literals and braces read by the grammar, fuse/close/kpair with fitting
and with mismatched arguments, bound and unbound names.  Each well-formed
program is also copied with one or two tokens inserted, deleted or replaced,
which reaches the syntax errors.  Tokens are joined with random blanks, and
with at least one space where two tokens would otherwise read as one.

    PYTHONPATH=src python3 tests/expr_programs.py

writes tests/golden/expr_programs.json: one [program, outcome] pair per line,
where the outcome is the result's canonical text or "ExceptionType: message".
Programs whose result text is longer than MAX_TEXT characters are left out.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from conset.expr import evaluate

GOLDEN = Path(__file__).resolve().parent / "golden" / "expr_programs.json"
SEED = 17
PROGRAMS = 1200  # well-formed programs; each also gets one mutated copy
MAX_TEXT = 200

BOUND = ("a", "b", "s")
UNBOUND = ("q", "x_1", "zz")
VOCABULARY = (
    "{", "}", "(", ")", "[", "]", ",", ";", "=", "->", "\n", "{}", "{{}}",
    "let", "M", "D", "P", "V", "fuse", "close", "kpair",
    "0", "2", "V2", "a", "q", "@", "²", "-", ">",
)
BLANKS = ("", "", "", " ", " ", "  ", "\t", "\r", " \r ")


def _commas(parts: list[list[str]]) -> list[str]:
    """The token lists in parts, with a comma between each two."""
    out: list[str] = []
    for i, part in enumerate(parts):
        out += ([","] if i else []) + part
    return out


def _literal(rng: random.Random, depth: int) -> list[str]:
    """A brace-only set display, one token per brace and comma."""
    n = 0 if depth <= 0 else rng.choice((0, 0, 1, 1, 2, 3))
    return ["{", *_commas([_literal(rng, depth - 1) for _ in range(n)]), "}"]


def _listed(rng: random.Random, depth: int, bound: tuple, n: int) -> list[str]:
    return _commas([_expr(rng, depth, bound) for _ in range(n)])


def _atom(rng: random.Random, depth: int, bound: tuple) -> list[str]:
    kinds = ["nat", "vnat", "D", "P", "literal"] + ["name"] * (2 * len(bound))
    if depth > 0:
        kinds += ["braces"] * 4 + ["tuple", "middle", "kpair"]
    kind = rng.choice(kinds)
    if depth > 0 and rng.random() < 0.08:
        kind = rng.choice(("fuse", "close"))
    if kind == "nat":
        return [str(rng.randrange(5))]
    if kind == "vnat":
        return ["V" + str(rng.randrange(4))]
    if kind == "D":
        return ["D"]
    if kind == "P":
        coords = [str(rng.randrange(3)) for _ in range(rng.randrange(1, 4))]
        return ["P", "(", *_commas([[c] for c in coords]), ")"]
    if kind == "name":
        return [rng.choice(bound if rng.random() < 0.95 else UNBOUND)]
    if kind == "literal":
        return _literal(rng, rng.randrange(4))
    if kind == "braces":
        return ["{", *_listed(rng, depth - 1, bound, rng.randrange(3)), "}"]
    if kind == "tuple":
        return ["(", *_listed(rng, depth - 1, bound, rng.choice((2, 2, 3))), ")"]
    if kind == "middle":
        return ["[", *_listed(rng, depth - 1, bound, rng.choice((1, 2, 2, 3))), "]", "M"]
    if kind == "close":
        if rng.random() < 0.85:
            inner = ["[", *_listed(rng, depth - 1, bound, rng.choice((1, 2))), "]", "M"]
        else:
            inner = _expr(rng, depth - 1, bound)
        return ["close", "(", *inner, ")"]
    if kind == "kpair":
        return ["kpair", "(", *_listed(rng, depth - 1, bound, 2), ")"]
    # fuse: a top of m empty slots and a bottom of m' numbered branches
    m = rng.choice((2, 2, 3))
    branches = m if rng.random() < 0.8 else m + rng.choice((-1, 1))
    if rng.random() < 0.1:
        top = _expr(rng, depth - 1, bound)
    else:
        top = ["(", *_commas([["0"]] * m), ")"]
    bottom = _commas(
        [([str(n)] if n else []) + ["D", "(", *_expr(rng, depth - 2, bound), ")"]
         for n in range(branches)]
    )
    return ["fuse", "(", *top, ",", "{", *bottom, "}", ")"]


def _unit(rng: random.Random, depth: int, bound: tuple) -> list[str]:
    out = _atom(rng, depth, bound)
    while depth > 0 and rng.random() < 0.2:
        tail = rng.choice(("apply", "replace", "tuple"))
        first = _expr(rng, depth - 1, bound)
        if tail == "apply":
            out += ["(", *first, ")"]
        elif tail == "replace":
            out += ["(", *first, "->", *_expr(rng, depth - 1, bound), ")"]
        else:
            out += ["(", *first, ",", *_listed(rng, depth - 1, bound, rng.choice((1, 2))), ")"]
    return out


def _expr(rng: random.Random, depth: int, bound: tuple) -> list[str]:
    out = _unit(rng, depth, bound)
    while rng.random() < 0.15:
        out += _unit(rng, depth - 1, bound)
    return out


def _program(rng: random.Random) -> list[str]:
    out: list[str] = [rng.choice(("\n", ";"))] if rng.random() < 0.1 else []
    bound: tuple = ()
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        name = rng.choice(BOUND)
        out += ["let", name, "=", *_expr(rng, rng.choice((1, 2)), bound), rng.choice((";", "\n", ";", "\n\n"))]
        bound = tuple(sorted({*bound, name}))
    out += _expr(rng, rng.choice((1, 2, 2, 3)), bound)
    if rng.random() < 0.1:
        out.append(rng.choice(("\n", ";")))
    return out


def _mutate(rng: random.Random, toks: list[str]) -> list[str]:
    toks = list(toks)
    for _ in range(rng.choice((1, 1, 2))):
        op, i = rng.choice(("insert", "delete", "replace")), rng.randrange(len(toks) + 1)
        if op == "insert":
            toks.insert(i, rng.choice(VOCABULARY))
        elif i < len(toks):
            toks[i : i + 1] = [] if op == "delete" else [rng.choice(VOCABULARY)]
    return toks


def _join(rng: random.Random, toks: list[str]) -> str:
    out = ""
    for t in toks:
        gap = rng.choice(BLANKS)
        if not gap and out and (out[-1].isalnum() or out[-1] in "_-") and (t[0].isalnum() or t[0] in "_>"):
            gap = " "
        out += gap + t
    return out


def programs(seed: int = SEED, count: int = PROGRAMS) -> list[str]:
    """count well-formed programs, each followed by its mutated copy."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        toks = _program(rng)
        out += [_join(rng, toks), _join(rng, _mutate(rng, toks))]
    return out


def outcome(source: str) -> str | None:
    """The canonical text of the program's result, or its exception."""
    try:
        h = evaluate(source)
    except Exception as e:
        return f"{type(e).__name__}: {e}"
    return h.text if h.size <= MAX_TEXT else None


def main() -> None:
    pairs = [(p, o) for p in programs() if (o := outcome(p)) is not None]
    lines = ",\n".join(json.dumps(pair, ensure_ascii=False) for pair in pairs)
    GOLDEN.write_text("[\n" + lines + "\n]\n", encoding="utf-8")
    print(f"{len(pairs)} programs written to {GOLDEN}")


if __name__ == "__main__":
    main()
