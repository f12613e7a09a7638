"""algebra_corpus: the read-heavy kernel and algebra path on a seeded corpus.

Corpus sets on a ladder of generator shapes, depth 5/width 3 up to depth
7/width 4, each rung in its own band of canonical text length, 20 to 380
characters in all.  Every
query is a replacement-algebra operation; the loop cycles the schedule many
times, so after the first pass nearly every make_set is an intern hit.
Fusion, tuples and structure do no work here.
"""

from __future__ import annotations

import random

import oracle
from workloads.common import Inputs, check_text, corpus, expect, memcap_vn40, spec_dict, token

# (depth, width, shortest, longest canonical text): each rung keeps the sets
# of one generator shape within one length band, so its cost is steady
RUNGS = ((5, 3, 20, 60), (6, 3, 60, 120), (6, 4, 120, 240), (7, 4, 240, 380))
PER_RUNG = 400
TRACE_QUERIES = 10 * len(RUNGS) * PER_RUNG  # the traced run makes 10 passes
ORDER = (
    "parse",
    "replace",
    "compose",
    "assoc",
    "is_top",
    "remove_bottom",
    "lcc_set",
    "maximal_constituents",
    "map_union",
    "instance_count",
)


def spec(seed: int) -> dict:
    rng = random.Random(seed)
    inputs = Inputs()
    queries = []
    ladder = [
        (f"d{depth}w{width}", [inputs.add(raw, can) for raw, can in corpus(rng, depth, width, PER_RUNG, lo, hi)])
        for depth, width, lo, hi in RUNGS
    ]
    # operands copied into every empty leaf or subterm come from the first rung
    small = ladder[0][1]
    for rung, items in ladder:
        for n, x in enumerate(items):
            kind = ORDER[n % len(ORDER)]
            X = inputs.canon[x]
            other = rng.choice(items)
            if kind == "parse":
                args = [x]
            elif kind == "replace":
                if rng.random() < 0.5:
                    y = inputs.add(rng.choice(sorted(oracle.constituents(X))))
                else:
                    y = other
                args = [x, y, rng.choice(items)]
            elif kind == "compose":
                args = [x, rng.choice(small)]
            elif kind == "assoc":
                args = [rng.choice(small), rng.choice(small), rng.choice(small)]
            elif kind == "is_top":
                # half true (b = c(a) by construction), half decided by the oracle
                c = rng.choice(small)
                if rng.random() < 0.5:
                    b = inputs.add(oracle.compose(inputs.canon[c], X))
                else:
                    b = x
                args = [c, b]
            elif kind == "remove_bottom":
                a = inputs.add(rng.choice(sorted(oracle.constituents(X))))
                args = [x, a]
            elif kind == "lcc_set":
                args = [x, other]
            elif kind == "maximal_constituents":
                args = [x]
            elif kind == "map_union":
                args = [x, rng.choice(small)]
            else:
                args = [x]
            queries.append([kind, rung, args])
    rng.shuffle(queries)
    return spec_dict(inputs, queries, sorted(PROBES))


def _remove_bottom(ctx, args):
    b, a = ctx.H[args[0]], ctx.H[args[1]]
    held = ctx.c.has_bottom(b, a)
    try:
        return held, ctx.c.remove_bottom(b, a)
    except ctx.c.NotABottom:
        return held, None


def _check_remove_bottom(ctx, args, result):
    B, A = ctx.T[args[0]], ctx.T[args[1]]
    held, rest = result
    expected = oracle.has_bottom(B, A)
    expect(held == expected, f"has_bottom said {held}")
    if not expected:
        expect(rest is None, "remove_bottom accepted a non-bottom")
        return "no-bottom"
    return check_text(rest, oracle.replace(B, A, oracle.EMPTY))


def _assoc(ctx, args):
    compose = ctx.c.compose
    a, b, c = (ctx.H[i] for i in args)
    return compose(compose(a, b), c), compose(a, compose(b, c))


def _check_assoc(ctx, args, result):
    A, B, C = (ctx.T[i] for i in args)
    expect(result[0] is result[1], "composition is not associative")
    return check_text(result[0], oracle.compose(oracle.compose(A, B), C))


def _is_top(ctx, args):
    return ctx.c.is_top(ctx.H[args[0]], ctx.H[args[1]])


def _check_is_top(ctx, args, result):
    expected = oracle.is_top(ctx.T[args[0]], ctx.T[args[1]])
    expect(result == expected, f"is_top said {result}")
    return str(result)


def _check_parse(ctx, args, result):
    # the set-up parse of the same text was checked against the oracle
    expect(result is ctx.H[args[0]], "parse gave another handle")
    return token(ctx.T[args[0]])


def _check_count(ctx, args, result):
    expected = oracle.instance_count(ctx.T[args[0]])
    expect(result == expected, f"instance_count {result} != {expected}")
    return str(result)


KINDS = {
    "parse": (lambda ctx, a: ctx.c.parse(ctx.spec["texts"][a[0]]), _check_parse),
    "replace": (
        lambda ctx, a: ctx.c.replace(ctx.H[a[0]], ctx.H[a[1]], ctx.H[a[2]]),
        lambda ctx, a, r: check_text(r, oracle.replace(ctx.T[a[0]], ctx.T[a[1]], ctx.T[a[2]])),
    ),
    "compose": (
        lambda ctx, a: ctx.c.compose(ctx.H[a[0]], ctx.H[a[1]]),
        lambda ctx, a, r: check_text(r, oracle.compose(ctx.T[a[0]], ctx.T[a[1]])),
    ),
    "assoc": (_assoc, _check_assoc),
    "is_top": (_is_top, _check_is_top),
    "remove_bottom": (_remove_bottom, _check_remove_bottom),
    "lcc_set": (
        lambda ctx, a: ctx.c.lcc_set(ctx.H[a[0]], ctx.H[a[1]]),
        lambda ctx, a, r: check_text(r, oracle.lcc_set(ctx.T[a[0]], ctx.T[a[1]])),
    ),
    "maximal_constituents": (
        lambda ctx, a: ctx.c.maximal_constituents(ctx.H[a[0]]),
        lambda ctx, a, r: check_text(r, oracle.maximal_constituents(ctx.T[a[0]])),
    ),
    "map_union": (
        lambda ctx, a: ctx.c.map_union(ctx.H[a[0]], ctx.H[a[1]]),
        lambda ctx, a, r: check_text(r, oracle.map_union(ctx.T[a[0]], ctx.T[a[1]])),
    ),
    "instance_count": (
        lambda ctx, a: ctx.c.instance_count(ctx.H[a[0]]),
        _check_count,
    ),
}


def _chain_replace(c):
    """Deeper rung of replace: a successor chain of depth 1200."""
    z = c.zermelo(1200)
    c.replace(z, c.zermelo(1), c.vn(3))


def _chain_compose(c):
    """Deeper rung of compose: a chain of depth 3000 composed onto 2."""
    c.compose(c.zermelo(3000), c.zermelo(2))


def _deep_parse(c):
    """Deeper rung of parse: 100,000 nested braces."""
    c.parse("{" * 100_000 + "}" * 100_000)


PROBES = {
    "replace_chain_1200": _chain_replace,
    "compose_chain_3000": _chain_compose,
    "parse_nested_100000": _deep_parse,
    "memcap_vn40_text": memcap_vn40,
}
