"""fusion_tuples: positional tuples and the fusion calculus on small sets.

Every operand comes from the seeded corpus slice whose canonical text has at
most 40 characters.  Tuple queries (make_tuple, get_at, contains_position)
outnumber the rest; fusion queries (tuple-top fusion, closed middle
quadruples, permutation wiring, bounded decomposition searches) take most of
the time, nearly all of it in the marker scan that validates structures.
Operands of one fusion rung have text lengths within two characters of the
rung's size, so a rung's cost barely depends on the seed; the tuple_top
ladder (top_structure of (vn(k), {}) for k = 4..7) does not depend on it at
all.
"""

from __future__ import annotations

import random

import oracle
from workloads.common import Inputs, check_text, expect, memcap_vn40, pick_independent, pool, spec_dict, token

BUDGET = 4000  # fixed search budget of the decomposition queries

# (kind, rung) -> queries in one pass of the schedule.  The counts put the
# median inside the get_at depth2 rung and the 95th percentile inside the
# tuple_top k7 rung, whose cost does not depend on the seed.
MIX = {
    ("make_tuple", "m2"): 15,
    ("make_tuple", "m3"): 15,
    ("make_tuple", "m4"): 15,
    ("contains_position", "depth1"): 15,
    ("contains_position", "depth3"): 15,
    ("get_at", "depth1"): 25,
    ("get_at", "depth2"): 100,
    ("get_at", "depth3"): 25,
    ("has_bottom", "true"): 10,
    ("has_bottom", "false"): 10,
    ("fuse_tuple", "m2"): 10,
    ("fuse_tuple", "m3"): 10,
    ("fuse_tuple", "m4"): 10,
    ("has_top", "true"): 10,
    ("has_top", "false"): 10,
    ("perm_wiring", "m2"): 10,
    ("perm_wiring", "m3"): 10,
    ("close_quad", "s8"): 15,
    ("close_quad", "s12"): 15,
    ("tuple_top", "k4"): 4,
    ("tuple_top", "k5"): 4,
    ("tuple_top", "k6"): 4,
    ("tuple_top", "k7"): 31,
}


def _near(texts: list[str], size: int) -> list[str]:
    return [t for t in texts if abs(len(t) - size) <= 2]


def spec(seed: int) -> dict:
    rng = random.Random(seed)
    small = pool(rng, 5, 3, 4000, 40)
    inputs = Inputs()
    add = inputs.add
    queries = []

    def nested(depth: int):
        """A tuple nested `depth` deep, its path to an entry, and that entry."""
        entries = [rng.choice(small) for _ in range(rng.randint(2, 4))]
        i = rng.randrange(len(entries))
        path, target, t = [i], entries[i], oracle.make_tuple(entries)
        for _ in range(depth - 1):
            outer = [rng.choice(small) for _ in range(rng.randint(1, 2))]
            j = rng.randrange(len(outer) + 1)
            outer.insert(j, t)
            path.append(j)
            t = oracle.make_tuple(outer)
        return t, path, target

    for (kind, rung), count in MIX.items():
        size = int(rung[1:]) if kind == "close_quad" else None
        m = int(rung[1:]) if rung.startswith("m") else None
        for _ in range(count):
            if kind == "make_tuple":
                args = [add(e) for e in (rng.choice(small) for _ in range(m))]
            elif kind == "get_at":
                t, path, target = nested(int(rung[5:]))
                args = [add(t), path, add(target)]
            elif kind == "contains_position":
                t, path, _ = nested(int(rung[5:]))
                path = [rng.randrange(5) for _ in path]
                args = [add(t), path, oracle.is_constituent(oracle.position_path(path), t)]
            elif kind == "fuse_tuple":
                es = pick_independent(rng, small, m)
                bottom = oracle.make(oracle.branch(n, e) for n, e in enumerate(es))
                args = [add(oracle.make_tuple([oracle.EMPTY] * m)), add(bottom), add(oracle.make(es))]
            elif kind == "tuple_top":
                # the marker-scan ladder: a cumulative numeral beside the empty set
                t = oracle.make_tuple([oracle.vn(int(rung[1:])), oracle.EMPTY])
                args = [add(t), _markers(t)]
            elif kind == "close_quad":
                near = _near(small, size)
                while True:
                    a, b, c, d = (rng.choice(near) for _ in range(4))
                    ac, bd = oracle.compose(a, c), oracle.compose(b, d)
                    if all(map(oracle.independent, ([a, b], [c, d], [ac, bd]))):
                        break
                args = [add(a), add(b), add(c), add(d), add(oracle.make([ac, bd]))]
            elif kind == "perm_wiring":
                es = pick_independent(rng, _near(small, 12), m)
                perm = list(range(m))
                while perm == sorted(perm):
                    rng.shuffle(perm)
                wired = oracle.make(oracle.middle_entry(n, es[p], p) for n, p in enumerate(perm))
                args = [perm, [add(e) for e in es], add(wired)]
            elif kind == "has_top":
                top = oracle.kuratowski_pair(oracle.position(0), oracle.position(1))
                if rung == "true":
                    x = oracle.kuratowski_pair(*pick_independent(rng, small, 2))
                else:
                    # a fusion onto a two-element top has at most two elements
                    x = rng.choice([t for t in small if len(oracle.elements(t)) >= 3])
                args = [add(top), add(x), rung == "true"]
            else:  # has_bottom
                es = pick_independent(rng, small, 2)
                bottom = oracle.make(oracle.branch(n, e) for n, e in enumerate(es))
                if rung == "true":
                    x = oracle.make(es)
                else:
                    # every branch fused into a set survives as its constituent
                    x = rng.choice([t for t in small if not oracle.is_constituent(es[0], t)])
                args = [add(x), add(bottom), rung == "true"]
            queries.append([kind, rung, args])
    rng.shuffle(queries)
    return spec_dict(inputs, queries, sorted(PROBES))


def _markers(t: str) -> list[int]:
    """Every n whose position marker occurs in t (a marker has 6n + 18 chars)."""
    return [n for n in range((len(t) - 18) // 6 + 1) if oracle.is_constituent(oracle.position(n), t)]


def _check_top(ctx, args, top):
    expect(top.set is ctx.H[args[0]], "top_structure describes another set")
    expect((top.arity, top.offset) == (len(args[1]), 0) and args[1] == list(range(len(args[1]))),
           f"arity {top.arity}, offset {top.offset}")
    return str(top.arity)


def _check_get_at(ctx, args, result):
    expect(result is ctx.H[args[2]], f"get_at {args[1]} returned another entry")
    return token(ctx.T[args[2]])


def _check_bool(ctx, args, result):
    expect(result == args[-1], f"answered {result}")
    return str(result)


def _close_quad(ctx, args):
    c = ctx.c
    a, b, cc, d = (ctx.H[i] for i in args[:4])
    return c.close(c.fuse_middle(c.middle([a, b]), c.middle([cc, d])))


def _perm_wiring(ctx, args):
    c = ctx.c
    return c.fuse_middle(c.middle_permutation(args[0]), c.middle([ctx.H[i] for i in args[1]])).set


KINDS = {
    "make_tuple": (
        lambda ctx, a: ctx.c.make_tuple([ctx.H[i] for i in a]),
        lambda ctx, a, r: check_text(r, oracle.make_tuple([ctx.T[i] for i in a])),
    ),
    "get_at": (lambda ctx, a: ctx.c.get_at(ctx.H[a[0]], a[1]), _check_get_at),
    "contains_position": (lambda ctx, a: ctx.c.contains_position(ctx.H[a[0]], a[1]), _check_bool),
    "fuse_tuple": (
        lambda ctx, a: ctx.c.fuse(ctx.H[a[0]], ctx.H[a[1]]),
        lambda ctx, a, r: check_text(r, ctx.T[a[2]]),
    ),
    "close_quad": (_close_quad, lambda ctx, a, r: check_text(r, ctx.T[a[4]])),
    "tuple_top": (lambda ctx, a: ctx.c.top_structure(ctx.H[a[0]]), _check_top),
    "perm_wiring": (_perm_wiring, lambda ctx, a, r: check_text(r, ctx.T[a[2]])),
    "has_top": (
        lambda ctx, a: ctx.c.has_top_structure(ctx.H[a[0]], ctx.H[a[1]], budget=BUDGET),
        _check_bool,
    ),
    "has_bottom": (
        lambda ctx, a: ctx.c.has_bottom_structure(ctx.H[a[0]], ctx.H[a[1]], budget=BUDGET),
        _check_bool,
    ),
}


def _budget(c):
    """Deeper rung of has_top: a three-element set with 82 constituents makes
    more than BUDGET candidate assignments for a two-slot top."""
    x = c.make_set([c.zermelo(40), c.zermelo(60), c.zermelo(80)])
    c.has_top_structure(c.kuratowski_top(), x, budget=BUDGET)


PROBES = {
    "has_top_budget": _budget,
    "memcap_vn40_text": memcap_vn40,
}
