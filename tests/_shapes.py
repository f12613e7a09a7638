"""Shapes shared by the test modules: deterministic diagrams for the
structure tests and the scale checks, and sets drawn or built for the kernel
and algebra tests, with the helpers that count the handles an operation
makes."""
from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from _oracles import permute_graph
from conset import StructureGraph, empty, kernel, make_set


def shuffled(g: StructureGraph, rng: random.Random) -> StructureGraph:
    """g with its vertices relabelled by a permutation drawn from rng."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return permute_graph(g, perm)


def fan(*lengths: int) -> StructureGraph:
    """Bottom 0 and top 1 joined by one chain per length, of that many vertices."""
    edges = []
    nxt = 2
    for k in lengths:
        below = 0
        for v in range(nxt, nxt + k):
            edges.append((below, v))
            below = v
        edges.append((below, 1))
        nxt += k
    return StructureGraph(
        tags=(None,) * nxt, edges=tuple(sorted(edges)), top=1, bottom=0
    )


def cfi(base: int, seed: int, twisted: bool) -> StructureGraph:
    """A Cai-Furer-Immerman graph on four levels over a random 3-regular
    graph of `base` vertices, with its first edge twisted when asked.

    The base graph is drawn from the configuration model, again until it
    has no loop and no repeated edge.  Level 1: for each base vertex x and
    each even subset S of its three edges, a vertex m(x, S) above the
    bottom.  Level 2: for each edge e at x and each bit b, a vertex
    a(x, e, b) above the m(x, S) with [e in S] = b.  Level 3: for each edge
    e = {x, y} and each bit b, a vertex p(e, b) above a(x, e, b) and
    a(y, e, b), or a(y, e, 1 - b) on the twisted edge.  The top is above
    every p.  Color refinement does not tell the two twists apart, yet they
    are not isomorphic.
    """
    rng = random.Random(seed)
    while True:
        points = [v for v in range(base) for _ in range(3)]
        rng.shuffle(points)
        pairs = [tuple(sorted(points[i : i + 2])) for i in range(0, len(points), 2)]
        if all(x != y for x, y in pairs) and len(set(pairs)) == len(pairs):
            break
    ends: list[list[int]] = [[] for _ in range(base)]
    for e, pair in enumerate(pairs):
        for x in pair:
            ends[x].append(e)
    n = 1 + 4 * base + 6 * base + 2 * len(pairs) + 1
    a = {}  # (x, e, b) -> vertex
    edges = []
    nxt = 1
    for x in range(base):
        for e in ends[x]:
            for b in (0, 1):
                a[x, e, b] = nxt
                nxt += 1
    for x in range(base):
        for subset in ((0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
            edges.append((0, nxt))
            edges += [(nxt, a[x, e, b]) for e, b in zip(ends[x], subset)]
            nxt += 1
    for e, (x, y) in enumerate(pairs):
        for b in (0, 1):
            flip = int(twisted and e == 0)
            edges += [(a[x, e, b], nxt), (a[y, e, b ^ flip], nxt), (nxt, n - 1)]
            nxt += 1
    return StructureGraph(
        tags=(None,) * n, edges=tuple(sorted(edges)), top=n - 1, bottom=0
    )


def layered_dag(seed: int) -> StructureGraph:
    """A seeded random diagram on at most 9 vertices, edges between layers.

    Each vertex gets lower covers from the layer below and at least one
    upper cover in the layer above, so the bottom and the top are the only
    source and sink; narrow layers make twins and automorphisms common.
    """
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    layers = [[0]]
    v = 1
    while v < n - 1:
        k = rng.randint(1, min(3, n - 1 - v))
        layers.append(list(range(v, v + k)))
        v += k
    layers.append([n - 1])
    edges: set[tuple[int, int]] = set()
    for below, above in zip(layers, layers[1:]):
        for u in above:
            for w in rng.sample(below, rng.randint(1, len(below))):
                edges.add((w, u))
        for w in below:
            if all(a != w for a, _ in edges):
                edges.add((w, rng.choice(above)))
    return StructureGraph(
        tags=(None,) * n, edges=tuple(sorted(edges)), top=n - 1, bottom=0
    )


def handles(max_width: int = 3):
    """Hypothesis strategy producing interned set handles."""
    return st.recursive(
        st.just(empty()),
        lambda inner: st.lists(inner, max_size=max_width).map(make_set),
        max_leaves=25,
    )


def _wrap(h, depth: int):
    """h inside depth one-element sets."""
    for _ in range(depth):
        h = make_set([h])
    return h


def chains(max_depth: int = 1500):
    """A small random set wrapped in up to max_depth singletons."""
    return st.tuples(handles(), st.integers(0, max_depth)).map(lambda hd: _wrap(*hd))


def _ackermann(k: int):
    """The set coded by k: its elements are the sets coded by k's one bits."""
    return make_set(_ackermann(i) for i in range(k.bit_length()) if k >> i & 1)


def fans(max_width: int = 200):
    """A set of up to max_width distinct small random sets.

    Distinct codes give distinct sets, so the width is exactly the number of
    codes drawn.
    """
    codes = st.integers(0, max_width).flatmap(
        lambda n: st.sets(st.integers(0, 2**12 - 1), min_size=n, max_size=n)
    )
    return codes.map(lambda ks: make_set(map(_ackermann, ks)))


def _fresh():
    """A set never made before: the singleton of the newest handle."""
    handles = itertools.chain(kernel._table.values(), kernel._single.values())
    return make_set([max(handles, key=lambda h: h.uid)])


def _uids_drawn(op):
    """op() and the number of uids it drew: one for each handle it made."""
    ids = kernel._ids
    before = next(ids)
    result = op()
    return result, next(ids) - before - 1
