"""Oracles for deriving expected test values without trusting the library.

Every pure-text answer comes from `perfbench/oracle.py`, the benchmark's
own checker, which works on brace text and imports nothing from conset:
replacement is text substitution, constituents are the brace groups of a
text, covering edges are each set's maximal elements, and isomorphism is a
backtracking search over level- and degree-matched vertex bijections.  It
is loaded by file path, so the benchmark's runner stays off `sys.path`.

What stays here adapts handles to that module (`.text` in, `parse` out)
and the searches only tests use: simultaneous substitution, fusion's
readings of a text as a top, bottom or middle and its exhaustive
decompositions, an unpruned individualization search for canonical forms,
vertex relabelling and a collision-intolerant realization.
"""
from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

from conset import SetHandle, make_set, parse
from conset.structure import StructureGraph

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracle", Path(__file__).parents[1] / "perfbench" / "oracle.py"
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def replace_by_text(x: SetHandle, y: SetHandle, z: SetHandle) -> SetHandle:
    """Replacement as left-to-right non-overlapping text substitution."""
    return parse(oracle.replace(x.text, y.text, z.text))


def has_bottom_by_text(b: SetHandle, a: SetHandle) -> bool:
    """The defining equation b(a -> {})(a) = b, by text substitution."""
    return oracle.has_bottom(b.text, a.text)


def top_witnesses_by_text(c: SetHandle, b: SetHandle) -> list[SetHandle]:
    """Every constituent a of b with c(a) = b, by text substitution."""
    return [
        parse(a)
        for a in oracle.constituents(b.text)
        if oracle.compose(c.text, a) == b.text
    ]


def branch(n: int, t: SetHandle) -> SetHandle:
    """Bottom entry n carrying branch t: zermelo(n) ∘ diamond ∘ t."""
    return parse(oracle.branch(n, t.text))


def simultaneous_replace_by_text(text: str, table: dict[str, str]) -> str:
    """One-pass simultaneous substitution of several patterns.

    Valid whenever the patterns are canonical texts of sets none of which
    is a constituent of another: their occurrences are then pairwise
    disjoint, so a single left-to-right scan is unambiguous.
    """
    patterns = sorted(table, key=len, reverse=True)
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        for p in patterns:
            if text.startswith(p, i):
                out.append(table[p])
                i += len(p)
                break
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def position_indices_by_text(text: str) -> list[int]:
    """Every n whose position-marker text occurs in text.

    The marker is the diamond {{{x}},{x,{x}}} over the successor numeral
    x = n, whose text is n+1 open braces then n+1 close braces.  A canonical
    text that occurs inside another is the text of one of its constituents,
    and marker texts grow with n, so the scan stops once they outgrow text.
    """
    found = []
    n = 0
    while True:
        marker = oracle.position(n)
        if len(marker) > len(text):
            return found
        if marker in text:
            found.append(n)
        n += 1


def bypass_by_text(text: str) -> list[str]:
    """The constituents of text that neither hold a position marker's text
    nor lie inside one, in shortlex order; a top has none."""
    slots = [oracle.position(n) for n in position_indices_by_text(text)]
    return sorted(
        (
            c
            for c in oracle.constituents(text)
            if not any(
                oracle.is_constituent(c, s) or oracle.is_constituent(s, c) for s in slots
            )
        ),
        key=oracle.shortlex,
    )


def bottom_markers_by_text(text: str) -> list[str] | None:
    """The markers of text read as an offset-0 bottom, by number, or None.

    Each maximal element must be n singletons around the diamond
    {{{x}},{x,{x}}} over some x, and the numbers must run 0, 1, ... with
    none repeated.
    """
    markers: dict[int, str] = {}
    for m in oracle.maximal(oracle.elements(text)):
        n, w = 0, m
        while len(es := oracle.elements(w)) == 1:
            n, w = n + 1, es[0]
        # the diamond over x has 3|x| + 12 characters, x from the fourth on
        x = w[3 : 3 + (len(w) - 12) // 3]
        if n in markers or x not in oracle.constituents(w) or oracle.branch(0, x) != w:
            return None
        markers[n] = m
    if not markers or sorted(markers) != list(range(len(markers))):
        return None
    return [markers[n] for n in range(len(markers))]


def middle_markers_by_text(text: str) -> list[str] | None:
    """The markers of text read as an offset-0 middle, or None: a top whose
    slots run 0, 1, ... and a bottom with as many markers, none of which is a
    bare position marker."""
    markers = bottom_markers_by_text(text)
    if (
        markers is None
        or position_indices_by_text(text) != list(range(len(markers)))
        or bypass_by_text(text)
        # a position marker n has 6n + 18 characters
        or any(m == oracle.position((len(m) - 18) // 6) for m in markers)
    ):
        return None
    return markers


def has_top_exhaustive(t: SetHandle, x: SetHandle) -> bool:
    """Whether x decomposes with the offset-0 top t, trying every assignment
    of constituents of x to the slots of t.

    Fusion is one simultaneous substitution of each slot's marker text.  The
    branch n is wrapped as n singletons over the diamond over it, and the
    wrapped branches form a bottom structure exactly when no wrapped text
    occurs inside another.
    """
    slots = [oracle.position(n) for n in position_indices_by_text(t.text)]
    for assign in itertools.product(oracle.constituents(x.text), repeat=len(slots)):
        table = dict(zip(slots, assign))
        if oracle.canon(simultaneous_replace_by_text(t.text, table)) != x.text:
            continue
        wrapped = [oracle.branch(n, a) for n, a in enumerate(assign)]
        if not any(u != w and u in w for u in wrapped for w in wrapped):
            return True
    return False


def has_bottom_exhaustive(x: SetHandle, terms: list[SetHandle]) -> bool | None:
    """Whether some top with a slot per branch in terms fuses onto them to
    give x, trying every set of preimages; None when a pool is too large.

    Bottom-up over the subterms of x by text length, the preimages of w are:
    slot n when terms[n] is w, w itself when its text lies inside a slot's
    text, and every set of preimages of w's elements that substitutes to w.
    A preimage is kept when every constituent's text holds a slot text or
    lies inside one; x's preimages must also hold every slot.
    """
    slots = [oracle.position(n) for n in range(len(terms))]
    table = dict(zip(slots, (t.text for t in terms)))

    def valid(p: str) -> bool:
        return all(
            any(s in c or c in s for s in slots) for c in oracle.constituents(p)
        )

    pre: dict[str, set[str]] = {}
    for w in sorted(oracle.constituents(x.text), key=len):
        found = {s for s, t in zip(slots, terms) if t.text == w}
        if w not in slots and any(w in s for s in slots):
            found.add(w)
        pool = sorted({p for c in oracle.elements(w) for p in pre[c]})
        if len(pool) > 10:
            return None
        for k in range(1, len(pool) + 1):
            for subset in itertools.combinations(pool, k):
                p = oracle.make(subset)
                if oracle.canon(simultaneous_replace_by_text(p, table)) == w and valid(p):
                    found.add(p)
        pre[w] = found
    return any(all(s in p for s in slots) for p in pre[x.text])


def is_constituent_by_text(x: SetHandle, y: SetHandle) -> bool:
    """x lies inside y (reflexively): x's text is a brace group of y's."""
    return oracle.is_constituent(x.text, y.text)


def maximal_by_text(hs: list[SetHandle]) -> list[SetHandle]:
    """Members lying strictly inside no other member, by pairwise search."""
    return [parse(t) for t in oracle.maximal(h.text for h in hs)]


def membership_edges(h: SetHandle) -> tuple[tuple[int, int], ...]:
    """All (element, parent) pairs over the constituents of h, numbered in
    shortlex order."""
    cons = sorted(oracle.constituents(h.text), key=oracle.shortlex)
    index = {c: i for i, c in enumerate(cons)}
    return tuple(sorted((index[u], index[w]) for w in cons for u in oracle.elements(w)))


def constituents_brute(h: SetHandle) -> frozenset[SetHandle]:
    """Constituent set read off the brace groups of h's text."""
    return frozenset(map(parse, oracle.constituents(h.text)))


def _covers(n: int, edges) -> tuple[list[list[int]], list[list[int]]]:
    lowers: list[list[int]] = [[] for _ in range(n)]
    uppers: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        uppers[a].append(b)
        lowers[b].append(a)
    return lowers, uppers


def _dense(keys: list) -> list[int]:
    ranks = {s: i for i, s in enumerate(sorted(set(keys)))}
    return [ranks[s] for s in keys]


def base_colors(g: StructureGraph) -> list[int]:
    """Dense ranks of (level, in-degree, out-degree), where refinement starts."""
    lowers, uppers = _covers(g.n, g.edges)
    level = oracle.levels(g.n, g.edges)
    return _dense([(level[v], len(lowers[v]), len(uppers[v])) for v in range(g.n)])


def refine_full(n: int, edges, colors: list[int]) -> list[int]:
    """Color refinement that re-signs every vertex each round: each vertex
    gets the dense rank of (its color, sorted lower-cover colors, sorted
    upper-cover colors) until a round changes nothing."""
    lowers, uppers = _covers(n, edges)
    while True:
        new = _dense([
            (
                colors[v],
                tuple(sorted(colors[u] for u in lowers[v])),
                tuple(sorted(colors[u] for u in uppers[v])),
            )
            for v in range(n)
        ])
        if new == colors:
            return colors
        colors = new


def canonical_form_exhaustive(g: StructureGraph) -> tuple:
    """The least leaf encoding over the whole individualization tree.

    Color refinement from (level, in-degree, out-degree), then branching on
    every vertex of the first non-singleton color class, with no pruning of
    any kind.  The library's pruned search must reach the same minimum, so
    repr(canonical_form_exhaustive(g)) is the certificate text.  Factorial on
    symmetric shapes: keep n small.
    """
    n = g.n
    best: list = []

    def search(colors: list[int]) -> None:
        colors = refine_full(n, g.edges, colors)
        for c in range(n):
            cell = [v for v in range(n) if colors[v] == c]
            if len(cell) > 1:
                for v in cell:
                    search(_dense([(colors[u], u != v) for u in range(n)]))
                return
        form = (n, tuple(sorted((colors[a], colors[b]) for a, b in g.edges)))
        if not best or form < best[0]:
            best[:] = [form]

    search(base_colors(g))
    return best[0]


def permute_graph(g: StructureGraph, perm: list[int]) -> StructureGraph:
    """Relabel vertices of g by perm (vertex v becomes perm[v])."""
    tags: list = [None] * g.n
    for v in range(g.n):
        tags[perm[v]] = g.tags[v]
    edges = tuple(sorted((perm[a], perm[b]) for a, b in g.edges))
    return StructureGraph(
        tags=tuple(tags), edges=edges, top=perm[g.top], bottom=perm[g.bottom]
    )


def pure_realization(g: StructureGraph) -> dict[int, SetHandle] | None:
    """Bottom-up realization with no collision repair.

    Builds each vertex as the set of its lower covers, in topological
    order.  Returns the vertex-to-set map when every vertex receives a
    distinct set, and None on any collision.
    """
    lowers: dict[int, list[int]] = {v: [] for v in range(g.n)}
    uppers: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for a, b in g.edges:
        lowers[b].append(a)
        uppers[a].append(b)
    pending = {v: len(lowers[v]) for v in range(g.n)}
    ready = [v for v in range(g.n) if pending[v] == 0]
    built: dict[int, SetHandle] = {}
    while ready:
        v = ready.pop()
        h = make_set([built[a] for a in lowers[v]])
        if any(existing is h for existing in built.values()):
            return None
        built[v] = h
        for b in uppers[v]:
            pending[b] -= 1
            if pending[b] == 0:
                ready.append(b)
    return built


def nesting_depth(h: SetHandle) -> int:
    """Maximum brace nesting depth (empty set has depth 0), read off the text."""
    depth = deepest = 0
    for ch in h.text:
        if ch == "{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == "}":
            depth -= 1
    return deepest - 1


def text_by_recursion(h: SetHandle) -> str:
    """The canonical text rebuilt from the elements, which are ordered here
    by their own (length, text) keys; recursive, so for shallow sets."""
    texts = sorted(map(text_by_recursion, h.children), key=lambda t: (len(t), t))
    return "{" + ",".join(texts) + "}"
