"""Independent oracles for deriving expected test values.

Everything here deliberately avoids the library's own algorithms:
replacement is plain text substitution, constituency is substring search,
covering edges come from a cubic-time transitive reduction, isomorphism
from a backtracking search over vertex bijections, canonical forms from an
unpruned individualization search, and realization from a
collision-intolerant bottom-up rebuild.
"""
from __future__ import annotations

import itertools

from conset import SetHandle, constituents, make_set, parse
from conset.structure import StructureGraph


def replace_by_text(x: SetHandle, y: SetHandle, z: SetHandle) -> SetHandle:
    """Replacement as left-to-right non-overlapping text substitution.

    Distinct occurrences of one canonical text can never overlap (a proper
    prefix of a balanced brace group is unbalanced), so str.replace hits
    exactly the occurrences, in one pass over the original text.
    """
    return parse(x.text.replace(y.text, z.text))


def has_bottom_by_text(b: SetHandle, a: SetHandle) -> bool:
    """The defining equation b(a -> {})(a) = b, by text substitution.

    A canonical nonempty set never renders as "{}", so that text marks
    exactly the occurrences of the empty set.
    """
    lifted = parse(b.text.replace(a.text, "{}"))
    return parse(lifted.text.replace("{}", a.text)) is b


def top_witnesses_by_text(c: SetHandle, b: SetHandle) -> list[SetHandle]:
    """Every constituent a of b with c(a) = b, by text substitution.

    As in has_bottom_by_text, "{}" marks exactly the empty sets of c.
    """
    return [a for a in constituents(b) if parse(c.text.replace("{}", a.text)) is b]


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


def _diamond_text(x: str) -> str:
    """Text of the diamond {{{x}},{x,{x}}} over the set with text x; shortlex
    keeps its elements, and the elements of {x,{x}}, in that order."""
    return "{{{" + x + "}},{" + x + ",{" + x + "}}}"


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
        marker = _diamond_text("{" * (n + 1) + "}" * (n + 1))
        if len(marker) > len(text):
            return found
        if marker in text:
            found.append(n)
        n += 1


def has_top_exhaustive(t: SetHandle, x: SetHandle) -> bool:
    """Whether x decomposes with the offset-0 top t, trying every assignment
    of constituents of x to the slots of t.

    Fusion is one simultaneous substitution of each slot's marker text.  The
    branch n is wrapped as n singletons over the diamond over it, and the
    wrapped branches form a bottom structure exactly when no wrapped text
    occurs inside another.
    """
    slots = [
        _diamond_text("{" * (n + 1) + "}" * (n + 1))
        for n in position_indices_by_text(t.text)
    ]
    for assign in itertools.product(constituents_brute(x), repeat=len(slots)):
        table = {p: a.text for p, a in zip(slots, assign)}
        if parse(simultaneous_replace_by_text(t.text, table)) is not x:
            continue
        wrapped = [
            "{" * n + _diamond_text(a.text) + "}" * n for n, a in enumerate(assign)
        ]
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
    slots = [_diamond_text("{" * (n + 1) + "}" * (n + 1)) for n in range(len(terms))]
    table = dict(zip(slots, (t.text for t in terms)))

    def valid(p: SetHandle) -> bool:
        return all(
            any(s in c.text or c.text in s for s in slots) for c in constituents_brute(p)
        )

    pre: dict[SetHandle, set[SetHandle]] = {}
    for w in sorted(constituents_brute(x), key=lambda c: len(c.text)):
        found = {parse(s) for s, t in zip(slots, terms) if t is w}
        if w.text not in slots and any(w.text in s for s in slots):
            found.add(w)
        pool = sorted({p for c in w.children for p in pre[c]}, key=lambda p: p.text)
        if len(pool) > 10:
            return None
        for k in range(1, len(pool) + 1):
            for subset in itertools.combinations(pool, k):
                p = parse("{" + ",".join(q.text for q in subset) + "}")
                if parse(simultaneous_replace_by_text(p.text, table)) is w and valid(p):
                    found.add(p)
        pre[w] = found
    return any(all(s in p.text for s in slots) for p in pre[x])


def is_constituent_by_text(x: SetHandle, y: SetHandle) -> bool:
    """x lies inside y (reflexively), by substring search.

    A balanced canonical text occurs inside another canonical text only
    where it is the text of a subterm: the brace that opens it is matched by
    the brace that closes it.
    """
    return x.text in y.text


def maximal_by_text(hs: list[SetHandle]) -> list[SetHandle]:
    """Members lying strictly inside no other member, by pairwise search."""
    return [
        h
        for h in hs
        if not any(o is not h and is_constituent_by_text(h, o) for o in hs)
    ]


def _strictly_below(u: SetHandle, w: SetHandle) -> bool:
    return u is not w and is_constituent_by_text(u, w)


def hasse_edges_brute(h: SetHandle) -> tuple[tuple[int, int], ...]:
    """Covering pairs of the constituency order, by cubic-time reduction."""
    cons = sorted(constituents_brute(h), key=lambda c: (len(c.text), c.text))
    index = {c: i for i, c in enumerate(cons)}
    edges = []
    for u in cons:
        for w in cons:
            if not _strictly_below(u, w):
                continue
            if any(
                _strictly_below(u, v) and _strictly_below(v, w) for v in cons
            ):
                continue
            edges.append((index[u], index[w]))
    return tuple(sorted(edges))


def membership_edges(h: SetHandle) -> tuple[tuple[int, int], ...]:
    """All (element, parent) pairs over the constituents of h."""
    cons = constituents(h)
    index = {c: i for i, c in enumerate(cons)}
    edges = set()
    for w in cons:
        for u in w.children:
            edges.add((index[u], index[w]))
    return tuple(sorted(edges))


def constituents_brute(h: SetHandle) -> frozenset[SetHandle]:
    """Constituent set by direct recursive union (not the kernel's walk)."""
    acc = frozenset([h])
    for c in h.children:
        acc |= constituents_brute(c)
    return acc


def brute_iso(g1: StructureGraph, g2: StructureGraph) -> bool:
    """Digraph isomorphism by backtracking over vertex bijections."""
    n = g1.n
    if n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    adj1 = {(a, b) for a, b in g1.edges}
    adj2 = {(a, b) for a, b in g2.edges}
    outs1 = [sorted(b for a, b in adj1 if a == v) for v in range(n)]
    ins1 = [sorted(a for a, b in adj1 if b == v) for v in range(n)]
    deg2 = [
        (
            sum(1 for a, _ in adj2 if a == v),
            sum(1 for _, b in adj2 if b == v),
        )
        for v in range(n)
    ]
    deg1 = [(len(outs1[v]), len(ins1[v])) for v in range(n)]
    if sorted(deg1) != sorted(deg2):
        return False

    mapping: list[int | None] = [None] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg1[v] != deg2[w]:
                continue
            ok = True
            for u in range(v):
                mu = mapping[u]
                if ((u, v) in adj1) != ((mu, w) in adj2):
                    ok = False
                    break
                if ((v, u) in adj1) != ((w, mu) in adj2):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(v + 1):
                return True
            mapping[v] = None
            used[w] = False
        return False

    return extend(0)


def canonical_form_exhaustive(g: StructureGraph) -> tuple:
    """The least leaf encoding over the whole individualization tree.

    Color refinement from (level, in-degree, out-degree), then branching on
    every vertex of the first non-singleton color class, with no pruning of
    any kind.  The library's pruned search must reach the same minimum, so
    repr(canonical_form_exhaustive(g)) is the certificate text.  Factorial on
    symmetric shapes: keep n small.
    """
    n = g.n
    lowers: list[list[int]] = [[] for _ in range(n)]
    uppers: list[list[int]] = [[] for _ in range(n)]
    for a, b in g.edges:
        uppers[a].append(b)
        lowers[b].append(a)
    level = [0] * n
    pending = [len(lowers[v]) for v in range(n)]
    ready = [v for v in range(n) if not pending[v]]
    while ready:
        v = ready.pop()
        for u in uppers[v]:
            level[u] = max(level[u], level[v] + 1)
            pending[u] -= 1
            if not pending[u]:
                ready.append(u)

    def dense(keys: list) -> list[int]:
        ranks = {s: i for i, s in enumerate(sorted(set(keys)))}
        return [ranks[s] for s in keys]

    def refine(colors: list[int]) -> list[int]:
        while True:
            new = dense([
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

    best: list = []

    def search(colors: list[int]) -> None:
        colors = refine(colors)
        for c in range(n):
            cell = [v for v in range(n) if colors[v] == c]
            if len(cell) > 1:
                for v in cell:
                    search(dense([(colors[u], u != v) for u in range(n)]))
                return
        form = (n, tuple(sorted((colors[a], colors[b]) for a, b in g.edges)))
        if not best or form < best[0]:
            best[:] = [form]

    search(dense([(level[v], len(lowers[v]), len(uppers[v])) for v in range(n)]))
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
