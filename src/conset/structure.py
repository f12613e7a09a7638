"""Constituent structure diagrams and operations on them.

A StructureGraph is the covering diagram of a set's constituents: vertices
are abstract ids 0..n-1 (optionally tagged with the set each one came from),
edges point from the smaller constituent to the one that covers it, and there
is a single bottom (the empty set) and a single top (the whole set).

A certificate is the least leaf encoding of a color refinement and
individualization tree that does not depend on the input labeling, so two
graphs get equal certificate bytes exactly when they are isomorphic.  The
search keeps one ordered partition of the vertices into cells, each
numbered by the count of vertices in the cells before it, from the root
to every leaf, where the cell numbers are the labels.  Refinement signs
only the cells that a split can reach (the neighbours of the vertices that
moved, starting from the one individualized), and numbers the parts as
re-signing every vertex every round would, so the tree and the bytes are
those of that full re-sign.  The search walks the tree with one explicit
stack and skips subtrees whose leaves are images of leaves already seen
under an automorphism: cells of twins split without branching,
automorphisms found at equal leaves prune the children of the first path
by orbit, and the path jumps back once its branch joins an explored
orbit.  Realization walks a diagram bottom-up and builds the
least set whose diagram matches, adding far-down constituents as extra
elements only when two vertices would otherwise collide.  A diagram read
back from JSON parses the top's tag and finds the other tags among the
canonical texts of its constituents, so to_json's output costs one parse.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import NamedTuple

from .errors import MalformedGraph, MalformedText, Unrealizable
from .kernel import (
    EMPTY,
    SetHandle,
    _below,
    _require_set,
    _shortlex,
    constituents,
    is_constituent,
    make_set,
    parse,
    to_text,
)

__all__ = [
    "StructureGraph",
    "IsoWitness",
    "POINT",
    "check_graph",
    "structure_of",
    "canonical_cert",
    "isomorphic",
    "simplest_set",
    "graph_sum",
    "graph_product",
    "chain_graph",
    "to_dot",
    "to_json",
    "graph_from_json",
]


class StructureGraph(NamedTuple):
    tags: tuple[SetHandle | None, ...]
    edges: tuple[tuple[int, int], ...]  # (lower, upper) covering pairs
    top: int
    bottom: int

    @property
    def n(self) -> int:
        return len(self.tags)


class IsoWitness(NamedTuple):
    """Vertex bijection first graph -> second graph, validated order-preserving."""

    mapping: tuple[int, ...]


POINT = StructureGraph(tags=(None,), edges=(), top=0, bottom=0)


def structure_of(h: SetHandle) -> StructureGraph:
    """Covering diagram of the constituents of h.

    Vertices are the constituents in shortlex order, so the bottom (empty set)
    is vertex 0 and the top (h itself) is vertex n-1.  A membership pair e in c
    is a covering edge unless another element of c contains e strictly.
    """
    _require_set(h)
    cons = constituents(h)
    index = {c: i for i, c in enumerate(cons)}
    edges: list[tuple[int, int]] = []
    for c in cons:
        for e in c.children:
            for e2 in c.children:
                if e2.rank > e.rank and is_constituent(e, e2):
                    break
            else:
                edges.append((index[e], index[c]))
    return StructureGraph(
        tags=tuple(cons),
        edges=tuple(sorted(edges)),
        top=index[h],
        bottom=index[EMPTY],
    )


def _require_graph(*gs: object) -> None:
    for g in gs:
        if not isinstance(g, StructureGraph):
            raise TypeError(f"expected a StructureGraph, got {type(g).__name__}")


def _diagram(g: StructureGraph) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Lower covers, upper covers and longest-path level above the bottom of
    each vertex, read in one pass that raises MalformedGraph unless g is a
    well-formed covering diagram."""
    _require_graph(g)
    n = g.n
    if n == 0:
        raise MalformedGraph("graph has no vertices")
    lowers: list[list[int]] = [[] for _ in range(n)]
    uppers: list[list[int]] = [[] for _ in range(n)]
    for a, b in g.edges:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise MalformedGraph(f"bad edge ({a}, {b})")
        uppers[a].append(b)
        lowers[b].append(a)
    if len(set(g.edges)) != len(g.edges):
        raise MalformedGraph("duplicate edges")
    sources = [v for v in range(n) if not lowers[v]]
    sinks = [v for v in range(n) if not uppers[v]]
    if sources != [g.bottom] or sinks != [g.top]:
        raise MalformedGraph("graph must have a single bottom and a single top")
    indeg = [len(lo) for lo in lowers]
    level = [0] * n
    queue = [g.bottom]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        up = level[v] + 1
        for u in uppers[v]:
            if level[u] < up:
                level[u] = up
            indeg[u] -= 1
            if indeg[u] == 0:
                queue.append(u)
    if seen != n:
        raise MalformedGraph("graph has a cycle")
    return lowers, uppers, level


def check_graph(g: StructureGraph) -> None:
    """Raise MalformedGraph (a ValueError) unless g is a well-formed covering diagram."""
    _diagram(g)


def _refine(
    lowers: list[list[int]],
    uppers: list[list[int]],
    pos: list[int],
    cells: dict[int, list[int]],
    moved: list[int] | None = None,
) -> None:
    """Split cells by the cells of their neighbours until nothing splits.

    A cell is numbered by the count of vertices in the cells before it;
    pos[v] is the number of v's cell and cells[p] holds its vertices in
    increasing order.  Both are refined in place, and a cell splits in
    place: its parts take the numbers from p on in the order of their
    sorted (lower, upper) signatures, and no other cell is renumbered.  This
    is the partition that re-signing every vertex in every round gives, but
    a round signs only the cells of two or more that hold a neighbour of a
    vertex moved in the round before.  The members of any other cell had
    equal signatures and see no cell change, so it cannot split.  Of a split
    cell the largest part need not count as moved: a cell that sees no other
    part of it sees that part as often as it saw the whole cell.  Without
    `moved`, on the base partition, the first round signs every cell; after
    _split of a refined partition, `moved` is the vertex given a cell of its
    own.  A part is bound to its number as a new list, so a partition that
    shares cell lists with this one keeps its own.
    """
    todo = list(cells)
    while True:
        if moved is not None:
            todo = set()
            for v in moved:
                for u in lowers[v]:
                    todo.add(pos[u])
                for u in uppers[v]:
                    todo.add(pos[u])
        splits = []
        for p in todo:
            cell = cells[p]
            if len(cell) < 2:
                continue
            parts: dict[tuple, list[int]] = {}
            for v in cell:
                lo = [pos[u] for u in lowers[v]]
                lo.sort()
                up = [pos[u] for u in uppers[v]]
                up.sort()
                sig = (tuple(lo), tuple(up))
                part = parts.get(sig)
                if part is None:
                    parts[sig] = [v]
                else:
                    part.append(v)
            if len(parts) > 1:
                splits.append((p, [parts[s] for s in sorted(parts)]))
        if not splits:
            return
        moved = []
        for p, ordered in splits:
            largest = max(ordered, key=len)
            for part in ordered:
                cells[p] = part
                for v in part:
                    pos[v] = p
                if part is not largest:
                    moved += part
                p += len(part)


def _split(
    pos: list[int], cells: dict[int, list[int]], p: int, front: list[int]
) -> tuple[list[int], dict[int, list[int]]]:
    """Copies of the partition in which the vertices of front, all of cell
    p, get cells p, p+1, ... in order and the rest of cell p follows them."""
    pos, cells = pos[:], dict(cells)
    rest = cells[p]
    if len(front) < len(rest):
        ahead = set(front)
        q = p + len(front)
        cells[q] = rest = [v for v in rest if v not in ahead]
        for v in rest:
            pos[v] = q
    for i, v in enumerate(front):
        pos[v] = p + i
        cells[p + i] = [v]
    return pos, cells


def _inverse(lab: list[int]) -> list[int]:
    inv = [0] * len(lab)
    for v, pos in enumerate(lab):
        inv[pos] = v
    return inv


def _find(parent: list[int], v: int) -> int:
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


def _canonical(g: StructureGraph) -> tuple[tuple, list[int]]:
    """Canonical form and a labeling realizing it (vertex -> canonical index).

    The form is the least leaf encoding of the individualization-refinement
    tree: refine the partition, branch on each vertex of the least-numbered
    cell that is not a singleton, and at a leaf, where every cell is a
    singleton, encode the edges under the cell numbers.  The tree does not
    depend on the input labeling, so neither does its least leaf.  A node's
    partition is kept in its stack frame, and _split copies it for each
    child.  One explicit stack walks the tree depth first and skips only
    subtrees whose leaves encode like leaves already seen, so the least
    leaf is still found:

    - Twin collapse: a target cell of twins (equal lower and upper covers)
      splits into singletons in one step.  Any order of twins is an
      automorphism fixing every other vertex, so every branch leads to the
      same encodings, and splitting twins leaves the partition refined.
    - Orbit pruning: a leaf that encodes like the first or the best leaf
      yields an automorphism.  At a node of the first path, a child in the
      orbit of an explored child (under the automorphisms found that fix
      the path down to that node) has a subtree mapped onto the explored one.
    - Jump-back: when such an automorphism puts the child at which the
      current path leaves the first path into the orbit of an explored child,
      the rest of that child's subtree is skipped.
    """
    lowers, uppers, level = _diagram(g)
    n = g.n
    for adj in lowers + uppers:
        adj.sort()  # so that twins have equal lists
    base = [(level[v], len(lowers[v]), len(uppers[v])) for v in range(n)]
    order = sorted(base)
    pos = [bisect_left(order, key) for key in base]  # the count of lower keys
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(pos[v], []).append(v)
    _refine(lowers, uppers, pos, cells)

    first_path: list[int] = []  # vertex individualized below each first-path node
    orbits: list[list[int]] = []  # per first-path node: union-find, min roots
    first_form = best_form = None
    stack: list[list] = []  # [pos, cells, target cell, index of the child taken]
    div = n  # depth of the first frame whose child is not its first
    target = 0  # every cell numbered below the target is a singleton
    while True:
        # descend along first children to a leaf
        while True:
            while target < n and len(cells[target]) == 1:
                target += 1
            if target == n:
                break
            cell = cells[target]
            t0 = cell[0]
            for v in cell:
                if lowers[v] != lowers[t0] or uppers[v] != uppers[t0]:
                    break
            else:
                pos, cells = _split(pos, cells, target, cell)
                continue
            if first_form is None:
                first_path.append(t0)
                orbits.append(list(range(n)))
            stack.append([pos, cells, cell, 0])
            pos, cells = _split(pos, cells, target, [t0])
            _refine(lowers, uppers, pos, cells, [t0])

        pairs = [(pos[a], pos[b]) for a, b in g.edges]
        pairs.sort()
        form = (n, tuple(pairs))
        if first_form is None:
            first_form = best_form = form
            first_inv = best_inv = _inverse(pos)
            best_lab = pos
        elif form == first_form or form == best_form:
            ref = first_inv if form == first_form else best_inv
            gamma = [ref[p] for p in pos]  # an automorphism
            fixed = 0
            for v in first_path:
                if gamma[v] != v:
                    break
                fixed += 1
            # gamma fixes the first path down to depth `fixed`: its orbits
            # hold for the children of the first-path nodes up to there.  A
            # vertex gamma fixes is already in its own orbit
            moved = [v for v in range(n) if gamma[v] != v]
            for parent in orbits[: fixed + 1]:
                for v in moved:
                    a, b = _find(parent, v), _find(parent, gamma[v])
                    if a != b:
                        parent[max(a, b)] = min(a, b)
            # the branch taken where this path leaves the first path
            frame = stack[div]
            w = frame[2][frame[3]]
            if _find(orbits[div], w) != w:
                del stack[div + 1 :]
        elif form < best_form:
            best_form, best_inv, best_lab = form, _inverse(pos), pos

        # backtrack to the next child not pruned
        while stack:
            d = len(stack) - 1
            node_pos, node_cells, cell, i = stack[-1]
            i += 1
            if d <= div:
                parent = orbits[d]
                while i < len(cell) and _find(parent, cell[i]) != cell[i]:
                    i += 1
            if i < len(cell):
                stack[-1][3] = i
                div = min(div, d)
                v = cell[i]
                target = node_pos[v]
                pos, cells = _split(node_pos, node_cells, target, [v])
                _refine(lowers, uppers, pos, cells, [v])
                break
            stack.pop()
        else:
            return best_form, best_lab


def canonical_cert(g: StructureGraph) -> bytes:
    """Label-invariant certificate; equal bytes exactly when isomorphic."""
    form, _ = _canonical(g)
    return repr(form).encode("ascii")


def isomorphic(g1: StructureGraph, g2: StructureGraph) -> IsoWitness | None:
    """A validated vertex bijection when the graphs are isomorphic, else None."""
    _require_graph(g1, g2)
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        check_graph(g1)
        check_graph(g2)
        return None
    form1, lab1 = _canonical(g1)
    form2, lab2 = _canonical(g2)
    if form1 != form2:
        return None
    inv2 = _inverse(lab2)
    mapping = tuple([inv2[pos] for pos in lab1])
    if {(mapping[a], mapping[b]) for a, b in g1.edges} != set(g2.edges):
        raise AssertionError("certificate matched but edges do not map")
    if mapping[g1.top] != g2.top or mapping[g1.bottom] != g2.bottom:
        raise AssertionError("certificate matched but top or bottom does not map")
    return IsoWitness(mapping=mapping)


def simplest_set(g: StructureGraph) -> SetHandle:
    """The least set whose covering diagram is g.

    Vertices are realized bottom-up as the set of their realized covers.  When
    a candidate collides with an already-realized vertex, constituents from
    at least two levels further down are added one at a time, canonically
    smallest first, until the candidate is fresh.
    """
    lowers, _, level = _diagram(g)
    order = sorted(range(g.n), key=lambda v: (level[v], v))

    realized: dict[int, SetHandle] = {}
    used: dict[SetHandle, int] = {}
    for v in order:
        chosen = {realized[u] for u in lowers[v]}
        cand = make_set(chosen)
        while cand in used:
            # every realized vertex below v is a constituent of a lower cover
            spare = _below(chosen) - chosen
            if not spare:
                raise Unrealizable(
                    f"vertex {v} collides and has no spare constituent to add"
                )
            chosen.add(min(spare, key=_shortlex))
            cand = make_set(chosen)
        realized[v] = cand
        used[cand] = v

    result = realized[g.top]
    actual = structure_of(result)
    if actual.n != g.n:
        raise Unrealizable("realized set has the wrong number of constituents")
    where = {tag: i for i, tag in enumerate(actual.tags)}
    mapped = {(where[realized[a]], where[realized[b]]) for a, b in g.edges}
    if mapped != set(actual.edges):
        raise Unrealizable("realized set does not cover along the given edges")
    return result


def graph_sum(g1: StructureGraph, g2: StructureGraph) -> StructureGraph:
    """Stack g1 on g2, identifying g1's bottom with g2's top."""
    _diagram(g1)
    _diagram(g2)
    if g1.n == 1:
        return g2
    if g2.n == 1:
        return g1
    remap: dict[int, int] = {g1.bottom: g2.top}
    nxt = g2.n
    for v in range(g1.n):
        if v != g1.bottom:
            remap[v] = nxt
            nxt += 1
    tags = tuple(g2.tags) + tuple(
        None for v in range(g1.n) if v != g1.bottom
    )
    edges = tuple(g2.edges) + tuple(
        sorted((remap[a], remap[b]) for a, b in g1.edges)
    )
    return StructureGraph(
        tags=tags, edges=tuple(sorted(edges)), top=remap[g1.top], bottom=g2.bottom
    )


def graph_product(g1: StructureGraph, g2: StructureGraph) -> StructureGraph:
    """Replace every edge of g1 with a copy of g2 joined at the endpoints."""
    _diagram(g1)
    _diagram(g2)
    if g2.n == 1:
        return POINT  # every edge of g1 contracts away
    if g1.n == 1:
        return g1
    if g2.n == 2:
        return g1  # single-edge copies change nothing
    interior = [v for v in range(g2.n) if v not in (g2.top, g2.bottom)]
    k = len(interior)
    edges: list[tuple[int, int]] = []
    nxt = g1.n
    for lo, hi in g1.edges:
        remap = {g2.bottom: lo, g2.top: hi}
        for i, v in enumerate(interior):
            remap[v] = nxt + i
        nxt += k
        for a, b in g2.edges:
            edges.append((remap[a], remap[b]))
    tags = tuple(None for _ in range(nxt))
    return StructureGraph(
        tags=tags, edges=tuple(sorted(edges)), top=g1.top, bottom=g1.bottom
    )


def chain_graph(k: int) -> StructureGraph:
    """A covering chain with k edges (k+1 vertices)."""
    if k < 0:
        raise ValueError("chain length must be >= 0")
    if k == 0:
        return POINT
    edges = tuple((i, i + 1) for i in range(k))
    return StructureGraph(
        tags=tuple(None for _ in range(k + 1)), edges=edges, top=k, bottom=0
    )


def to_dot(g: StructureGraph) -> str:
    """Graphviz digraph, edges lower -> upper, one rank per level."""
    _, _, level = _diagram(g)
    lines = ["digraph constituent_structure {", "  rankdir=BT;", "  node [shape=box];"]
    texts: dict[SetHandle, str] = {}
    # one pass over the vertices, in order, groups the declarations by level
    decls: list[list[str]] = [[] for _ in range(max(level) + 1)]
    for v in range(g.n):
        label = to_text(g.tags[v], texts) if g.tags[v] is not None else f"v{v}"
        decls[level[v]].append(f'v{v} [label="{label}"]')
    for members in decls:
        lines.append("  { rank=same; " + "; ".join(members) + "; }")
    for a, b in g.edges:
        lines.append(f"  v{a} -> v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: StructureGraph) -> str:
    """Stable JSON encoding; graph_from_json inverts it."""
    _require_graph(g)
    vertices = []
    texts: dict[SetHandle, str] = {}
    for v in range(g.n):
        entry: dict = {"id": v}
        if g.tags[v] is not None:
            entry["set"] = to_text(g.tags[v], texts)
        vertices.append(entry)
    obj = {
        "vertices": vertices,
        "edges": [[a, b] for a, b in g.edges],
        "top": g.top,
        "bottom": g.bottom,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def graph_from_json(text: str) -> StructureGraph:
    """The diagram to_json wrote; MalformedGraph when the JSON has another shape.

    The tags are read in reverse vertex order, so the top's comes first:
    to_json writes every set after its constituents.  A text is looked up
    among the texts read so far and the canonical texts of their
    constituents, and parsed only when it is not found, so a to_json output
    costs one parse.  A text found nowhere, such as one with spaces or
    elements out of order, is still parsed.  A malformed tag raises
    MalformedText for the first such tag in vertex order.
    """
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError covers a JSONDecodeError and an int over the digit limit
        raise MalformedGraph(f"unreadable JSON: {e}") from e
    if not isinstance(obj, dict) or not {"vertices", "edges", "top", "bottom"} <= obj.keys():
        raise MalformedGraph("expected an object with vertices, edges, top and bottom")
    vertices, edges = obj["vertices"], obj["edges"]
    if not isinstance(vertices, list) or not all(
        isinstance(e, dict) and isinstance(e.get("set", ""), str) for e in vertices
    ):
        raise MalformedGraph("vertices must be a list of objects, each set a text")
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise MalformedGraph("edges must be a list of pairs")
    ids = [e.get("id") for e in vertices]
    ints = [*ids, *(v for e in edges for v in e), obj["top"], obj["bottom"]]
    if not all(type(v) is int for v in ints) or sorted(ids) != list(range(len(ids))):
        raise MalformedGraph(f"ids, edge ends, top and bottom must be ints, ids 0..{len(ids) - 1}")
    tags: list[SetHandle | None] = [None] * len(vertices)
    sizes = {len(e["set"]) for e in vertices if "set" in e}
    known: dict[str, SetHandle] = {}  # a tag's or a constituent's text -> its set
    texts: dict[SetHandle, str] = {}
    error = None
    for entry in reversed(vertices):
        if "set" not in entry:
            continue
        t = entry["set"]
        h = known.get(t)
        if h is None:
            try:
                h = known[t] = parse(t)
            except MalformedText as e:
                error = e  # the last one met is the first in vertex order
                continue
            # a canonical text is as long as its set; a stored one is read
            # off its set, and shorter sets come first, so each longer text
            # is joined from the texts of its elements
            below = _below((h,))
            below.add(h)
            found = [c for c in below if c.size in sizes]
            found.sort(key=lambda c: c.size)
            for c in found:
                known[c._text or to_text(c, texts)] = c
        tags[entry["id"]] = h
    if error is not None:
        raise error
    g = StructureGraph(
        tags=tuple(tags),
        edges=tuple(sorted((a, b) for a, b in edges)),
        top=obj["top"],
        bottom=obj["bottom"],
    )
    check_graph(g)
    return g
