"""Answer oracles on brace text, independent of the conset package.

Every function here works on plain strings.  Canonical text follows the
package's documented convention (elements sorted shortlex: length first,
then lexicographic; duplicates removed), but nothing here imports or calls
the package, so a check built from these functions never trusts the
operation it checks.  All walks are iterative, so deep inputs are safe
under the default recursion limit.
"""

from __future__ import annotations

from functools import lru_cache

EMPTY = "{}"


def shortlex(text: str) -> tuple[int, str]:
    return (len(text), text)


def canon(text: str) -> str:
    """Canonical text of any well-formed brace text (order, duplicates)."""
    stack: list[list[str]] = [[]]
    for ch in text:
        if ch == "{":
            stack.append([])
        elif ch == "}":
            elems = stack.pop()
            if len(elems) > 1:
                elems = sorted(set(elems), key=shortlex)
            stack[-1].append("{" + ",".join(elems) + "}")
    (only,) = stack[0]
    return only


def make(elems) -> str:
    """Canonical text of the set whose elements have these canonical texts."""
    return "{" + ",".join(sorted(set(elems), key=shortlex)) + "}"


@lru_cache(maxsize=4096)
def elements(text: str) -> tuple[str, ...]:
    """Element texts of a canonical text, in their canonical order."""
    out: list[str] = []
    depth = 0
    start = 1
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 1:
                out.append(text[start : i + 1])
                start = i + 2
    return tuple(out)


@lru_cache(maxsize=4096)
def constituents(text: str) -> frozenset[str]:
    """Every brace group of a canonical text, the text itself included."""
    opens: list[int] = []
    found: set[str] = set()
    for i, ch in enumerate(text):
        if ch == "{":
            opens.append(i)
        elif ch == "}":
            found.add(text[opens.pop() : i + 1])
    return frozenset(found)


def forget() -> None:
    """Drop the memo tables, so checks hold no memory between queries."""
    elements.cache_clear()
    constituents.cache_clear()


def is_constituent(u: str, w: str) -> bool:
    return u in constituents(w)


def replace(x: str, y: str, z: str) -> str:
    """Replacement as non-overlapping text substitution, re-canonicalized.

    Two occurrences of one canonical text never overlap, because a proper
    prefix of a balanced group is unbalanced.
    """
    return canon(x.replace(y, z))


def compose(x: str, y: str) -> str:
    return replace(x, EMPTY, y)


def compose_all(items) -> str:
    acc = EMPTY
    for item in reversed(list(items)):
        acc = compose(item, acc)
    return acc


def zermelo(n: int) -> str:
    return "{" * (n + 1) + "}" * (n + 1)


def vn(n: int, bottom: str = EMPTY) -> str:
    """Cumulative numeral n; with a bottom, vn(n) composed onto it (every
    level of vn(n) is the set of the levels below, down to the bottom)."""
    acc: list[str] = []
    h = bottom
    for _ in range(n):
        acc.append(h)
        h = make(acc)
    return h


def position(n: int) -> str:
    return compose(DIAMOND, zermelo(n))


def position_path(coords) -> str:
    parts: list[str] = []
    for c in coords:
        parts += [DIAMOND, zermelo(c)]
    return compose_all(parts)


def make_tuple(entries) -> str:
    return make(compose(e, position(i)) for i, e in enumerate(entries))


def kuratowski_pair(a: str, b: str) -> str:
    return make([make([a]), make([a, b])])


DIAMOND = kuratowski_pair(zermelo(1), zermelo(0))


def middle_entry(n: int, e: str, k: int) -> str:
    """Slot n carried through entry e to marker k."""
    return compose_all([zermelo(n), DIAMOND, e, DIAMOND, zermelo(k)])


def branch(n: int, e: str) -> str:
    """Branch e wrapped as bottom marker n."""
    return compose_all([zermelo(n), DIAMOND, e])


def maximal(texts) -> list[str]:
    """Members not strictly inside another member."""
    hs = list(dict.fromkeys(texts))
    return [h for h in hs if not any(o != h and is_constituent(h, o) for o in hs)]


def independent(texts) -> bool:
    """Pairwise distinct, and none inside another."""
    texts = list(texts)
    return len(set(texts)) == len(texts) and len(maximal(texts)) == len(texts)


def covers(text: str) -> list[str]:
    """Lower covers of a set: its maximal proper constituents."""
    return maximal(elements(text))


def diagram(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    """Covering diagram: vertices in shortlex order, edges (lower, upper)."""
    verts = sorted(constituents(text), key=shortlex)
    index = {v: i for i, v in enumerate(verts)}
    edges = sorted((index[u], index[w]) for w in verts for u in covers(w))
    return verts, edges


def is_top(c: str, b: str) -> bool:
    """Whether c(a) = b for some a; any witness is a constituent of b."""
    return any(compose(c, a) == b for a in constituents(b))


def has_bottom(b: str, a: str) -> bool:
    return compose(replace(b, a, EMPTY), a) == b


def lcc_set(a: str, b: str) -> str:
    return make(maximal(constituents(a) & constituents(b)))


def maximal_constituents(s: str) -> str:
    return make(covers(s))


def map_union(x: str, y: str) -> str:
    """x rebuilt with y's elements unioned into every subterm, bottom-up."""
    extra = elements(y)
    stack: list[list[str]] = [[]]
    for ch in x:
        if ch == "{":
            stack.append([])
        elif ch == "}":
            done = make(stack.pop() + list(extra))
            stack[-1].append(done)
    return stack[0][0]


def instance_count(text: str) -> int:
    return text.count("{")


def levels(n: int, edges) -> list[int]:
    """Longest-path height of each vertex above the sources."""
    uppers: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in edges:
        uppers[a].append(b)
        indeg[b] += 1
    level = [0] * n
    ready = [v for v in range(n) if indeg[v] == 0]
    while ready:
        v = ready.pop()
        for u in uppers[v]:
            level[u] = max(level[u], level[v] + 1)
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    return level


def witness_ok(n1, edges1, top1, bottom1, n2, edges2, top2, bottom2, mapping) -> bool:
    """Whether mapping is a bijection carrying edges, top and bottom exactly."""
    if n1 != n2 or len(mapping) != n1 or sorted(mapping) != list(range(n2)):
        return False
    if mapping[top1] != top2 or mapping[bottom1] != bottom2:
        return False
    return {(mapping[a], mapping[b]) for a, b in edges1} == set(edges2)


def isomorphic(n1, edges1, n2, edges2, limit: int = 2_000_000) -> bool:
    """Digraph isomorphism by backtracking over degree- and level-matched
    candidates.  Raises RuntimeError when the search exceeds `limit` steps."""
    if n1 != n2 or len(edges1) != len(edges2):
        return False

    def invariants(n, edges):
        lv = levels(n, edges)
        ins = [0] * n
        outs = [0] * n
        for a, b in edges:
            outs[a] += 1
            ins[b] += 1
        return [(lv[v], ins[v], outs[v]) for v in range(n)]

    inv1, inv2 = invariants(n1, edges1), invariants(n2, edges2)
    if sorted(inv1) != sorted(inv2):
        return False
    adj1, adj2 = set(edges1), set(edges2)
    order = sorted(range(n1), key=lambda v: inv1[v])
    mapping: dict[int, int] = {}
    used: set[int] = set()
    steps = 0
    # explicit stack of (depth, candidate iterator)
    frames = [iter([w for w in range(n2) if inv2[w] == inv1[order[0]]])]
    while frames:
        depth = len(frames) - 1
        v = order[depth]
        if v in mapping:
            used.discard(mapping.pop(v))
        for w in frames[-1]:
            steps += 1
            if steps > limit:
                raise RuntimeError("isomorphism oracle exceeded its step limit")
            if w in used:
                continue
            if all(
                ((u, v) in adj1) == ((mapping[u], w) in adj2)
                and ((v, u) in adj1) == ((w, mapping[u]) in adj2)
                for u in mapping
            ):
                mapping[v] = w
                used.add(w)
                break
        else:
            frames.pop()
            continue
        if depth + 1 == n1:
            return True
        nxt = order[depth + 1]
        frames.append(iter([w for w in range(n2) if inv2[w] == inv1[nxt]]))
    return False
