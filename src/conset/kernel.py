"""Interned canonical handles for pure finite sets.

Every distinct set is stored exactly once, keyed by the identities of its
distinct elements, so finding a set already built reads no text.  A new
handle keeps its elements as a tuple of child handles sorted by the shortlex
order of their canonical text (length first, then lexicographic), and caches
the canonical text built from that ordering.  Because construction always
goes through the intern table, handle identity coincides with set equality
and every equality test in the package is a single pointer comparison.

Besides its text, a handle records two numbers read off its children when it
is built, its rank (nesting height) and its instance count, and caches
nothing else; in particular no handle stores its constituents.  What lies
inside what is answered by a walk over the DAG, bounded by rank: a set lies
only inside sets of higher rank.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, TypeVar

from .errors import MalformedText

__all__ = [
    "SetHandle",
    "EMPTY",
    "empty",
    "make_set",
    "parse",
    "to_text",
    "elements",
    "cardinality",
    "union",
    "is_constituent",
    "constituent_set",
    "constituents",
    "instance_count",
]


class SetHandle:
    """A canonical pure finite set.  Obtain via make_set or parse only.

    rank is the nesting height: 0 for {} (the only rank-0 set), otherwise one
    more than the tallest element.  instances is the number of subterm
    occurrences: one for the set plus the instances of each element.
    """

    __slots__ = ("uid", "children", "text", "rank", "instances")

    def __init__(self, uid: int, children: tuple["SetHandle", ...], text: str):
        self.uid = uid
        self.children = children
        self.text = text
        rank = 0
        instances = 1
        for c in children:
            if c.rank >= rank:
                rank = c.rank + 1
            instances += c.instances
        self.rank = rank
        self.instances = instances

    def __repr__(self) -> str:
        t = self.text
        if len(t) > 48:
            t = t[:22] + "..." + t[-22:]
        return f"<set {t}>"

    def __len__(self) -> int:
        return len(self.children)

    def __iter__(self):
        return iter(self.children)

    # identity-based __eq__/__hash__ are correct because of interning


_table: dict[SetHandle | tuple[SetHandle, ...], SetHandle] = {}
_ids = itertools.count()


def _shortlex(h: SetHandle) -> tuple[int, str]:
    """Sort key of the canonical element order: text length, then text."""
    return len(h.text), h.text


def make_set(elems: Iterable[SetHandle]) -> SetHandle:
    """The canonical set whose elements are the given handles.

    Keyed by the only element, or else the distinct elements ordered by id (a
    sort in C that reads no text); only a miss sorts by _shortlex.
    """
    uniq = frozenset(elems)
    key = ()
    if len(uniq) == 1:
        (key,) = uniq
    elif uniq:
        key = tuple(sorted(uniq, key=id))
    h = _table.get(key)
    if h is None:
        children = tuple(sorted(uniq, key=_shortlex))
        text = "{" + ",".join(c.text for c in children) + "}"
        # setdefault keeps insert-if-absent atomic; a racing duplicate loses
        h = _table.setdefault(key, SetHandle(next(_ids), children, text))
    return h


EMPTY: SetHandle = make_set(())


def empty() -> SetHandle:
    return EMPTY


def to_text(h: SetHandle) -> str:
    """Canonical text of h; parse(to_text(h)) is h."""
    return h.text


def parse(text: str) -> SetHandle:
    """Parse brace text into a canonical handle.

    Whitespace between tokens is ignored.  The input need not be canonical:
    element order and duplicates are normalized during construction.
    """
    stack: list[list[SetHandle]] = []
    expect_item = True
    result: SetHandle | None = None
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        if result is not None:
            raise MalformedText(f"trailing input at offset {i}")
        if ch == "{":
            if not expect_item:
                raise MalformedText(f"missing comma before offset {i}")
            stack.append([])
            expect_item = True
        elif ch == "}":
            if not stack:
                raise MalformedText(f"unmatched close brace at offset {i}")
            if expect_item and stack[-1]:
                raise MalformedText(f"dangling comma before offset {i}")
            items = stack.pop()
            h = make_set(items) if items else EMPTY
            if stack:
                stack[-1].append(h)
            else:
                result = h
            expect_item = False
        elif ch == ",":
            if expect_item or not stack:
                raise MalformedText(f"misplaced comma at offset {i}")
            expect_item = True
        else:
            raise MalformedText(f"unexpected character {ch!r} at offset {i}")
    if result is None:
        raise MalformedText("unterminated set text")
    return result


def elements(h: SetHandle) -> list[SetHandle]:
    """Elements of h in canonical (shortlex) order."""
    return list(h.children)


def cardinality(h: SetHandle) -> int:
    return len(h.children)


def union(a: SetHandle, b: SetHandle) -> SetHandle:
    return make_set(a.children + b.children)


T = TypeVar("T")


def fold(
    h: SetHandle,
    f: Callable[[SetHandle, list[T]], T],
    memo: dict[SetHandle, T],
) -> T:
    """f(node, [values of node's children]) once per distinct subterm of h.

    Children are folded before their parents, depth first in element order.
    Nodes already in memo are leaves: their value is taken as is and they are
    not descended into.  Every computed value is stored in memo, and memo[h]
    is returned.  The walk keeps its own stack, so depth is not limited by
    the interpreter's recursion limit.
    """
    if h not in memo:
        stack = [(h, iter(h.children))]
        while stack:
            node, todo = stack[-1]
            for c in todo:
                if c not in memo:
                    stack.append((c, iter(c.children)))
                    break
            else:
                stack.pop()
                memo[node] = f(node, [memo[c] for c in node.children])
    return memo[h]


def _below(roots: Iterable[SetHandle]) -> set[SetHandle]:
    """Every proper constituent of some handle in roots.

    A root inside another root is included, so the roots missing from the
    result are the maximal ones.
    """
    below: set[SetHandle] = set()
    stack = list(roots)
    while stack:
        for c in stack.pop().children:
            if c not in below:
                below.add(c)
                stack.append(c)
    return below


def constituent_set(h: SetHandle) -> frozenset[SetHandle]:
    """All constituents of h (reflexive), as a frozenset of handles."""
    found = _below((h,))
    found.add(h)
    return frozenset(found)


def constituents(h: SetHandle) -> list[SetHandle]:
    """Constituents of h sorted by shortlex canonical text."""
    return sorted(constituent_set(h), key=_shortlex)


def is_constituent(x: SetHandle, y: SetHandle) -> bool:
    """True when x occurs somewhere inside y (reflexively).

    Only nodes ranked above x can hold it, so the walk from y descends into
    nothing else and stops at the first hit.  {} is inside every set.
    """
    if x is y or x is EMPTY:
        return True
    r = x.rank
    if y.rank <= r:
        return False
    seen = {y}
    stack = [y]
    while stack:
        for c in stack.pop().children:
            if c is x:
                return True
            if c.rank > r and c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def instance_count(h: SetHandle) -> int:
    """Number of subterm occurrences in h: one for h plus all element instances."""
    return h.instances
