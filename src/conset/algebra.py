"""Replacement, composition, and the constituent orders built from them.

Replacement x(y -> z) swaps every occurrence of y inside x for z in one
simultaneous pass: occurrences are judged against the original subterms of x,
and the result is rebuilt bottom-up so merged duplicates and element order
re-canonicalize.  Composition x(y) is replacement of the empty set.

A set lies only inside sets of higher rank, so a walk that looks for a set
stops at its rank: replacement rebuilds only what ranks above the least
replaced set, and the bottom queries (and the tuple extraction built on
them) read only what ranks above the bottom they look for.
"""

from __future__ import annotations

from typing import Iterable

from .errors import EmptyHasNoMaximal, NoneFound, NotABottom, NotUnique
from .kernel import (
    EMPTY,
    SetHandle,
    _below,
    _rebuild,
    _require_set,
    constituent_set,
    fold,
    is_constituent,
    make_set,
)

__all__ = [
    "replace",
    "compose",
    "compose_all",
    "has_bottom",
    "is_top",
    "remove_bottom",
    "remove_top",
    "maximal_elements",
    "maximal_constituents",
    "unique_maximum",
    "lcc_set",
    "lcc",
    "max_with_bottom",
    "max_with_bottom_unique",
    "with_top",
    "with_top_unique",
    "map_union",
]


def _substitute(x: SetHandle, table: dict[SetHandle, SetHandle]) -> SetHandle:
    """x with every key of table replaced by its value in one pass over the
    original subterms of x; no key may be a constituent of another.  table
    is the fold's memo, so it fills with the rebuilt subterms.

    A set that is no key and ranks at or below every key holds none, so it
    is unchanged: the floor is the least key rank, or rank(x) when lower.
    """
    floor = x.rank
    for k in table:
        if k.rank < floor:
            floor = k.rank
    return fold(x, _rebuild, table, floor)


def replace(x: SetHandle, y: SetHandle, z: SetHandle) -> SetHandle:
    """x with every occurrence of y replaced by z, judged on original subterms.

    Raises TypeError when an argument is not a set handle.
    """
    if not (
        isinstance(x, SetHandle) and isinstance(y, SetHandle) and isinstance(z, SetHandle)
    ):
        names = ", ".join(type(a).__name__ for a in (x, y, z))
        raise TypeError(f"replace takes sets, got {names}")
    if y is z or not is_constituent(y, x):
        return x
    return _substitute(x, {y: z})


def compose(x: SetHandle, y: SetHandle) -> SetHandle:
    """x(y): plant y under x by replacing every empty-set occurrence in x."""
    return replace(x, EMPTY, y)


def compose_all(items: Iterable[SetHandle]) -> SetHandle:
    """Right-to-left composition chain; empty input gives the empty set."""
    acc = EMPTY
    for item in reversed(list(items)):
        acc = compose(item, acc)
    return acc


def _held(w: SetHandle, kids: list) -> bool | None:
    """True when every child value is True, else None when some is, else False."""
    n = kids.count(True)
    return n == len(kids) or (None if n else False)


def _bottoms(x: SetHandle, a: SetHandle) -> dict[SetHandle, object]:
    """a mapped to True, and each constituent c of x ranked above a to _held:
    True when a is at the bottom of c.  Sets the walk met at or below rank(a)
    map to themselves.

    b(a -> {})(a) turns every empty set of b outside an a into a, so it is b
    exactly when every descent from b meets a before it meets the empty set.
    Below rank(a) a descent can no longer meet a but will meet the empty
    set, so the fold stops at rank(a): b is held when each element is a or
    held.
    """
    found: dict[SetHandle, object] = {a: True}
    fold(x, _held, found, a.rank)
    return found


def has_bottom(b: SetHandle, a: SetHandle) -> bool:
    """True when a sits at the bottom of b: b(a -> {})(a) = b.  One walk of
    b above rank(a) answers; no set there is held unless a is inside it."""
    _require_set(b, a)
    return _bottoms(b, a).get(b) is True


def _under_top(c: SetHandle, b: SetHandle) -> SetHandle | None:
    """The a with c(a) = b, or None.

    For non-empty k the elements of k(a) are the j(a) for j in k, so
    rank(k(a)) = rank(k) + rank(a), and every node of c(a) above a ranks
    higher than a.  On any descent of b the first node of rank at most
    rank(b) - rank(c) is therefore the only candidate, so a witness is unique.
    """
    target = b.rank - c.rank
    if target < 0:
        return None
    a = b
    while a.rank > target:
        a = a.children[0]
    return a if compose(c, a) is b else None


def is_top(c: SetHandle, b: SetHandle) -> bool:
    """True when c sits at the top of b: some a has c(a) = b."""
    _require_set(c, b)
    return _under_top(c, b) is not None


def remove_bottom(b: SetHandle, a: SetHandle) -> SetHandle:
    """The part of b above a; requires a at the bottom of b."""
    if not has_bottom(b, a):
        raise NotABottom(f"{a!r} is not at the bottom of {b!r}")
    # has_bottom walked b once; the substitution walks what lies above a
    return b if a is EMPTY else _substitute(b, {a: EMPTY})


def remove_top(c: SetHandle, b: SetHandle) -> SetHandle:
    """The unique a with c(a) = b when one exists, otherwise b itself."""
    _require_set(c, b)
    a = _under_top(c, b)
    return b if a is None else a


def maximal_elements(handles: Iterable[SetHandle]) -> list[SetHandle]:
    """Members of the collection that lie strictly inside no other member."""
    hs = list(dict.fromkeys(handles))
    _require_set(*hs)
    return _maximal(hs)


def _maximal(hs: list[SetHandle]) -> list[SetHandle]:
    """maximal_elements of distinct handles, not checked to be sets."""
    if len(hs) < 2:
        return hs
    below = _below(hs)
    return [h for h in hs if h not in below]


def _only(found: list[SetHandle], what: str) -> SetHandle:
    """The single handle found; NotUnique naming the count otherwise."""
    if len(found) != 1:
        raise NotUnique(f"{len(found)} {what}")
    return found[0]


def _maximal_proper(s: SetHandle) -> list[SetHandle]:
    """Maximal proper constituents of s; each one is an element of s."""
    _require_set(s)
    if s is EMPTY:
        raise EmptyHasNoMaximal("the empty set has no proper constituents")
    return _maximal(list(s.children))


def maximal_constituents(s: SetHandle) -> SetHandle:
    """The set of maximal proper constituents of s."""
    return make_set(_maximal_proper(s))


def unique_maximum(s: SetHandle) -> SetHandle:
    """The single maximal proper constituent of s; NotUnique otherwise."""
    return _only(_maximal_proper(s), f"maximal constituents in {s!r}")


def _common(a: SetHandle, b: SetHandle) -> list[SetHandle]:
    _require_set(a, b)
    return list(constituent_set(a) & constituent_set(b))


def lcc_set(a: SetHandle, b: SetHandle) -> SetHandle:
    """Set of the largest common constituents of a and b."""
    return make_set(_maximal(_common(a, b)))


def lcc(a: SetHandle, b: SetHandle) -> SetHandle:
    """The largest common constituent when it is unique."""
    return _only(_maximal(_common(a, b)), "largest common constituents")


def _max_with_bottom(a: SetHandle, b: SetHandle) -> list[SetHandle]:
    """The maximal constituents of a with b at their bottom, from one walk of
    a above rank(b), where all sets that can hold b lie.

    A held set other than b has only held elements, so the held sets inside
    another are exactly the elements of held sets other than b.  When none
    is held, b is the answer only if the walk met it (a value None, or a is
    b): a seed the walk never reached is no constituent.
    """
    _require_set(a, b)
    inside = set()
    held = []
    reached = a is b
    for c, v in _bottoms(a, b).items():
        if v is None:
            reached = True
        elif v is True and c is not b:
            held.append(c)
            inside.update(c.children)
    if not held:
        return [b] if reached else []
    return [c for c in held if c not in inside]


def max_with_bottom(a: SetHandle, b: SetHandle) -> SetHandle:
    """Set of the maximal constituents of a that have b at their bottom."""
    return make_set(_max_with_bottom(a, b))


def max_with_bottom_unique(a: SetHandle, b: SetHandle) -> SetHandle:
    found = _max_with_bottom(a, b)
    if not found:
        raise NoneFound(f"no constituent of {a!r} has {b!r} at the bottom")
    return _only(found, "maximal constituents with that bottom")


def _with_top(a: SetHandle, b: SetHandle) -> list[SetHandle]:
    _require_set(a, b)
    return [c for c in constituent_set(a) if _under_top(b, c) is not None]


def with_top(a: SetHandle, b: SetHandle) -> SetHandle:
    """Set of all constituents of a that have b at their top."""
    return make_set(_with_top(a, b))


def with_top_unique(a: SetHandle, b: SetHandle) -> SetHandle:
    """The single constituent of a with b at the top; NotUnique otherwise."""
    return _only(_with_top(a, b), f"constituents of {a!r} have {b!r} at the top")


def map_union(x: SetHandle, y: SetHandle) -> SetHandle:
    """Rebuild x unioning y into every subterm along the way."""
    _require_set(x, y)
    return fold(x, lambda w, kids: make_set(kids + list(y.children)), {})
