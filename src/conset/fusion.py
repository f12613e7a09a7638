"""Top/bottom/middle structures, fusion, and the vertical-decomposition queries.

A top structure leaves numbered slots (position markers) open at its bottom; a
bottom structure carries numbered branches, each wrapped as the marker
n-singletons(diamond(branch)); fusion joins them by one simultaneous
substitution of every slot by its branch.  Markers of both kinds are
recognised by their shape, never by building candidates.

Middle structures are both at once and form a monoid under fusion; closing a
middle structure grounds both sides, turning its branches into a plain set.
The double-turnstile queries ask whether such a decomposition exists at all,
with exact verification: the top query searches assignments under a budget,
the bottom query walks x once.
"""

from __future__ import annotations

import itertools
from typing import Callable, NamedTuple, Sequence, TypeVar

from .algebra import _maximal_proper, _substitute, compose
from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    NotAPermutation,
    NotAStructure,
    SearchBudgetExceeded,
    TerminalMismatch,
)
from .kernel import (
    EMPTY,
    SetHandle,
    _below,
    _shortlex,
    constituent_set,
    fold,
    make_set,
)
from .numerals import as_zermelo, zermelo
from .tuples import _unpad, diamond, position

__all__ = [
    "TopStructure",
    "BottomStructure",
    "MiddleStructure",
    "top_structure",
    "bottom_structure",
    "middle_structure",
    "validate_top",
    "validate_bottom",
    "validate_middle",
    "bottom_terminal",
    "match_terminals",
    "fuse",
    "fuse_with_terminals",
    "middle",
    "middle_identity",
    "middle_permutation",
    "fuse_middle",
    "close",
    "has_top_structure",
    "has_bottom_structure",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 100_000

S = TypeVar("S")


class TopStructure(NamedTuple):
    set: SetHandle
    arity: int
    offset: int = 0


class BottomStructure(NamedTuple):
    set: SetHandle
    arity: int
    offset: int = 0
    # markers[i] is C_(offset+i), the branch i wrapped as a numbered marker
    markers: tuple[SetHandle, ...] = ()


class MiddleStructure(NamedTuple):
    set: SetHandle
    arity: int
    offset: int = 0


def _branch(n: int, x: SetHandle) -> SetHandle:
    """The marker numbered n wrapping x: n singletons over the diamond over x."""
    return compose(zermelo(n), compose(diamond(), x))


def _slot(w: SetHandle) -> int | None:
    """n when w is the position marker of slot n (the diamond over zermelo(n))."""
    x = _unpad(w)
    return None if x is None else as_zermelo(x)


def _terminals(h: SetHandle) -> dict[int, SetHandle]:
    """The position markers that occur inside h, by slot number."""
    return {n: w for w in constituent_set(h) if (n := _slot(w)) is not None}


def _require_contiguous(ks: list[int], offset: int) -> None:
    if ks != list(range(offset, offset + len(ks))):
        raise NotAStructure(f"marker indices {ks} are not contiguous from {offset}")


def top_structure(h: SetHandle, offset: int = 0) -> TopStructure:
    """Validate h as a top structure (strict: raises NotAStructure)."""
    terminals = _terminals(h)
    if not terminals:
        raise NotAStructure("no position markers occur in the set")
    _require_contiguous(sorted(terminals), offset)
    # x passes when it holds a terminal (holds[x]) or lies inside one; the
    # fold stops at terminals, so what it never reaches lies inside one
    holds = dict.fromkeys(terminals.values(), True)
    fold(h, lambda w, kids: any(kids), holds)
    inside = _below(terminals.values())
    bypass = [x for x, held in holds.items() if not held and x not in inside]
    if bypass:
        raise NotAStructure(
            f"constituent bypasses every terminal: {min(bypass, key=_shortlex)!r}"
        )
    return TopStructure(set=h, arity=len(terminals), offset=offset)


def _parse_marker(m: SetHandle) -> tuple[int, SetHandle]:
    """Split a marker n-singletons(diamond(x)) into (n, x)."""
    n = 0
    w = m
    while len(w.children) == 1:
        w = w.children[0]
        n += 1
    x = _unpad(w)
    if x is None:
        raise NotAStructure(f"marker residue is not a diamond stack: {w!r}")
    return n, x


def bottom_structure(h: SetHandle, offset: int = 0) -> BottomStructure:
    """Validate h as a bottom structure (strict: raises NotAStructure).

    Every maximal proper constituent must parse as a numbered marker; the
    numbering must be contiguous.  (Every other constituent then sits below
    some marker automatically, which is the no-bypass condition.)
    """
    if h is EMPTY:
        raise NotAStructure("the empty set carries no markers")
    markers: dict[int, SetHandle] = {}
    for m in _maximal_proper(h):
        n, _ = _parse_marker(m)
        if n in markers:
            raise NotAStructure(f"two maximal markers share index {n}")
        markers[n] = m
    ks = sorted(markers)
    _require_contiguous(ks, offset)
    return BottomStructure(
        set=h,
        arity=len(ks),
        offset=offset,
        markers=tuple(markers[k] for k in ks),
    )


def middle_structure(h: SetHandle, offset: int = 0) -> MiddleStructure:
    """Validate h as a middle structure (strict: raises NotAStructure)."""
    t = top_structure(h, offset)
    b = bottom_structure(h, offset)
    if t.arity != b.arity:
        raise NotAStructure(
            f"slot arity {t.arity} differs from marker arity {b.arity}"
        )
    if any(_slot(m) is not None for m in b.markers):
        raise NotAStructure("a bare position marker doubles as a branch marker")
    return MiddleStructure(set=h, arity=t.arity, offset=offset)


def _or_none(
    strict: Callable[[SetHandle, int], S], h: SetHandle, offset: int
) -> S | None:
    try:
        return strict(h, offset)
    except NotAStructure:
        return None


def validate_top(h: SetHandle, offset: int = 0) -> TopStructure | None:
    return _or_none(top_structure, h, offset)


def validate_bottom(h: SetHandle, offset: int = 0) -> BottomStructure | None:
    return _or_none(bottom_structure, h, offset)


def validate_middle(h: SetHandle, offset: int = 0) -> MiddleStructure | None:
    return _or_none(middle_structure, h, offset)


def _as(strict: Callable[[SetHandle, int], S], r: SetHandle | S) -> S:
    """A set validated by strict at offset 0, or a record re-validated against
    its own set: NotAStructure unless the record is what strict reads there."""
    if isinstance(r, SetHandle):
        return strict(r, 0)
    v = strict(r.set, r.offset)
    if v != r:
        raise NotAStructure(f"the record does not describe its set (arity {v.arity})")
    return v


def bottom_terminal(b: SetHandle | BottomStructure, n: int) -> SetHandle:
    """Branch n of a bottom structure: the marker with its wrapping removed."""
    bv = _as(bottom_structure, b)
    i = n - bv.offset
    if not 0 <= i < bv.arity:
        raise IndexOutOfRange(f"no marker {n} (arity {bv.arity}, offset {bv.offset})")
    return _parse_marker(bv.markers[i])[1]


def match_terminals(
    t: SetHandle | TopStructure, b: SetHandle | BottomStructure
) -> bool:
    """Whether every slot of t pairs with the equally numbered marker of b."""
    tv, bv = _as(top_structure, t), _as(bottom_structure, b)
    return tv.arity == bv.arity and tv.offset == bv.offset


def _fuse_formula(top: SetHandle, terms: Sequence[SetHandle]) -> SetHandle:
    """Every slot n of top replaced by terms[n] at once; branches stay intact."""
    return _substitute(top, {position(n): t for n, t in enumerate(terms)})


def fuse(t: SetHandle | TopStructure, b: SetHandle | BottomStructure) -> SetHandle:
    """Join a top structure onto a bottom structure along numbered slots."""
    return _fuse(_as(top_structure, t), _as(bottom_structure, b))


def _fuse(tv: TopStructure, bv: BottomStructure) -> SetHandle:
    if tv.offset != 0 or bv.offset != 0:
        raise TerminalMismatch("fusion requires marker indices starting at 0")
    if tv.arity != bv.arity:
        raise TerminalMismatch(
            f"slots (arity {tv.arity}) do not match markers (arity {bv.arity})"
        )
    # a validated bottom's markers parse and are numbered in slot order
    return _fuse_formula(tv.set, [_parse_marker(m)[1] for m in bv.markers])


def fuse_with_terminals(
    t: SetHandle | TopStructure, terms: Sequence[SetHandle]
) -> SetHandle:
    """Fuse bare branches onto a top structure's slots (no marker wrapping)."""
    tv = _as(top_structure, t)
    if tv.offset != 0:
        raise TerminalMismatch("fusion requires marker indices starting at 0")
    if len(terms) != tv.arity:
        raise ArityMismatch(f"{len(terms)} branches for {tv.arity} slots")
    return _fuse_formula(tv.set, list(terms))


def middle(entries: Sequence[SetHandle]) -> MiddleStructure:
    """Pass-through structure carrying each entry between slot n and marker n."""
    if not entries:
        raise ValueError("a middle structure needs at least one entry")
    parts = [_branch(n, compose(e, position(n))) for n, e in enumerate(entries)]
    return middle_structure(make_set(parts))


def middle_identity(m: int) -> MiddleStructure:
    """The identity for fuse_middle at arity m: all entries empty."""
    if m < 1:
        raise ValueError("arity must be at least 1")
    return middle([EMPTY] * m)


def middle_permutation(perm: Sequence[int]) -> MiddleStructure:
    """Middle structure wiring slot n straight to marker perm(n)."""
    if sorted(perm) != list(range(len(perm))):
        raise NotAPermutation(f"{list(perm)} is not a permutation of 0..{len(perm) - 1}")
    parts = [_branch(n, position(p)) for n, p in enumerate(perm)]
    return middle_structure(make_set(parts))


def fuse_middle(
    a: SetHandle | MiddleStructure, b: SetHandle | MiddleStructure
) -> MiddleStructure:
    """Fuse a (as top) onto b (as bottom); middle structures form a monoid."""
    av, bv = _as(middle_structure, a), _as(middle_structure, b)
    if av.arity != bv.arity:
        raise ArityMismatch(f"arity {av.arity} fused with arity {bv.arity}")
    # a middle is a top with the same fields
    return middle_structure(_fuse(TopStructure(*av), bottom_structure(bv.set, bv.offset)))


def close(m: SetHandle | MiddleStructure) -> SetHandle:
    """Ground both sides of a middle structure: its branches become elements.

    The branches are read off the middle's own markers, gathered as the
    elements of one set, and their slots are grounded by fusing empty
    branches onto them, so equal or nested branches cannot lose a marker.
    """
    mv = _as(middle_structure, m)
    if mv.offset != 0:
        raise TerminalMismatch("fusion requires marker indices starting at 0")
    branches = [_parse_marker(mk)[1] for mk in bottom_structure(mv.set).markers]
    return _fuse_formula(make_set(branches), [EMPTY] * mv.arity)


def _levels(h: SetHandle, depth: int) -> list[dict[SetHandle, None]]:
    """levels[d]: the nodes that end a descent of exactly d steps from h, for
    d up to depth, in the order a walk along element order first meets them."""
    levels = [{h: None}]
    for _ in range(depth):
        levels.append(dict.fromkeys([c for w in levels[-1] for c in w.children]))
    return levels


def has_top_structure(
    t: SetHandle | TopStructure,
    x: SetHandle,
    *,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Whether x decomposes with t on top (t followed by some branches).

    Complete search over candidates read off the shape: fusion rebuilds t
    above its slots, which never nest, so a slot that ends a descent of d
    steps from t becomes a branch that ends a descent of d steps from x.  A
    decomposition exists iff some assignment of such candidates both fuses
    to x and wraps into a valid bottom structure (fusion never reads a bottom
    beyond its markers, so the minimal marker set stands in for every bottom
    with those branches).  Each assignment tried costs one budget unit.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    tv = _as(top_structure, t)
    if tv.offset != 0:
        raise NotAStructure("decomposition queries require offset-0 slots")
    m = tv.arity
    lt = _levels(tv.set, tv.set.rank)
    depths = [[d for d, lv in enumerate(lt) if p in lv] for p in map(position, range(m))]
    # x is walked only to the deepest slot; lower levels are never read
    lx = _levels(x, max((ds[-1] for ds in depths), default=0))
    cands = [[a for a in lx[ds[0]] if all(a in lx[d] for d in ds)] for ds in depths]
    spent = 0
    for assign in itertools.product(*cands):
        spent += 1
        if spent > budget:
            raise SearchBudgetExceeded(
                f"stopped after {budget} candidate assignments"
            )
        if _fuse_formula(tv.set, assign) is not x:
            continue
        minimal = make_set(_branch(n, a) for n, a in enumerate(assign))
        got = validate_bottom(minimal)
        if got is not None and got.arity == m:
            return True
    return False


def has_bottom_structure(
    x: SetHandle,
    b: SetHandle | BottomStructure,
    *,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Whether x decomposes with b at the bottom (some top fused onto b).

    One walk up x builds the preimages of each subterm w.  A part of a valid
    top is a slot, lies inside a slot (fusion leaves it as it is) or holds a
    slot; so w is the image of slot n when branch n is w, of w itself when w
    lies inside a slot, or of a slot-holding set with a preimage of each
    element of w.  The set of every preimage of every element maps onto w as
    well and holds every slot a smaller choice holds, so one such set per
    node decides the query.  The root's candidates are verified by fusing.
    The query never runs out of budget; budget is only checked to be at
    least 1.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    bv = _as(bottom_structure, b)
    if bv.offset != 0:
        raise NotAStructure("decomposition queries require offset-0 markers")
    m = bv.arity
    terms = [_parse_marker(mk)[1] for mk in bv.markers]
    inside = _below(map(position, range(m)))

    def preimages(w: SetHandle, kids: list[list[SetHandle]]) -> list[SetHandle]:
        out = [position(n) for n in range(m) if terms[n] is w]
        if w in inside:
            out.append(w)
        parts = [p for ps in kids for p in ps]
        if all(kids) and any(p not in inside for p in parts):
            out.append(make_set(parts))
        return out

    for candidate in fold(x, preimages, {}):
        tv = validate_top(candidate)
        if tv is not None and tv.arity == m and _fuse_formula(candidate, terms) is x:
            return True
    return False
