"""Top/bottom/middle structures, fusion, and the vertical-decomposition queries.

A top structure leaves numbered slots (position markers) open at its bottom; a
bottom structure carries numbered branches, each wrapped as a numbered branch
marker; fusion joins them by one simultaneous substitution of every slot by
its branch.  Both kinds of marker are built and read through conset.tuples,
which owns their format.

Middle structures are both at once.  Call a middle wired when part n is
the branch marker n over compose(e_n, P_s(n)), for entries e and a
permutation s of its slots P: middle builds the wired middles with s the
identity, middle_permutation those whose entries are all {}, and
middle_identity(m) is middle of m empty entries.  Wired middles form a
monoid under fuse_middle, with middle_identity(m) the unit at arity m (the
proof is fuse_middle's).  A valid middle built by hand need not be wired,
and fusing one can fail: TestBuiltReadings::test_fuse_middle_still_walks_what_it_fuses
in tests/test_contract.py pins such a pair.  Closing a middle structure
grounds both sides, turning its branches into a plain set.
The double-turnstile queries ask whether such a decomposition exists at all,
with exact verification: the top query searches assignments under a budget,
the bottom query walks x once.

A structure record is a reading of its set, and each function here that
takes one checks it against a true reading of that set.  Sets are interned,
so a middle reading is a pure function of the set and the offset, and the
16 middle readings used last are memoized, each with the branch every
marker wraps.  middle and middle_permutation know the reading of the set
they build from how they build it, and put it in the memo with no walk,
marked as read from construction; fuse_middle, given two middles read that
way, knows the reading of their fusion the same way, since it is wired
too.  So close(fuse_middle(middle(a), middle(b))) walks no set and parses
no marker.  A middle read by a walk is not known to be wired, so
fuse_middle walks what it fuses when either side was read by a walk.  A
record is still compared with the reading of its set.  Tops and bottoms
are read on every call.
"""

from __future__ import annotations

import functools
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
    _require_set,
    _shortlex,
    fold,
    make_set,
)
from .numerals import _require_int
from .tuples import _branch, _parse_marker, _positions, _slot

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


def _require_record(r: object) -> None:
    if not isinstance(r, (TopStructure, BottomStructure, MiddleStructure)):
        raise TypeError(f"expected a set or a structure record, got {type(r).__name__}")


def _holds(w: SetHandle, kids: list[bool]) -> bool:
    """Whether w holds a slot: _read's fold callback."""
    return True in kids


def _read(h: SetHandle) -> tuple[dict[int, SetHandle], list[SetHandle]]:
    """One fold of h: its slots by number, and the constituents it reaches
    that neither hold a slot nor lie inside one.

    The fold stops at slots, which never nest; it never asks stop about its
    root, so h is tested here first.  What lies inside the slots is read
    afterwards, and only when some node reached holds no slot, since a node
    that holds one lies inside none.
    """
    slots: dict[int, SetHandle] = {}

    def slot(c: SetHandle) -> bool | None:
        if (n := _slot(c)) is not None:
            slots[n] = c
            return True
        return None

    if slot(h):
        return slots, []
    held: dict[SetHandle, bool] = {}
    fold(h, _holds, held, stop=slot)
    unheld = [x for x, v in held.items() if not v]
    if unheld:
        inside = _below(slots.values())
        unheld = [x for x in unheld if x not in inside]
    return slots, unheld


def _require_contiguous(ks: list[int], offset: int) -> None:
    if ks != list(range(offset, offset + len(ks))):
        raise NotAStructure(f"marker indices {ks} are not contiguous from {offset}")


def top_structure(h: SetHandle, offset: int = 0) -> TopStructure:
    """Validate h as a top structure (strict: raises NotAStructure)."""
    _require_set(h)
    _require_int(offset, "offset")
    return TopStructure(set=h, arity=_top_arity(h, offset), offset=offset)


def _top_arity(h: SetHandle, offset: int) -> int:
    """The arity of h read as a top at offset; NotAStructure unless it is one."""
    slots, bypass = _read(h)
    if not slots:
        raise NotAStructure("no position markers occur in the set")
    _require_contiguous(sorted(slots), offset)
    if bypass:
        raise NotAStructure(
            f"constituent bypasses every terminal: {min(bypass, key=_shortlex)!r}"
        )
    return len(slots)


def bottom_structure(h: SetHandle, offset: int = 0) -> BottomStructure:
    """Validate h as a bottom structure (strict: raises NotAStructure).

    Every maximal proper constituent must parse as a numbered marker; the
    numbering must be contiguous.  (Every other constituent then sits below
    some marker automatically, which is the no-bypass condition.)
    """
    _require_set(h)
    _require_int(offset, "offset")
    if h is EMPTY:
        raise NotAStructure("the empty set carries no markers")
    return _bottom(h, offset)[0]


def _bottom(h: SetHandle, offset: int) -> tuple[BottomStructure, tuple[SetHandle, ...]]:
    """The bottom the maximal markers describe, and the branch each wraps."""
    parsed: dict[int, tuple[SetHandle, SetHandle]] = {}
    for m in _maximal_proper(h):
        n, x = _parse_marker(m)
        if n in parsed:
            raise NotAStructure(f"two maximal markers share index {n}")
        parsed[n] = m, x
    ks = sorted(parsed)
    _require_contiguous(ks, offset)
    markers = tuple(parsed[k][0] for k in ks)
    return (
        BottomStructure(set=h, arity=len(ks), offset=offset, markers=markers),
        tuple(parsed[k][1] for k in ks),
    )


def middle_structure(h: SetHandle, offset: int = 0) -> MiddleStructure:
    """Validate h as a middle structure (strict: raises NotAStructure)."""
    _require_set(h)
    _require_int(offset, "offset")
    return _read_middle(h, offset).middle


class _Reading(NamedTuple):
    """A set read as a middle by a walk: its two records and the branch each
    marker wraps, in marker order."""

    middle: MiddleStructure
    bottom: BottomStructure
    branches: tuple[SetHandle, ...]
    built = False


class _Built(_Reading):
    """A reading taken from how a wired middle was built.  It is a tuple of
    the same fields, so it equals the reading a walk of the set gives."""

    __slots__ = ()
    built = True


# the reading of each wired middle that middle, middle_permutation or
# fuse_middle is building, by its set, for _read_middle to memoize in place
# of a walk; every entry is the true reading of its set, so a thread may
# take another thread's
_BUILT: dict[SetHandle, _Reading] = {}


# a reading is immutable, so callers can share it; typed keeps an offset of
# True apart from one of 1
@functools.lru_cache(maxsize=16, typed=True)
def _read_middle(h: SetHandle, offset: int) -> _Reading:
    """One walk reads h for both records; the top is checked first.  The
    branches are parsed once, here, so close and fuse_middle read them from
    the reading.  A set that is being built is not walked: its reading at
    offset 0 is the one _BUILT holds for it."""
    if type(offset) is int and offset == 0:
        built = _BUILT.get(h)
        if built is not None:
            return built
    arity = _top_arity(h, offset)
    b, branches = _bottom(h, offset)
    if arity != b.arity:
        raise NotAStructure(f"slot arity {arity} differs from marker arity {b.arity}")
    if any(_slot(m) is not None for m in b.markers):
        raise NotAStructure("a bare position marker doubles as a branch marker")
    return _Reading(MiddleStructure(set=h, arity=arity, offset=offset), b, branches)


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
    _require_record(r)
    v = strict(r.set, r.offset)
    if v != r:
        raise NotAStructure(f"the record does not describe its set (arity {v.arity})")
    return v


def bottom_terminal(b: SetHandle | BottomStructure, n: int) -> SetHandle:
    """Branch n of a bottom structure: the marker with its wrapping removed."""
    _require_int(n, "a marker number")
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
    return _substitute(top, dict(zip(_positions(len(terms)), terms)))


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
    _require_set(*terms)
    return _fuse_formula(tv.set, list(terms))


def middle(entries: Sequence[SetHandle]) -> MiddleStructure:
    """Pass-through structure carrying each entry between slot n and marker n.

    Part n is the branch marker n over compose(e_n, P_n), where P_n is slot
    n, and the middle's reading follows from that construction, so its set
    is not walked:

    1. compose(e, P_n) rebuilds every node of e except {}, and each rebuilt
       node holds P_n.  No slot P_k with k != n holds P_n, since the
       constituents of P_k are its diamond pieces and numerals.  So P_n is
       the only slot in part n, and no diamond or wrap level is a slot.
    2. Every constituent of part n outside P_n holds it, so nothing
       bypasses a slot.
    3. P_i lies in no part j != i.  So the parts are distinct, none lies
       inside another, and they are exactly the maximal proper
       constituents; marker n parses as (n, compose(e_n, P_n)).
    4. Part 0 is a bare slot only if its branch is a numeral, and that
       branch holds P_0, which no numeral does.

    So the set is a middle of arity len(entries) at offset 0 whose markers
    are the parts in order: the reading a walk would give.
    """
    if not entries:
        raise ValueError("a middle structure needs at least one entry")
    branches = [compose(e, p) for e, p in zip(entries, _positions(len(entries)))]
    return _built(branches)


def _built(
    branches: Sequence[SetHandle],
    parts: Sequence[SetHandle] | None = None,
    h: SetHandle | None = None,
) -> MiddleStructure:
    """The wired middle whose part n wraps branches[n] as marker n, read
    from its construction: its reading is memoized as if _read_middle had
    walked it.  A caller that has the parts, or their set, passes them."""
    if parts is None:
        parts = [_branch(n, x) for n, x in enumerate(branches)]
    if h is None:
        h = make_set(parts)
    m = len(parts)
    _BUILT[h] = _Built(
        MiddleStructure(set=h, arity=m, offset=0),
        BottomStructure(set=h, arity=m, offset=0, markers=tuple(parts)),
        tuple(branches),
    )
    try:
        return _read_middle(h, 0).middle
    finally:
        _BUILT.pop(h, None)


def middle_identity(m: int) -> MiddleStructure:
    """The identity for fuse_middle at arity m: all entries empty."""
    _require_int(m, "an arity")
    if m < 1:
        raise ValueError("arity must be at least 1")
    return middle([EMPTY] * m)


def middle_permutation(perm: Sequence[int]) -> MiddleStructure:
    """Middle structure wiring slot n straight to marker perm(n).

    Part n is the branch marker n over P_perm(n), and its reading follows
    as middle's does with branch n = P_perm(n): each slot lies in one part
    only, every other constituent of that part holds it, and no branch is a
    numeral.  So its set is not walked either.
    """
    if sorted(perm) != list(range(len(perm))):
        raise NotAPermutation(f"{list(perm)} is not a permutation of 0..{len(perm) - 1}")
    slots = _positions(len(perm))
    return _built([slots[p] for p in perm])


def fuse_middle(
    a: SetHandle | MiddleStructure, b: SetHandle | MiddleStructure
) -> MiddleStructure:
    """Fuse a (as top) onto b (as bottom): slot k of a becomes branch k of b.

    A middle is wired when part n is _branch(n, compose(e_n, P_s(n))) for
    entries e and a permutation s; middle is the case s = id, and
    middle_permutation the case where every entry is {}.  Fusion keeps a
    middle wired: a = (sa, ea) fused onto b = (sb, eb) is the wired middle
    (sb . sa, [compose(ea_n, eb_sa(n))]).

    1. By middle's step 1, the only slot in part n of a is P_sa(n), where
       ea_n had {}, and every other node of the part holds it; no wrap or
       diamond level is a slot.  So the substitution rebuilds part n as
       _branch(n, compose(ea_n, B)), with B = compose(eb_sa(n), P_sb(sa(n)))
       the branch of b it puts in place of P_sa(n).
    2. compose is associative, so that branch is
       compose(compose(ea_n, eb_sa(n)), P_sb(sa(n))), and sb . sa is a
       permutation.

    Steps 1-4 of middle's proof hold for any permutation, since P_s(n) lies
    in part n only.  So the reading of the result follows from the
    construction: the substitution rebuilds a's marker n and branch n into
    the result's, and its memo holds them, so when both sides were read
    from construction the result is neither walked nor parsed.  For the
    same reason fusion is associative on wired middles, and
    middle_identity(m), with every entry {} and s = id, is its unit on
    both sides at arity m.

    A middle read by a walk need not be wired, and the fusion of two valid
    middles need not be a middle: TestBuiltReadings::test_fuse_middle_still_walks_what_it_fuses
    pins a pair whose fusion raises NotAStructure.  So when either side was
    read by a walk, the result is walked.
    """
    av, bv = _as(middle_structure, a), _as(middle_structure, b)
    # both read by the checks just made
    ra, rb = _read_middle(av.set, av.offset), _read_middle(bv.set, bv.offset)
    if av.arity != bv.arity:
        raise ArityMismatch(f"arity {av.arity} fused with arity {bv.arity}")
    if av.offset != 0 or bv.offset != 0:
        raise TerminalMismatch("fusion requires marker indices starting at 0")
    table = dict(zip(_positions(av.arity), rb.branches))
    h = _substitute(av.set, table)
    if not (ra.built and rb.built):
        return middle_structure(h)
    rebuilt = table.__getitem__
    return _built(
        tuple(map(rebuilt, ra.branches)), tuple(map(rebuilt, ra.bottom.markers)), h
    )


def close(m: SetHandle | MiddleStructure) -> SetHandle:
    """Ground both sides of a middle structure: its branches become elements.

    The branches are the middle's reading's, parsed once when it was read
    or known from construction, so close parses no marker.  They are
    gathered as the elements of one set, and their slots are grounded by
    fusing empty branches onto them, so equal or nested branches cannot
    lose a marker.
    """
    mv = _as(middle_structure, m)
    if mv.offset != 0:
        raise TerminalMismatch("fusion requires marker indices starting at 0")
    # read by the check just made
    branches = _read_middle(mv.set, mv.offset).branches
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
    _require_set(x)
    tv = _as(top_structure, t)
    if tv.offset != 0:
        raise NotAStructure("decomposition queries require offset-0 slots")
    m = tv.arity
    lt = _levels(tv.set, tv.set.rank)
    depths = [[d for d, lv in enumerate(lt) if p in lv] for p in _positions(m)]
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
    _require_set(x)
    bv = _as(bottom_structure, b)
    if bv.offset != 0:
        raise NotAStructure("decomposition queries require offset-0 markers")
    m = bv.arity
    terms = [_parse_marker(mk)[1] for mk in bv.markers]
    slots = _positions(m)
    inside = _below(slots)

    def preimages(w: SetHandle, kids: list[list[SetHandle]]) -> list[SetHandle]:
        out = [slots[n] for n in range(m) if terms[n] is w]
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
