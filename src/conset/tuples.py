"""Positional tuples via diamond padding, the marker format, and the classic
nested pair.

Each tuple entry is composed on top of a position marker (the diamond over a
successor numeral), which pads entries apart so no occupant can sit inside
another.  Extraction finds the unique maximal constituent with the marker at
its bottom and strips the marker.  This module owns the marker format: slot
and path markers, and fusion's branch markers, are built directly by their
shape and read back by their shape, never by composing or searching; slot
markers are kept in one table that grows on demand, so each is built once.
The classic two-set pair {{a},{a,b}} is provided with a diagnostic decoder that
reports exactly when and why the encoding loses information.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

from .algebra import _substitute, compose, max_with_bottom_unique
from .errors import NoneFound, NoSuchPosition, NotAStructure
from .kernel import EMPTY, SetHandle, _require_set, _wrap, is_constituent, make_set
from .numerals import _require_int, _unwrap, as_zermelo, zermelo

__all__ = [
    "diamond",
    "position",
    "position_path",
    "make_tuple",
    "contains_position",
    "constituent_at",
    "get_at",
    "kuratowski_pair",
    "kuratowski_top",
    "PairDiagnosis",
    "PairDecode",
    "decode_kuratowski",
]


def kuratowski_pair(a: SetHandle, b: SetHandle) -> SetHandle:
    """The nested pair {{a},{a,b}}; collapses to {{a}} when a = b."""
    return make_set([make_set([a]), make_set([a, b])])


def _pad(x: SetHandle) -> SetHandle:
    """The diamond over x, {{{x}},{x,{x}}}, which is compose(diamond(), x)."""
    return kuratowski_pair(make_set([x]), x)


def _unpad(w: SetHandle) -> SetHandle | None:
    """The x with _pad(x) is w, or None when there is none.

    The diamond over x is {{{x}},{x,{x}}}, its elements always in that
    shortlex order; the shape is checked by child identity, building nothing.
    """
    if len(w.children) == 2 and len(w.children[0].children) == 1:
        s = w.children[0].children[0]
        if len(s.children) == 1 and w.children[1].children == (s.children[0], s):
            return s.children[0]
    return None


def _slot(w: SetHandle) -> int | None:
    """n when w is the position marker of slot n (the diamond over zermelo(n))."""
    x = _unpad(w)
    return None if x is None else as_zermelo(x)


def _branch(n: int, x: SetHandle) -> SetHandle:
    """The branch marker numbered n wrapping x: n singletons over the diamond
    over x.  _branch(0, zermelo(k)) is position(k)."""
    return _wrap(n, _pad(x))


def _parse_marker(m: SetHandle) -> tuple[int, SetHandle]:
    """Split a branch marker _branch(n, x) into (n, x)."""
    n, w = _unwrap(m)
    x = _unpad(w)
    if x is None:
        raise NotAStructure(f"marker residue is not a diamond stack: {w!r}")
    return n, x


def diamond() -> SetHandle:
    """The smallest set whose covering diagram is not a chain: {{1},{0,1}}."""
    return _pad(EMPTY)


# position(0), position(1), ...: every marker _positions has built.  The list
# is never changed in place: a longer one is built beside it and the name
# rebound to it, so a reader sees only lists whose every entry is right.
_POSITIONS: list[SetHandle] = []


def position(n: int) -> SetHandle:
    """Marker for tuple slot n: the diamond over the successor numeral n.

    Read off the table of markers when it already holds slot n, built
    otherwise; position never grows the table.
    """
    _require_int(n, "a slot number")
    table = _POSITIONS
    if 0 <= n < len(table):
        return table[n]
    if n < 0:
        raise ValueError(f"slot {n} is negative: numerals are non-negative")
    return _pad(zermelo(n))


def _positions(m: int) -> list[SetHandle]:
    """[position(0), ..., position(m - 1)], a slice of the table of markers.

    A table shorter than m is extended by walking up the numeral chain once
    from its end, and published whole in one step.
    """
    global _POSITIONS
    table = _POSITIONS
    if len(table) < m:
        z = zermelo(len(table))
        tail = []
        for _ in range(m - len(table)):
            tail.append(_pad(z))
            z = _wrap(1, z)
        _POSITIONS = table = table + tail
    return table[:m]


def position_path(coords: Sequence[int]) -> SetHandle:
    """Marker for a nested slot; coords run innermost-first.

    Coordinate c wraps the marker of the coordinates after it in c
    singletons and then a diamond, so the first coordinate addresses the
    innermost tuple:
    position_path(p + q) = compose(position_path(p), position_path(q)).
    """
    if not coords:
        raise ValueError("a position path needs at least one coordinate")
    for i, c in enumerate(coords):
        _require_int(c, "a path coordinate")
        if c < 0:
            raise ValueError(f"path coordinate {i} is {c}: numerals are non-negative")
    marker = EMPTY
    for c in reversed(coords):
        marker = _pad(_wrap(c, marker))
    return marker


def make_tuple(entries: Sequence[SetHandle]) -> SetHandle:
    """Ordered tuple: each entry composed onto its position marker."""
    if not entries:
        raise ValueError("a tuple needs at least one entry")
    return make_set([compose(e, p) for e, p in zip(entries, _positions(len(entries)))])


def contains_position(t: SetHandle, coords: Sequence[int]) -> bool:
    """Whether the nested slot's marker occurs anywhere inside t."""
    _require_set(t)
    return is_constituent(position_path(coords), t)


def constituent_at(t: SetHandle, coords: Sequence[int], s: SetHandle) -> bool:
    """Whether s (or the occupant it is part of) sits at the given slot."""
    _require_set(t)
    return is_constituent(compose(s, position_path(coords)), t)


def get_at(t: SetHandle, coords: Sequence[int]) -> SetHandle:
    """The occupant of a nested slot: strip the marker from the unique
    maximal constituent that has it at the bottom."""
    marker = position_path(coords)
    try:
        occupant_with_pad = max_with_bottom_unique(t, marker)
    except NoneFound:
        raise NoSuchPosition(f"no marker for path {list(coords)} inside {t!r}") from None
    return _substitute(occupant_with_pad, {marker: EMPTY})


def kuratowski_top() -> SetHandle:
    """The upper part of the nested pair's diagram, terminals left open."""
    return kuratowski_pair(position(0), position(1))


class PairDiagnosis(enum.Enum):
    OK = "ok"
    OK_UNIQUE_DEGENERATE = "ok-unique-degenerate"
    AMBIGUOUS_SECOND = "ambiguous-second"
    NOT_A_PAIR_SHAPE = "not-a-pair-shape"


class PairDecode(NamedTuple):
    first: SetHandle | None
    second: SetHandle | None
    diagnosis: PairDiagnosis
    cardinality_used: bool


def decode_kuratowski(h: SetHandle) -> PairDecode:
    """Best reconstruction of (a, b) from {{a},{a,b}} with a diagnosis.

    The decoder reports how far the shape alone determines the entries:
    when b is a proper part of a, the covering diagram of the pair no longer
    names b, except in the single degenerate shape (a = {{}}) where only one
    candidate remains.  When the two entries were equal the braces collapse,
    and only the element count of the inner set (not its shape) rules the
    second entry; that dependence is flagged.
    """
    _require_set(h)
    elems = h.children
    if len(elems) == 1:
        (s,) = elems
        if len(s.children) == 1:
            # {{a}}: the collapsed pair (a, a).  Element count pins b = a,
            # but the shape admits any part of a, so stay ambiguous.
            return PairDecode(
                first=s.children[0],
                second=None,
                diagnosis=PairDiagnosis.AMBIGUOUS_SECOND,
                cardinality_used=True,
            )
        return PairDecode(None, None, PairDiagnosis.NOT_A_PAIR_SHAPE, False)
    if len(elems) != 2:
        return PairDecode(None, None, PairDiagnosis.NOT_A_PAIR_SHAPE, False)
    reading: tuple[SetHandle, SetHandle] | None = None
    for s, d in (elems, elems[::-1]):
        if len(s.children) == 1 and len(d.children) == 2:
            a = s.children[0]
            if a in d.children:
                b = next(c for c in d.children if c is not a)
                reading = (a, b)
                break
    if reading is None:
        return PairDecode(None, None, PairDiagnosis.NOT_A_PAIR_SHAPE, False)
    a, b = reading
    if is_constituent(b, a):
        # b is a proper part of a: the diagram admits every proper part of
        # a as the second entry, so b is determined only when a has exactly
        # one proper part (a = {{}}, b = {}).
        if a.rank == 1:
            return PairDecode(a, b, PairDiagnosis.OK_UNIQUE_DEGENERATE, False)
        return PairDecode(a, None, PairDiagnosis.AMBIGUOUS_SECOND, False)
    return PairDecode(a, b, PairDiagnosis.OK, False)
