"""Numeral encodings on pure sets and arithmetic through the calculus.

Two encodings: successor numerals (each number is the singleton of its
predecessor) and cumulative numerals (each number is the set of all smaller
ones).  Addition is composition for the first scheme and element-wise union
injection for the second; multiplication goes through structure diagrams,
because the covering diagram of a successor numeral n is a chain and realizing
the product of two chains yields the numeral of the product.
"""

from __future__ import annotations

from .algebra import compose, map_union
from .errors import NotANumeral
from .kernel import EMPTY, SetHandle, _require_set, _wrap, fold, make_set
from .structure import graph_product, simplest_set, structure_of

__all__ = [
    "zermelo",
    "vn",
    "as_zermelo",
    "as_vn",
    "is_zermelo",
    "is_vn",
    "add_zermelo",
    "add_vn",
    "mul_structural",
]


def _unwrap(h: SetHandle) -> tuple[int, SetHandle]:
    """(n, core) with h = _wrap(n, core) and core no singleton."""
    n = 0
    while len(h.children) == 1:
        h = h.children[0]
        n += 1
    return n, h


def _require_int(n: object, what: str = "a numeral") -> None:
    """Raise TypeError, naming what n is and its type, unless n is an int (a
    bool is one)."""
    if not isinstance(n, int):
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")


def zermelo(n: int) -> SetHandle:
    """Successor numeral: 0 = {}, n+1 = {n}."""
    _require_int(n)
    return _wrap(n, EMPTY)


def vn(n: int) -> SetHandle:
    """Cumulative numeral: n = {0, 1, ..., n-1}."""
    _require_int(n)
    if n < 0:
        raise ValueError("numerals are non-negative")
    acc: list[SetHandle] = []
    h = EMPTY
    for _ in range(n):
        acc.append(h)
        h = make_set(acc)
    return h


def as_zermelo(h: SetHandle) -> int | None:
    """Value of a successor numeral, or None when h is not one."""
    _require_set(h)
    n, core = _unwrap(h)
    return n if core is EMPTY else None


def as_vn(h: SetHandle) -> int | None:
    """Value of a cumulative numeral, or None when h is not one.

    Walks the structure instead of rebuilding candidate numerals, so junk
    input of any size is rejected cheaply.
    """
    _require_set(h)
    return fold(h, _vn_value, {EMPTY: 0})


def _vn_value(w: SetHandle, vals: list[int | None]) -> int | None:
    if None in vals or sorted(vals) != list(range(len(vals))):  # type: ignore[type-var]
        return None
    return len(vals)


def is_zermelo(h: SetHandle) -> bool:
    return as_zermelo(h) is not None


def is_vn(h: SetHandle) -> bool:
    return as_vn(h) is not None


def _require(value: int | None, h: SetHandle, scheme: str) -> int:
    if value is None:
        raise NotANumeral(f"not a {scheme} numeral: {h!r}")
    return value


def add_zermelo(a: SetHandle, b: SetHandle) -> SetHandle:
    """Sum of successor numerals: plug b in for a's bottom."""
    _require(as_zermelo(a), a, "successor")
    _require(as_zermelo(b), b, "successor")
    return compose(a, b)


def add_vn(a: SetHandle, b: SetHandle) -> SetHandle:
    """Sum of cumulative numerals: union b into every member, all levels."""
    _require(as_vn(a), a, "cumulative")
    _require(as_vn(b), b, "cumulative")
    return map_union(a, b)


def mul_structural(a: SetHandle, b: SetHandle) -> SetHandle:
    """Product of successor numerals via diagrams.

    Both diagrams are chains; substituting one chain for every edge of the
    other gives the chain of the product, whose least realization is again a
    successor numeral.
    """
    _require(as_zermelo(a), a, "successor")
    _require(as_zermelo(b), b, "successor")
    return simplest_set(graph_product(structure_of(a), structure_of(b)))
