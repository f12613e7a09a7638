"""Exception types shared by the calculus modules."""

from __future__ import annotations

__all__ = [
    "CalculusError",
    "MalformedText",
    "NotABottom",
    "NotUnique",
    "NoneFound",
    "EmptyHasNoMaximal",
    "NotANumeral",
    "Unrealizable",
    "MalformedGraph",
    "NoSuchPosition",
    "NotAStructure",
    "TerminalMismatch",
    "ArityMismatch",
    "NotAPermutation",
    "IndexOutOfRange",
    "SearchBudgetExceeded",
    "EvalError",
    "ExprSyntaxError",
]


class CalculusError(Exception):
    """Base class for every domain error raised by this package."""


class MalformedText(CalculusError):
    """Input text is not a well-formed brace expression."""


class NotABottom(CalculusError):
    """The claimed bottom part does not sit at the bottom of the set."""


class NotUnique(CalculusError):
    """An operation that requires a single answer found several."""


class NoneFound(CalculusError):
    """An operation that requires an answer found none."""


class EmptyHasNoMaximal(CalculusError):
    """The empty set has no constituents besides itself."""


class NotANumeral(CalculusError):
    """The set does not encode a natural number in the requested scheme."""


class Unrealizable(CalculusError):
    """No set realizes the requested structure diagram."""


class MalformedGraph(CalculusError, ValueError):
    """The diagram is not a well-formed covering diagram, or its JSON has
    another shape; a ValueError too, for check_graph's callers."""


class NoSuchPosition(CalculusError):
    """The tuple has no occupant at the requested position path."""


class NotAStructure(CalculusError):
    """The set fails validation as a top, bottom, or middle structure."""


class TerminalMismatch(CalculusError):
    """Top and bottom structures do not agree terminal-for-terminal."""


class ArityMismatch(CalculusError):
    """Two structures that must share an arity do not."""


class NotAPermutation(CalculusError):
    """The mapping is not a bijection on 0..m-1."""


class IndexOutOfRange(CalculusError):
    """A terminal index lies outside the structure's arity."""


class SearchBudgetExceeded(CalculusError):
    """A bounded search ran out of budget before reaching an answer."""


class EvalError(CalculusError):
    """Evaluation of an expression failed; wraps the underlying error."""


class ExprSyntaxError(CalculusError):
    """The expression source does not match the grammar."""
