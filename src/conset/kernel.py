"""Interned canonical handles for pure finite sets.

Every distinct set is stored exactly once: a one-element set under its
element, any other under the hash of its element set, checked against the
handle found there.  Finding a set already built sorts nothing and reads no
text.  A new handle keeps its elements as a tuple of child handles sorted by
the shortlex order of their canonical text (length first, then
lexicographic).  Because construction always goes through the intern table,
handle identity coincides with set equality and every equality test in the
package is a single pointer comparison.

A handle records three numbers read off its children when it is built: its
rank (nesting height), its instance count and its text length.  It keeps its
canonical text only when that is short; a longer text is rendered on demand
from the children, so memory follows the distinct subterms, not the written
form, whose length can grow with depth squared.  The element order is read
off the children too: lengths first, then the first child that differs.  No
handle stores its constituents.  What lies inside what is answered by a walk
over the DAG, bounded by rank: a set lies only inside sets of higher rank, so
is_constituent, and a fold given a floor, descend into nothing ranked at or
below the set they look for.

A deep set is mostly runs of one-element sets, such as successor chains.  A
run is built, rebuilt and printed a run at a time: _wrap builds one level
per loop step from the singleton table, fold rebuilds the run above a node
the same way when it substitutes, and the text of a run is written as its
open braces, its end and its close braces.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, NoReturn, TypeVar

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


# Texts of at most this many characters are stored: the ones repr shows whole
_STORED = 48


class SetHandle:
    """A canonical pure finite set.  Obtain via make_set or parse only.

    rank is the nesting height: 0 for {} (the only rank-0 set), otherwise one
    more than the tallest element.  instances is the number of subterm
    occurrences: one for the set plus the instances of each element.  size is
    the length of the canonical text: 2 for {}, otherwise the braces, the
    commas and the sizes of the elements.

    A handle is the one handle of its set, so copy.copy and copy.deepcopy
    give it back, and pickle.loads(pickle.dumps(h)) is h: a handle pickles
    as the flat encoding of its subterms that _encode writes, and loads
    through the intern table, in this interpreter or another, at any depth.
    Only make_set and _wrap, which intern what they build, pass the key the
    constructor asks for; any other SetHandle(children) call raises
    TypeError, so no second handle for a set is built outside the table.
    A handle's fields can still be set from Python (h.rank = 0 is allowed);
    this is not enforced, since a __setattr__ guard would slow every build.
    """

    __slots__ = ("uid", "children", "rank", "instances", "size", "_text")

    def __init__(self, children: tuple["SetHandle", ...], key: object = None):
        if key is not _INTERN:
            raise TypeError("sets are made by make_set or parse, not SetHandle()")
        self.children = children
        if len(children) == 1:
            # a level of a run: everything is read off the one element
            (c,) = children
            self.rank = c.rank + 1
            self.instances = c.instances + 1
            size = self.size = c.size + 2
            self._text = "{" + c._text + "}" if size <= _STORED else None
        else:
            rank = 0
            instances = 1
            size = 1 + len(children) if children else 2
            for c in children:
                if c.rank >= rank:
                    rank = c.rank + 1
                instances += c.instances
                size += c.size
            self.rank = rank
            self.instances = instances
            self.size = size
            # the elements of a short set are shorter still, so all are stored
            self._text = (
                "{" + ",".join([c._text for c in children]) + "}"
                if size <= _STORED
                else None
            )
        # drawn last, so a child that is not a set draws no uid
        self.uid = next(_ids)

    @property
    def text(self) -> str:
        """The canonical text: stored when short, otherwise rendered now."""
        t = self._text
        return t if t is not None else _render(self)

    def __repr__(self) -> str:
        t = self._text
        if t is None:
            t = _end(self, False) + "..." + _end(self, True)
        return f"<set {t}>"

    def __len__(self) -> int:
        return len(self.children)

    def __iter__(self):
        return iter(self.children)

    def __copy__(self) -> "SetHandle":
        return self

    def __deepcopy__(self, memo: dict) -> "SetHandle":
        return self

    def __reduce__(self) -> tuple:
        return _restore, (_encode(self),)

    def __lt__(self, other: "SetHandle") -> bool:
        """Whether self's canonical text sorts before other's, character by
        character (not shortlex: _shortlex compares sizes first).

        No text is a proper prefix of another, so the texts compare as their
        element sequences: at the first pair of elements that differ, by that
        pair; when one sequence is a prefix of the other, the longer sorts
        first, because "," precedes "}".  One pair is followed down per
        level, so the walk needs no stack and reads no text but stored ones.
        Two distinct one-element sets differ in their elements, so runs of
        them, as in two numeral chains, are followed down in a tight loop.
        """
        a, b = self, other
        while a is not b:
            if a._text is not None and b._text is not None:
                return a._text < b._text
            ka, kb = a.children, b.children
            while len(ka) == 1 and len(kb) == 1:
                ka, kb = ka[0].children, kb[0].children
            for x, y in zip(ka, kb):
                if x is not y:
                    a, b = x, y
                    break
            else:
                return len(ka) > len(kb)
        return False

    # identity-based __eq__/__hash__ are correct because of interning


def _render(h: SetHandle) -> str:
    """The canonical text of h, whatever its length.

    A long constituent met more than once in the text is joined once,
    shorter ones first, and each later meeting costs one piece, so the work
    follows the distinct subterms plus the text's length, and the memory the
    text's length.  A run of singletons is printed a run at a time, up to
    the first level whose text is stored or joined here.
    """
    memo: dict[SetHandle, str | None] = {}
    seen = {h}
    stack = [h]
    while stack:
        for c in stack.pop().children:
            if c._text is None:
                if c in seen:
                    memo[c] = None
                else:
                    seen.add(c)
                    stack.append(c)
    # an element is shorter than its set, so each join finds its parts ready
    for c in sorted(memo, key=lambda c: c.size):
        memo[c] = "".join(_pieces(c, memo))
    return "".join(_pieces(h, memo))


def _pieces(h: SetHandle, memo: dict[SetHandle, str | None]) -> Iterator[str]:
    """h's text as stored or memo texts, braces and commas, in text order.

    A node whose text is neither stored nor in memo opens a run: the
    one-element sets below it are followed down to the first that is not
    one, or whose element has a stored or memo text.  The run's open braces
    are one piece and its close braces another, so a run costs one step
    however many levels it has.
    """
    # an entry is (the children left to print, the braces that close them)
    stack: list[tuple[Iterator[SetHandle], str]] = []
    todo: Iterator[SetHandle] = iter((h,))
    close = ""
    first = True
    while True:
        for c in todo:
            if first:
                first = False
            else:
                yield ","
            t = c._text or memo.get(c)
            if t is not None:
                yield t
                continue
            n = 1
            kids = c.children
            while len(kids) == 1 and (kids[0]._text or memo.get(kids[0])) is None:
                kids = kids[0].children
                n += 1
            yield "{" * n
            stack.append((todo, close))
            todo = iter(kids)
            close = "}" * n
            first = True
            break
        else:
            if not stack:
                return
            yield close
            todo, close = stack.pop()


# A text longer than 48 characters has 22 before the end of its first (last)
# long element, or within its short elements before that, so _end enters at
# most one element per level and renders nothing else.  The last 22 are the
# first 22 of the text mirrored: elements from the end, stored texts reversed.


def _end(h: SetHandle, last: bool) -> str:
    """The first 22 characters of a text longer than 48, or the last 22."""
    step = -1 if last else 1
    brace = "}" if last else "{"
    s = brace
    kids = h.children
    while len(s) < 22:
        for c in kids[::step]:
            t = c._text
            if t is None:
                s += brace
                kids = c.children
                break
            s += t[::step]
            if len(s) >= 22:
                break
            s += ","
    return s[:22][::step]


# A one-element set is keyed by its element.  Any other set is keyed by the
# hash of its element set, an int, unless a different set holds that hash;
# then it is keyed by the element set itself.  The int keys live apart from
# the elements, so no int can pass for an element.
_single: dict[SetHandle, SetHandle] = {}
_table: dict[int | frozenset[SetHandle], SetHandle] = {}
_ids = itertools.count()
# the key SetHandle takes from make_set and _wrap, which intern what they build
_INTERN = object()


def _require_set(*hs: object) -> None:
    """Raise TypeError, naming the type, unless every h is a set handle."""
    for h in hs:
        if not isinstance(h, SetHandle):
            raise TypeError(f"expected a set, got {type(h).__name__}")


def _shortlex(h: SetHandle) -> tuple[int, SetHandle]:
    """Sort key of the canonical element order: text length, then text
    (SetHandle.__lt__, which only equal lengths reach)."""
    return h.size, h


def make_set(elems: Iterable[SetHandle]) -> SetHandle:
    """The canonical set whose elements are the given handles.

    A one-item list or tuple is looked up by its item, with no frozenset.
    Otherwise the distinct elements are gathered in a frozenset: one of them
    is looked up by itself, and any other number by the frozenset's hash,
    which finds the set when the handle stored there has exactly these
    elements (else by the frozenset itself).  A hit sorts nothing and reads
    no text; only a miss of two or more elements sorts by _shortlex.  The new
    handle stores its text length, and its text only when that is short.

    Elements are not checked on a hit: no intern entry is found by anything
    but handles.  A miss whose elements are not all handles raises TypeError
    naming the first wrong type, and draws no uid.
    """
    if (elems.__class__ is list or elems.__class__ is tuple) and len(elems) == 1:
        uniq = elems
    else:
        uniq = frozenset(elems)
        if len(uniq) != 1:
            key = hash(uniq)
            h = _table.get(key)
            if h is not None and (
                len(h.children) != len(uniq) or not uniq.issuperset(h.children)
            ):
                # another set holds this hash
                key = uniq
                h = _table.get(key)
            if h is None:
                try:
                    children = tuple(sorted(uniq, key=_shortlex))
                except AttributeError:
                    _require_set(*uniq)
                    raise
                # setdefault keeps insert-if-absent atomic; a racing duplicate loses
                h = _table.setdefault(key, SetHandle(children, _INTERN))
            return h
    (e,) = uniq
    h = _single.get(e)
    if h is None:
        try:
            h = SetHandle((e,), _INTERN)
        except AttributeError:
            _require_set(e)
            raise
        h = _single.setdefault(e, h)
    return h


def _wrap(n: int, x: SetHandle) -> SetHandle:
    """x inside n singletons: {...{x}...}.

    The run is built a level at a time from the singleton table, with no
    make_set call: a level already interned is found by its element, and a
    missing one is made and interned in place.  As in make_set, an x that is
    not a set raises TypeError naming its type and draws no uid.
    """
    if n < 0:
        raise ValueError("numerals are non-negative")
    single = _single
    try:
        for _ in range(n):
            h = single.get(x)
            if h is None:
                h = single.setdefault(x, SetHandle((x,), _INTERN))
            x = h
    except (AttributeError, TypeError):
        _require_set(x)
        raise
    return x


EMPTY: SetHandle = make_set(())


def empty() -> SetHandle:
    return EMPTY


def to_text(h: SetHandle, memo: dict[SetHandle, str] | None = None) -> str:
    """Canonical text of h; parse(to_text(h)) is h.

    With a memo, a text too long to store is kept in it, and read back from
    it where it occurs inside a text rendered later.  structure_of lists
    every set after its constituents, so rendering its tags in vertex order
    joins each text once.
    """
    _require_set(h)
    if memo is None or h._text is not None:
        return h.text
    t = memo.get(h)
    if t is None:
        t = memo[h] = "".join(_pieces(h, memo))
    return t


# str.translate deletes these; anything left over is whitespace or an error
_BRACE_TEXT = str.maketrans("", "", "{},")


def parse(text: str) -> SetHandle:
    """Parse brace text into a canonical handle.

    Whitespace between tokens is ignored.  The input need not be canonical:
    element order and duplicates are normalized during construction.

    The text is checked by string operations: whitespace is dropped only
    when something besides braces and commas is present; what remains must
    start with "{", end with "}", hold nothing but braces and commas, and
    contain none of "}{", "{,", ",}" and ",,".  It is then read with each
    "{}" as one token and the commas dropped, since every comma now lies
    between two elements: a leaf is {}, "{" opens a set and "}" builds it
    with make_set.  A text that fails a check, closes more than it opens,
    leaves a set open or holds more than one set is passed to _malformed,
    which raises MalformedText naming the first offending offset.
    """
    if not isinstance(text, str):
        raise TypeError(f"parse takes a str, got {type(text).__name__}")
    t = text
    if t.translate(_BRACE_TEXT):
        t = "".join(t.split())
        if t.translate(_BRACE_TEXT):
            _malformed(text)
    if (
        t[:1] != "{"
        or t[-1:] != "}"
        or "}{" in t
        or "{," in t
        or ",}" in t
        or ",," in t
    ):
        _malformed(text)
    stack: list[list[SetHandle]] = []
    items: list[SetHandle] = []
    for ch in t.replace("{}", "0").replace(",", ""):
        if ch == "0":
            items.append(EMPTY)
        elif ch == "{":
            stack.append(items)
            items = []
        else:
            h = make_set(items)
            try:
                items = stack.pop()
            except IndexError:
                # a close with nothing open
                _malformed(text)
            items.append(h)
    if stack or len(items) != 1:
        _malformed(text)
    return items[0]


def _malformed(text: str) -> NoReturn:
    """Raise MalformedText for the first fault in text, by its offset.

    parse calls this only for a text that is not one set: it failed a string
    check, or its reading closed a set that was not open, left one open or
    ended with more than one.  So every text given here is malformed, and
    the walk raises at the first character that no set text could have
    there, or else, at the end, for a set left open or never begun.  It
    reads a character at a time, keeping the nesting depth and the last
    token, and builds nothing.
    """
    depth = 0
    last = ""
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        if last and not depth:
            raise MalformedText(f"trailing input at offset {i}")
        if ch == "{":
            if last == "}":
                raise MalformedText(f"missing comma before offset {i}")
            depth += 1
        elif ch == "}":
            if not depth:
                raise MalformedText(f"unmatched close brace at offset {i}")
            if last == ",":
                raise MalformedText(f"dangling comma before offset {i}")
            depth -= 1
        elif ch == ",":
            if last != "}" or not depth:
                raise MalformedText(f"misplaced comma at offset {i}")
        else:
            raise MalformedText(f"unexpected character {ch!r} at offset {i}")
        last = ch
    raise MalformedText("unterminated set text")


def elements(h: SetHandle) -> list[SetHandle]:
    """Elements of h in canonical (shortlex) order."""
    _require_set(h)
    return list(h.children)


def cardinality(h: SetHandle) -> int:
    _require_set(h)
    return len(h.children)


def union(a: SetHandle, b: SetHandle) -> SetHandle:
    _require_set(a, b)
    return make_set(a.children + b.children)


T = TypeVar("T")


def _rebuild(w: SetHandle, kids: list[SetHandle]) -> SetHandle:
    """The set of the rebuilt children: fold's callback for a substitution."""
    return make_set(kids)


def fold(
    h: SetHandle,
    f: Callable[[SetHandle, list[T]], T],
    memo: dict[SetHandle, T],
    floor: int = -1,
    stop: Callable[[SetHandle], T | None] | None = None,
) -> T:
    """f(node, [values of node's children]) once per distinct subterm of h
    ranked above floor.

    Children are folded before their parents, depth first in element order.
    Nodes already in memo are leaves: their value is taken as is and they are
    not descended into.  A node ranked at or below floor and not in memo is
    not descended into or passed to f either: it stands for itself (memo
    keeps it so), also as the result when it is h.  A walk that looks for a
    set passes that set's rank, since only sets ranked above it can hold
    it; the default, -1, prunes nothing.  Every computed value is stored in
    memo, and memo[h] is returned.  The walk keeps its own stack, so depth is
    not limited by the interpreter's recursion limit.  A run of one-element
    sets below a node, such as a successor chain, is walked down in one loop
    and folded back up by _fold_run, with one stack entry for the whole run,
    not one per level; the walk down stops at a level whose element is in
    memo or ranked at or below floor.  When f is _rebuild, the run is rebuilt
    by _wrap, with no call per level; memo still gets every level, since a
    level inside the run can also be reached from elsewhere in h.

    stop, when given, is asked of each node fold would push a frame for: not
    of h, nor of the levels of a run above such a node.  A value other than
    None makes the node a leaf with that value, inside which nothing is
    visited or stored, and the run above it is folded at once.
    """
    if h not in memo:
        if h.rank <= floor:
            return h
        value = memo.__getitem__
        # an entry is (node, children to visit, the top of the run above node)
        stack = [(h, iter(h.children), h)]
        while stack:
            node, todo, top = stack[-1]
            for c in todo:
                if c in memo:
                    continue
                if c.rank <= floor:
                    memo[c] = c
                    continue
                # walk down to the first node that needs a frame: a singleton
                # whose element is in memo or at the floor, or a non-singleton
                run = c
                kids = c.children
                while len(kids) == 1 and kids[0] not in memo and kids[0].rank > floor:
                    c = kids[0]
                    kids = c.children
                if stop is not None and (v := stop(c)) is not None:
                    # a leaf has no frame, so its run is folded here
                    memo[c] = v
                    if run is not c:
                        _fold_run(run, c, v, f, memo)
                    continue
                stack.append((c, iter(kids), run))
                break
            else:
                stack.pop()
                v = memo[node] = f(node, [*map(value, node.children)])
                if top is not node:
                    _fold_run(top, node, v, f, memo)
    return memo[h]


def _fold_run(top: SetHandle, node: SetHandle, v: T, f: Callable, memo: dict) -> None:
    """Store in memo fold's value of each level of the run of singletons
    from top down to node, node left out, where node's value is v."""
    if f is _rebuild:
        # each level ranks one above the next; _wrap builds them bottom up
        v = _wrap(top.rank - node.rank, v)
        while top is not node:
            memo[top] = v
            top = top.children[0]
            v = v.children[0]
    else:
        run = []
        while top is not node:
            run.append(top)
            top = top.children[0]
        for r in reversed(run):
            v = memo[r] = f(r, [v])


def _encode(h: SetHandle) -> list[int]:
    """The distinct subterms of h in post-order, h last, as one flat list: a
    set of k elements, k != 1, as k and the indices of its elements, and a
    run of c singletons over such a set as -c and that set's index.

    One fold gives each subterm as (i, c), c singletons over the set of
    index i; a run gets an index of its own only where it is an element of
    a set of other than one element, or is h.  So a 10^5-deep chain is
    three items, and no recursion limit bounds the depth.
    """
    code: list[int] = []
    index: dict[tuple[int, int], int] = {}

    def number(v: tuple[int, int]) -> int:
        i = index.get(v)
        if i is None:
            code.extend((-v[1], v[0]))
            i = index[v] = len(index)
        return i

    def item(w: SetHandle, kids: list[tuple[int, int]]) -> tuple[int, int]:
        if len(kids) == 1:
            i, c = kids[0]
            return i, c + 1
        elems = [number(k) for k in kids]
        code.append(len(elems))
        code.extend(elems)
        v = (len(index), 0)
        index[v] = v[0]
        return v

    number(fold(h, item, {}))
    return code


def _restore(code: list[int]) -> SetHandle:
    """The set _encode wrote, rebuilt through make_set and _wrap, so it is
    the interned handle."""
    made: list[SetHandle] = []
    i = 0
    while i < len(code):
        k = code[i]
        if k < 0:
            made.append(_wrap(-k, made[code[i + 1]]))
            i += 2
        else:
            made.append(make_set([made[j] for j in code[i + 1 : i + 1 + k]]))
            i += 1 + k
    return made[-1]


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
    _require_set(h)
    found = _below((h,))
    found.add(h)
    return frozenset(found)


def constituents(h: SetHandle) -> list[SetHandle]:
    """Constituents of h sorted by shortlex canonical text."""
    return sorted(constituent_set(h), key=_shortlex)


def is_constituent(x: SetHandle, y: SetHandle) -> bool:
    """True when x occurs somewhere inside y (reflexively).

    Only nodes ranked above x can hold it, so the walk from y descends into
    nothing else and stops at the first hit.  {} is inside every set.  Both
    ranks are read before anything else, so an argument that is not a set
    raises TypeError naming its type, and a set pays for no check.
    """
    try:
        r = x.rank
        if y.rank <= r:
            return x is y
    except AttributeError:
        _require_set(x, y)
        raise
    if x is EMPTY:
        return True
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
    _require_set(h)
    return h.instances
