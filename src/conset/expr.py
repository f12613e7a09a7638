"""Surface expression language over the calculus.

Grammar (whitespace-insensitive except between juxtaposed atoms):

    program  :=  { "let" IDENT "=" expr (";" | newline) }  expr
    expr     :=  unit { unit }            -- juxtaposition composes, right-assoc
    unit     :=  atom { "(" expr [ "->" expr | { "," expr }+ ] ")" }
    atom     :=  "{" [ expr { "," expr } ] "}"      -- set display
              |  NAT                                -- successor numeral ("12" is twelve)
              |  "V" NAT                            -- cumulative numeral
              |  "D"                                -- the diamond
              |  "P" "(" NAT { "," NAT } ")"        -- position path (innermost-first)
              |  "(" expr "," expr { "," expr } ")" -- positional tuple
              |  "[" expr { "," expr } "]" "M"      -- middle structure
              |  "fuse" "(" expr "," expr ")"
              |  "close" "(" expr ")"
              |  "kpair" "(" expr "," expr ")"
              |  IDENT

A unit's parenthesized tail is application x(y) = compose, replacement
x(y->z), or — with commas — composition with the tuple of the entries.

A set display written in braces and commas alone is read by `kernel.parse`
as one token; a display that `parse` rejects is read by the grammar above.
"""

from __future__ import annotations

from typing import Generator, NamedTuple

from . import fusion
from .algebra import compose, replace
from .errors import CalculusError, EvalError, ExprSyntaxError, MalformedText
from .kernel import SetHandle, make_set, parse
from .numerals import vn, zermelo
from .tuples import diamond, kuratowski_pair, make_tuple, position_path

__all__ = ["evaluate", "RESERVED"]

RESERVED = frozenset({"let", "D", "P", "V", "M", "fuse", "close", "kpair"})


class _Token(NamedTuple):
    kind: str  # nat vnat ident arrow newline set eof or the punct char itself
    text: str
    pos: int


_PUNCT = "{}()[],;="


def _tokenize(src: str) -> tuple[list[_Token], dict[int, SetHandle]]:
    """Tokens of src, and the handle of each "set" token by its offset."""
    toks: list[_Token] = []
    sets: dict[int, SetHandle] = {}
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "{":
            i = _brace_run(src, i, toks, sets)
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "\n":
            toks.append(_Token("newline", ch, i))
            i += 1
            continue
        if src.startswith("->", i):
            toks.append(_Token("arrow", "->", i))
            i += 2
            continue
        if ch in _PUNCT:
            toks.append(_Token(ch, ch, i))
            i += 1
            continue
        # isdecimal, not isdigit: int() rejects digits such as "²"
        if ch.isdecimal() or (ch == "V" and src[i + 1 : i + 2].isdecimal()):
            start = j = i + (ch == "V")
            while j < n and src[j].isdecimal():
                j += 1
            toks.append(_Token("vnat" if ch == "V" else "nat", src[start:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(_Token("ident", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r} at offset {i}")
    toks.append(_Token("eof", "", n))
    return toks, sets


def _brace_run(
    src: str, i: int, toks: list[_Token], sets: dict[int, SetHandle]
) -> int:
    """Tokenize the run of brace text that starts at src[i] == "{".

    A run is a stretch of braces, commas, spaces, tabs and CRs; a newline
    ends it, as it is a token.  Each group that closes inside the run, and
    lies in no larger such group, is read by `kernel.parse` and becomes one
    "set" token (text "{", at the group's offset).  A group that `parse`
    rejects, such as "{{}{}}" where juxtaposition composes, or "{,}", keeps
    its tokens brace by brace.  Returns the offset where the run ends.
    """
    n = len(src)
    run: list[int] = []  # offset of each brace and comma
    opened: list[int] = []  # index in run of each open brace
    groups: list[tuple[int, int]] = []  # indices in run of a group's braces
    while i < n:
        ch = src[i]
        if ch == "{":
            opened.append(len(run))
        elif ch == "}":
            if opened:
                k = opened.pop()
                while groups and groups[-1][0] > k:
                    groups.pop()
                groups.append((k, len(run)))
        elif ch != ",":
            if ch not in " \t\r":
                break
            i += 1
            continue
        run.append(i)
        i += 1
    done = 0
    for k, m in groups:
        lo = run[k]
        try:
            sets[lo] = parse(src[lo : run[m] + 1])
        except MalformedText:
            continue
        toks += [_Token(src[p], src[p], p) for p in run[done:k]]
        toks.append(_Token("set", "{", lo))
        done = m + 1
    toks += [_Token(src[p], src[p], p) for p in run[done:]]
    return i


_ATOM_STARTS = {"{", "set", "nat", "vnat", "ident", "(", "["}


class _Parser:
    def __init__(self, toks: list[_Token], sets: dict[int, SetHandle]):
        self.toks = toks
        self.sets = sets
        self.i = 0

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ExprSyntaxError(
                f"expected {what} at offset {t.pos}, found {t.text or 'end of input'!r}"
            )
        return self.next()

    def skip_separators(self) -> None:
        while self.peek().kind in ("newline", ";"):
            self.next()

    # program := let-statements, final expression
    def parse_program(self):
        bindings = []
        self.skip_separators()
        while self.peek().kind == "ident" and self.peek().text == "let":
            let_tok = self.next()
            name_tok = self.expect("ident", "a name after 'let'")
            if name_tok.text in RESERVED:
                raise ExprSyntaxError(
                    f"{name_tok.text!r} is reserved and cannot be bound"
                    f" (offset {name_tok.pos})"
                )
            self.expect("=", "'=' in let-binding")
            value = yield self.parse_expr()
            if self.peek().kind not in ("newline", ";", "eof"):
                t = self.peek()
                raise ExprSyntaxError(
                    f"expected end of statement at offset {t.pos}, found {t.text!r}"
                )
            bindings.append((name_tok.text, let_tok.pos, value))
            self.skip_separators()
        if self.peek().kind == "eof":
            raise ExprSyntaxError("the program must end with an expression")
        final = yield self.parse_expr()
        self.skip_separators()
        t = self.peek()
        if t.kind != "eof":
            raise ExprSyntaxError(
                f"trailing input at offset {t.pos}: {t.text!r}"
            )
        return bindings, final

    def parse_expr(self):
        units = [(yield self.parse_unit())]
        while self.peek().kind in _ATOM_STARTS:
            units.append((yield self.parse_unit()))
        node = units[-1]
        for u in reversed(units[:-1]):
            node = ("compose", u[1], u, node)
        return node

    def parse_unit(self):
        node = yield self.parse_atom()
        while self.peek().kind == "(":
            open_tok = self.next()
            first = yield self.parse_expr()
            t = self.peek()
            if t.kind == "arrow":
                self.next()
                repl = yield self.parse_expr()
                self.expect(")", "')' closing replacement")
                node = ("replace", open_tok.pos, node, first, repl)
            elif t.kind == ",":
                entries = [first]
                while self.peek().kind == ",":
                    self.next()
                    entries.append((yield self.parse_expr()))
                self.expect(")", "')' closing tuple argument")
                node = (
                    "compose",
                    open_tok.pos,
                    node,
                    ("tuple", open_tok.pos, entries),
                )
            else:
                self.expect(")", "')' closing application")
                node = ("compose", open_tok.pos, node, first)
        return node

    def parse_atom(self):
        t = self.peek()
        if t.kind == "set":
            self.next()
            return ("set", t.pos, self.sets[t.pos])
        if t.kind == "{":
            self.next()
            items = []
            if self.peek().kind != "}":
                items.append((yield self.parse_expr()))
                while self.peek().kind == ",":
                    self.next()
                    items.append((yield self.parse_expr()))
            self.expect("}", "'}' closing set display")
            return ("braces", t.pos, items)
        if t.kind == "nat":
            self.next()
            return ("nat", t.pos, int(t.text))
        if t.kind == "vnat":
            self.next()
            return ("vnat", t.pos, int(t.text))
        if t.kind == "(":
            self.next()
            first = yield self.parse_expr()
            if self.peek().kind != ",":
                raise ExprSyntaxError(
                    f"a parenthesized expression must be a tuple of two or more"
                    f" entries (offset {t.pos}); apply composition as x(y) instead"
                )
            entries = [first]
            while self.peek().kind == ",":
                self.next()
                entries.append((yield self.parse_expr()))
            self.expect(")", "')' closing tuple")
            return ("tuple", t.pos, entries)
        if t.kind == "[":
            self.next()
            entries = [(yield self.parse_expr())]
            while self.peek().kind == ",":
                self.next()
                entries.append((yield self.parse_expr()))
            self.expect("]", "']' closing middle structure")
            suffix = self.peek()
            if suffix.kind != "ident" or suffix.text != "M":
                raise ExprSyntaxError(
                    f"expected 'M' after ']' at offset {suffix.pos}"
                )
            self.next()
            return ("middle", t.pos, entries)
        if t.kind == "ident":
            word = t.text
            if word == "D":
                self.next()
                return ("diamond", t.pos)
            if word == "P":
                self.next()
                self.expect("(", "'(' after P")
                coords = [int(self.expect("nat", "a coordinate").text)]
                while self.peek().kind == ",":
                    self.next()
                    coords.append(int(self.expect("nat", "a coordinate").text))
                self.expect(")", "')' closing position path")
                return ("pospath", t.pos, coords)
            if word in ("fuse", "kpair"):
                self.next()
                self.expect("(", f"'(' after {word}")
                a = yield self.parse_expr()
                self.expect(",", f"',' between {word} arguments")
                b = yield self.parse_expr()
                self.expect(")", f"')' closing {word}")
                return (word, t.pos, a, b)
            if word == "close":
                self.next()
                self.expect("(", "'(' after close")
                a = yield self.parse_expr()
                self.expect(")", "')' closing close")
                return ("close", t.pos, a)
            if word in RESERVED:
                raise ExprSyntaxError(
                    f"{word!r} cannot stand alone (offset {t.pos})"
                )
            self.next()
            return ("name", t.pos, word)
        raise ExprSyntaxError(
            f"expected an expression at offset {t.pos}, found"
            f" {t.text or 'end of input'!r}"
        )


def _run(gen: Generator):
    """Run a parse or evaluation step that yields the steps it depends on.

    Each yielded step runs to completion and its result is sent back, so
    nesting depth costs list entries here, not interpreter frames.  An
    exception leaves straight through: the step that raised it has already
    wrapped it, and the steps waiting on it would only re-raise it.
    """
    stack, value = [gen], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def _eval_all(nodes, env: dict[str, SetHandle]):
    vals = []
    for e in nodes:
        vals.append((yield _eval(e, env)))
    return vals


def _eval(node, env: dict[str, SetHandle]):
    kind, pos = node[0], node[1]
    if kind == "set":
        return node[2]
    try:
        if kind == "braces":
            return make_set((yield from _eval_all(node[2], env)))
        if kind == "nat":
            return zermelo(node[2])
        if kind == "vnat":
            return vn(node[2])
        if kind == "diamond":
            return diamond()
        if kind == "pospath":
            return position_path(node[2])
        if kind == "tuple":
            return make_tuple((yield from _eval_all(node[2], env)))
        if kind == "middle":
            return fusion.middle((yield from _eval_all(node[2], env))).set
        if kind == "fuse":
            return fusion.fuse(*(yield from _eval_all(node[2:], env)))
        if kind == "close":
            return fusion.close((yield _eval(node[2], env)))
        if kind == "kpair":
            return kuratowski_pair(*(yield from _eval_all(node[2:], env)))
        if kind == "compose":
            return compose(*(yield from _eval_all(node[2:], env)))
        if kind == "replace":
            return replace(*(yield from _eval_all(node[2:], env)))
        if kind == "name":
            name = node[2]
            if name not in env:
                raise EvalError(f"unbound name {name!r} (offset {pos})")
            return env[name]
    except (EvalError, ExprSyntaxError):
        raise
    except CalculusError as e:
        raise EvalError(f"{e} (offset {pos})") from e
    raise AssertionError(f"unknown node kind {kind!r}")


def evaluate(source: str, env: dict[str, SetHandle] | None = None) -> SetHandle:
    """Run a program: let-bindings followed by one expression."""
    bindings, final = _run(_Parser(*_tokenize(source)).parse_program())
    scope = dict(env or {})
    for name, _pos, value in bindings:
        scope[name] = _run(_eval(value, scope))
    return _run(_eval(final, scope))
