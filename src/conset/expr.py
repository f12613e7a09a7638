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
One loop reads the grammar, with the constructs still open on its own stack,
and writes postfix code; a second loop runs that code on a stack of values.
So depth costs list entries, not interpreter frames, in both.
"""

from __future__ import annotations

from typing import NamedTuple

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


def _natural(t: _Token) -> int:
    """The value of a nat or vnat token: ExprSyntaxError at its offset when
    it has more digits than the interpreter converts to an int."""
    try:
        return int(t.text)
    except ValueError:
        raise ExprSyntaxError(
            f"numeral too long at offset {t.pos}: {len(t.text)} digits"
        ) from None


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

# frame kind -> the token that closes it, what is expected there, the op it
# writes; "apply" is a unit's tail x(y), which becomes "->" at an arrow and
# "tail," at a comma
_CLOSERS = {
    "{": ("}", "'}' closing set display", "braces"),
    "(": (")", "')' closing tuple", "tuple"),
    "[": ("]", "']' closing middle structure", "middle"),
    "fuse": (")", "')' closing fuse", "fuse"),
    "kpair": (")", "')' closing kpair", "kpair"),
    "close": (")", "')' closing close", "close"),
    "apply": (")", "')' closing application", "compose"),
    "->": (")", "')' closing replacement", "replace"),
    "tail,": (")", "')' closing tuple argument", "tuple"),
}


class _Parser:
    """Reads a program into postfix code: a list of (op, offset, arg)."""

    def __init__(self, toks: list[_Token], sets: dict[int, SetHandle]):
        self.toks = toks
        self.sets = sets
        self.i = 0
        self.code: list[tuple] = []

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
    def parse_program(self) -> list[tuple]:
        """The code of each binding's value and a "let" op, then the final
        expression's code."""
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
            self.parse_expr()
            if self.peek().kind not in ("newline", ";", "eof"):
                t = self.peek()
                raise ExprSyntaxError(
                    f"expected end of statement at offset {t.pos}, found {t.text!r}"
                )
            self.code.append(("let", let_tok.pos, name_tok.text))
            self.skip_separators()
        if self.peek().kind == "eof":
            raise ExprSyntaxError("the program must end with an expression")
        self.parse_expr()
        self.skip_separators()
        t = self.peek()
        if t.kind != "eof":
            raise ExprSyntaxError(
                f"trailing input at offset {t.pos}: {t.text!r}"
            )
        return self.code

    def parse_expr(self) -> None:
        """Read one expression, however deep, and append its code.

        `frames` holds the constructs still open, innermost last, each as
        [kind, offset, entries read, offsets of the units of the entry being
        read]; the bottom frame is the expression itself.  Juxtaposed units
        compose right to left, so an entry of k units ends with k-1 "compose"
        ops, at the offsets of its units but the last, innermost first.
        """
        code = self.code
        frames: list[list] = [["expr", 0, 0, []]]
        while True:
            t = self.next()
            if t.kind == "set":
                code.append(("set", t.pos, self.sets[t.pos]))
            elif t.kind == "{" and self.peek().kind == "}":
                self.next()
                code.append(("braces", t.pos, 0))
            elif t.kind in ("{", "(", "["):
                frames.append([t.kind, t.pos, 0, []])
                continue
            elif t.kind in ("nat", "vnat"):
                code.append((t.kind, t.pos, _natural(t)))
            elif t.kind != "ident":
                raise ExprSyntaxError(
                    f"expected an expression at offset {t.pos}, found"
                    f" {t.text or 'end of input'!r}"
                )
            elif t.text == "D":
                code.append(("diamond", t.pos, None))
            elif t.text == "P":
                self.expect("(", "'(' after P")
                coords = [_natural(self.expect("nat", "a coordinate"))]
                while self.peek().kind == ",":
                    self.next()
                    coords.append(_natural(self.expect("nat", "a coordinate")))
                self.expect(")", "')' closing position path")
                code.append(("pospath", t.pos, coords))
            elif t.text in ("fuse", "kpair", "close"):
                self.expect("(", f"'(' after {t.text}")
                frames.append([t.text, t.pos, 0, []])
                continue
            elif t.text in RESERVED:
                raise ExprSyntaxError(f"{t.text!r} cannot stand alone (offset {t.pos})")
            else:
                code.append(("name", t.pos, t.text))
            pos = t.pos
            # the atom or tail at pos is read: open its next tail, start the
            # next unit, or end the entry and with it maybe the frame
            while True:
                t = self.peek()
                if t.kind == "(":
                    # the unit's value is the tail's first operand
                    frames.append(["apply", self.next().pos, 1, []])
                    break
                f = frames[-1]
                units = f[3]
                units.append(pos)
                if t.kind in _ATOM_STARTS:
                    break
                if len(units) > 1:
                    code += [("compose", p, 2) for p in reversed(units[:-1])]
                units.clear()
                if len(frames) == 1:
                    return
                kind = f[0]
                f[2] += 1
                if kind == "apply" and t.kind == "arrow":
                    self.next()
                    f[0] = "->"
                    break
                if kind == "apply" and t.kind == ",":
                    kind = f[0] = "tail,"
                    f[2] = 1
                if t.kind == "," and kind in ("{", "(", "[", "tail,"):
                    self.next()
                    break
                if kind in ("fuse", "kpair") and f[2] == 1:
                    self.expect(",", f"',' between {kind} arguments")
                    break
                if kind == "(" and f[2] == 1:
                    raise ExprSyntaxError(
                        f"a parenthesized expression must be a tuple of two or more"
                        f" entries (offset {f[1]}); apply composition as x(y) instead"
                    )
                closer, what, op = _CLOSERS[kind]
                self.expect(closer, what)
                if kind == "[":
                    suffix = self.peek()
                    if suffix.kind != "ident" or suffix.text != "M":
                        raise ExprSyntaxError(
                            f"expected 'M' after ']' at offset {suffix.pos}"
                        )
                    self.next()
                frames.pop()
                code.append((op, f[1], f[2]))
                if kind == "tail,":
                    code.append(("compose", f[1], 2))
                pos = f[1]


# op -> its value, made of its constant arg or of the operands it takes
_OPS = {
    "nat": zermelo,
    "vnat": vn,
    "pospath": position_path,
    "diamond": lambda _: diamond(),
    "braces": make_set,
    "tuple": make_tuple,
    "middle": lambda es: fusion.middle(es).set,
    "fuse": lambda ab: fusion.fuse(*ab),
    "kpair": lambda ab: kuratowski_pair(*ab),
    "close": lambda a: fusion.close(*a),
    "compose": lambda ab: compose(*ab),
    "replace": lambda xyz: replace(*xyz),
}
_CONSTANT = {"nat", "vnat", "pospath", "diamond"}


def _execute(code: list[tuple], scope: dict[str, SetHandle]) -> SetHandle:
    """Run postfix code on a stack of values and return the one left.

    An op other than "set", "name" and "let" takes as many values off the
    stack as its arg counts, or takes its arg as a constant, and puts its
    value on; a domain error it raises becomes an EvalError at its offset.
    """
    stack: list[SetHandle] = []
    for op, pos, arg in code:
        if op == "set":
            stack.append(arg)
            continue
        if op == "name":
            if arg not in scope:
                raise EvalError(f"unbound name {arg!r} (offset {pos})")
            stack.append(scope[arg])
            continue
        if op == "let":
            scope[arg] = stack.pop()
            continue
        if op not in _CONSTANT:
            cut = len(stack) - arg
            arg = stack[cut:]
            del stack[cut:]
        try:
            stack.append(_OPS[op](arg))
        except CalculusError as e:
            raise EvalError(f"{e} (offset {pos})") from e
    return stack.pop()


def evaluate(source: str, env: dict[str, SetHandle] | None = None) -> SetHandle:
    """Run a program: let-bindings followed by one expression.

    The whole program is read before any of it runs, so a syntax error is
    raised before any evaluation error.  Raises TypeError when a value of
    env is not a set handle.
    """
    scope = dict(env or {})
    for name, value in scope.items():
        if not isinstance(value, SetHandle):
            raise TypeError(f"env[{name!r}] is {type(value).__name__}, not a set")
    return _execute(_Parser(*_tokenize(source)).parse_program(), scope)
