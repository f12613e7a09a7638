"""Tests for the surface expression language.

Every expected handle is computed through the library primitives the grammar
maps onto (compose, replace, make_tuple, middle, fuse, ...), so these tests
pin the translation, not the primitives themselves.
"""

import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conset import compose, empty, make_set, parse, replace
from conset.errors import EvalError, ExprSyntaxError
from conset.expr import evaluate
from conset.fusion import middle
from conset.numerals import vn, zermelo
from conset.tuples import diamond, kuratowski_pair, make_tuple, position_path
from expr_programs import GOLDEN, outcome

Z = zermelo


class TestAtoms:
    def test_set_display(self):
        assert evaluate("{}") is empty()
        assert evaluate("{{}}") is Z(1)
        assert evaluate("{{}, {{}}}") is vn(2)

    def test_successor_numerals(self):
        assert evaluate("0") is empty()
        assert evaluate("3") is Z(3)
        assert evaluate("12") is Z(12)

    def test_cumulative_numerals(self):
        assert evaluate("V0") is empty()
        assert evaluate("V3") is vn(3)

    def test_decimal_digits_of_any_script(self):
        assert evaluate("٣") is Z(3)
        assert evaluate("V٣") is vn(3)

    def test_diamond(self):
        assert evaluate("D") is diamond()

    def test_position_paths(self):
        assert evaluate("P(0)") is position_path([0])
        assert evaluate("P(2)") is position_path([2])
        assert evaluate("P(0,1)") is position_path([0, 1])

    def test_tuple_atom(self):
        assert evaluate("(1, 2)") is make_tuple([Z(1), Z(2)])
        assert evaluate("(0, 0, 0)") is make_tuple([empty()] * 3)

    def test_middle_atom(self):
        assert evaluate("[1, 2]M") is middle([Z(1), Z(2)]).set

    def test_kpair_atom(self):
        assert evaluate("kpair(1, 0)") is diamond()
        assert evaluate("kpair(2, V2)") is kuratowski_pair(Z(2), vn(2))

    def test_fuse_atom(self):
        got = evaluate("fuse((0,0,0), {D(1), 1D(2), 2D(V2)})")
        assert got is make_set([Z(1), Z(2), vn(2)])

    def test_close_atom(self):
        assert evaluate("close([2, V2]M)") is diamond()


class TestApplication:
    def test_composition_tail(self):
        assert evaluate("1(1)").text == "{{{}}}"
        assert evaluate("1(1)") is Z(2)
        assert evaluate("D(2)") is compose(diamond(), Z(2))

    def test_replacement_tail(self):
        assert evaluate("V2(1->0)").text == "{{}}"
        assert evaluate("D(1->{})") is replace(diamond(), Z(1), empty())

    def test_tuple_tail_composes_with_the_tuple(self):
        assert evaluate("1(1,2)") is compose(Z(1), make_tuple([Z(1), Z(2)]))

    def test_chained_tails(self):
        # x(y)(z) applies left to right on the same unit
        assert evaluate("2(1)(V2)") is compose(compose(Z(2), Z(1)), vn(2))

    def test_juxtaposition_composes_right_associatively(self):
        assert evaluate("1 2") is compose(Z(1), Z(2))
        assert evaluate("1 2 3") is compose(Z(1), compose(Z(2), Z(3)))
        assert evaluate("12") is Z(12)  # no space: one numeral

    def test_digit_then_name_juxtaposes(self):
        assert evaluate("1D(2)") is compose(Z(1), compose(diamond(), Z(2)))

    def test_whitespace_insensitive(self):
        a = evaluate("fuse( ( 0 , 0 ) , { D(1) , 1 D(2) } )")
        assert a is make_set([Z(1), Z(2)])


class TestPrograms:
    def test_let_bindings(self):
        assert evaluate("let a = V2\nlet b = a(1->0)\nb") is Z(1)

    def test_semicolon_separators(self):
        assert evaluate("let a = 1; a(a)") is Z(2)

    def test_blank_lines_and_mixed_separators(self):
        src = "\nlet a = 2;\n\nlet b = a(1)\n\nb(a)\n"
        expected = compose(compose(Z(2), Z(1)), Z(2))
        assert evaluate(src) is expected

    def test_later_bindings_see_earlier_ones(self):
        assert evaluate("let a = 1\nlet b = {a, a(a)}\nb") is make_set([Z(1), Z(2)])

    def test_environment_names(self):
        assert evaluate("x(y)", {"x": Z(2), "y": vn(3)}) is compose(Z(2), vn(3))

    def test_let_shadows_environment(self):
        assert evaluate("let x = 1\nx", {"x": Z(5)}) is Z(1)


class TestErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "(1)",  # a parenthesized expression is not a tuple
            "{1, }",
            "{1",
            "1)",
            "let D = 1\nD",  # reserved
            "let fuse = 1\nfuse",
            "let a 1\na",
            "let a = 1",  # no final expression
            "",
            "[1, 2]",  # missing M suffix
            "[]M",
            "P(a)",
            "P 0",
            "M",  # reserved words cannot stand alone
            "V",
            "1 -> 2",
            "@",
        ],
    )
    def test_syntax_errors(self, src):
        with pytest.raises(ExprSyntaxError):
            evaluate(src)

    def test_digit_that_is_not_decimal(self):
        # "²" passes str.isdigit, yet int() rejects it
        with pytest.raises(ExprSyntaxError, match="unexpected character"):
            evaluate("²")

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no int digit limit")
    @pytest.mark.parametrize("form, offset", [("{}", 0), ("V{}", 0), ("P(0, {})", 5)])
    def test_numeral_past_the_int_digit_limit(self, form, offset):
        # int() refuses it, so the literal is a syntax error at its offset
        src = form.format("1" * (sys.get_int_max_str_digits() + 1))
        with pytest.raises(ExprSyntaxError, match=f"^numeral too long at offset {offset}: "):
            evaluate(src)

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError, match="trailing input"):
            evaluate("1 , 2")

    def test_errors_carry_offsets(self):
        with pytest.raises(ExprSyntaxError, match="offset"):
            evaluate("(1)")
        with pytest.raises(EvalError, match="offset"):
            evaluate("nope")

    def test_unbound_name(self):
        with pytest.raises(EvalError, match="unbound name 'q'"):
            evaluate("q")

    def test_calculus_errors_become_eval_errors(self):
        # arity mismatch inside fuse surfaces as an evaluation error
        with pytest.raises(EvalError):
            evaluate("fuse((0,0), {D(1), 1D(2), 2D(V2)})")


class TestRoundTrip:
    def test_canonical_text_evaluates_to_the_same_handle(self, corpus200):
        for h in corpus200:
            assert evaluate(h.text) is h


# Raw brace text: nested tuples of children, written with duplicates and in
# any order, with spaces, tabs and CRs between tokens.
TREES = st.recursive(
    st.just(()), lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=24
)
BLANKS = st.sampled_from(["", " ", "\t", "\r", " \t\r "])


def _subtrees(tree, path=()):
    yield path, tree
    for i, child in enumerate(tree):
        yield from _subtrees(child, path + (i,))


def _write(tree, blank, hole=None, path=()):
    """tree as brace text with blank() between tokens; the subtree at hole is s."""
    if path == hole:
        return "s"
    items = [
        _write(child, blank, hole, path + (i,)) + blank()
        for i, child in enumerate(tree)
    ]
    return "{" + blank() + ("," + blank()).join(items) + "}"


class TestBraceLiterals:
    """A brace-only literal is read by `parse`; results and errors are those
    of the grammar read brace by brace."""

    @pytest.mark.parametrize(
        "src, message",
        [
            ("{,}", "expected an expression at offset 1, found ','"),
            ("{{},}", "expected an expression at offset 4, found '}'"),
            ("{\n}", "expected an expression at offset 1, found '\\n'"),
            ("P({})", "expected a coordinate at offset 2, found '{'"),
            ("{}}", "trailing input at offset 2: '}'"),
            ("{{}", "expected '}' closing set display at offset 3, found 'end of input'"),
            ("{}, {}", "trailing input at offset 2: ','"),
        ],
    )
    def test_error_messages(self, src, message):
        with pytest.raises(ExprSyntaxError) as caught:
            evaluate(src)
        assert str(caught.value) == message

    def test_juxtaposed_braces_compose(self):
        # parse rejects these, so they are read brace by brace
        assert evaluate("{{}{}}") is Z(1)
        assert evaluate("{{} {}}") is Z(1)

    def test_literals_next_to_other_tokens(self):
        assert evaluate("{{}}({})") is compose(Z(1), empty())
        assert evaluate("{} {{}}") is compose(empty(), Z(1))
        assert evaluate("let s = {}; { {{}}, s }") is vn(2)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(TREES, st.data())
    def test_raw_text_evaluates_as_parse(self, tree, data):
        def blank():
            return data.draw(BLANKS)

        h = parse(_write(tree, blank))
        assert evaluate(blank() + _write(tree, blank) + blank()) is h
        # a name in place of one inner group: the groups around it are
        # read brace by brace
        inner = list(_subtrees(tree))[1:]
        if inner:
            hole, sub = data.draw(st.sampled_from(inner))
            program = f"let s = {_write(sub, blank)}; {_write(tree, blank, hole)}"
            assert evaluate(program) is h


class TestRecordedPrograms:
    """Seeded programs from `expr_programs.py`, well-formed and mutated, give
    the results and messages recorded for them, offsets included."""

    FORMS = [
        r"^ExprSyntaxError: unexpected character .+ at offset \d+$",
        r"^ExprSyntaxError: expected a name after 'let' at offset \d+, found ",
        r"^ExprSyntaxError: '\w+' is reserved and cannot be bound \(offset \d+\)$",
        r"^ExprSyntaxError: expected end of statement at offset \d+, found ",
        r"^ExprSyntaxError: the program must end with an expression$",
        r"^ExprSyntaxError: trailing input at offset \d+: ",
        r"^ExprSyntaxError: a parenthesized expression must be a tuple of two or more",
        r"^ExprSyntaxError: expected 'M' after ']' at offset \d+$",
        r"^ExprSyntaxError: '\w+' cannot stand alone \(offset \d+\)$",
        r"^ExprSyntaxError: expected an expression at offset \d+, found ",
        r"^EvalError: unbound name '\w+' \(offset \d+\)$",
        r"^EvalError: .*(marker|slot).* \(offset \d+\)$",
    ]

    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(GOLDEN.read_text(encoding="utf-8"))

    def test_outcomes_are_those_recorded(self, recorded):
        changed = [(p, o, got) for p, o in recorded if (got := outcome(p)) != o]
        assert changed == []

    def test_the_record_reaches_every_message_form(self, recorded):
        outcomes = [o for _, o in recorded]
        assert [f for f in self.FORMS if not any(re.search(f, o) for o in outcomes)] == []
        # and every token the grammar expects is somewhere found missing
        wanted = {
            "a name after 'let'", "'=' in let-binding", "'}' closing set display",
            "')' closing tuple", "']' closing middle structure", "'(' after P",
            "a coordinate", "')' closing position path", "'(' after fuse",
            "',' between fuse arguments", "')' closing fuse", "'(' after kpair",
            "',' between kpair arguments", "')' closing kpair", "'(' after close",
            "')' closing close", "')' closing application", "')' closing replacement",
            "')' closing tuple argument",
        }
        missing = re.compile(r"ExprSyntaxError: expected (.+?) at offset")
        found = {m[1] for o in outcomes if (m := missing.match(o))}
        assert wanted - found == set()
