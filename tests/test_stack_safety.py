"""Deep inputs under the interpreter's default recursion limit.

Every rebuild, the expression reader and the loop that runs its postfix
code, and the CLI walk their input with an explicit stack, so nesting
thousands of levels deep needs no more than the default limit, and nothing
raises it behind the caller's back.
"""

import io
import random
import sys
import tracemalloc
from contextlib import redirect_stdout

import pytest

from _oracles import replace_by_text
from _shapes import fan, shuffled
from conset import (
    MalformedText,
    as_vn,
    canonical_cert,
    compose,
    constituent_set,
    evaluate,
    instance_count,
    is_constituent,
    is_top,
    isomorphic,
    make_set,
    map_union,
    maximal_constituents,
    parse,
    replace,
    structure_of,
    with_top,
)
from conset import expr
from conset.cli import EXIT_OK, main
from conset.errors import ExprSyntaxError
from conset.kernel import EMPTY, _shortlex
from conset.numerals import vn, zermelo
from conset.tuples import kuratowski_pair

pytestmark = pytest.mark.usefixtures("default_recursion_limit")


class TestDeepRebuilds:
    def test_replace_in_a_deep_chain(self):
        x, y, z = zermelo(1200), zermelo(1), vn(3)
        assert replace(x, y, z) is replace_by_text(x, y, z)

    def test_compose_onto_a_deep_chain(self):
        assert compose(zermelo(3000), zermelo(2)) is zermelo(3002)

    def test_map_union_over_a_deep_chain(self):
        x, y = zermelo(3000), zermelo(1)
        # y = {{}}: every subterm, {} included, gains {} as an element
        expected = "{{}," * 3000 + "{{}}" + "}" * 3000
        assert map_union(x, y).text == expected

    def test_as_vn_rejects_a_deep_chain(self):
        assert as_vn(zermelo(3000)) is None

    def test_instance_count_of_a_deep_chain(self):
        assert instance_count(zermelo(3000)) == 3001

    def test_is_top_of_a_deep_chain(self):
        assert is_top(zermelo(2), zermelo(3000))

    def test_with_top_over_a_deep_chain(self):
        # every tail of the chain from {{}} up has {{}} at its top
        chain = zermelo(2000)
        expected = constituent_set(chain) - {zermelo(0), zermelo(1)}
        assert with_top(chain, zermelo(2)) is make_set(expected)


class TestDeepConstituency:
    def test_constituent_set_of_a_deep_chain_stays_small(self):
        # a chain over vn(3) that no other test builds; memory must grow
        # with the chain's 4,004 nodes, not with the square of its depth
        chain = vn(3)
        for _ in range(4000):
            chain = make_set([chain])
        tracemalloc.start()
        try:
            found = constituent_set(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(found) == 4004
        assert peak < 5 * 2**20

    def test_is_constituent_in_a_deep_chain(self):
        chain = zermelo(3000)
        assert is_constituent(zermelo(0), chain)
        assert is_constituent(zermelo(1), chain)
        assert is_constituent(zermelo(2999), chain)
        assert not is_constituent(vn(2), chain)
        assert not is_constituent(chain, zermelo(2999))
        assert is_constituent(vn(2), compose(chain, vn(2)))

    def test_maximal_constituents_of_deep_chains(self):
        chain, half = zermelo(3000), zermelo(1500)
        assert maximal_constituents(chain) is make_set([zermelo(2999)])
        # half lies inside chain; half over vn(2) lies inside neither
        assert maximal_constituents(make_set([chain, half])) is make_set([chain])
        apart = compose(half, vn(2))
        assert maximal_constituents(make_set([chain, apart])) is make_set(
            [chain, apart]
        )


class TestDeepText:
    """Handles keep text lengths, so depth costs memory per node, not per
    character, and the element order walks down without recursing."""

    def test_deep_equal_length_pair_sorts_by_text(self):
        # equal lengths, and the texts differ only 10**4 levels down
        a, b = parse("{{{},{{}}}}"), parse("{{},{{{}}}}")
        assert a.size == b.size and a.text < b.text
        for _ in range(10**4):
            a, b = make_set([a]), make_set([b])
        assert a.size == b.size
        assert _shortlex(a) < _shortlex(b) and not _shortlex(b) < _shortlex(a)
        assert make_set([b, a]).children == (a, b)
        assert sorted([b, a], key=_shortlex) == [a, b]

    def test_chains_of_depth_100000_stay_small(self):
        peaks = []
        for build in (lambda: zermelo(10**5), lambda: parse("{" * 10**5 + "}" * 10**5)):
            tracemalloc.start()
            try:
                h = build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert h.size == 2 * h.rank + 2
            assert repr(h) == "<set " + "{" * 22 + "..." + "}" * 22 + ">"
        assert max(peaks) < 64 * 2**20

    def test_spaced_braces_100000_deep(self):
        # the whitespace path and the fault report both read 10**5 levels
        text = " ".join("{" * (10**5 + 1) + "}" * (10**5 + 1))
        assert parse(text) is zermelo(10**5)
        with pytest.raises(MalformedText, match=r"^unterminated set text$"):
            parse(text[:-1])

    def test_numerals_too_long_to_write_compare_by_structure(self):
        assert isomorphic(structure_of(zermelo(200)), structure_of(vn(200))) is not None


class TestWideDiagrams:
    def test_certificate_of_a_wide_fan(self):
        # bottom 0 and top 1 joined by 1,200 chains of two edges, relabelled
        g = fan(*[1] * 1200)
        relabelled = shuffled(g, random.Random(3))
        assert canonical_cert(relabelled) == canonical_cert(g)
        w = isomorphic(g, relabelled)
        assert w is not None
        mapped = {(w.mapping[a], w.mapping[b]) for a, b in g.edges}
        assert mapped == set(relabelled.edges)


class TestDeepPrograms:
    def test_evaluate_nested_braces(self):
        assert evaluate("{" * 2000 + "}" * 2000).text == "{" * 2000 + "}" * 2000

    @pytest.fixture
    def parse_calls(self, monkeypatch):
        """The texts that evaluate hands to kernel.parse."""
        calls = []

        def counting_parse(text):
            calls.append(text)
            return parse(text)

        monkeypatch.setattr(expr, "parse", counting_parse)
        return calls

    def test_evaluate_100000_nested_braces(self, parse_calls):
        text = "{" * 10**5 + "}" * 10**5
        assert evaluate(text) is parse(text)
        assert parse_calls == [text]

    def test_braces_around_a_name_are_read_one_by_one(self, parse_calls):
        src = "let s = {}; " + "{" * 20000 + "s" + "}" * 20000
        assert evaluate(src) is zermelo(20000)
        assert parse_calls == ["{}"]

    def test_juxtaposition_deep_inside_braces(self):
        # parse rejects the group, so it is read brace by brace
        assert evaluate("{" * 20000 + "{}{}" + "}" * 20000) is zermelo(20000)

    @pytest.mark.parametrize(
        "src, groups",
        [
            ("{{}, {{}}}({}, {{}}) {{{}}}", ["{{}, {{}}}", "{}", "{{}}", "{{{}}}"]),
            ("let s = {{}}\n{{}, s, {{}}}", ["{{}}", "{}", "{{}}"]),
        ],
    )
    def test_parse_reads_each_outermost_group_once(self, parse_calls, src, groups):
        evaluate(src)
        assert parse_calls == groups

    @pytest.mark.parametrize(
        "open_, close_, step",
        [
            ("1(", ")", lambda h: make_set([h])),
            ("1(0 -> ", ")", lambda h: make_set([h])),
            ("{0, ", "}", lambda h: make_set([EMPTY, h])),
            ("kpair(0, ", ")", lambda h: kuratowski_pair(EMPTY, h)),
        ],
        ids=["application", "replacement", "commas_in_braces", "kpair"],
    )
    def test_open_constructs_5000_deep(self, open_, close_, step):
        # each level keeps one construct open while the next is read
        h = EMPTY
        for _ in range(5000):
            h = step(h)
        assert evaluate(open_ * 5000 + "0" + close_ * 5000) is h

    def test_5000_juxtaposed_units(self):
        assert evaluate("1 " * 5000 + "0") is zermelo(5000)

    # tuples and middles cost time quadratic in their depth to evaluate, so
    # these are read 2*10**4 deep and fail before anything is evaluated
    @pytest.mark.parametrize(
        "open_, close_, message",
        [
            ("(0, ", ")", "expected ')' closing tuple at offset 100000"),
            ("[", "]M", "expected ']' closing middle structure at offset 59999"),
            ("fuse(0, ", ")", "expected ')' closing fuse at offset 180000"),
            ("close(", ")", "expected ')' closing close at offset 140000"),
        ],
    )
    def test_a_missing_closer_20000_deep(self, open_, close_, message):
        n = 20000
        with pytest.raises(ExprSyntaxError) as caught:
            evaluate(open_ * n + "0" + close_ * (n - 1))
        assert str(caught.value) == message + ", found 'end of input'"

    def test_cli_eval_nested_braces_keeps_the_limit(self):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["eval", "{" * 3000 + "}" * 3000])
        assert code == EXIT_OK
        assert out.getvalue() == "{" * 3000 + "}" * 3000 + "\n"
        assert sys.getrecursionlimit() == 1000
