"""Canonical text kernel: parsing, printing, interning, constituents."""
from __future__ import annotations

import copy
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from _oracles import oracle
from _shapes import _fresh, _uids_drawn, _wrap, chains, fans, handles
import conset
from conset import (
    MalformedText,
    cardinality,
    compose,
    constituent_set,
    constituents,
    elements,
    empty,
    instance_count,
    is_constituent,
    lcc_set,
    make_set,
    maximal_constituents,
    maximal_elements,
    parse,
    replace,
    structure_of,
    to_text,
    union,
)
from conset.kernel import EMPTY, _rebuild, _shortlex, fold
from conset.numerals import vn, zermelo
from conset.tuples import diamond


class TestEmpty:
    def test_parse_is_interned_empty(self):
        assert parse("{}") is empty()

    def test_cardinality_zero(self):
        assert cardinality(empty()) == 0

    def test_constituents_reflexive(self):
        assert constituents(empty()) == [empty()]


class TestMakeSet:
    def test_duplicates_merge(self):
        assert make_set([zermelo(1), zermelo(1)]) is parse("{{{}}}")

    def test_two_element_set(self):
        assert make_set([zermelo(0), zermelo(1)]) is parse("{{},{{}}}")

    def test_order_independent(self):
        assert make_set([zermelo(1), zermelo(0)]) is make_set(
            [zermelo(0), zermelo(1)]
        )

    def test_equality_is_identity(self):
        a = make_set([vn(2), zermelo(3)])
        b = make_set([zermelo(3), vn(2)])
        assert a is b
        assert a == b
        assert hash(a) == hash(b)

    def test_copies_are_the_handle(self):
        x = parse("{{},{{{{}}}}}")
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert structure_of(copy.deepcopy(x)) == structure_of(x)
        assert is_constituent(zermelo(3), copy.deepcopy(x))
        assert copy.deepcopy(structure_of(x)).tags[0] is EMPTY

    def test_a_direct_constructor_call_is_refused(self):
        # only the intern table's writers build a handle, so none is built
        # for a set that already has one, and no uid is drawn
        def refused():
            for args in [(EMPTY,)], [(EMPTY,), None], [(EMPTY, zermelo(1)), object()]:
                with pytest.raises(TypeError, match="make_set or parse"):
                    conset.SetHandle(*args)

        assert _uids_drawn(refused)[1] == 0
        x = zermelo(1)
        assert make_set([EMPTY]) is x
        assert copy.deepcopy(x) is x and pickle.loads(pickle.dumps(x)) is x


def _round_trip(x, protocol=pickle.DEFAULT_PROTOCOL):
    return pickle.loads(pickle.dumps(x, protocol))


@pytest.mark.usefixtures("default_recursion_limit")
class TestPickle:
    """A pickled handle loads as the handle of its set, at any depth."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(chains(), st.integers(0, pickle.HIGHEST_PROTOCOL))
    def test_drawn_sets_load_as_their_handle(self, h, protocol):
        assert _round_trip(h, protocol) is h

    def test_deep_and_wide_sets_load_as_their_handle(self):
        # the chain is one run and pickles in a few bytes; vn(200) is 201
        # sets, each written once with the indices of its elements
        deep = zermelo(10**5)
        assert len(pickle.dumps(deep)) < 100
        assert _round_trip(deep) is deep
        assert _round_trip(vn(200)) is vn(200)

    def test_a_diagram_loads_with_the_handles_as_tags(self):
        x = make_set([vn(6), zermelo(9), diamond()])
        g = structure_of(x)
        got = _round_trip(g)
        assert got == g
        assert all(a is b for a, b in zip(got.tags, g.tags, strict=True))
        assert is_constituent(zermelo(3), _round_trip(x))

    def test_a_pickle_from_another_interpreter_loads_as_the_parsed_text(self):
        text = "{{},{{{{}}}},{{},{{}},{{},{{}}}}}"
        script = (
            "import pickle, sys\n"
            "from conset import parse\n"
            "sys.stdout.buffer.write(pickle.dumps([parse(sys.argv[1]), parse(sys.argv[1])]))\n"
        )
        src = Path(conset.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-c", script, text],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
            check=True,
        )
        a, b = pickle.loads(out.stdout)
        assert a is b is parse(text)


class TestInternKey:
    """The intern key depends on which elements are given, never on their order."""

    @pytest.fixture
    def shortlex_calls(self, monkeypatch):
        calls = []
        real = conset.kernel._shortlex

        def counting(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(conset.kernel, "_shortlex", counting)
        return calls

    def test_hit_reads_no_shortlex_and_miss_reads_each_element_once(self, shortlex_calls):
        others = [empty(), zermelo(1), vn(2), vn(3)]
        del shortlex_calls[:]
        # a one-element set has nothing to sort, whichever way it is given
        fresh = _fresh()
        newest = fresh.children[0]
        assert make_set(frozenset([fresh])).children == (fresh,)
        assert shortlex_calls == []
        made = make_set([fresh, *others])
        assert len(shortlex_calls) == 5
        del shortlex_calls[:]
        assert make_set(others[::-1] + [fresh] + others) is made
        assert make_set([newest]) is fresh
        assert parse(made.text) is made
        assert shortlex_calls == []

    def test_any_order_and_duplicates_find_the_set(self, corpus200):
        rng = random.Random(9)
        pool = set().union(*map(constituent_set, corpus200))
        for c in sorted(pool, key=lambda h: (len(h.text), h.text)):
            elems = list(c.children)
            elems += rng.sample(elems, min(2, len(elems)))
            rng.shuffle(elems)
            assert make_set(elems) is c

    def test_a_taken_hash_falls_back_to_the_element_set(self, shortlex_calls):
        a = _fresh()
        b = make_set([a])
        decoy = vn(3)
        key = hash(frozenset([a, b]))
        assert key not in conset.kernel._table
        # the decoy stays planted: {a, b} is then stored under its element
        # set, and only the decoy at this hash sends a lookup there
        conset.kernel._table[key] = decoy
        ab = make_set([a, b])
        assert ab is not decoy and ab.children == (a, b)
        assert conset.kernel._table[frozenset([a, b])] is ab
        del shortlex_calls[:]
        assert make_set([b, a]) is ab
        assert make_set((b, a, b)) is ab
        assert parse(ab.text) is ab
        assert make_set(decoy.children) is decoy
        assert shortlex_calls == []

    def test_an_int_key_is_no_element(self):
        k = next(key for key in conset.kernel._table if isinstance(key, int))
        for elems in ([k], (k,), iter([k]), frozenset([k]), [k, k], [k, empty()]):
            with pytest.raises(TypeError, match=r"got int\b"):
                make_set(elems)
        assert k not in conset.kernel._single

    @pytest.mark.parametrize("kind", [list, tuple, iter, frozenset])
    def test_every_iterable_kind_finds_the_same_set(self, kind, corpus200):
        e = empty()
        assert make_set(kind([])) is e
        assert make_set(kind([e])) is zermelo(1)
        assert make_set(kind([e, e])) is zermelo(1)
        for x in corpus200[:50]:
            kids = list(x.children)
            assert make_set(kind(kids + kids[:1])) is x
            assert make_set(kind([x, x])) is make_set([x])
            assert make_set(kind([e, x, e])) is make_set([x, e])

    def test_singleton_and_its_element_are_distinct(self, corpus200):
        for x in set().union(*map(constituent_set, corpus200)):
            assert make_set([x]).children == (x,)
            assert make_set(x.children) is x
            assert make_set([x]) is not x

    def test_element_order_does_not_follow_creation_order(self, corpus200):
        """A fresh process building the corpus backwards prints the same texts."""

        def reversed_text(h):
            return "{" + ",".join(map(reversed_text, reversed(h.children))) + "}"

        script = (
            "import sys\n"
            "from conset import parse\n"
            "texts = sys.stdin.read().split()\n"
            "hs = [parse(t) for t in reversed(texts)][::-1]\n"
            "print('\\n'.join(h.text for h in hs))\n"
        )
        src = Path(conset.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-c", script],
            input="\n".join(map(reversed_text, corpus200)),
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
            check=True,
        )
        assert out.stdout == "".join(h.text + "\n" for h in corpus200)


WHITESPACE = (" ", "\t", "\n", "\u00a0", "\u2003")
SPACED_BRACES = ("{", "}", ",", "x") + WHITESPACE


@st.composite
def edited_texts(draw):
    """A set text, or two joined by a comma, with at most one character
    deleted, doubled or put in, and whitespace put anywhere: well formed
    when one set was left alone, malformed near the edit otherwise."""
    text = ",".join(h.text for h in draw(st.lists(handles(), min_size=1, max_size=2)))
    # a comma is as likely a place as a brace, and the end is one too
    at = draw(st.sampled_from(sorted(set(text)) + ["end"]))
    at = len(text) if at == "end" else draw(st.sampled_from([i for i, ch in enumerate(text) if ch == at]))
    edit = draw(st.sampled_from(("keep", "delete", "double", "{", "}", ",", "x")))
    if edit == "delete":
        text = text[:at] + text[at + 1 :]
    elif edit == "double":
        text = text[: at + 1] + text[at:]
    elif edit != "keep":
        text = text[:at] + edit + text[at:]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(WHITESPACE)) + text[at:]
    return text


def _well_formed(text: str) -> bool:
    """Whether text without whitespace is one brace set, by reducing every
    innermost set to a 0 until nothing changes."""
    while True:
        reduced = re.sub(r"\{(0(,0)*)?\}", "0", text)
        if reduced == text:
            return text == "0"
        text = reduced


def _fault_by_characters(text: str) -> str:
    """The message parse raises for a malformed text: the reading of one
    character at a time with a count of elements per open set."""
    counts: list[int] = []
    expect_item = True
    done = False
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        if done:
            return f"trailing input at offset {i}"
        if ch == "{":
            if not expect_item:
                return f"missing comma before offset {i}"
            counts.append(0)
        elif ch == "}":
            if not counts:
                return f"unmatched close brace at offset {i}"
            if expect_item and counts[-1]:
                return f"dangling comma before offset {i}"
            counts.pop()
            if counts:
                counts[-1] += 1
            done = not counts
        elif ch == ",":
            if expect_item or not counts:
                return f"misplaced comma at offset {i}"
        else:
            return f"unexpected character {ch!r} at offset {i}"
        expect_item = ch != "}"
    return "unterminated set text"


# each malformed text with the exact message it raises; the text is the test id
MALFORMED = [
    ("", "unterminated set text"),
    ("{", "unterminated set text"),
    ("{{},", "unterminated set text"),
    ("}", "unmatched close brace at offset 0"),
    ("}{", "unmatched close brace at offset 0"),
    ("{}{}", "trailing input at offset 2"),
    ("{{}}}", "trailing input at offset 4"),
    ("{},", "trailing input at offset 2"),
    (" {{},\t{}} x", "trailing input at offset 10"),
    ("{},{}", "trailing input at offset 2"),
    (",{}", "misplaced comma at offset 0"),
    ("{,}", "misplaced comma at offset 1"),
    ("{{},,{}}", "misplaced comma at offset 4"),
    ("{{},}", "dangling comma before offset 4"),
    ("{{} {}}", "missing comma before offset 4"),
    ("{{}\u00a0{}}", "missing comma before offset 4"),
    ("{x}", "unexpected character 'x' at offset 1"),
]


class TestParse:
    def test_normalizes_child_order(self):
        assert parse("{{{}},{}}") is vn(2)

    def test_skips_whitespace(self):
        assert parse(" { { } , { { } } } ") is vn(2)

    def test_collapses_duplicates(self):
        assert parse("{{},{}}") is zermelo(1)

    def test_empty_leaves_build_nothing(self, monkeypatch):
        calls = []
        real = conset.kernel.make_set

        def counting(elems):
            calls.append(elems)
            return real(elems)

        monkeypatch.setattr(conset.kernel, "make_set", counting)
        assert parse("{{},{{}}}") is vn(2)
        assert len(calls) == 2
        assert parse(" { } ") is empty()
        assert len(calls) == 2

    @pytest.mark.parametrize("bad, message", MALFORMED, ids=[bad for bad, _ in MALFORMED])
    def test_rejects_malformed(self, bad, message):
        with pytest.raises(MalformedText) as caught:
            parse(bad)
        assert str(caught.value) == message

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.one_of(st.text(st.sampled_from(SPACED_BRACES), max_size=30), edited_texts()))
    def test_reads_spaced_text_or_rejects_it(self, text):
        bare = "".join(text.split())
        try:
            h = parse(text)
        except MalformedText as e:
            assert not _well_formed(bare)
            assert str(e) == _fault_by_characters(text)
        else:
            assert _well_formed(bare)
            assert h.text == oracle.canon(bare)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(handles(), st.data())
    def test_whitespace_anywhere_gives_the_same_set(self, h, data):
        text = h.text
        spaces = data.draw(
            st.lists(st.tuples(st.integers(0, len(text)), st.sampled_from(WHITESPACE)), max_size=8)
        )
        for at, ws in sorted(spaces, reverse=True):
            text = text[:at] + ws + text[at:]
        assert parse(text) is h


class TestText:
    def test_fixed_texts(self):
        assert diamond().text == "{{{{}}},{{},{{}}}}"
        assert zermelo(3).text == "{{{{}}}}"
        assert vn(3).text == "{{},{{}},{{},{{}}}}"

    def test_to_text_matches_attribute(self, corpus200):
        for h in corpus200[:50]:
            assert to_text(h) == h.text

    @settings(max_examples=100, deadline=None)
    @given(handles())
    def test_round_trip(self, h):
        assert parse(to_text(h)) is h

    def test_children_sorted_shortlex_and_unique(self, corpus200):
        for h in corpus200:
            keys = [(len(c.text), c.text) for c in h.children]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


class TestTextOnDemand:
    """A handle keeps its text length; a long text is rendered when read."""

    def test_size_is_text_length(self, corpus200, corpus1000):
        for h in corpus200 + corpus1000:
            assert len(h.text) == h.size

    def test_only_short_texts_are_stored(self, corpus1000):
        pool = set().union(*map(constituent_set, corpus1000))
        assert sum(h.size > 48 for h in pool) > 100
        for h in pool:
            assert (h._text is not None) is (h.size <= 48)

    def test_rendered_text_matches_recursion(self, corpus1000):
        for h in corpus1000 + [vn(k) for k in range(10)] + [zermelo(30)]:
            assert h.text == oracles.text_by_recursion(h)

    def test_repr_shows_head_and_tail(self, corpus1000):
        # runs, runs over wide nodes, and runs beside runs: shapes whose
        # head and tail both cross many levels, which the corpus never has
        wide = make_set([zermelo(30), vn(4), vn(5), _wrap(vn(3), 9)])
        runs = [zermelo(k) for k in range(25, 61)] + [_wrap(wide, k) for k in range(0, 40, 3)]
        beside = [
            make_set([_wrap(vn(3), k), zermelo(j)]) for k in range(0, 30, 3) for j in range(0, 60, 7)
        ]
        for h in corpus1000 + [vn(k) for k in range(10)] + runs + beside:
            t = h.text
            shown = t if len(t) <= 48 else t[:22] + "..." + t[-22:]
            assert repr(h) == f"<set {shown}>"

    def test_repr_of_a_set_too_long_to_render(self):
        h = vn(40)
        assert h.size == 5 * 2**39 - 1  # about 2.7 TB of text
        assert repr(h) == "<set " + vn(8).text[:22] + "..." + "}" * 22 + ">"

    def test_memo_joins_each_long_constituent_once(self, corpus1000, monkeypatch):
        hs = [c for h in corpus1000[:100] for c in constituents(h)]
        joined = []
        real = conset.kernel._pieces
        monkeypatch.setattr(
            conset.kernel, "_pieces", lambda h, memo: joined.append(h) or real(h, memo)
        )
        memo: dict = {}
        texts = [to_text(c, memo) for c in hs]
        monkeypatch.undo()
        assert texts == [c.text for c in hs]
        assert sorted(joined, key=id) == sorted({c for c in hs if c.size > 48}, key=id)


class TestRuns:
    """Runs of one-element sets are built by one kernel loop and printed a
    run at a time, with the texts and the handles the level-by-level path
    gives."""

    @staticmethod
    def shapes():
        wide = make_set([zermelo(30), vn(4), diamond(), _wrap(vn(3), 9)])
        long = _wrap(vn(3), 40)
        return {
            # the run stops at a level whose text is stored
            "run ending in a stored text": _wrap(vn(3), 60),
            # long is met more than once, so its text is joined once and
            # each run above it stops there
            "long constituent met twice": make_set([_wrap(long, 5), long, _wrap(long, 2)]),
            "runs in and under a wide node": make_set([_wrap(wide, 25), zermelo(70)]),
        }

    @pytest.mark.parametrize(
        "shape",
        ["run ending in a stored text", "long constituent met twice", "runs in and under a wide node"],
    )
    def test_text_with_and_without_memo(self, shape):
        x = self.shapes()[shape]
        want = oracles.text_by_recursion(x)
        assert x.text == want
        assert to_text(x, {}) == want
        memo: dict = {}
        for c in constituents(x):
            assert to_text(c, memo) == oracles.text_by_recursion(c)
        assert to_text(x, memo) == want

    def test_a_run_is_the_braces_around_its_end(self):
        ends = [vn(3), _wrap(vn(3), 40), make_set([zermelo(30), vn(4)])]
        for end in ends:
            for k in (1, 2, 23, 24, 300):
                assert _wrap(end, k).text == "{" * k + end.text + "}" * k

    def test_a_run_stops_at_a_memo_text(self):
        # a memo text is read back where the run meets it, not walked again
        long = _wrap(vn(3), 40)
        assert to_text(_wrap(long, 30), {long: "L"}) == "{" * 30 + "L" + "}" * 30

    def test_builder_finds_and_builds_what_make_set_does(self):
        core = _fresh()
        assert conset.kernel._wrap(0, core) is core
        built, drawn = _uids_drawn(lambda: conset.kernel._wrap(300, core))
        assert drawn == 300
        assert built is _wrap(core, 300)
        assert built.rank == core.rank + 300
        assert built.size == core.size + 600
        assert built.instances == core.instances + 300
        again, drawn = _uids_drawn(lambda: conset.kernel._wrap(300, core))
        assert again is built and drawn == 0
        for k in (1, 23, 24):
            h = conset.kernel._wrap(k, EMPTY)
            assert h is zermelo(k)
            assert h._text == ("{" * k + "{}" + "}" * k if h.size <= 48 else None)

    @pytest.mark.parametrize("x", [5, "a", None, [EMPTY]])
    def test_builder_refuses_a_non_set_and_draws_no_uid(self, x):
        def build():
            with pytest.raises(TypeError, match=rf"\bgot {type(x).__name__}\b"):
                conset.kernel._wrap(3, x)

        assert _uids_drawn(build)[1] == 0

    def test_builder_refuses_a_negative_count(self):
        with pytest.raises(ValueError):
            conset.kernel._wrap(-1, EMPTY)


class TestOrderFromStructure:
    """_shortlex orders handles as (len(text), text) without reading long texts."""

    @staticmethod
    def agree(a, b):
        ka, kb = (len(a.text), a.text), (len(b.text), b.text)
        assert (_shortlex(a) < _shortlex(b)) is (ka < kb)
        assert (_shortlex(b) < _shortlex(a)) is (kb < ka)

    def test_every_pair_of_corpus_constituents(self, corpus200):
        pool = list(set().union(*map(constituent_set, corpus200)))
        for a in pool:
            for b in pool:
                self.agree(a, b)

    def test_equal_lengths_among_long_constituents(self, corpus1000):
        by_size: dict[int, list] = {}
        for h in set().union(*map(constituent_set, corpus1000)):
            by_size.setdefault(h.size, []).append(h)
        long_pairs = 0
        for group in by_size.values():
            for a in group:
                for b in group:
                    self.agree(a, b)
                    long_pairs += a.size > 48 and a is not b
        assert long_pairs > 100

    @settings(max_examples=100, deadline=None)
    @given(handles(), handles())
    def test_drawn_pairs(self, a, b):
        self.agree(a, b)

    @settings(max_examples=100, deadline=None)
    @given(chains(40), chains(40))
    def test_drawn_chains(self, a, b):
        self.agree(a, b)

    def test_equal_lengths_differing_100_or_more_levels_down(self, corpus200):
        """Two runs of singletons of equal text length over different bases:
        the texts agree for 100 levels or more, and one run may end first."""
        pool = sorted(
            set().union(*map(constituent_set, corpus200)),
            key=lambda h: (h.size, h.text),
        )[:60]
        pairs = 0
        for x in pool:
            for y in pool:
                if x is y or (x.size - y.size) % 2:
                    continue
                a, b = _wrap(x, 120), _wrap(y, 120 + (x.size - y.size) // 2)
                assert a.size == b.size
                self.agree(a, b)
                pairs += 1
        assert pairs > 500


def _reference_fold(h, f, memo):
    """fold by plain recursion: each child in element order, then the node."""
    if h not in memo:
        memo[h] = f(h, [_reference_fold(c, f, memo) for c in h.children])
    return memo[h]


class TestFold:
    """fold calls f on the nodes and in the order the recursive fold does."""

    @staticmethod
    def both(h, start=()):
        """The calls of f and the memo that fold and the reference leave."""
        results = []
        for walk in (fold, _reference_fold):
            calls = []

            def f(node, vals):
                calls.append((node, vals))
                return len(calls)

            memo = dict(start)
            top = walk(h, f, memo)
            results.append((top, calls, memo))
        return results

    @pytest.mark.parametrize(
        "shape",
        [
            "run ending in {}",
            "runs ending in a wide node",
            "runs shared by two branches",
            "singleton root",
            "vn(8)",
            "wide root over runs",
        ],
    )
    def test_same_calls_as_the_reference(self, shape):
        wide = make_set([vn(3), diamond(), zermelo(2)])
        shared = _wrap(diamond(), 20)
        x = {
            "run ending in {}": zermelo(60),
            "runs ending in a wide node": make_set([_wrap(wide, 30), _wrap(vn(2), 7)]),
            "runs shared by two branches": make_set(
                [_wrap(shared, 3), make_set([_wrap(shared, 9), vn(2)]), shared]
            ),
            "singleton root": make_set([wide]),
            "vn(8)": vn(8),
            "wide root over runs": make_set([zermelo(k) for k in range(1, 12, 2)]),
        }[shape]
        got, want = self.both(x)
        assert got == want
        assert len(got[1]) == len(constituent_set(x))

    @pytest.mark.parametrize("stop", [0, 1, 17, 39, 40])
    def test_memo_key_mid_run(self, stop):
        # replace(x, y, z) seeds the memo with {y: z}; the run stops there
        x = make_set([_wrap(vn(3), 40), zermelo(5)])
        y = _wrap(vn(3), stop)
        got, want = self.both(x, {y: "z", empty(): 0})
        assert got == want
        assert got[2][y] == "z"

    @settings(max_examples=60, deadline=None)
    @given(st.lists(chains(30), min_size=1, max_size=4), st.data())
    def test_drawn_shapes(self, parts, data):
        x = make_set(parts)
        pool = constituents(x)
        keys = data.draw(st.lists(st.sampled_from(pool), max_size=3), label="keys")
        got, want = self.both(x, {k: -1 for k in keys})
        assert got == want

    @pytest.mark.parametrize("stopped", [False, True])
    def test_a_run_is_walked_once(self, stopped):
        # a generic fold reads each level's children once, on the way down,
        # whether the run ends in a frame or in a stop node
        class Node:
            """A stand-in for a handle that counts the reads of children."""

            def __init__(self, *kids):
                self.kids = kids
                self.rank = 1 + max((k.rank for k in kids), default=-1)
                self.reads = 0

            @property
            def children(self):
                self.reads += 1
                return self.kids

        leaf = Node()
        base = Node(leaf, Node(leaf))
        levels = [Node(base)]
        for _ in range(29):
            levels.append(Node(levels[-1]))
        root = Node(levels[-1], leaf)
        stop = (lambda c: "base" if c is base else None) if stopped else None
        top = fold(root, lambda node, vals: len(vals), {}, stop=stop)
        assert top == 2
        assert [lv.reads for lv in levels] == [1] * 30

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_replace_in_a_chain_10_to_the_5_deep(self):
        n = 10**5
        r = replace(zermelo(n), zermelo(7), vn(2))
        assert r.rank == n - 7 + 2
        assert r is _wrap(vn(2), n - 7)


def _reached(h, memo, floor):
    """The nodes a fold of h with this memo and floor passes to f: every
    constituent reached without entering a memo node, ranked above floor."""
    found, stack = set(), [h]
    while stack:
        w = stack.pop()
        if w in memo or w in found or w.rank <= floor:
            continue
        found.add(w)
        stack.extend(w.children)
    return found


class TestFoldFloor:
    """A fold with a floor computes what the unpruned fold computes when the
    nodes at or below the floor are seeded as themselves, and nothing else."""

    @staticmethod
    def shapes(corpus):
        fan = make_set([_wrap(diamond(), k) for k in range(0, 30, 3)] + [vn(4)])
        return corpus + [zermelo(60), vn(8), fan, make_set([zermelo(40), fan])]

    @staticmethod
    def check(h, start, floor):
        """fold h from start with floor; the calls and values against the
        unpruned fold seeded with each node at or below floor as itself."""
        def f(node, vals):
            calls.append(node)
            return node, tuple(vals)

        calls = []
        memo = dict(start)
        top = fold(h, f, memo, floor)
        pruned, pruned_calls = calls, []
        seeded = {c: c for c in constituent_set(h) if c.rank <= floor}
        seeded.update(start)
        calls = pruned_calls
        full = fold(h, f, seeded)
        assert pruned == pruned_calls
        assert set(pruned) == _reached(h, start, floor)
        assert len(pruned) == len(set(pruned))
        for node in pruned:
            assert memo[node] == seeded[node]
        assert top == full
        return len(pruned)

    def test_corpus_fans_and_chains(self, corpus200):
        counts = []
        for h in self.shapes(corpus200[:60]):
            for floor in range(-1, h.rank + 1, max(1, h.rank // 4)):
                pool = sorted(constituent_set(h), key=_shortlex)
                below = [c for c in pool if c.rank < floor][:1]
                at = [c for c in pool if c.rank == floor][:1]
                above = [c for c in pool if c.rank > floor and c is not h][-1:]
                for keys in ([], below, at, above, below + at + above):
                    counts.append(self.check(h, {k: "k" for k in keys}, floor))
        assert len(counts) > 1500 and sum(counts) > 5000

    @pytest.mark.parametrize(
        "shape, floor, keys, calls",
        [
            ("zermelo(60)", 20, (), 40),
            ("zermelo(60)", 20, ("zermelo(30)",), 30),
            ("zermelo(60)", 20, ("zermelo(10)",), 40),
            ("zermelo(60)", 60, (), 0),
            ("vn(8)", 3, (), 5),
            # vn(8) down to vn(4), and vn(0..2) beside vn(3) in vn(4)
            ("vn(8)", -1, ("vn(3)",), 8),
            # the root and the one shared chain of singletons from rank 11 up
            ("fan", 10, (), 21),
            ("fan", 10, ("diamond",), 21),
        ],
    )
    def test_pinned_counts(self, shape, floor, keys, calls):
        fan = make_set([_wrap(diamond(), k) for k in range(0, 30, 3)] + [vn(4)])
        named = {
            "zermelo(60)": zermelo(60),
            "zermelo(30)": zermelo(30),
            "zermelo(10)": zermelo(10),
            "vn(8)": vn(8),
            "vn(3)": vn(3),
            "fan": fan,
            "diamond": diamond(),
        }
        assert self.check(named[shape], {named[k]: 0 for k in keys}, floor) == calls

    def test_root_at_the_floor_stands_for_itself(self):
        memo = {}
        assert fold(vn(3), lambda w, vals: 1 / 0, memo, 3) is vn(3)
        assert memo == {}

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_fresh_chain_5000_deep_folds_only_above_the_floor(self):
        h = _wrap(_fresh(), 5000)
        calls = []
        top = fold(h, lambda w, vals: calls.append(w) or w, {}, h.rank - 10)
        assert top is h
        assert len(calls) == 10
        assert calls[-1] is h and calls[0].rank == h.rank - 9


class TestFoldStop:
    """A node that stop values is a leaf of the fold, as a memo key is."""

    @staticmethod
    def run(h, stopped):
        """fold h with stop valuing the nodes in stopped; the calls of f and
        of stop, and the memo."""
        calls, asked, memo = [], [], {}

        def f(node, vals):
            calls.append((node, vals))
            return len(calls)

        def stop(c):
            asked.append(c)
            return stopped.get(c)

        top = fold(h, f, memo, stop=stop)
        return top, calls, asked, memo

    def test_a_stop_node_under_a_run_is_a_leaf(self):
        # {{{w}}} beside {{}} in x: stop is asked of {} and of w, the nodes
        # that get frames, and f is called once per level of the run above w
        w = make_set([vn(3), zermelo(5)])
        x = make_set([_wrap(w, 3), zermelo(1)])
        top, calls, asked, memo = self.run(x, {w: "w"})
        assert asked == [EMPTY, w]
        assert [node for node, _ in calls] == [
            EMPTY, zermelo(1), _wrap(w, 1), _wrap(w, 2), _wrap(w, 3), x
        ]
        assert calls[2] == (_wrap(w, 1), ["w"])
        assert memo[w] == "w" and top == memo[x] == 6

    def test_nothing_inside_a_stop_node_enters_memo(self):
        # {} and {{}} lie inside w too, but are reached beside it
        w = make_set([vn(3), zermelo(5)])
        x = make_set([_wrap(w, 3), zermelo(1)])
        memo = self.run(x, {w: "w"})[3]
        assert set(memo) == {x, w, EMPTY, zermelo(1), *(_wrap(w, k) for k in (1, 2, 3))}

    def test_stop_is_never_asked_of_the_root(self):
        w = make_set([vn(3), zermelo(5)])
        top, calls, asked, memo = self.run(w, {w: "w"})
        assert w not in asked
        assert calls[-1][0] is w and top == memo[w] == len(calls)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(chains(30), min_size=1, max_size=4), st.data())
    def test_a_stop_node_folds_as_a_memo_key_does(self, parts, data):
        # stop is asked only of nodes that get frames, and a node of other
        # than one element always gets one, so stopping such nodes makes
        # the calls that seeding memo with them makes
        x = make_set(parts)
        pool = [c for c in constituents(x) if len(c.children) != 1 and c is not x]
        keys = data.draw(st.lists(st.sampled_from(pool), max_size=3), label="keys") if pool else []
        stopped = {k: -1 for k in keys}
        top, calls, asked, memo = self.run(x, stopped)
        seeded_calls = []
        seeded = dict(stopped)
        want = fold(x, lambda node, vals: seeded_calls.append((node, vals)) or len(seeded_calls), seeded)
        assert (top, calls) == (want, seeded_calls)
        assert memo == {k: v for k, v in seeded.items() if k in memo}
        assert len(asked) == len(set(asked)) and x not in asked

    @settings(max_examples=60, deadline=None)
    @given(st.lists(chains(30), min_size=1, max_size=4), handles(), st.data())
    def test_a_stop_node_rebuilds_as_a_memo_key_does(self, parts, z, data):
        # with _rebuild, the run above a stop node is rebuilt as the run
        # above a memo key is
        x = make_set(parts)
        pool = [c for c in constituents(x) if len(c.children) != 1 and c is not x]
        keys = data.draw(st.lists(st.sampled_from(pool), max_size=3), label="keys") if pool else []
        stopped = {k: z for k in keys}
        memo: dict = {}
        top = fold(x, _rebuild, memo, stop=stopped.get)
        seeded = dict(stopped)
        assert top is fold(x, _rebuild, seeded)
        assert memo == {k: v for k, v in seeded.items() if k in memo}

    @pytest.mark.usefixtures("default_recursion_limit")
    def test_a_run_10_to_the_5_deep_over_a_stop_node(self):
        n = 10**5
        w = make_set([vn(3), zermelo(5)])
        calls = []
        top = fold(
            _wrap(w, n + 1),
            lambda node, vals: calls.append(node) or vals[0] + 1,
            {},
            stop=lambda c: 0 if c is w else None,
        )
        assert top == n + 1 and len(calls) == n + 1


class TestElements:
    def test_elements_of_successor(self):
        assert elements(zermelo(3)) == [zermelo(2)]

    def test_cardinality_of_numeral(self):
        assert cardinality(vn(5)) == 5

    def test_a_handle_sizes_and_iterates_as_its_elements(self, corpus200):
        for h in corpus200[:50] + [empty(), vn(5)]:
            assert len(h) == cardinality(h)
            assert list(iter(h)) == elements(h)

    def test_union_builds_two_element_set(self):
        assert union(make_set([zermelo(0)]), make_set([zermelo(1)])) is vn(2)

    def test_union_identity(self, corpus200):
        for h in corpus200[:50]:
            assert union(h, empty()) is h

    def test_union_absorbs_subset(self):
        assert union(vn(2), vn(3)) is vn(3)


class TestConstituency:
    def test_numeral_chain(self):
        assert is_constituent(zermelo(0), zermelo(3))

    def test_reflexive(self, corpus200):
        for h in corpus200[:50]:
            assert is_constituent(h, h)

    def test_not_constituent(self):
        assert not is_constituent(vn(2), zermelo(2))

    def test_constituents_of_diamond(self):
        assert set(constituents(diamond())) == {
            diamond(),
            zermelo(2),
            vn(2),
            zermelo(1),
            zermelo(0),
        }

    def test_constituent_counts(self):
        assert len(constituents(diamond())) == 5
        assert len(constituents(zermelo(3))) == 4
        assert len(constituents(empty())) == 1

    def test_constituents_sorted_shortlex(self, corpus200):
        for h in corpus200:
            keys = [(len(c.text), c.text) for c in constituents(h)]
            assert keys == sorted(keys)

    def test_matches_brute_recursion(self, corpus200):
        for h in corpus200:
            assert constituent_set(h) == oracles.constituents_brute(h)

    def test_is_constituent_matches_set(self, corpus200):
        for h in corpus200[:30]:
            for c in constituents(h):
                assert is_constituent(c, h)


class TestInsideAgainstText:
    """The kernel's walks and per-node facts against substring search.

    The pool is every constituent of some corpus sets, so it holds {}, sets
    nested in one another and many distinct sets of equal rank.
    """

    @pytest.fixture(scope="class")
    def pool(self, corpus200):
        return sorted(
            set().union(*map(constituent_set, corpus200)),
            key=lambda h: (len(h.text), h.text),
        )

    def test_is_constituent(self, pool):
        equal_rank = inside = 0
        for x in pool:
            for y in pool:
                found = is_constituent(x, y)
                assert found is oracles.is_constituent_by_text(x, y)
                equal_rank += x is not y and x.rank == y.rank
                inside += x is not y and found
        assert pool[0] is empty()
        assert equal_rank > 1000 and inside > 100

    def test_rank_is_nesting_depth(self, pool):
        for h in pool:
            assert h.rank == oracles.nesting_depth(h)

    def test_maximal_elements(self, pool):
        rng = random.Random(5)
        for _ in range(300):
            hs = rng.choices(pool, k=rng.randint(0, 12))
            expected = oracles.maximal_by_text(list(dict.fromkeys(hs)))
            assert maximal_elements(hs) == expected
        for h in pool[1:]:
            expected = make_set(oracles.maximal_by_text(list(h.children)))
            assert maximal_constituents(h) is expected

    def test_lcc_set(self, pool):
        rng = random.Random(6)
        for _ in range(300):
            a, b = rng.sample(pool, 2)
            assert lcc_set(a, b) is parse(oracle.lcc_set(a.text, b.text))


class TestInstanceCount:
    def test_landmark_counts(self):
        assert instance_count(zermelo(5)) == 6
        assert instance_count(vn(5)) == 32
        assert instance_count(empty()) == 1

    def test_growth_laws(self):
        for n in range(11):
            assert instance_count(zermelo(n)) == n + 1
            assert instance_count(vn(n)) == 2**n

    def test_equals_open_brace_count(self, corpus200):
        for h in corpus200:
            assert instance_count(h) == h.text.count("{")


@pytest.mark.usefixtures("default_recursion_limit")
class TestDeepAndWideShapes:
    """Rebuilds and counts on shapes far deeper or wider than the corpus."""

    @staticmethod
    def check(x, data):
        y = data.draw(st.sampled_from(constituents(x)), label="y")
        z = data.draw(handles(), label="z")
        assert replace(x, y, z) is oracles.replace_by_text(x, y, z)
        assert compose(x, z) is oracles.replace_by_text(x, empty(), z)
        assert instance_count(x) == x.text.count("{")
        assert x.rank == oracles.nesting_depth(x)
        assert is_constituent(z, x) is oracles.is_constituent_by_text(z, x)
        hs = list(x.children)
        assert maximal_elements(hs) == oracles.maximal_by_text(hs)

    @settings(max_examples=25, deadline=None)
    @given(chains(), st.data())
    def test_deep_chain(self, x, data):
        self.check(x, data)

    @settings(max_examples=10, deadline=None)
    @given(fans(), st.data())
    def test_wide_fan(self, x, data):
        self.check(x, data)
