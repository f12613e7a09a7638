"""Replacement, composition, vertical orders, maxima, and map-union."""
from __future__ import annotations

import pytest

import _oracles as oracles
from _oracles import oracle
from _shapes import _fresh, _uids_drawn, _wrap
import conset.algebra
from conset import (
    EmptyHasNoMaximal,
    NoneFound,
    NotABottom,
    NotUnique,
    compose,
    compose_all,
    constituent_set,
    constituents,
    empty,
    has_bottom,
    is_constituent,
    is_top,
    lcc,
    lcc_set,
    make_set,
    map_union,
    max_with_bottom,
    max_with_bottom_unique,
    maximal_constituents,
    maximal_elements,
    parse,
    remove_bottom,
    remove_top,
    replace,
    unique_maximum,
    with_top,
    with_top_unique,
)
from conset.kernel import _rebuild, fold
from conset.numerals import as_vn, vn, zermelo
from conset.tuples import make_tuple, position, position_path


class TestReplace:
    def test_merging_changes_cardinality(self):
        assert replace(vn(2), zermelo(1), zermelo(0)) is zermelo(1)

    def test_no_occurrence_is_identity(self, corpus200):
        for x in corpus200[:40]:
            assert replace(zermelo(2), vn(2), x) is zermelo(2)

    def test_whole_set_occurrence(self, corpus200):
        for i, x in enumerate(corpus200[:40]):
            z = corpus200[-1 - i]
            assert replace(x, x, z) is z

    def test_matches_text_substitution_oracle(self, triples1000):
        for x, y, z in triples1000:
            assert replace(x, y, z) is oracles.replace_by_text(x, y, z)

    def test_replacing_by_itself_rebuilds_nothing(self, monkeypatch, corpus200):
        def no_fold(*args):
            raise AssertionError("an identity replacement ran a fold")

        monkeypatch.setattr(conset.algebra, "fold", no_fold)
        for x in corpus200[:40]:
            for y in constituents(x)[:5]:
                assert replace(x, y, y) is x
            assert compose(x, empty()) is x


class TestReplacementLaws:
    def test_inserted_value_becomes_constituent(self, triples1000):
        # y below x forces z below the result
        for x, y, z in triples1000:
            if is_constituent(y, x):
                assert is_constituent(z, replace(x, y, z))

    def test_absent_pattern_leaves_x_alone(self, triples1000):
        for x, y, z in triples1000:
            if not is_constituent(y, x):
                assert replace(x, y, z) is x

    def test_third_law_counterexample(self):
        # x = {y}, y = {{}}, z = {}: replacing y by z inside x yields y
        # itself, so "y not below z implies y not below x(y -> z)" fails.
        y = zermelo(1)
        x = make_set([y])
        z = empty()
        assert not is_constituent(y, z)
        result = replace(x, y, z)
        assert result is y
        assert is_constituent(y, result)

    def test_third_law_holds_outside_reassembly(self, triples1000):
        # The law fails only when replacing y inside some *other* part of x
        # reassembles y itself.  Excluding exactly those triples, it holds.
        for x, y, z in triples1000:
            if is_constituent(y, z):
                continue
            reassembles = any(
                w is not y and replace(w, y, z) is y for w in constituents(x)
            )
            if reassembles:
                continue
            assert not is_constituent(y, replace(x, y, z))


def _indexed(corpus, i, stride, offset):
    return corpus[(i * stride + offset) % len(corpus)]


class TestCompositionLaws:
    """The five laws: two identities, constituency, undo, associativity."""

    def test_right_identity(self, corpus1000):
        for x in corpus1000:
            assert compose(x, empty()) is x

    def test_left_identity(self, corpus1000):
        for x in corpus1000:
            assert compose(empty(), x) is x

    def test_bottom_is_constituent(self, corpus1000):
        for i, x in enumerate(corpus1000):
            y = _indexed(corpus1000, i, 7, 3)
            assert is_constituent(y, compose(x, y))

    def test_replacing_bottom_back_undoes(self, corpus1000):
        for i, x in enumerate(corpus1000):
            y = _indexed(corpus1000, i, 7, 3)
            assert replace(compose(x, y), y, empty()) is x

    def test_associativity(self, corpus1000):
        for i, x in enumerate(corpus1000):
            y = _indexed(corpus1000, i, 7, 3)
            z = _indexed(corpus1000, i, 13, 11)
            assert compose(compose(x, y), z) is compose(x, compose(y, z))


class TestCompose:
    def test_simplest_nontrivial(self):
        assert compose(zermelo(1), zermelo(1)) is zermelo(2)

    def test_compose_all_both_bracketings(self):
        chain = compose_all([zermelo(1), zermelo(1), zermelo(1)])
        assert chain is zermelo(3)
        assert chain is compose(zermelo(1), compose(zermelo(1), zermelo(1)))
        assert chain is compose(compose(zermelo(1), zermelo(1)), zermelo(1))

    def test_compose_all_empty_list(self):
        assert compose_all([]) is empty()


class TestRunRebuild:
    """A substitution rebuilds a run of singletons level by level from the
    kernel's singleton table: one new handle per new level, none twice."""

    @pytest.mark.parametrize("d", [1, 2, 7, 400])
    def test_compose_on_a_fresh_set_draws_one_uid_per_level(self, d):
        z, s = zermelo(d), _fresh()
        got, drawn = _uids_drawn(lambda: compose(z, s))
        assert drawn == d
        assert got is _wrap(s, d)

    def test_shared_interiors_are_rebuilt_once(self):
        core = vn(3)
        x = make_set([_wrap(core, k) for k in range(0, 300, 7)])
        fresh = _fresh()
        got, drawn = _uids_drawn(lambda: replace(x, core, fresh))
        assert got is oracles.replace_by_text(x, core, fresh)
        # the levels 1 to 294 over fresh and the new root
        assert drawn == len(constituent_set(got) - constituent_set(fresh)) == 295
        # every level of the longest run is in the memo, so the shorter
        # runs end on it and no level is made twice
        memo = {core: fresh}
        fold(x, _rebuild, memo, core.rank)
        for k in range(1, 295):
            assert memo[_wrap(core, k)] is _wrap(fresh, k)


class TestHasBottom:
    def test_numeral_tail(self):
        assert has_bottom(zermelo(5), zermelo(2))

    def test_empty_always_at_bottom(self, corpus200):
        for x in corpus200[:50]:
            assert has_bottom(x, empty())

    def test_merged_occurrence_rejected(self):
        # {0,1} with 1 replaced by {} collapses to {0}; putting 1 back
        # yields {1}, not {0,1}, so 1 is not at the bottom of {0,1}.
        assert not has_bottom(vn(2), zermelo(1))

    def test_compose_always_has_bottom(self, corpus200):
        for i, x in enumerate(corpus200[:60]):
            y = corpus200[-1 - i]
            assert has_bottom(compose(x, y), y)


def _check_bottoms(x, a):
    """has_bottom and remove_bottom on every constituent of x, and
    max_with_bottom, max_with_bottom_unique and replace on (x, a), against
    the text oracle."""
    found = []
    for c in oracle.constituents(x.text):
        expected = oracle.has_bottom(c, a.text)
        assert has_bottom(parse(c), a) == expected
        if expected:
            found.append(c)
            assert remove_bottom(parse(c), a) is parse(oracle.replace(c, a.text, oracle.EMPTY))
        else:
            with pytest.raises(NotABottom):
                remove_bottom(parse(c), a)
    maximal = oracle.maximal(found)
    assert max_with_bottom(x, a) is parse(oracle.make(maximal))
    if len(maximal) == 1:
        assert max_with_bottom_unique(x, a) is parse(maximal[0])
    else:
        with pytest.raises(NotUnique if maximal else NoneFound):
            max_with_bottom_unique(x, a)
    assert replace(x, a, vn(2)) is parse(oracle.replace(x.text, a.text, vn(2).text))


class TestBottomOracle:
    def test_corpus_constituent_pairs(self, corpus200):
        for x in corpus200[:25]:
            for a in constituents(x):
                _check_bottoms(x, a)

    def test_markers_inside_nested_tuples(self, corpus200):
        markers = [position(0), position(1)]
        markers += [position_path(p) for p in ([0, 0], [1, 0], [0, 1])]
        small = [h for h in corpus200 if len(h.text) <= 24]
        for i in range(0, 12, 3):
            x, y, z = small[i : i + 3]
            t = make_tuple([make_tuple([x, make_tuple([y, z])]), y])
            # beside entries ranked below every marker and above them all
            u = make_tuple([empty(), make_tuple([x, zermelo(9), make_tuple([zermelo(1), z])])])
            for p in markers:
                _check_bottoms(t, p)
                _check_bottoms(u, p)

    def test_sets_that_are_not_constituents(self, corpus200):
        # a drawn from the corpus, a marker, and sets ranked above all of x
        checked = 0
        for i, x in enumerate(corpus200[:40]):
            for a in (corpus200[-1 - i], position(2), make_set([x]), zermelo(x.rank + 2)):
                if not oracle.is_constituent(a.text, x.text):
                    _check_bottoms(x, a)
                    assert max_with_bottom(x, a) is empty()
                    assert replace(x, a, vn(2)) is x
                    checked += 1
        assert checked > 120

    def test_constituents_strictly_inside_the_bottom(self, corpus200):
        for a in corpus200[:40] + [position(2), position_path([1, 0])]:
            for c in constituents(a):
                if c is not a:
                    assert not has_bottom(c, a)
                    assert not oracles.has_bottom_by_text(c, a)
            assert max_with_bottom(make_set([a]), a) is make_set([make_set([a])])


class TestIsTop:
    def test_empty_tops_everything(self, corpus200):
        for x in corpus200[:50]:
            assert is_top(empty(), x)

    def test_singleton_detection(self):
        assert is_top(zermelo(1), make_set([make_set([vn(2)])]))

    def test_numeral_head(self):
        assert is_top(zermelo(2), zermelo(5))

    def test_wrong_head(self):
        assert not is_top(vn(2), zermelo(5))

    def test_compose_always_is_top(self, corpus200):
        for i, x in enumerate(corpus200[:60]):
            y = corpus200[-1 - i]
            assert is_top(x, compose(x, y))


def _check_tops(c, b):
    """is_top and remove_top on (c, b) against the text oracle."""
    witnesses = oracles.top_witnesses_by_text(c, b)
    assert len(witnesses) <= 1
    assert is_top(c, b) == bool(witnesses)
    assert remove_top(c, b) is (witnesses[0] if witnesses else b)


class TestTopOracle:
    def test_corpus_pairs(self, corpus200):
        for i, b in enumerate(corpus200[:40]):
            for c in constituents(b) + [empty(), position(2)]:
                _check_tops(c, b)
                _check_tops(c, compose(c, corpus200[-1 - i]))

    def test_with_top(self, corpus200):
        for a in corpus200[:25]:
            cons = sorted(oracle.constituents(a.text), key=oracle.shortlex)
            for b in cons[::3] + [oracle.EMPTY, oracle.position(2)]:
                expected = [c for c in cons if oracle.is_top(b, c)]
                assert with_top(a, parse(b)) is parse(oracle.make(expected))


class TestRemoveBottom:
    def test_numeral_difference(self):
        assert remove_bottom(zermelo(5), zermelo(2)) is zermelo(3)

    def test_empty_identity(self, corpus200):
        for x in corpus200[:40]:
            assert remove_bottom(x, empty()) is x

    def test_rejects_non_bottom(self):
        with pytest.raises(NotABottom):
            remove_bottom(vn(2), zermelo(1))

    def test_undoes_compose(self, corpus200):
        for i, x in enumerate(corpus200[:60]):
            y = corpus200[-1 - i]
            assert remove_bottom(compose(x, y), y) is x

    def test_looks_for_the_bottom_once(self, corpus200, monkeypatch):
        # has_bottom's one walk finds a inside b; nothing looks for it again
        x, a = corpus200[3], corpus200[-4]
        b = compose(x, a)
        calls = []
        real = conset.algebra.is_constituent
        monkeypatch.setattr(
            conset.algebra, "is_constituent", lambda *args: calls.append(args) or real(*args)
        )
        got = remove_bottom(b, a)
        assert calls == []
        assert got.text == oracle.replace(b.text, a.text, oracle.EMPTY)


class TestRemoveTop:
    def test_numeral_difference(self):
        assert remove_top(zermelo(2), zermelo(5)) is zermelo(3)

    def test_empty_identity(self, corpus200):
        for x in corpus200[:40]:
            assert remove_top(empty(), x) is x

    def test_no_witness_returns_whole(self):
        assert remove_top(zermelo(2), vn(3)) is vn(3)

    def test_undoes_compose(self, corpus200):
        # composition is injective in its second argument, so the witness
        # is unique and removal recovers it exactly
        for i, x in enumerate(corpus200[:60]):
            y = corpus200[-1 - i]
            assert remove_top(x, compose(x, y)) is y


class TestMaxima:
    def test_diamond_has_two(self):
        assert maximal_constituents(diamond_set()) is make_set(
            [zermelo(2), vn(2)]
        )

    def test_chain_has_one(self):
        assert maximal_constituents(zermelo(3)) is make_set([zermelo(2)])

    def test_unique_maximum_of_singleton(self, corpus200):
        for s in corpus200[:40]:
            assert unique_maximum(make_set([s])) is s

    def test_unique_maximum_rejects_empty(self):
        with pytest.raises(EmptyHasNoMaximal):
            unique_maximum(empty())

    def test_unique_maximum_rejects_ties(self):
        with pytest.raises(NotUnique):
            unique_maximum(diamond_set())

    def test_maximal_elements_filters(self):
        out = maximal_elements([zermelo(0), zermelo(1), zermelo(3), vn(2)])
        assert set(out) == {zermelo(3), vn(2)}


class TestLcc:
    def test_chain_meets_diamond_parts(self):
        assert lcc(zermelo(2), vn(2)) is zermelo(1)

    def test_reflexive(self, corpus200):
        for x in corpus200[:40]:
            assert lcc(x, x) is x

    def test_lcc_set_can_have_two(self):
        a = diamond_set()
        b = make_set([make_set([zermelo(2)]), make_set([vn(2)])])
        assert lcc_set(a, b) is make_set([zermelo(2), vn(2)])


class TestMaxWithBottom:
    def test_tuple_entry_extraction(self, corpus200):
        for i, a in enumerate(corpus200[:30]):
            b = corpus200[-1 - i]
            t = make_tuple([a, b])
            assert max_with_bottom(t, position(1)) is make_set(
                [compose(b, position(1))]
            )

    def test_empty_bottom_returns_whole(self, corpus200):
        for x in corpus200[:40]:
            assert max_with_bottom(x, empty()) is make_set([x])

    def test_numeral_case(self):
        assert max_with_bottom(zermelo(5), zermelo(2)) is make_set(
            [zermelo(5)]
        )

    def test_unique_raises_when_none(self):
        with pytest.raises(NoneFound):
            max_with_bottom_unique(zermelo(2), vn(2))

    def test_unique_raises_on_tie(self):
        # The extra {{}} element stops the whole set from inheriting the
        # V2 bottom, leaving two incomparable maximal witnesses.
        c1 = compose(zermelo(2), vn(2))
        c2 = compose(vn(2), vn(2))
        x = make_set([c1, c2, zermelo(1)])
        assert not has_bottom(x, vn(2))
        assert max_with_bottom(x, vn(2)) is make_set([c1, c2])
        with pytest.raises(NotUnique):
            max_with_bottom_unique(x, vn(2))


class TestWithTop:
    def test_numeral_tails(self):
        assert with_top(zermelo(5), zermelo(2)) is make_set(
            [zermelo(2), zermelo(3), zermelo(4), zermelo(5)]
        )

    def test_empty_top_gives_all_constituents(self, corpus200):
        for x in corpus200[:40]:
            assert with_top(x, empty()) is make_set(constituents(x))

    def test_diamond_single_witness(self):
        assert with_top(diamond_set(), vn(2)) is make_set([vn(2)])
        assert with_top_unique(diamond_set(), vn(2)) is vn(2)

    def test_unique_raises_on_tie(self):
        with pytest.raises(NotUnique):
            with_top_unique(zermelo(5), zermelo(2))

    def test_unique_raises_when_none(self):
        # the unique variant answers "the one constituent with b at the
        # top"; zero witnesses is just another failure of uniqueness
        with pytest.raises(NotUnique):
            with_top_unique(zermelo(3), vn(2))


class TestMapUnion:
    def test_successor_case(self):
        assert map_union(vn(1), vn(1)) is vn(2)

    def test_right_identity(self, corpus200):
        for x in corpus200[:40]:
            assert map_union(x, empty()) is x

    def test_addition_on_numerals(self):
        assert map_union(vn(2), vn(1)) is vn(3)
        assert as_vn(map_union(vn(2), vn(3))) == 5


def diamond_set():
    from conset.tuples import diamond

    return diamond()
