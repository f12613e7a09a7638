"""Tests for vertical decomposition: tops, bottoms, middles, fusion, close.

Expected sets are built from the composition primitives themselves (wrap a
branch as zermelo(n) ∘ diamond ∘ branch, etc.), and fuse results are checked
against an independent simultaneous text-substitution oracle: fusing branches
onto a top's numbered slots must equal replacing each position marker's text
by its branch's text in a single left-to-right pass.
"""

import itertools
import random
import re

import pytest

from conset import (
    compose,
    compose_all,
    constituents,
    empty,
    make_set,
)
from conset.corpus import generate
from conset.errors import (
    ArityMismatch,
    IndexOutOfRange,
    NotAPermutation,
    NotAStructure,
    SearchBudgetExceeded,
    TerminalMismatch,
)
from conset.fusion import (
    BottomStructure,
    TopStructure,
    _read,
    _read_middle,
    bottom_structure,
    bottom_terminal,
    close,
    fuse,
    fuse_middle,
    fuse_with_terminals,
    has_bottom_structure,
    has_top_structure,
    match_terminals,
    middle,
    middle_identity,
    middle_permutation,
    middle_structure,
    top_structure,
    validate_bottom,
    validate_middle,
    validate_top,
)
from conset.kernel import parse
from conset.numerals import vn, zermelo
from conset.tuples import (
    diamond,
    kuratowski_pair,
    kuratowski_top,
    make_tuple,
    position,
    position_path,
)

from _oracles import (
    bottom_markers_by_text,
    branch,
    bypass_by_text,
    has_bottom_exhaustive,
    has_top_exhaustive,
    middle_markers_by_text,
    position_indices_by_text,
    simultaneous_replace_by_text,
)

D = diamond()
Z = zermelo


def slots(h):
    """The slots the one reader finds in h, by number."""
    return _read(h)[0]


def sample_bottom(x, y, z):
    """Three-branch bottom {◇x, 1◇y, 2◇z}."""
    return make_set([branch(0, x), branch(1, y), branch(2, z)])


def grouping_top():
    """Top {{P0,P1},{P2}}: slots 0,1 grouped together, slot 2 apart."""
    return make_set(
        [make_set([position(0), position(1)]), make_set([position(2)])]
    )


def random_top(rng, m):
    """A valid top of arity m: every slot at least once, in randomly nested
    groups, with sets that lie inside a slot mixed in."""
    inside = [c for n in range(m) for c in constituents(position(n)) if c is not position(n)]

    def group(slots, depth):
        if len(slots) == 1 and (depth >= 3 or rng.random() < 0.5):
            return position(slots[0])
        k = len(slots) if depth >= 3 else rng.randint(1, len(slots))
        parts = [group(slots[i::k], depth + 1) for i in range(k)]
        return make_set(parts + rng.sample(inside, rng.randint(0, 1)))

    slots = list(range(m)) + [rng.randrange(m) for _ in range(rng.randint(0, 2))]
    rng.shuffle(slots)
    return group(slots, 0)


def sets_up_to(length):
    """Every set whose text has at most length characters (none has four
    elements below 25 characters)."""
    found = {empty()}
    while True:
        items = list(found)
        grown = found | {
            h
            for k in (1, 2, 3)
            for es in itertools.combinations(items, k)
            if len((h := make_set(es)).text) <= length
        }
        if grown == found:
            return sorted(found, key=lambda h: (len(h.text), h.text))
        found = grown


class TestValidators:
    def test_bare_tuple_is_a_top(self):
        tv = validate_top(make_tuple([empty()] * 3))
        assert tv is not None
        assert (tv.arity, tv.offset) == (3, 0)

    def test_pair_template_is_a_top_of_arity_two(self):
        tv = validate_top(kuratowski_top())
        assert tv is not None
        assert (tv.arity, tv.offset) == (2, 0)

    def test_three_branch_bottom(self):
        b = sample_bottom(Z(1), Z(2), vn(2))
        bv = validate_bottom(b)
        assert bv is not None
        assert (bv.arity, bv.offset) == (3, 0)
        assert bv.markers == (branch(0, Z(1)), branch(1, Z(2)), branch(2, vn(2)))

    def test_markerless_set_is_not_a_top(self):
        assert validate_top(Z(5)) is None
        with pytest.raises(NotAStructure):
            top_structure(Z(5))

    def test_gap_in_slot_numbering_rejected(self):
        assert validate_top(make_set([position(0), position(2)])) is None

    def test_element_bypassing_every_slot_rejected(self):
        assert validate_top(make_set([position(0), vn(3)])) is None

    def test_bypass_check_matches_text_oracle(self, corpus200):
        # every constituent must hold a slot or lie inside one; the error
        # names the shortlex-least constituent that does neither
        rng = random.Random(17)
        outcomes = set()
        for x, y in zip(corpus200[:100], corpus200[100:]):
            if rng.random() < 0.5:
                y = compose(y, position(1))
            h = make_set([compose(x, position(0)), position(1), y])
            assert position_indices_by_text(h.text) == [0, 1]
            bypass = bypass_by_text(h.text)
            if bypass:
                with pytest.raises(NotAStructure, match=re.escape(repr(parse(bypass[0])))):
                    top_structure(h)
            else:
                assert top_structure(h).arity == 2
            outcomes.add(bool(bypass))
        assert outcomes == {False, True}

    def test_empty_set_is_not_a_bottom(self):
        assert validate_bottom(empty()) is None
        with pytest.raises(NotAStructure):
            bottom_structure(empty())

    def test_markerless_set_is_not_a_bottom(self):
        assert validate_bottom(Z(5)) is None

    def test_empty_branches_nest_and_are_rejected(self):
        # With all branches empty the wrapped markers are ◇, {◇}, {{◇}}: each
        # is a constituent of the next, so only the deepest is maximal and the
        # numbering check fails.  Bare-branch fusion covers this case instead.
        pseudo = make_set([branch(0, empty()), branch(1, empty()), branch(2, empty())])
        assert validate_bottom(pseudo) is None

    def test_duplicate_branches_nest_and_are_rejected(self):
        dup = make_set([branch(0, Z(2)), branch(1, Z(2))])
        assert validate_bottom(dup) is None

    def test_middle_is_both_top_and_bottom(self):
        m = middle([Z(1), vn(2)])
        assert validate_top(m.set).arity == 2
        assert validate_bottom(m.set).arity == 2
        assert validate_middle(m.set).arity == 2

    def test_bare_tuple_is_not_a_middle(self):
        # {P0, P1} has slots but its maximal constituents both parse as
        # zero-wrapped markers, so the bottom side fails.
        assert validate_middle(make_tuple([empty()] * 2)) is None

    def test_plain_bottom_is_not_a_middle(self):
        assert validate_middle(sample_bottom(Z(1), Z(2), vn(2))) is None

    def test_slot_and_marker_arities_must_agree(self):
        # three branch markers, whose slots are only P0 and P1
        p0, p1 = position(0), position(1)
        h = make_set([branch(0, p0), branch(1, p1), branch(2, make_set([p0, p1]))])
        assert validate_top(h).arity == 2 and validate_bottom(h).arity == 3
        with pytest.raises(NotAStructure, match="^slot arity 2 differs from marker arity 3$"):
            middle_structure(h)

    def test_offset_one_structures(self):
        t = make_set([position(1), position(2)])
        b = make_set([branch(1, Z(2)), branch(2, vn(3))])
        assert validate_top(t) is None
        assert validate_bottom(b) is None
        assert (top_structure(t, offset=1).arity, top_structure(t, offset=1).offset) == (2, 1)
        assert (bottom_structure(b, offset=1).arity, bottom_structure(b, offset=1).offset) == (2, 1)


class TestMarkerReading:
    def test_indices_match_text_oracle(self, corpus200):
        rng = random.Random(29)
        flat = [
            make_tuple(rng.sample(corpus200, k)) for k in (1, 2, 3, 4) for _ in range(5)
        ]
        nested = [make_tuple([t, rng.choice(corpus200)]) for t in flat]
        nested += [make_tuple([empty(), make_tuple([position(2), D])])]
        for h in corpus200 + flat + nested + [kuratowski_top(), grouping_top()]:
            assert sorted(slots(h)) == position_indices_by_text(h.text)

    def test_indices_of_known_tops(self):
        assert sorted(slots(kuratowski_top())) == [0, 1]
        assert sorted(slots(grouping_top())) == [0, 1, 2]
        apart = make_set([position(3), make_set([position(1)])])
        assert sorted(slots(apart)) == [1, 3]
        assert sorted(slots(Z(4))) == []

    def test_large_entry_tuple_is_a_top(self):
        assert top_structure(make_tuple([vn(12), empty()])).arity == 2


class TestOneReader:
    """One walk reads a set for the top, bottom and middle checks."""

    def test_element_inside_a_slot_only_is_no_marker(self):
        # Z(1) lies inside slot 0's marker and nowhere else, so it is not a
        # maximal element, though the walk never enters the slot
        m = middle([Z(1), Z(2)])
        h = make_set(m.set.children + (Z(1),))
        assert middle_structure(h).arity == 2
        assert _read_middle(h, 0).bottom.markers == bottom_structure(m.set).markers
        assert close(h) is close(m) is make_set([Z(1), Z(2)])

    def test_bottom_with_an_element_inside_its_marker(self):
        h = make_set([position(1), Z(1)])
        bv = bottom_structure(h)
        assert (bv.arity, bv.markers) == (1, (position(1),))
        assert bottom_terminal(bv, 0) is Z(1)
        assert top_structure(h, offset=1).arity == 1
        with pytest.raises(NotAStructure, match=r"^marker indices \[0\] are not contiguous from 1$"):
            middle_structure(h, offset=1)

    def test_a_slot_is_a_top_of_arity_one(self):
        assert top_structure(position(0)) == TopStructure(position(0), 1, 0)
        assert slots(position(2)) == {2: position(2)}
        with pytest.raises(NotAStructure, match="^marker residue is not a diamond stack"):
            middle_structure(position(0))

    def test_runs_of_singletons(self):
        # one run ends at slot 0, another enters it halfway, and a third,
        # Z(7), ends at {}: of its sets only Z(2) and below lie inside slot
        # 0's marker, so Z(3) is the least that bypasses it
        p = position(0)
        top = make_set([compose(Z(5), p), compose(Z(2), p)])
        assert top_structure(top).arity == 1
        h = make_set(top.children + (Z(7),))
        bypass = bypass_by_text(h.text)
        assert parse(bypass[0]) is Z(3)
        with pytest.raises(NotAStructure, match=re.escape(repr(Z(3))) + "$"):
            top_structure(h)
        assert top_structure(make_tuple([Z(3000), vn(3)])).arity == 2

    def test_readings_match_text_oracle(self, corpus200):
        # bottoms and middles of corpus branches, each also with one more
        # element, beside plain sets
        rng = random.Random(23)
        extra = [empty(), Z(1), Z(2), Z(3), vn(2), D, position(0), position(1)]
        cases = corpus200 + sets_up_to(18)
        for x, y in zip(corpus200[:40], corpus200[40:80]):
            for a, b in ((x, y), (compose(x, position(0)), compose(y, position(1)))):
                parts = [branch(0, a), branch(1, b)]
                cases += [make_set(parts), make_set(parts + [rng.choice(extra)])]
        outcomes = set()
        for h in cases:
            bottom = bottom_markers_by_text(h.text)
            bv = validate_bottom(h)
            assert (bv is None) == (bottom is None), h
            if bv is not None:
                assert bv.arity == len(bottom)
                assert [m.text for m in bv.markers] == bottom
            mid = middle_markers_by_text(h.text)
            assert (validate_middle(h) is None) == (mid is None), h
            if mid is not None:
                r = _read_middle(h, 0)
                mv, bv = r.middle, r.bottom
                assert mv.arity == len(mid)
                assert [m.text for m in bv.markers] == mid
            outcomes.add((bottom is not None, mid is not None))
        assert outcomes == {(False, False), (True, False), (True, True)}


class TestBottomTerminal:
    def test_branches_come_back_unwrapped(self):
        b = make_set([branch(0, Z(2)), branch(1, Z(3))])
        assert bottom_terminal(b, 0) is Z(2)
        assert bottom_terminal(b, 1) is Z(3)

    def test_three_branch_bottom(self):
        b = sample_bottom(Z(1), Z(2), vn(2))
        assert [bottom_terminal(b, n) for n in range(3)] == [Z(1), Z(2), vn(2)]

    def test_index_out_of_range(self):
        b = make_set([branch(0, Z(2)), branch(1, Z(3))])
        with pytest.raises(IndexOutOfRange):
            bottom_terminal(b, 2)
        with pytest.raises(IndexOutOfRange):
            bottom_terminal(b, -1)

    def test_offset_indexing(self):
        bv = bottom_structure(make_set([branch(1, Z(2)), branch(2, vn(3))]), offset=1)
        assert bottom_terminal(bv, 1) is Z(2)
        assert bottom_terminal(bv, 2) is vn(3)
        with pytest.raises(IndexOutOfRange):
            bottom_terminal(bv, 0)

    def test_hand_built_non_marker_raises(self):
        bv = BottomStructure(set=Z(3), arity=1, markers=(Z(3),))
        with pytest.raises(NotAStructure):
            bottom_terminal(bv, 0)


class TestMatchTerminals:
    def test_matching_arities(self):
        assert match_terminals(grouping_top(), sample_bottom(Z(1), Z(2), vn(2)))
        assert match_terminals(make_tuple([empty()] * 3), sample_bottom(Z(1), Z(2), vn(2)))

    def test_arity_mismatch_is_false(self):
        assert not match_terminals(make_tuple([empty()] * 2), sample_bottom(Z(1), Z(2), vn(2)))

    def test_offset_mismatch_is_false(self):
        bv = bottom_structure(make_set([branch(1, Z(2)), branch(2, vn(3))]), offset=1)
        assert not match_terminals(top_structure(make_tuple([empty()] * 2)), bv)

    def test_hand_built_non_marker_raises(self):
        # a record is checked against its set, as hand-built tops are
        bv = BottomStructure(set=Z(3), arity=1, markers=(Z(3),))
        with pytest.raises(NotAStructure):
            match_terminals(make_tuple([empty()]), bv)
        with pytest.raises(NotAStructure):
            fuse(make_tuple([empty()]), bv)

    def test_wrongly_numbered_marker_raises(self):
        b = branch(1, Z(2))
        bv = BottomStructure(set=b, arity=1, markers=(b,))
        with pytest.raises(NotAStructure):
            match_terminals(make_tuple([empty()]), bv)

    def test_raw_non_structure_raises(self):
        with pytest.raises(NotAStructure):
            match_terminals(make_tuple([empty()] * 2), Z(5))
        with pytest.raises(NotAStructure):
            match_terminals(Z(5), sample_bottom(Z(1), Z(2), vn(2)))


class TestFuse:
    def test_grouped_slots_receive_grouped_branches(self):
        x, y, z = Z(1), Z(2), vn(2)
        got = fuse(grouping_top(), sample_bottom(x, y, z))
        assert got is make_set([make_set([x, y]), make_set([z])])

    def test_flat_tuple_collects_branches_as_elements(self):
        x, y, z = Z(1), Z(2), vn(2)
        assert fuse(make_tuple([empty()] * 3), sample_bottom(x, y, z)) is make_set([x, y, z])

    def test_graded_branches_assemble_a_numeral(self):
        b = sample_bottom(vn(0), vn(1), vn(2))
        assert fuse(make_tuple([empty()] * 3), b) is vn(3)

    def test_pair_template_fuses_to_pair(self):
        b = make_set([branch(0, Z(3)), branch(1, vn(3))])
        assert fuse(kuratowski_top(), b) is kuratowski_pair(Z(3), vn(3))

    def test_arity_mismatch_raises(self):
        with pytest.raises(TerminalMismatch):
            fuse(make_tuple([empty()] * 2), sample_bottom(Z(1), Z(2), vn(2)))

    def test_nonzero_offset_raises(self):
        tv = top_structure(make_set([position(1), position(2)]), offset=1)
        bv = bottom_structure(make_set([branch(1, Z(2)), branch(2, vn(3))]), offset=1)
        with pytest.raises(TerminalMismatch):
            fuse(tv, bv)

    def test_agrees_with_bare_branch_fusion(self):
        b = sample_bottom(Z(1), Z(2), vn(2))
        terms = [bottom_terminal(b, n) for n in range(3)]
        for t in (grouping_top(), make_tuple([empty()] * 3)):
            assert fuse(t, b) is fuse_with_terminals(t, terms)


class TestFuseWithTerminals:
    def test_slots_inside_tuple_entries(self):
        x, y, z = Z(1), Z(2), vn(2)
        got = fuse_with_terminals(make_tuple([x, y, z]), [empty()] * 3)
        assert got is make_set([x, y, z])

    def test_single_slot(self):
        assert fuse_with_terminals(make_tuple([empty()]), [Z(3)]) is make_set([Z(3)])

    def test_wrong_branch_count_raises(self):
        with pytest.raises(ArityMismatch):
            fuse_with_terminals(make_tuple([empty()] * 3), [Z(1), Z(2)])

    def test_top_with_an_offset_does_not_fuse(self):
        tv = top_structure(make_set([position(1), make_set([position(2)])]), 1)
        assert tv.arity == 2
        with pytest.raises(TerminalMismatch, match="^fusion requires marker indices starting at 0$"):
            fuse_with_terminals(tv, [empty(), empty()])

    def test_hand_built_top_is_checked(self):
        with pytest.raises(NotAStructure):
            fuse_with_terminals(TopStructure(set=Z(3), arity=2), [vn(2), vn(3)])
        wrong_arity = TopStructure(set=make_tuple([empty()] * 3), arity=2)
        with pytest.raises(NotAStructure):
            fuse_with_terminals(wrong_arity, [vn(2), vn(3)])
        with pytest.raises(NotAStructure):
            match_terminals(wrong_arity, make_set([branch(0, Z(2)), branch(1, Z(3))]))
        tv = top_structure(make_tuple([empty()] * 2))
        assert fuse_with_terminals(tv, [Z(2), vn(3)]) is make_set([Z(2), vn(3)])

    def test_matches_text_substitution_oracle(self):
        # Fusion must equal one simultaneous marker→branch text substitution,
        # even when branches themselves contain markers or diamonds.
        corpus = generate(11, 40, max_depth=4)
        pool = corpus + [position(0), position(2), D, Z(3), vn(3), empty()]
        pool += [position_path([1, 0])]
        pool += [compose(position(0), x) for x in corpus[:5]]
        pool += [compose(x, position(3)) for x in corpus[:5]]
        rng = random.Random(97)
        tops = [make_tuple([empty()] * k) for k in (1, 2, 3, 4)]
        tops += [kuratowski_top(), grouping_top()]
        for top in tops:
            arity = validate_top(top).arity
            for _ in range(12):
                terms = [rng.choice(pool) for _ in range(arity)]
                got = fuse_with_terminals(top, terms)
                table = {position(n).text: terms[n].text for n in range(arity)}
                assert got is parse(simultaneous_replace_by_text(top.text, table))

    def test_occupied_tuple_tops_match_oracle(self):
        corpus = generate(11, 40, max_depth=4)
        rng = random.Random(53)
        checked = 0
        while checked < 20:
            entries = [rng.choice(corpus) for _ in range(rng.randint(2, 3))]
            top = make_tuple(entries)
            tv = validate_top(top)
            if tv is None:
                continue
            terms = [rng.choice(corpus) for _ in range(tv.arity)]
            table = {position(n).text: terms[n].text for n in range(tv.arity)}
            assert fuse_with_terminals(top, terms) is parse(
                simultaneous_replace_by_text(top.text, table)
            )
            checked += 1


class TestMiddle:
    def test_notation(self):
        x, y, z = Z(1), Z(2), vn(2)
        expected = make_set(
            [
                compose_all([Z(n), D, e, D, Z(n)])
                for n, e in enumerate([x, y, z])
            ]
        )
        assert middle([x, y, z]).set is expected

    def test_needs_at_least_one_entry(self):
        with pytest.raises(ValueError):
            middle([])
        with pytest.raises(ValueError):
            middle_identity(0)

    def test_identity_definition(self):
        expected = make_set([compose_all([Z(n), D, D, Z(n)]) for n in range(3)])
        assert middle_identity(3).set is expected
        assert middle_identity(3).set is middle([empty()] * 3).set

    def test_identity_laws(self):
        rng = random.Random(19)
        corpus = generate(11, 40, max_depth=4)
        for arity in (2, 3):
            ident = middle_identity(arity)
            for _ in range(5):
                m = middle([rng.choice(corpus) for _ in range(arity)])
                assert fuse_middle(ident, m).set is m.set
                assert fuse_middle(m, ident).set is m.set

    def test_composition_lands_in_each_slot(self):
        x, y, z = Z(1), Z(2), vn(2)
        a, b, c = vn(3), Z(3), D
        m1, m2 = middle([x, y, z]), middle([a, b, c])
        assert fuse_middle(m1, m2).set is middle(
            [compose(x, a), compose(y, b), compose(z, c)]
        ).set
        assert fuse_middle(m2, m1).set is middle(
            [compose(a, x), compose(b, y), compose(c, z)]
        ).set

    def test_parallel_pairs(self):
        a, b, c, d = Z(2), vn(3), Z(1), vn(2)
        got = fuse_middle(middle([a, b]), middle([c, d]))
        assert got.set is middle([compose(a, c), compose(b, d)]).set

    def test_associativity(self):
        rng = random.Random(29)
        # double fusion multiplies branch sizes, so keep the entries small
        corpus = [h for h in generate(11, 40, max_depth=3) if len(h.text) <= 40]
        for arity in (2, 3):
            for _ in range(4):
                ms = [
                    middle([rng.choice(corpus) for _ in range(arity)])
                    for _ in range(3)
                ]
                left = fuse_middle(fuse_middle(ms[0], ms[1]), ms[2])
                right = fuse_middle(ms[0], fuse_middle(ms[1], ms[2]))
                assert left.set is right.set

    def test_arity_mismatch_raises(self):
        with pytest.raises(ArityMismatch):
            fuse_middle(middle([Z(1), Z(2)]), middle([Z(1), Z(2), Z(3)]))

    def test_entries_survive_even_when_equal(self):
        # The numbered pads keep equal entries on separate tracks.
        m = middle([Z(2), Z(2)])
        assert validate_middle(m.set) is not None
        assert fuse_middle(m, middle_identity(2)).set is m.set


class TestMiddlePermutation:
    def test_wiring_sets(self):
        p = middle_permutation([1, 2, 0])
        expected = make_set(
            [
                compose_all([Z(0), D, D, Z(1)]),
                compose_all([Z(1), D, D, Z(2)]),
                compose_all([Z(2), D, D, Z(0)]),
            ]
        )
        assert p.set is expected

    def test_left_action_rotates_entries(self):
        x, y, z = Z(1), Z(2), vn(2)
        p = middle_permutation([1, 2, 0])
        m1 = middle([x, y, z])

        def entry(n, e, k):
            return compose_all([Z(n), D, e, D, Z(k)])

        pm1 = fuse_middle(p, m1)
        assert pm1.set is make_set([entry(0, y, 1), entry(1, z, 2), entry(2, x, 0)])
        m1p = fuse_middle(m1, p)
        assert m1p.set is make_set([entry(1, y, 2), entry(2, z, 0), entry(0, x, 1)])
        pm1p = fuse_middle(pm1, p)
        assert pm1p.set is make_set([entry(0, y, 2), entry(1, z, 0), entry(2, x, 1)])
        # a fourth application straightens the wiring back into plain entries
        assert fuse_middle(pm1p, p).set is middle([y, z, x]).set

    def test_inverse(self):
        p = middle_permutation([1, 2, 0])
        p_inv = middle_permutation([2, 0, 1])
        assert fuse_middle(p, p_inv).set is middle_identity(3).set
        assert fuse_middle(p_inv, p).set is middle_identity(3).set

    def test_identity_permutation(self):
        assert middle_permutation([0, 1, 2]).set is middle_identity(3).set

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutation):
            middle_permutation([0, 0, 1])
        with pytest.raises(NotAPermutation):
            middle_permutation([1, 2])


class TestClose:
    def test_closing_releases_entries_as_elements(self):
        assert close(middle([Z(2), vn(2)])) is D
        assert close(middle([empty()])) is Z(1)
        assert close(middle([Z(0), Z(1)])) is vn(2)

    def test_close_of_middle_is_the_entry_set(self):
        corpus = generate(11, 60, max_depth=4)
        rng = random.Random(41)
        for _ in range(15):
            es = rng.sample(corpus, rng.randint(1, 3))
            assert close(middle(es)) is make_set(es)

    def test_close_after_parallel_fusion(self):
        corpus = generate(11, 80, max_depth=4)
        rng = random.Random(13)
        for _ in range(20):
            a, b, c, d = (rng.choice(corpus) for _ in range(4))
            got = close(fuse_middle(middle([a, b]), middle([c, d])))
            assert got is make_set([compose(a, c), compose(b, d)])

    def test_middle_with_an_offset_does_not_close(self):
        m = middle_structure(make_set([branch(1, position(1)), branch(2, position(2))]), 1)
        assert (m.arity, m.offset) == (2, 1)
        with pytest.raises(TerminalMismatch, match="^fusion requires marker indices starting at 0$"):
            close(m)

    def test_equal_entries_close_to_their_set(self):
        # equal or nested entries keep their markers: close reads the
        # branches off the middle, so the identity closes at every arity
        assert close(middle([Z(2), Z(2)])) is Z(3)
        for m in range(1, 7):
            assert close(middle_identity(m)) is Z(1)


class TestDecompositionQueries:
    def test_pair_has_pair_top(self):
        assert has_top_structure(kuratowski_top(), kuratowski_pair(Z(3), vn(3)))

    def test_numeral_has_no_pair_top(self):
        # {∅,...} reached by formula-only fusion is not enough: the branch
        # assignment must also wrap into a well-formed bottom.
        assert not has_top_structure(kuratowski_top(), Z(5))

    def test_double_singleton_has_no_pair_top(self):
        assert not has_top_structure(kuratowski_top(), make_set([make_set([vn(2)])]))

    def test_fused_set_has_its_top(self):
        b = sample_bottom(Z(1), Z(2), vn(2))
        assert has_top_structure(grouping_top(), fuse(grouping_top(), b))

    def test_fused_set_has_its_bottom(self):
        b = sample_bottom(Z(1), Z(2), vn(2))
        assert has_bottom_structure(fuse(grouping_top(), b), b)

    def test_unrelated_set_lacks_bottom(self):
        assert not has_bottom_structure(Z(5), sample_bottom(Z(1), Z(2), vn(2)))

    def test_seeded_round_trips(self):
        corpus = generate(11, 60, max_depth=4)
        rng = random.Random(73)
        checked = 0
        while checked < 6:
            x, y = rng.sample(corpus, 2)
            b = make_set([branch(0, x), branch(1, y)])
            if validate_bottom(b) is None or validate_bottom(b).arity != 2:
                continue
            fused = fuse(kuratowski_top(), b)
            assert has_top_structure(kuratowski_top(), fused)
            assert has_bottom_structure(fused, b)
            checked += 1

    def test_budget_exhaustion_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            has_top_structure(kuratowski_top(), kuratowski_pair(Z(3), vn(3)), budget=1)
        # the bottom query walks x once and never runs out of budget
        b = sample_bottom(Z(1), Z(2), vn(2))
        assert has_bottom_structure(fuse(grouping_top(), b), b, budget=1)

    def test_smallest_answering_budget(self):
        # One unit per top candidate, so the cheapest budget that answers is
        # the exact count the search spends; the bottom query spends none.
        pair = kuratowski_pair(Z(3), vn(3))
        assert has_top_structure(kuratowski_top(), pair, budget=2)
        with pytest.raises(SearchBudgetExceeded):
            has_top_structure(kuratowski_top(), pair, budget=1)
        b = sample_bottom(Z(1), Z(2), vn(2))
        x = fuse(grouping_top(), b)
        assert has_bottom_structure(x, b, budget=1)
        assert not has_bottom_structure(Z(5), b, budget=1)

    def test_numerals_three_apart_lack_a_pair_top(self):
        # the benchmark's has_top_budget probe: both slots of the pair top
        # sit two steps down, where x holds only Z39, Z59 and Z79
        x = make_set([Z(40), Z(60), Z(80)])
        assert not has_top_structure(kuratowski_top(), x, budget=4000)
        assert not has_top_structure(kuratowski_top(), x, budget=9)
        with pytest.raises(SearchBudgetExceeded):
            has_top_structure(kuratowski_top(), x, budget=8)

    @pytest.mark.parametrize(
        "top",
        [
            kuratowski_top(),
            grouping_top(),
            make_tuple([empty()] * 2),
            make_tuple([vn(2), empty()]),
            make_tuple([empty()] * 3),
            make_set([position(0), make_set([position(1)])]),
        ],
        ids=["pair", "grouping", "tuple2", "tuple2_deep", "tuple3", "merging"],
    )
    def test_top_search_matches_exhaustive_oracle(self, top):
        # the shape-narrowed search answers exactly as trying every
        # assignment of constituents, on fusions onto top (mostly True) and
        # on plain corpus sets (mostly False)
        corpus = [h for h in generate(5, 400, max_depth=3) if len(h.text) <= 16]
        rng = random.Random(61)
        arity = validate_top(top).arity
        answers = []
        for _ in range(20):
            fused = fuse_with_terminals(top, [rng.choice(corpus) for _ in range(arity)])
            for x in (fused, rng.choice(corpus)):
                expected = has_top_exhaustive(top, x)
                assert has_top_structure(top, x) is expected
                answers.append(expected)
        assert set(answers) == {False, True}

    def test_bottom_with_a_branch_built_from_another(self):
        # branch 0 = {{}} is {branch 1}, so the top's P(0) and {P(1)} both
        # fuse to {{}} and the two-element top yields a one-element set
        top = make_set([position(0), make_set([position(1)])])
        b = make_set([branch(0, Z(1)), branch(1, empty())])
        assert validate_top(top) is not None
        assert validate_bottom(b) is not None
        x = fuse(top, b)
        assert x is Z(2)
        assert has_top_structure(top, x)
        assert has_bottom_structure(x, b)

    def test_bottom_query_matches_exhaustive_oracle(self):
        # every x of at most 12 characters against every bottom of one or
        # two branches of at most 6 characters; the oracle tries every set
        # of preimages and gives up when a pool grows past 10
        small = sets_up_to(6)
        bottoms = [[t] for t in small] + [
            [t, u]
            for t, u in itertools.product(small, repeat=2)
            if validate_bottom(make_set([branch(0, t), branch(1, u)])) is not None
        ]
        answers = []
        for x in sets_up_to(12):
            for terms in bottoms:
                expected = has_bottom_exhaustive(x, terms)
                if expected is None:
                    continue
                b = make_set([branch(n, t) for n, t in enumerate(terms)])
                assert has_bottom_structure(x, b) is expected, (x, terms)
                answers.append(expected)
        assert len(answers) >= 50 and set(answers) == {False, True}

    def test_every_fusion_has_its_bottom(self):
        # nested slot groups onto small branches, so distinct parts of a
        # top often merge under fusion
        pool = [empty(), Z(1), Z(2), Z(3), vn(2), vn(3)] + generate(5, 10, max_depth=3)
        rng = random.Random(7)
        checked = 0
        while checked < 400:
            m = rng.randint(1, 3)
            top = random_top(rng, m)
            assert validate_top(top).arity == m
            b = make_set([branch(n, rng.choice(pool)) for n in range(m)])
            if validate_bottom(b) is None or validate_bottom(b).arity != m:
                continue
            assert has_bottom_structure(fuse(top, b), b), (top, b)
            checked += 1

    def test_bottom_query_needs_no_budget(self):
        # the product search spent its whole default budget on this one node
        b = make_set([branch(0, empty()), branch(1, Z(1))])
        assert has_bottom_structure(vn(5), b, budget=1)

    def test_nonzero_offset_rejected(self):
        tv = top_structure(make_set([position(1), position(2)]), offset=1)
        with pytest.raises(NotAStructure):
            has_top_structure(tv, Z(5))
        bv = bottom_structure(make_set([branch(1, Z(2)), branch(2, vn(3))]), offset=1)
        with pytest.raises(NotAStructure):
            has_bottom_structure(Z(5), bv)
