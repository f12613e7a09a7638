"""Padded positional tuples and the plain nested pair's failure modes."""
from __future__ import annotations

import random
import sys
import threading

import pytest

import conset.algebra
import conset.kernel
import conset.tuples
from conset import (
    NoneFound,
    NoSuchPosition,
    NotABottom,
    compose,
    compose_all,
    constituents,
    is_constituent,
    make_set,
    empty,
    has_bottom,
    max_with_bottom,
    max_with_bottom_unique,
    parse,
    remove_bottom,
    replace,
)
from conset.numerals import vn, zermelo
from conset.tuples import (
    PairDiagnosis,
    _branch,
    _parse_marker,
    _positions,
    _slot,
    _unpad,
    constituent_at,
    contains_position,
    decode_kuratowski,
    diamond,
    get_at,
    kuratowski_pair,
    kuratowski_top,
    make_tuple,
    position,
    position_path,
)
from conset.corpus import generate
from _oracles import oracle
from conset.fusion import validate_top


class TestPositions:
    def test_position_zero_is_the_marker(self):
        assert position(0) is diamond()

    def test_marker_text(self):
        assert diamond().text == "{{{{}}},{{},{{}}}}"

    def test_position_composes_marker_over_numeral(self):
        for n in range(5):
            assert position(n) is compose(diamond(), zermelo(n))

    def test_unpad_inverts_the_diamond(self, corpus200):
        for c in corpus200 + [empty(), diamond(), position(3)]:
            assert _unpad(compose(diamond(), c)) is c

    def test_unpad_rejects_other_shapes(self, corpus200):
        # no corpus set is a diamond over anything; the pairs {{{x}},{y,{x}}}
        # with y != x and {{a},{a,b}} with a no singleton are near misses
        near = [kuratowski_pair(zermelo(2), zermelo(0)), kuratowski_pair(zermelo(2), vn(2))]
        near += [kuratowski_pair(vn(2), zermelo(2)), empty(), zermelo(3), vn(3)]
        for h in corpus200 + near:
            assert _unpad(h) is None

    def test_markers_never_contain_each_other(self):
        for j in range(7):
            for k in range(7):
                if j != k:
                    assert not is_constituent(position(j), position(k))

    def test_positions_walk_the_markers_in_slot_order(self):
        assert list(_positions(0)) == []
        assert list(_positions(40)) == [position(n) for n in range(40)]

    def test_path_of_single_coordinate(self):
        for p in range(4):
            assert position_path([p]) is position(p)

    def test_empty_path_raises(self):
        with pytest.raises(ValueError, match="^a position path needs at least one coordinate$"):
            position_path([])

    def test_path_fixed_example(self):
        assert position_path([1, 2]) is compose_all(
            [diamond(), zermelo(1), diamond(), zermelo(2)]
        )

    def test_path_concatenation_is_composition(self):
        rng = random.Random(17)
        for _ in range(30):
            p = [rng.randrange(4) for _ in range(rng.randint(1, 3))]
            q = [rng.randrange(4) for _ in range(rng.randint(1, 3))]
            assert position_path(p + q) is compose(
                position_path(p), position_path(q)
            )


class TestMarkerTable:
    # markers checked against position_path, which builds them afresh
    @pytest.fixture
    def empty_table(self, monkeypatch):
        monkeypatch.setattr(conset.tuples, "_POSITIONS", [])

    def test_table_grown_in_mixed_order(self, empty_table):
        for m in (3, 40, 2):
            got = _positions(m)
            assert got == [position(i) for i in range(m)]
            assert all(p is position_path([i]) for i, p in enumerate(got))
        assert len(conset.tuples._POSITIONS) == 40

    def test_position_does_not_grow_the_table(self, empty_table):
        _positions(5)
        for n in (4, 5, 10**5):
            assert position(n) is position_path([n])
        assert len(conset.tuples._POSITIONS) == 5

    def test_a_slice_leaves_the_table_as_it_was(self, empty_table):
        _positions(3).append(empty())
        assert _positions(4)[3] is position_path([3])

    def test_racing_growths_leave_every_marker_in_its_slot(self):
        # eight threads on two cores, switching often; in each round the
        # table starts empty and every thread grows it to its own length
        sizes = [7, 30, 12, 45, 3, 21, 38, 16]
        want = [position_path([i]) for i in range(max(sizes))]
        rounds, wrong = 100, []
        start = threading.Barrier(len(sizes) + 1, timeout=60)
        done = threading.Barrier(len(sizes) + 1, timeout=60)

        def grow(m):
            for _ in range(rounds):
                start.wait()
                got = _positions(m)
                if not all(p is q for p, q in zip(got, want[:m], strict=True)):
                    wrong.append(m)
                done.wait()

        threads = [threading.Thread(target=grow, args=(m,)) for m in sizes]
        saved, interval = conset.tuples._POSITIONS, sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for _ in range(rounds):
                conset.tuples._POSITIONS = []
                start.wait()
                done.wait()
                table = conset.tuples._POSITIONS
                if not all(p is q for p, q in zip(table, want)):
                    wrong.append(len(table))
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            conset.tuples._POSITIONS = saved
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_wide_tuple_round_trips(self):
        # entry i is the numeral i mod 10, so a slot read one off reads wrong
        entries = [zermelo(i % 10) for i in range(10**4)]
        t = make_tuple(entries)
        assert len(t.children) == 10**4
        for i in (0, 1, 2, 4999, 9998, 9999):
            assert get_at(t, [i]) is entries[i]


class TestMarkerCodec:
    """The markers built by shape agree with the composed reference forms."""

    def test_branch_is_numeral_over_diamond_over_x(self, corpus200):
        for x in corpus200 + [empty(), diamond(), position(2)]:
            for n in range(5):
                assert _branch(n, x) is compose(zermelo(n), compose(diamond(), x))

    def test_parse_marker_inverts_branch(self, corpus200):
        for x in corpus200 + [empty(), diamond(), position(2)]:
            for n in range(5):
                assert _parse_marker(_branch(n, x)) == (n, x)

    def test_slot_reads_position(self):
        for n in range(5):
            assert _slot(position(n)) == n

    def test_slot_rejects_other_shapes(self, corpus200):
        for h in corpus200 + [empty(), _branch(1, zermelo(0)), position_path([1, 0])]:
            assert _slot(h) is None

    def test_unnumbered_branch_over_numeral_is_a_position(self):
        # why middle_structure rejects bare position markers as branches
        for k in range(5):
            assert _branch(0, zermelo(k)) is position(k)

    def test_markers_build_without_folding(self, monkeypatch):
        d = kuratowski_pair(zermelo(1), zermelo(0))
        expected = [
            d,
            compose(d, zermelo(3)),
            compose_all([d, zermelo(2), d, zermelo(0), d, zermelo(1)]),
            compose(zermelo(2), compose(d, vn(2))),
        ]

        def no_fold(*args):
            raise AssertionError("a marker was built by a fold")

        monkeypatch.setattr(conset.algebra, "fold", no_fold)
        got = [diamond(), position(3), position_path([2, 0, 1]), _branch(2, vn(2))]
        assert all(g is e for g, e in zip(got, expected, strict=True))

    def test_negative_coordinates_raise(self):
        t = make_tuple([empty(), vn(2)])
        calls = [
            lambda: position(-1),
            lambda: position_path([-1]),
            lambda: position_path([0, -1]),
            lambda: get_at(t, [-1]),
            lambda: contains_position(empty(), [-2]),
            lambda: constituent_at(t, [0, -1], empty()),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="numerals are non-negative"):
                call()


class TestMakeTuple:
    def test_entries_get_padded(self, corpus200):
        for i, a in enumerate(corpus200[:20]):
            b = corpus200[-1 - i]
            assert make_tuple([a, b]) is make_set(
                [compose(a, position(0)), compose(b, position(1))]
            )

    def test_empty_entries_leave_bare_markers(self):
        assert make_tuple([empty(), empty()]) is make_set(
            [position(0), position(1)]
        )

    def test_single_entry_permitted(self):
        s = vn(2)
        assert make_tuple([s]) is make_set([compose(s, position(0))])

    def test_rejects_empty_list(self):
        with pytest.raises(Exception):
            make_tuple([])

    def test_make_set_calls_grow_with_the_entries(self, monkeypatch):
        """The markers share one numeral chain, so a doubling of the entries
        about doubles the work (rebuilding zermelo(n) per slot made it ×3.9)."""
        real = conset.kernel.make_set
        calls = []

        def counting(elems):
            calls.append(None)
            return real(elems)

        for name, module in list(sys.modules.items()):
            if name.startswith("conset") and getattr(module, "make_set", None) is real:
                monkeypatch.setattr(module, "make_set", counting)
        entries = generate(7, 1000, max_depth=5)
        counts = []
        for m in (250, 500, 1000):
            del calls[:]
            make_tuple(entries[:m])
            counts.append(len(calls))
        assert all(b <= 2.2 * a for a, b in zip(counts, counts[1:])), counts


class TestContainsPosition:
    def test_occupied(self, corpus200):
        t = make_tuple([corpus200[3], corpus200[4]])
        assert contains_position(t, [0])
        assert contains_position(t, [1])

    def test_absent(self, corpus200):
        t = make_tuple([corpus200[3], corpus200[4]])
        assert not contains_position(t, [2])

    def test_nested(self):
        inner = make_tuple([zermelo(3), vn(3)])
        outer = make_tuple([vn(2), inner])
        assert contains_position(outer, [0, 1])
        assert contains_position(outer, [1, 1])
        assert not contains_position(outer, [2, 1])
        assert not contains_position(outer, [0, 2])


class TestConstituentAt:
    def test_occupant_is_at_its_position(self, corpus200):
        for i, a in enumerate(corpus200[:15]):
            b = corpus200[-1 - i]
            t = make_tuple([a, b])
            assert constituent_at(t, [1], b)

    def test_every_part_of_the_occupant_qualifies(self):
        b = make_set([zermelo(2), vn(2)])
        t = make_tuple([vn(3), b])
        for c in constituents(b):
            assert constituent_at(t, [1], c)

    def test_positional_separation(self):
        a, b = zermelo(3), vn(3)
        t = make_tuple([a, b])
        assert not is_constituent(b, a)
        assert not constituent_at(t, [0], b)


class TestGetAt:
    def test_plain_round_trip(self, corpus200):
        for i, a in enumerate(corpus200[:25]):
            b = corpus200[-1 - i]
            t = make_tuple([a, b])
            assert get_at(t, [0]) is a
            assert get_at(t, [1]) is b

    def test_second_entry_inside_first(self):
        # the nested-pair encoding loses this case; positions keep it
        a, b = vn(2), zermelo(1)
        assert is_constituent(b, a)
        t = make_tuple([a, b])
        assert get_at(t, [0]) is a
        assert get_at(t, [1]) is b

    def test_singleton_of_first_inside_second(self):
        a = zermelo(1)
        b = make_set([zermelo(2), vn(2)])
        assert is_constituent(make_set([a]), b)
        t = make_tuple([a, b])
        assert get_at(t, [0]) is a
        assert get_at(t, [1]) is b

    def test_equal_entries(self, corpus200):
        for a in corpus200[:15]:
            t = make_tuple([a, a])
            assert get_at(t, [0]) is a
            assert get_at(t, [1]) is a

    def test_marker_shaped_entries(self):
        t = make_tuple([position(3), diamond()])
        assert get_at(t, [0]) is position(3)
        assert get_at(t, [1]) is diamond()

    def test_empty_occupant(self, corpus200):
        t = make_tuple([empty(), corpus200[7]])
        assert get_at(t, [0]) is empty()

    def test_adversarial_lists_round_trip(self, corpus200):
        rng = random.Random(23)
        pool = corpus200[:40] + [
            empty(),
            diamond(),
            zermelo(4),
            vn(3),
            position(2),
            kuratowski_pair(zermelo(1), zermelo(0)),
        ]
        for _ in range(40):
            k = rng.randint(2, 4)
            entries = [rng.choice(pool) for _ in range(k)]
            if rng.random() < 0.4:
                # plant one entry inside another
                entries[-1] = rng.choice(constituents(entries[0]))
            t = make_tuple(entries)
            for i, e in enumerate(entries):
                assert get_at(t, [i]) is e

    def test_single_entry_extraction_wraps(self, corpus200):
        # A 1-tuple {x(marker)} equals {x} composed on the marker, so the
        # whole tuple is the maximal constituent with the marker at its
        # bottom and stripping returns the occupant inside one extra
        # brace.  With a second entry present, its padding denies the
        # whole tuple a pure marker bottom and the round trip is exact.
        for x in corpus200[:10] + [diamond(), position(0), empty()]:
            assert get_at(make_tuple([x]), [0]) is make_set([x])

    def test_nested_depth_three(self):
        a, b, c, d = vn(2), zermelo(3), diamond(), make_set([vn(2)])
        innermost = make_tuple([c, d])
        mid = make_tuple([b, innermost])
        outer = make_tuple([a, mid])
        assert get_at(outer, [1]) is mid
        assert get_at(outer, [1, 1]) is innermost
        assert get_at(outer, [0, 1, 1]) is c
        assert get_at(outer, [1, 1, 1]) is d
        assert get_at(outer, [0, 1]) is b
        assert get_at(outer, [0]) is a

    def test_nested_example(self):
        s0, s1 = zermelo(2), vn(2)
        u = zermelo(4)
        t = make_tuple([u, make_tuple([s0, s1])])
        assert get_at(t, [0, 1]) is s0
        assert get_at(t, [1, 1]) is s1

    def test_missing_position_raises(self, corpus200):
        t = make_tuple([corpus200[2], corpus200[5]])
        with pytest.raises(NoSuchPosition):
            get_at(t, [2])
        with pytest.raises(NoSuchPosition):
            get_at(t, [0, 1])


def _nested(rng, pool, depth):
    """A tuple nested depth deep, the path to one entry of its innermost
    tuple, and that entry.  Every level has siblings of rank 0 and 1, which
    sit no higher than the marker sought, and of rank 9 and 10, which sit
    above it."""
    low, high = [empty(), zermelo(1)], [zermelo(9), vn(4), make_set([zermelo(9)])]
    entries = [rng.choice(pool), rng.choice(low), rng.choice(high)]
    rng.shuffle(entries)
    i = rng.randrange(3)
    path, target, t = [i], entries[i], make_tuple(entries)
    for _ in range(depth - 1):
        outer = [rng.choice(low), rng.choice(high)]
        j = rng.randrange(3)
        outer.insert(j, t)
        path.append(j)
        t = make_tuple(outer)
    return t, path, target


class TestExtractionAboveTheMarker:
    """get_at, and the bottom queries it is built on, against the text
    oracle on nested tuples whose other entries rank above and below the
    marker sought, and on markers that are not there."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_nested_tuples(self, corpus200, depth):
        rng = random.Random(depth)
        pool = [h for h in corpus200 if len(h.text) <= 24]
        for _ in range(6):
            t, path, e = _nested(rng, pool, depth)
            marker = position_path(path)
            cons = oracle.constituents(t.text)
            held = [c for c in cons if oracle.has_bottom(c, marker.text)]
            (top,) = oracle.maximal(held)
            assert top == compose(e, marker).text
            assert max_with_bottom(t, marker) is make_set([parse(top)])
            assert max_with_bottom_unique(t, marker) is parse(top)
            occupant = oracle.replace(top, marker.text, oracle.EMPTY)
            assert remove_bottom(parse(top), marker) is parse(occupant)
            assert get_at(t, path) is parse(occupant) is e
            assert has_bottom(t, marker) is oracle.has_bottom(t.text, marker.text)
            for y in (marker, zermelo(1), zermelo(9)):
                want = oracle.replace(t.text, y.text, vn(2).text)
                assert replace(t, y, vn(2)) is parse(want)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_markers_that_are_not_there(self, corpus200, depth):
        rng = random.Random(10 + depth)
        pool = [h for h in corpus200 if len(h.text) <= 24]
        t, path, _ = _nested(rng, pool, depth)
        for absent in ([5] * depth, [0] * (depth + 1)):
            a = position_path(absent)
            assert not oracle.is_constituent(a.text, t.text)
            with pytest.raises(NoSuchPosition):
                get_at(t, absent)
        # and a set ranked above the whole tuple
        for a in (position_path([5] * depth), make_set([t]), zermelo(t.rank + 3)):
            assert has_bottom(t, a) is oracle.has_bottom(t.text, a.text) is False
            assert max_with_bottom(t, a) is empty()
            with pytest.raises(NoneFound):
                max_with_bottom_unique(t, a)
            with pytest.raises(NotABottom):
                remove_bottom(t, a)
            assert replace(t, a, vn(2)) is t

    def test_the_bottom_walk_computes_only_above_the_marker(self, monkeypatch):
        # {} at slot 0 and {{}} at slot 0 of the inner tuple rank no higher
        # than the marker sought once placed, so the walk leaves them alone,
        # with every marker; the two copies of zermelo(9) rank above it
        t = make_tuple([empty(), make_tuple([zermelo(1), vn(3), zermelo(9)]), zermelo(9)])
        marker = position_path([1, 1])
        computed = []
        held = conset.algebra._held
        monkeypatch.setattr(
            conset.algebra, "_held", lambda w, kids: computed.append(w) or held(w, kids)
        )
        assert get_at(t, [1, 1]) is vn(3)
        above = [c for c in constituents(t) if c.rank > marker.rank]
        assert sorted(computed, key=lambda c: c.uid) == sorted(above, key=lambda c: c.uid)
        assert len(computed) == 21
        assert len(constituents(t)) == 45


    def test_simplest_pair_is_the_marker(self):
        assert kuratowski_pair(zermelo(1), zermelo(0)) is diamond()

    def test_equal_entries_collapse(self, corpus200):
        for a in corpus200[:15]:
            assert kuratowski_pair(a, a) is make_set([make_set([a])])

    def test_shape(self):
        a, b = zermelo(3), vn(3)
        assert kuratowski_pair(a, b) is make_set(
            [make_set([a]), make_set([a, b])]
        )

    def test_top_has_two_terminals(self):
        k = kuratowski_top()
        assert k is kuratowski_pair(position(0), position(1))
        view = validate_top(k)
        assert view is not None and view.arity == 2


class TestDecodeKuratowski:
    def test_clean_pair(self):
        out = decode_kuratowski(kuratowski_pair(zermelo(3), vn(3)))
        assert out.first is zermelo(3)
        assert out.second is vn(3)
        assert out.diagnosis is PairDiagnosis.OK
        assert out.cardinality_used is False

    def test_degenerate_unique(self):
        out = decode_kuratowski(diamond())
        assert out.first is zermelo(1)
        assert out.second is zermelo(0)
        assert out.diagnosis is PairDiagnosis.OK_UNIQUE_DEGENERATE
        assert out.cardinality_used is False

    def test_second_inside_first_is_ambiguous(self):
        # any proper part of the first entry fits the same diagram
        out = decode_kuratowski(kuratowski_pair(vn(2), zermelo(1)))
        assert out.first is vn(2)
        assert out.second is None
        assert out.diagnosis is PairDiagnosis.AMBIGUOUS_SECOND
        assert out.cardinality_used is False

    def test_collapsed_pair_needs_cardinality(self):
        out = decode_kuratowski(kuratowski_pair(vn(2), vn(2)))
        assert out.first is vn(2)
        assert out.second is None
        assert out.diagnosis is PairDiagnosis.AMBIGUOUS_SECOND
        assert out.cardinality_used is True

    @pytest.mark.parametrize(
        "build",
        [
            lambda: empty(),
            lambda: zermelo(1),
            lambda: vn(3),
            lambda: make_set([zermelo(1), vn(3)]),
            lambda: make_set([make_set([zermelo(1)]), vn(3)]),
        ],
    )
    def test_non_pair_shapes(self, build):
        out = decode_kuratowski(build())
        assert out.diagnosis is PairDiagnosis.NOT_A_PAIR_SHAPE
        assert out.first is None and out.second is None

    def test_round_trip_when_incomparable(self, corpus200):
        for i, a in enumerate(corpus200[:30]):
            b = corpus200[-1 - i]
            if a is b or is_constituent(a, b) or is_constituent(b, a):
                continue
            out = decode_kuratowski(kuratowski_pair(a, b))
            assert out.diagnosis is PairDiagnosis.OK
            assert out.first is a and out.second is b


class TestSeparationProperty:
    def test_padded_occupants_incomparable(self, corpus200):
        rng = random.Random(31)
        pool = corpus200[:30] + [diamond(), position(1), zermelo(5)]
        for _ in range(25):
            entries = [rng.choice(pool) for _ in range(rng.randint(2, 4))]
            padded = [
                compose(e, position(i)) for i, e in enumerate(entries)
            ]
            for i, pi in enumerate(padded):
                for j, pj in enumerate(padded):
                    if i != j:
                        assert not is_constituent(pi, pj)
