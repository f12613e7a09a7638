"""The public contract at the boundary.

Hand-built diagrams and fusion records are validated where they enter, so a
malformed one raises a CalculusError (MalformedGraph, NotAStructure), never a
bare IndexError, KeyError, AttributeError or AssertionError from deeper
down; a budget below 1 is a bad argument value (ValueError), and an argument
of the wrong Python type a TypeError naming its type.  A set is read once; a
record is compared with the reading of its own set, which fusion takes from
its memo of the 16 middle readings used last when the set is among them.
"""

import sys
import threading
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conset import fusion
from conset.algebra import (
    compose,
    compose_all,
    has_bottom,
    is_top,
    lcc,
    lcc_set,
    map_union,
    max_with_bottom,
    max_with_bottom_unique,
    maximal_constituents,
    maximal_elements,
    remove_bottom,
    remove_top,
    replace,
    unique_maximum,
    with_top,
    with_top_unique,
)
from conset.cli import main
from conset.corpus import generate
from conset.errors import CalculusError, MalformedGraph, NotAPermutation, NotAStructure
from conset.expr import evaluate
from conset.fusion import (
    BottomStructure,
    MiddleStructure,
    TopStructure,
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
from conset.kernel import (
    EMPTY,
    cardinality,
    constituent_set,
    constituents,
    elements,
    instance_count,
    is_constituent,
    make_set,
    parse,
    to_text,
    union,
)
from conset.numerals import (
    add_vn,
    add_zermelo,
    as_vn,
    as_zermelo,
    is_vn,
    is_zermelo,
    mul_structural,
    vn,
    zermelo,
)
from conset.structure import (
    POINT,
    StructureGraph,
    canonical_cert,
    chain_graph,
    check_graph,
    graph_from_json,
    graph_product,
    graph_sum,
    isomorphic,
    simplest_set,
    structure_of,
    to_dot,
    to_json,
)
from conset.tuples import (
    _branch,
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

from _oracles import branch

pytestmark = pytest.mark.usefixtures("default_recursion_limit")

Z = zermelo
FUZZ = settings(derandomize=True, max_examples=200, deadline=None)


TOP = make_set([position(0)])
BOTTOM = make_tuple([EMPTY])
# (op, args): every kernel reader, every algebra entry point, every fusion
# entry point that takes a set or a structure record, every structure entry
# point that takes a diagram, and structure_of, each given an int where one
# of those belongs; then parse, to_text and the numerals, each given a value
# of another type
WRONG_TYPES = [
    # without the check, both of these answer True
    (is_constituent, (5, 5)),
    (is_constituent, (EMPTY, 5)),
    (is_constituent, (5, EMPTY)),
    (elements, (5,)),
    (cardinality, (5,)),
    (union, (EMPTY, 5)),
    (union, (5, EMPTY)),
    (constituent_set, (5,)),
    (constituents, (5,)),
    (instance_count, (5,)),
    (compose_all, ([5],)),
    # without the check, has_bottom(5, 5) answers True
    (has_bottom, (5, 5)),
    (has_bottom, (EMPTY, 5)),
    (is_top, (5, 5)),
    (remove_bottom, (5, 5)),
    (remove_top, (5, 5)),
    (maximal_elements, ([EMPTY, 5],)),
    (maximal_constituents, (5,)),
    (unique_maximum, (5,)),
    (lcc_set, (5, 5)),
    (lcc, (EMPTY, 5)),
    (max_with_bottom, (5, EMPTY)),
    # and max_with_bottom_unique(5, 5) returns 5
    (max_with_bottom_unique, (5, 5)),
    (with_top, (5, EMPTY)),
    (with_top_unique, (EMPTY, 5)),
    (map_union, (5, 5)),
    (top_structure, (5,)),
    (bottom_structure, (5,)),
    (middle_structure, (5,)),
    (validate_top, (5,)),
    (validate_bottom, (5,)),
    (validate_middle, (5,)),
    (bottom_terminal, (5, 0)),
    (match_terminals, (5, BOTTOM)),
    (match_terminals, (TOP, 5)),
    (fuse, (5, 5)),
    (fuse, (TopStructure(5, 1), BOTTOM)),
    (fuse_with_terminals, (5, [EMPTY])),
    (fuse_with_terminals, (TOP, [5])),
    (middle, ([5],)),
    (fuse_middle, (5, middle([EMPTY]))),
    (fuse_middle, (middle([EMPTY]), 5)),
    (close, (5,)),
    (has_top_structure, (5, EMPTY)),
    (has_top_structure, (TOP, 5)),
    (has_bottom_structure, (EMPTY, 5)),
    (has_bottom_structure, (5, BOTTOM)),
    (structure_of, (5,)),
    (contains_position, (5, [0])),
    (constituent_at, (5, [0], EMPTY)),
    (get_at, (5, [0])),
    (decode_kuratowski, (5,)),
    (check_graph, (5,)),
    (canonical_cert, (5,)),
    (isomorphic, (5, POINT)),
    (isomorphic, (POINT, 5)),
    (simplest_set, (5,)),
    (graph_sum, (5, POINT)),
    (graph_product, (POINT, 5)),
    (to_dot, (5,)),
    (to_json, (5,)),
    # no intern entry is found by an int, so make_set checks these on its miss path
    (make_set, ([5],)),
    (make_set, ([EMPTY, 5],)),
    (parse, (5,)),
    (parse, (b"{}",)),
    (to_text, (5,)),
    (zermelo, ("3",)),
    (vn, ("a",)),
    (vn, (2.0,)),
    (as_zermelo, (5,)),
    (as_vn, (5,)),
    (is_zermelo, (5,)),
    (is_vn, (5,)),
    (add_zermelo, (5, EMPTY)),
    (add_vn, (EMPTY, 5)),
    (mul_structural, (5, EMPTY)),
]
# (op, args, message): an int argument given a value of another type, for
# every function that takes a slot number, a path, a marker number, an arity
# or an offset; the message names the argument and the type
WRONG_INTS = [
    (position, ("3",), "a slot number must be an int, got str"),
    (position_path, (["a"],), "a path coordinate must be an int, got str"),
    (position_path, ([0, 1.0],), "a path coordinate must be an int, got float"),
    (contains_position, (BOTTOM, ["0"]), "a path coordinate must be an int, got str"),
    (constituent_at, (BOTTOM, [0.0], EMPTY), "a path coordinate must be an int, got float"),
    (get_at, (BOTTOM, ["0"]), "a path coordinate must be an int, got str"),
    (bottom_terminal, (BOTTOM, "x"), "a marker number must be an int, got str"),
    (middle_identity, (2.0,), "an arity must be an int, got float"),
    (top_structure, (TOP, "1"), "offset must be an int, got str"),
    (bottom_structure, (BOTTOM, 0.0), "offset must be an int, got float"),
    (middle_structure, (EMPTY, "0"), "offset must be an int, got str"),
    (validate_top, (TOP, 0.0), "offset must be an int, got float"),
    (validate_bottom, (BOTTOM, "0"), "offset must be an int, got str"),
    (validate_middle, (EMPTY, 0.0), "offset must be an int, got float"),
    # a record's offset is checked before its set is read
    (fuse, (TopStructure(TOP, 1, 0.0), BOTTOM), "offset must be an int, got float"),
    (close, (MiddleStructure(EMPTY, 1, "0"),), "offset must be an int, got str"),
]


class TestBoundaryCases:
    def test_malformed_graph_is_a_domain_error_and_a_value_error(self):
        assert issubclass(MalformedGraph, CalculusError)
        assert issubclass(MalformedGraph, ValueError)

    def test_out_of_range_edge(self):
        g = StructureGraph(tags=(None, None), edges=((0, 5),), top=1, bottom=0)
        with pytest.raises(MalformedGraph, match=r"bad edge \(0, 5\)"):
            canonical_cert(g)
        for first, second in ((g, g), (g, POINT), (POINT, g)):
            with pytest.raises(MalformedGraph):
                isomorphic(first, second)

    def test_one_vertex_graph_has_top_and_bottom_zero(self):
        g = StructureGraph(tags=(None,), edges=(), top=5, bottom=0)
        for op in (check_graph, canonical_cert, simplest_set, to_dot):
            with pytest.raises(MalformedGraph):
                op(g)

    @pytest.mark.parametrize(
        "text",
        [
            "[",  # not JSON at all
            "",
            '{"vertices": 3}',
            "[]",
            '{"vertices": [{"id": 0}], "edges": [], "top": 0}',
            '{"vertices": [{"id": 1}], "edges": [], "top": 0, "bottom": 0}',
            '{"vertices": [{"id": 0}, {"id": 0}], "edges": [], "top": 0, "bottom": 0}',
            '{"vertices": [{}], "edges": [], "top": 0, "bottom": 0}',
            '{"vertices": [{"id": 0, "set": 5}], "edges": [], "top": 0, "bottom": 0}',
            '{"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1, 1]], "top": 1, "bottom": 0}',
            '{"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, "1"]], "top": 1, "bottom": 0}',
            '{"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1]], "top": 1.0, "bottom": 0}',
            '{"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 5]], "top": 1, "bottom": 0}',
            pytest.param("[" * 10**5 + "]" * 10**5, id="nested-past-the-recursion-limit"),
            pytest.param(
                '{"vertices": [], "edges": [], "top": 1%s, "bottom": 0}'
                % ("0" * sys.get_int_max_str_digits()),
                id="an-int-past-the-digit-limit",
            ),
        ],
    )
    def test_malformed_json(self, text):
        with pytest.raises(MalformedGraph):
            graph_from_json(text)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_is_rejected_before_any_work(self, budget):
        # Z(3) is no top or bottom: the budget is checked first
        with pytest.raises(ValueError, match="budget must be at least 1"):
            has_top_structure(Z(3), Z(3), budget=budget)
        with pytest.raises(ValueError, match="budget must be at least 1"):
            has_bottom_structure(Z(3), Z(3), budget=budget)

    @pytest.mark.parametrize("budget", ["0", "-1", "many"])
    def test_cli_budget_below_one_is_a_usage_error(self, capsys, budget):
        argv = ["fuse", "{P(0)}", "{1}", "--check-top", "--budget", budget]
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "argument --budget: must be an integer of at least 1" in capsys.readouterr().err

    def test_replace_and_compose_take_only_sets(self):
        y = vn(2)
        # y is y would otherwise return the first argument untouched
        for call in (
            lambda: compose(5, EMPTY),
            lambda: replace(5, y, y),
            lambda: replace(y, 5, 5),
            lambda: compose(EMPTY, 5),
        ):
            with pytest.raises(TypeError, match="replace takes sets"):
                call()

    @pytest.mark.parametrize("src", ["x", "{x}"])
    def test_evaluate_takes_only_sets_in_its_env(self, src):
        # "x" would return the 5 itself, "{x}" fail inside make_set
        with pytest.raises(TypeError, match=r"^env\['x'\] is int, not a set$"):
            evaluate(src, {"x": 5})

    @pytest.mark.parametrize("op, args", WRONG_TYPES, ids=[op.__name__ for op, _ in WRONG_TYPES])
    def test_wrong_python_type_is_a_type_error(self, op, args):
        # each of these raised AttributeError from deep inside before, or a
        # TypeError that did not say which argument was wrong
        wrong = next((a for a in args if isinstance(a, (bytes, float, str))), 5)
        with pytest.raises(TypeError, match=rf"\bgot\b.*\b{type(wrong).__name__}\b"):
            op(*args)

    @pytest.mark.parametrize("op, args, message", WRONG_INTS, ids=[op.__name__ for op, *_ in WRONG_INTS])
    def test_wrong_python_type_of_a_number_is_a_type_error(self, op, args, message):
        # each raised a TypeError from an operator or from range, or none
        with pytest.raises(TypeError, match=rf"^{message}$"):
            op(*args)

    def test_negative_coordinate_is_named(self):
        with pytest.raises(ValueError, match=r"^path coordinate 1 is -1: numerals are non-negative$"):
            get_at(BOTTOM, [0, -1])
        with pytest.raises(ValueError, match=r"^slot -2 is negative: numerals are non-negative$"):
            position(-2)

    def test_bottom_record_with_too_few_markers(self):
        lying = BottomStructure(set=make_tuple([Z(0), Z(1)]), arity=2, markers=())
        with pytest.raises(NotAStructure):
            bottom_terminal(lying, 0)
        with pytest.raises(NotAStructure):
            has_bottom_structure(Z(2), lying)

    def test_record_of_another_kind_is_checked_as_this_kind(self):
        m = middle([Z(2), vn(2)])
        with pytest.raises(NotAStructure):
            bottom_terminal(TopStructure(*m), 0)
        # a middle is a top and a bottom, so its record reads as either
        assert fuse(TopStructure(*m), m.set) is fuse(m.set, m.set)


def _scans(monkeypatch, op, *args, reader="_read"):
    """The number of calls op(*args) makes to reader: fusion's one walk of a
    set, which every top and middle check reads, the walk's callback, or its
    marker parse."""
    seen = []
    real = getattr(fusion, reader)
    monkeypatch.setattr(fusion, reader, lambda *a: seen.append(a) or real(*a))
    op(*args)
    monkeypatch.undo()
    return len(seen)


def _clear():
    fusion._read_middle.cache_clear()


class TestValidatedOnce:
    # a set is read once; its middle reading then comes from the memo, for
    # the set and for every record of it
    def test_close_scans_its_argument_once(self, monkeypatch):
        m = middle([Z(2), vn(2)])
        _clear()
        assert _scans(monkeypatch, close, m.set) == 1
        assert _scans(monkeypatch, close, m.set) == 0
        assert _scans(monkeypatch, close, m) == 0
        assert close(m) is close(m.set)

    def test_fuse_middle_scans_each_side_and_the_result(self, monkeypatch):
        a, b = middle_permutation([1, 0]), middle([Z(1), vn(2)])
        _clear()
        assert _scans(monkeypatch, fuse_middle, a.set, b.set) == 3
        # the result was read by the call before, so nothing is read
        assert _scans(monkeypatch, fuse_middle, a, b) == 0
        assert fuse_middle(a, b) == fuse_middle(a.set, b.set)

    def test_close_parses_its_markers_once(self, monkeypatch):
        m = middle([Z(2), vn(2), EMPTY])
        _clear()
        assert _scans(monkeypatch, close, m.set, reader="_bottom") == 1
        assert _scans(monkeypatch, close, m, reader="_bottom") == 0

    def test_fuse_middle_parses_markers_of_each_side_and_the_result_once(self, monkeypatch):
        a, b = middle_permutation([1, 0]), middle([Z(1), vn(2)])
        _clear()
        assert _scans(monkeypatch, fuse_middle, a.set, b.set, reader="_bottom") == 3
        assert _scans(monkeypatch, fuse_middle, a, b, reader="_bottom") == 0

    @pytest.mark.parametrize("reader", ["_read", "_bottom", "_parse_marker"])
    def test_a_closed_fused_pair_and_a_wiring_read_nothing(self, monkeypatch, reader):
        # each builds two middles and fuses them: the built middles and
        # their fusion are read from their construction, and fuse_middle and
        # close find all three in the memo, branches and all
        def quad():
            return close(fuse_middle(middle([Z(2), vn(2)]), middle([vn(1), Z(3)])))

        def wiring():
            return fuse_middle(middle_permutation([2, 0, 1]), middle([Z(1), vn(2), EMPTY]))

        for op in (quad, wiring):
            _clear()
            assert _scans(monkeypatch, op, reader=reader) == 0
            assert _scans(monkeypatch, op, reader=reader) == 0

    def test_close_takes_the_branches_from_the_reading(self, monkeypatch):
        # a walk parses each marker once, in _bottom; close parses none,
        # whether its middle was built or walked
        m = middle([Z(i % 50) for i in range(300)])
        assert _scans(monkeypatch, close, m, reader="_parse_marker") == 0
        _clear()
        assert _scans(monkeypatch, close, m.set, reader="_parse_marker") == 300
        assert _scans(monkeypatch, close, m, reader="_parse_marker") == 0

    @pytest.mark.parametrize("reader", ["_read", "_bottom"])
    def test_a_built_middle_is_closed_with_no_walk(self, monkeypatch, reader):
        def built():
            return close(middle([Z(2), vn(2)])), close(middle_permutation([1, 2, 0]))

        _clear()
        assert _scans(monkeypatch, built, reader=reader) == 0
        assert fusion._BUILT == {}


class TestReadStopsAtSlots:
    # _read's fold calls _holds once per distinct constituent outside the
    # slots and enters no slot
    def test_holds_is_called_outside_the_slots_only(self, monkeypatch):
        # the root and vn(1), ..., vn(7) rebuilt over slot 0 in place of
        # {}; the second entry, {}, is slot 1 itself
        t = make_tuple([vn(7), EMPTY])
        assert _scans(monkeypatch, top_structure, t, reader="_holds") == 8
        # the root and three levels above each slot
        t = make_tuple([Z(3)] * 2)
        assert _scans(monkeypatch, top_structure, t, reader="_holds") == 7


class TestRememberedReadings:
    def test_a_lying_record_is_refused(self, monkeypatch):
        m = middle([Z(2), vn(2)])
        t, b = top_structure(m.set), bottom_structure(m.set)

        def refused(lie):
            return _scans(monkeypatch, lambda: pytest.raises(NotAStructure, close, lie))

        # the lie is compared with the reading of its set: from the memo
        # with no walk, or after one walk when the set is not memoized;
        # a list arity is compared like any other
        for lie in (m._replace(arity=3), m._replace(arity=[2])):
            assert refused(lie) == 0
            _clear()
            assert refused(lie) == 1
        # no offset-1 reading of m's set exists, so none is memoized
        assert refused(m._replace(offset=1)) == 1
        assert refused(m._replace(offset=1)) == 1
        # equal to m as a tuple, but an offset of another type
        with pytest.raises(TypeError, match="^offset must be an int, got float$"):
            close(m._replace(offset=0.0))
        for lie in (t._replace(arity=1), t._replace(offset=1)):
            with pytest.raises(NotAStructure):
                fuse(lie, m.set)
        for lie in (
            b._replace(arity=1),
            b._replace(markers=b.markers[::-1]),
            b._replace(markers=b.markers[:1]),
            b._replace(markers=list(b.markers)),
        ):
            with pytest.raises(NotAStructure):
                bottom_terminal(lie, 0)

    def test_an_equal_hand_built_record_is_taken(self, monkeypatch):
        m = middle([Z(2), vn(2)])
        same = MiddleStructure(set=m.set, arity=2, offset=0)
        assert same is not m
        assert _scans(monkeypatch, close, same) == 0
        assert close(same) is close(m.set)

    def test_a_record_of_another_kind_gets_no_remembered_reading(self, monkeypatch):
        m = middle([Z(2), vn(2)])
        top = TopStructure(*m)
        assert top == m
        assert _scans(monkeypatch, fusion._as, fusion.top_structure, top) == 1
        got = fusion._as(fusion.top_structure, top)
        assert type(got) is TopStructure and got == top
        with pytest.raises(NotAStructure):
            bottom_terminal(m, 0)

    def test_a_failed_reading_is_not_memoized(self, monkeypatch):
        for _ in range(3):
            assert _scans(monkeypatch, lambda: pytest.raises(NotAStructure, middle_structure, Z(3))) == 1
        assert fusion._read_middle.cache_info().currsize == 0

    def test_the_memo_keeps_an_offset_of_true_apart_from_1(self):
        h = make_set([_branch(1, position(1)), _branch(2, position(2))])
        assert middle_structure(h, 1).offset == 1
        assert middle_structure(h, True).offset is True
        assert middle_structure(h, 1).offset is not True

    def test_threads_get_their_own_readings_and_the_table_stays_bounded(self):
        # eight threads on two cores, switching often, each closing middles
        # of its own and fusing them; every answer is checked against one
        # worked out from the bare sets beforehand
        cases = []
        for k in range(8):
            ea, eb = [Z(k), vn(k % 3)], [vn(2), Z(k + 1)]
            a, b = middle(ea).set, middle(eb).set
            cases.append((ea, eb, close(a), close(fuse_middle(a, b).set)))
        wrong = []

        def run(ea, eb, closed, fused):
            for _ in range(200):
                a, b = middle(ea), middle(eb)
                if close(a) is not closed or close(fuse_middle(a, b)) is not fused:
                    wrong.append(ea)

        threads = [threading.Thread(target=run, args=case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert fusion._read_middle.cache_info().currsize <= 16

    def test_a_reading_is_kept_through_15_later_middles_and_gone_after_16(self, monkeypatch):
        others = [middle([Z(k)]).set for k in range(31)]
        _clear()
        first = middle([Z(2), vn(2)])
        for h in others[:15]:
            middle_structure(h)
        # the hit makes first the reading used last again
        assert _scans(monkeypatch, close, first) == 0
        for h in others[15:]:
            middle_structure(h)
        assert _scans(monkeypatch, close, first) == 1
        assert fusion._read_middle.cache_info().currsize == 16


# entries for built middles: corpus sets, slot and branch markers, tuples,
# middles, numerals and the diamond
ENTRIES = [
    *generate(3, 12, max_depth=3),
    position(0),
    position(2),
    branch(0, Z(2)),
    branch(1, position(1)),
    branch(3, EMPTY),
    make_tuple([EMPTY, Z(1)]),
    make_tuple([position(1)]),
    middle([Z(2), vn(2)]).set,
    middle_permutation([1, 0]).set,
    Z(0),
    Z(4),
    vn(3),
    diamond(),
]


def _walked(h):
    """The middle reading a walk of h gives, past the memo."""
    assert fusion._BUILT == {}
    return fusion._read_middle.__wrapped__(h, 0)


def _wired(k):
    """Makers of wired middles of arity k: middle of drawn entries, the
    identity, and a drawn wiring.  A maker builds when the test calls it,
    after the memo is cleared, so every reading starts from construction."""
    return st.one_of(
        st.lists(st.sampled_from(ENTRIES), min_size=k, max_size=k).map(lambda es: partial(middle, es)),
        st.just(partial(middle_identity, k)),
        st.permutations(range(k)).map(lambda p: partial(middle_permutation, p)),
    )


def _wired_tuples(n):
    """n makers of wired middles of one drawn arity."""
    return st.integers(1, 4).flatmap(lambda k: st.tuples(*[_wired(k)] * n))


class TestBuiltReadings:
    # middle and middle_permutation take their reading from how they build
    # their set; it must be the reading a walk gives
    @FUZZ
    @given(st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=5))
    def test_a_middle_is_read_as_a_walk_reads_it(self, es):
        m = middle(es)
        assert fusion._read_middle(m.set, 0) == _walked(m.set)

    @FUZZ
    @given(st.integers(1, 8))
    def test_an_identity_is_read_as_a_walk_reads_it(self, k):
        m = middle_identity(k)
        assert fusion._read_middle(m.set, 0) == _walked(m.set)

    @FUZZ
    @given(st.integers(1, 6).flatmap(lambda k: st.permutations(range(k))))
    def test_a_wiring_is_read_as_a_walk_reads_it(self, perm):
        m = middle_permutation(perm)
        assert fusion._read_middle(m.set, 0) == _walked(m.set)

    def test_nothing_is_left_behind_by_a_refused_middle(self, monkeypatch):
        with pytest.raises(ValueError, match="^a middle structure needs at least one entry$"):
            middle([])
        with pytest.raises(TypeError, match="^replace takes sets, got int, SetHandle, SetHandle$"):
            middle([5])
        with pytest.raises(NotAPermutation, match=r"^\[0, 0\] is not a permutation of 0..1$"):
            middle_permutation([0, 0])
        assert fusion._BUILT == {}

        def fails(h, offset):
            raise RuntimeError("no reading")

        monkeypatch.setattr(fusion, "_read_middle", fails)
        for build in (lambda: middle([EMPTY]), lambda: middle_permutation([0])):
            with pytest.raises(RuntimeError):
                build()
            assert fusion._BUILT == {}

    # fuse_middle takes the reading of a fusion of wired middles from their
    # construction too; it must be the reading a walk gives, whichever side
    # each operand is fused on
    @FUZZ
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.tuples(
                _wired(k), st.lists(st.tuples(_wired(k), st.booleans()), min_size=1, max_size=4)
            )
        )
    )
    def test_a_fusion_chain_is_read_as_a_walk_reads_it(self, chain):
        first, steps = chain
        _clear()
        acc = first()
        for make, on_top in steps:
            m = make()
            acc = fuse_middle(m, acc) if on_top else fuse_middle(acc, m)
            got = fusion._read_middle(acc.set, 0)
            assert got.built
            assert got == _walked(acc.set)

    @FUZZ
    @given(_wired_tuples(3))
    def test_fuse_middle_is_associative_on_wired_middles(self, makers):
        a, b, c = (make() for make in makers)
        assert fuse_middle(fuse_middle(a, b), c) == fuse_middle(a, fuse_middle(b, c))

    @FUZZ
    @given(_wired_tuples(2))
    def test_the_identity_is_a_unit_on_both_sides(self, makers):
        a, b = (make() for make in makers)
        e = middle_identity(a.arity)
        for m in (a, fuse_middle(a, b)):
            assert fuse_middle(e, m) == m == fuse_middle(m, e)

    def test_fuse_middle_still_walks_what_it_fuses(self):
        # both sides are valid middles, but their fusion is not one: slot 1
        # of the wiring becomes the numeral branch 1 of b, a bare slot
        a = middle_permutation([1, 0])
        b = make_set([_branch(0, position(0)), _branch(1, Z(1))])
        assert validate_middle(b) == MiddleStructure(b, 2, 0)
        with pytest.raises(NotAStructure, match="^a bare position marker doubles as a branch marker$"):
            fuse_middle(a, b)


# Fuzzing: hand-built inputs through the public surface; only CalculusError
# may escape.

VALID_GRAPHS = [chain_graph(k) for k in range(4)] + [
    structure_of(x) for x in (diamond(), vn(3), kuratowski_pair(Z(2), vn(2)))
]


@st.composite
def hand_built_graphs(draw):
    n = draw(st.integers(0, 6))
    end = st.integers(-1, n + 1)
    edges = draw(st.lists(st.tuples(end, end), max_size=8))
    return StructureGraph((None,) * n, tuple(edges), draw(end), draw(end))


graphs = st.one_of(hand_built_graphs(), st.sampled_from(VALID_GRAPHS))


@FUZZ
@given(graphs, graphs)
def test_hand_built_graphs_raise_only_malformed_graph(g, h):
    try:
        check_graph(g)
    except MalformedGraph:
        for op in (
            canonical_cert,
            simplest_set,
            to_dot,
            lambda g: isomorphic(g, h),
            lambda g: isomorphic(h, g),
            lambda g: isomorphic(g, POINT),
            lambda g: isomorphic(POINT, g),
            lambda g: graph_sum(g, h),
            lambda g: graph_sum(h, g),
            lambda g: graph_product(g, h),
            lambda g: graph_product(h, g),
        ):
            with pytest.raises(MalformedGraph):
                op(g)
        return
    assert isinstance(canonical_cert(g), bytes)
    assert isinstance(to_dot(g), str)
    assert isomorphic(g, g) is not None
    for first, second in ((g, h), (h, g), (g, POINT), (POINT, g)):
        try:
            isomorphic(first, second)
        except MalformedGraph:
            assert h in (first, second)
    try:
        assert isomorphic(structure_of(simplest_set(g)), g) is not None
    except CalculusError:
        pass


SETS = [
    EMPTY,
    Z(3),
    diamond(),
    position(0),
    kuratowski_top(),
    make_tuple([EMPTY]),
    make_tuple([EMPTY] * 2),
    make_tuple([Z(0), Z(1)]),
    make_set([branch(0, Z(2)), branch(1, Z(3))]),
    middle([Z(2), vn(2)]).set,
    middle_permutation([1, 0]).set,
    make_set([branch(1, position(1))]),  # a middle whose numbering starts at 1
]
MARKERS = [EMPTY, Z(2), position(0), branch(0, Z(2)), branch(1, Z(3)), branch(1, Z(2))]
VALID_RECORDS = [
    r
    for h in SETS
    for offset in (0, 1)
    for r in (validate_top(h, offset), validate_bottom(h, offset), validate_middle(h, offset))
    if r is not None
]


@st.composite
def hand_built_records(draw):
    kind = draw(st.sampled_from([TopStructure, BottomStructure, MiddleStructure]))
    fields = (draw(st.sampled_from(SETS)), draw(st.integers(0, 3)), draw(st.integers(-1, 2)))
    if kind is BottomStructure:
        return kind(*fields, tuple(draw(st.lists(st.sampled_from(MARKERS), max_size=4))))
    return kind(*fields)


@st.composite
def lying_bottoms(draw):
    """A valid bottom record with markers dropped or added."""
    r = draw(st.sampled_from([r for r in VALID_RECORDS if isinstance(r, BottomStructure)]))
    extra = tuple(draw(st.lists(st.sampled_from(MARKERS), max_size=2)))
    return r._replace(markers=r.markers[: draw(st.integers(0, r.arity))] + extra)


structures = st.one_of(
    st.sampled_from(SETS),
    st.sampled_from(VALID_RECORDS),
    hand_built_records(),
    lying_bottoms(),
)


def _answer(op, *args, **kwargs):
    try:
        return op(*args, **kwargs)
    except CalculusError:
        return None


@FUZZ
@given(
    structures,
    structures,
    st.sampled_from(SETS),
    st.integers(-1, 3),
    st.lists(st.sampled_from(SETS), max_size=3),
)
def test_hand_built_records_raise_only_calculus_errors(a, b, x, n, terms):
    fused = _answer(fuse, a, b)
    _answer(match_terminals, a, b)
    _answer(bottom_terminal, b, n)
    _answer(fuse_with_terminals, a, terms)
    _answer(fuse_middle, a, b)
    _answer(close, a)
    _answer(has_top_structure, a, x, budget=50)
    _answer(has_bottom_structure, x, b, budget=50)
    if fused is not None:
        assert _answer(has_top_structure, a, fused, budget=500) is not False
