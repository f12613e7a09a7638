"""Covering diagrams: extraction, certificates, isomorphism, realization."""
from __future__ import annotations

import bisect
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import _oracles as oracles
from _oracles import oracle
from _shapes import cfi, fan, layered_dag, shuffled
import conset
import conset.structure as structure
from conset import (
    POINT,
    MalformedGraph,
    MalformedText,
    StructureGraph,
    Unrealizable,
    canonical_cert,
    chain_graph,
    check_graph,
    compose,
    graph_from_json,
    graph_product,
    graph_sum,
    isomorphic,
    parse,
    simplest_set,
    structure_of,
    to_dot,
    to_json,
)
from conset.numerals import vn, zermelo
from conset.tuples import diamond


SHAPES = {
    "fan-1x5": fan(1, 1, 1, 1, 1),
    "fan-3x3": fan(3, 3, 3),
    "fan-2x2": fan(2, 2),
    "fan-1-3": fan(1, 3),
    "fan-1-2-3": fan(1, 2, 3),
    "fan-1-1-2-2": fan(1, 1, 2, 2),
    "fan-1-1-1-3-3": fan(1, 1, 1, 3, 3),
    "branch-fan-5": fan(2, 2, 2, 2, 2),
    "product-fan-1x2-fan-2x2": graph_product(fan(1, 1), fan(2, 2)),
    "product-fan-1-2-fan-1x2": graph_product(fan(1, 2), fan(1, 1)),
    "product-fan-2x2-fan-1x2": graph_product(fan(2, 2), fan(1, 1)),
    **{f"layered-{seed}": layered_dag(seed) for seed in range(40)},
}


def _relabelled(name: str) -> StructureGraph:
    return shuffled(SHAPES[name], random.Random(name))


# every pair of shapes that counts of vertices and edges cannot tell apart,
# and every shape with a relabelled copy of itself, which must keep its
# certificate
SHAPE_PAIRS = [
    (a, b)
    for a, b in itertools.combinations(sorted(SHAPES), 2)
    if (SHAPES[a].n, len(SHAPES[a].edges)) == (SHAPES[b].n, len(SHAPES[b].edges))
] + [(a, a) for a in sorted(SHAPES)]


class TestStructureOf:
    def test_two_element_set_drops_transitive_edge(self):
        g = structure_of(vn(2))
        assert g.n == 3
        assert g.edges == ((0, 1), (1, 2))
        assert g.bottom == 0 and g.top == 2

    def test_numeral_is_chain(self):
        assert structure_of(vn(3)).edges == ((0, 1), (1, 2), (2, 3))
        assert structure_of(zermelo(3)).edges == ((0, 1), (1, 2), (2, 3))

    def test_diamond_shape(self):
        g = structure_of(diamond())
        assert g.n == 5
        assert g.edges == ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4))
        assert g.tags == (
            zermelo(0),
            zermelo(1),
            zermelo(2),
            vn(2),
            diamond(),
        )

    def test_point(self):
        g = structure_of(zermelo(0))
        assert g.n == 1 and g.edges == ()

    def test_matches_transitive_reduction_oracle(self, corpus200):
        for x in corpus200:
            assert list(structure_of(x).edges) == oracle.diagram(x.text)[1]

    def test_tags_are_constituents_bottom_up(self, corpus200):
        for x in corpus200[:40]:
            g = structure_of(x)
            assert g.tags[g.bottom] is zermelo(0)
            assert g.tags[g.top] is x


class TestCheckGraph:
    def test_accepts_valid(self, corpus200):
        for x in corpus200[:30]:
            check_graph(structure_of(x))

    @pytest.mark.parametrize(
        "edges,top,bottom",
        [
            (((0, 1), (0, 1)), 1, 0),  # duplicate edge
            (((0, 0),), 0, 0),  # self loop
            (((0, 1), (1, 2), (2, 0)), 2, 0),  # cycle
            (((0, 1),), 2, 0),  # disconnected extra sink
        ],
    )
    def test_rejects_invalid(self, edges, top, bottom):
        n = max(max(e) for e in edges) + 1 if edges else 1
        n = max(n, top + 1, bottom + 1)
        g = StructureGraph(
            tags=(None,) * n, edges=edges, top=top, bottom=bottom
        )
        with pytest.raises(ValueError):
            check_graph(g)

    def test_rejects_a_cycle_between_bottom_and_top(self):
        # one bottom and one top, so only the walk up from the bottom sees
        # that 1 and 2 cover each other
        edges = ((0, 1), (1, 2), (1, 3), (2, 1))
        g = StructureGraph(tags=(None,) * 4, edges=edges, top=3, bottom=0)
        with pytest.raises(MalformedGraph, match="^graph has a cycle$"):
            check_graph(g)


class TestCanonicalCert:
    def test_numeral_schemes_agree(self):
        assert canonical_cert(structure_of(zermelo(5))) == canonical_cert(
            structure_of(vn(5))
        )

    def test_diamond_is_no_chain(self):
        d = canonical_cert(structure_of(diamond()))
        for k in range(11):
            assert d != canonical_cert(structure_of(zermelo(k)))

    def test_stable_under_relabeling(self, corpus200):
        rng = random.Random(5)
        for x in corpus200[:60]:
            g = structure_of(x)
            assert canonical_cert(shuffled(g, rng)) == canonical_cert(g)

    def test_agrees_with_brute_force(self, corpus200):
        small = [structure_of(x) for x in corpus200 if len(x.text) // 2 <= 40]
        small = [g for g in small if g.n <= 8]
        groups: dict[bytes, list] = {}
        for g in small:
            groups.setdefault(canonical_cert(g), []).append(g)
        reps = [members[0] for members in groups.values()]
        # equal certificate must mean isomorphic
        for members in groups.values():
            rep = members[0]
            for g in members[1:]:
                assert oracle.isomorphic(rep.n, rep.edges, g.n, g.edges)
        # distinct certificates must mean non-isomorphic
        for g1, g2 in itertools.combinations(reps[:40], 2):
            assert not oracle.isomorphic(g1.n, g1.edges, g2.n, g2.edges)


class TestSymmetricShapes:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_certificate_is_the_exhaustive_minimum(self, name):
        g = SHAPES[name]
        want = repr(oracles.canonical_form_exhaustive(g)).encode("ascii")
        assert canonical_cert(g) == want

    @pytest.mark.parametrize("first,second", SHAPE_PAIRS)
    def test_agrees_with_brute_force(self, first, second):
        g, h = SHAPES[first], _relabelled(second)
        iso = oracle.isomorphic(g.n, g.edges, h.n, h.edges)
        assert (canonical_cert(g) == canonical_cert(h)) == iso
        w = isomorphic(g, h)
        assert (w is not None) == iso
        if w is not None:
            assert {(w.mapping[a], w.mapping[b]) for a, b in g.edges} == set(h.edges)
            assert w.mapping[g.top] == h.top and w.mapping[g.bottom] == h.bottom

    def test_branch_fan_search_stays_polynomial(self, monkeypatch):
        # k parallel two-vertex branches have k! leaves; pruning leaves about
        # k*k/2 search nodes (36 at k=8), and without the orbit pruning, with
        # jump-back alone, the count is already 148
        k = 8
        calls = []
        refine = structure._refine

        def counting(*args):
            calls.append(None)
            return refine(*args)

        monkeypatch.setattr(structure, "_refine", counting)
        canonical_cert(fan(*[2] * k))
        assert len(calls) <= k * k


def _cells(colors: list[int]) -> tuple[list[int], dict[int, list[int]]]:
    """The partition of dense colour ranks as the search keeps it: each
    vertex's cell numbered by the count of vertices of lower colours, and
    each cell's vertices in increasing order."""
    order = sorted(colors)
    pos = [bisect.bisect_left(order, c) for c in colors]
    cells: dict[int, list[int]] = {}
    for v, p in enumerate(pos):
        cells.setdefault(p, []).append(v)
    return pos, cells


def _refine_both(
    g: StructureGraph, pos: list[int], cells: dict, moved=None
) -> tuple[list, list]:
    """The library's refinement of a partition and the full re-sign of its
    colours, each as dense colour ranks."""
    want = oracles.refine_full(g.n, g.edges, oracles._dense(pos))
    lowers, uppers, _ = structure._diagram(g)
    structure._refine(lowers, uppers, pos, cells, moved)
    got = oracles._dense(pos)
    assert _cells(got) == (pos, cells)
    return got, want


REFINED_SHAPES = {
    **SHAPES,
    **{f"branch-fan-{k}": fan(*[2] * k) for k in range(2, 13)},
    "cfi-10": cfi(10, 1, False),
    "cfi-10-twisted": cfi(10, 1, True),
}


class TestRefinement:
    def test_base_coloring_refines_as_the_full_re_sign(self, corpus200):
        for x in corpus200:
            g = structure_of(x)
            got, want = _refine_both(g, *_cells(oracles.base_colors(g)))
            assert got == want

    @pytest.mark.parametrize("name", sorted(REFINED_SHAPES))
    def test_each_individualization_refines_as_the_full_re_sign(self, name):
        g = REFINED_SHAPES[name]
        pos, cells = _cells(oracles.refine_full(g.n, g.edges, oracles.base_colors(g)))
        for v in range(g.n):
            if len(cells[pos[v]]) > 1:
                split = structure._split(pos, cells, pos[v], [v])
                got, want = _refine_both(g, *split, [v])
                assert got == want

    def test_individualizing_reads_only_what_the_split_reaches(self):
        # one branch of 50 individualized: the vertex, the 50 of the class
        # above it and the one of them that split off are each read below
        # and above, once; re-signing all 102 vertices every round, with a
        # last round that finds nothing moved, read 408 lists
        k = 50
        g = fan(*[2] * k)
        lowers, uppers, _ = structure._diagram(g)
        colors = oracles.refine_full(g.n, g.edges, oracles.base_colors(g))
        pos, cells = _cells(colors)
        reads = []

        class Counted(list):
            def __getitem__(self, v):
                reads.append(v)
                return list.__getitem__(self, v)

        first = colors.index(1)  # the lower vertex of the first branch
        split = structure._split(pos, cells, pos[first], [first])
        structure._refine(Counted(lowers), Counted(uppers), *split, [first])
        assert len(reads) == 2 * (1 + k + 1)


CFI_PAIR = (REFINED_SHAPES["cfi-10"], REFINED_SHAPES["cfi-10-twisted"])


class TestCFIPair:
    def test_refinement_alone_does_not_separate_them(self):
        refined = []
        for g in CFI_PAIR:
            check_graph(g)
            refined.append(sorted(oracles.refine_full(g.n, g.edges, oracles.base_colors(g))))
        assert refined[0] == refined[1]

    def test_search_decides_them_in_a_pinned_tree(self, monkeypatch):
        calls = []
        refine = structure._refine

        def counting(*args):
            calls.append(None)
            return refine(*args)

        monkeypatch.setattr(structure, "_refine", counting)
        assert isomorphic(*CFI_PAIR) is None
        assert len(calls) == 616

    def test_relabelled_copies_keep_their_certificates(self):
        rng = random.Random(3)
        for g in CFI_PAIR:
            assert canonical_cert(shuffled(g, rng)) == canonical_cert(g)


class TestIsomorphic:
    def test_scheme_witness_rows(self):
        w = isomorphic(structure_of(zermelo(5)), structure_of(vn(5)))
        assert w is not None
        assert w.mapping == (0, 1, 2, 3, 4, 5)

    def test_identity_witness(self, corpus200):
        for x in corpus200[:30]:
            g = structure_of(x)
            w = isomorphic(g, g)
            assert w is not None and w.mapping == tuple(range(g.n))

    def test_diamond_vs_chain(self):
        assert isomorphic(structure_of(diamond()), structure_of(zermelo(3))) \
            is None

    def test_witness_preserves_edges(self, corpus200):
        rng = random.Random(9)
        for x in corpus200[:40]:
            g = structure_of(x)
            h = shuffled(g, rng)
            w = isomorphic(g, h)
            assert w is not None
            mapped = {(w.mapping[a], w.mapping[b]) for a, b in g.edges}
            assert mapped == set(h.edges)
            assert w.mapping[g.top] == h.top
            assert w.mapping[g.bottom] == h.bottom

    def test_witness_is_checked_without_asserts(self):
        # python -O strips assert statements: a labelling that does not map
        # the edges must still be refused there
        script = textwrap.dedent(
            """
            import sys
            import conset.structure as structure
            from conset import chain_graph, isomorphic

            g1, g2 = chain_graph(3), chain_graph(3)
            canonical = structure._canonical

            def mislabelled(g):
                form, lab = canonical(g)
                return form, (lab[::-1] if g is g2 else lab)

            structure._canonical = mislabelled
            try:
                isomorphic(g1, g2)
            except Exception as exc:
                print(sys.flags.optimize, type(exc).__name__)
            else:
                print(sys.flags.optimize, "accepted")
            """
        )
        src = Path(conset.__file__).resolve().parent.parent
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
            check=True,
        )
        assert out.stdout.split() == ["1", "AssertionError"]


class TestSimplestSet:
    def test_chains_realize_to_successor_numerals(self):
        for k in range(9):
            assert simplest_set(chain_graph(k)) is zermelo(k)

    def test_element_scheme_simplifies_away(self):
        assert simplest_set(structure_of(vn(3))) is zermelo(3)

    def test_diamond_needs_its_witness_element(self):
        assert simplest_set(structure_of(diamond())) is diamond()

    def test_collision_takes_the_smallest_spare_constituent(self):
        # {{},{{{}}}} covers only {{{}}}, and its first candidate {{{{}}}} is
        # taken by the chain; of the spares {} and {{}}, the smaller is added
        g = structure_of(parse("{{{},{{{}}}},{{},{{{{}}}}}}"))
        assert simplest_set(g) is parse("{{{{{{}}}}},{{},{{{}}}}}")

    def test_realization_fixpoint_corpus(self, corpus200):
        for x in corpus200:
            g = structure_of(x)
            r = simplest_set(g)
            assert isomorphic(structure_of(r), g) is not None

    def test_membership_equals_covering_without_collisions(self, corpus200):
        for x in corpus200:
            g = structure_of(x)
            if oracles.pure_realization(g) is None:
                continue
            r = simplest_set(g)
            assert oracles.membership_edges(r) == structure_of(r).edges

    def test_three_indistinguishable_siblings_fail(self):
        g = StructureGraph(
            tags=(None,) * 5,
            edges=((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)),
            top=4,
            bottom=0,
        )
        check_graph(g)
        with pytest.raises(Unrealizable):
            simplest_set(g)


class TestGraphSum:
    def test_chain_lengths_add(self):
        assert graph_sum(chain_graph(2), chain_graph(3)) == chain_graph(5)

    def test_chains_have_no_negative_length(self):
        assert chain_graph(0) is POINT
        with pytest.raises(ValueError, match="^chain length must be >= 0$"):
            chain_graph(-1)

    def test_point_is_identity(self, corpus200):
        # one-vertex operands collapse to the other side's point, so tag
        # equality is only meaningful for graphs with an actual edge
        for x in corpus200[:20]:
            g = structure_of(x)
            if g.n == 1:
                continue
            assert graph_sum(g, POINT) == g
            assert graph_sum(POINT, g) == g
        assert graph_sum(POINT, POINT) == POINT

    def test_matches_composition_structure(self, pairs500):
        for a, b in pairs500[:200]:
            stacked = graph_sum(structure_of(a), structure_of(b))
            check_graph(stacked)
            assert isomorphic(stacked, structure_of(compose(a, b))) \
                is not None


class TestGraphProduct:
    def test_chain_lengths_multiply(self):
        got = graph_product(chain_graph(2), chain_graph(3))
        check_graph(got)
        assert canonical_cert(got) == canonical_cert(chain_graph(6))

    def test_commutes_on_chains(self):
        assert canonical_cert(
            graph_product(chain_graph(3), chain_graph(2))
        ) == canonical_cert(chain_graph(6))

    def test_single_edge_is_identity(self, corpus200):
        for x in corpus200[:20]:
            g = structure_of(x)
            assert graph_product(g, chain_graph(1)) == g

    def test_point_annihilates(self):
        g = structure_of(diamond())
        assert graph_product(g, POINT) == POINT
        assert graph_product(POINT, g) == POINT

    def test_product_realizes_to_numeral(self):
        got = simplest_set(graph_product(chain_graph(2), chain_graph(3)))
        assert got is zermelo(6)


class TestSerialization:
    def test_json_round_trip(self, corpus200):
        for x in corpus200[:40]:
            g = structure_of(x)
            assert graph_from_json(to_json(g)) == g

    def test_json_deterministic(self):
        g = structure_of(diamond())
        assert to_json(g) == to_json(structure_of(diamond()))
        assert to_json(g).endswith("\n")

    def test_dot_deterministic_and_shaped(self):
        g = structure_of(vn(2))
        dot = to_dot(g)
        assert dot == to_dot(structure_of(vn(2)))
        assert dot.startswith("digraph constituent_structure {")
        assert "rankdir=BT;" in dot
        assert "v0 -> v1;" in dot and "v1 -> v2;" in dot
        assert "v0 -> v2" not in dot
        assert dot.endswith("}\n")

    @pytest.mark.parametrize("render", [to_json, to_dot])
    def test_tags_render_as_their_texts_each_joined_once(self, render, corpus1000, monkeypatch):
        shapes = corpus1000[:60] + [vn(6), zermelo(60), diamond()]
        graphs = [structure_of(x) for x in shapes]
        assert any(t.size > 48 for g in graphs for t in g.tags)
        got = [render(g) for g in graphs]
        joined = []
        real = conset.kernel._pieces
        monkeypatch.setattr(
            conset.kernel, "_pieces", lambda h, memo: joined.append(h) or real(h, memo)
        )
        for g, out in zip(graphs, got):
            del joined[:]
            assert render(g) == out
            assert sorted(joined, key=id) == sorted({t for t in g.tags if t.size > 48}, key=id)
        # tag by tag, each text rendered on its own
        monkeypatch.setattr(structure, "to_text", lambda h, memo=None: h.text)
        assert [render(g) for g in graphs] == got

    def test_point_round_trip(self):
        assert graph_from_json(to_json(POINT)) == POINT


def _chain_json(texts: list[str | None], order: list[int]) -> str:
    """JSON of a chain whose vertex i is tagged texts[i] (no "set" for None),
    the vertices listed in the given order."""
    vertices = []
    for v in order:
        entry: dict = {"id": v}
        if texts[v] is not None:
            entry["set"] = texts[v]
        vertices.append(entry)
    n = len(texts)
    edges = [[i, i + 1] for i in range(n - 1)]
    return json.dumps({"vertices": vertices, "edges": edges, "top": n - 1, "bottom": 0})


HAND_TAGS = {
    "spaced": [" {} ", "{ {} }", "{\t{},\n{{}} }"],
    "reordered": ["{}", "{{{}},{}}", "{{{},{{}}},{{}},{}}"],
    "duplicated": ["{{},{}}", "{{}}", "{{{}},{},{{}},{}}"],
    "unrelated": ["{{{{}}}}", "{}", "{{},{{{}}}}"],
    "untagged": [None, "{{}}", None],
    "canonical below a spaced top": ["{}", "{{}}", "{ {{}} , {} }"],
    "spaced and canonical alike": ["{{}}", "{ {} }", "{{}}", "{{{}}}"],
}


class TestTagsReadOnce:
    @pytest.fixture
    def parses(self, monkeypatch):
        calls: list[str] = []
        real = structure.parse
        monkeypatch.setattr(structure, "parse", lambda t: calls.append(t) or real(t))
        return calls

    def test_to_json_output_costs_one_parse(self, corpus200, parses):
        shapes = corpus200[:40] + [zermelo(300), vn(8), diamond()]
        for g in map(structure_of, shapes):
            text = to_json(g)
            del parses[:]
            assert graph_from_json(text) == g
            assert len(parses) == 1

    def test_untagged_vertices_cost_no_parse(self, parses):
        # graph_sum keeps the tags of its lower diagram only
        upper_untagged = graph_sum(chain_graph(2), structure_of(vn(3)))
        cases = [(POINT, 0), (chain_graph(3), 0), (upper_untagged, 1)]
        for g, count in cases:
            text = to_json(g)
            del parses[:]
            assert graph_from_json(text) == g
            assert len(parses) == count

    @pytest.mark.parametrize("name", sorted(HAND_TAGS))
    def test_hand_written_tags_read_as_parse_reads_them(self, name, parses):
        texts = HAND_TAGS[name]
        want = tuple(None if t is None else parse(t) for t in texts)
        n = len(texts)
        orders = [list(range(n)), list(range(n))[::-1]]
        orders.append(random.Random(3).sample(range(n), n))
        for order in orders:
            del parses[:]
            assert graph_from_json(_chain_json(texts, order)).tags == want
            assert len(parses) <= sum(t is not None for t in texts)

    def test_canonical_texts_below_a_spaced_top_are_found(self, parses):
        texts = HAND_TAGS["canonical below a spaced top"]
        graph_from_json(_chain_json(texts, [0, 1, 2]))
        assert parses == [texts[2]]

    @pytest.mark.parametrize(
        "texts, order, message",
        [
            (["{}", "{{}", "{{}}}"], [0, 1, 2], "unterminated set text"),
            (["{}", "{{}}{}", "{{},}"], [2, 0, 1], "dangling comma before offset 4"),
            (["{}", "{ {} x}", "}"], [0, 1, 2], "unexpected character 'x' at offset 5"),
        ],
    )
    def test_first_malformed_tag_in_vertex_order_is_reported(self, texts, order, message):
        with pytest.raises(MalformedText) as err:
            graph_from_json(_chain_json(texts, order))
        assert str(err.value) == message

    def test_deep_chain_round_trip(self):
        g = structure_of(zermelo(1000))
        assert graph_from_json(to_json(g)) == g
