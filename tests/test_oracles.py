"""The text oracle checked on tiny inputs against answers written by hand,
and its independence from the library pinned by reading the imports, as is
the independence of the test modules from one another."""
from __future__ import annotations

import ast
from pathlib import Path

from _oracles import oracle

ROOT = Path(__file__).parents[1]
D0 = "{{{{}}},{{},{{}}}}"  # the diamond {{1},{0,1}}, also position(0)


def test_canon_sorts_shortlex_and_drops_duplicates():
    assert oracle.canon("{}") == "{}"
    assert oracle.canon("{{},{}}") == "{{}}"
    assert oracle.canon("{{{}},{}}") == "{{},{{}}}"
    assert oracle.canon("{{{},{{}}},{{{}}},{{}}}") == "{{{}},{{{}}},{{},{{}}}}"


def test_elements_and_constituents():
    assert oracle.elements("{}") == ()
    assert oracle.elements("{{},{{}}}") == ("{}", "{{}}")
    assert oracle.constituents("{}") == {"{}"}
    assert oracle.constituents("{{},{{}}}") == {"{}", "{{}}", "{{},{{}}}"}


def test_replace_and_compose():
    # {0, 1} with 1 replaced by 0 merges its elements
    assert oracle.replace("{{},{{}}}", "{{}}", "{}") == "{{}}"
    assert oracle.replace("{{},{{}}}", "{{{}}}", "{}") == "{{},{{}}}"
    assert oracle.compose("{{}}", "{{}}") == "{{{}}}"
    assert oracle.compose("{{},{{}}}", "{{}}") == "{{{}},{{{}}}}"


def test_has_bottom():
    assert oracle.has_bottom("{{{}}}", "{{}}")
    assert oracle.has_bottom("{{},{{}}}", "{}")
    # putting 1 back into {0} gives {1}, not {0, 1}
    assert not oracle.has_bottom("{{},{{}}}", "{{}}")


def test_maximal():
    texts = ["{}", "{{}}", "{{{}}}", "{{},{{}}}", "{{}}"]
    assert oracle.maximal(texts) == ["{{{}}}", "{{},{{}}}"]
    assert oracle.maximal([]) == []


def test_position_and_branch():
    assert oracle.position(0) == D0
    assert oracle.position(1) == "{{{{{}}}},{{{}},{{{}}}}}"
    assert oracle.branch(0, "{}") == D0
    assert oracle.branch(1, "{}") == "{" + D0 + "}"
    assert oracle.branch(1, "{{}}") == "{" + oracle.position(1) + "}"


def test_levels_take_the_longest_path():
    assert oracle.levels(1, []) == [0]
    assert oracle.levels(4, [(0, 1), (0, 2), (1, 3), (2, 3)]) == [0, 1, 1, 2]
    assert oracle.levels(3, [(0, 2), (0, 1), (1, 2)]) == [0, 1, 2]


def test_diagram_drops_the_edge_from_empty_to_the_top():
    verts, edges = oracle.diagram("{{},{{}}}")
    assert verts == ["{}", "{{}}", "{{},{{}}}"]
    assert edges == [(0, 1), (1, 2)]


def _layered(middle):
    """Bottom 0 under 1..4, 5..8 under top 9, middle edges between."""
    return [(0, v) for v in range(1, 5)] + middle + [(v, 9) for v in range(5, 9)]


def test_isomorphic():
    assert oracle.isomorphic(3, [(0, 1), (1, 2)], 3, [(2, 0), (0, 1)])
    assert not oracle.isomorphic(3, [(0, 1), (1, 2)], 2, [(0, 1)])
    # two 4-cycles against one 8-cycle between the middle levels: every
    # vertex has the same (level, in, out) on both sides
    squares = _layered([(1, 5), (1, 6), (2, 5), (2, 6), (3, 7), (3, 8), (4, 7), (4, 8)])
    octagon = _layered([(1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (3, 8), (4, 8), (4, 5)])

    def invariants(edges):
        level = oracle.levels(10, edges)
        return sorted(
            (level[v], sum(b == v for _, b in edges), sum(a == v for a, _ in edges))
            for v in range(10)
        )

    assert invariants(squares) == invariants(octagon)
    assert not oracle.isomorphic(10, squares, 10, octagon)
    assert oracle.isomorphic(10, squares, 10, squares[::-1])


def _conset_imports(path: Path) -> set[str]:
    """Names a module imports from conset; a plain `import conset` counts
    as the name "conset"."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "conset":
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "conset"}
    return names


def test_oracles_take_only_handles_and_graphs_from_the_library():
    allowed = {"SetHandle", "make_set", "parse", "StructureGraph"}
    assert _conset_imports(ROOT / "tests" / "_oracles.py") <= allowed
    assert _conset_imports(ROOT / "perfbench" / "oracle.py") == set()
    assert Path(oracle.__file__).resolve() == (ROOT / "perfbench" / "oracle.py").resolve()


def test_no_test_module_imports_another():
    # shared helpers live in _shapes and _oracles, so that each test module
    # can be run, moved or deleted on its own
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            found += [(path.name, n) for n in names if n.startswith("test_")]
    assert found == []
