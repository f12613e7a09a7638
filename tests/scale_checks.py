"""Scale checks: the constructions at the sizes where they matter, and the
benchmark's verdict on its own answers.  Run with

    python -m pytest -q tests/scale_checks.py

pytest collects only `test_*.py` unless given a path, so tier-1 leaves this
module out.  Each check runs the CLI, a Python snippet or `perfbench/run.py`
in a fresh interpreter under its own timeout and compares the output bytes.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# src for conset, tests for the shapes and oracles the snippets import
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}


def run(args: list[str], stdin: str = "", timeout: float | None = None, status: int = 0):
    """Run `python args` from the repository root and check its exit status."""
    done = subprocess.run([sys.executable, *args], input=stdin.encode(), capture_output=True,
                          cwd=ROOT, env=ENV, timeout=timeout)
    assert done.returncode == status, done.stderr.decode()[-2000:]
    return done


def cli(*args: str, stdin: str = "", timeout: float | None = None) -> bytes:
    """The stdout of `python -m conset.cli args`."""
    return run(["-m", "conset.cli", *args], stdin, timeout).stdout


def python(code: str, stdin: str = "", timeout: float | None = None) -> None:
    """Run a snippet whose asserts are the check."""
    run(["-c", textwrap.dedent(code)], stdin, timeout)


def test_deep_brace_literal():
    # `eval` reads a brace-only literal with the reader `canon` uses, so
    # 10^5 nested braces print the same bytes in about the same time
    nested = "{" * 10**5 + "}" * 10**5 + "\n"
    assert cli("eval", "-", stdin=nested, timeout=30) == cli("canon", "-", stdin=nested, timeout=30)


def test_malformed_and_spaced_brace_text():
    # a refused text keeps its message and offset, and whitespace of any
    # kind between braces is dropped before the text is read
    err = run(["-m", "conset.cli", "canon", "{{} {}}"], status=3).stderr
    assert err == b"syntax error: missing comma before offset 4\n"
    bare = "{{},{{}},{{},{{}}}}"
    spaced = "\t\n\u00a0".join(bare)
    assert cli("canon", "-", stdin=spaced + "\n") == cli("canon", "-", stdin=bare + "\n")


def test_deep_non_literal_braces():
    # braces around a name are read by the grammar, brace by brace, with
    # the reader's own stack and no interpreter frame per level
    program = "let s = {}; " + "{" * 10**5 + "s" + "}" * 10**5 + "\n"
    literal = "{" * 10**5 + "{}" + "}" * 10**5 + "\n"
    assert cli("eval", "-", stdin=program, timeout=30) == cli("canon", "-", stdin=literal, timeout=30)


def test_deep_compose_and_replace():
    # a numeral applied to s, then s replaced deep inside it: both rebuild a
    # run of 10^5 singletons with the kernel's fold
    program = "let s = {{}}; let a = 100000(s); a(s -> {s})\n"
    literal = "{" * 100001 + "{{}}" + "}" * 100001 + "\n"
    assert cli("eval", "-", stdin=program, timeout=30) == cli("canon", "-", stdin=literal, timeout=30)


def test_deep_runs_printed_with_a_shared_run():
    # s is a run of 10^5 singletons met twice, so its text is joined once
    # and read back where the second run of braces stops
    z = "{" * 100001 + "}" * 100001
    want = "{" + z + ",{" + z + "}}\n"
    assert cli("eval", "-", stdin="let s = 100000; {s, {s}}\n", timeout=30) == want.encode()


def test_deep_middle():
    # the middle over a 10^5-deep numeral and V3 is read from how middle
    # builds it, with no walk of its set, and close gives back the entries
    # as a set
    literal = "{" + "{" * 100001 + "}" * 100001 + ",{{},{{}},{{},{{}}}}}\n"
    want = cli("canon", "-", stdin=literal, timeout=30)
    assert cli("close", "-", stdin="[100000, V3]M\n", timeout=30) == want


def test_deep_tuple_extraction():
    # slot 1 of the inner tuple holds a 10^5-deep numeral; extraction walks
    # only what ranks above the slot's marker and strips it
    want = cli("eval", "100000", timeout=30)
    assert cli("tuple", "get", "(V3, (2, 100000))", "1,1", timeout=30) == want


MIDDLE_300 = "[" + ", ".join(map(str, range(300))) + "]M"


def test_wide_tuples_and_middles():
    # 10^4 slot markers are built once into the marker table, and close
    # finds the reading of the 300-entry middle in fusion's memo, where
    # middle put it from its construction with no walk
    wide = "(" + ", ".join(str(i % 10) for i in range(10**4)) + ")"
    assert cli("tuple", "get", wide, "9999", timeout=30) == b"{" * 10 + b"}" * 10 + b"\n"
    want = "{" + ",".join("{" * i + "}" * i for i in range(1, 301)) + "}\n"
    assert cli("close", "-", stdin=MIDDLE_300 + "\n", timeout=30) == want.encode()


def test_wide_middles_fused_and_closed():
    # the 300-entry middle is fused with itself and the result closed: the
    # middle is read from its construction, fuse walks it once as a top,
    # and close walks the fused set
    program = f"close(fuse({MIDDLE_300}, {MIDDLE_300}))\n"
    want = "{" + ",".join("{" * (2 * n + 1) + "}" * (2 * n + 1) for n in range(300)) + "}\n"
    assert cli("eval", "-", stdin=program, timeout=30) == want.encode()


def test_wide_middles_fused_and_closed_with_no_walk():
    # a 300-entry middle fused onto a 300-slot wiring, and the result fused
    # onto the middle again: both fusions are wired middles, read from their
    # operands' construction, so fusing and closing walk no set and parse no
    # marker; the reading must be the one a walk gives, and the closed
    # branches compose entry n with entry perm(n)
    python("""
        from conset import close, fuse_middle, fusion, make_set, middle, middle_permutation
        from conset.numerals import zermelo
        perm = [299 - n for n in range(300)]
        m = middle([zermelo(n % 40) for n in range(300)])
        calls = []
        for name in ("_read", "_parse_marker"):
            real = getattr(fusion, name)
            setattr(fusion, name, lambda *a, real=real: calls.append(real) or real(*a))
        f = fuse_middle(fuse_middle(m, middle_permutation(perm)), m)
        closed = close(f)
        assert calls == [], len(calls)
        assert fusion._read_middle(f.set, 0) == fusion._read_middle.__wrapped__(f.set, 0)
        assert closed is make_set([zermelo(n % 40 + perm[n] % 40) for n in range(300)])
        """, timeout=30)


def test_wide_middle_read_from_its_construction():
    # a 2,000-entry middle of numerals, slot markers, tuples, middles and
    # corpus sets is read from how middle builds it; that reading must be
    # the one a walk of its set gives, and close gives back the entries
    # with no marker parsed, since the reading holds the branches
    python("""
        from conset import close, fusion, make_set, middle
        from conset.corpus import generate
        from conset.numerals import vn, zermelo
        from conset.tuples import diamond, make_tuple, position
        corpus = generate(1, 50, max_depth=4)
        kinds = [
            zermelo,
            vn,
            position,
            lambda i: make_tuple([zermelo(i % 7), diamond()]),
            lambda i: middle([zermelo(i % 3), diamond()]).set,
            lambda i: corpus[i],
        ]
        es = [kinds[i % 6](i % 40) for i in range(2000)]
        m = middle(es)
        parsed = []
        real = fusion._parse_marker
        fusion._parse_marker = lambda mk: parsed.append(mk) or real(mk)
        assert close(m) is make_set(es)
        assert parsed == [], len(parsed)
        fusion._parse_marker = real
        assert fusion._read_middle(m.set, 0) == fusion._read_middle.__wrapped__(m.set, 0)
        """, timeout=20)


def test_deep_diagram_read_back_from_json():
    # the 2001 tags of the diagram of zermelo(2000), 4 MB of JSON, are all
    # constituents of the top's tag, so they are read with one parse
    diagram = cli("structure", "2000", "--format", "json", timeout=20).decode()
    python("""
        import sys
        from conset import graph_from_json, structure_of
        from conset.numerals import zermelo
        assert graph_from_json(sys.stdin.read()) == structure_of(zermelo(2000))
        """, stdin=diagram, timeout=20)


def test_long_chain_diagram_to_dot():
    # a chain of 10^5 covering edges has 10^5 + 1 levels; its declarations
    # are grouped by level in one pass over the vertices, not one per level
    python("""
        from conset.structure import chain_graph, to_dot
        n = 10**5
        lines = to_dot(chain_graph(n)).splitlines()
        assert len(lines) == 3 + (n + 1) + n + 1
        assert lines[3] == '  { rank=same; v0 [label="v0"]; }'
        assert lines[3 + n] == f'  {{ rank=same; v{n} [label="v{n}"]; }}'
        assert lines[-2] == f'  v{n - 1} -> v{n};'
        """, timeout=20)


def test_wide_certificate_searches():
    # a CFI pair over a 16-vertex 3-regular base (n = 210) is decided both
    # ways, and a fan of 100 two-vertex branches gets the certificate of a
    # relabelled copy; refinement signs only what each split reaches
    python("""
        from conset import isomorphic
        from _shapes import cfi
        assert isomorphic(cfi(16, 1, False), cfi(16, 1, True)) is None
        """, timeout=20)
    python("""
        import random
        from conset import isomorphic
        from _shapes import cfi, shuffled
        g = cfi(16, 1, False)
        h = shuffled(g, random.Random(1))
        w = isomorphic(g, h)
        assert w is not None
        assert {(w.mapping[a], w.mapping[b]) for a, b in g.edges} == set(h.edges)
        """, timeout=20)
    python("""
        import random
        from conset import canonical_cert
        from _shapes import fan, shuffled
        g = fan(*[2] * 100)
        assert canonical_cert(shuffled(g, random.Random(1))) == canonical_cert(g)
        """, timeout=20)


def test_a_failing_property_prints_its_example(tmp_path):
    # under the repository's warning filters, hypothesis must still report a
    # failure: its patch writer imports libcst, which warns on import
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 10
        """))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_fails.py"],
        capture_output=True, cwd=tmp_path, env=ENV, timeout=60,
    )
    out = done.stdout.decode() + done.stderr.decode()
    assert done.returncode == 1, out[-2000:]
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out[-2000:]


# Besides the memory cap, the decomposition search must answer
# has_top_budget in budget, and handles keep text lengths, not texts, so
# depth-10^5 chains and numerals whose text is too long to write fit under
# the cap.
PROBES = {
    "algebra_corpus": "parse_nested_100000",
    "fusion_tuples": "has_top_budget",
    "structure_iso": "iso_numeral_n40",
    "deep_programs": None,
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", PROBES)
def test_benchmark_answers_correctly(workload, trace):
    # run.py exits 0 even on a wrong answer, so the verdict is read from the
    # JSON summary on its last stdout line; the traced runs go through the
    # per-layer wrappers as well
    args = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    lines = run(["perfbench/run.py", *args]).stdout.decode().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True, lines[-1]
    if trace:
        return
    # vn(40)'s text has 2.7 TB, so rendering it must hit the memory cap
    assert "probe memcap_vn40_text: MemoryError" in lines
    if PROBES[workload]:
        assert f"probe {PROBES[workload]}: passed" in lines
    if workload == "deep_programs":
        # deep chains must cost memory per distinct subterm, not per depth
        # squared or per character (it reads about 34 MiB)
        assert summary["metrics"]["peak_rss_mb"]["value"] <= 50
