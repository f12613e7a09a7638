"""Command-line interface tests, run in-process via main(argv).

Structure/iso outputs are frozen as golden files under tests/golden/;
everything else is checked against the library functions the subcommands
delegate to, plus exact exit codes.
"""

import argparse
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conset
from conset import cli, compose, constituents, make_set
from conset.cli import EXIT_DOMAIN, EXIT_FALSE, EXIT_OK, EXIT_SYNTAX, main
from conset.corpus import generate
from conset.errors import ExprSyntaxError
from conset.expr import evaluate
from conset.numerals import vn, zermelo
from conset.structure import structure_of, to_dot, to_json
from conset.tuples import diamond, get_at, position_path

GOLDEN = Path(__file__).parent / "golden"
Z = zermelo


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_eval_prints_canonical_text(self, capsys):
        code, out, err = run(capsys, "eval", "1(1)")
        assert (code, out, err) == (EXIT_OK, "{{{}}}\n", "")

    def test_eval_reads_stdin_when_omitted(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("V3"))
        code, out, _ = run(capsys, "eval")
        assert (code, out) == (EXIT_OK, vn(3).text + "\n")

    def test_eval_dash_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("let a = 2; a(a)"))
        code, out, _ = run(capsys, "eval", "-")
        assert (code, out) == (EXIT_OK, compose(Z(2), Z(2)).text + "\n")

    def test_syntax_error_exits_3(self, capsys):
        code, out, err = run(capsys, "eval", "(1)")
        assert code == EXIT_SYNTAX
        assert out == ""
        assert err.startswith("syntax error: ")

    def test_non_decimal_digit_exits_3(self, capsys):
        code, out, err = run(capsys, "eval", "²")
        assert (code, out) == (EXIT_SYNTAX, "")
        assert err.startswith("syntax error: ")

    @pytest.mark.skipif(not sys.get_int_max_str_digits(), reason="no int digit limit")
    @pytest.mark.parametrize("form", ["{}", "V{}", "P({})"])
    def test_numeral_past_the_int_digit_limit_exits_3(self, capsys, form):
        src = form.format("1" * (sys.get_int_max_str_digits() + 1))
        code, out, err = run(capsys, "eval", src)
        assert (code, out) == (EXIT_SYNTAX, "")
        assert err.startswith("syntax error: numeral too long at offset ")


class TestCanonCardConstituentsInstances:
    def test_canon_normalizes(self, capsys):
        code, out, _ = run(capsys, "canon", " { { } , {} } ")
        assert (code, out) == (EXIT_OK, "{{}}\n")

    def test_canon_rejects_malformed(self, capsys):
        code, _, err = run(capsys, "canon", "{{")
        assert code == EXIT_SYNTAX
        assert err.startswith("syntax error: ")

    def test_card(self, capsys):
        assert run(capsys, "card", "V3")[:2] == (EXIT_OK, "3\n")
        assert run(capsys, "card", "{}")[:2] == (EXIT_OK, "0\n")

    def test_constituents_one_per_line(self, capsys):
        code, out, _ = run(capsys, "constituents", "D")
        expected = "".join(c.text + "\n" for c in constituents(diamond()))
        assert (code, out) == (EXIT_OK, expected)
        assert len(out.splitlines()) == 5

    def test_instances(self, capsys):
        assert run(capsys, "instances", "V5")[:2] == (EXIT_OK, "32\n")
        assert run(capsys, "instances", "5")[:2] == (EXIT_OK, "6\n")


class TestStructure:
    def test_default_format_is_dot(self, capsys):
        code, out, _ = run(capsys, "structure", "V2")
        assert code == EXIT_OK
        assert out == to_dot(structure_of(vn(2)))

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "structure", "D", "--format", "json")
        assert code == EXIT_OK
        assert out == to_json(structure_of(diamond()))

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "structure", "V2", "--format", "text")
        assert code == EXIT_OK
        assert out == (
            "vertices:\n"
            "  0  {}\n"
            "  1  {{}}\n"
            "  2  {{},{{}}}\n"
            "edges:\n"
            "  0 -> 1\n"
            "  1 -> 2\n"
            "top: 2\n"
            "bottom: 0\n"
        )

    def test_three_element_chain_golden(self, capsys):
        code, out, _ = run(capsys, "structure", "{{},{{}}}")
        assert code == EXIT_OK
        assert out == (GOLDEN / "v2_structure.dot").read_text()

    def test_diamond_golden(self, capsys):
        code, out, _ = run(capsys, "structure", "D")
        assert code == EXIT_OK
        assert out == (GOLDEN / "diamond_structure.dot").read_text()

    def test_output_is_deterministic_across_runs(self, capsys):
        first = run(capsys, "structure", "kpair(2, V3)")
        second = run(capsys, "structure", "kpair(2, V3)")
        assert first == second
        j1 = run(capsys, "structure", "kpair(2, V3)", "--format", "json")
        j2 = run(capsys, "structure", "kpair(2, V3)", "--format", "json")
        assert j1 == j2


class TestIso:
    def test_graded_numerals_golden(self, capsys):
        code, out, _ = run(capsys, "iso", "5", "V5")
        assert code == EXIT_OK
        assert out == (GOLDEN / "iso_z5_v5.txt").read_text()
        lines = out.splitlines()
        assert lines[0] == "ISO"
        assert len(lines) == 7

    def test_not_iso_exits_1(self, capsys):
        code, out, _ = run(capsys, "iso", "D", "3")
        assert (code, out) == (EXIT_FALSE, "NOT-ISO\n")

    def test_deterministic(self, capsys):
        assert run(capsys, "iso", "5", "V5") == run(capsys, "iso", "5", "V5")


class TestTuple:
    def test_get(self, capsys):
        code, out, _ = run(capsys, "tuple", "get", "(1, V2)", "1")
        assert (code, out) == (EXIT_OK, vn(2).text + "\n")

    def test_get_nested_path(self, capsys):
        t_expr = "((2, V2), 3)"
        expected = get_at(evaluate(t_expr), [0, 0])
        code, out, _ = run(capsys, "tuple", "get", t_expr, "0,0")
        assert (code, out) == (EXIT_OK, expected.text + "\n")

    def test_get_missing_position_is_domain_error(self, capsys):
        code, out, err = run(capsys, "tuple", "get", "(1, V2)", "5")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error: ")

    def test_has_true_exits_0(self, capsys):
        code, out, _ = run(capsys, "tuple", "has", "(1, V2)", "1")
        assert (code, out) == (EXIT_OK, "true\n")

    def test_has_false_exits_2(self, capsys):
        code, out, _ = run(capsys, "tuple", "has", "(1, V2)", "5")
        assert (code, out) == (EXIT_DOMAIN, "false\n")

    def test_malformed_path_is_syntax_error(self, capsys):
        code, _, err = run(capsys, "tuple", "get", "(1, V2)", "1,x")
        assert code == EXIT_SYNTAX
        assert err.startswith("syntax error: ")

    def test_negative_coordinate_is_syntax_error(self, capsys):
        code, out, err = run(capsys, "tuple", "get", "(1, 2)", "-1")
        assert (code, out) == (EXIT_SYNTAX, "")
        assert err == "syntax error: malformed path '-1': coordinates must be naturals\n"

    @pytest.mark.parametrize("path", ["1_0", "+1", "1 0", "1\n", "0x1", ""])
    def test_coordinate_that_p_refuses_is_syntax_error(self, capsys, path):
        # a coordinate is read as P(...) reads one, so 1_0 is not slot 10
        with pytest.raises(ExprSyntaxError):
            evaluate(f"P({path})")
        code, out, err = run(capsys, "tuple", "get", "(1, 2)", path)
        assert (code, out) == (EXIT_SYNTAX, "")
        want = f"syntax error: malformed path {path!r}: expected naturals separated by commas\n"
        assert err == want

    @pytest.mark.parametrize("path", ["1,-1", "-0"])
    def test_any_negative_coordinate_keeps_its_message(self, capsys, path):
        code, _, err = run(capsys, "tuple", "has", "(1, 2)", path)
        assert code == EXIT_SYNTAX
        assert err == f"syntax error: malformed path {path!r}: coordinates must be naturals\n"

    @pytest.mark.parametrize("path", [" 1 ", "\t1 ,\r0"])
    def test_blanks_around_a_coordinate_are_read_as_p_reads_them(self, capsys, path):
        t = "((1, 2), 3)"
        coords = [int(c) for c in path.split(",")]
        want = get_at(evaluate(t), coords).text + "\n"
        assert evaluate(f"P({path})") is position_path(coords)
        assert run(capsys, "tuple", "get", t, path)[:2] == (EXIT_OK, want)


class TestNum:
    def test_add_auto_picks_the_valid_scheme(self, capsys):
        assert run(capsys, "num", "add", "2", "3")[:2] == (EXIT_OK, Z(5).text + "\n")
        assert run(capsys, "num", "add", "V2", "V3")[:2] == (EXIT_OK, vn(5).text + "\n")

    def test_add_ambiguous_requires_scheme(self, capsys):
        code, out, err = run(capsys, "num", "add", "0", "1")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "ambiguous numerals (valid in both schemes); pass --scheme\n"
        code, out, _ = run(capsys, "num", "add", "0", "1", "--scheme", "zermelo")
        assert (code, out) == (EXIT_OK, Z(1).text + "\n")

    def test_add_non_numerals_rejected(self, capsys):
        code, out, err = run(capsys, "num", "add", "D", "2")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "operands are not numerals of one scheme\n"

    def test_mul(self, capsys):
        assert run(capsys, "num", "mul", "2", "3")[:2] == (EXIT_OK, Z(6).text + "\n")

    def test_mul_rejects_foreign_operand(self, capsys):
        code, _, err = run(capsys, "num", "mul", "V2", "2")
        assert code == EXIT_DOMAIN
        assert err.startswith("error: ")

    def test_encode(self, capsys):
        assert run(capsys, "num", "encode", "3", "--scheme", "zermelo")[:2] == (
            EXIT_OK,
            Z(3).text + "\n",
        )
        assert run(capsys, "num", "encode", "3", "--scheme", "vn")[:2] == (
            EXIT_OK,
            vn(3).text + "\n",
        )

    def test_encode_requires_scheme(self, capsys):
        with pytest.raises(SystemExit):
            main(["num", "encode", "3"])

    def test_encode_rejects_negative(self, capsys):
        code, out, err = run(capsys, "num", "encode", "-1", "--scheme", "vn")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "value must be a natural number\n"

    def test_decode(self, capsys):
        assert run(capsys, "num", "decode", "V3")[:2] == (EXIT_OK, "3\n")
        assert run(capsys, "num", "decode", "{{{}}}")[:2] == (EXIT_OK, "2\n")

    def test_decode_ambiguous(self, capsys):
        code, out, err = run(capsys, "num", "decode", "1")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "ambiguous numeral (valid in both schemes); pass --scheme\n"
        assert run(capsys, "num", "decode", "1", "--scheme", "vn")[:2] == (EXIT_OK, "1\n")

    def test_decode_non_numeral(self, capsys):
        code, _, err = run(capsys, "num", "decode", "D")
        assert code == EXIT_DOMAIN
        assert err == "not a numeral in either scheme\n"

    def test_decode_wrong_scheme(self, capsys):
        code, _, err = run(capsys, "num", "decode", "V3", "--scheme", "zermelo")
        assert code == EXIT_DOMAIN
        assert err == "not a zermelo numeral\n"


PAIR_TOP = "{{P(0)},{P(0),P(1)}}"


class TestFuseClose:
    def test_fuse(self, capsys):
        code, out, _ = run(capsys, "fuse", "(0,0,0)", "{D(1), 1D(2), 2D(V2)}")
        assert (code, out) == (EXIT_OK, make_set([Z(1), Z(2), vn(2)]).text + "\n")

    def test_fuse_mismatch_is_domain_error(self, capsys):
        code, _, err = run(capsys, "fuse", "(0,0)", "{D(1), 1D(2), 2D(V2)}")
        assert code == EXIT_DOMAIN
        assert err.startswith("error: ")

    def test_check_top_true(self, capsys):
        code, out, _ = run(capsys, "fuse", PAIR_TOP, "kpair(3, V3)", "--check-top")
        assert (code, out) == (EXIT_OK, "true\n")

    def test_check_top_false_exits_1(self, capsys):
        code, out, _ = run(capsys, "fuse", PAIR_TOP, "5", "--check-top")
        assert (code, out) == (EXIT_FALSE, "false\n")

    def test_check_bottom_true(self, capsys):
        code, out, _ = run(
            capsys, "fuse", "{1, 2, V2}", "{D(1), 1D(2), 2D(V2)}", "--check-bottom"
        )
        assert (code, out) == (EXIT_OK, "true\n")

    def test_check_budget_exhaustion_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "fuse", PAIR_TOP, "kpair(3, V3)", "--check-top", "--budget", "1"
        )
        assert code == EXIT_DOMAIN
        assert err.startswith("error: ")

    def test_check_flags_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuse", PAIR_TOP, "kpair(3, V3)", "--check-top", "--check-bottom"])

    def test_close(self, capsys):
        code, out, _ = run(capsys, "close", "[2, V2]M")
        assert (code, out) == (EXIT_OK, diamond().text + "\n")

    def test_close_non_middle_is_domain_error(self, capsys):
        code, _, err = run(capsys, "close", "5")
        assert code == EXIT_DOMAIN
        assert err.startswith("error: ")


class TestCorpus:
    def test_matches_library_generator(self, capsys):
        code, out, _ = run(capsys, "corpus", "--seed", "3", "--count", "5")
        assert code == EXIT_OK
        assert out == "".join(h.text + "\n" for h in generate(3, 5, 4))

    def test_defaults(self, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == EXIT_OK
        assert out == "".join(h.text + "\n" for h in generate(0, 10, 4))
        assert len(out.splitlines()) == 10

    def test_byte_identical_across_runs(self, capsys):
        assert run(capsys, "corpus", "--seed", "9") == run(capsys, "corpus", "--seed", "9")

    def test_seed_changes_output(self, capsys):
        assert run(capsys, "corpus", "--seed", "1") != run(capsys, "corpus", "--seed", "2")


class TestInProcessMatchesSubprocess:
    """One in-process main serving calls in sequence answers like fresh processes."""

    ARGVS = [
        ["eval", "1(1)"],
        ["num", "decode", "2", "--scheme", "vn"],
        ["num", "decode", "2"],
        ["num", "add", "1", "1", "--scheme", "vn"],
        ["num", "encode", "3"],
        ["structure", "V2", "--format", "json"],
        ["tuple", "get", "(5, V2)", "1"],
    ]

    def test_outputs_and_exit_codes_agree(self, capsys, monkeypatch):
        # argparse wraps usage text to the terminal width, so pin it for both
        monkeypatch.setenv("COLUMNS", "80")
        src = Path(conset.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        codes = []
        for argv in self.ARGVS:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "conset.cli", *argv],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                text=True,
                env=env,
                timeout=60,
            )
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
            codes.append(code)
        assert codes == [EXIT_OK, EXIT_DOMAIN, EXIT_OK, EXIT_OK, 2, EXIT_OK, EXIT_OK]


AUTO = ("auto", "zermelo", "vn")
# Every command and nested command in order, with its arguments in order:
# subcommands as (dest, required, names), positionals as (dest, metavar,
# nargs), options as (option strings, dest, default, choices, required).
# Read from the parser rather than its help text, whose layout varies with
# the Python version.
SURFACE = {
    "": [("command", True, ("eval", "canon", "card", "constituents", "instances",
                            "structure", "iso", "tuple", "num", "fuse", "close", "corpus"))],
    "eval": [("expr", None, "?")],
    "canon": [("text", None, "?")],
    "card": [("expr", None, "?")],
    "constituents": [("expr", None, "?")],
    "instances": [("expr", None, "?")],
    "structure": [
        ("expr", None, "?"),
        (("--format",), "format", "dot", ("dot", "json", "text"), False),
    ],
    "iso": [("left", None, None), ("right", None, None)],
    "tuple": [("tuple_command", True, ("get", "has"))],
    "tuple get": [("expr", None, None), ("path", None, None)],
    "tuple has": [("expr", None, None), ("path", None, None)],
    "num": [("num_command", True, ("add", "mul", "encode", "decode"))],
    "num add": [
        ("left", None, None),
        ("right", None, None),
        (("--scheme",), "scheme", "auto", AUTO, False),
    ],
    "num mul": [("left", None, None), ("right", None, None)],
    "num encode": [
        ("value", None, None),
        (("--scheme",), "scheme", None, ("zermelo", "vn"), True),
    ],
    "num decode": [("expr", None, "?"), (("--scheme",), "scheme", "auto", AUTO, False)],
    "fuse": [
        ("top", None, None),
        ("bottom", None, None),
        (("--check-top",), "check_top", False, None, False),
        (("--check-bottom",), "check_bottom", False, None, False),
        (("--budget",), "budget", 100_000, None, False),
    ],
    "close": [("expr", None, "?")],
    "corpus": [
        (("--seed",), "seed", 0, None, False),
        (("--count",), "count", 10, None, False),
        (("--max-depth",), "max_depth", 4, None, False),
    ],
}


def _surface(parser, path=(), rows=None):
    """SURFACE as read from parser and its subparsers, depth first."""
    rows = {} if rows is None else rows
    row = rows.setdefault(" ".join(path), [])
    for a in parser._actions:
        if isinstance(a, argparse._HelpAction):
            continue
        if isinstance(a, argparse._SubParsersAction):
            row.append((a.dest, a.required, tuple(a.choices)))
            for name, sub in a.choices.items():
                _surface(sub, (*path, name), rows)
        elif a.option_strings:
            row.append((tuple(a.option_strings), a.dest, a.default, a.choices, a.required))
        else:
            row.append((a.dest, a.metavar, a.nargs))
    return rows


def test_command_line_surface():
    assert list(_surface(cli._parser()).items()) == list(SURFACE.items())
