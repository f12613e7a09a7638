"""The README's examples: its Python tour runs and its console lines print
what they show.

A console line `$ conset ...` runs through cli.main; the lines after it, up to
the next `$` or the end of the block, are its stdout.  A last line `...` means
the output only starts with the lines above it, and a command shown without
output is only run.  The commands CI runs are the ones the README lists.
"""

import re
import shlex
from pathlib import Path

import pytest

from conset.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
WORKFLOW = README.parent / ".github" / "workflows" / "tests.yml"
# every check is a test, so CI installs, runs tier-1 and runs the scale module
CI_COMMANDS = [
    "python -m pip install pytest hypothesis",
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors --durations=10",
    "python -m pytest -q tests/scale_checks.py",
]


def _blocks(lang: str) -> list[list[str]]:
    blocks: list[list[str]] = []
    current = None
    for line in README.read_text(encoding="utf-8").splitlines():
        if current is None:
            if line == "```" + lang:
                current = []
        elif line == "```":
            blocks.append(current)
            current = None
        else:
            current.append(line)
    return blocks


def _commands() -> list[tuple[list[str], list[str]]]:
    commands: list[tuple[list[str], list[str]]] = []
    for block in _blocks("console"):
        for line in block:
            if line.startswith("$ "):
                commands.append((shlex.split(line[2:], comments=True), []))
            else:
                commands[-1][1].append(line)
    return commands


COMMANDS = _commands()


def test_readme_shows_examples():
    assert len(_blocks("python")) >= 1
    assert len(COMMANDS) >= 17


@pytest.mark.parametrize("source", _blocks("python"))
def test_python_tour_runs(source):
    exec("\n".join(source), {})


@pytest.mark.parametrize(
    "argv, expected", COMMANDS, ids=[shlex.join(a) for a, _ in COMMANDS]
)
def test_console_line(capsys, argv, expected):
    assert argv[0] == "conset"
    main(argv[1:])
    out = capsys.readouterr().out.splitlines()
    if expected[-1:] == ["..."]:
        assert out[: len(expected) - 1] == expected[:-1]
    elif expected:
        assert out == expected


def test_ci_runs_only_the_listed_commands():
    runs = re.findall(r"^\s*(?:- )?run:(.*)$", WORKFLOW.read_text(encoding="utf-8"), re.M)
    assert [r.strip() for r in runs] == CI_COMMANDS
    readme = README.read_text(encoding="utf-8")
    assert all(command in readme for command in CI_COMMANDS)
