"""One handle per set, checked against a model.

A state machine keeps the live handles, each with the canonical text that
the independent text oracle gives for the operation that made it, applies
operations drawn at random and checks after every step that a handle is
the one handle of its set: two live handles are the same object exactly
when their texts are equal, and the handle reads back, rebuilds from its
elements and counts as its text says.  A second run in a fresh interpreter
cuts the hashes of frozensets to 3 bits before conset is imported, so
most sets of two or more elements share their int key with another set and
are interned under their element set.
"""
from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from _oracles import nesting_depth, oracle
from conset import (
    EMPTY,
    close,
    compose,
    elements,
    get_at,
    instance_count,
    make_set,
    make_tuple,
    middle,
    parse,
    replace,
)
from conset.expr import evaluate
from conset.kernel import _wrap
from conset.numerals import vn, zermelo

# a made set whose text is longer is checked once and not kept, so that
# the steps after it stay cheap
LONGEST = 600


class IdentityModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.live: list[tuple[object, str]] = [(EMPTY, "{}")]

    def made(self, h, text: str) -> None:
        """Check a handle made by a rule against its oracle text; keep it."""
        assert h.text == text
        if len(text) <= LONGEST:
            self.live.append((h, text))

    def pick(self, data, least: int = 1, most: int = 3) -> list[tuple[object, str]]:
        """Live handles with their texts, repeats allowed."""
        return data.draw(st.lists(st.sampled_from(self.live), min_size=least, max_size=most))

    @rule(data=st.data())
    def make_a_set(self, data):
        picks = self.pick(data, 0)
        self.made(make_set([h for h, _ in picks]), oracle.make([t for _, t in picks]))

    @rule(data=st.data())
    def parse_a_text(self, data):
        # elements in the order drawn, repeats kept, blanks between them
        raw = "{ " + " , ".join(t for _, t in self.pick(data)) + " }"
        self.made(parse(raw), oracle.canon(raw.replace(" ", "")))

    @rule(data=st.data(), n=st.integers(0, 40))
    def wrap(self, data, n):
        ((x, t),) = self.pick(data, 1, 1)
        self.made(_wrap(n, x), "{" * n + t + "}" * n)

    @rule(n=st.integers(0, 40))
    def successor_numeral(self, n):
        self.made(zermelo(n), oracle.zermelo(n))

    @rule(n=st.integers(0, 6))
    def cumulative_numeral(self, n):
        self.made(vn(n), oracle.vn(n))

    @rule(data=st.data())
    def replace_a_constituent(self, data):
        (x, tx), (z, tz) = self.pick(data, 2, 2)
        ty = data.draw(st.sampled_from(sorted(oracle.constituents(tx), key=oracle.shortlex)))
        self.made(replace(x, parse(ty), z), oracle.replace(tx, ty, tz))

    @rule(data=st.data())
    def compose_two(self, data):
        (x, tx), (y, ty) = self.pick(data, 2, 2)
        self.made(compose(x, y), oracle.compose(tx, ty))

    @rule(data=st.data())
    def tuple_and_its_entries(self, data):
        # two entries at least: get_at of a 1-tuple gives {x} (test_tuples)
        picks = self.pick(data, 2, 4)
        t = make_tuple([h for h, _ in picks])
        self.made(t, oracle.make_tuple([e for _, e in picks]))
        for i, (h, _) in enumerate(picks):
            assert get_at(t, [i]) is h

    @rule(data=st.data())
    def middle_and_close(self, data):
        picks = self.pick(data)
        m = middle([h for h, _ in picks])
        parts = [oracle.middle_entry(n, e, n) for n, (_, e) in enumerate(picks)]
        self.made(m.set, oracle.make(parts))
        self.made(close(m), oracle.make([e for _, e in picks]))

    @rule(data=st.data())
    def evaluate_a_program(self, data):
        (a, ta), (b, tb) = self.pick(data, 2, 2)
        h = evaluate(f"let a = {ta}; let b = {tb}\n(a(b), b)")
        self.made(h, oracle.make_tuple([oracle.compose(ta, tb), tb]))

    @rule(data=st.data())
    def pickle_round_trip(self, data):
        picks = self.pick(data)
        for h, (_, t) in zip(pickle.loads(pickle.dumps([h for h, _ in picks])), picks):
            self.made(h, t)

    @rule(data=st.data())
    def deep_copy(self, data):
        picks = self.pick(data)
        for h, (_, t) in zip(copy.deepcopy([h for h, _ in picks]), picks):
            self.made(h, t)

    @invariant()
    def one_handle_per_set(self):
        by_text: dict[str, object] = {}
        for h, t in self.live:
            assert by_text.setdefault(t, h) is h
        assert len(set(map(id, by_text.values()))) == len(by_text)
        for t, h in by_text.items():
            assert h.text == t
            assert parse(t) is h
            assert make_set(elements(h)) is h
            assert (h.rank, h.size) == (nesting_depth(h), len(t))
            assert instance_count(h) == oracle.instance_count(t)


RUN = settings(
    derandomize=True, database=None, deadline=None, max_examples=12, stateful_step_count=25
)


def test_one_handle_per_set():
    run_state_machine_as_test(IdentityModel, settings=RUN)


def test_one_handle_per_set_when_hashes_collide():
    # builtins.hash is wrapped before conset is imported, so EMPTY too is
    # interned under its cut hash; the run must put sets under frozensets
    code = """
        import builtins
        real = builtins.hash
        builtins.hash = lambda x: real(x) & 7 if x.__class__ is frozenset else real(x)
        from conset import kernel
        import test_identity
        test_identity.test_one_handle_per_set()
        keyed = sum(k.__class__ is frozenset for k in kernel._table)
        assert keyed > 100, keyed
        """
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, cwd=tests.parent, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()[-3000:]
