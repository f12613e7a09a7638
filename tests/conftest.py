"""Shared fixtures: deterministic seeded corpora and derived samples."""
from __future__ import annotations

import random
import sys

import pytest

from conset import constituents, fusion
from conset.corpus import generate


@pytest.fixture(autouse=True)
def no_memoized_middles():
    """Start each test with fusion's middle readings unmemoized, so that no
    count of reads depends on the tests that ran before it."""
    fusion._read_middle.cache_clear()


@pytest.fixture(scope="class")
def default_recursion_limit():
    """Pin the interpreter's default recursion limit, restoring the old one after.

    The library must never need more; pinning it keeps a limit raised by code
    that ran earlier in the test run from hiding a deep Python recursion.
    """
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


@pytest.fixture(scope="session")
def corpus200():
    """200 pseudo-random sets, nesting depth at most 4."""
    return generate(101, 200, max_depth=4)


@pytest.fixture(scope="session")
def corpus1000():
    """1000 pseudo-random sets, nesting depth at most 5."""
    return generate(7, 1000, max_depth=5)


@pytest.fixture(scope="session")
def triples1000(corpus1000):
    """1000 deterministic (x, y, z) triples for replacement laws.

    Half the y values are drawn from the constituents of x so that
    replacements actually fire; the rest are unrelated corpus members.
    """
    rng = random.Random(42)
    triples = []
    n = len(corpus1000)
    for i, x in enumerate(corpus1000):
        if rng.random() < 0.5:
            y = rng.choice(constituents(x))
        else:
            y = corpus1000[rng.randrange(n)]
        z = corpus1000[rng.randrange(n)]
        triples.append((x, y, z))
    return triples


@pytest.fixture(scope="session")
def pairs500(corpus1000):
    """500 deterministic (a, b) pairs."""
    return list(zip(corpus1000[:500], corpus1000[500:]))
