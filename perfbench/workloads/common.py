"""Pieces shared by the workloads: seeded inputs, the query context, checks.

A workload module provides

- ``spec(seed)``: pure Python, run by run.py in the parent process; returns the inputs
  (brace texts and their oracle-canonical forms), the query schedule and the
  names of the limit probes;
- ``KINDS``: query kind -> (run, check).  ``run(ctx, args)`` is the timed
  call; ``check(ctx, args, result)`` is untimed, compares the answer with an
  oracle and returns a short token for the answer digest;
- ``PROBES``: name -> callable taking the conset package;
- optionally ``build_graphs(c, spec)`` for diagram inputs, ``TRACE_QUERIES``
  (queries in a traced run; one pass by default) and ``ONE_PASS`` (each
  process runs the schedule once).
"""

from __future__ import annotations

import hashlib
import random

import oracle


class Mismatch(Exception):
    """An answer disagrees with its oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def token(text: str) -> str:
    """Short digest token of an answer text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_text(handle, expected: str) -> str:
    expect(handle.text == expected, f"got {handle.text[:60]!r}, expected {expected[:60]!r}")
    return token(expected)


class Context:
    """What the query functions see: the package and the parsed inputs."""

    def __init__(self, c, spec: dict, handles: list, graphs: list):
        self.c = c
        self.spec = spec
        self.H = handles
        self.T = spec["canon"]
        self.G = graphs


class Inputs:
    """Brace-text inputs, deduplicated, each with its oracle-canonical text."""

    def __init__(self) -> None:
        self.texts: list[str] = []
        self.canon: list[str] = []
        self._index: dict[str, int] = {}

    def add(self, text: str, canonical: str | None = None) -> int:
        canonical = oracle.canon(text) if canonical is None else canonical
        got = self._index.get(canonical)
        if got is None:
            got = self._index[canonical] = len(self.texts)
            self.texts.append(text)
            self.canon.append(canonical)
        return got


def raw_set(rng: random.Random, depth: int, width: int) -> str:
    """Brace text shaped like the package's seeded corpus stream: each level
    draws 0..width children.  Element order and duplicates are left as drawn,
    so parsing has to normalize them."""
    if depth <= 0:
        return "{}"
    return "{" + ",".join(raw_set(rng, depth - 1, width) for _ in range(rng.randint(0, width))) + "}"


def corpus(rng: random.Random, depth: int, width: int, count: int, lo: int, hi: int):
    """`count` distinct (raw, canonical) texts with canonical length in [lo, hi]."""
    seen: set[str] = set()
    out: list[tuple[str, str]] = []
    for _ in range(1000 * count):
        if len(out) == count:
            return out
        raw = raw_set(rng, depth, width)
        can = oracle.canon(raw)
        if lo <= len(can) <= hi and can not in seen:
            seen.add(can)
            out.append((raw, can))
    raise ValueError(f"fewer than {count} distinct sets of that shape and length")


def pool(rng: random.Random, depth: int, width: int, draws: int, hi: int) -> list[str]:
    """Distinct canonical texts of at most `hi` characters among `draws` draws."""
    found = {oracle.canon(raw_set(rng, depth, width)) for _ in range(draws)}
    return sorted((t for t in found if len(t) <= hi), key=oracle.shortlex)


def pick_independent(rng: random.Random, candidates: list[str], count: int) -> list[str]:
    """`count` candidates, pairwise distinct and none inside another."""
    for _ in range(10_000):
        got = [rng.choice(candidates) for _ in range(count)]
        if oracle.independent(got):
            return got
    raise ValueError("no independent choice among the candidates")


def memcap_vn40(c) -> None:
    """Limit probe of every workload: the text of vn(40) has 5*2**39 - 1
    characters, so the address-space cap must turn it into a MemoryError
    under any representation of sets."""
    len(c.vn(40).text)


def spec_dict(inputs: Inputs, queries: list, probes: list, **extra) -> dict:
    return {"texts": inputs.texts, "canon": inputs.canon, "queries": queries, "probes": probes, **extra}
