"""Acceptance gate: one test per acceptance criterion, in order.

Each test prints exactly one `criterion N: PASS/FAIL - ...` line (run with
`pytest tests/test_acceptance.py -v -s` to see them live).  The one known-
unattainable clause of criterion 5 is kept as a separate strict-xfail test
that prints its FAIL line honestly instead of being weakened.
"""

import random
from pathlib import Path

import pytest

from conset import (
    compose,
    compose_all,
    empty,
    instance_count,
    is_constituent,
    make_set,
    replace,
)
from conset.algebra import map_union
from conset.cli import main
from conset.errors import NotAStructure, TerminalMismatch
from conset.fusion import (
    close,
    fuse,
    fuse_middle,
    fuse_with_terminals,
    middle,
    middle_identity,
    middle_permutation,
)
from conset.kernel import parse
from conset.numerals import (
    add_vn,
    add_zermelo,
    as_vn,
    as_zermelo,
    mul_structural,
    vn,
    zermelo,
)
from conset.structure import canonical_cert, isomorphic, simplest_set, structure_of
from conset.tuples import (
    decode_kuratowski,
    diamond,
    get_at,
    kuratowski_pair,
    make_tuple,
    position,
)

from _oracles import branch, membership_edges, oracle

GOLDEN = Path(__file__).parent / "golden"
Z = zermelo
D = diamond()


def _report(num, desc, failures):
    ok = not failures
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed ({len(failures)} problems): {failures[:5]}"


def _witness_is_valid(g1, g2, witness):
    m = witness.mapping
    if sorted(m) != list(range(g2.n)) or g1.n != g2.n:
        return False
    return {(m[a], m[b]) for a, b in g1.edges} == set(g2.edges)


def test_criterion_1_instance_counts():
    failures = []
    if instance_count(Z(5)) != 6:
        failures.append(f"Z5 -> {instance_count(Z(5))}")
    if instance_count(vn(5)) != 32:
        failures.append(f"V5 -> {instance_count(vn(5))}")
    for n in range(11):
        if instance_count(Z(n)) != n + 1:
            failures.append(f"Z{n}")
        if instance_count(vn(n)) != 2**n:
            failures.append(f"V{n}")
    _report(1, "instance counts: Z5=6, V5=32, Zn=n+1 and Vn=2^n for n<=10", failures)


def test_criterion_2_scheme_isomorphism():
    failures = []
    for n in range(9):
        g1, g2 = structure_of(Z(n)), structure_of(vn(n))
        w = isomorphic(g1, g2)
        if w is None:
            failures.append(f"n={n}: no isomorphism")
        elif not _witness_is_valid(g1, g2, w):
            failures.append(f"n={n}: invalid witness {w.mapping}")
    gd = structure_of(D)
    for k in range(11):
        if isomorphic(gd, structure_of(Z(k))) is not None:
            failures.append(f"diamond ~ Z{k}")
    _report(
        2,
        "numeral schemes share structure (n<=8, validated witness); "
        "the diamond matches no chain (k<=10)",
        failures,
    )


def test_criterion_3_arithmetic_tables():
    failures = []
    for n in range(33):
        for m in range(33):
            r = add_zermelo(Z(n), Z(m))
            if r is not Z(n + m) or as_zermelo(r) != n + m:
                failures.append(f"Z {n}+{m}")
    for n in range(11):
        for m in range(11):
            r = add_vn(vn(n), vn(m))
            if r is not vn(n + m) or as_vn(r) != n + m:
                failures.append(f"V {n}+{m}")
    for n in range(9):
        for m in range(9):
            r = mul_structural(Z(n), Z(m))
            if r is not Z(n * m) or as_zermelo(r) != n * m:
                failures.append(f"{n}*{m}")
    _report(
        3,
        "addition tables (successor<=32, cumulative<=10) and products (<=8), "
        "exact handles",
        failures,
    )


def test_criterion_4_algebra_laws(corpus1000, triples1000):
    failures = []
    e = empty()
    for i, x in enumerate(corpus1000):
        y = corpus1000[(i * 7 + 3) % len(corpus1000)]
        z = corpus1000[(i * 13 + 11) % len(corpus1000)]
        xy = compose(x, y)
        if compose(x, e) is not x:
            failures.append(f"x(0)!=x at {i}")
        if compose(e, x) is not x:
            failures.append(f"0(x)!=x at {i}")
        if not is_constituent(y, xy):
            failures.append(f"y not in x(y) at {i}")
        if replace(xy, y, e) is not x:
            failures.append(f"x(y)(y->0)!=x at {i}")
        if compose(xy, z) is not compose(x, compose(y, z)):
            failures.append(f"x(y)(z)!=x(y(z)) at {i}")
    for i, (x, y, z) in enumerate(triples1000):
        if replace(x, y, z) is not parse(oracle.replace(x.text, y.text, z.text)):
            failures.append(f"substitution oracle at {i}")
    # the third replacement property fails: with x = {y}, y = {0}, z = 0,
    # the replacement merges back into y itself, so y remains a constituent
    # even though y is not a constituent of z.
    y = Z(1)
    x = make_set([y])
    r = replace(x, y, e)
    if r is not y or not is_constituent(y, r):
        failures.append("documented counterexample did not reproduce")
    _report(
        4,
        "composition laws on 1000 sets, substitution oracle on 1000 triples, "
        "counterexample reproduced",
        failures,
    )


def test_criterion_5_structure_pipeline(corpus1000, pairs500):
    failures = []
    graphs = [structure_of(x) for x in corpus1000]
    for x, g in zip(corpus1000, graphs):
        if list(g.edges) != oracle.diagram(x.text)[1]:
            failures.append(f"transitive reduction differs for {x.text[:30]}")
    # certificate vs brute force on every corpus graph with <= 8 vertices:
    # within a certificate class everything must match the representative,
    # and representatives of distinct classes must not match.
    classes = {}
    for g in graphs:
        if g.n <= 8:
            classes.setdefault(canonical_cert(g), []).append(g)
    for cert, members in classes.items():
        rep = members[0]
        for m in members[1:]:
            if not oracle.isomorphic(rep.n, rep.edges, m.n, m.edges):
                failures.append("equal certificates but not isomorphic")
    reps = [ms[0] for ms in classes.values()]
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            g, h = reps[i], reps[j]
            if oracle.isomorphic(g.n, g.edges, h.n, h.edges):
                failures.append("distinct certificates but isomorphic")
    for x, g in zip(corpus1000, graphs):
        s = simplest_set(g)
        if isomorphic(structure_of(s), g) is None:
            failures.append(f"simplest set not isomorphic for {x.text[:30]}")
    for a, b in pairs500:
        if isomorphic(structure_of(compose(a, b)), structure_of(map_union(a, b))) is None:
            failures.append(f"join mismatch for {a.text[:20]}, {b.text[:20]}")
    _report(
        5,
        "transitive reduction, certificate vs brute force (<=8 vertices), "
        "simplest-set isomorphism, composition/union structure match (500 pairs)",
        failures,
    )


@pytest.mark.xfail(
    strict=True,
    reason="a simplest set may need membership edges below its covering "
    "edges: the diamond realizes its own diagram only with the extra "
    "bottom-to-second-level membership (6 membership edges, 5 covering "
    "edges), so the literal corpus-wide clause is unattainable",
)
def test_criterion_5_membership_equals_covering_clause(corpus1000):
    failures = []
    for x in list(corpus1000) + [D]:
        s = simplest_set(structure_of(x))
        if set(membership_edges(s)) != set(structure_of(s).edges):
            failures.append(x.text[:40])
    _report(
        5,
        "simplest-set membership edges equal its covering edges corpus-wide "
        "(fails: the diamond needs 6 membership edges over 5 covering edges)",
        failures,
    )


def test_criterion_6_tuples(corpus1000):
    failures = []
    a, b = vn(2), Z(1)  # second entry inside the first
    c, d = Z(1), make_set([Z(2), vn(2)])  # {first} inside the second
    pools = [
        [a, b],
        [c, d],
        [D, D],
        [position(3), D],
        [Z(3), vn(3), make_set([Z(1), D])],
        [empty(), Z(2), vn(2), D],
    ]
    rng = random.Random(23)
    for _ in range(20):
        pools.append([rng.choice(corpus1000) for _ in range(rng.randint(2, 4))])
    for entries in pools:
        t = make_tuple(entries)
        for i, entry in enumerate(entries):
            got = get_at(t, [i])
            if got is not entry:
                failures.append(f"[{i}] of {len(entries)}-tuple")
    # nested round-trip, three levels deep (paths innermost-first)
    w, x, y, z = Z(2), vn(2), Z(3), vn(3)
    t3 = make_tuple([make_tuple([make_tuple([w, x]), y]), z])
    for path, expected in [
        ([0, 0, 0], w),
        ([1, 0, 0], x),
        ([1, 0], y),
        ([1], z),
    ]:
        if get_at(t3, path) is not expected:
            failures.append(f"nested path {path}")
    dec = decode_kuratowski(D)
    if dec.first is not Z(1) or dec.second is not Z(0):
        failures.append("decode of the diamond")
    _report(
        6,
        "positional round-trips on adversarial entries, three-level nesting, "
        "diamond decodes to (Z1, Z0)",
        failures,
    )


def test_criterion_7_fusion(corpus1000):
    failures = []

    def eq(label, got, expected):
        if got is not expected:
            failures.append(label)

    x, y, z = Z(1), Z(2), vn(2)
    a, b, c = vn(3), Z(3), D

    def entry(n, e, k):
        return compose_all([Z(n), D, e, D, Z(k)])

    # --- pass-through segments and their fusion ---
    m1, m2 = middle([x, y, z]), middle([a, b, c])
    eq(
        "middle notation",
        m1.set,
        make_set([entry(n, e, n) for n, e in enumerate([x, y, z])]),
    )
    eq("fusion composes entries", fuse_middle(m1, m2).set,
       middle([compose(x, a), compose(y, b), compose(z, c)]).set)
    eq("fusion composes entries (flipped)", fuse_middle(m2, m1).set,
       middle([compose(a, x), compose(b, y), compose(c, z)]).set)
    ident = middle_identity(3)
    eq("identity definition", ident.set,
       make_set([entry(n, empty(), n) for n in range(3)]))
    eq("left identity", fuse_middle(ident, m1).set, m1.set)
    eq("right identity", fuse_middle(m1, ident).set, m1.set)

    # --- permutation segments ---
    p = middle_permutation([1, 2, 0])
    eq("permutation wiring", p.set,
       make_set([entry(0, empty(), 1), entry(1, empty(), 2), entry(2, empty(), 0)]))
    pm1 = fuse_middle(p, m1)
    eq("p then m", pm1.set,
       make_set([entry(0, y, 1), entry(1, z, 2), entry(2, x, 0)]))
    m1p = fuse_middle(m1, p)
    eq("m then p", m1p.set,
       make_set([entry(1, y, 2), entry(2, z, 0), entry(0, x, 1)]))
    pm1p = fuse_middle(pm1, p)
    eq("p, m, p", pm1p.set,
       make_set([entry(0, y, 2), entry(1, z, 0), entry(2, x, 1)]))
    eq("wiring straightens", fuse_middle(pm1p, p).set, middle([y, z, x]).set)
    eq("inverse permutation", fuse_middle(p, middle_permutation([2, 0, 1])).set,
       middle_identity(3).set)

    # --- parallel composition and closing ---
    pa, pb, pc, pd = Z(2), vn(3), Z(1), vn(2)
    eq("parallel pairs", fuse_middle(middle([pa, pb]), middle([pc, pd])).set,
       middle([compose(pa, pc), compose(pb, pd)]).set)
    eq("close releases entries", close(middle([Z(2), vn(2)])), D)
    eq("close single entry", close(middle([empty()])), Z(1))
    eq("close graded entries", close(middle([Z(0), Z(1)])), vn(2))

    # --- top/bottom fusion equations ---
    bot = make_set([branch(0, x), branch(1, y), branch(2, z)])
    eq("tuple top collects branches", fuse(make_tuple([empty()] * 3), bot),
       make_set([x, y, z]))
    botv = make_set([branch(n, vn(n)) for n in range(3)])
    eq("graded branches assemble a numeral", fuse(make_tuple([empty()] * 3), botv), vn(3))
    eq("slots inside entries", fuse_with_terminals(make_tuple([x, y, z]), [empty()] * 3),
       make_set([x, y, z]))
    grouped = make_set([make_set([position(0), position(1)]), make_set([position(2)])])
    eq("grouped slots", fuse(grouped, bot),
       make_set([make_set([x, y]), make_set([z])]))
    pair_bot = make_set([branch(0, Z(3)), branch(1, vn(3))])
    eq("pair template", fuse(kuratowski_pair(position(0), position(1)), pair_bot),
       kuratowski_pair(Z(3), vn(3)))

    # --- close(a,b over c,d) = {ac, bd} on 100 seeded quadruples ---
    # double fusion multiplies entry sizes, so quadruples draw from the
    # small-set slice of the corpus
    small = [h for h in corpus1000 if len(h.text) <= 40]
    rng = random.Random(13)
    checked = 0
    while checked < 100:
        qa, qb, qc, qd = (rng.choice(small) for _ in range(4))
        try:
            got = close(fuse_middle(middle([qa, qb]), middle([qc, qd])))
        except (NotAStructure, TerminalMismatch):
            continue  # degenerate quadruple: grounded branches coincide/nest
        if got is not make_set([compose(qa, qc), compose(qb, qd)]):
            failures.append(f"close quadruple {checked}")
        checked += 1

    # --- monoid laws at arities 2 and 3 ---
    rng = random.Random(29)
    for arity in (2, 3):
        ident = middle_identity(arity)
        for _ in range(5):
            ms = [middle([rng.choice(small) for _ in range(arity)]) for _ in range(3)]
            if fuse_middle(ident, ms[0]).set is not ms[0].set:
                failures.append(f"left identity arity {arity}")
            if fuse_middle(ms[0], ident).set is not ms[0].set:
                failures.append(f"right identity arity {arity}")
            lhs = fuse_middle(fuse_middle(ms[0], ms[1]), ms[2])
            rhs = fuse_middle(ms[0], fuse_middle(ms[1], ms[2]))
            if lhs.set is not rhs.set:
                failures.append(f"associativity arity {arity}")
    _report(
        7,
        "all fusion display equations, 100 closed quadruples, monoid laws "
        "at arities 2-3",
        failures,
    )


def test_criterion_8_cli(capsys):
    failures = []

    def run(*argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    code, out, _ = run("structure", "{{},{{}}}")
    if code != 0 or out != (GOLDEN / "v2_structure.dot").read_text():
        failures.append("three-element chain drawing")
    code, out, _ = run("structure", "D")
    if code != 0 or out != (GOLDEN / "diamond_structure.dot").read_text():
        failures.append("diamond drawing")
    code, out, _ = run("iso", "5", "V5")
    if code != 0 or out != (GOLDEN / "iso_z5_v5.txt").read_text():
        failures.append("numeral isomorphism report")
    if len(out.splitlines()) != 7 or out.splitlines()[0] != "ISO":
        failures.append("isomorphism report shape")
    battery = [
        ("structure", "kpair(2, V3)"),
        ("structure", "kpair(2, V3)", "--format", "json"),
        ("structure", "V3", "--format", "text"),
        ("iso", "5", "V5"),
        ("eval", "[1, 2]M"),
        ("corpus", "--seed", "4", "--count", "20"),
        ("constituents", "kpair(2, V3)"),
    ]
    for argv in battery:
        if run(*argv) != run(*argv):
            failures.append(f"nondeterministic output: {' '.join(argv)}")
    _report(
        8,
        "golden drawings (chain and diamond), six-row numeral mapping, "
        "byte-identical consecutive runs",
        failures,
    )
