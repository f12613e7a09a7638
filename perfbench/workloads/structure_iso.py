"""structure_iso: covering diagrams, certificates and isomorphism.

Corpus shapes (structure_of, isomorphism of corpus pairs and of relabelled
copies, certificates of relabelled copies, simplest_set round trips, JSON
round trips), numeral pairs zermelo(n)/vn(n) with n <= 14, structural
multiplication, and symmetric fans of k parallel 2-chains for k = 3..7.
Certificate search branches only on symmetric shapes, so the fans isolate
the certificate search while the corpus shapes in the same stream show what
a change to it costs the common case.
"""

from __future__ import annotations

import json
import random

import oracle
from workloads.common import Inputs, check_text, corpus, expect, memcap_vn40, spec_dict, token

SHAPES = ((5, 3), (6, 3), (7, 4))
# (kind, rung) -> queries in one pass of the schedule
MIX = {
    **{("structure_of", f"d{d}w{w}"): 20 for d, w in SHAPES},
    **{("iso_corpus", f"d{d}w{w}"): 16 for d, w in SHAPES},
    **{("cert_relabelled", f"d{d}w{w}"): 10 for d, w in SHAPES},
    **{("iso_relabelled", f"d{d}w{w}"): 10 for d, w in SHAPES},
    **{("json_roundtrip", f"d{d}w{w}"): 10 for d, w in SHAPES},
    **{("simplest_set", f"n{n}"): 15 for n in (5, 9)},
    **{("iso_numeral", f"n{n}"): 5 for n in (6, 10, 14)},
    **{("mul_structural", f"p{p}"): 5 for p in (12, 36)},
    **{("fan_cert", f"k{k}"): 3 for k in (3, 4, 5, 6)},
    ("fan_cert", "k7"): 22,  # over 7 % of the queries: the 95th percentile lands here
    **{("fan_iso", f"k{k}"): 2 for k in (3, 4, 5, 6)},
}
# simplest_set round trips run on pairs of numerals: the greedy realization
# fails on some corpus diagrams (see the simplest_set_corpus probe)
PAIRS = (oracle.kuratowski_pair, lambda a, b: oracle.make([a, b]), lambda a, b: oracle.make([a, oracle.make([b])]))


def _relabel(rng: random.Random, n: int, edges, top: int, bottom: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [n, sorted([perm[a], perm[b]] for a, b in edges), perm[top], perm[bottom]]


def _fan(k: int) -> tuple[int, list, int, int]:
    """Bottom 0 and top 1 joined by k parallel chains of two edges."""
    return k + 2, [(0, m) for m in range(2, k + 2)] + [(m, 1) for m in range(2, k + 2)], 1, 0


def spec(seed: int) -> dict:
    rng = random.Random(seed)
    inputs = Inputs()
    add = inputs.add
    graphs: list = []
    items = {
        f"d{d}w{w}": [add(raw, can) for raw, can in corpus(rng, d, w, 60, 10, 200)]
        for d, w in SHAPES
    }
    queries = []
    for (kind, rung), count in MIX.items():
        for _ in range(count):
            if kind == "iso_corpus":
                x = rng.choice(items[rung])
                # prefer a partner with as many constituents, so counts alone do not decide
                size = len(oracle.constituents(inputs.canon[x]))
                same = [y for y in items[rung] if len(oracle.constituents(inputs.canon[y])) == size]
                args = [x, rng.choice(same)]
            elif kind in ("cert_relabelled", "iso_relabelled"):
                x = rng.choice(items[rung])
                verts, edges = oracle.diagram(inputs.canon[x])
                graphs.append(_relabel(rng, len(verts), edges, len(verts) - 1, 0))
                args = [x, len(graphs) - 1]
            elif kind == "simplest_set":
                top = int(rung[1:])
                numerals = [oracle.zermelo(n) for n in range(1, top + 1)] + [oracle.vn(n) for n in range(2, top)]
                a, b = rng.choice(numerals), rng.choice(numerals)
                args = [add(rng.choice(PAIRS)(a, b))]
            elif kind == "iso_numeral":
                n = int(rung[1:])
                args = [add(oracle.zermelo(n)), add(oracle.vn(n)), n]
            elif kind == "mul_structural":
                p = int(rung[1:])
                a = rng.choice([f for f in range(2, p) if p % f == 0])
                args = [add(oracle.zermelo(a)), add(oracle.zermelo(p // a)), add(oracle.zermelo(p))]
            elif kind == "fan_cert":
                graphs.append(_relabel(rng, *_fan(int(rung[1:]))))
                args = [len(graphs) - 1, int(rung[1:])]
            elif kind == "fan_iso":
                for _ in range(2):
                    graphs.append(_relabel(rng, *_fan(int(rung[1:]))))
                args = [len(graphs) - 2, len(graphs) - 1]
            else:
                args = [rng.choice(items[rung])]
            queries.append([kind, rung, args])
    rng.shuffle(queries)
    return spec_dict(inputs, queries, sorted(PROBES), graphs=graphs)


def build_graphs(c, spec: dict) -> list:
    return [
        c.StructureGraph(
            tags=(None,) * n, edges=tuple(sorted(map(tuple, edges))), top=top, bottom=bottom
        )
        for n, edges, top, bottom in spec["graphs"]
    ]


def _diagram(ctx, i: int):
    """Oracle diagram of input i as (n, edges, top, bottom)."""
    verts, edges = oracle.diagram(ctx.T[i])
    return len(verts), edges, len(verts) - 1, 0


def _spec_graph(ctx, g: int):
    n, edges, top, bottom = ctx.spec["graphs"][g]
    return n, [tuple(e) for e in edges], top, bottom


def _check_witness(first, second, witness) -> str:
    """A witness must carry edges, top and bottom exactly; None must be right."""
    n1, e1, t1, b1 = first
    n2, e2, t2, b2 = second
    if witness is None:
        expect(not oracle.isomorphic(n1, e1, n2, e2), "missed an isomorphism")
        return "not-iso"
    expect(oracle.witness_ok(n1, e1, t1, b1, n2, e2, t2, b2, witness.mapping), "bad witness")
    return "iso"


def _check_structure(ctx, args, g):
    verts, edges = oracle.diagram(ctx.T[args[0]])
    expect([t.text for t in g.tags] == verts, "vertices differ")
    expect(list(g.edges) == edges, "covering edges differ")
    expect(g.top == len(verts) - 1 and g.bottom == 0, "top or bottom misplaced")
    return token(repr(edges))


def _check_simplest(ctx, args, r):
    X = ctx.T[args[0]]
    got = oracle.diagram(r.text)
    want = oracle.diagram(X)
    expect(
        oracle.isomorphic(len(got[0]), got[1], len(want[0]), want[1]),
        "realization has another diagram",
    )
    expect(oracle.shortlex(r.text) <= oracle.shortlex(X), "realization is larger than the input")
    return token(r.text)


def _roundtrip(ctx, args):
    c = ctx.c
    text = c.to_json(c.structure_of(ctx.H[args[0]]))
    return text, c.graph_from_json(text)


def _check_roundtrip(ctx, args, result):
    text, g = result
    verts, edges = oracle.diagram(ctx.T[args[0]])
    obj = json.loads(text)
    expect([v.get("set") for v in obj["vertices"]] == verts, "JSON vertices differ")
    expect([tuple(e) for e in obj["edges"]] == edges, "JSON edges differ")
    expect(list(g.edges) == edges and [t.text for t in g.tags] == verts, "decoded graph differs")
    return token(text)


def _check_fan_cert(ctx, args, cert):
    # every relabelling of one fan must get the same certificate
    seen = ctx.__dict__.setdefault("fan_certs", {})
    expect(seen.setdefault(args[1], cert) == cert, "relabelled fans got different certificates")
    return token(repr(cert))


def _check_certs(ctx, args, certs):
    expect(certs[0] == certs[1], "relabelling changed the certificate")
    return token(repr(certs[0]))


def _check_found(first, second, witness) -> str:
    """The pair is isomorphic by construction: a witness must exist."""
    expect(witness is not None, "missed an isomorphism")
    return _check_witness(first, second, witness)


def _iso_sets(ctx, args):
    c = ctx.c
    return c.isomorphic(c.structure_of(ctx.H[args[0]]), c.structure_of(ctx.H[args[1]]))


def _certs(ctx, args):
    c = ctx.c
    return c.canonical_cert(c.structure_of(ctx.H[args[0]])), c.canonical_cert(ctx.G[args[1]])


KINDS = {
    "structure_of": (lambda ctx, a: ctx.c.structure_of(ctx.H[a[0]]), _check_structure),
    "iso_corpus": (
        _iso_sets,
        lambda ctx, a, w: _check_witness(_diagram(ctx, a[0]), _diagram(ctx, a[1]), w),
    ),
    "cert_relabelled": (_certs, _check_certs),
    "iso_relabelled": (
        lambda ctx, a: ctx.c.isomorphic(ctx.c.structure_of(ctx.H[a[0]]), ctx.G[a[1]]),
        lambda ctx, a, w: _check_found(_diagram(ctx, a[0]), _spec_graph(ctx, a[1]), w),
    ),
    "iso_numeral": (
        _iso_sets,
        lambda ctx, a, w: _check_found(_diagram(ctx, a[0]), _diagram(ctx, a[1]), w),
    ),
    "simplest_set": (lambda ctx, a: ctx.c.simplest_set(ctx.c.structure_of(ctx.H[a[0]])), _check_simplest),
    "json_roundtrip": (_roundtrip, _check_roundtrip),
    "mul_structural": (
        lambda ctx, a: ctx.c.mul_structural(ctx.H[a[0]], ctx.H[a[1]]),
        lambda ctx, a, r: check_text(r, ctx.T[a[2]]),
    ),
    "fan_cert": (lambda ctx, a: ctx.c.canonical_cert(ctx.G[a[0]]), _check_fan_cert),
    "fan_iso": (
        lambda ctx, a: ctx.c.isomorphic(ctx.G[a[0]], ctx.G[a[1]]),
        lambda ctx, a, w: _check_found(_spec_graph(ctx, a[0]), _spec_graph(ctx, a[1]), w),
    ),
}


def _simplest_corpus(c):
    """simplest_set on the diagram of a corpus set, which the set itself
    realizes: the greedy collision repair runs out of spare constituents."""
    c.simplest_set(c.structure_of(c.parse("{{{{},{{{}}}}},{{},{{}},{{{}}}},{{},{{{{}}}},{{{}},{{{}}}}}}")))


def _numeral_40(c):
    """The numeral ladder one rung too far: vn(40) has 5*2**39 - 1 characters."""
    c.isomorphic(c.structure_of(c.zermelo(40)), c.structure_of(c.vn(40)))


PROBES = {
    "iso_numeral_n40": _numeral_40,
    "simplest_set_corpus": _simplest_corpus,
    "memcap_vn40_text": memcap_vn40,
}
