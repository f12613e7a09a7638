"""deep_programs: expression programs and in-process CLI calls on deep sets.

Programs run through `evaluate`, and CLI commands through `cli.main(argv)`
with stdout captured, over a depth ladder: successor chains, cumulative
numerals up to 14, long nested brace text, and replace/compose on chains.
Each query builds on a fresh operand (a small set coding a distinct
number), so most make_set calls miss and the intern table grows.  Canonical
text grows faster than the DAG here, so this is the write- and memory-heavy
use of the kernel, and the only workload that exercises `expr` and `cli`.

Library calls run under the interpreter's default recursion limit.
`cli.main` raises the limit for the whole process, so every CLI query puts
it back before returning.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import sys

import oracle
from workloads.common import Inputs, check_text, expect, memcap_vn40, spec_dict, token

# A process runs the schedule once, so every timed query builds fresh sets;
# the timed phase starts as many processes as the measured seconds need.
ONE_PASS = True

# (kind, rung) -> queries in one pass of the schedule.  CLI calls cost about
# the same whatever their operand (argparse dominates), and the counts put
# the median among them and the 95th percentile inside the eval_replace d400
# rung, the costliest.
MIX = {
    **{("eval_chain", f"d{d}"): 12 for d in (50, 100, 200, 400)},
    **{("eval_replace", f"d{d}"): 12 for d in (50, 100, 200)},
    ("eval_replace", "d400"): 30,
    **{("eval_nested", f"d{d}"): 12 for d in (50, 100, 200, 300)},
    **{("eval_vn", f"n{n}"): 8 for n in (8, 11, 14)},
    ("cli_eval", "d100"): 10,
    ("cli_eval", "d400"): 25,
    **{("cli_canon", f"d{d}"): 10 for d in (100, 400)},
    **{("cli_num_add", f"z{d}"): 10 for d in (100, 400)},
    **{("cli_num_encode", r): 10 for r in ("z100", "z400", "v10", "v14")},
    **{("cli_num_decode", r): 10 for r in ("z400", "v10", "v14")},
    ("cli_tuple_get", "m3"): 20,
    **{("cli_structure_json", f"n{n}"): 12 for n in (4, 6)},
}


def fresh(i: int) -> str:
    """Canonical text of the set coding i: the sets coding i's binary digits."""
    digits = [fresh(j) for j in range(i.bit_length()) if i >> j & 1]
    return oracle.make(digits)


def spec(seed: int) -> dict:
    rng = random.Random(seed)
    inputs = Inputs()
    numbers = rng.sample(range(256, 8192), sum(MIX.values()) + 2 * MIX[("cli_tuple_get", "m3")])
    # cumulative numerals copy the operand into 2**(n-1) leaves: keep it small
    small = rng.sample(range(16, 128), sum(c for (k, _), c in MIX.items() if k == "eval_vn"))
    queries = []
    for (kind, rung), count in MIX.items():
        size = int(rung[1:])
        for _ in range(count):
            s = fresh(small.pop() if kind == "eval_vn" else numbers.pop())
            if kind in ("eval_chain", "eval_replace", "eval_nested", "eval_vn"):
                source = {
                    "eval_chain": f"let s = {s}; {size}(s)",
                    "eval_replace": f"let s = {s}; let a = {size}(s); a(s -> {{s}})",
                    "eval_nested": "{" * size + s + "}" * size,
                    "eval_vn": f"let s = {s}; V{size}(s)",
                }[kind]
                args = [source, size, s]
            elif kind == "cli_eval":
                args = [["eval", f"let s = {s}; {size}(s)"], size, s]
            elif kind == "cli_canon":
                args = [["canon", "{" * size + s + "," + s + "}" * size], size, s]
            elif kind == "cli_num_add":
                a = rng.randrange(2, size - 1)
                args = [["num", "add", str(a), str(size - a)], size, s]
            elif kind == "cli_num_encode":
                scheme = "zermelo" if rung[0] == "z" else "vn"
                args = [["num", "encode", str(size), "--scheme", scheme], size, s]
            elif kind == "cli_num_decode":
                args = [["num", "decode", str(size) if rung[0] == "z" else f"V{size}"], size, s]
            elif kind == "cli_tuple_get":
                es = [s] + [fresh(numbers.pop()) for _ in range(2)]
                i = rng.randrange(3)
                args = [["tuple", "get", "(" + ", ".join(es) + ")", str(i)], size, es[i]]
            else:  # cli_structure_json
                args = [["structure", f"{{{s}, V{size}}}", "--format", "json"], size, s]
            queries.append([kind, rung, args])
    rng.shuffle(queries)
    return spec_dict(inputs, queries, sorted(PROBES))


def expected(kind: str, args: list) -> str:
    """Oracle answer of a query: a canonical text, or the printed decimal."""
    size, s = args[1], args[2]
    # a chain of singletons is canonical as written
    if kind in ("eval_chain", "cli_eval", "eval_nested", "cli_canon"):
        return "{" * size + s + "}" * size
    if kind == "eval_replace":
        return "{" * (size + 1) + s + "}" * (size + 1)
    if kind == "eval_vn":
        return oracle.vn(size, s)
    if kind == "cli_num_add" or kind == "cli_num_encode" and args[0][-1] == "zermelo":
        return oracle.zermelo(size)
    if kind == "cli_num_encode":
        return oracle.vn(size)
    if kind == "cli_num_decode":
        return str(size)
    if kind == "cli_tuple_get":
        return s
    return oracle.make([s, oracle.vn(size)])


def _evaluate(ctx, args):
    return ctx.c.evaluate(args[0])


def _cli(ctx, args):
    """`conset ARGV` in process, stdout captured, recursion limit restored."""
    from conset import cli

    limit = sys.getrecursionlimit()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(args[0]))
    finally:
        sys.setrecursionlimit(limit)
    return code, out.getvalue()


def _check_eval(kind: str, ctx, args, result) -> str:
    return check_text(result, expected(kind, args))


def _check_cli(kind: str, ctx, args, result) -> str:
    code, out = result
    want = expected(kind, args)
    expect(code == 0, f"exit code {code}")
    if kind == "cli_structure_json":
        verts, edges = oracle.diagram(want)
        obj = json.loads(out)
        expect([v.get("set") for v in obj["vertices"]] == verts, "JSON vertices differ")
        expect([tuple(e) for e in obj["edges"]] == edges, "JSON edges differ")
    else:
        expect(out == want + "\n", f"printed {out[:60]!r}")
    return token(out)


KINDS = {
    **{
        kind: (_evaluate, functools.partial(_check_eval, kind))
        for kind in ("eval_chain", "eval_replace", "eval_nested", "eval_vn")
    },
    **{
        kind: (_cli, functools.partial(_check_cli, kind))
        for kind in (
            "cli_eval",
            "cli_canon",
            "cli_num_add",
            "cli_num_encode",
            "cli_num_decode",
            "cli_tuple_get",
            "cli_structure_json",
        )
    },
}


def _nested_2000(c):
    """Deeper rung of eval_nested: 2000 nested braces."""
    c.evaluate("{" * 2000 + "}" * 2000)


def _replace_1200(c):
    """Deeper rung of eval_replace: a chain of depth 1200."""
    c.evaluate("let s = {{}}; let a = 1200(s); a(s -> {s})")


def _as_vn_3000(c):
    """Decoding a successor chain of depth 3000 as a cumulative numeral."""
    c.as_vn(c.zermelo(3000))


PROBES = {
    "eval_nested_2000": _nested_2000,
    "eval_replace_1200": _replace_1200,
    "as_vn_chain_3000": _as_vn_3000,
    "memcap_vn40_text": memcap_vn40,
}
