"""One fresh interpreter running one phase of a workload.

Reads a JSON job on stdin and prints one JSON result line on stdout.  Modes:

- ``setup``: import conset and parse the inputs, then stop;
- ``run``:   set up, then run the query schedule in a closed loop until the
  summed query time reaches the requested seconds (or, for a one-pass
  workload, until the schedule is done);
- ``cycle``: set up, then run a fixed number of queries (optionally traced);
- ``probe``: run one untimed limit probe and report how it ended.

The address space is capped first thing, so a runaway input ends as a
counted MemoryError instead of exhausting the machine.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
from array import array
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
from reference import Speedometer  # noqa: E402
from workloads.common import Context, Mismatch  # noqa: E402

ADDRESS_SPACE_CAP = 1 << 30  # 1 GiB


def same(a, b) -> bool:
    """Identity for handles (interning makes equal sets identical)."""
    if isinstance(a, (tuple, list)):
        return (
            isinstance(b, (tuple, list))
            and len(a) == len(b)
            and all(same(x, y) for x, y in zip(a, b))
        )
    if hasattr(a, "uid") and hasattr(a, "children"):
        return a is b
    return a == b


def set_up(spec: dict, workload):
    """Import the package and turn the generated inputs into handles."""
    t0 = time.perf_counter()
    c = importlib.import_module("conset")
    t1 = time.perf_counter()
    handles = [c.parse(t) for t in spec["texts"]]
    build = getattr(workload, "build_graphs", None)
    graphs = build(c, spec) if build is not None else []
    t2 = time.perf_counter()
    return c, handles, graphs, t1 - t0, t2 - t1


def run_queries(workload, ctx, queries: list, budget_s: float | None, count: int) -> dict:
    """The closed loop.  With a budget, it runs at least one whole pass of
    the schedule and stops once the summed query time reaches budget_s (a
    one-pass workload stops after one pass); without one, it stops after
    `count` queries.  The first answer to each query is checked against
    its oracle and every repeat must be identical to it; checks and the
    reference samples are not timed.

    Without a budget (the traced runs) reference samples are taken only
    before and after the loop: samples between queries would follow the
    clock, and so would the heap layout and the call counts it steers."""
    one_pass = getattr(workload, "ONE_PASS", False)
    speed = Speedometer()
    speed.burst()
    # compact arrays, so the bookkeeping of many fast queries stays small
    starts = array("d")
    raw = array("d")  # seconds; +inf for a failed query
    first: dict[int, object] = {}
    tokens: dict[int, str] = {}
    failed: set[int] = set()
    failures: list[str] = []
    busy = 0.0
    i = 0
    clock = time.perf_counter
    while True:
        if budget_s is None:
            if i == count:
                break
        elif i >= len(queries) and (one_pass or busy >= budget_s):
            break
        qi = i % len(queries)
        kind, _, args = queries[qi]
        i += 1
        run, check = workload.KINDS[kind]
        if budget_s is not None:
            speed.tick(clock())
        t0 = clock()
        try:
            result = run(ctx, args)
            elapsed = clock() - t0
        except Exception as exc:  # any escape is a failed query, counted
            elapsed = clock() - t0
            result = exc
        starts.append(t0)
        busy += elapsed
        ok = False
        if isinstance(result, Exception):
            failures.append(f"{kind}[{qi}]: {type(result).__name__}: {str(result)[:200]}")
        elif qi in first:
            ok = same(result, first[qi])
            if not ok:
                failures.append(f"{kind}[{qi}]: repeat differs from first answer")
        else:
            try:
                tokens[qi] = check(ctx, args, result)
                first[qi] = result
                ok = True
            except Mismatch as exc:
                failures.append(f"{kind}[{qi}]: {str(exc)[:200]}")
            oracle.forget()
        if not ok:
            failed.add(qi)
        raw.append(elapsed if ok else float("inf"))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed.burst()

    ref = [r * speed.factor(t, t + r) for r, t in zip(raw, starts)]
    per_query: list[list[float]] = [[] for _ in queries]
    for n, seconds in enumerate(ref):
        per_query[n % len(queries)].append(seconds * 1e3)
    digest = hashlib.sha256()
    for qi in sorted(tokens):
        digest.update(f"{qi}:{tokens[qi]}\n".encode())
    return {
        "executed": len(raw),
        "failed_ids": sorted(failed),
        "failed_executions": sum(1 for r in raw if r == float("inf")),
        "failures": failures[:20],
        "per_query_ms": per_query,
        "busy_s": sum(r for r in ref if r != float("inf")),
        "raw_busy_s": busy,
        "maxrss_kb": maxrss_kb,
        "digest": digest.hexdigest(),
    }


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    default_limit = sys.getrecursionlimit()
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    workload = importlib.import_module(f"workloads.{job['workload']}")
    spec = job["spec"]

    if job["mode"] == "probe":
        c = importlib.import_module("conset")
        try:
            workload.PROBES[job["probe"]](c)
            error = None
        except Exception as exc:  # the error type is the probe's outcome
            error = type(exc).__name__
        print(json.dumps({"error": error}))
        return 0

    # reference samples bracket the set-up, which is then converted to
    # reference seconds; the samples taken before it are left out of it
    speed = Speedometer()
    t0 = time.perf_counter()
    speed.burst(5)
    sampling_s = time.perf_counter() - t0
    tracer = None
    if job.get("trace"):
        from tracer import Tracer


        tracer = Tracer()
        tracer.install()
    c, handles, graphs, import_s, parse_s = set_up(spec, workload)
    ready = time.monotonic()
    t1 = time.perf_counter()
    speed.burst(5)
    factor = speed.factor(t0, t1)
    out = {
        "ready": ready,
        "sampling_s": sampling_s,
        "setup_factor": factor,
        "import_s": import_s * factor,
        "parse_s": parse_s * factor,
    }
    if job["mode"] == "setup":
        print(json.dumps(out))
        return 0

    ctx = Context(c, spec, handles, graphs)
    bad_inputs = [i for i, h in enumerate(handles) if h.text != spec["canon"][i]]
    if tracer is not None:
        tracer.reset()
    queries = spec["queries"]
    if job["mode"] == "run":
        loop = run_queries(workload, ctx, queries, job["seconds"], 0)
    else:
        loop = run_queries(workload, ctx, queries, None, getattr(workload, "TRACE_QUERIES", len(queries)))
    out.update(loop)
    out["failures"] = [f"input {i} parsed to the wrong set" for i in bad_inputs] + loop["failures"]
    out["input_errors"] = len(bad_inputs)
    out["recursion_limit_restored"] = sys.getrecursionlimit() == default_limit
    if tracer is not None:
        out["trace"] = tracer.report(loop["raw_busy_s"])
        out["counts"] = tracer.counts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
