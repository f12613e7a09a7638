"""conset benchmark: seeded closed-loop workloads against the package in src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

All load comes from one client in one single-threaded process, which sends
the next query only after the previous one returns.  Each phase runs in a
fresh interpreter (see worker.py), so one run's intern table never warms the
next.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list the limit probes, the raw timings and the median latency per (query
kind, size rung).  Times are in reference seconds (see reference.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
part of the schedule once untraced and three times traced (twice on the
seed, once on a held-out seed) and reports the per-layer metrics, after
checking that the two same-seed runs agree on every count and on the digest
of all answers.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

WORKLOADS = ("algebra_corpus", "fusion_tuples", "structure_iso", "deep_programs")
SETUPS = 5  # set-up is measured at least this many times per run; the median is reported
HELD_OUT = 1_000_003  # added to the seed for the held-out determinism run
PHASE_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 20
DEADLINE = time.monotonic() + 170  # the whole run ends within 180 s
ADDR_NO_RANDOMIZE = 0x0040000


def _fixed_layout() -> None:
    """Run the child without address randomization (and, through the
    environment, with a fixed string hash).  Sets of handles hash by
    address, so their iteration order, and with it some call counts, would
    otherwise change from one interpreter to the next."""
    ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)


def phase(job: dict, timeout: float = PHASE_TIMEOUT_S) -> tuple[dict | None, float, str]:
    """Run one worker phase.  Returns its result (None when it failed), its
    set-up time in reference seconds (spawn to first query, less the
    worker's own reference samples), and the reason it failed."""
    job = {"src": str(SRC), **job}
    spawned = time.monotonic()
    timeout = min(timeout, DEADLINE - spawned)
    if timeout <= 0:
        return None, 0.0, "Timeout"
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            timeout=timeout,
            preexec_fn=_fixed_layout,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, 0.0, "Timeout"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        why = f"exit {proc.returncode}" if proc.returncode >= 0 else f"signal {-proc.returncode}"
        sys.stderr.write(proc.stderr[-2000:])
        return None, 0.0, f"Crashed({why})"
    result = json.loads(lines[-1])
    setup = 0.0
    if "ready" in result:
        setup = (result["ready"] - spawned - result["sampling_s"]) * result["setup_factor"]
    return result, setup, ""


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; failed queries are +inf and sort last."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_query(runs: list[dict]) -> list[float]:
    """Each distinct query's median latency over all its executions, in
    reference ms; +inf when any execution failed.  Statistics over distinct
    queries weigh the schedule evenly, however far the last pass got."""
    merged: list[list[float]] = [[] for _ in runs[0]["per_query_ms"]]
    for run in runs:
        for qi, values in enumerate(run["per_query_ms"]):
            merged[qi].extend(values)
    return [
        math.nan if not v else math.inf if math.inf in v else statistics.median(v)
        for v in merged
    ]


def print_rungs(spec: dict, latencies: list[float]) -> None:
    """Median latency per (query kind, size rung), so growth rates show."""
    groups: dict[tuple[str, str], list[float]] = {}
    for (kind, rung, _), ms in zip(spec["queries"], latencies):
        if not math.isnan(ms):
            groups.setdefault((kind, rung), []).append(ms)
    for (kind, rung), values in sorted(groups.items()):
        print(f"rung {kind:<22} {rung:<12} n={len(values):<5} p50_ms={quantile(values, 0.5):.4f}")


def end_to_end(args, spec: dict) -> dict:
    """Set up SETUPS times, run the timed loop, then the limit probes.

    A workload whose schedule is one pass per process (deep_programs) runs
    as many fresh processes as the measured seconds need; every other
    workload runs its timed loop in one process.
    """
    base = {"workload": args.workload, "seed": args.seed, "spec": spec}
    setups = []
    for _ in range(SETUPS - 1):
        got, setup, err = phase({**base, "mode": "setup"})
        if got is None:
            raise SystemExit(f"set-up phase failed: {err}")
        setups.append(setup)
    runs = []
    raw_busy = 0.0
    while raw_busy < args.seconds:
        left = args.seconds - raw_busy
        run, setup, err = phase({**base, "mode": "run", "seconds": left}, left + PHASE_TIMEOUT_S)
        if run is None:
            raise SystemExit(f"timed phase failed: {err}")
        setups.append(setup)
        runs.append(run)
        raw_busy += run["raw_busy_s"]

    probes_failed = 0
    for name in spec["probes"]:
        got, _, err = phase({**base, "spec": {}, "mode": "probe", "probe": name}, PROBE_TIMEOUT_S)
        outcome = got["error"] if got is not None else err
        print(f"probe {name}: {outcome or 'passed'}")
        probes_failed += outcome is not None

    lat = per_query(runs)
    ok = [ms for ms in lat if ms != math.inf]
    restored = all(run["recursion_limit_restored"] for run in runs)
    print_rungs(spec, lat)
    print(f"raw busy_s={raw_busy:.4f} reference busy_s={sum(r['busy_s'] for r in runs):.4f} "
          f"executed={sum(r['executed'] for r in runs)} processes={len(runs)}")
    for line in (f for run in runs for f in run["failures"]):
        print(f"failure {line}")
    if not restored:
        print("failure: the recursion limit was not restored to its default")
    # failures are counted per distinct query, so the ratio does not follow speed
    failed_ids = {qi for run in runs for qi in run["failed_ids"]}
    attempted = len(lat) + len(spec["probes"])
    failed = len(failed_ids) + probes_failed
    return {
        "correct": not failed_ids and restored and not any(run["input_errors"] for run in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "throughput_qps": metric(len(ok) / (sum(ok) / 1e3), "queries/s"),
            "latency_p50_ms": metric(quantile(lat, 0.50), "ms"),
            "latency_p95_ms": metric(quantile(lat, 0.95), "ms"),
            "peak_rss_mb": metric(max(run["maxrss_kb"] for run in runs) / 1024, "MiB"),
            "failed_ratio": metric(failed / attempted, "ratio"),
            "setup_s": metric(statistics.median(setups), "s"),
        },
    }


def per_layer(args, spec: dict, workload) -> dict:
    base = {"workload": args.workload, "mode": "cycle"}
    held_seed = args.seed + HELD_OUT
    jobs = (
        {"seed": args.seed, "spec": spec, "trace": False},
        {"seed": args.seed, "spec": spec, "trace": True},
        {"seed": args.seed, "spec": spec, "trace": True},
        {"seed": held_seed, "spec": workload.spec(held_seed), "trace": True},
    )
    runs = []
    for job in jobs:
        got, _, err = phase({**base, **job})
        if got is None:
            raise SystemExit(f"traced phase failed: {err}")
        runs.append(got)
    plain, traced, again, held = runs

    problems = [f for r in runs for f in r["failures"]]
    if traced["counts"] != again["counts"]:
        differ = sorted(k for k in set(traced["counts"]) | set(again["counts"])
                        if traced["counts"].get(k) != again["counts"].get(k))
        problems.append(f"two traced runs of one seed disagree on counts: {differ[:10]}")
    if traced["digest"] != again["digest"]:
        problems.append("two traced runs of one seed disagree on the answer digest")
    path = {k for k, v in traced["counts"].items() if k.startswith("calls.") and v}
    held_path = {k for k, v in held["counts"].items() if k.startswith("calls.") and v}
    if path != held_path:
        problems.append(f"held-out seed took another code path: {sorted(path ^ held_path)[:10]}")
    if not all(r["recursion_limit_restored"] for r in runs):
        problems.append("the recursion limit was not restored to its default")
    print_rungs(spec, per_query([plain]))
    for line in problems:
        print(f"failure {line}")

    metrics = dict(traced["trace"])
    metrics["trace.overhead_ratio"] = traced["busy_s"] / plain["busy_s"]
    metrics["setup.import_s"] = plain["import_s"]
    metrics["setup.parse_s"] = plain["parse_s"]
    return {
        "correct": not problems and not any(r["input_errors"] for r in runs),
        "attempted": sum(r["executed"] for r in runs),
        "failed": sum(r["failed_executions"] for r in runs),
        "metrics": {name: metric(value, _unit(name)) for name, value in metrics.items()},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "conset" / "__init__.py").is_file():
        print(f"no conset package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    workload = importlib.import_module(f"workloads.{args.workload}")
    spec = workload.spec(args.seed)
    result = per_layer(args, spec, workload) if args.trace else end_to_end(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
