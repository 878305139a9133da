"""clutterlab benchmark: one workload, measured in fresh interpreters.

    python3 bench/run.py --workload check-corpus --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run first times three
set-ups (interpreter start, import, corpus enumeration) in separate
processes, then runs whole rounds of the workload back to back, one fresh
process each, until the rounds' timed regions add up to ``--seconds``.  It
prints the end-to-end metrics.  With ``--trace 1`` it runs traced rounds the
same way and prints the per-layer metrics as means per round, with the
estimated tracing overhead.  The last line of standard output is always one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
SETUPS = 3
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Run the worker in a fresh interpreter; (its JSON result, wall seconds)."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} ran past the deadline") from None
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(
            f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def round_args(workload, seed, number, trace):
    return [
        "round", "--workload", workload, "--seed", str(seed),
        "--round", str(number), "--trace", str(trace),
    ]


def run_rounds(args, trace, deadline):
    """Whole rounds, each in a fresh interpreter, until their timed regions
    add up to --seconds."""
    rounds = []
    while not rounds or sum(r["elapsed_s"] for r in rounds) < args.seconds:
        number = len(rounds)
        rounds.append(
            spawn(round_args(args.workload, args.seed, number, trace), deadline)[0]
        )
    return rounds


def end_to_end(args, deadline):
    setup = ["setup", "--workload", args.workload]
    setups = [spawn(setup, deadline)[1] for _ in range(SETUPS)]
    rounds = run_rounds(args, 0, deadline)
    times_ms = [1000 * t for r in rounds for t in r["instance_s"]]
    if len(times_ms) < 2:
        raise BenchError("fewer than two instances completed")
    p90 = statistics.quantiles(times_ms, n=10, method="inclusive")[8]
    metrics = {
        "instances_per_s": len(times_ms) / sum(r["elapsed_s"] for r in rounds),
        "instance_p50_ms": statistics.median(times_ms),
        "instance_p90_ms": p90,
        "peak_rss_mib": max(r["peak_rss_mib"] for r in rounds),
        "setup_s": statistics.median(setups),
    }
    return rounds, metrics


def per_layer(args, deadline):
    traced = run_rounds(args, 1, deadline)
    metrics = {
        name: statistics.fmean(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    return traced, metrics


def select(values, listed):
    """(value, unit) of each metric that BENCHMARK.json lists, in its order."""
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for listed metrics {missing}")
    return {m["name"]: (values[m["name"]], m["unit"]) for m in listed}


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    for needed in (ROOT / "src" / "clutterlab", ROOT / "tests" / "oracles.py"):
        if not needed.exists():
            print(f"bench: {needed.relative_to(ROOT)} is missing", file=sys.stderr)
            return 2
    try:
        rounds, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
        metrics = select(metrics, spec["per_layer" if args.trace else "end_to_end"])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    hashes = {r["report_hash"] for r in rounds}
    problems = [p for r in rounds for p in r["problems"]]
    if len(hashes) != 1:
        problems.append(f"report_hash differs between rounds: {sorted(hashes)}")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} rounds {len(rounds)}")
    print(f"report_hash {sorted(hashes)[0]}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    known = sum(r["known_faults"] for r in rounds)
    print(f"attempted {attempted} failed {failed} (known fault {known})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
