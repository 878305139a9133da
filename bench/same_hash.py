"""Check that a workload's report_hash is the same for every seed and with
tracing on or off, and print it.

    python3 bench/same_hash.py --workload check-corpus --seeds 1 2 3

Run from the root of a checkout.  Each seed runs one round of the workload in
a fresh interpreter, in the instance order that seed gives; the first seed
also runs one traced round.  Every round's outputs pass the same oracle
checks as in `run.py`.  Exits 0 and prints the hash when all rounds agree and
pass, and 1 otherwise.  A run of `run.py` compares the hashes of its own
rounds only, so this is the check across runs and seeds, and the way to
recompute the reference hash at any commit.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from run import BenchError, round_args, spawn

DEADLINE_S = 3600.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    runs = [(seed, 0) for seed in args.seeds] + [(args.seeds[0], 1)]
    hashes = {}
    problems = []
    try:
        for seed, trace in runs:
            result, _ = spawn(round_args(args.workload, seed, 0, trace), deadline)
            hashes[seed, trace] = result["report_hash"]
            problems += result["problems"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for (seed, trace), digest in hashes.items():
        print(f"seed {seed} trace {trace} report_hash {digest}")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    if problems or len(set(hashes.values())) != 1:
        print("report_hash differs or a check failed", file=sys.stderr)
        return 1
    print(f"{args.workload} report_hash {hashes[runs[0]]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
