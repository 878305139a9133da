"""One set-up or one measured round of a clutterlab benchmark workload.

`run.py` starts this script in a fresh interpreter for every set-up and every
round, so the package's unbounded lru_caches always start empty:

    python3 bench/worker.py setup --workload check-corpus
    python3 bench/worker.py round --workload check-corpus --seed 1 --round 0 --trace 0

`setup` imports the package, enumerates the workload's corpus and exits.
`round` does the same, then runs every operation of the workload once inside
the timed region, checks the outputs against the oracles outside it, and
prints one JSON object as its last line.  With ``--trace 1`` the package's
public functions are wrapped before the corpus is enumerated, and the round
also reports per-layer self times, call counts and cache counts.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import clutterlab  # noqa: E402
from clutterlab import core, covering, harness  # noqa: E402
from clutterlab.harness import CorpusSpec, VerifyBounds  # noqa: E402

SPANS_DIR = ROOT / ".bench_out"

CORPORA = {
    # every antichain on <= 4 vertices, then the 5-vertex 2-uniform classes,
    # then the 5-vertex 3-uniform classes with at most 5 edges
    "check-corpus": (
        CorpusSpec(4),
        CorpusSpec(5, uniform_size=2, isomorph_reject=True),
        CorpusSpec(5, uniform_size=3, isomorph_reject=True, max_edges=5),
    ),
    # graft bases: the 5-vertex 2-uniform classes and the 3-uniform classes
    # on at most 4 vertices; a 3-uniform class on 5 vertices grafts to 15
    # vertices and would take 10 to 25 s on its own
    "graft-cm": (
        CorpusSpec(5, uniform_size=2, isomorph_reject=True),
        CorpusSpec(4, uniform_size=3, isomorph_reject=True),
    ),
    # the corpora of verify operations (a) and (b)
    "verify": (
        CorpusSpec(4, uniform_size=2),
        CorpusSpec(5, uniform_size=2, isomorph_reject=True),
    ),
}

VERIFY_B_BOUNDS = VerifyBounds(
    include_graft=False, include_parallelization=False, include_whiskers=False
)


class Round:
    """Outputs of one round: per-operation instance times, failures, reports."""

    def __init__(self, ops):
        self.ops = list(ops)
        self.instance_s: dict = {op: [] for op in self.ops}
        self.errors: dict = {}
        self.known_faults: set = set()
        self.reports: list = []
        self.digest = ""
        self.elapsed_s = 0.0

    def error(self, op, exc):
        self.errors[op] = "".join(traceback.format_exception_only(exc)).strip()


def _instance_round(corpus, rng, operation, report_of):
    """Run operation on every instance, in an order drawn from rng, then emit
    and hash the reports in corpus order; an exception fails one instance."""
    rnd = Round(range(len(corpus)))
    results = [None] * len(corpus)
    start = perf_counter()
    for i in rng.sample(range(len(corpus)), len(corpus)):
        began = perf_counter()
        try:
            results[i] = operation(corpus[i])
        except Exception as exc:  # a failing operation is counted, not fatal
            rnd.error(i, exc)
            continue
        rnd.instance_s[i].append(perf_counter() - began)
    rnd.reports = [report_of(r) for r in results if r is not None]
    harness.emit_report(rnd.reports)
    rnd.digest = harness.report_hash(rnd.reports)
    rnd.elapsed_s = perf_counter() - start
    return rnd, results


def round_check_corpus(corpus, rng):
    rnd, reports = _instance_round(corpus, rng, harness.check_properties, lambda r: r)

    def check():
        return {
            i: checks.check_report(
                c, reports[i], covering.minimal_vertex_covers(c), rng
            )
            for i, c in enumerate(corpus)
            if reports[i] is not None
        }

    return rnd, check


def _graft_and_check(base):
    base_report = harness.check_properties(base, props=("packing",))
    props = ("cm", "packing") if base_report.verdict("packing").value else ("cm",)
    return base_report, harness.check_properties(core.graft(base), props=props)


def round_graft_cm(corpus, rng):
    rnd, results = _instance_round(corpus, rng, _graft_and_check, lambda r: r[1])

    def check():
        return {
            i: checks.check_graft(base, *results[i])
            for i, base in enumerate(corpus)
            if results[i] is not None
        }

    return rnd, check


def round_verify(corpus, rng):
    """Operation (a), then (b); each instance's time runs from the moment the
    corpus yields it to the moment verify_theorems asks for the next one."""
    rnd = Round("ab")
    marks: list[float] = []
    enumerate_clutters = harness.enumerate_clutters

    def marked(spec):
        for c in enumerate_clutters(spec):
            marks.append(perf_counter())
            yield c
        marks.append(perf_counter())

    summaries = {}
    start = perf_counter()
    harness.enumerate_clutters = marked
    try:
        for op, spec, bounds in (
            ("a", CORPORA["verify"][0], None),
            ("b", CORPORA["verify"][1], VERIFY_B_BOUNDS),
        ):
            del marks[:]
            try:
                summaries[op] = harness.verify_theorems(spec, bounds)
            except harness.TheoremViolationError as exc:
                if exc.implication == "power-coherence" and checks.is_five_cycle(
                    exc.clutter_text
                ):
                    rnd.known_faults.add(op)
                else:
                    rnd.error(op, exc)
            except Exception as exc:  # a failing operation is counted, not fatal
                rnd.error(op, exc)
            rnd.instance_s[op] = [b - a for a, b in zip(marks, marks[1:])]
        rnd.reports = [r for s in summaries.values() for r in s.reports]
        harness.emit_report(rnd.reports)
        rnd.digest = harness.report_hash(rnd.reports)
    finally:
        harness.enumerate_clutters = enumerate_clutters
    rnd.elapsed_s = perf_counter() - start

    def check():
        problems = {}
        if "a" in summaries:
            reports = summaries["a"].reports
            a_corpus = list(enumerate_clutters(CORPORA["verify"][0]))
            problems["a"] = []
            if len(reports) != len(a_corpus):
                problems["a"].append("wrong report count")
            for c, report in zip(a_corpus, reports):
                if report.clutter != core.serialize_clutter(c):
                    problems["a"].append("reports out of corpus order")
                problems["a"] += checks.check_konig(c, report.verdict("konig"))
                problems["a"] += checks.check_packing(c, report.verdict("packing"))
        return problems

    return rnd, check


WORKLOADS = {
    "check-corpus": round_check_corpus,
    "graft-cm": round_graft_cm,
    "verify": round_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("setup", "round"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(clutterlab)
    specs = CORPORA[args.workload]
    corpus = [c for spec in specs for c in harness.enumerate_clutters(spec)]
    if args.command == "setup":
        print(json.dumps({"instances": len(corpus)}))
        return 0

    rng = random.Random(f"{args.workload}:{args.seed}:{args.round}")
    rnd, check = WORKLOADS[args.workload](corpus, rng)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        layers = {
            **tracer.layer_metrics(),
            "trace.overhead_s": tracer.overhead_s(),
        }
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"{args.workload}.spans")

    problems = [f"op {op}: {msg}" for op, msg in rnd.errors.items()]
    failed = set(rnd.errors) | rnd.known_faults
    for op, found in check().items():
        if found:
            failed.add(op)
            problems += [f"op {op}: {msg}" for msg in found]
    instance_s = [t for op in rnd.ops if op not in failed for t in rnd.instance_s[op]]
    print(
        json.dumps(
            {
                "attempted": len(rnd.ops),
                "failed": len(failed),
                "known_faults": len(rnd.known_faults),
                "problems": problems,
                "elapsed_s": rnd.elapsed_s,
                "instance_s": instance_s,
                "peak_rss_mib": peak_rss_mib,
                "report_hash": rnd.digest,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
