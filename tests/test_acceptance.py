"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every test computes its result set first, prints a single summary line, and
only then asserts — so the printed line reports FAIL (with the wall time)
rather than disappearing when an assertion fires.  Budgets are wall-clock
upper bounds; the dry-run timings sit far below them.

Scoping notes for the sweep criteria (2, 3, 6): parallelization, grafting,
the cover-weight formula, the covering/matching numbers, and the packing ILP
value are all equivariant under vertex relabelling, so sweeping every weight
vector over one representative per isomorphism class decides the full
labelled corpus — any labelled counterexample would map to one on its class
representative.  Criterion 6 checks that grafting keeps MFMC by two routes.
The exact leg rests on MFMC = ideal and normal (Gitler-Valencia-Villarreal
2007; Gitler-Reyes-Villarreal 2009): every base that is ideal and normal
must have an ideal and normal graft.  The weight-one leg uses neither
verdict: cover/packing equality at w in {0,1}^n is precisely the König
property of the corresponding deletion minor, so the graft of every base
certified at W = 1 is checked as König over all deletion minors, which is
exact and fits the budget where a naive box scan over 3^15 weight vectors
would not.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import oracles
import strategies
from clutterlab import (
    CorpusSpec,
    covering_number,
    enumerate_clutters,
    graft,
    has_konig,
    has_packing_property,
    integral_closure_membership,
    is_cohen_macaulay,
    is_ideal_clutter,
    is_normal,
    is_ntf_bounded,
    make_clutter,
    matching_number,
    mfmc_bounded,
    minimal_vertex_covers,
    minor,
    parallelization,
    parse_clutter,
    power_membership,
    report_hash,
    scan_conforti_cornuejols,
    serialize_clutter,
    solve_packing_ilp,
    symbolic_power_membership,
    weighted_cover_number,
)

TRIANGLE = parse_clutter("v: x1 x2 x3\ne: x1 x2\ne: x1 x3\ne: x2 x3\n")
TWO_TRIANGLES = parse_clutter(
    "v: x1 x2 x3 x4 x5 x6\n"
    "e: x1 x2\ne: x1 x3\ne: x2 x3\n"
    "e: x4 x5\ne: x4 x6\ne: x5 x6\n"
)


def _finish(number, slug, failures, elapsed, budget):
    ok = not failures and elapsed < budget
    print(
        f"ACCEPTANCE {number:2d} ({slug}): {'PASS' if ok else 'FAIL'} "
        f"[{elapsed:.1f}s / budget {budget:.0f}s]"
    )
    assert not failures, f"{slug}: {len(failures)} failure(s), first: {failures[0]}"
    assert elapsed < budget, f"{slug} exceeded its {budget:.0f}s budget: {elapsed:.1f}s"


def test_criterion_01_weighted_single_edge():
    t0 = time.perf_counter()
    failures = []
    single = make_clutter(["x1", "x2"], [["x1", "x2"]])
    cp = parallelization(single, (3, 3))
    if cp.n != 6:
        failures.append(f"vertex count {cp.n} != 6")
    if cp.q != 9:
        failures.append(f"edge count {cp.q} != 9")
    if covering_number(cp) != 3:
        failures.append(f"alpha0 {covering_number(cp)} != 3")
    if matching_number(cp) != 3:
        failures.append(f"beta1 {matching_number(cp)} != 3")
    if weighted_cover_number(single, (3, 3)) != 3:
        failures.append("weighted cover formula != 3")
    _finish(1, "weighted-single-edge", failures, time.perf_counter() - t0, 1.0)


def test_criterion_02_cover_weight_formula_sweep():
    t0 = time.perf_counter()
    failures = []
    classes = list(
        enumerate_clutters(CorpusSpec(5, uniform_size=2, isomorph_reject=True))
    )
    for c in classes:
        for w in itertools.product(range(4), repeat=c.n):
            if weighted_cover_number(c, w) != covering_number(parallelization(c, w)):
                failures.append((serialize_clutter(c), w))
    # belt and braces: a seeded subsample re-checked against the brute oracle
    rng = random.Random(20260817)
    sampled = 0
    while sampled < 60:
        c = classes[rng.randrange(len(classes))]
        w = tuple(rng.randrange(4) for _ in range(c.n))
        cp = parallelization(c, w)
        if cp.n > 10 or cp.q > 15:
            continue
        sampled += 1
        if weighted_cover_number(c, w) != oracles.brute_covering_number(cp):
            failures.append(("oracle", serialize_clutter(c), w))
    _finish(2, "cover-weight-sweep", failures, time.perf_counter() - t0, 300.0)


def test_criterion_03_matching_weight_sweep():
    t0 = time.perf_counter()
    failures = []
    classes = list(
        enumerate_clutters(CorpusSpec(5, uniform_size=2, isomorph_reject=True))
    )
    for c in classes:
        for w in itertools.product(range(4), repeat=c.n):
            m = matching_number(parallelization(c, w))
            ilp = solve_packing_ilp(c, w).value
            if not (m <= ilp and m == ilp):
                failures.append((serialize_clutter(c), w, m, ilp))
    rng = random.Random(30260817)
    sampled = 0
    while sampled < 60:
        c = classes[rng.randrange(len(classes))]
        w = tuple(rng.randrange(4) for _ in range(c.n))
        cp = parallelization(c, w)
        if cp.n > 10 or cp.q > 15:
            continue
        sampled += 1
        if oracles.brute_matching_number(cp) != solve_packing_ilp(c, w).value:
            failures.append(("oracle", serialize_clutter(c), w))
    _finish(3, "matching-weight-sweep", failures, time.perf_counter() - t0, 600.0)


def test_criterion_04_power_coherence():
    t0 = time.perf_counter()
    failures = []
    for c in enumerate_clutters(CorpusSpec(4, uniform_size=2)):
        via_closure = is_normal(c).normal and is_ideal_clutter(c).ideal
        via_symbolic = is_ntf_bounded(c, 3).certified
        via_weights = mfmc_bounded(c, 3).certified
        if not (via_closure == via_symbolic == via_weights):
            failures.append(
                (serialize_clutter(c), via_closure, via_symbolic, via_weights)
            )
    _finish(4, "power-coherence", failures, time.perf_counter() - t0, 600.0)


def test_criterion_05_normality_under_parallelization():
    t0 = time.perf_counter()
    failures = []
    bases = normal_bases = 0
    for c in enumerate_clutters(CorpusSpec(4)):
        bases += 1
        if not is_normal(c, max_edges=24).normal:
            continue
        normal_bases += 1
        for w in itertools.product((0, 1, 2), repeat=c.n):
            cp = parallelization(c, w)
            if not is_normal(cp, max_vertices=8, max_edges=64).normal:
                failures.append((serialize_clutter(c), w))
    if bases != 166:
        failures.append(f"corpus size {bases} != 166")
    if normal_bases == 0:
        failures.append("no normal bases found — sweep would be vacuous")
    _finish(5, "parallelization-normality", failures, time.perf_counter() - t0, 900.0)


def test_criterion_06_grafting_preserves_structure():
    t0 = time.perf_counter()
    failures = []
    pp_bases = mfmc_bases = exact_bases = total = 0
    for d in (2, 3):
        spec = CorpusSpec(5, uniform_size=d, isomorph_reject=True)
        for base in enumerate_clutters(spec):
            total += 1
            g = graft(base)
            if not is_cohen_macaulay(g, field="Q").cohen_macaulay:
                failures.append(("cm", d, serialize_clutter(base)))
            if has_packing_property(base).holds:
                pp_bases += 1
                if not has_packing_property(g, max_vertices=15).holds:
                    failures.append(("pp", d, serialize_clutter(base)))
            if is_ideal_clutter(base).ideal and is_normal(base).normal:
                exact_bases += 1
                if not (
                    is_ideal_clutter(g, max_vertices=g.n).ideal
                    and is_normal(g, max_vertices=g.n, max_edges=g.q).normal
                ):
                    failures.append(("exact-mfmc", d, serialize_clutter(base)))
            if mfmc_bounded(base, 1).certified:
                mfmc_bases += 1
                # weight-one boxes on the graft == König for every deletion
                # minor (see module docstring); exact at W=1
                for keep in itertools.product((0, 1), repeat=g.n):
                    dropped = tuple(
                        v for v, k in zip(g.vertices, keep) if not k
                    )
                    if not has_konig(minor(g, deleted=dropped)):
                        failures.append(("mfmc", d, serialize_clutter(base), dropped))
                        break
    if total != 66:
        failures.append(f"class count {total} != 66")
    if exact_bases != 18:
        failures.append(f"ideal and normal base count {exact_bases} != 18")
    if pp_bases == 0 or mfmc_bases == 0:
        failures.append("a preservation leg would be vacuous")
    _finish(6, "graft-preservation", failures, time.perf_counter() - t0, 1200.0)


def test_criterion_07_packing_and_weight_implications():
    t0 = time.perf_counter()
    failures = []
    count = 0
    for c in enumerate_clutters(CorpusSpec(4)):
        count += 1
        if has_packing_property(c).holds and not is_ideal_clutter(c).ideal:
            failures.append(("packing-implies-ideal", serialize_clutter(c)))
        if mfmc_bounded(c, 2).certified and not has_konig(c):
            failures.append(("mfmc-implies-konig", serialize_clutter(c)))
    if count != 166:
        failures.append(f"corpus size {count} != 166")
    _finish(7, "corpus-implications", failures, time.perf_counter() - t0, 300.0)


def test_criterion_08_negative_fixtures_frozen():
    t0 = time.perf_counter()
    failures = []

    def canon(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()

    for attempt in range(2):  # byte-reproducibility: two independent runs
        tri = parse_clutter("v: x1 x2 x3\ne: x1 x2\ne: x1 x3\ne: x2 x3\n")
        konig = canon({"alpha0": covering_number(tri), "beta1": matching_number(tri)})
        if konig != b'{"alpha0":2,"beta1":1}':
            failures.append(("konig", attempt, konig))
        vertex = is_ideal_clutter(tri).fractional_witness
        if vertex != (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)):
            failures.append(("ideal", attempt, vertex))
        if canon([str(x) for x in vertex]) != b'["1/2","1/2","1/2"]':
            failures.append(("ideal-bytes", attempt))
        ntf = is_ntf_bounded(tri, 2).witness
        if canon({"a": list(ntf[0]), "i": ntf[1]}) != b'{"a":[1,1,1],"i":2}':
            failures.append(("ntf", attempt, ntf))
        two = parse_clutter(
            "v: x1 x2 x3 x4 x5 x6\n"
            "e: x1 x2\ne: x1 x3\ne: x2 x3\n"
            "e: x4 x5\ne: x4 x6\ne: x5 x6\n"
        )
        nrm = is_normal(two).witness
        if canon({"a": list(nrm[0]), "b": nrm[1]}) != b'{"a":[1,1,1,1,1,1],"b":3}':
            failures.append(("normal", attempt, nrm))
    _finish(8, "frozen-counterexamples", failures, time.perf_counter() - t0, 2.0)


def test_criterion_09_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(99250817)
    for _ in range(500):
        c = strategies.random_clutter(rng, max_n=5, max_q=5)
        mine = [tuple(c.vertices[i] for i in cov) for cov in minimal_vertex_covers(c)]
        if mine != oracles.brute_minimal_covers(c):
            failures.append(("covers", serialize_clutter(c)))
        if matching_number(c) != oracles.brute_matching_number(c):
            failures.append(("matching", serialize_clutter(c)))
        for i in (1, 2, 3):
            for _ in range(2):
                a = tuple(rng.randrange(4) for _ in range(c.n))
                if power_membership(c, a, i) != oracles.brute_power_membership(c, a, i):
                    failures.append(("power", serialize_clutter(c), a, i))
                if symbolic_power_membership(c, a, i) != oracles.brute_symbolic_membership(c, a, i):
                    failures.append(("symbolic", serialize_clutter(c), a, i))
                if integral_closure_membership(c, a, i) != oracles.brute_closure_membership(c, a, i):
                    failures.append(("closure", serialize_clutter(c), a, i))
    _finish(9, "oracle-equivalence", failures, time.perf_counter() - t0, 300.0)


def test_criterion_10_counterexample_scan_smoke():
    t0 = time.perf_counter()
    failures = []
    first = scan_conforti_cornuejols(CorpusSpec(4, uniform_size=2))
    second = scan_conforti_cornuejols(CorpusSpec(4, uniform_size=2))
    if first.counterexamples:
        failures.append(f"{len(first.counterexamples)} counterexamples in run 1")
    if second.counterexamples:
        failures.append(f"{len(second.counterexamples)} counterexamples in run 2")
    if report_hash(first.reports) != report_hash(second.reports):
        failures.append("report hash differs between runs")
    if len(first.reports) != 40:
        failures.append(f"filtered corpus size {len(first.reports)} != 40")
    _finish(10, "scan-smoke", failures, time.perf_counter() - t0, 600.0)


def test_criterion_11_six_vertex_graph_classes():
    # A000088 counts 156 graphs on 6 vertices; the corpus drops isolated
    # vertices, so each graph but the edgeless one appears once, as the
    # clutter of its edges
    t0 = time.perf_counter()
    failures = []
    classes = list(
        enumerate_clutters(CorpusSpec(6, uniform_size=2, isomorph_reject=True))
    )
    if len(classes) != 155:
        failures.append(f"{len(classes)} graph classes != 155")
    _finish(11, "six-vertex-graph-classes", failures, time.perf_counter() - t0, 60.0)
