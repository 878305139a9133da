"""Correctness checks on benchmark outputs, made apart from the program.

Every check recomputes a verdict or replays a witness with the brute-force
routes of the test suite's `oracles` module, or asserts one of the paper's
implications on the reports.  Each function returns a list of problems; an
empty list means the instance passed.
"""

from __future__ import annotations

from itertools import combinations, product

import oracles


def _index_sets(c, labels) -> frozenset[int]:
    return frozenset(c.vertices.index(v) for v in labels)


def _reisner_failure(c):
    """First face, in (size, lex) order, whose link has nonzero reduced
    homology below the link's dimension, as (face labels, dim, betti); None
    when the independence complex is Cohen-Macaulay (Reisner's criterion)."""
    everything = frozenset(range(c.n))
    facets = [
        everything - _index_sets(c, cover) for cover in oracles.brute_minimal_covers(c)
    ]
    faces = {frozenset(s) for f in facets for k in range(len(f) + 1)
             for s in combinations(sorted(f), k)}
    for face in sorted(faces, key=lambda f: (len(f), sorted(f))):
        link = [tuple(sorted(f - face)) for f in facets if face <= f]
        top = max(len(f) for f in link) - 1
        betti = oracles.brute_reduced_betti(link, field="Q")
        for k in range(-1, top):
            if betti.get(k, 0):
                return tuple(c.vertices[i] for i in sorted(face)), k, betti[k]
    return None


def check_konig(c, v):
    alpha = oracles.brute_covering_number(c)
    beta = oracles.brute_matching_number(c)
    if (v.witness["alpha0"], v.witness["beta1"]) != (alpha, beta):
        return [f"konig: alpha0/beta1 {v.witness} but oracle gives {alpha}/{beta}"]
    if v.value != (alpha == beta):
        return [f"konig: verdict {v.value} disagrees with {alpha}/{beta}"]
    return []


def _check_covers(c, covers):
    mine = {frozenset(c.vertices[i] for i in cover) for cover in covers}
    if mine != {frozenset(cover) for cover in oracles.brute_minimal_covers(c)}:
        return ["covers: minimal vertex covers disagree with the oracle"]
    return []


def check_packing(c, v):
    problems = []
    if v.value != oracles.brute_packing_property(c):
        problems.append(f"packing: verdict {v.value} disagrees with the oracle")
    if not v.value:
        w = v.witness
        edges = oracles._minor_edges(
            [frozenset(e) for e in c.edges],
            _index_sets(c, w["deleted"]),
            _index_sets(c, w["contracted"]),
        )
        if edges is None:
            problems.append("packing: witness minor is the unit ideal")
        else:
            alpha, beta = oracles._alpha_on_edges(edges), oracles._beta_on_edges(edges)
            if (alpha, beta) != (w["alpha0"], w["beta1"]) or alpha == beta:
                problems.append(
                    f"packing: witness minor has alpha0/beta1 {alpha}/{beta}"
                )
    return problems


def _check_mfmc(c, v, rng, samples):
    if not v.value:
        w = v.witness["w"]
        cover = oracles.brute_weighted_cover(c, w)
        packing = oracles.brute_max_packing(c, w)
        claimed = (v.witness["cover"], v.witness["packing"])
        if (cover, packing) != claimed or cover == packing:
            return [f"mfmc: witness w={w} has cover {cover} and packing {packing}"]
        return []
    boxes = list(product(range(v.bound + 1), repeat=c.n))
    for w in rng.sample(boxes, min(samples, len(boxes))):
        cover = oracles.brute_weighted_cover(c, w)
        packing = oracles.brute_max_packing(c, w)
        if cover != packing:
            return [f"mfmc: certified, but w={w} has cover {cover}, packing {packing}"]
    return []


def _check_normal(c, v):
    if v.value:
        return []
    a, b = v.witness["a"], v.witness["b"]
    in_closure = oracles.brute_closure_membership(c, a, b)
    if not in_closure or oracles.brute_power_membership(c, a, b):
        return [f"normal: witness {a}, {b} is not in closure(I^b) minus I^b"]
    return []


def _check_ntf(c, v):
    if v.value:
        return []
    a, i = v.witness["a"], v.witness["i"]
    in_symbolic = oracles.brute_symbolic_membership(c, a, i)
    if not in_symbolic or oracles.brute_power_membership(c, a, i):
        return [f"ntf: witness {a}, {i} is not in I^({i}) minus I^{i}"]
    return []


def _check_cm(c, v):
    failure = _reisner_failure(c)
    if v.value != (failure is None):
        return [f"cm: verdict {v.value} disagrees with Reisner's criterion"]
    if v.value:
        return []
    w = v.witness
    if w["kind"] == "unmixed":
        covers = {frozenset(cv) for cv in oracles.brute_minimal_covers(c)}
        small, big = (frozenset(cv) for cv in w["covers"])
        if small not in covers or big not in covers or len(small) == len(big):
            return [f"cm: unmixed witness {w['covers']} is not two unequal covers"]
        return []
    if (tuple(w["face"]), w["dim"], w["betti"]) != failure:
        return [f"cm: link witness {w}, but the oracle's first failure is {failure}"]
    return []


def check_report(c, report, covers, rng, samples=3):
    """Recheck every verdict of one full `check_properties` report, and the
    program's minimal vertex covers (index tuples) of the same clutter.

    Certified MFMC verdicts are rechecked on `samples` weight vectors drawn
    with `rng`.
    """
    verdicts = {v.name: v for v in report.verdicts}
    problems = (
        _check_covers(c, covers)
        + check_konig(c, verdicts["konig"])
        + check_packing(c, verdicts["packing"])
        + _check_mfmc(c, verdicts["mfmc"], rng, samples)
        + _check_normal(c, verdicts["normal"])
        + _check_ntf(c, verdicts["ntf"])
        + _check_cm(c, verdicts["cm"])
    )
    if verdicts["packing"].value and not verdicts["ideal"].value:
        problems.append("implication pp => ideal fails")
    if verdicts["mfmc"].value and not verdicts["konig"].value:
        problems.append("implication mfmc => konig fails")
    return problems


def check_graft(base, base_report, report):
    """The base's packing verdict against the oracles; grafting a uniform
    clutter yields a CM clutter, and keeps the packing property of a base
    that has it."""
    base_pp = base_report.verdict("packing")
    problems = check_packing(base, base_pp)
    if not report.verdict("cm").value:
        problems.append("implication graft-cm fails")
    if base_pp.value and not report.verdict("packing").value:
        problems.append("implication graft-pp fails")
    return problems


def is_five_cycle(text: str) -> bool:
    """True when a serialized clutter is the 5-cycle (the only simple
    2-regular graph on five vertices)."""
    lines = text.strip().splitlines()
    vertices = lines[0].split()[1:]
    edges = [line.split()[1:] for line in lines[1:]]
    degrees = {v: sum(v in e for e in edges) for v in vertices}
    return (
        len(vertices) == 5
        and len(edges) == 5
        and all(len(e) == 2 for e in edges)
        and set(degrees.values()) == {2}
    )

