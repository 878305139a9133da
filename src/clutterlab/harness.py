"""Corpus enumeration, theorem verification, scanning, and reports.

The harness enumerates every small clutter within given bounds in a fixed
deterministic order, evaluates the full property battery on each (covering
numbers, packing property, idealness, bounded max-flow min-cut, exact
normality, bounded torsion-freeness, Cohen-Macaulayness), and asserts the
implications that are theorems at the bounds used: a single violation is
raised as an error because it can only mean an implementation bug.

Exact max-flow min-cut is decided by a theorem rather than by a bounded
scan: a clutter has MFMC exactly when Q(A) is integral and R[It] is normal
(Gitler-Valencia-Villarreal 2007; Gitler-Reyes-Villarreal 2009), and both
`ideal` and `normal` are exact verdicts.

`verify_theorems` checks each statement about a derived clutter once per
isomorphism class of (corpus clutter, derivation).  A corpus clutter
whose canonical form was met before adds the counts of the first clutter of
its class; within a clutter, a weight vector or vertex is keyed by its least
image under the relabelings that reach the canonical form, one coset of
Aut(c), so the kernels run once per Aut(c)-orbit.  Every verdict and size
guard involved reads the edge structure up to isomorphism, so the counts
and the first violation are those of checking every labelled copy.

`scan_conforti_cornuejols` filters the corpus to packing-property instances
and reports the counterexamples to the packing-implies-MFMC conjecture.  A
packing clutter is ideal (Lehman), so it fails MFMC exactly when it is not
normal; its Hilbert-basis witness is in its report.

Reports serialize deterministically (JSON schema version 1, CSV, or text);
the comparison hash excludes the timing fields.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations, groupby, permutations, product
from operator import add
from typing import Iterator

from . import cm as cm_mod
from . import covering, polyhedra, rees
from .core import (
    Clutter,
    ClutterError,
    InstanceTooLargeError,
    _integer,
    adjoin_whisker_edge,
    graft,
    is_uniform,
    make_clutter,
    minor,
    parallelization,
    serialize_clutter,
)

ALL_PROPERTIES = ("konig", "packing", "ideal", "mfmc", "normal", "ntf", "cm")


@dataclass(frozen=True, slots=True)
class CorpusSpec:
    """Deterministic enumeration bounds for small-clutter corpora.

    With ``uniform_size`` set, the corpus is every nonempty subset of the
    size-d subsets of {x1..xn} (stranded vertices dropped), streamed in
    increasing bitmask order over the lexicographic list of possible edges.
    Without it, the corpus is every nonempty antichain of nonempty subsets,
    streamed in depth-first order over the (size, lex)-sorted subset list.
    Isomorph rejection keeps the first representative of each relabeling
    class.  Each candidate's edge-index list is keyed before any ``Clutter``
    is built, by an exact canonical form that minimizes only over the
    relabelings respecting a refined vertex invariant (see
    ``isomorphism_key``), so only first representatives are constructed.
    """

    max_vertices: int
    uniform_size: int | None = None
    max_edges: int | None = None
    isomorph_reject: bool = False

    def __post_init__(self):
        if _integer(self.max_vertices, "max_vertices") < 1:
            raise ValueError("max_vertices must be positive")
        if self.uniform_size is not None and not (
            1 <= _integer(self.uniform_size, "uniform_size") <= self.max_vertices
        ):
            raise ValueError("uniform_size must be between 1 and max_vertices")
        if (
            self.max_edges is not None
            and _integer(self.max_edges, "max_edges") < 1
        ):
            raise ValueError("max_edges must be positive")


def _relabelings(edges):
    """The head of `_edge_key` (used vertices, edges, sorted invariants),
    the invariant classes in invariant order, and the edge masks of every
    relabeling that respects them, in the order of the product of the
    classes' ``permutations``."""
    incident: dict[int, list[int]] = {}
    for j, e in enumerate(edges):
        for v in e:
            incident.setdefault(v, []).append(j)
    sizes = {
        v: tuple(sorted(len(edges[j]) for j in js)) for v, js in incident.items()
    }
    profile = [tuple(sorted(sizes[u] for u in e)) for e in edges]
    invariant = {
        v: (sizes[v], tuple(sorted(profile[j] for j in js)))
        for v, js in incident.items()
    }
    order = sorted(incident, key=invariant.__getitem__)
    blocks = [list(group) for _, group in groupby(order, key=invariant.__getitem__)]
    # A block's permutation adds its vertices' bits to the edges they lie
    # on; a relabeling's edge masks are the sums of one choice per block.
    relabelings = [[0] * len(edges)]
    start = 0
    for block in blocks:
        layer = []
        for perm in permutations(block):
            part = [0] * len(edges)
            for i, v in enumerate(perm, start):
                for j in incident[v]:
                    part[j] += 1 << i
            layer.append(part)
        relabelings = [list(map(add, r, part)) for r in relabelings for part in layer]
        start += len(block)
    head = (len(order), len(edges), tuple(invariant[v] for v in order))
    return head, blocks, relabelings


def _edge_key(edges) -> tuple:
    """Canonical key of the clutter on the vertices that ``edges`` use.

    ``edges`` are vertex-index tuples; indices that no edge uses are ignored,
    as ``make_clutter`` drops those vertices.  Each vertex gets an invariant:
    the sorted sizes of its edges (their number is its degree), refined once
    by the sorted multiset, over its edges, of the members' size lists.
    The key is the least sorted bitmask edge list over the relabelings that
    send the vertices of each invariant class, taken in invariant order, onto
    their own block of positions.  Isomorphic edge lists have the same
    invariant classes and so the same set of relabeled lists, hence equal
    keys; equal keys give equal relabeled lists, hence isomorphic ones.
    """
    head, _, relabelings = _relabelings(edges)
    return head + (min(tuple(sorted(r)) for r in relabelings),)


def _canonical_labellings(edges) -> tuple[tuple, list[tuple[int, ...]]]:
    """`_edge_key` of ``edges`` and every relabeling that reaches its
    minimum, each as the tuple of the vertices at positions 0, 1, ...

    The minimizers are one coset of the automorphism group: if two
    relabelings pi and rho both reach the canonical form, pi^-1 rho maps
    the edges onto themselves, and pi composed with any automorphism
    reaches it too.  So, for a parameter indexed by the vertices (a weight
    vector, a vertex), the least of its images under the minimizers is the
    same for two parameters exactly when an automorphism maps one onto the
    other, and it is a canonical form of the pair (clutter, parameter).
    """
    head, blocks, relabelings = _relabelings(edges)
    forms = [tuple(sorted(r)) for r in relabelings]
    best = min(forms)
    layers = [list(permutations(block)) for block in blocks]
    labellings = []
    for index, form in enumerate(forms):
        if form != best:
            continue
        # relabelings[index] took the permutation index % len(layer) of
        # the last block, and so on back to the first
        perms = []
        for layer in reversed(layers):
            index, k = divmod(index, len(layer))
            perms.append(layer[k])
        labellings.append(tuple(v for perm in reversed(perms) for v in perm))
    return head + (best,), labellings


def isomorphism_key(c: Clutter) -> tuple:
    """Canonical key: two clutters are isomorphic exactly when their keys are
    equal.

    The key is an invariant-restricted canonical form, in the manner of
    nauty's vertex-invariant refinement (McKay-Piperno 2014): the least
    bitmask edge list over the relabelings that respect a vertex invariant
    (edge-size profile, refined once by the neighbours' profiles), not over
    all n! relabelings.  ``enumerate_clutters`` keys its candidates' edge
    lists by the same routine before it builds them."""
    return _edge_key(c.edges)


def enumerate_clutters(spec: CorpusSpec) -> Iterator[Clutter]:
    """Stream the corpus in canonical deterministic order."""
    n = spec.max_vertices
    labels = tuple(f"x{i}" for i in range(1, n + 1))
    seen: set = set()

    def emit(edge_indices) -> Clutter | None:
        if spec.isomorph_reject:
            key = _edge_key(edge_indices)
            if key in seen:
                return None
            seen.add(key)
        return make_clutter(labels, [[labels[v] for v in e] for e in edge_indices])

    if spec.uniform_size is not None:
        if n > 6:
            raise InstanceTooLargeError(
                "exhaustive uniform enumeration is limited to 6 vertices"
            )
        pool = list(combinations(range(n), spec.uniform_size))
        limit = spec.max_edges if spec.max_edges is not None else len(pool)
        for mask in range(1, 1 << len(pool)):
            if mask.bit_count() > limit:
                continue
            c = emit([pool[i] for i in range(len(pool)) if mask >> i & 1])
            if c is not None:
                yield c
        return

    if n > 5:
        raise InstanceTooLargeError(
            "exhaustive antichain enumeration is limited to 5 vertices"
        )
    pool = sorted(
        (
            tuple(s)
            for k in range(1, n + 1)
            for s in combinations(range(n), k)
        ),
        key=lambda t: (len(t), t),
    )
    pool_sets = [frozenset(s) for s in pool]
    limit = spec.max_edges if spec.max_edges is not None else len(pool)
    chosen: list[int] = []

    def walk(start: int) -> Iterator[Clutter]:
        for i in range(start, len(pool)):
            s = pool_sets[i]
            if any(s <= pool_sets[j] or pool_sets[j] <= s for j in chosen):
                continue
            chosen.append(i)
            c = emit([pool[j] for j in chosen])
            if c is not None:
                yield c
            if len(chosen) < limit:
                yield from walk(i + 1)
            chosen.pop()

    yield from walk(0)


@dataclass(frozen=True, slots=True)
class VerifyBounds:
    """Bounds for every bounded check run by the harness.

    max_weight: weight box {0..W}^n for mfmc_bounded on corpus instances.
    max_power: power bound k for bounded normality / torsion-freeness.
    parallel_weight: parallelization sweeps use w in {0..this}^n.
    whisker_lengths: whisker edge lengths tested at every vertex.
    include_parallelization, include_whiskers, include_graft: run the
        derived checks on the parallelizations, the whisker extensions or
        the graft of each corpus clutter; each must be a bool.
    hilbert_max_vertices, hilbert_max_edges: the corpus `normal` verdict.
    cm_max_vertices: grafts (`graft-cm`, `graft-mfmc`) and every normality
        check on a derived clutter (`parall-normal`, `whisker-normal`).
    packing_max_vertices: the corpus `packing` verdict, `whisker-packing`
        and `graft-pp`.
    ideal_max_vertices: the corpus `ideal` verdict.
    """

    max_weight: int = 2
    max_power: int = 2
    parallel_weight: int = 2
    whisker_lengths: tuple[int, ...] = (1, 2)
    include_graft: bool = True
    include_parallelization: bool = True
    include_whiskers: bool = True
    hilbert_max_vertices: int = 8
    hilbert_max_edges: int = 24
    cm_max_vertices: int = 16
    packing_max_vertices: int = 15
    ideal_max_vertices: int = 12

    def __post_init__(self):
        # refused here, not in the middle of a run by the first check to use it
        for name, what in (("max_weight", "weight"), ("max_power", "power")):
            if _integer(getattr(self, name), name) < 1:
                raise ValueError(f"the {what} bound {name} must be positive")
        if _integer(self.parallel_weight, "parallel_weight") < 0:
            raise ValueError("parallel_weight must be non-negative")
        for length in self.whisker_lengths:
            if _integer(length, "whisker length") < 1:
                raise ValueError("whisker lengths must be positive")
        for name in ("include_graft", "include_parallelization", "include_whiskers"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool")
        for name in (
            "hilbert_max_vertices", "hilbert_max_edges", "cm_max_vertices",
            "packing_max_vertices", "ideal_max_vertices",
        ):
            if _integer(getattr(self, name), name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True, slots=True)
class PropertyVerdict:
    """One property outcome; bounded checks carry their bound, negatives a witness."""

    name: str
    value: bool
    bound: int | None = None
    witness: object = None


@dataclass(frozen=True, slots=True)
class PropertyReport:
    clutter: str
    vertex_count: int
    edge_count: int
    verdicts: tuple[PropertyVerdict, ...]
    timings: tuple[tuple[str, float], ...] = ()

    def verdict(self, name: str) -> PropertyVerdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)


def _evaluate_property(name: str, c: Clutter, bounds: VerifyBounds, fld: str):
    if name == "konig":
        return PropertyVerdict(
            name="konig",
            value=covering.has_konig(c),
            witness={
                "alpha0": covering.covering_number(c),
                "beta1": covering.matching_number(c),
            },
        )
    if name == "packing":
        verdict = covering.has_packing_property(
            c, max_vertices=bounds.packing_max_vertices
        )
        witness = None
        if not verdict.holds:
            w = verdict.witness
            witness = {
                "deleted": list(w.deleted),
                "contracted": list(w.contracted),
                "alpha0": w.alpha0,
                "beta1": w.beta1,
            }
        return PropertyVerdict(name="packing", value=verdict.holds, witness=witness)
    if name == "ideal":
        verdict = polyhedra.is_ideal_clutter(
            c, max_vertices=bounds.ideal_max_vertices
        )
        witness = None
        if not verdict.ideal:
            witness = {"vertex": [str(x) for x in verdict.fractional_witness]}
        return PropertyVerdict(name="ideal", value=verdict.ideal, witness=witness)
    if name == "mfmc":
        verdict = polyhedra.mfmc_bounded(c, max_weight=bounds.max_weight)
        witness = None
        if not verdict.certified:
            witness = {
                "w": list(verdict.witness_weights),
                "cover": verdict.cover_value,
                "packing": verdict.packing_value,
            }
        return PropertyVerdict(
            name="mfmc", value=verdict.certified, bound=bounds.max_weight,
            witness=witness,
        )
    if name == "normal":
        verdict = rees.is_normal(
            c,
            max_vertices=bounds.hilbert_max_vertices,
            max_edges=bounds.hilbert_max_edges,
        )
        witness = None
        if not verdict.normal:
            a, b = verdict.witness
            witness = {
                "a": list(a),
                "b": b,
                "monomial": rees.monomial_string(c, a, b),
            }
        return PropertyVerdict(name="normal", value=verdict.normal, witness=witness)
    if name == "ntf":
        verdict = rees.is_ntf_bounded(c, bounds.max_power)
        witness = None
        if not verdict.certified:
            a, i = verdict.witness
            witness = {
                "a": list(a),
                "i": i,
                "monomial": rees.monomial_string(c, a),
            }
        return PropertyVerdict(
            name="ntf", value=verdict.certified, bound=bounds.max_power,
            witness=witness,
        )
    if name == "cm":
        verdict = cm_mod.is_cohen_macaulay(
            c, field=fld, max_vertices=bounds.cm_max_vertices
        )
        witness = None
        if not verdict.cohen_macaulay:
            if verdict.unmixed_witness is not None:
                first, second = verdict.unmixed_witness
                witness = {"kind": "unmixed", "covers": [list(first), list(second)]}
            else:
                face, dim, betti = verdict.link_witness
                witness = {
                    "kind": "link",
                    "face": list(face),
                    "dim": dim,
                    "betti": betti,
                }
        return PropertyVerdict(name="cm", value=verdict.cohen_macaulay, witness=witness)
    raise ValueError(f"unknown property: {name!r}")


def check_properties(
    c: Clutter,
    bounds: VerifyBounds | None = None,
    props=None,
    field: str = "Q",
) -> PropertyReport:
    """Evaluate the requested properties (default: all) on one clutter."""
    bounds = bounds or VerifyBounds()
    if props is None:
        names = ALL_PROPERTIES
    else:
        names = tuple(props)
        unknown = [p for p in names if p not in ALL_PROPERTIES]
        if unknown:
            raise ValueError(f"unknown properties: {', '.join(unknown)}")
    verdicts = []
    timings = []
    for name in names:
        start = time.perf_counter()
        verdicts.append(_evaluate_property(name, c, bounds, field))
        timings.append((name, time.perf_counter() - start))
    return PropertyReport(
        clutter=serialize_clutter(c),
        vertex_count=c.n,
        edge_count=c.q,
        verdicts=tuple(verdicts),
        timings=tuple(timings),
    )


class TheoremViolationError(ClutterError):
    """An implication that is a theorem failed: an implementation bug.

    Carries the implication name, the canonical text of the instance, and a
    witness bundle describing the failing derived object.
    """

    def __init__(self, implication: str, clutter_text: str, details: dict):
        self.implication = implication
        self.clutter_text = clutter_text
        self.details = details
        super().__init__(
            f"theorem implication {implication!r} failed on:\n{clutter_text}"
            f"details: {json.dumps(details, sort_keys=True)}"
        )


def _derived_normal(x: Clutter, bounds: VerifyBounds) -> bool:
    # a derived clutter answers to the graft guard; the hilbert_max_*
    # bounds hold for the corpus `normal` verdict only
    return rees.is_normal(x, max_vertices=bounds.cm_max_vertices, max_edges=x.q).normal


def _packs(x: Clutter, bounds: VerifyBounds) -> bool:
    return covering.has_packing_property(
        x, max_vertices=bounds.packing_max_vertices
    ).holds


# The checks on derived clutters, as (name, derivation, gate, kernel), in
# the order of the summary and of the checks on one parameter.  A row runs
# on each clutter x of its derivation whose gate holds: a verdict of the
# corpus clutter c, `deletion_konig` (c \ v is Konig), or None for always.
# It asserts kernel(x, bounds); a kernel's InstanceTooLargeError is a skip.
_DERIVED = (
    # tau(c^w) = tau_w and nu(c^w) = nu_w, equal under exact MFMC
    ("mfmc-parall-konig", "parall", "exact_mfmc", lambda x, _: covering.has_konig(x)),
    # the paper: normality is closed under parallelization
    ("parall-normal", "parall", "normal", _derived_normal),
    # MFMC is closed under parallelization, so c^w is NTF
    (
        "ntf-parallelization",
        "parall",
        "exact_mfmc",
        lambda x, bounds: rees.is_ntf_bounded(x, bounds.max_power).certified,
    ),
    # with e the whisker edge on v: tau(c+e) = 1+tau(c\v) <= 1+nu(c\v) <= nu(c+e)
    ("whisker-konig", "whisker", "deletion_konig", lambda x, _: covering.has_konig(x)),
    # a minor of c+e is a minor of c, or one plus a whisker edge, which
    # keeps Konig by the argument above
    ("whisker-packing", "whisker", "pp", _packs),
    # empirical: no proof of this is recorded here
    ("whisker-normal", "whisker", "normal", _derived_normal),
    # the paper: a graft is Cohen-Macaulay and keeps packing and MFMC
    (
        "graft-cm",
        "graft",
        None,
        lambda x, bounds: cm_mod.is_cohen_macaulay(
            x, field="Q", max_vertices=bounds.cm_max_vertices
        ).cohen_macaulay,
    ),
    ("graft-pp", "graft", "pp", _packs),
    # with m_i the least weight on x_i's whisker, tau_u(gc) =
    # sum(min(u_i, m_i)) + tau_{(u-m)+}(c), and packing the whiskers first
    # reaches it, so MFMC (ideal and normal) carries from c to gc
    (
        "graft-mfmc",
        "graft",
        "exact_mfmc",
        lambda x, bounds: polyhedra.is_ideal_clutter(
            x, max_vertices=bounds.cm_max_vertices
        ).ideal
        and _derived_normal(x, bounds),
    ),
)

_IMPLICATIONS = (
    "packing-implies-ideal",
    "mfmc-implies-konig",
    "mfmc-implies-packing",
    "exact-mfmc-implies-bounded",
) + tuple(name for name, *_ in _DERIVED)


def _parameters(c: Clutter, labellings, bounds: VerifyBounds, gates: dict):
    """The derived clutters of c in walk order: the weight vectors w, the
    (vertex, length) pairs, then the graft.  Each is yielded as (derivation,
    orbit key, lazy builder, violation details, gates), the orbit key being
    the least image of the parameter under ``labellings``."""
    if bounds.include_parallelization:
        for w in product(range(bounds.parallel_weight + 1), repeat=c.n):
            least = min(tuple(map(w.__getitem__, o)) for o in labellings)
            yield "parall", least, partial(parallelization, c, w), {"w": list(w)}, gates
    if bounds.include_whiskers:
        deletion_konig: dict[int, bool] = {}
        for i, v in enumerate(c.vertices):
            least = min(o.index(i) for o in labellings)
            # c \ v is read only when c is Konig, once per vertex orbit
            if least not in deletion_konig:
                deletion_konig[least] = gates["konig"] and covering.has_konig(
                    minor(c, deleted=(v,))
                )
            vertex_gates = dict(gates, deletion_konig=deletion_konig[least])
            for length in bounds.whisker_lengths:
                yield (
                    "whisker",
                    (least, length),
                    partial(adjoin_whisker_edge, c, v, length),
                    {"vertex": v, "length": length},
                    vertex_gates,
                )
    if bounds.include_graft and is_uniform(c) is not None:
        gc = graft(c)
        yield "graft", None, lambda: gc, {"graft": serialize_clutter(gc)}, gates


@dataclass(slots=True)
class VerificationSummary:
    reports: list[PropertyReport] = field(default_factory=list)
    checked: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = []
        for name in _IMPLICATIONS:
            n = self.checked.get(name, 0)
            s = self.skipped.get(name, 0)
            suffix = f" (skipped {s})" if s else ""
            out.append(f"{name}: {n} checked, 0 violations{suffix}")
        return out


def verify_theorems(
    spec: CorpusSpec, bounds: VerifyBounds | None = None
) -> VerificationSummary:
    """Run the full implication suite over the corpus.

    Each implication is a theorem at the bounds used, with its reason given
    in the table, except `whisker-normal`, which is empirical.  The
    checks that need exact max-flow min-cut rest on ``ideal and normal``.
    A single failure raises TheoremViolationError: the suite doubles as the
    deepest integration test of the modules against one another.  A derived
    clutter beyond the size guard of its check's kernel is counted as
    skipped, not checked; a corpus clutter beyond a guard of
    `check_properties` raises InstanceTooLargeError.

    Every corpus clutter gets `check_properties` and the four corpus
    checks.  The derived checks (parallelizations, whiskers, grafts) are
    the one table `_DERIVED`: each parameter from `_parameters` runs every
    row of its derivation whose gate holds.  The table's order is both the
    summary order and the order of the checks within one parameter.  Each
    kernel runs once per isomorphism class of (corpus clutter, derivation):

    - Across corpus clutters.  A clutter whose canonical form
      (`_canonical_labellings`) was met before adds the checked and skipped
      counts that the first clutter of its class added, and runs no derived
      kernel.
    - Within one clutter.  A weight vector w or a vertex v is keyed by its
      least image under the relabelings that reach the canonical form;
      they are one coset of Aut(c), so two parameters share a key exactly
      when an automorphism maps one onto the other.  Every parameter is
      still walked and counted in the same order, but a kernel runs, and
      its derived clutter is built, only on the first parameter of an
      orbit; the others read that verdict.  The table is emptied for each
      corpus clutter, and the per-class table holds counts only.

    This changes no count and no violation.  An isomorphism sigma from c
    to c' carries c^w to c'^(w o sigma^-1), c plus a whisker on v to c' plus
    one on sigma(v), and the graft of c to that of c'.  Every verdict read
    here (the gating `konig`, `packing`, `normal` and `ideal and normal`
    of the corpus clutter, and each derived kernel's) depends on the edge
    structure only, and every size guard on the vertex and edge numbers
    and the bounds only, so isomorphic pairs get the same verdicts and the
    same skips.  Hence each count is what a walk of every labelled copy
    would give.  The first violation is unchanged too: a later clutter of a
    class passes wherever its first clutter passed, and within a clutter
    each parameter meets its own orbit's verdict in walk order, so the
    first failing (clutter, check, parameter) and its details are those of
    the unshared walk.
    """
    bounds = bounds or VerifyBounds()
    summary = VerificationSummary()
    tallies = (summary.checked, summary.skipped)
    # canonical form -> the (checked, skipped) counts its derived checks add
    class_counts: dict[tuple, tuple[Counter, Counter]] = {}

    def check(name: str, condition: bool, c: Clutter, details: dict):
        summary.checked[name] = summary.checked.get(name, 0) + 1
        if not condition:
            raise TheoremViolationError(name, serialize_clutter(c), details)

    for c in enumerate_clutters(spec):
        report = check_properties(c, bounds)
        summary.reports.append(report)
        konig = report.verdict("konig").value
        pp = report.verdict("packing").value
        ideal = report.verdict("ideal").value
        mfmc = report.verdict("mfmc").value
        normal = report.verdict("normal").value
        ntf = report.verdict("ntf").value
        # MFMC holds exactly when Q(A) is integral and R[It] is normal
        exact_mfmc = ideal and normal

        # Lehman: a packing clutter has an integral covering polyhedron
        check("packing-implies-ideal", (not pp) or ideal, c, {"pp": pp, "ideal": ideal})
        # the all-ones entry is in the box when W >= 1, and there it is Konig
        check("mfmc-implies-konig", (not mfmc) or konig, c, {"mfmc": mfmc})
        # MFMC is minor-closed and gives Konig at the all-ones weight
        check("mfmc-implies-packing", (not exact_mfmc) or pp, c, {"pp": pp})
        # exact MFMC: tau_w = nu_w for every w and I^(i) = I^i for every i
        check(
            "exact-mfmc-implies-bounded",
            (not exact_mfmc) or (mfmc and ntf),
            c,
            {"mfmc": mfmc, "ntf": ntf},
        )

        key, labellings = _canonical_labellings(c.edges)
        if key in class_counts:
            for counts, added in zip(tallies, class_counts[key]):
                for name, k in added.items():
                    counts[name] = counts.get(name, 0) + k
            continue
        before = [Counter(counts) for counts in tallies]
        # (check, orbit key) -> its kernel's verdict on that orbit, None if refused
        orbit: dict = {}
        gates = {"konig": konig, "pp": pp, "normal": normal, "exact_mfmc": exact_mfmc}
        for derivation, least, build, details, holds in _parameters(
            c, labellings, bounds, gates
        ):
            x = cache(build)
            for name, of, gate, kernel in _DERIVED:
                if of != derivation or (gate is not None and not holds[gate]):
                    continue
                # the kernel runs once per orbit, under its own size guard
                if (name, least) not in orbit:
                    try:
                        orbit[name, least] = kernel(x(), bounds)
                    except InstanceTooLargeError:
                        orbit[name, least] = None
                verdict = orbit[name, least]
                if verdict is None:
                    summary.skipped[name] = summary.skipped.get(name, 0) + 1
                else:
                    check(name, verdict, c, details)
        class_counts[key] = tuple(
            Counter(counts) - old for counts, old in zip(tallies, before)
        )
    return summary


@dataclass(frozen=True, slots=True)
class ScanResult:
    """Conforti-Cornuejols scan over the packing-property instances.

    ``counterexamples`` lists the instances that have the packing property
    but not MFMC.  A packing clutter is ideal (Lehman), so these are exactly
    the ones that are not normal; each report's ``normal`` verdict carries
    the Hilbert-basis witness.
    """

    reports: tuple[PropertyReport, ...]
    counterexamples: tuple[str, ...]
    max_weight: int
    max_power: int


def scan_conforti_cornuejols(
    spec: CorpusSpec, max_weight: int = 2, max_power: int = 2
) -> ScanResult:
    bounds = VerifyBounds(max_weight=max_weight, max_power=max_power)
    reports = []
    counterexamples = []
    for c in enumerate_clutters(spec):
        if not covering.has_packing_property(
            c, max_vertices=bounds.packing_max_vertices
        ).holds:
            continue
        report = check_properties(
            c, bounds, props=("packing", "mfmc", "normal", "ntf")
        )
        reports.append(report)
        if not report.verdict("normal").value:
            counterexamples.append(serialize_clutter(c))
    return ScanResult(
        reports=tuple(reports),
        counterexamples=tuple(counterexamples),
        max_weight=max_weight,
        max_power=max_power,
    )


def _verdict_payload(v: PropertyVerdict) -> dict:
    payload: dict = {"name": v.name, "value": v.value}
    if v.bound is not None:
        payload["bound"] = v.bound
    if v.witness is not None:
        payload["witness"] = v.witness
    return payload


def _report_payload(r: PropertyReport, with_timings: bool = True) -> dict:
    payload: dict = {
        "clutter": r.clutter,
        "n": r.vertex_count,
        "q": r.edge_count,
        "verdicts": [_verdict_payload(v) for v in r.verdicts],
    }
    if with_timings:
        payload["timings"] = {name: seconds for name, seconds in r.timings}
    return payload


def emit_report(reports, format: str = "json") -> bytes:
    """Serialize reports deterministically (json schema v1, csv, or text)."""
    reports = list(reports)
    if format == "json":
        payload = {
            "version": 1,
            "reports": [_report_payload(r) for r in reports],
        }
        return json.dumps(payload, separators=(",", ":")).encode()
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["clutter", "property", "value", "bound", "witness"])
        for r in reports:
            one_line = " | ".join(r.clutter.strip().splitlines())
            for v in r.verdicts:
                writer.writerow(
                    [
                        one_line,
                        v.name,
                        str(v.value).lower(),
                        "" if v.bound is None else v.bound,
                        ""
                        if v.witness is None
                        else json.dumps(v.witness, separators=(",", ":")),
                    ]
                )
        return buf.getvalue().encode()
    if format == "text":
        lines = []
        for r in reports:
            lines.append(" | ".join(r.clutter.strip().splitlines()))
            for v in r.verdicts:
                bound = f" (bound {v.bound})" if v.bound is not None else ""
                witness = (
                    f"  witness {json.dumps(v.witness, separators=(',', ':'))}"
                    if v.witness is not None
                    else ""
                )
                lines.append(f"  {v.name}: {v.value}{bound}{witness}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown report format: {format!r}")


_REPORT_KEYS = {"clutter", "n", "q", "verdicts", "timings"}
_VERDICT_KEYS = {"name", "value", "bound", "witness"}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def read_report(data: bytes) -> list[PropertyReport]:
    """Strict reader for the versioned JSON schema; unknown fields rejected."""
    try:
        payload = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"not a report file: {exc}") from exc
    if not isinstance(payload, dict) or set(payload) != {"version", "reports"}:
        raise ValueError("report must have exactly the keys 'version' and 'reports'")
    if payload["version"] != 1:
        raise ValueError(f"unsupported report version: {payload['version']!r}")
    if not isinstance(payload["reports"], list):
        raise ValueError("'reports' must be a list")
    reports = []
    for item in payload["reports"]:
        if not isinstance(item, dict):
            raise ValueError("each report must be an object")
        unknown = set(item) - _REPORT_KEYS
        if unknown:
            raise ValueError(f"unknown report fields: {sorted(unknown)}")
        missing = {"clutter", "n", "q", "verdicts"} - set(item)
        if missing:
            raise ValueError(f"missing report fields: {sorted(missing)}")
        if not isinstance(item["clutter"], str):
            raise ValueError("'clutter' must be a string")
        if not (_is_int(item["n"]) and _is_int(item["q"])):
            raise ValueError("'n' and 'q' must be integers")
        if not isinstance(item["verdicts"], list):
            raise ValueError("'verdicts' must be a list")
        if not isinstance(item.get("timings", {}), dict):
            raise ValueError("'timings' must be an object")
        verdicts = []
        for v in item["verdicts"]:
            if not isinstance(v, dict):
                raise ValueError("each verdict must be an object")
            unknown = set(v) - _VERDICT_KEYS
            if unknown:
                raise ValueError(f"unknown verdict fields: {sorted(unknown)}")
            missing = {"name", "value"} - set(v)
            if missing:
                raise ValueError(f"missing verdict fields: {sorted(missing)}")
            if not isinstance(v["name"], str) or not isinstance(v["value"], bool):
                raise ValueError("a verdict's 'name' must be a string, 'value' a bool")
            if "bound" in v and not _is_int(v["bound"]):
                raise ValueError("a verdict's 'bound' must be an integer")
            verdicts.append(
                PropertyVerdict(
                    name=v["name"],
                    value=v["value"],
                    bound=v.get("bound"),
                    witness=v.get("witness"),
                )
            )
        reports.append(
            PropertyReport(
                clutter=item["clutter"],
                vertex_count=item["n"],
                edge_count=item["q"],
                verdicts=tuple(verdicts),
                timings=tuple(item.get("timings", {}).items()),
            )
        )
    return reports


def report_hash(reports) -> str:
    """SHA-256 over the timing-free JSON serialization."""
    payload = {
        "version": 1,
        "reports": [_report_payload(r, with_timings=False) for r in reports],
    }
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
