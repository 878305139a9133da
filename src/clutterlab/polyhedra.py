"""Set-covering polyhedra: fractional and integer cover and packing values.

All arithmetic is over ``int`` or ``fractions.Fraction``; floating point is
never used, so optima, vertices, and integrality verdicts are exact.

For a clutter with incidence matrix A (rows = vertices, columns = edges)
and a weight vector w, the two dual programs of interest are

    covering:  min <w, x>   subject to  x >= 0,  x A >= 1
    packing:   max <y, 1>   subject to  y >= 0,  A y <= w

whose common optimal value tau*_w satisfies nu_w <= tau*_w <= tau_w, the
integer packing and cover numbers.  The integer values come from exact
searches: `covering.packs` decides nu_w >= k, `solve_packing_ilp` counts
nu_w with the same search, and `covering.weighted_cover_number` gives
tau_w.  `mfmc_bounded` needs only those.
Q(A) = {x >= 0 : x A >= 1} is the covering polyhedron; the clutter is ideal
when Q(A) has integral vertices only.  Its vertices are listed by the double
description method (Motzkin et al. 1953; Fukuda and Prodon 1996) on the
homogenised cone, one `_linalg.dd_step` per edge in integer arithmetic.
`enumerate_Q_vertices` returns them, `is_ideal_clutter` checks the integral
ones against the minimal covers, and `solve_lp_exact` reads tau*_w off them
as the least <w, v>, since w >= 0 makes the covering optimum a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import covering
from ._linalg import dd_step
from .core import Clutter, InstanceTooLargeError, _vertex_vector


@dataclass(frozen=True, slots=True)
class IlpResult:
    value: int
    solution: tuple[int, ...]


def solve_packing_ilp(c: Clutter, weights) -> IlpResult:
    """nu_w, the integer optimum of the packing program max{<y,1> : A y <= w}.

    The value is the largest k for which the packing search
    (`covering._packing`) finds k edges, counting up from 0; the search is
    monotone in k, so the first failure ends the count.  ``solution`` gives
    each edge's multiplicity in the last packing found.
    """
    w = _vertex_vector(c, weights)
    value, chosen = 0, []
    while (found := covering._packing(c, w, value + 1)) is not None:
        value, chosen = value + 1, found
    multiplicities = tuple(chosen.count(j) for j in range(c.q))
    return IlpResult(value=value, solution=multiplicities)


@dataclass(frozen=True, slots=True)
class QVertexSet:
    """Vertices of the covering polyhedron Q(A), lexicographically sorted."""

    vertices: tuple[tuple[Fraction, ...], ...]

    def integral_flags(self) -> tuple[bool, ...]:
        return tuple(
            all(x.denominator == 1 for x in v) for v in self.vertices
        )


def _q_vertex_rays(n: int, edges) -> list[tuple[int, ...]]:
    """The vertices of Q(A), as primitive integer rays (x, t) with vertex x / t.

    Q(A) is pointed, so its vertices v are exactly the extreme rays (v, 1)
    of the homogenised cone {(x, t) >= 0 : sum(x_i, i in e) >= t for each e};
    the other extreme rays have t = 0 and span the recession cone.  Start
    from the n + 1 unit rays of the orthant and cut by the edge constraints
    one at a time with `_linalg.dd_step`.  Bit j < n + 1 of a ray's tight
    mask stands for the coordinate j, bit n + 1 + k for edge k.
    """
    d = n + 1
    rays = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    tight = [((1 << d) - 1) ^ (1 << j) for j in range(d)]
    for k, e in enumerate(edges, start=d):
        slacks = [sum(r[i] for i in e) - r[n] for r in rays]
        rays, tight = dd_step(rays, tight, slacks, 1 << k, d)
    return [r for r in rays if r[n]]


def _guard_q_size(n: int, max_vertices: int) -> None:
    if n > max_vertices:
        raise InstanceTooLargeError(
            f"Q(A) vertex enumeration limited to {max_vertices} vertices (got {n})"
        )


def solve_lp_exact(c: Clutter, weights, max_vertices: int = 12) -> Fraction:
    """tau*_w, the optimum of the covering LP min{<w, x> : x in Q(A)}.

    For w >= 0 the minimum is attained at a vertex of Q(A), so it is the
    least <w, x> / t over the rays (x, t) of `_q_vertex_rays`.  By LP
    duality this is also the fractional packing optimum.  Exact; the empty
    clutter gives 0.  ``max_vertices`` bounds n as in `enumerate_Q_vertices`.
    """
    w = _vertex_vector(c, weights)
    n = c.n
    _guard_q_size(n, max_vertices)
    return min(
        Fraction(sum(wi * xi for wi, xi in zip(w, r)), r[n])
        for r in _q_vertex_rays(n, c.edges)
    )


def enumerate_Q_vertices(c: Clutter, max_vertices: int = 12) -> QVertexSet:
    """All vertices of Q(A) = {x >= 0 : x A >= 1}, by double description.

    `_q_vertex_rays` enumerates them in integer arithmetic, and each ray
    (x, t) is returned as x / t in Fractions.  Exact and deterministic.

    ``max_vertices`` bounds n, the clutter's vertex count.  This kernel
    handles larger n, but the default stays 12 so that every verdict, a
    size-guard refusal included, is the same as under the basis enumeration
    it replaced (kept as `tests/oracles.brute_Q_vertices`).
    """
    n = c.n
    _guard_q_size(n, max_vertices)
    vertices = (
        tuple(Fraction(xi, r[n]) for xi in r[:n]) for r in _q_vertex_rays(n, c.edges)
    )
    return QVertexSet(vertices=tuple(sorted(vertices)))


@dataclass(frozen=True, slots=True)
class IdealVerdict:
    ideal: bool
    fractional_witness: tuple[Fraction, ...] | None = None


def is_ideal_clutter(c: Clutter, max_vertices: int = 12) -> IdealVerdict:
    """Ideal = the covering polyhedron has integral vertices only.

    Also cross-checks that the integral vertices are exactly the
    characteristic vectors of the minimal vertex covers; a mismatch would
    mean an implementation bug and raises RuntimeError.
    """
    qset = enumerate_Q_vertices(c, max_vertices=max_vertices)
    integral = set()
    fractional = []
    for v, flag in zip(qset.vertices, qset.integral_flags()):
        if flag:
            integral.add(tuple(int(x) for x in v))
        else:
            fractional.append(v)
    cover_sets = map(frozenset, covering.minimal_vertex_covers(c))
    cover_vectors = {tuple(int(i in s) for i in range(c.n)) for s in cover_sets}
    if integral != cover_vectors:
        raise RuntimeError(
            "integral Q(A) vertices disagree with the minimal-cover family"
        )
    if fractional:
        return IdealVerdict(ideal=False, fractional_witness=fractional[0])
    return IdealVerdict(ideal=True)


@dataclass(frozen=True, slots=True)
class MfmcVerdict:
    """Bounded certificate that the cover and packing numbers agree.

    ``certified`` means equality held for every weight box entry up to the
    bound; it is evidence, not a proof for all weights.
    """

    certified: bool
    bound: int
    witness_weights: tuple[int, ...] | None = None
    cover_value: int | None = None
    packing_value: int | None = None


def mfmc_bounded(
    c: Clutter, max_weight: int = 3, max_boxes: int = 1 << 20
) -> MfmcVerdict:
    """Check cover number tau_w == packing number nu_w for all w in {0..W}^n.

    Weights are scanned in lexicographic order, so a failure reports the
    first counterexample.  Since nu_w <= tau_w, w passes once the packing
    search finds tau_w edges.  Otherwise `solve_packing_ilp` counts nu_w for
    that w alone, the witness's ``packing_value``, which is below tau_w.
    """
    if max_weight < 1:
        raise ValueError("the weight bound must be positive")
    boxes = (max_weight + 1) ** c.n
    if boxes > max_boxes:
        raise InstanceTooLargeError(
            f"{boxes} weight boxes exceed the limit of {max_boxes}"
        )
    for w in product(range(max_weight + 1), repeat=c.n):
        cover_value = covering.weighted_cover_number(c, w)
        if covering.packs(c, w, cover_value):
            continue
        return MfmcVerdict(
            certified=False,
            bound=max_weight,
            witness_weights=w,
            cover_value=cover_value,
            packing_value=solve_packing_ilp(c, w).value,
        )
    return MfmcVerdict(certified=True, bound=max_weight)
