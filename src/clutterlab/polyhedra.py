"""Set-covering polyhedra: fractional and integer cover and packing values.

All arithmetic is over ``int`` or ``fractions.Fraction``; floating point is
never used, so optima, vertices, and integrality verdicts are exact.

For a clutter with incidence matrix A (rows = vertices, columns = edges)
and a weight vector w, the two dual programs of interest are

    covering:  min <w, x>   subject to  x >= 0,  x A >= 1
    packing:   max <y, 1>   subject to  y >= 0,  A y <= w

whose common optimal value tau*_w satisfies nu_w <= tau*_w <= tau_w, the
integer packing and cover numbers.  tau_w is the least weight of a minimal
cover, and the packing search `covering._packing` decides nu_w >= k;
`solve_packing_ilp` counts nu_w with it.  `mfmc_bounded` tests tau_w = nu_w
over the weight box {0..W}^n, walking only the weights sorted within each
class of twin vertices, carrying the cover weights down the walk and
reusing the last packing found before it searches.

Q(A) = {x >= 0 : x A >= 1} is the covering polyhedron; the clutter is ideal
when Q(A) has integral vertices only.  Its vertices are listed by the double
description method (Motzkin et al. 1953; Fukuda and Prodon 1996) on the
homogenised cone, one `_linalg.dd_step` per edge in integer arithmetic, as
primitive rays (x, t) with vertex x / t.  `is_ideal_clutter` reads the
verdict off them (integral iff t = 1) and checks the integral ones against
the minimal covers, `solve_lp_exact` reads tau*_w off them as the least
<w, x> / t, since w >= 0 makes the covering optimum a vertex, and
`enumerate_Q_vertices` returns them all as Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import le

from . import covering
from ._linalg import dd_step
from .core import (
    Clutter, _earlier_twins, _guard_box, _guard_vertices, _vertex_vector,
)


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


def solve_lp_exact(c: Clutter, weights, max_vertices: int = 12) -> Fraction:
    """tau*_w, the optimum of the covering LP min{<w, x> : x in Q(A)}.

    For w >= 0 the minimum is attained at a vertex of Q(A), so it is the
    least <w, x> / t over the rays (x, t) of `_q_vertex_rays`.  By LP
    duality this is also the fractional packing optimum.  Exact; the empty
    clutter gives 0.  ``max_vertices`` bounds n as in `enumerate_Q_vertices`.
    """
    w = _vertex_vector(c, weights)
    n = c.n
    _guard_vertices(n, max_vertices, "Q(A) vertex enumeration")
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
    _guard_vertices(n, max_vertices, "Q(A) vertex enumeration")
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

    Read off the primitive rays (x, t) of `_q_vertex_rays`: the vertex x / t
    is integral iff t = 1, since gcd(x, t) = 1.  The witness is the
    lexicographically least fractional vertex, the only one built in
    Fractions.  Also cross-checks that the integral vertices are exactly the
    characteristic vectors of the minimal vertex covers; a mismatch would
    mean an implementation bug and raises RuntimeError.
    """
    n = c.n
    _guard_vertices(n, max_vertices, "Q(A) vertex enumeration")
    rays = _q_vertex_rays(n, c.edges)
    integral = {r[:n] for r in rays if r[n] == 1}
    cover_sets = map(frozenset, covering.minimal_vertex_covers(c))
    cover_vectors = {tuple(int(i in s) for i in range(n)) for s in cover_sets}
    if integral != cover_vectors:
        raise RuntimeError(
            "integral Q(A) vertices disagree with the minimal-cover family"
        )
    fractional = [
        tuple(Fraction(xi, r[n]) for xi in r[:n]) for r in rays if r[n] != 1
    ]
    if fractional:
        return IdealVerdict(ideal=False, fractional_witness=min(fractional))
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

    A failure reports the lexicographically first counterexample w, its
    ``cover_value`` tau_w and its ``packing_value`` nu_w, counted for that
    w alone by `solve_packing_ilp`.  The guard counts the whole box.

    The walk visits, in lex order, only the w with w_i <= w_j for each
    vertex j and its nearest earlier twin i (`core._earlier_twins`).  A
    swap of twins is an automorphism of the clutter, so it keeps tau_w and
    nu_w and with them the failing set; on a failing w with w_i > w_j it
    gives a lex-smaller failing w.  So the lex-first failing w is walked.
    Twin classes carry their full symmetric group, so every w is a swap
    image of a walked one, and no walked failure means none in the box.

    Each minimal cover's weight is carried down the coordinates, so tau_w
    is the least of them at the leaf.  Since nu_w <= tau_w, w passes once
    tau_w edges fit under it.  The last packing found is tried first: it
    passes w when its load fits under w and it has tau_w edges, or when it
    has tau_w - 1 and one more edge fits under w minus its load.  Only
    otherwise does the packing search (`covering._packing`) run.
    """
    n = c.n
    max_weight = _guard_box(n, max_weight, max_boxes, "weight", "weight boxes")
    edges = c.edges
    earlier = _earlier_twins(n, edges)
    covers = covering.minimal_vertex_covers(c)
    holding = [[k for k, cover in enumerate(covers) if j in cover] for j in range(n)]
    w = [0] * n
    load = [0] * n  # of the last packing found
    size = 0  # its number of edges

    def passes(tau: int) -> bool:
        nonlocal load, size
        if all(map(le, load, w)):
            if size >= tau:
                return True
            if size + 1 == tau:
                for e in edges:
                    if all(w[i] > load[i] for i in e):
                        for i in e:
                            load[i] += 1
                        size = tau
                        return True
        found = covering._packing(c, w, tau)
        if found is None:
            return False
        load, size = [0] * n, tau
        for j in found:
            for i in edges[j]:
                load[i] += 1
        return True

    def failing_tau(j: int, sums: list[int]) -> int | None:
        """tau_w of the first failing walked w with w_0..w_(j-1) as set,
        leaving it in w; None when there is none."""
        if j == n:
            tau = min(sums)
            return None if passes(tau) else tau
        low = w[earlier[j]] if earlier[j] >= 0 else 0
        mine = holding[j]
        sums = sums[:]
        for k in mine:
            sums[k] += low
        for v in range(low, max_weight + 1):
            w[j] = v
            tau = failing_tau(j + 1, sums)
            if tau is not None:
                return tau
            for k in mine:
                sums[k] += 1
        return None

    cover_value = failing_tau(0, [0] * len(covers))
    if cover_value is None:
        return MfmcVerdict(certified=True, bound=max_weight)
    witness = tuple(w)
    return MfmcVerdict(
        certified=False,
        bound=max_weight,
        witness_weights=witness,
        cover_value=cover_value,
        packing_value=solve_packing_ilp(c, witness).value,
    )
