"""Exact rational linear programming and set-covering polyhedra.

All arithmetic is over ``fractions.Fraction`` or ``int``; floating point is
never used, so optima, vertices, and integrality verdicts are exact.  The solver
is a two-phase tableau simplex with Bland's rule (smallest-index entering
column, smallest ratio then smallest basic variable leaving), which makes
every answer deterministic and cycling impossible.

For a clutter with incidence matrix A (rows = vertices, columns = edges)
and a weight vector w, the two dual programs of interest are

    covering:  min <w, x>   subject to  x >= 0,  x A >= 1
    packing:   max <y, 1>   subject to  y >= 0,  A y <= w

whose common optimal value tau*_w satisfies nu_w <= tau*_w <= tau_w, the
integer packing and cover numbers.  The integer values come from exact
searches, not from the simplex: `covering.packs` decides nu_w >= k,
`solve_packing_ilp` counts nu_w with the same search, and
`covering.weighted_cover_number` gives tau_w.  `mfmc_bounded` needs only
those; `rees.integral_closure_membership` solves `packing_lp` for tau*_w
when nu_w < k <= tau_w leaves its answer open.
Q(A) = {x >= 0 : x A >= 1} is the covering polyhedron; the clutter is ideal
when Q(A) has integral vertices only.  `enumerate_Q_vertices` lists its
vertices by the double description method (Motzkin et al. 1953; Fukuda and
Prodon 1996) on the homogenised cone, one `_linalg.dd_step` per edge in
integer arithmetic, and `is_ideal_clutter` checks the integral ones against
the minimal covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from . import covering
from ._linalg import dd_step
from .core import Clutter, InstanceTooLargeError, _vertex_vector


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True, slots=True)
class LinearProgram:
    """min (or max) <objective, x> s.t. rows {<=,>=,=} rhs, x >= 0."""

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    senses: tuple[str, ...]
    rhs: tuple[Fraction, ...]
    maximize: bool = False

    def __post_init__(self):
        nvars = len(self.objective)
        if any(len(r) != nvars for r in self.rows):
            raise ValueError("constraint row width does not match objective")
        if not (len(self.rows) == len(self.senses) == len(self.rhs)):
            raise ValueError("rows, senses and rhs must have equal length")
        if any(s not in ("<=", ">=", "=") for s in self.senses):
            raise ValueError("senses must be <=, >= or =")


@dataclass(frozen=True, slots=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None


def _pivot(tab, obj, basis, r, col):
    pr = tab[r]
    inv = pr[col]
    if inv != 1:
        tab[r] = pr = [v / inv for v in pr]
    for i, row in enumerate(tab):
        if i != r and row[col] != 0:
            f = row[col]
            tab[i] = [v - f * w for v, w in zip(row, pr)]
    if obj[col] != 0:
        f = obj[col]
        for j, v in enumerate(pr):
            obj[j] -= f * v
    basis[r] = col


def _run_simplex(tab, obj, basis, allowed):
    """Bland-rule pivoting until optimal or unbounded.

    ``tab`` rows end with the rhs entry; ``obj`` is the reduced-cost row
    (same width).  Only columns in ``allowed`` may enter the basis.
    """
    width = len(obj) - 1
    while True:
        col = next((j for j in range(width) if allowed[j] and obj[j] < 0), None)
        if col is None:
            return "optimal"
        r = None
        best_ratio = None
        for i, row in enumerate(tab):
            if row[col] > 0:
                ratio = row[-1] / row[col]
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[r]
                ):
                    best_ratio = ratio
                    r = i
        if r is None:
            return "unbounded"
        _pivot(tab, obj, basis, r, col)


def solve_lp_exact(lp: LinearProgram) -> LpResult:
    """Exact two-phase simplex.  Deterministic via Bland's rule."""
    nvars = len(lp.objective)
    sign = -1 if lp.maximize else 1
    costs = [sign * _frac(cj) for cj in lp.objective]
    rows = [[_frac(v) for v in row] for row in lp.rows]
    rhs = [_frac(b) for b in lp.rhs]
    senses = list(lp.senses)

    # normalize rhs >= 0
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
            senses[i] = {"<=": ">=", ">=": "<=", "=": "="}[senses[i]]

    m = len(rows)
    nslack = sum(1 for s in senses if s != "=")
    total = nvars + nslack + m  # one artificial reserved per row (some unused)
    tab = []
    basis = [-1] * m
    slack_at = nvars
    art_at = nvars + nslack
    art_cols = []
    for i in range(m):
        row = [Fraction(0)] * (total + 1)
        for j in range(nvars):
            row[j] = rows[i][j]
        row[-1] = rhs[i]
        if senses[i] == "<=":
            row[slack_at] = Fraction(1)
            basis[i] = slack_at
            slack_at += 1
        elif senses[i] == ">=":
            row[slack_at] = Fraction(-1)
            slack_at += 1
            row[art_at] = Fraction(1)
            basis[i] = art_at
            art_cols.append(art_at)
            art_at += 1
        else:
            row[art_at] = Fraction(1)
            basis[i] = art_at
            art_cols.append(art_at)
            art_at += 1
        tab.append(row)

    allowed = [True] * total
    for j in range(art_at, total):
        allowed[j] = False  # reserved artificial slots that were not needed

    if art_cols:
        # phase 1: minimize the artificial sum
        obj = [Fraction(0)] * (total + 1)
        for j in art_cols:
            obj[j] = Fraction(1)
        for i, row in enumerate(tab):
            if basis[i] in art_cols:
                obj = [a - b for a, b in zip(obj, row)]
        _run_simplex(tab, obj, basis, allowed)
        if -obj[-1] > 0:  # phase-1 optimum is -obj[-1]
            return LpResult(status="infeasible")
        # drive any basic artificials out (or drop redundant rows)
        for i in range(m - 1, -1, -1):
            if basis[i] in art_cols:
                col = next(
                    (
                        j
                        for j in range(total)
                        if j not in art_cols and allowed[j] and tab[i][j] != 0
                    ),
                    None,
                )
                if col is None:
                    del tab[i]
                    del basis[i]
                else:
                    _pivot(tab, obj, basis, i, col)
        for j in art_cols:
            allowed[j] = False

    # phase 2 with the true costs
    obj = [Fraction(0)] * (total + 1)
    for j in range(nvars):
        obj[j] = costs[j]
    for i, row in enumerate(tab):
        if obj[basis[i]] != 0:
            f = obj[basis[i]]
            obj = [a - f * b for a, b in zip(obj, row)]
    status = _run_simplex(tab, obj, basis, allowed)
    if status == "unbounded":
        return LpResult(status="unbounded")
    x = [Fraction(0)] * total
    for i, b in enumerate(basis):
        x[b] = tab[i][-1]
    solution = tuple(x[:nvars])
    value = sum(_frac(cj) * v for cj, v in zip(lp.objective, solution))
    return LpResult(status="optimal", value=value, solution=solution)


def packing_lp(c: Clutter, weights) -> LinearProgram:
    """max <y, 1>, y >= 0, one row sum(y_e, e through i) <= w_i per vertex i."""
    w = tuple(_frac(x) for x in weights)
    if len(w) != c.n:
        raise ValueError(f"expected {c.n} weights, got {len(w)}")
    members = c.edge_sets()
    rows = tuple(
        tuple(Fraction(1 if i in e else 0) for e in members) for i in range(c.n)
    )
    return LinearProgram(
        objective=tuple(Fraction(1) for _ in range(c.q)),
        rows=rows,
        senses=tuple("<=" for _ in rows),
        rhs=w,
        maximize=True,
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


def _covering_cone_rays(n: int, edges) -> list[tuple[int, ...]]:
    """Extreme rays of {(x, t) >= 0 : sum(x_i, i in e) - t >= 0 for each e}.

    Start from the n + 1 unit rays of the orthant and cut by the edge
    constraints one at a time with `_linalg.dd_step`.  Bit j < n + 1 of a
    ray's tight mask stands for the coordinate j, bit n + 1 + k for edge k.
    """
    d = n + 1
    rays = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    tight = [((1 << d) - 1) ^ (1 << j) for j in range(d)]
    for k, e in enumerate(edges, start=d):
        slacks = [sum(r[i] for i in e) - r[n] for r in rays]
        rays, tight = dd_step(rays, tight, slacks, 1 << k, d)
    return rays


def enumerate_Q_vertices(c: Clutter, max_vertices: int = 12) -> QVertexSet:
    """All vertices of Q(A) = {x >= 0 : x A >= 1}, by double description.

    Q(A) is pointed, so its vertices v are exactly the extreme rays (v, 1)
    of the homogenised cone {(x, t) >= 0 : x A >= t 1}; the other extreme
    rays have t = 0 and span the recession cone.  `_covering_cone_rays`
    enumerates them in integer arithmetic; the rays with t > 0, divided by
    t, are returned as Fractions.  Exact and deterministic.

    ``max_vertices`` bounds n, the clutter's vertex count.  This kernel
    handles larger n, but the default stays 12 so that every verdict, a
    size-guard refusal included, is the same as under the basis enumeration
    it replaced (kept as `tests/oracles.brute_Q_vertices`).
    """
    n = c.n
    if n > max_vertices:
        raise InstanceTooLargeError(
            f"Q(A) vertex enumeration limited to {max_vertices} vertices (got {n})"
        )
    if n == 0:
        return QVertexSet(vertices=((),))
    vertices = (
        tuple(Fraction(xi, r[n]) for xi in r[:n])
        for r in _covering_cone_rays(n, c.edges)
        if r[n] > 0
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
