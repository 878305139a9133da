"""Hilbert bases of Rees cones and power comparisons for edge ideals.

The Rees cone of a clutter lives in ZZ^(n+1): it is spanned by the edge
characteristic vectors lifted with a final coordinate 1 (the t-degree)
together with the n coordinate unit vectors.  The edge ideal is normal
exactly when every lattice point (a, b) of the cone lies in the semigroup S
of the generators, that is, x^a in I^b, which `power_membership` decides by
the search `covering.packs`.

Both normality and the Hilbert basis start from the same candidates, found
exactly, in integer arithmetic only: a placing triangulation of the cone
into simplicial subcones on generator rays, and the lattice points of each
half-open fundamental parallelepiped, read off one adjugate per simplex.
The initial simplex comes from one sparse elimination,
`_linalg.gauss_jordan` on the generators augmented by their own indices:
it picks the lexicographically first independent generators, its
augmented columns hold the inverse, whose columns give the facet normals,
and it carries the simplex's |det|, its volume.  The normals are the
extreme rays of the dual cone, so each further generator g cuts them by
<h, g> <= 0 with `_linalg.dd_step`; <h, g> is summed over the support of
the 0/1 vector g.  Simplices are
bitmasks of generator indices, and `dd_step` keeps for each normal h the
mask of the processed generators on h, so "sigma has a facet on h" is one
bit test.  The simplex glued onto that facet gets its volume from sigma's,
and only a simplex of volume above 1 has lattice points to enumerate.  Its
determinant, checked against the carried volume, and its adjugate come from
one elimination: the rows of the adjugate, taken mod the volume, generate
the group of its parallelepiped points.

Every lattice point of the cone is a parallelepiped point plus generators of
its simplex, so the ideal is normal iff every candidate lies in S.
`is_normal` tests the candidates that are not generators in (degree, lex)
order, and its witness is the first lattice point outside S: that point is
irreducible, and it is its own parallelepiped point, since taking a ray off
it would leave a lower-degree point outside S.  So it is also the first
Hilbert-basis element outside S.  When every simplex has volume 1 the
candidates are the generators and no search is made.  `hilbert_basis` keeps
the grading-ordered irreducibility sieve over the candidates, with the
normals as its cone-membership test.

With capacities a, x^a lies in I^i when the packing number nu_a >= i, in
the integral closure when the fractional cover number tau*_a >= i, and in the
symbolic power when the cover number tau_a >= i.  The last two are the
minimum of <a, v> over the vertices v of the covering polyhedron Q(A), all of
them for tau*_a and the integral ones (the minimal covers) for tau_a.

The bounded surrogate `is_ntf_bounded` compares ordinary powers I^i against
symbolic powers by enumerating the candidate exponent box {0..i}^n, which
contains every minimal generator of the symbolic power because all edge
vectors are 0/1.  Its scan takes the covers as integer rows (x, t) and
walks the box recursively in lex order, carrying down the slacks
<a, x> - i t of all rows packed into the bit fields of one int, so
membership and minimality are a few int operations per point, and each
minimal generator is checked against I^i by the packing search.  Only the
points with a_i <= a_j for twin vertices i < j, which a swap maps onto each
other, are walked; a value of a_j is skipped when no completion of the
prefix is a member, and a_j is raised no further once the prefix alone is.

`is_normal` and `is_ntf_bounded` keep their verdicts in bounded memos keyed
on the edge structure (n, edges) alone, looked up once the size guards have
passed: the verdicts and their witnesses never read a label, and the
theorem suite meets the same structure many times under different labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from operator import itemgetter, mul

from . import covering
from ._linalg import _det_adjugate, dd_step, gauss_jordan, primitive
from .core import (
    Clutter, InstanceTooLargeError, _earlier_twins, _guard_box, _integer,
    _vertex_vector,
)
from .polyhedra import solve_lp_exact


@dataclass(frozen=True, slots=True)
class ReesCone:
    """Generators of the Rees semigroup: 0/1 vectors in ZZ^dim.

    The last coordinate is the t-degree: lifted edges carry 1, vertex unit
    vectors carry 0.  The cone is pointed because it sits inside the
    non-negative orthant.
    """

    dim: int
    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.dim:
                raise ValueError("generator length does not match cone dimension")
            if any(x not in (0, 1) for x in g):
                raise ValueError("generators must be 0/1 vectors")
            if not any(g):
                raise ValueError("zero vector cannot generate a ray")


@dataclass(frozen=True, slots=True)
class HilbertBasis:
    """Irreducible lattice points of the cone, sorted by (degree, lex)."""

    dim: int
    elements: tuple[tuple[int, ...], ...]


def rees_cone(c: Clutter) -> ReesCone:
    """Lifted edge vectors (chi_e, 1) followed by the unit vectors (e_k, 0)."""
    gens = [c.characteristic_vector(j) + (1,) for j in range(c.q)]
    for k in range(c.n):
        gens.append(tuple(1 if i == k else 0 for i in range(c.n)) + (0,))
    return ReesCone(dim=c.n + 1, generators=tuple(gens))


def _guard_hilbert_size(n: int, q: int, max_vertices, max_edges) -> None:
    max_vertices = _integer(max_vertices, "max_vertices")
    max_edges = _integer(max_edges, "max_edges")
    if n > max_vertices or q > max_edges:
        raise InstanceTooLargeError(
            f"Hilbert basis limited to {max_vertices} vertices and "
            f"{max_edges} lifted generators (got n={n}, q={q})"
        )


def hilbert_basis(
    cone: ReesCone, max_vertices: int = 8, max_edges: int = 24
) -> HilbertBasis:
    """Minimal generating set of the lattice points of the cone.

    Size guard: at most ``max_vertices`` non-lifted coordinates and
    ``max_edges`` lifted (t-degree 1) generators by default; callers may
    raise the limits explicitly.
    """
    q = sum(1 for g in cone.generators if g[-1] == 1)
    _guard_hilbert_size(cone.dim - 1, q, max_vertices, max_edges)
    return _hilbert_basis(cone)


def _degree_lex(vec):
    return (sum(vec), vec)


def _dot(h, g) -> int:
    return sum(map(mul, h, g))


def _supports(generators) -> list[list[int]]:
    return [[k for k, x in enumerate(g) if x] for g in generators]


def _dense(support, D: int) -> tuple[int, ...]:
    vec = [0] * D
    for k in support:
        vec[k] = 1
    return tuple(vec)


def _candidates(D: int, supports):
    """(facet normals, parallelepiped points) of the cone in ZZ^D spanned by
    the distinct 0/1 generators with these supports, taken in order.

    The points are the nonzero lattice points of the half-open fundamental
    parallelepipeds of the placing triangulation's simplices, from
    `_parallelepiped_points` on each simplex of volume above 1; with the
    generators they contain the Hilbert basis.  A cone spanned by unit
    vectors alone is the orthant of their span: it has no points and no
    normals are needed.
    """
    if all(len(s) == 1 for s in supports):
        return [], set()

    # initial simplex: the lexicographically first maximal independent
    # generators.  Pivot row k holds p_k times row k of the simplex's
    # inverse in the augmented columns D + i.  Column j of the inverse is
    # orthogonal to every chosen ray but the j-th, so its primitive
    # negative is the outward normal of the facet opposite that ray, and it
    # vanishes on the bitmask of the other chosen generators
    chosen, pivots, volume = gauss_jordan(
        (dict.fromkeys(s, 1) for s in supports), D
    )
    if len(chosen) < D:
        raise ValueError("cone must be full-dimensional or spanned by unit vectors")
    rest = [i for i in range(len(supports)) if i not in chosen]
    scale = lcm(*(p for p, _ in pivots.values()))
    inverse = [(scale // p, row) for p, row in (pivots[k] for k in range(D))]
    normals = [
        primitive([-f * row.get(D + i, 0) for f, row in inverse]) for i in chosen
    ]
    everything = sum(1 << i for i in chosen)
    zeros = [everything ^ (1 << i) for i in chosen]
    # the triangulation: bitmask of each simplex's generators -> its |det|
    simplices = {everything: volume}

    for idx in rest:
        # <h, g> summed over the support of the 0/1 generator g
        support = supports[idx]
        if len(support) == 1:
            vals = [h[support[0]] for h in normals]
        else:
            get = itemgetter(*support)
            vals = [sum(get(h)) for h in normals]

        # extend the triangulation over the visible part of the boundary.
        # Every processed generator has <h, g> <= 0, so the mask z of those
        # on h is exact, and a simplex has a facet F on h exactly when one
        # ray r is off it.  det(F, x) is a multiple of <h, x>, so the new
        # simplex F + g has volume |det sigma| <h, g> / |<h, r>|, exactly.
        new_simplices: dict[int, int] = {}
        for h, z, v in zip(normals, zeros, vals):
            if v <= 0:
                continue
            for sigma, volume in simplices.items():
                off = sigma & ~z
                if off & (off - 1) == 0:
                    r = off.bit_length() - 1
                    new_simplices[sigma ^ off | 1 << idx] = (
                        volume * v // -sum([h[k] for k in supports[r]])
                    )
        simplices.update(new_simplices)

        # the normals are the extreme rays of the dual cone, which adding
        # the generator cuts by the half-space <h, g> <= 0
        normals, zeros = dd_step(normals, zeros, [-v for v in vals], 1 << idx, D)

    # lattice points of each half-open fundamental parallelepiped; a simplex
    # of volume 1 holds none but its apex
    points: set[tuple[int, ...]] = set()
    for sigma, volume in simplices.items():
        if volume > 1:
            points.update(_parallelepiped_points(
                [_dense(s, D) for i, s in enumerate(supports) if sigma >> i & 1],
                volume,
            ))
    return normals, points


def _parallelepiped_points(rays, volume: int) -> list[tuple[int, ...]]:
    """Nonzero lattice points of the half-open parallelepiped
    {sum c_k r_k : 0 <= c_k < 1} of the simplicial cone on ``rays``, whose
    |det| must equal ``volume``, the volume carried through the
    triangulation (else RuntimeError).

    With the rays as the rows of R and V the volume, R adj = det I, so row
    k of adj is V times the coefficients of e_k in the rays, up to the sign
    of det.  So x -> V x R^-1 mod V embeds Z^D / ZR, a group of exactly V
    elements, in (Z/V)^D, and the D rows of adj mod V generate its image
    (the sign does not matter: a group holds the negatives of its
    elements).  A nonzero element lambda is V times the fractional
    coefficients of one point, lambda R / V, an exact division.  The group
    H is closed under addition one generator g at a time: the cosets H + g,
    H + 2g, ... are added until one of them holds 0.
    """
    det, adj = _det_adjugate(rays)
    if abs(det) != volume:
        raise RuntimeError("carried simplex volume disagrees with the determinant")
    zero = (0,) * len(rays)
    group = {zero}
    for row in adj:
        if len(group) == volume:
            break
        g = tuple(v % volume for v in row)
        cosets = list(group)
        multiple = g
        while multiple not in group:
            group.update(
                tuple((a + b) % volume for a, b in zip(h, multiple))
                for h in cosets
            )
            multiple = tuple((a + b) % volume for a, b in zip(multiple, g))
    group.discard(zero)
    columns = list(zip(*rays))
    return [
        tuple(_dot(lam, col) // volume for col in columns) for lam in group
    ]


def _hilbert_basis(cone: ReesCone) -> HilbertBasis:
    gens = list(dict.fromkeys(cone.generators))
    normals, points = _candidates(cone.dim, _supports(gens))
    # grading sieve: accept exactly the irreducible lattice points.  A unit
    # vector cone has no normals, and no unit vector reduces another
    accepted: list[tuple[int, ...]] = []
    for z in sorted(points.union(gens), key=_degree_lex):
        reducible = False
        for b in accepted:
            diff = tuple(x - y for x, y in zip(z, b))
            if all(d >= 0 for d in diff) and all(
                sum(hj * dj for hj, dj in zip(h, diff)) <= 0 for h in normals
            ):
                reducible = True
                break
        if not reducible:
            accepted.append(z)
    return HilbertBasis(dim=cone.dim, elements=tuple(accepted))


def power_membership(c: Clutter, a, i) -> bool:
    """x^a in I^i: some multiset of i edge vectors is componentwise <= a."""
    vec = _vertex_vector(c, a, "exponents")
    power = _integer(i, "power")
    if power < 0:
        raise ValueError("power must be non-negative")
    return covering.packs(c, vec, power)


def integral_closure_membership(c: Clutter, a, i) -> bool:
    """x^a in the integral closure of I^i.

    The Newton-polyhedron test: a dominates a point of i times the edge
    polytope, that is, the fractional cover number tau*_a, the least <a, v>
    over the vertices v of Q(A), is at least i.  `solve_lp_exact` refuses
    clutters on more than 12 vertices.
    """
    vec = _vertex_vector(c, a, "exponents")
    power = _integer(i, "power")
    if power < 0:
        raise ValueError("power must be non-negative")
    return solve_lp_exact(c, vec) >= power


def symbolic_power_membership(c: Clutter, a, i) -> bool:
    """x^a in the i-th symbolic power: every minimal cover C has sum(a|C) >= i,
    that is, the cover number tau_a is at least i.

    The symbolic power of a square-free monomial ideal is the intersection
    of the i-th powers of its minimal primes, one per minimal vertex cover.
    """
    vec = _vertex_vector(c, a, "exponents")
    power = _integer(i, "power")
    if power < 0:
        raise ValueError("power must be non-negative")
    return covering.weighted_cover_number(c, vec) >= power


@dataclass(frozen=True, slots=True)
class NormalityVerdict:
    """Outcome of the exact normality decision.

    When not normal, ``witness`` is the (degree, lex)-first lattice point
    (a, b) of the Rees cone whose monomial x^a t^b lies in the integral
    closure of I^b but not in I^b.  It is also the first Hilbert-basis
    element with that property.
    """

    normal: bool
    witness: tuple[tuple[int, ...], int] | None = None


class _Structure:
    """A clutter hashed and compared by its edge structure (n, edges) alone,
    so that the verdict memos serve every copy of it, whatever its labels.

    Normality and the bounded power comparisons, witnesses included, read
    only the vertex indices, never the labels.
    """

    __slots__ = ("clutter", "key")

    def __init__(self, c: Clutter):
        self.clutter = c
        self.key = (c.n, c.edges)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return self.key == other.key


def is_normal(
    c: Clutter, max_vertices: int = 8, max_edges: int = 24
) -> NormalityVerdict:
    """Exact normality of the edge ideal from the parallelepiped candidates.

    The ideal is normal iff every lattice point of the Rees cone lies in the
    semigroup generated by the lifted edges and unit vectors, and it suffices
    to test the parallelepiped points of the triangulation.  They are tested
    in (degree, lex) order with no Hilbert-basis sieve; the first failure is
    returned as the witness, the same as the first failing basis element.
    The size guard is that of `hilbert_basis`, checked before the memo.
    """
    _guard_hilbert_size(c.n, c.q, max_vertices, max_edges)
    return _normality(_Structure(c))


@lru_cache(maxsize=1024)
def _normality(s: _Structure) -> NormalityVerdict:
    # the supports of the Rees cone's generators, in `rees_cone`'s order,
    # taken straight from the edges
    c = s.clutter
    n = c.n
    supports = [[*e, n] for e in c.edges] + [[k] for k in range(n)]
    _, points = _candidates(n + 1, supports)
    if points:
        points -= {_dense(g, n + 1) for g in supports}
    for element in sorted(points, key=_degree_lex):
        a, b = element[: c.n], element[c.n]
        if not power_membership(c, a, b):
            return NormalityVerdict(normal=False, witness=(a, b))
    return NormalityVerdict(normal=True)


@dataclass(frozen=True, slots=True)
class PowerCertificate:
    """Bounded power-equality check: certified up to ``bound`` or a witness.

    ``witness`` is the lexicographically first pair (a, i) within the bound
    where the larger ideal (integral closure or symbolic power) contains
    x^a but the ordinary power I^i does not.
    """

    certified: bool
    bound: int
    witness: tuple[tuple[int, ...], int] | None = None


def _bounded_power_scan(c: Clutter, bound: int, rows) -> PowerCertificate:
    """Check the minimal generators of J_i = {a : <a, x> >= i t for every row
    (x, t)} in the box {0..i}^n against I^i, for i = 1..bound in order; the
    first failure is the lex-first witness.

    Each row is an integer pair (x, t), t > 0, with x a non-negative vector
    of length n, and a swap of twin vertices permutes the rows (the minimal
    covers, or the vertices of Q(A)).  With slack s = <a, x> - i t, a is in
    J_i iff every s >= 0, and a - e_j is in J_i iff every row has x_j <= s.
    So a member is minimal iff each j with a_j > 0 has some row with
    x_j > s.  Box points are valid capacities, so the packing search decides
    I^i directly.  The minimality filter only saves searches: I^i is closed
    upwards, so the lex-first member outside it is minimal anyway.

    The box is one recursive walk in lex order, like that of
    `polyhedra.mfmc_bounded`, with the slacks and the steps of the nonzero
    coordinates carried down; a leaf tests membership, then minimality,
    then the packing search.  Three rules cut it, and none skips the
    lex-first failing point:

    - Twins.  A swap of twins p < j maps members to members and I^i to
      itself, so it keeps the failing set; on a point with a_p > a_j it
      gives a lex-smaller one.  So a_j runs from a_p, for the nearest
      earlier twin p of j (from 0 when j has none), up to i.
    - No member below.  A value of a_j is skipped when even its largest
      completion, every later coordinate at i, is not in J_i: x >= 0, so
      J_i is closed upwards and no completion is a member.
    - Stop raising a_j.  Once the prefix with zeros after it is in J_i, the
      larger values of a_j are not walked: every point with a larger a_j
      has a - e_j in J_i, so none is minimal.

    The slacks are packed into one int, a field of `width` bits per row
    holding half + s, half = 2^(width - 1).  With half > i max(|x|, t) + |x|
    no field leaves [0, 2 half), even after a step x_j is taken off, so the
    fields add and subtract independently: a is a member iff every field's
    top bit is set, and a - e_j is one iff that still holds after
    subtracting coordinate j's step.
    """
    n = c.n
    earlier = _earlier_twins(n, c.edges)
    a = [0] * n
    for i in range(1, bound + 1):
        half = 1 << max(
            (i * max(sum(x), t) + sum(x) for x, t in rows), default=0
        ).bit_length()
        width = half.bit_length()
        top = point0 = 0
        steps = [0] * n
        for r, (x, t) in enumerate(rows):
            top |= half << r * width
            point0 += half - i * t << r * width
            for j, xj in enumerate(x):
                steps[j] += xj << r * width
        # above[j]: the offset of a_j = ... = a_(n-1) = i, the largest
        # completion from coordinate j on
        above = [0] * (n + 1)
        for j in reversed(range(n)):
            above[j] = above[j + 1] + i * steps[j]

        def fails(j: int, point: int, nonzero: list[int]) -> bool:
            """Whether a walked point with a_0..a_(j-1) as set fails, leaving
            the first one in a."""
            if j == n:
                return (
                    point & top == top
                    and not any((point - st) & top == top for st in nonzero)
                    and covering._packing(c, a, i) is None
                )
            low = a[earlier[j]] if earlier[j] >= 0 else 0
            st = steps[j]
            point += low * st
            for v in range(low, i + 1):
                if (point + above[j + 1]) & top == top:
                    a[j] = v
                    if fails(j + 1, point, nonzero + [st] if v else nonzero):
                        return True
                    if point & top == top:
                        break
                point += st
            return False

        if fails(0, point0, []):
            return PowerCertificate(
                certified=False, bound=bound, witness=(tuple(a), i)
            )
    return PowerCertificate(certified=True, bound=bound)


def is_ntf_bounded(
    c: Clutter, max_power: int, max_boxes: int = 1 << 20
) -> PowerCertificate:
    """I^i equals the i-th symbolic power for all i <= max_power.

    The bounded power scan over the integral vertices of Q(A), the minimal
    covers C, as rows (C, 1): a is in the symbolic power iff every cover sum
    is at least i, and a member is minimal iff each j with a_j > 0 lies in a
    cover whose sum is exactly i.  The box guard is checked before the memo.
    """
    bound = _guard_box(
        c.n, max_power, max_boxes, "power", "candidate exponent vectors"
    )
    return _ntf_certificate(_Structure(c), bound)


@lru_cache(maxsize=1024)
def _ntf_certificate(s: _Structure, bound: int) -> PowerCertificate:
    c = s.clutter
    rows = [
        (tuple(int(j in cover) for j in range(c.n)), 1)
        for cover in covering.minimal_vertex_covers(c)
    ]
    return _bounded_power_scan(c, bound, rows)


def monomial_string(c: Clutter, a, rees_degree: int = 0) -> str:
    """Render x^a (t^b) with vertex labels, e.g. ``x1^2*x3 t^2``."""
    vec = _vertex_vector(c, a, "exponents")
    rees_degree = _integer(rees_degree, "the Rees degree")
    factors = []
    for label, e in zip(c.vertices, vec):
        if e == 1:
            factors.append(label)
        elif e > 1:
            factors.append(f"{label}^{e}")
    body = "*".join(factors) if factors else "1"
    if rees_degree > 0:
        return f"{body} t^{rees_degree}"
    return body
