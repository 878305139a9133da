"""Independence complexes, exact simplicial homology, and Cohen-Macaulayness.

The independence complex of a clutter has the independent (edge-free)
vertex sets as faces; its facets are exactly the complements of the minimal
vertex covers.  Cohen-Macaulayness of the quotient by the edge ideal is
first certified by vertex decomposition: a pure vertex-decomposable complex
is shellable, and so Cohen-Macaulay over every field (Provan-Billera).  The
search for shedding vertices runs on facet bitmasks under a node budget.
Every complex it does not certify is decided by homology vanishing
(Reisner's criterion): for every face F, the link of F must have zero
reduced homology in every dimension strictly below the link's own
dimension, and the first failing face is the witness.  Faces and facets are
vertex bitmasks, and the link of F is read off the facets containing F,
with no minor built.  A link whose facets share a vertex is a cone
(acyclic) and is skipped.  Both searches memoize for the duration of one
check, keyed on facets relabelled onto consecutive vertices.

Homology is exact: boundary-matrix ranks via sparse fraction elimination
over the rationals, or bitmask elimination over GF(2).  The link scan over
the rationals ranks over GF(2) first and over Q only where GF(2) finds
homology below the top dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import covering
from .core import Clutter, InstanceTooLargeError


def _normalize_field(field: str) -> str:
    key = str(field).strip().lower()
    if key in ("q", "qq", "rational", "rationals"):
        return "Q"
    if key in ("f2", "gf2", "gf(2)", "z2"):
        return "F2"
    raise ValueError(f"unsupported coefficient field: {field!r} (use Q or F2)")


@dataclass(frozen=True, slots=True)
class SimplicialComplex:
    """Abstract simplicial complex on labeled vertices, stored by facets.

    Facets are strictly increasing index tuples, pairwise incomparable,
    sorted by (size, lex).  ``facets == ((),)`` is the empty complex {∅};
    an empty facet list is the void complex with no faces at all.
    """

    vertices: tuple[str, ...]
    facets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.vertices)
        seen = set()
        for f in self.facets:
            if any(not (0 <= v < n) for v in f):
                raise ValueError("facet vertex index out of range")
            if any(a >= b for a, b in zip(f, f[1:])):
                raise ValueError("facets must be strictly increasing index tuples")
            seen.add(frozenset(f))
        if len(seen) != len(self.facets):
            raise ValueError("duplicate facets")
        for a in seen:
            for b in seen:
                if a < b:
                    raise ValueError("facets must be pairwise incomparable")
        if list(self.facets) != sorted(self.facets, key=lambda f: (len(f), f)):
            raise ValueError("facets must be sorted by (size, lex)")

    @property
    def dimension(self) -> int | None:
        """Top face dimension; -1 for {∅}, None for the void complex."""
        if not self.facets:
            return None
        return max(len(f) for f in self.facets) - 1

    def faces(self) -> list[tuple[int, ...]]:
        """Every face including the empty one, sorted by (size, lex)."""
        out: set[tuple[int, ...]] = set()
        for f in self.facets:
            for k in range(len(f) + 1):
                out.update(combinations(f, k))
        return sorted(out, key=lambda f: (len(f), f))

    def has_face(self, face) -> bool:
        fs = frozenset(face)
        return any(fs <= frozenset(f) for f in self.facets)


def independence_complex(c: Clutter, max_vertices: int = 16) -> SimplicialComplex:
    """Faces = vertex sets containing no edge; facets = cover complements."""
    if c.n > max_vertices:
        raise InstanceTooLargeError(
            f"independence complex limited to {max_vertices} vertices (got {c.n})"
        )
    everything = set(range(c.n))
    facets = sorted(
        (tuple(sorted(everything - set(cover)))
         for cover in covering.minimal_vertex_covers(c)),
        key=lambda f: (len(f), f),
    )
    return SimplicialComplex(vertices=c.vertices, facets=tuple(facets))


@dataclass(frozen=True, slots=True)
class HomologyProfile:
    """Reduced Betti numbers for dimensions -1..dimension over one field."""

    field: str
    dimension: int | None
    betti: tuple[int, ...]

    def betti_number(self, k: int) -> int:
        if self.dimension is None:
            return 0
        idx = k + 1
        if 0 <= idx < len(self.betti):
            return self.betti[idx]
        return 0


def _rank_rational(rows: list[dict[int, object]]) -> int:
    """Rank of a sparse matrix given as dicts col -> nonzero entry."""
    pivots: dict[int, dict[int, object]] = {}
    rank = 0
    for row in rows:
        r = dict(row)
        while r:
            col = next((col for col in r if col in pivots), None)
            if col is None:
                break
            f = r.pop(col)
            for pc, pv in pivots[col].items():
                if pc == col:
                    continue
                nv = r.get(pc, 0) - f * pv
                if nv:
                    r[pc] = nv
                else:
                    r.pop(pc, None)
        if not r:
            continue
        col = next((col for col, v in r.items() if v == 1 or v == -1), None)
        if col is None:
            col = next(iter(r))
        lead = r[col]
        if lead == 1:
            norm = r
        elif lead == -1:
            norm = {cc: -vv for cc, vv in r.items()}
        else:
            norm = {cc: Fraction(vv) / lead for cc, vv in r.items()}
        pivots[col] = norm
        rank += 1
    return rank


def _rank_gf2(masks: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for m in masks:
        while m:
            low = m & -m
            p = pivots.get(low)
            if p is None:
                pivots[low] = m
                rank += 1
                break
            m ^= p
    return rank


def _mask(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _faces(facets) -> set[int]:
    """Every face of the complex with these facet masks, the empty one included."""
    out: set[int] = set()
    for f in facets:
        sub = f
        while sub:
            out.add(sub)
            sub = (sub - 1) & f
    out.add(0)
    return out


def _betti(facets, fld: str, max_faces: int = 1 << 22) -> tuple[int, ...]:
    """Reduced Betti numbers, dimensions -1..dim, of the complex whose facets
    are the given bitmasks (at least one), from boundary-matrix ranks.

    The boundary of a face drops its vertices in increasing index order with
    alternating signs, starting at +1; over GF(2) a boundary row is a bitmask
    of lower-face indices.
    """
    if sum(1 << f.bit_count() for f in facets) > max_faces:
        raise InstanceTooLargeError(f"face enumeration bound {max_faces} exceeded")
    by_dim: dict[int, list[int]] = {}
    for face in _faces(facets):
        by_dim.setdefault(face.bit_count() - 1, []).append(face)
    dim = max(by_dim)
    ranks: dict[int, int] = {}
    for k in range(0, dim + 1):
        lower = {f: i for i, f in enumerate(by_dim[k - 1])}
        if fld == "F2":
            masks = []
            for f in by_dim[k]:
                m, rest = 0, f
                while rest:
                    low = rest & -rest
                    m |= 1 << lower[f ^ low]
                    rest ^= low
                masks.append(m)
            ranks[k] = _rank_gf2(masks)
        else:
            rows = []
            for f in by_dim[k]:
                row: dict[int, object] = {}
                sign, rest = 1, f
                while rest:
                    low = rest & -rest
                    row[lower[f ^ low]] = sign
                    sign = -sign
                    rest ^= low
                rows.append(row)
            ranks[k] = _rank_rational(rows)
    return tuple(
        len(by_dim.get(k, ())) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(-1, dim + 1)
    )


def reduced_homology(
    sc: SimplicialComplex, field: str = "Q", max_faces: int = 1 << 22
) -> HomologyProfile:
    """Exact reduced Betti numbers from boundary-matrix ranks.

    Uses the augmented chain complex, so the empty face contributes one
    (-1)-chain and {∅} has a single Betti number betti_number(-1) == 1.
    """
    fld = _normalize_field(field)
    if not sc.facets:
        return HomologyProfile(field=fld, dimension=None, betti=())
    betti = _betti([_mask(f) for f in sc.facets], fld, max_faces)
    return HomologyProfile(field=fld, dimension=len(betti) - 2, betti=betti)


@dataclass(frozen=True, slots=True)
class CmVerdict:
    """Cohen-Macaulay verdict over one coefficient field.

    A negative verdict carries exactly one witness: either two minimal
    covers of different sizes (not unmixed), or the first face — in
    (size, lex) order — whose link has nonzero reduced homology below its
    dimension, reported as (face labels, homology dimension, Betti number).
    """

    cohen_macaulay: bool
    field: str
    unmixed_witness: tuple[tuple[str, ...], tuple[str, ...]] | None = None
    link_witness: tuple[tuple[str, ...], int, int] | None = None


_VD_BUDGET = 4096  # complexes the vertex-decomposition search may expand per call


def _vertex_decomposable(facets) -> bool:
    """True when the pure complex with these facet masks is vertex
    decomposable; False when it is not, or when the search spends its
    budget first.

    A pure complex is vertex decomposable when it has one facet, or when
    some shedding vertex v has a vertex-decomposable link {f - v : v in f}
    and deletion {f : v not in f}.  v sheds when it lies in some facets but
    not all, and each f - v with v in f lies in a facet without v; the
    deletion is then pure of the same dimension.  Results are memoized for
    the call, keyed on the relabelled facets.
    """
    memo: dict[tuple[int, ...], bool] = {}
    budget = _VD_BUDGET

    def decomposable(key: tuple[int, ...]) -> bool:
        nonlocal budget
        if len(key) == 1:
            return True
        hit = memo.get(key)
        if hit is not None:
            return hit
        if budget <= 0:
            return False
        budget -= 1
        support = 0
        for f in key:
            support |= f
        result = False
        while support and not result:
            v = support & -support
            support ^= v
            link = [f ^ v for f in key if f & v]
            deletion = [f for f in key if not f & v]
            result = (
                bool(deletion)
                and all(any(g & h == g for h in deletion) for g in link)
                and decomposable(covering._relabel(link))
                and decomposable(covering._relabel(deletion))
            )
        memo[key] = result
        return result

    return decomposable(covering._relabel(facets))


def _link_failure(link: tuple[int, ...], fld: str) -> tuple[int, int] | None:
    """First (dimension k, Betti number) with k below the link's dimension
    and nonzero reduced homology over fld, or None.

    Over Q the ranks are first taken over GF(2): by the universal coefficient
    theorem each rational Betti number is at most the GF(2) one, so when
    every GF(2) number below the top vanishes, so do the rational ones.
    """
    top = max(f.bit_count() for f in link) - 1
    betti = _betti(link, "F2")
    if fld == "Q" and any(betti[: top + 1]):
        betti = _betti(link, "Q")
    for k in range(-1, top):
        if betti[k + 1]:
            return k, betti[k + 1]
    return None


def is_cohen_macaulay(
    c: Clutter, field: str = "Q", max_vertices: int = 16
) -> CmVerdict:
    """Vertex-decomposition certificate, then the homology-vanishing
    criterion on every link of the independence complex.

    Pre-filter: unequal minimal-cover sizes refute Cohen-Macaulayness
    immediately (the complex would not be pure).  A vertex-decomposable
    complex is Cohen-Macaulay over every field and gets a positive verdict
    with no further work.  Otherwise (not decomposable, or the search
    budget is spent) faces are scanned in (size, lex) order; the link of F
    has the facets f - F of the facets f containing F.  When every link
    facet shares a vertex, the link is a cone and is skipped as acyclic.
    The scan decides every negative verdict and supplies its witness.
    """
    fld = _normalize_field(field)
    if c.n > max_vertices:
        raise InstanceTooLargeError(
            f"Cohen-Macaulay check limited to {max_vertices} vertices (got {c.n})"
        )
    covers = covering.minimal_vertex_covers(c)
    sizes = sorted({len(cv) for cv in covers})
    if len(sizes) > 1:
        small = next(cv for cv in covers if len(cv) == sizes[0])
        big = next(cv for cv in covers if len(cv) == sizes[-1])
        labels = lambda cover: tuple(c.vertices[i] for i in cover)  # noqa: E731
        return CmVerdict(
            cohen_macaulay=False,
            field=fld,
            unmixed_witness=(labels(small), labels(big)),
        )
    everything = (1 << c.n) - 1
    facets = [everything & ~_mask(cover) for cover in covers]
    if _vertex_decomposable(facets):
        return CmVerdict(cohen_macaulay=True, field=fld)
    faces = sorted(_faces(facets), key=lambda f: (f.bit_count(), _indices(f)))
    failures: dict[tuple[int, ...], tuple[int, int] | None] = {}
    for face in faces:
        link = [f & ~face for f in facets if f & face == face]
        apex = everything
        for f in link:
            apex &= f
        if apex:
            continue  # a vertex in every link facet cones the link: acyclic
        key = covering._relabel(link)
        if key not in failures:
            failures[key] = _link_failure(key, fld)
        failure = failures[key]
        if failure is not None:
            k, b = failure
            return CmVerdict(
                cohen_macaulay=False,
                field=fld,
                link_witness=(tuple(c.vertices[i] for i in _indices(face)), k, b),
            )
    return CmVerdict(cohen_macaulay=True, field=fld)
