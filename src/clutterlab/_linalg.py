"""Exact integer linear algebra.

Everything here works on plain ``int`` matrices and vectors; no floating
point and no ``Fraction`` is used.  These are small routines sized for the
desk-scale instances the rest of the package handles, one copy of each: the
double-description cut, fraction-free (Bareiss 1968) row independence, and
the determinant with the adjugate, the one elimination that each simplex of
the Hilbert-basis triangulation runs.  `primitive` scales a vector by 1/gcd.
"""

from __future__ import annotations

from math import gcd


def primitive(vec) -> tuple[int, ...]:
    """Scale an integer vector by 1/gcd, preserving orientation."""
    g = 0
    for v in vec:
        g = gcd(g, abs(v))
    if g <= 1:
        return tuple(int(v) for v in vec)
    return tuple(int(v) // g for v in vec)


def dd_step(rays, zeros, values, bit: int, d: int):
    """Cut a pointed full-dimensional cone in dimension d by one half-space,
    by double description (Motzkin et al. 1953; Fukuda and Prodon 1996).

    ``rays`` are the extreme rays as primitive integer vectors, ``zeros``
    the bitmasks of the constraints each makes tight, and ``values`` the new
    constraint's value at each ray; ``bit`` marks the new constraint.  Rays
    with value >= 0 are kept (gaining ``bit`` at value 0).  Each adjacent
    pair of a positive and a negative ray is replaced by their primitive
    positive combination on the hyperplane: adjacent means the common mask
    has at least d - 2 members and lies in no third ray's mask.
    """
    next_rays = []
    next_zeros = []
    negative = []
    for j, (r, z, v) in enumerate(zip(rays, zeros, values)):
        if v > 0:
            next_rays.append(r)
            next_zeros.append(z)
        elif v == 0:
            next_rays.append(r)
            next_zeros.append(z | bit)
        else:
            negative.append(j)
    for p, vp in enumerate(values):
        if vp <= 0:
            continue
        for m in negative:
            common = zeros[p] & zeros[m]
            if common.bit_count() < d - 2 or any(
                common & z == common
                for j, z in enumerate(zeros)
                if j != p and j != m
            ):
                continue
            vm = -values[m]
            next_rays.append(
                primitive([vp * a + vm * b for a, b in zip(rays[m], rays[p])])
            )
            next_zeros.append(common | bit)
    return next_rays, next_zeros


def independent_rows(rows) -> list[int]:
    """Indices of the rows that are independent over Q of the rows before them.

    ``rows`` are sparse integer vectors, dicts column -> nonzero int.  With
    pivot entry p and entry f in its column, a row is reduced to
    p * row - f * pivot divided by the gcd of its entries.  Pivots prefer a
    column holding +-1, stored as +1, so the step is row - f * pivot with no
    scaling or gcd: boundary matrices keep almost every pivot at 1.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    independent = []
    for idx, row in enumerate(rows):
        r = dict(row)
        while r:
            col = next((col for col in r if col in pivots), None)
            if col is None:
                break
            f = r.pop(col)
            p, prow = pivots[col]
            if p != 1:
                r = {cc: p * vv for cc, vv in r.items()}
            for pc, pv in prow.items():
                if pc == col:
                    continue
                nv = r.get(pc, 0) - f * pv
                if nv:
                    r[pc] = nv
                else:
                    r.pop(pc, None)
            if p != 1 and r:
                g = gcd(*r.values())
                if g > 1:
                    r = {cc: vv // g for cc, vv in r.items()}
        if not r:
            continue
        col = next((col for col, v in r.items() if v == 1 or v == -1), None)
        if col is None:
            col = next(iter(r))
        elif r[col] == -1:
            r = {cc: -vv for cc, vv in r.items()}
        pivots[col] = (r[col], r)
        independent.append(idx)
    return independent


def _det_adjugate(matrix) -> tuple[int, list[list[int]] | None]:
    """Determinant and adjugate of a square integer matrix.

    Fraction-free (Bareiss) Gauss-Jordan elimination on ``[M | I]``: every
    division by the previous pivot is exact, the left block ends as det * I
    up to the sign of the row swaps, and the right block as the adjugate
    up to the same sign.
    Returns ``(0, None)`` for a singular matrix.
    """
    n = len(matrix)
    rows = [
        [int(v) for v in row] + [int(i == j) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        p = top[k]
        for i in range(n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = p
    return sign * prev, [[sign * v for v in row[n:]] for row in rows]
