"""Exact integer linear algebra.

Everything here works on plain ``int`` matrices and vectors; no floating
point and no ``Fraction`` is used.  These are small routines sized for the
desk-scale instances the rest of the package handles, one copy of each: the
double-description cut; one fraction-free sparse row echelon loop, which
gives the independent rows (the ranks of the homology boundary matrices)
and, completed to Gauss-Jordan on rows augmented by their own index, the
inverse and |det| of the Hilbert-basis triangulation's initial simplex;
and the dense (Bareiss 1968) determinant with the adjugate, the
elimination that each simplex of volume above 1 runs.  `primitive` scales
a vector by 1/gcd.
"""

from __future__ import annotations

from math import gcd


def primitive(vec) -> tuple[int, ...]:
    """Scale an integer vector by 1/gcd, preserving orientation."""
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(v // g for v in vec)


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
    positive = []
    negative = []
    for r, z, v in zip(rays, zeros, values):
        if v > 0:
            next_rays.append(r)
            next_zeros.append(z)
            positive.append((r, z, v))
        elif v == 0:
            next_rays.append(r)
            next_zeros.append(z | bit)
        else:
            negative.append((r, z, -v))
    for rp, zp, vp in positive:
        for rm, zm, vm in negative:
            # the two rays' own masks hold the common mask; a third one
            # makes the pair non-adjacent
            common = zp & zm
            if common.bit_count() < d - 2 or len(
                [z for z in zeros if common & z == common]
            ) > 2:
                continue
            next_rays.append(
                primitive([vp * a + vm * b for a, b in zip(rm, rp)])
            )
            next_zeros.append(common | bit)
    return next_rays, next_zeros


def echelon(rows, width: int):
    """Fraction-free row echelon form of sparse integer rows.

    ``rows`` are dicts column -> nonzero int, and pivots are taken in the
    columns below ``width`` only: any further columns ride along.  Each row
    is reduced against the pivots before it.  With pivot entry p and entry
    f in its column, a row becomes p * row - f * pivot divided by the gcd
    of its entries.  Pivots prefer a column holding +-1, stored as +1, so
    the step is row - f * pivot with no scaling or gcd: boundary matrices
    keep almost every pivot at 1.  A row left with an entry below ``width``
    is independent of the rows before it and becomes a pivot row, with a
    positive pivot.  The elimination stops once every column below
    ``width`` holds a pivot.

    Returns ``(independent, pivots)``: the indices of the rows independent
    of the rows before them, and a dict pivot column -> (p, row), in the
    order the pivots were taken.  Each pivot row vanishes in the columns of
    the pivots taken before it.
    """
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    independent = []
    for idx, row in enumerate(rows):
        if len(pivots) == width:
            break
        r = dict(row)
        while (col := next((c for c in r if c in pivots), None)) is not None:
            r = _combine(r, col, *pivots[col])
        col = next(
            (c for c, v in r.items() if c < width and (v == 1 or v == -1)), None
        )
        if col is None:
            col = next((c for c in r if c < width), None)
            if col is None:
                continue
        if r[col] < 0:
            r = {c: -v for c, v in r.items()}
        pivots[col] = (r[col], r)
        independent.append(idx)
    return independent, pivots


def gauss_jordan(rows, width: int):
    """Fraction-free Gauss-Jordan elimination of sparse integer rows in the
    columns below ``width``, each augmented by a unit entry in column
    ``width + i``, i its index.

    `echelon` picks the independent rows R; the augmented part of each
    pivot row is the combination of the rows it was made from, so a pivot
    row holding p alone below ``width`` holds p times a row of the inverse.
    Before the back substitution the pivot rows are C R, with C triangular,
    because a row is combined only with the pivot rows before it: its
    diagonal holds the rows' own unit entries, each +- the product of the
    row's scalings over its gcd divisions.  Restricted to the pivot
    columns the pivot rows are triangular too, with the pivots on the
    diagonal, so |det| of R on those columns is the product of the pivots
    over the product of the own entries, exactly.  Then each pivot column
    is cleared from the earlier pivot rows, the latest pivot first, with
    the step of `echelon`.

    Returns ``(independent, pivots, volume)``: the indices of the rows
    independent of the rows before them, a dict pivot column -> (p, row)
    whose rows vanish in the other pivot columns, and that |det|.
    """
    independent, pivots = echelon(
        ({**row, width + i: 1} for i, row in enumerate(rows)), width
    )
    volume = own = 1
    for (p, row), i in zip(pivots.values(), independent):
        volume *= p
        own *= row[width + i]
    volume //= abs(own)
    for col in reversed(list(pivots)):
        p, row = pivots[col]
        for c in [c for c in row if c != col and c in pivots]:
            row = _combine(row, c, *pivots[c])
        pivots[col] = (row[col], row)
    return independent, pivots, volume


def _combine(r, col, p, prow):
    """``p * r - r[col] * prow``, divided by the gcd of its entries when
    p != 1; prow holds p in column ``col``.  With p = 1, r is updated in
    place."""
    f = r[col]
    if p != 1:
        r = {c: p * v for c, v in r.items()}
    for c, v in prow.items():
        nv = r.get(c, 0) - f * v
        if nv:
            r[c] = nv
        else:
            del r[c]
    if p != 1 and r:
        g = gcd(*r.values())
        if g > 1:
            r = {c: v // g for c, v in r.items()}
    return r


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
