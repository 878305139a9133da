"""Exact integer linear algebra.

Everything here works on plain ``int`` matrices and vectors; no floating
point and no ``Fraction`` is used.  These are small dense routines sized for
the desk-scale instances the rest of the package handles.
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


def hermite_diagonal(columns) -> list[int]:
    """Diagonal of a lower-triangular column Hermite form of an integer matrix.

    ``columns`` is a list of D column vectors spanning a full-rank lattice in
    Z^D.  The returned positive diagonal (d_0, ..., d_{D-1}) satisfies
    prod(d_i) = |det| and the box prod([0, d_i)) is a complete residue system
    for Z^D modulo the column lattice.  Raises ValueError on singular input.
    """
    cols = [list(map(int, c)) for c in columns]
    d = len(cols)
    for i in range(d):
        while True:
            nz = [j for j in range(i, d) if cols[j][i] != 0]
            if not nz:
                raise ValueError("singular matrix has no Hermite diagonal")
            j0 = min(nz, key=lambda j: abs(cols[j][i]))
            if j0 != i:
                cols[i], cols[j0] = cols[j0], cols[i]
            if cols[i][i] < 0:
                cols[i] = [-v for v in cols[i]]
            done = True
            p = cols[i][i]
            for j in range(i + 1, d):
                if cols[j][i] != 0:
                    q = cols[j][i] // p
                    cols[j] = [v - q * w for v, w in zip(cols[j], cols[i])]
                    if cols[j][i] != 0:
                        done = False
            if done:
                break
    return [cols[i][i] for i in range(d)]


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
