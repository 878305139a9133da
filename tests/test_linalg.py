"""The shared integer kernels: the double-description cut, fraction-free
sparse Gauss-Jordan elimination, and the determinant and adjugate routine."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from clutterlab import make_clutter
from clutterlab._linalg import _det_adjugate, dd_step, echelon, gauss_jordan
from clutterlab.rees import _candidates, _supports, rees_cone

square_int_matrices = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=300, deadline=None)
@given(square_int_matrices)
def test_det_adjugate_matches_dense_solve(m):
    n = len(m)
    det, adj = _det_adjugate(m)
    assert det == oracles.brute_determinant(m)
    if det == 0:
        assert adj is None
        assert n and oracles._solve_dense(m, [0] * n) is None
        return
    # column j of the inverse is adj[:, j] / det, i.e. m . adj = det . I
    for j in range(n):
        column = oracles._solve_dense(m, [int(i == j) for i in range(n)])
        assert column == [Fraction(adj[i][j], det) for i in range(n)]


def test_row_swaps_and_singular_pins():
    assert _det_adjugate([]) == (1, [])
    assert _det_adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
    assert _det_adjugate([[0, 2, 1], [1, 0, 0], [0, 0, 3]])[0] == -6
    assert _det_adjugate([[1, 2], [2, 4]]) == (0, None)


int_matrices = st.integers(min_value=0, max_value=7).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=cols, max_size=cols),
        max_size=8,
    )
)


def _sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _sparse(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _independent_prefix(m):
    return [
        i
        for i in range(len(m))
        if oracles._rank_dense_q(m[: i + 1]) > oracles._rank_dense_q(m[:i])
    ]


@settings(max_examples=300, deadline=None)
@given(int_matrices)
def test_echelon_rows_match_dense_rank(m):
    # entries in -3..3 make pivots other than +-1 occur
    cols = len(m[0]) if m else 0
    independent, pivots = echelon(_sparse(m), cols)
    assert independent == _independent_prefix(m)
    # each pivot row vanishes in the columns of the pivots before it
    taken = []
    for col, (p, row) in pivots.items():
        assert p > 0 and row[col] == p
        assert not any(c in row for c in taken)
        taken.append(col)


@settings(max_examples=300, deadline=None)
@given(int_matrices)
def test_gauss_jordan_volume_of_rank_deficient_rows(m):
    # short or repeated rows make the matrices rank-deficient: the volume
    # is |det| of the independent rows restricted to the pivot columns
    cols = len(m[0]) if m else 0
    independent, pivots, volume = gauss_jordan(_sparse(m), cols)
    assert independent == _independent_prefix(m)
    for col, (p, row) in pivots.items():
        assert p > 0 and row[col] == p
        assert not any(c in row for c in pivots if c != col)
    block = [[m[i][col] for col in sorted(pivots)] for i in independent]
    assert volume == abs(oracles.brute_determinant(block))


@settings(max_examples=300, deadline=None)
@given(square_int_matrices)
def test_gauss_jordan_inverse_matches_adjugate(m):
    # the augmented part of the pivot row in column k is p times row k of
    # the inverse, adj[k] / det; |det| > 1 is common with entries in -3..3
    n = len(m)
    det, adj = _det_adjugate(m)
    independent, pivots, volume = gauss_jordan(_sparse(m), n)
    if det == 0:
        assert len(independent) < n
        return
    assert independent == list(range(n))
    assert volume == abs(det)
    for k in range(n):
        p, row = pivots[k]
        assert {c: v for c, v in row.items() if c < n} == {k: p}
        for i in range(n):
            assert row.get(n + i, 0) * det == adj[k][i] * p


def test_echelon_and_gauss_jordan_pins():
    assert echelon([], 0) == ([], {})
    assert echelon([{}, {0: 2}, {0: -4}, {1: 3}, {0: 1, 1: 1}], 2)[0] == [1, 3]
    assert echelon([{0: 2, 1: 3}, {0: 3, 1: 5}, {0: 1}], 2)[0] == [0, 1]
    # a +-1 entry is the preferred pivot, stored as +1
    assert echelon([{0: 2, 1: -1}], 2) == ([0], {1: (1, {0: -2, 1: 1})})
    # the elimination stops once every column holds a pivot
    assert echelon([{0: 1}, {0: 1, 1: 2}, {5: 1}], 2)[0] == [0, 1]
    assert gauss_jordan([], 0) == ([], {}, 1)
    # [[2, 1], [1, 1]] has det 1: the augmented columns 2, 3 hold the inverse
    assert gauss_jordan([{0: 2, 1: 1}, {0: 1, 1: 1}], 2) == (
        [0, 1],
        {1: (1, {1: 1, 2: -1, 3: 2}), 0: (1, {0: 1, 2: 1, 3: -1})},
        1,
    )


def test_rees_cone_with_initial_volume_two():
    # x1, x2, x3x4, x3x5, x4x5: the first six generators (the lifted edges
    # and the unit vector of x1) are independent, with |det| 2
    c = make_clutter(
        ["x1", "x2", "x3", "x4", "x5"],
        [["x1"], ["x2"], ["x3", "x4"], ["x3", "x5"], ["x4", "x5"]],
    )
    cone = rees_cone(c)
    rows = [{k: 1 for k, x in enumerate(g) if x} for g in cone.generators]
    independent, _, volume = gauss_jordan(rows, cone.dim)
    rays = [cone.generators[i] for i in independent]
    assert independent == [0, 1, 2, 3, 4, 5]
    assert volume == abs(_det_adjugate(rays)[0]) == 2
    # its one parallelepiped point, x1 x3 x4 x5 t^2, is half the sum of the
    # lifted edges x1, x3x4, x3x5 and x4x5, and it is among the candidates
    assert oracles.brute_parallelepiped_points(rays, 2) == {(1, 0, 1, 1, 1, 2)}
    assert (1, 0, 1, 1, 1, 2) in _candidates(cone.dim, _supports(cone.generators))[1]


def test_dd_step_cuts_the_orthant():
    # the orthant of R^3 cut by x + y - z >= 0; bit j stands for x_j >= 0,
    # bit 3 for the new constraint
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    zeros = [0b110, 0b101, 0b011]
    values = [x + y - z for x, y, z in rays]
    assert dd_step(rays, zeros, values, 1 << 3, 3) == (
        [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],
        [0b110, 0b101, 0b1010, 0b1001],
    )
