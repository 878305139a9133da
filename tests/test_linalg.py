"""The shared integer kernels: the double-description cut, fraction-free
row independence, and the determinant and adjugate routine."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from clutterlab._linalg import _det_adjugate, dd_step, independent_rows

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


@settings(max_examples=300, deadline=None)
@given(int_matrices)
def test_independent_rows_match_dense_rank(m):
    # entries in -3..3 make pivots other than +-1 occur
    sparse = [{j: x for j, x in enumerate(row) if x} for row in m]
    expected = [
        i
        for i in range(len(m))
        if oracles._rank_dense_q(m[: i + 1]) > oracles._rank_dense_q(m[:i])
    ]
    assert independent_rows(sparse) == expected


def test_independent_rows_pins():
    assert independent_rows([]) == []
    assert independent_rows([{}, {0: 2}, {0: -4}, {1: 3}, {0: 1, 1: 1}]) == [1, 3]
    assert independent_rows([{0: 2, 1: 3}, {0: 3, 1: 5}, {0: 1}]) == [0, 1]


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
