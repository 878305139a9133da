"""The fraction-free determinant and adjugate routine."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from clutterlab._linalg import _det_adjugate

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
