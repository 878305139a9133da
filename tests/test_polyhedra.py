"""The fractional cover number, the packing number, covering-polyhedron
vertices, idealness, bounded MFMC, and the packing search that decides most
MFMC questions."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from clutterlab import (
    IdealVerdict,
    InstanceTooLargeError,
    MfmcVerdict,
    covering_number,
    enumerate_Q_vertices,
    graft,
    integral_closure_membership,
    is_ideal_clutter,
    make_clutter,
    matching_number,
    mfmc_bounded,
    packs,
    parallelization,
    parse_clutter,
    solve_lp_exact,
    solve_packing_ilp,
    weighted_cover_number,
)

TRIANGLE = parse_clutter("v: x1 x2 x3\ne: x1 x2\ne: x1 x3\ne: x2 x3\n")
C4 = parse_clutter("v: x1 x2 x3 x4\ne: x1 x2\ne: x2 x3\ne: x3 x4\ne: x1 x4\n")
C5 = parse_clutter(
    "v: x1 x2 x3 x4 x5\ne: x1 x2\ne: x2 x3\ne: x3 x4\ne: x4 x5\ne: x1 x5\n"
)
TWO_TRIANGLES = parse_clutter(
    "v: x1 x2 x3 x4 x5 x6\n"
    "e: x1 x2\ne: x1 x3\ne: x2 x3\ne: x4 x5\ne: x4 x6\ne: x5 x6\n"
)
SINGLETON_AND_TRIANGLE = parse_clutter(
    "v: x1 x2 x3 x4\ne: x1\ne: x2 x3\ne: x2 x4\ne: x3 x4\n"
)
K4 = parse_clutter(
    "v: x1 x2 x3 x4\n"
    "e: x1 x2\ne: x1 x3\ne: x1 x4\ne: x2 x3\ne: x2 x4\ne: x3 x4\n"
)
K33 = parse_clutter(
    "v: a1 a2 a3 b1 b2 b3\n"
    + "".join(f"e: a{i} b{j}\n" for i in range(1, 4) for j in range(1, 4))
)


def F(a, b=1):
    return Fraction(a, b)


class TestFractionalCover:
    def test_fractional_covering_lp_value(self):
        # tau*_1 of the triangle: the half vertex of Q(A), or half of each edge
        assert solve_lp_exact(TRIANGLE, (1, 1, 1)) == F(3, 2)

    def test_empty_clutter(self):
        assert solve_lp_exact(make_clutter([], []), ()) == 0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            solve_lp_exact(TRIANGLE, (1, 1))
        with pytest.raises(ValueError):
            solve_lp_exact(TRIANGLE, (1, -1, 1))

    def test_size_guard(self):
        # 13 vertices, one beyond the default guard shared with Q(A) vertices
        from clutterlab import InstanceTooLargeError

        path = make_clutter(
            [f"x{i}" for i in range(13)],
            [(f"x{i}", f"x{i + 1}") for i in range(12)],
        )
        with pytest.raises(InstanceTooLargeError, match="limited to 12 vertices"):
            solve_lp_exact(path, (1,) * 13)
        with pytest.raises(InstanceTooLargeError):
            integral_closure_membership(path, (1,) * 13, 1)
        assert solve_lp_exact(path, (1,) * 13, max_vertices=13) == 6

    def test_lp_duality_on_clutter_programs(self):
        # the covering optimum over the vertices of Q(A) equals the packing
        # LP optimum, found by basic-solution enumeration
        for c in (TRIANGLE, C4, C5, TWO_TRIANGLES, SINGLETON_AND_TRIANGLE):
            for w in ((1,) * c.n, tuple(1 + (i % 2) for i in range(c.n))):
                assert solve_lp_exact(c, w) == oracles.brute_packing_lp_value(c, w)


class TestIlp:
    def test_packing_triangle(self):
        assert solve_packing_ilp(TRIANGLE, (1, 1, 1)).value == 1
        assert solve_packing_ilp(TRIANGLE, (2, 2, 2)).value == 3
        # the count runs the search for every k up to 61
        assert solve_packing_ilp(TRIANGLE, (40, 40, 40)).value == 60

    def test_packing_c5(self):
        assert solve_packing_ilp(C5, (1,) * 5).value == 2

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            solve_packing_ilp(TRIANGLE, (1, 1))
        with pytest.raises(ValueError):
            solve_packing_ilp(TRIANGLE, (1, -1, 1))

    @settings(max_examples=100, deadline=None)
    @given(
        strategies.clutters(max_n=5).flatmap(
            lambda c: st.tuples(
                st.just(c), st.tuples(*[st.integers(0, 3)] * c.n)
            )
        )
    )
    @example((make_clutter([], []), ()))
    @example((TRIANGLE, (0, 0, 0)))
    def test_against_oracles(self, case):
        c, w = case
        assert solve_packing_ilp(c, w).value == oracles.brute_max_packing(c, w)

    @settings(max_examples=30, deadline=None)
    @given(strategies.clutters(max_n=4, max_q=4))
    def test_solutions_are_feasible(self, c):
        w = (2,) * c.n
        pack = solve_packing_ilp(c, w)
        assert all(y >= 0 for y in pack.solution)
        for i in range(c.n):
            load = sum(pack.solution[j] for j, e in enumerate(c.edges) if i in e)
            assert load <= w[i]
        assert sum(pack.solution) == pack.value


class TestQVertices:
    def test_triangle_has_the_half_vertex(self):
        vs = enumerate_Q_vertices(TRIANGLE)
        assert (F(1, 2), F(1, 2), F(1, 2)) in vs.vertices
        integral = [
            v for v, flag in zip(vs.vertices, vs.integral_flags()) if flag
        ]
        assert len(integral) == 3  # the three minimal covers

    def test_vertices_satisfy_constraints(self):
        for c in (TRIANGLE, C4, C5):
            vs = enumerate_Q_vertices(c)
            for v in vs.vertices:
                assert all(x >= 0 for x in v)
                for e in c.edges:
                    assert sum(v[i] for i in e) >= 1

    def test_c4_vertices_all_integral(self):
        vs = enumerate_Q_vertices(C4)
        assert all(vs.integral_flags())

    def test_ideal_verdicts(self):
        assert not is_ideal_clutter(TRIANGLE).ideal
        assert is_ideal_clutter(TRIANGLE).fractional_witness == (
            F(1, 2),
            F(1, 2),
            F(1, 2),
        )
        assert is_ideal_clutter(C4).ideal
        assert not is_ideal_clutter(C5).ideal
        assert is_ideal_clutter(K33).ideal

    @settings(max_examples=100, deadline=None)
    @given(strategies.clutters(max_n=6, max_q=7))
    def test_matches_basis_enumeration(self, c):
        assert enumerate_Q_vertices(c).vertices == oracles.brute_Q_vertices(c)

    def test_grafted_k4(self):
        k4 = make_clutter(
            ["x1", "x2", "x3", "x4"],
            [["x1", "x2"], ["x1", "x3"], ["x1", "x4"],
             ["x2", "x3"], ["x2", "x4"], ["x3", "x4"]],
        )
        g = graft(k4)
        assert g.n == 8
        assert len(enumerate_Q_vertices(g).vertices) == 10
        verdict = is_ideal_clutter(g)
        assert not verdict.ideal
        assert verdict.fractional_witness == (F(1, 2),) * 8

    @settings(max_examples=100, deadline=None)
    @given(strategies.clutters(max_n=6, max_q=7))
    @example(C5)
    @example(SINGLETON_AND_TRIANGLE)
    def test_witness_is_the_first_fractional_vertex(self, c):
        # the verdict read off the rays equals the one read off the sorted
        # vertex list: its first non-integral vertex, if any
        vs = enumerate_Q_vertices(c)
        fractional = [
            v for v, flag in zip(vs.vertices, vs.integral_flags()) if not flag
        ]
        expected = (
            IdealVerdict(ideal=False, fractional_witness=fractional[0])
            if fractional
            else IdealVerdict(ideal=True)
        )
        assert is_ideal_clutter(c) == expected

    def test_c5_has_one_fractional_vertex(self):
        vs = enumerate_Q_vertices(C5)
        assert len(vs.vertices) == 6
        fractional = [
            v for v, flag in zip(vs.vertices, vs.integral_flags()) if not flag
        ]
        assert fractional == [(F(1, 2),) * 5]

    def test_singleton_edge_fixes_its_vertex(self):
        vs = enumerate_Q_vertices(SINGLETON_AND_TRIANGLE)
        assert vs.vertices == (
            (F(1), F(0), F(1), F(1)),
            (F(1), F(1, 2), F(1, 2), F(1, 2)),
            (F(1), F(1), F(0), F(1)),
            (F(1), F(1), F(1), F(0)),
        )
        assert is_ideal_clutter(SINGLETON_AND_TRIANGLE).fractional_witness == (
            F(1), F(1, 2), F(1, 2), F(1, 2)
        )

    def test_no_vertices(self):
        assert enumerate_Q_vertices(make_clutter([], [])).vertices == ((),)

    def test_integral_vertices_are_the_minimal_covers(self):
        from clutterlab import minimal_vertex_covers

        for c in (C4, C5, K33):
            vs = enumerate_Q_vertices(c)
            integral = {
                tuple(int(x) for x in v)
                for v, flag in zip(vs.vertices, vs.integral_flags())
                if flag
            }
            covers = {
                tuple(1 if i in set(cover) else 0 for i in range(c.n))
                for cover in minimal_vertex_covers(c)
            }
            assert integral == covers


class TestMfmc:
    def test_triangle_fails_at_ones(self):
        v = mfmc_bounded(TRIANGLE, max_weight=2)
        assert not v.certified
        assert v.witness_weights == (1, 1, 1)
        assert (v.cover_value, v.packing_value) == (2, 1)

    def test_c4_certified(self):
        v = mfmc_bounded(C4, max_weight=2)
        assert v.certified
        assert v.bound == 2

    def test_k33_certified(self):
        assert mfmc_bounded(K33, max_weight=1).certified

    def test_box_guard(self):
        with pytest.raises(InstanceTooLargeError):
            mfmc_bounded(K33, max_weight=3, max_boxes=100)
        # the guard counts the whole box, 4^6 = 4096 here, although the
        # walk visits only the 10^3 weights sorted within each twin pair
        doubled = parallelization(TRIANGLE, (2, 2, 2))
        with pytest.raises(InstanceTooLargeError, match="4096 weight boxes"):
            mfmc_bounded(doubled, max_weight=3, max_boxes=2000)
        assert not mfmc_bounded(doubled, max_weight=3, max_boxes=4096).certified

    @settings(max_examples=60, deadline=None)
    @given(strategies.clutters(max_n=5), st.sampled_from((1, 2)))
    @example(parallelization(TRIANGLE, (2, 1, 1)), 1)
    @example(parallelization(TRIANGLE, (2, 1, 1)), 2)
    @example(parallelization(C5, (2, 1, 2, 1, 1)), 2)
    @example(K4, 2)
    @example(TWO_TRIANGLES, 1)
    @example(TWO_TRIANGLES, 2)
    def test_matches_the_full_box(self, c, max_weight):
        # the twin-reduced walk with reused packings finds the lex-first
        # failing weight of the whole box, with the same two numbers
        first = oracles.brute_mfmc_box(c, max_weight)
        expected = (
            MfmcVerdict(certified=True, bound=max_weight)
            if first is None
            else MfmcVerdict(False, max_weight, *first)
        )
        assert mfmc_bounded(c, max_weight=max_weight) == expected

    def test_weight_bound_must_be_positive(self):
        # the box {0}^n would certify any clutter, the triangle included
        with pytest.raises(ValueError):
            mfmc_bounded(TRIANGLE, max_weight=0)

    @settings(max_examples=25, deadline=None)
    @given(strategies.uniform_clutters(max_n=4, size=2, max_q=5))
    def test_agrees_with_definition_at_w1(self, c):
        # at W = 1 the box is exactly the deletion minors
        from itertools import product as prod
        from clutterlab import minor

        expected = True
        for keep in prod((0, 1), repeat=c.n):
            dele = [c.vertices[i] for i in range(c.n) if keep[i] == 0]
            m = minor(c, deleted=dele)
            if covering_number(m) != matching_number(m):
                expected = False
                break
        assert mfmc_bounded(c, max_weight=1).certified == expected


class TestPackingSearch:
    @settings(max_examples=60, deadline=None)
    @given(strategies.clutters(max_n=4, max_q=4), st.data())
    def test_agrees_with_ilp_and_brute_force(self, c, data):
        w = tuple(data.draw(st.integers(0, 3)) for _ in range(c.n))
        k = data.draw(st.integers(0, weighted_cover_number(c, w) + 1))
        found = packs(c, w, k)
        assert found == (solve_packing_ilp(c, w).value >= k)
        assert found == (oracles.brute_max_packing(c, w) >= k)

    @settings(max_examples=60, deadline=None)
    @given(strategies.clutters(max_n=4, max_q=4), st.data())
    def test_closure_membership_matches_the_lp_route(self, c, data):
        a = tuple(data.draw(st.integers(0, 3)) for _ in range(c.n))
        i = data.draw(st.integers(0, weighted_cover_number(c, a) + 1))
        expected = oracles.brute_packing_lp_value(c, a) >= i
        assert integral_closure_membership(c, a, i) == expected

    @pytest.mark.parametrize(
        "c, i, tau, lp_value",
        [
            (TRIANGLE, 2, 2, F(3, 2)),
            (C5, 3, 3, F(5, 2)),
            (TWO_TRIANGLES, 3, 4, F(3)),
        ],
        ids=["triangle", "C5", "two-triangles"],
    )
    def test_gap_cases_are_decided_by_the_lp(self, c, i, tau, lp_value):
        # nu < i <= tau at a = 1: neither integer bound decides, tau* does
        a = (1,) * c.n
        assert weighted_cover_number(c, a) == tau
        assert not packs(c, a, i)
        assert packs(c, a, i - 1)
        assert solve_lp_exact(c, a) == lp_value
        assert integral_closure_membership(c, a, i) == (lp_value >= i)

    def test_validation(self):
        with pytest.raises(ValueError):
            packs(TRIANGLE, (1, 1), 1)
        with pytest.raises(ValueError):
            packs(TRIANGLE, (1, -1, 1), 1)
