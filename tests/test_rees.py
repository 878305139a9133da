"""Rees cones, Hilbert bases, normality, and bounded power membership."""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from clutterlab import (
    CorpusSpec,
    InstanceTooLargeError,
    VerifyBounds,
    adjoin_whisker_edge,
    enumerate_clutters,
    graft,
    hilbert_basis,
    integral_closure_membership,
    is_ideal_clutter,
    is_normal,
    is_ntf_bounded,
    make_clutter,
    mfmc_bounded,
    monomial_string,
    packs,
    parallelization,
    parse_clutter,
    power_membership,
    rees_cone,
    serialize_clutter,
    solve_lp_exact,
    symbolic_power_membership,
)
from clutterlab import rees
from clutterlab.core import _earlier_twins
from clutterlab.polyhedra import _q_vertex_rays
from clutterlab.rees import _normality, _ntf_certificate

TRIANGLE = parse_clutter("v: x1 x2 x3\ne: x1 x2\ne: x1 x3\ne: x2 x3\n")
C4 = parse_clutter("v: x1 x2 x3 x4\ne: x1 x2\ne: x2 x3\ne: x3 x4\ne: x1 x4\n")
TWO_TRIANGLES = parse_clutter(
    "v: x1 x2 x3 x4 x5 x6\n"
    "e: x1 x2\ne: x1 x3\ne: x2 x3\n"
    "e: x4 x5\ne: x4 x6\ne: x5 x6\n"
)
SINGLE = make_clutter(["x1", "x2"], [["x1", "x2"]])
PATH3 = parse_clutter("v: x1 x2 x3\ne: x1 x2\ne: x2 x3\n")
TRIANGLE_AND_POINT = parse_clutter(
    "v: x1 x2 x3 x4\ne: x1\ne: x2 x3\ne: x2 x4\ne: x3 x4\n"
)
C5 = parse_clutter(
    "v: x1 x2 x3 x4 x5\ne: x1 x2\ne: x2 x3\ne: x3 x4\ne: x4 x5\ne: x1 x5\n"
)
K4 = parse_clutter(
    "v: x1 x2 x3 x4\ne: x1 x2\ne: x1 x3\ne: x1 x4\ne: x2 x3\ne: x2 x4\ne: x3 x4\n"
)
# the four triangles of K4, on its six edges as vertices
Q6 = parse_clutter(
    "v: x12 x13 x14 x23 x24 x34\n"
    "e: x12 x13 x23\ne: x12 x14 x24\ne: x13 x14 x34\ne: x23 x24 x34\n"
)


def relabelled(c, prefix="y"):
    """The same edge structure under fresh vertex labels."""
    labels = [f"{prefix}{i}" for i in range(c.n)]
    return make_clutter(labels, [[labels[i] for i in e] for e in c.edges])


class TestReesCone:
    def test_generators_edges_then_units(self):
        cone = rees_cone(TRIANGLE)
        assert cone.dim == 4
        assert cone.generators[:3] == (
            (1, 1, 0, 1),
            (1, 0, 1, 1),
            (0, 1, 1, 1),
        )
        assert cone.generators[3:] == (
            (1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
        )

    def test_contains(self):
        contains = oracles.brute_rees_cone_membership(TRIANGLE)
        assert contains((1, 1, 0, 1))
        assert contains((2, 1, 1, 2))
        assert not contains((0, 0, 0, 1))
        assert not contains((-1, 0, 0, 0))
        assert not contains((1, 1, 1, 2))


class TestHilbertBasis:
    def test_single_edge(self):
        hb = hilbert_basis(rees_cone(SINGLE))
        assert set(hb.elements) == {(1, 0, 0), (0, 1, 0), (1, 1, 1)}

    def test_two_disjoint_edges(self):
        c = make_clutter(
            ["x1", "x2", "x3", "x4"], [["x1", "x2"], ["x3", "x4"]]
        )
        hb = hilbert_basis(rees_cone(c))
        assert len(hb.elements) == 6

    def test_triangle_needs_no_extra_element(self):
        hb = hilbert_basis(rees_cone(TRIANGLE))
        assert set(hb.elements) == set(rees_cone(TRIANGLE).generators)

    def test_two_triangles_need_the_deep_element(self):
        hb = hilbert_basis(rees_cone(TWO_TRIANGLES), max_edges=12)
        extra = set(hb.elements) - set(rees_cone(TWO_TRIANGLES).generators)
        assert extra == {(1, 1, 1, 1, 1, 1, 3)}

    def test_facets_are_coordinates_and_covering_polyhedron_vertices(self):
        # measured, not cited: on every clutter checked, the outward facet
        # normals of the Rees cone are the coordinate facets -e_k (those
        # whose hyperplane holds D - 1 independent generators) and one
        # (-x, t) per vertex ray (x, t) of Q(A)
        for spec in (
            CorpusSpec(4),
            CorpusSpec(5, isomorph_reject=True),
            CorpusSpec(5, uniform_size=3, isomorph_reject=True),
        ):
            for c in enumerate_clutters(spec):
                if not c.edges:
                    continue
                cone = rees_cone(c)
                D = cone.dim
                normals, _ = rees._candidates(D, rees._supports(cone.generators))
                coordinates = {
                    tuple(-int(j == k) for j in range(D))
                    for k in range(D)
                    if oracles._rank_dense_q(
                        [g for g in cone.generators if not g[k]]
                    ) == D - 1
                }
                vertices = {
                    tuple(-x for x in r[:-1]) + r[-1:]
                    for r in _q_vertex_rays(c.n, c.edges)
                }
                assert len(normals) == len(set(normals))
                assert set(normals) == coordinates | vertices

    def test_every_element_in_cone(self):
        for c in (SINGLE, TRIANGLE, C4):
            contains = oracles.brute_rees_cone_membership(c)
            for el in hilbert_basis(rees_cone(c)).elements:
                assert contains(el)

    def test_size_guards(self):
        big = make_clutter(
            [f"v{i}" for i in range(9)],
            [[f"v{i}", f"v{i+1}"] for i in range(0, 8, 2)] + [["v8", "v0"]],
        )
        with pytest.raises(InstanceTooLargeError):
            hilbert_basis(rees_cone(big), max_vertices=8)
        with pytest.raises(InstanceTooLargeError):
            hilbert_basis(rees_cone(TWO_TRIANGLES), max_edges=5)

    @settings(max_examples=25, deadline=None)
    @given(strategies.clutters(max_n=3, max_q=3))
    def test_matches_box_oracle(self, c):
        cone = rees_cone(c)
        hb = hilbert_basis(cone)
        box = 4
        assert all(max(el) <= box for el in hb.elements)
        expected = oracles.brute_hilbert_basis(
            cone.dim, oracles.brute_rees_cone_membership(c), box
        )
        assert sorted(hb.elements, key=lambda p: (sum(p), p)) == expected

    @pytest.mark.parametrize(
        "c",
        [
            parallelization(PATH3, (1, 2, 1)),
            parallelization(TRIANGLE, (2, 1, 1)),
            adjoin_whisker_edge(SINGLE, "x1", 2),
            adjoin_whisker_edge(TRIANGLE, "x1", 1),
        ],
        ids=["path-parallel", "triangle-parallel", "edge-whisker", "triangle-whisker"],
    )
    def test_derived_cones_match_box_oracle(self, c):
        cone = rees_cone(c)
        assert cone.dim <= 5
        hb = hilbert_basis(cone)
        box = 3
        assert all(max(el) <= box for el in hb.elements)
        expected = oracles.brute_hilbert_basis(
            cone.dim, oracles.brute_rees_cone_membership(c), box
        )
        assert sorted(hb.elements, key=lambda p: (sum(p), p)) == expected

    @pytest.mark.parametrize(
        "c",
        [
            TWO_TRIANGLES,
            parse_clutter(
                "v: x1 x2 x3 x4\ne: x1 x2\ne: x1 x3\ne: x1 x4\ne: x2 x3 x4\n"
            ),
            parallelization(TRIANGLE_AND_POINT, (2, 1, 1, 1)),
        ],
        ids=["two-triangles", "star-and-triangle", "triangle-and-parallel-point"],
    )
    def test_carried_volumes_match_box_oracle(self, c, monkeypatch):
        # the placing triangulations of these cones have simplices of volume
        # > 1 (those of triangle and C5 parallelizations have none): each
        # one's determinant is checked against the volume carried through
        # the triangulation, which raises RuntimeError on a mismatch
        parallelepiped_calls = []
        original = rees._parallelepiped_points

        def counted(rays, volume):
            parallelepiped_calls.append(rays)
            return original(rays, volume)

        monkeypatch.setattr(rees, "_parallelepiped_points", counted)
        cone = rees_cone(c)
        hb = hilbert_basis(cone, max_edges=c.q)
        assert parallelepiped_calls
        box = 3
        assert all(max(el) <= box for el in hb.elements)
        expected = oracles.brute_hilbert_basis(
            cone.dim, oracles.brute_rees_cone_membership(c), box
        )
        assert sorted(hb.elements, key=lambda p: (sum(p), p)) == expected

    @pytest.mark.parametrize(
        "c",
        [
            TWO_TRIANGLES,
            parse_clutter(
                "v: x1 x2 x3 x4\ne: x1 x2\ne: x1 x3\ne: x1 x4\ne: x2 x3 x4\n"
            ),
            parallelization(TRIANGLE_AND_POINT, (2, 1, 1, 1)),
            Q6,
        ],
        ids=["two-triangles", "star-and-triangle", "triangle-and-parallel-point", "q6"],
    )
    def test_parallelepiped_points_match_box_oracle(self, c, monkeypatch):
        # every simplex of volume > 1 in the placing triangulation, against
        # a walk over {0..V-1}^D that uses no elimination
        simplices = []
        original = rees._parallelepiped_points

        def recorded(rays, volume):
            simplices.append((rays, volume))
            return original(rays, volume)

        monkeypatch.setattr(rees, "_parallelepiped_points", recorded)
        cone = rees_cone(c)
        rees._candidates(cone.dim, rees._supports(cone.generators))
        assert simplices
        for rays, volume in simplices:
            points = original(rays, volume)
            assert len(points) == volume - 1
            assert set(points) == oracles.brute_parallelepiped_points(rays, volume)

    @pytest.mark.parametrize(
        "rays",
        [[(2, 0), (0, 2)], [(2, 0), (0, 4)], [(1, 2), (3, 1)]],
        ids=["Z2xZ2", "Z2xZ4", "negative-det"],
    )
    def test_parallelepiped_points_of_hand_made_rays(self, rays):
        # Z^2 / (2Z)^2 is (Z/2)^2, not cyclic, so a closure over the first
        # generator alone stops at half of it, and Z/2 x Z/4 also needs every
        # multiple of a generator of order 4; the Rees cones above only meet
        # volume 2.  The last rays have determinant -5
        volume = abs(rays[0][0] * rays[1][1] - rays[0][1] * rays[1][0])
        points = rees._parallelepiped_points(rays, volume)
        assert len(points) == volume - 1
        assert set(points) == oracles.brute_parallelepiped_points(rays, volume)
        with pytest.raises(RuntimeError, match="carried simplex volume"):
            rees._parallelepiped_points(rays, volume + 1)

    def test_cache_is_bounded(self):
        # verdicts are memoized, keyed on the edge structure.  A `verify`
        # round over CorpusSpec(4, uniform_size=2) and the 5-vertex 2-uniform
        # classes meets 941 distinct structures in its normality checks and
        # 351 in its NTF scans; the bound keeps them all while capping memory
        # on longer scans
        assert _normality.cache_info().maxsize == 1024
        assert _ntf_certificate.cache_info().maxsize == 1024


class TestPowerMembership:
    def test_power_zero_always_member(self):
        assert power_membership(TRIANGLE, (0, 0, 0), 0)

    def test_triangle_examples(self):
        assert power_membership(TRIANGLE, (1, 1, 0), 1)
        assert not power_membership(TRIANGLE, (1, 1, 1), 2)
        assert power_membership(TRIANGLE, (0, 2, 2), 2)
        assert power_membership(TRIANGLE, (2, 1, 1), 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            power_membership(TRIANGLE, (1, 1), 1)
        with pytest.raises(ValueError):
            power_membership(TRIANGLE, (1, -1, 0), 1)
        with pytest.raises(ValueError):
            power_membership(TRIANGLE, (1, 1, 1), -1)

    @pytest.mark.parametrize("count", [1.5, "2"], ids=["float", "string"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda k: power_membership(TRIANGLE, (1, 1, 1), k),
            lambda k: integral_closure_membership(TRIANGLE, (1, 1, 1), k),
            lambda k: symbolic_power_membership(TRIANGLE, (1, 1, 1), k),
            lambda k: is_ntf_bounded(TRIANGLE, k),
            lambda k: mfmc_bounded(TRIANGLE, max_weight=k),
            lambda k: packs(TRIANGLE, (1, 1, 1), k),
        ],
        ids=["power", "closure", "symbolic", "ntf", "mfmc", "packs"],
    )
    def test_non_integer_counts_refused(self, call, count):
        # as with vectors, int() would truncate 1.5 and parse "2" into a
        # count that passes silently
        with pytest.raises(ValueError, match="must be an integer"):
            call(count)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: adjoin_whisker_edge(TRIANGLE, "x1", 1.5), "must be an integer"),
            (lambda: adjoin_whisker_edge(TRIANGLE, "x1", "2"), "must be an integer"),
            (lambda: graft(TRIANGLE, d="2"), "must be an integer"),
            (lambda: CorpusSpec(4.5), "must be an integer"),
            (lambda: CorpusSpec(4, uniform_size=2.5), "must be an integer"),
            (lambda: CorpusSpec(4, max_edges="3"), "must be an integer"),
            (lambda: monomial_string(TRIANGLE, (1, 1, 0), 1.5), "must be an integer"),
            (lambda: mfmc_bounded(TRIANGLE, 2, max_boxes=1.5), "must be an integer"),
            (lambda: is_ntf_bounded(TRIANGLE, 2, max_boxes="x"), "must be an integer"),
            (lambda: VerifyBounds(parallel_weight=-1), "must be non-negative"),
            (lambda: VerifyBounds(parallel_weight=1.5), "must be an integer"),
        ],
        ids=[
            "whisker-float", "whisker-string", "graft-d", "corpus-vertices",
            "corpus-uniform-size", "corpus-edges", "monomial-degree",
            "mfmc-boxes", "ntf-boxes", "negative-parallel-weight",
            "float-parallel-weight",
        ],
    )
    def test_other_counts_refused(self, call, message):
        # sizes, lengths and degrees are counts too, refused as above; a
        # negative parallel weight would sweep no parallelization at all
        with pytest.raises(ValueError, match=message):
            call()

    def test_closure_examples(self):
        assert integral_closure_membership(TRIANGLE, (1, 1, 1), 1)
        assert not integral_closure_membership(TRIANGLE, (1, 1, 1), 2)
        assert integral_closure_membership(TRIANGLE, (2, 2, 2), 3)

    def test_symbolic_examples(self):
        # symbolic membership needs every minimal cover to carry weight i
        assert symbolic_power_membership(TRIANGLE, (1, 1, 1), 2)
        assert not symbolic_power_membership(SINGLE, (1, 0), 1)
        assert symbolic_power_membership(SINGLE, (1, 1), 1)

    @settings(max_examples=60, deadline=None)
    @given(
        strategies.clutters(max_n=4, max_q=4),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    def test_against_oracles(self, c, seed, power):
        import random

        rng = random.Random(seed)
        a = tuple(rng.randint(0, 3) for _ in range(c.n))
        assert power_membership(c, a, power) == oracles.brute_power_membership(
            c, a, power
        )
        assert symbolic_power_membership(
            c, a, power
        ) == oracles.brute_symbolic_membership(c, a, power)
        assert integral_closure_membership(
            c, a, power
        ) == oracles.brute_closure_membership(c, a, power)
        assert solve_lp_exact(c, a) == oracles.brute_packing_lp_value(c, a)

    @settings(max_examples=60, deadline=None)
    @given(
        strategies.clutters(max_n=4, max_q=4),
        st.integers(min_value=0, max_value=3),
    )
    def test_containment_chain(self, c, power):
        # I^i is inside its integral closure, which is inside the symbolic power
        for a in [
            (1,) * c.n,
            (2,) * c.n,
            tuple((i + power) % 3 for i in range(c.n)),
        ]:
            if power_membership(c, a, power):
                assert integral_closure_membership(c, a, power)
            if integral_closure_membership(c, a, power):
                assert symbolic_power_membership(c, a, power)


class TestNormality:
    def test_triangle_normal(self):
        assert is_normal(TRIANGLE).normal

    def test_c4_normal(self):
        assert is_normal(C4).normal

    def test_two_triangles_not_normal(self):
        verdict = is_normal(TWO_TRIANGLES, max_edges=12)
        assert not verdict.normal
        assert verdict.witness == ((1, 1, 1, 1, 1, 1), 3)

    def test_witness_fails_membership(self):
        verdict = is_normal(TWO_TRIANGLES, max_edges=12)
        a, b = verdict.witness
        assert not power_membership(TWO_TRIANGLES, a, b)
        assert oracles.brute_rees_cone_membership(TWO_TRIANGLES)(a + (b,))

    def test_bounded_normality(self):
        res = oracles.is_normal_bounded(TRIANGLE, 3)
        assert res.certified
        assert res.bound == 3
        res = oracles.is_normal_bounded(TWO_TRIANGLES, 3)
        assert not res.certified
        assert res.witness == ((1, 1, 1, 1, 1, 1), 3)

    @staticmethod
    def first_failing_basis_element(c):
        """The first Hilbert-basis element (a, b), in basis order, with x^a
        outside I^b, by the sieved basis and the multiset oracle."""
        cone = rees_cone(c)
        for element in hilbert_basis(cone, max_vertices=c.n, max_edges=c.q).elements:
            a, b = element[: c.n], element[c.n]
            if not oracles.brute_power_membership(c, a, b):
                return a, b
        return None

    @settings(max_examples=40, deadline=None)
    @given(strategies.clutters())
    @example(TWO_TRIANGLES)
    @example(Q6)
    def test_first_failing_candidate_is_first_failing_basis_element(self, c):
        # normality scans the parallelepiped candidates with no sieve; the
        # witness must be the one the Hilbert basis gives
        _normality.cache_clear()
        verdict = is_normal(c, max_vertices=c.n, max_edges=c.q)
        assert verdict.witness == self.first_failing_basis_element(c)
        assert verdict.normal == (verdict.witness is None)

    @pytest.mark.parametrize(
        "w", [w for w in product((1, 2), repeat=6) if sum(w) <= 9]
    )
    def test_q6_parallelizations_fail_at_the_first_basis_element(self, w):
        # {1,2}^6 weights with at most three 2s, up to 9 vertices and 13 edges
        c = parallelization(Q6, w)
        _normality.cache_clear()
        verdict = is_normal(c, max_vertices=c.n, max_edges=c.q)
        assert not verdict.normal
        assert verdict.witness == self.first_failing_basis_element(c)

    def test_q6_not_normal(self):
        _normality.cache_clear()
        assert is_normal(Q6).witness == ((1, 1, 1, 1, 1, 1), 2)

    def test_bounded_ntf(self):
        _ntf_certificate.cache_clear()
        # (1, 1, 1) is a member only once its last coordinate is set, at the
        # member value of a_2: a walk whose largest completion leaves out the
        # last coordinate, or that stops raising a_j before recursing on its
        # member value, certifies the triangle
        res = is_ntf_bounded(TRIANGLE, 2)
        assert not res.certified
        assert res.witness == ((1, 1, 1), 2)
        assert is_ntf_bounded(C4, 2).certified
        assert is_ntf_bounded(SINGLE, 3).certified
        # a_0 < a_1 for the twins 0, 1 here, so a walk with the twin
        # inequality reversed finds (1, 0, 1, 1, 1, 1) instead
        res = is_ntf_bounded(parallelization(C5, (2, 1, 1, 1, 1)), 3)
        assert res.witness == ((0, 1, 1, 1, 1, 1), 3)

    def test_twins(self):
        # each copy is a twin of its original; the 5-cycle has no twins, and
        # every vertex of K4 is a twin of every other
        assert _earlier_twins(C5.n, C5.edges) == [-1] * 5
        assert _earlier_twins(K4.n, K4.edges) == [-1, 0, 1, 2]
        c = parallelization(C5, (2, 1, 3, 1, 1))
        assert _earlier_twins(c.n, c.edges) == [-1, 0, -1, -1, 3, 4, -1, -1]

    def test_box_guard(self):
        with pytest.raises(InstanceTooLargeError):
            is_ntf_bounded(TWO_TRIANGLES, 9, max_boxes=100)

    def test_relabelled_copy_gets_the_same_verdicts(self):
        copy = relabelled(TWO_TRIANGLES)
        assert copy != TWO_TRIANGLES
        assert is_normal(copy, max_edges=12) == is_normal(
            TWO_TRIANGLES, max_edges=12
        )
        assert is_ntf_bounded(copy, 2) == is_ntf_bounded(TWO_TRIANGLES, 2)
        hits = _normality.cache_info().hits
        assert is_normal(relabelled(TWO_TRIANGLES, "z"), max_edges=12).witness == (
            (1, 1, 1, 1, 1, 1),
            3,
        )
        assert _normality.cache_info().hits == hits + 1

    def test_guards_hold_after_a_memo_hit(self):
        c = TWO_TRIANGLES
        is_normal(c, max_edges=c.q)
        is_ntf_bounded(c, 2)
        with pytest.raises(InstanceTooLargeError):
            is_normal(c, max_vertices=c.n - 1, max_edges=c.q)
        with pytest.raises(InstanceTooLargeError):
            is_normal(c, max_edges=c.q - 1)
        with pytest.raises(InstanceTooLargeError):
            is_ntf_bounded(c, 2, max_boxes=3**c.n - 1)
        with pytest.raises(ValueError):
            is_ntf_bounded(c, 0)

    @settings(max_examples=30, deadline=None)
    @given(strategies.clutters(max_n=5), st.integers(min_value=1, max_value=2))
    @example(make_clutter([], []), 2)
    @example(make_clutter(["x1"], [["x1"]]), 2)
    @example(make_clutter(["x1", "x2", "x3"], [["x1"], ["x2", "x3"]]), 2)
    # NTF witnesses on twin lower bounds: ((1, 1, 1), 2) has a_2 at its
    # lower bound a_1, and ((0, 1, 1, 1, 1, 1), 3) has a_0 < a_1 for the
    # twins 0, 1, which a walk with the twin inequality reversed skips
    @example(TRIANGLE, 2)
    @example(parallelization(C5, (2, 1, 1, 1, 1)), 3)
    # Q(A) has fractional vertices, so closure rows with t = 2, and x_j = 2
    # on the last one.  On these boxes of 4^6 and 4^7 points each NTF
    # witness has a_i < a_j for twins i < j, and is a member only once its
    # last coordinate is set: a largest completion that leaves that
    # coordinate out, or a stop before recursing on a member value, skips it
    @example(parallelization(TRIANGLE, (4, 1, 1)), 3)
    @example(parallelization(C5, (2, 1, 2, 1, 1)), 3)
    @example(parallelization(TRIANGLE_AND_POINT, (3, 2, 1, 1)), 3)
    # a Q(A) vertex row with <1, x> = 5 and t = 1: a slack field only as
    # wide as i t would overflow into its neighbour
    @example(
        parse_clutter(
            "v: x0 x1 x2 x3 x4 x5 x6\n"
            "e: x0 x1\ne: x0 x2\ne: x0 x4\ne: x0 x5\ne: x0 x6\ne: x1 x3\ne: x2 x3\n"
        ),
        1,
    )
    def test_bounded_scans_match_brute_scan(self, c, bound):
        # same verdict and the same lex-first witness as the per-point scan;
        # the closure of I^i is the degree-i slice of the Rees cone.  The
        # NTF memo is cleared so that the scan itself runs
        _ntf_certificate.cache_clear()
        contains = oracles.brute_rees_cone_membership(c)
        for scan, member in (
            (is_ntf_bounded, oracles.brute_symbolic_membership),
            (oracles.is_normal_bounded, lambda c, a, i: contains(a + (i,))),
        ):
            res = scan(c, bound)
            assert (res.certified, res.bound, res.witness) == oracles.brute_power_scan(
                c, bound, member
            )

    @pytest.mark.parametrize(
        "spec",
        [CorpusSpec(4), CorpusSpec(5, uniform_size=2, isomorph_reject=True)],
        ids=["antichains-4", "graph-classes-5"],
    )
    def test_bounded_closure_implications(self, spec):
        # one-way theorems at k = 2.  Symbolic powers of a square-free
        # monomial ideal are integrally closed, so I^i = I^(i) forces
        # I^i = closure(I^i); integral Q(A) gives I^(i) = closure(I^i)
        _ntf_certificate.cache_clear()
        _normality.cache_clear()
        for c in enumerate_clutters(spec):
            ntf = is_ntf_bounded(c, 2).certified
            normal_k = oracles.is_normal_bounded(c, 2).certified
            text = serialize_clutter(c)
            assert not ntf or normal_k, text
            assert not (is_ideal_clutter(c).ideal and normal_k) or ntf, text
            assert not is_normal(c).normal or normal_k, text

    @settings(max_examples=20, deadline=None)
    @given(strategies.uniform_clutters(max_n=4, size=2, max_q=4))
    def test_small_graphs_are_normal(self, c):
        # every graph on at most four vertices has a normal edge ideal;
        # the first counterexample needs two vertex-disjoint odd cycles
        assert is_normal(c).normal


class TestMonomialString:
    def test_plain(self):
        assert monomial_string(TRIANGLE, (2, 0, 1)) == "x1^2*x3"

    def test_with_rees_degree(self):
        assert monomial_string(TRIANGLE, (1, 1, 0), 2) == "x1*x2 t^2"

    def test_unit(self):
        assert monomial_string(TRIANGLE, (0, 0, 0)) == "1"
