"""Independence complexes, reduced homology, and the Cohen-Macaulay check."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from clutterlab import cm
from clutterlab import (
    CorpusSpec,
    InstanceTooLargeError,
    SimplicialComplex,
    enumerate_clutters,
    graft,
    independence_complex,
    is_cohen_macaulay,
    make_clutter,
    minimal_vertex_covers,
    parse_clutter,
    reduced_homology,
)

TRIANGLE = parse_clutter("v: x1 x2 x3\ne: x1 x2\ne: x1 x3\ne: x2 x3\n")
C4 = parse_clutter("v: x1 x2 x3 x4\ne: x1 x2\ne: x2 x3\ne: x3 x4\ne: x1 x4\n")
C5 = parse_clutter(
    "v: x1 x2 x3 x4 x5\ne: x1 x2\ne: x2 x3\ne: x3 x4\ne: x4 x5\ne: x1 x5\n"
)
PATH3 = parse_clutter("v: x1 x2 x3\ne: x1 x2\ne: x2 x3\n")
K33 = parse_clutter(
    "v: a1 a2 a3 b1 b2 b3\n"
    + "".join(f"e: a{i} b{j}\n" for i in range(1, 4) for j in range(1, 4))
)

# ten triangles on six vertices, every pair in exactly two of them: the
# minimal triangulation of the real projective plane (Euler char 1)
RP2_FACETS = (
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 4),
    (0, 3, 5),
    (0, 4, 5),
    (1, 2, 5),
    (1, 3, 4),
    (1, 4, 5),
    (2, 3, 4),
    (2, 3, 5),
)
RP2 = SimplicialComplex(tuple(f"v{i}" for i in range(6)), RP2_FACETS)

# grafts of every 2-uniform class on at most 4 vertices and of the 3-uniform
# edge (4 to 9 vertices), small enough for the dense Reisner oracle
SMALL_GRAFTS = [
    graft(base)
    for n, d in ((4, 2), (3, 3))
    for base in enumerate_clutters(CorpusSpec(n, uniform_size=d, isomorph_reject=True))
]


def facet_masks(c):
    """Independence-complex facets as bitmasks, or None when the minimal
    covers have two sizes (the complex is not pure)."""
    covers = minimal_vertex_covers(c)
    if len({len(cover) for cover in covers}) > 1:
        return None
    everything = (1 << c.n) - 1
    return [everything & ~sum(1 << i for i in cover) for cover in covers]


def full_verdict(c, field):
    v = is_cohen_macaulay(c, field=field)
    return v.cohen_macaulay, v.unmixed_witness, v.link_witness


class TestSimplicialComplex:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimplicialComplex(("a",), ((1,),))  # index out of range
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b"), ((1, 0),))  # not increasing
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b"), ((0,), (0, 1)))  # comparable
        with pytest.raises(ValueError):
            SimplicialComplex(("a", "b"), ((1,), (0,)))  # not (size, lex) sorted

    def test_dimension(self):
        assert SimplicialComplex((), ()).dimension is None
        assert SimplicialComplex((), ((),)).dimension == -1
        assert RP2.dimension == 2

    def test_faces_and_has_face(self):
        sc = SimplicialComplex(("a", "b", "c"), ((0, 1), (0, 2)))
        assert list(sc.faces()) == [(), (0,), (1,), (2,), (0, 1), (0, 2)]
        assert sc.has_face((0, 1))
        assert sc.has_face(())
        assert not sc.has_face((1, 2))


class TestIndependenceComplex:
    def test_triangle(self):
        sc = independence_complex(TRIANGLE)
        assert sc.vertices == TRIANGLE.vertices
        assert sc.facets == ((0,), (1,), (2,))

    def test_c4_two_diagonals(self):
        sc = independence_complex(C4)
        assert sc.facets == ((0, 2), (1, 3))

    def test_c5_is_the_pentagon(self):
        sc = independence_complex(C5)
        assert len(sc.facets) == 5
        assert all(len(f) == 2 for f in sc.facets)

    def test_facets_are_cover_complements(self):
        from clutterlab import minimal_vertex_covers

        for c in (TRIANGLE, C4, C5, PATH3):
            sc = independence_complex(c)
            complements = sorted(
                (
                    tuple(i for i in range(c.n) if i not in set(cover))
                    for cover in minimal_vertex_covers(c)
                ),
                key=lambda f: (len(f), f),
            )
            assert list(sc.facets) == complements

    def test_guard(self):
        big = make_clutter(
            [f"v{i}" for i in range(18)],
            [[f"v{i}", f"v{i+1}"] for i in range(0, 18, 2)],
        )
        with pytest.raises(InstanceTooLargeError):
            independence_complex(big, max_vertices=17)


class TestReducedHomology:
    def test_two_points(self):
        sc = SimplicialComplex(("a", "b"), ((0,), (1,)))
        h = reduced_homology(sc)
        assert h.betti_number(0) == 1
        assert h.betti_number(-1) == 0

    def test_circle(self):
        sc = independence_complex(C5)
        h = reduced_homology(sc)
        assert h.betti_number(0) == 0
        assert h.betti_number(1) == 1

    def test_sphere(self):
        sc = SimplicialComplex(
            ("a", "b", "c", "d"),
            ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
        )
        h = reduced_homology(sc)
        assert (h.betti_number(0), h.betti_number(1), h.betti_number(2)) == (0, 0, 1)

    def test_irrelevant_complex(self):
        sc = SimplicialComplex((), ((),))
        h = reduced_homology(sc)
        assert h.betti_number(-1) == 1

    def test_simplex_is_acyclic(self):
        sc = SimplicialComplex(("a", "b", "c"), ((0, 1, 2),))
        h = reduced_homology(sc)
        assert all(h.betti_number(k) == 0 for k in range(-1, 3))

    def test_projective_plane_depends_on_the_field(self):
        hq = reduced_homology(RP2, field="Q")
        hf = reduced_homology(RP2, field="F2")
        assert (hq.betti_number(1), hq.betti_number(2)) == (0, 0)
        assert (hf.betti_number(1), hf.betti_number(2)) == (1, 1)

    def test_field_aliases(self):
        assert reduced_homology(RP2, field="gf2").betti == reduced_homology(
            RP2, field="F2"
        ).betti
        assert reduced_homology(RP2, field="rationals").betti == (
            reduced_homology(RP2, field="Q").betti
        )
        with pytest.raises(ValueError):
            reduced_homology(RP2, field="F3")

    @settings(max_examples=40, deadline=None)
    @given(strategies.clutters(max_n=5, max_q=5))
    def test_matches_dense_oracle(self, c):
        sc = independence_complex(c)
        for field in ("Q", "F2"):
            h = reduced_homology(sc, field=field)
            expected = oracles.brute_reduced_betti(sc.facets, field)
            for k in range(-1, (sc.dimension or 0) + 1):
                assert h.betti_number(k) == expected.get(k, 0), (field, k)

    @settings(max_examples=40, deadline=None)
    @given(strategies.clutters(max_n=5, max_q=5))
    def test_euler_characteristic(self, c):
        sc = independence_complex(c)
        chi = oracles.reduced_euler_characteristic(sc.facets)
        for field in ("Q", "F2"):
            h = reduced_homology(sc, field=field)
            alternating = sum(
                (-1) ** k * h.betti_number(k)
                for k in range(-1, (sc.dimension or 0) + 1)
                if k >= 0 or True
            )
            assert alternating == chi


class TestCohenMacaulay:
    def test_triangle(self):
        assert is_cohen_macaulay(TRIANGLE).cohen_macaulay

    def test_c4_fails_by_disconnection(self):
        verdict = is_cohen_macaulay(C4)
        assert not verdict.cohen_macaulay
        assert verdict.unmixed_witness is None
        face, dim, betti = verdict.link_witness
        assert (face, dim, betti) == ((), 0, 1)

    def test_c5_holds(self):
        assert is_cohen_macaulay(C5).cohen_macaulay

    def test_path_fails_unmixedness(self):
        verdict = is_cohen_macaulay(PATH3)
        assert not verdict.cohen_macaulay
        first, second = verdict.unmixed_witness
        assert {first, second} == {("x2",), ("x1", "x3")}

    def test_k33_fails(self):
        verdict = is_cohen_macaulay(K33)
        assert not verdict.cohen_macaulay
        assert verdict.link_witness == ((), 0, 1)

    def test_grafted_triangle_holds(self):
        assert is_cohen_macaulay(graft(TRIANGLE)).cohen_macaulay

    def test_field_parameter(self):
        assert is_cohen_macaulay(C5, field="f2").cohen_macaulay
        with pytest.raises(ValueError):
            is_cohen_macaulay(C5, field="F5")

    def test_guard(self):
        big = make_clutter(
            [f"v{i}" for i in range(18)],
            [[f"v{i}", f"v{i+1}"] for i in range(0, 18, 2)],
        )
        with pytest.raises(InstanceTooLargeError):
            is_cohen_macaulay(big)

    @settings(max_examples=100, deadline=None)
    @given(strategies.clutters(max_n=6, max_q=6))
    def test_matches_reisner_oracle(self, c):
        for field in ("Q", "F2"):
            v = is_cohen_macaulay(c, field=field)
            assert (
                v.cohen_macaulay, v.unmixed_witness, v.link_witness
            ) == oracles.brute_cm_verdict(c, field), field

    def test_projective_plane_clutter_depends_on_the_field(self):
        # the ten triples that are not facets of RP2 are its minimal
        # non-faces, so the independence complex of their clutter is RP2:
        # acyclic over Q but with a GF(2) 1-cycle at the empty face
        labels = [f"v{i}" for i in range(6)]
        non_faces = [
            [labels[i] for i in t]
            for t in combinations(range(6), 3)
            if t not in RP2_FACETS
        ]
        c = make_clutter(labels, non_faces)
        assert independence_complex(c).facets == RP2_FACETS
        # not CM over GF(2), so not vertex decomposable: the scan decides both
        assert not cm._vertex_decomposable(facet_masks(c))
        assert is_cohen_macaulay(c, field="Q").cohen_macaulay
        verdict = is_cohen_macaulay(c, field="F2")
        assert not verdict.cohen_macaulay
        assert verdict.link_witness == ((), 1, 1)

    def test_witness_face_is_lex_first(self):
        # the links of {x2, x8} and {x5, x7} are both disconnected; (size,
        # lex) order reaches {x2, x8} first, bitmask order {x5, x7}
        c = parse_clutter(
            "v: x1 x2 x3 x4 x5 x6 x7 x8\n"
            "e: x1 x4\ne: x1 x5\ne: x1 x6\ne: x1 x7\ne: x2 x4\ne: x2 x6\n"
            "e: x3 x4\ne: x3 x5\ne: x3 x6\ne: x3 x7\ne: x4 x8\ne: x6 x8\n"
        )
        for field in ("Q", "F2"):
            verdict = is_cohen_macaulay(c, field=field)
            assert verdict.link_witness == (("x2", "x8"), 0, 1)

    def test_grafts_of_small_3_uniform_classes_hold(self):
        bases = list(
            enumerate_clutters(CorpusSpec(4, uniform_size=3, isomorph_reject=True))
        )
        assert len(bases) == 4
        for base in bases:
            assert is_cohen_macaulay(graft(base), field="Q").cohen_macaulay


class TestVertexDecomposition:
    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(
            strategies.clutters(max_n=6, max_q=6),
            strategies.pure_complex_clutters(max_n=6),
        )
    )
    def test_certificate_implies_cm_over_both_fields(self, c):
        facets = facet_masks(c)
        if facets is not None and cm._vertex_decomposable(facets):
            for field in ("Q", "F2"):
                assert oracles.brute_cm_verdict(c, field) == (True, None, None)

    @pytest.mark.parametrize("g", SMALL_GRAFTS, ids=lambda g: f"{g.n}v{len(g.edges)}e")
    def test_small_grafts_are_certified_and_cm(self, g):
        assert cm._vertex_decomposable(facet_masks(g))
        for field in ("Q", "F2"):
            assert oracles.brute_cm_verdict(g, field) == (True, None, None)

    def test_spent_budget_falls_back_to_reisner(self, monkeypatch):
        # C4 and K33 are pure but not CM, and the 8-vertex clutter has a
        # witness past the empty face; the rest are CM
        cases = [TRIANGLE, C4, C5, K33, graft(TRIANGLE), graft(C4)] + SMALL_GRAFTS[:4]
        cases.append(
            parse_clutter(
                "v: x1 x2 x3 x4 x5 x6 x7 x8\n"
                "e: x1 x4\ne: x1 x5\ne: x1 x6\ne: x1 x7\ne: x2 x4\ne: x2 x6\n"
                "e: x3 x4\ne: x3 x5\ne: x3 x6\ne: x3 x7\ne: x4 x8\ne: x6 x8\n"
            )
        )
        fields = ("Q", "F2")
        expected = [full_verdict(c, field) for c in cases for field in fields]
        assert sum(not verdict[0] for verdict in expected) == 6
        monkeypatch.setattr(cm, "_VD_BUDGET", 1)
        assert not cm._vertex_decomposable(facet_masks(graft(C4)))
        assert [full_verdict(c, field) for c in cases for field in fields] == expected
