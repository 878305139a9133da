"""Covers, matchings, Konig, weighted covers, and the packing property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from clutterlab import covering
from clutterlab import (
    CorpusSpec,
    covering_number,
    enumerate_clutters,
    graft,
    has_konig,
    has_packing_property,
    make_clutter,
    matching_number,
    minimal_vertex_covers,
    minor,
    parallelization,
    parse_clutter,
    weighted_cover_number,
)

TRIANGLE = parse_clutter("v: x1 x2 x3\ne: x1 x2\ne: x1 x3\ne: x2 x3\n")
C4 = parse_clutter("v: x1 x2 x3 x4\ne: x1 x2\ne: x2 x3\ne: x3 x4\ne: x1 x4\n")
C5 = parse_clutter(
    "v: x1 x2 x3 x4 x5\ne: x1 x2\ne: x2 x3\ne: x3 x4\ne: x4 x5\ne: x1 x5\n"
)
K33 = parse_clutter(
    "v: a1 a2 a3 b1 b2 b3\n"
    + "".join(f"e: a{i} b{j}\n" for i in range(1, 4) for j in range(1, 4))
)


# grafts of every 2- and 3-uniform class on at most 4 vertices (4 to 12
# vertices), packing and not
SMALL_GRAFTS = [
    graft(base)
    for d in (2, 3)
    for base in enumerate_clutters(CorpusSpec(4, uniform_size=d, isomorph_reject=True))
]


def labeled_covers(c):
    return [tuple(c.vertices[i] for i in cover) for cover in minimal_vertex_covers(c)]


class TestCovers:
    def test_triangle(self):
        assert labeled_covers(TRIANGLE) == [
            ("x1", "x2"),
            ("x1", "x3"),
            ("x2", "x3"),
        ]
        assert covering_number(TRIANGLE) == 2
        assert matching_number(TRIANGLE) == 1
        assert not has_konig(TRIANGLE)

    def test_c4(self):
        assert covering_number(C4) == 2
        assert matching_number(C4) == 2
        assert has_konig(C4)

    def test_c5(self):
        assert covering_number(C5) == 3
        assert matching_number(C5) == 2
        assert not has_konig(C5)

    def test_k33(self):
        assert covering_number(K33) == 3
        assert matching_number(K33) == 3
        assert has_konig(K33)

    def test_single_edge(self):
        c = make_clutter(["a", "b"], [["a", "b"]])
        assert labeled_covers(c) == [("a",), ("b",)]
        assert covering_number(c) == 1

    def test_cover_order_is_size_then_lex(self):
        c = parse_clutter("v: a b c\ne: a b\ne: a c\n")
        assert labeled_covers(c) == [("a",), ("b", "c")]

    @settings(max_examples=80, deadline=None)
    @given(strategies.clutters(max_n=5, max_q=5))
    def test_covers_match_oracle(self, c):
        assert labeled_covers(c) == oracles.brute_minimal_covers(c)

    @settings(max_examples=80, deadline=None)
    @given(strategies.clutters(max_n=5, max_q=5))
    def test_numbers_match_oracle(self, c):
        assert covering_number(c) == oracles.brute_covering_number(c)
        assert matching_number(c) == oracles.brute_matching_number(c)

    @settings(max_examples=40, deadline=None)
    @given(strategies.clutters(max_n=5, max_q=5))
    def test_every_cover_covers_and_is_minimal(self, c):
        for cover in minimal_vertex_covers(c):
            s = set(cover)
            assert all(s & set(e) for e in c.edges)
            for v in cover:
                smaller = s - {v}
                assert not all(smaller & set(e) for e in c.edges)


class TestWeightedCover:
    def test_k33_route(self):
        single = make_clutter(["x1", "x2"], [["x1", "x2"]])
        assert weighted_cover_number(single, (3, 3)) == 3

    def test_zero_weight_is_free(self):
        assert weighted_cover_number(TRIANGLE, (0, 1, 1)) == 1

    def test_non_integer_weights_refused(self):
        # int() would truncate these to weights that pass silently
        for call in (
            lambda: covering.packs(TRIANGLE, (1.9, 1, 1), 1),
            lambda: weighted_cover_number(TRIANGLE, (0.5,) * 3),
            lambda: parallelization(TRIANGLE, (1.5, 1, 1)),
            lambda: covering.packs(TRIANGLE, ("1", 1, 1), 1),
        ):
            with pytest.raises(ValueError, match="sequence of integers"):
                call()
        assert covering.packs(TRIANGLE, (True, 1, 0), 1)

    @settings(max_examples=50, deadline=None)
    @given(strategies.clutters(max_n=4, max_q=4))
    def test_equals_alpha_of_parallelization(self, c):
        for w in [(1,) * c.n, (2,) * c.n, tuple((i % 3) for i in range(c.n))]:
            direct = weighted_cover_number(c, w)
            assert direct == covering_number(parallelization(c, w))
            assert direct == oracles.brute_weighted_cover(c, w)


class TestPackingProperty:
    def test_triangle_fails_at_itself(self):
        verdict = has_packing_property(TRIANGLE)
        assert not verdict.holds
        w = verdict.witness
        assert (w.deleted, w.contracted) == ((), ())
        assert (w.alpha0, w.beta1) == (2, 1)

    def test_c4_holds(self):
        assert has_packing_property(C4).holds

    def test_c5_fails_on_a_minor(self):
        verdict = has_packing_property(C5)
        assert not verdict.holds
        # contracting one vertex of the 5-cycle leaves a triangle
        w = verdict.witness
        failing = minor(C5, deleted=w.deleted, contracted=w.contracted)
        assert covering_number(failing) == w.alpha0
        assert matching_number(failing) == w.beta1
        assert w.alpha0 != w.beta1

    def test_witness_is_lex_first(self):
        # C5 fails Konig on the nose (alpha = 3, beta = 2), so the very
        # first assignment in {keep,delete,contract}^n order is the witness
        w = has_packing_property(C5).witness
        assert (w.deleted, w.contracted) == ((), ())
        assert (w.alpha0, w.beta1) == (3, 2)

    def test_witness_is_lex_first_nontrivial(self):
        # C7 is Konig (alpha = 4... no: alpha0(C7) = 4, beta1 = 3) — use a
        # graph that is Konig itself but has a non-Konig minor: the 5-cycle
        # with a pendant edge attached is beta1 = 3, alpha0 = 3, yet
        # deleting the pendant leaves C5
        c = parse_clutter(
            "v: x1 x2 x3 x4 x5 x6\n"
            "e: x1 x2\ne: x2 x3\ne: x3 x4\ne: x4 x5\ne: x1 x5\ne: x1 x6\n"
        )
        assert has_konig(c)
        w = has_packing_property(c).witness
        failing = minor(c, deleted=w.deleted, contracted=w.contracted)
        assert covering_number(failing) != matching_number(failing)

    @settings(max_examples=60, deadline=None)
    @given(strategies.clutters(max_n=4, max_q=5))
    def test_matches_first_principles(self, c):
        assert has_packing_property(c).holds == oracles.brute_packing_property(c)

    @settings(max_examples=30, deadline=None)
    @given(strategies.clutters(max_n=4, max_q=4))
    def test_witness_checks_out(self, c):
        verdict = has_packing_property(c)
        if verdict.holds:
            return
        w = verdict.witness
        failing = minor(c, deleted=w.deleted, contracted=w.contracted)
        assert covering_number(failing) == w.alpha0
        assert matching_number(failing) == w.beta1
        assert w.alpha0 != w.beta1

    def test_witness_keeps_before_deleting(self):
        # the triangle fails with x1 kept, and so does deleting x1
        c = parse_clutter("v: x1 x2 x3 x4\ne: x1\ne: x2 x3\ne: x2 x4\ne: x3 x4\n")
        w = has_packing_property(c).witness
        assert (w.deleted, w.contracted, w.alpha0, w.beta1) == ((), (), 3, 2)

    @staticmethod
    def assert_brute_lex_first(c):
        verdict = has_packing_property(c)
        expected = oracles.brute_packing_witness(c)
        assert verdict.holds == (expected is None)
        if expected is not None:
            w = verdict.witness
            assert (w.deleted, w.contracted, w.alpha0, w.beta1) == expected

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            strategies.clutters(max_n=5, max_q=5),
            strategies.clutters(max_n=7, max_q=7),
            strategies.uniform_clutters(max_n=5, size=2, max_q=7),
        )
    )
    def test_witness_is_the_brute_lex_first(self, c):
        self.assert_brute_lex_first(c)

    @settings(max_examples=30, deadline=None)
    @given(strategies.whiskered_clutters(max_n=8))
    def test_whiskered_witness_is_the_brute_lex_first(self, c):
        # whisker vertices lie on one edge, so the walk never contracts them
        self.assert_brute_lex_first(c)

    def test_contracts_a_two_edge_vertex(self):
        # x5 lies on two edges, x2 x5 and x3 x4 x5, and contracting it
        # leaves the triangle x1 x3 x4 beside the edge x2 (alpha0 = 3,
        # beta1 = 2): only a vertex on one edge may skip the contract branch
        c = parse_clutter(
            "v: x1 x2 x3 x4 x5\n"
            "e: x1 x2\ne: x1 x3\ne: x1 x4\ne: x2 x5\ne: x3 x4 x5\n"
        )
        w = has_packing_property(c).witness
        assert (w.deleted, w.contracted, w.alpha0, w.beta1) == ((), ("x5",), 3, 2)
        assert (w.deleted, w.contracted, w.alpha0, w.beta1) == (
            oracles.brute_packing_witness(c)
        )

    def test_eighteen_vertex_graft_holds(self):
        # a 6-vertex 3-uniform packing class: its graft hangs two one-edge
        # vertices on each base vertex
        base = parse_clutter(
            "v: x1 x2 x3 x4 x5 x6\n"
            "e: x1 x3 x5\ne: x1 x3 x6\ne: x1 x4 x5\n"
            "e: x1 x4 x6\ne: x2 x3 x6\ne: x2 x4 x5\n"
        )
        g = graft(base)
        assert g.n == 18
        assert has_packing_property(base).holds
        assert has_packing_property(g, max_vertices=18).holds

    @pytest.mark.parametrize("g", SMALL_GRAFTS, ids=lambda g: f"{g.n}v{len(g.edges)}e")
    def test_graft_witness_is_the_brute_lex_first(self, g):
        self.assert_brute_lex_first(g)

    def test_perfect_matching_is_pruned_at_the_root(self, monkeypatch):
        # pairwise disjoint edges hold at once: no vertex is ever deleted
        def no_delete(edges, bit):
            raise AssertionError("the walk went past the root")

        monkeypatch.setattr(covering, "_delete", no_delete)
        c = parse_clutter("v: a b c d e f\ne: a b\ne: c d\ne: e f\n")
        assert has_packing_property(c).holds

    def test_disjoint_pair_beside_a_triangle_keeps_its_witness(self):
        # two of the edges are disjoint but not all, so the walk goes on and
        # fails at the root: alpha0 = 2 + 2 against beta1 = 2 + 1
        c = parse_clutter(
            "v: a b c d x y z\ne: a b\ne: c d\ne: x y\ne: x z\ne: y z\n"
        )
        w = has_packing_property(c).witness
        assert (w.deleted, w.contracted, w.alpha0, w.beta1) == ((), (), 4, 3)
        assert (w.deleted, w.contracted, w.alpha0, w.beta1) == (
            oracles.brute_packing_witness(c)
        )


class TestGuards:
    def test_packing_size_guard(self):
        from clutterlab import InstanceTooLargeError

        big = make_clutter(
            [f"v{i}" for i in range(16)],
            [[f"v{i}", f"v{i+1}"] for i in range(0, 16, 2)],
        )
        with pytest.raises(InstanceTooLargeError):
            has_packing_property(big, max_vertices=15)
