"""Construction, parsing, canonical form, and the clutter transforms."""

from itertools import product

import pytest
from hypothesis import given, settings

import oracles
import strategies
from clutterlab import (
    AntichainViolation,
    Clutter,
    ClutterSyntaxError,
    CorpusSpec,
    DuplicateEdgeError,
    NotUniformError,
    UnitIdealError,
    UnknownVertexError,
    adjoin_whisker_edge,
    duplicate,
    enumerate_clutters,
    graft,
    is_uniform,
    make_clutter,
    minor,
    parallelization,
    parse_clutter,
    serialize_clutter,
)

TRIANGLE = "v: x1 x2 x3\ne: x1 x2\ne: x1 x3\ne: x2 x3\n"
C4 = "v: x1 x2 x3 x4\ne: x1 x2\ne: x2 x3\ne: x3 x4\ne: x1 x4\n"
C5 = (
    "v: x1 x2 x3 x4 x5\n"
    "e: x1 x2\ne: x2 x3\ne: x3 x4\ne: x4 x5\ne: x1 x5\n"
)


def triangle():
    return parse_clutter(TRIANGLE)


class TestConstruction:
    def test_make_clutter_canonical(self):
        c = make_clutter(["b", "a", "c"], [["c", "b"], ["a", "c"]])
        assert c.vertices == ("b", "a", "c")
        assert c.edges == ((0, 2), (1, 2))

    def test_stranded_vertices_dropped(self):
        c = make_clutter(["x1", "x2", "x3"], [["x1", "x2"]])
        assert c.vertices == ("x1", "x2")
        assert c.n == 2

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            make_clutter(["a", "b"], [["a", "b"], ["b", "a"]])

    def test_comparable_edges_rejected(self):
        with pytest.raises(AntichainViolation):
            make_clutter(["a", "b", "c"], [["a"], ["a", "b"]])

    def test_unknown_vertex_rejected(self):
        with pytest.raises(UnknownVertexError):
            make_clutter(["a"], [["a", "z"]])

    def test_empty_edge_rejected(self):
        with pytest.raises(ValueError):
            make_clutter(["a"], [[]])

    def test_clutter_class_validates(self):
        with pytest.raises(ValueError):
            Clutter(("a", "b"), ((1, 0),))
        with pytest.raises(ValueError):
            Clutter(("a", "b"), ((0,), (0, 1)))
        with pytest.raises(ValueError):
            Clutter(("a", "b"), ((0,),))


class TestParsing:
    def test_round_trip(self):
        c = triangle()
        assert parse_clutter(serialize_clutter(c)) == c

    def test_comments_and_blanks(self):
        c = parse_clutter("# comment\n\nv: a b\n  # another\ne: a b\n")
        assert c.vertices == ("a", "b")
        assert c.edges == ((0, 1),)

    def test_error_positions(self):
        with pytest.raises(ClutterSyntaxError) as err:
            parse_clutter("v: a b\ne: a zz\n")
        assert "zz" in str(err.value)
        assert err.value.line == 2

    def test_edge_before_vertices(self):
        with pytest.raises(ClutterSyntaxError):
            parse_clutter("e: a\nv: a\n")

    def test_missing_vertex_line(self):
        with pytest.raises(ClutterSyntaxError):
            parse_clutter("# nothing\n")

    def test_second_vertex_line(self):
        with pytest.raises(ClutterSyntaxError):
            parse_clutter("v: a\nv: b\ne: a\n")

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(ClutterSyntaxError):
            parse_clutter("v: a b\ne: a a\n")

    def test_unknown_directive(self):
        with pytest.raises(ClutterSyntaxError):
            parse_clutter("v: a\nedge: a\n")

    @settings(max_examples=40, deadline=None)
    @given(strategies.clutters())
    def test_round_trip_random(self, c):
        assert parse_clutter(serialize_clutter(c)) == c


class TestMinor:
    def test_identity(self):
        c = triangle()
        assert minor(c) == c

    def test_deletion(self):
        c = minor(triangle(), deleted=("x1",))
        assert c.vertices == ("x2", "x3")
        assert c.edges == ((0, 1),)

    def test_contraction_minimalizes(self):
        c = minor(parse_clutter(C4), contracted=("x1",))
        # x1 disappears; {x2} and {x4} absorb the larger edges; x3 strands
        assert c.vertices == ("x2", "x4")
        assert c.edges == ((0,), (1,))

    def test_unit_ideal(self):
        with pytest.raises(UnitIdealError):
            minor(triangle(), contracted=("x1", "x2"))

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            minor(triangle(), deleted=("x1",), contracted=("x1",))

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            minor(triangle(), deleted=("nope",))

    @settings(max_examples=60, deadline=None)
    @given(strategies.clutters(max_n=4))
    def test_matches_first_principles(self, c):
        edge_sets = [frozenset(e) for e in c.edges]
        for v in c.vertices:
            i = c.index_of(v)
            expected = oracles._minor_edges(edge_sets, frozenset([i]), frozenset())
            got = minor(c, deleted=(v,))
            assert sorted(
                tuple(sorted(got.vertices[k] for k in e)) for e in got.edges
            ) == sorted(
                tuple(sorted(c.vertices[k] for k in e)) for e in expected
            )
            expected = oracles._minor_edges(edge_sets, frozenset(), frozenset([i]))
            if expected is None:
                with pytest.raises(UnitIdealError):
                    minor(c, contracted=(v,))
            else:
                got = minor(c, contracted=(v,))
                assert sorted(
                    tuple(sorted(got.vertices[k] for k in e)) for e in got.edges
                ) == sorted(
                    tuple(sorted(c.vertices[k] for k in e)) for e in expected
                )


class TestDuplicate:
    def test_labels_and_edges(self):
        c = duplicate(triangle(), "x1")
        assert c.vertices == ("x1", "x2", "x3", "x1#2")
        labeled = {tuple(sorted(c.vertices[i] for i in e)) for e in c.edges}
        assert labeled == {
            ("x1", "x2"),
            ("x1", "x3"),
            ("x2", "x3"),
            ("x1#2", "x2"),
            ("x1#2", "x3"),
        }

    def test_second_copy_counts_up(self):
        c = duplicate(duplicate(triangle(), "x1"), "x1#2")
        assert "x1#3" in c.vertices

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            duplicate(triangle(), "zz")


class TestParallelization:
    def test_all_ones_identity(self):
        c = triangle()
        assert parallelization(c, (1, 1, 1)) == c

    def test_zero_is_deletion(self):
        c = triangle()
        assert parallelization(c, (0, 1, 1)) == minor(c, deleted=("x1",))

    def test_counts(self):
        c = parallelization(triangle(), (2, 3, 1))
        assert c.n == 6
        # edges: x1x2 -> 2*3, x1x3 -> 2*1, x2x3 -> 3*1
        assert c.q == 11

    def test_k33(self):
        single = make_clutter(["x1", "x2"], [["x1", "x2"]])
        c = parallelization(single, (3, 3))
        assert (c.n, c.q) == (6, 9)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            parallelization(triangle(), (1, 1))
        with pytest.raises(ValueError):
            parallelization(triangle(), (1, -1, 1))

    @settings(max_examples=40, deadline=None)
    @given(strategies.clutters(max_n=4, max_q=4))
    def test_count_formulas(self, c):
        for w in [(2,) * c.n, tuple((i % 3) for i in range(c.n))]:
            cp = parallelization(c, w)
            surviving = [e for e in c.edges if all(w[i] > 0 for i in e)]
            expected_q = 0
            for e in surviving:
                prod = 1
                for i in e:
                    prod *= w[i]
                expected_q += prod
            used = set().union(*map(set, surviving)) if surviving else set()
            assert cp.q == expected_q
            assert cp.n == sum(w[i] for i in used)


class TestTrustedConstruction:
    """`parallelization` and `minor` build their clutters without the
    constructor's checks; each output equals its revalidated copy."""

    def test_outputs_pass_full_validation(self):
        for c in enumerate_clutters(CorpusSpec(4)):
            for w in product((0, 1, 2), repeat=c.n):
                p = parallelization(c, w)
                assert p == Clutter(p.vertices, p.edges)
            for v in c.vertices:
                m = minor(c, deleted=(v,))
                assert m == Clutter(m.vertices, m.edges)
                try:
                    m = minor(c, contracted=(v,))
                except UnitIdealError:
                    continue
                assert m == Clutter(m.vertices, m.edges)


class TestUniformAndGraft:
    def test_is_uniform(self):
        assert is_uniform(triangle()) == 2
        mixed = make_clutter(["a", "b", "c", "d"], [["a", "b"], ["b", "c", "d"]])
        assert is_uniform(mixed) is None

    def test_graft_counts(self):
        g = graft(triangle())
        assert g.n == 6
        assert g.q == 6
        labeled = {tuple(sorted(g.vertices[i] for i in e)) for e in g.edges}
        assert ("x1", "y1_1") in labeled

    def test_graft_three_uniform(self):
        c = make_clutter(
            ["x1", "x2", "x3", "x4"], [["x1", "x2", "x3"], ["x2", "x3", "x4"]]
        )
        g = graft(c)
        assert g.n == 4 + 4 * 2
        assert g.q == 2 + 4

    def test_graft_requires_uniform(self):
        mixed = make_clutter(["a", "b", "c", "d"], [["a", "b"], ["b", "c", "d"]])
        with pytest.raises(NotUniformError):
            graft(mixed)
        with pytest.raises(NotUniformError):
            graft(triangle(), d=3)

    def test_graft_one_uniform_is_identity(self):
        c = make_clutter(["a", "b"], [["a"], ["b"]])
        assert graft(c) == c

    def test_graft_avoids_label_clashes(self):
        c = make_clutter(["y1_1", "x1"], [["y1_1", "x1"]])
        g = graft(c)
        assert len(set(g.vertices)) == g.n == 4


class TestWhisker:
    def test_counts(self):
        c = adjoin_whisker_edge(triangle(), "x1", 2)
        assert c.n == 5
        assert c.q == 4
        labeled = {tuple(sorted(c.vertices[i] for i in e)) for e in c.edges}
        assert ("x1", "z1", "z2") in labeled

    def test_redundant_when_singleton_present(self):
        c = make_clutter(["a", "b"], [["a"], ["b"]])
        assert adjoin_whisker_edge(c, "a", 3) == c

    def test_length_validation(self):
        with pytest.raises(ValueError):
            adjoin_whisker_edge(triangle(), "x1", 0)

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            adjoin_whisker_edge(triangle(), "zz", 1)

    def test_fresh_labels(self):
        c = make_clutter(["z1", "v"], [["z1", "v"]])
        w = adjoin_whisker_edge(c, "v", 1)
        assert len(set(w.vertices)) == w.n == 3
