"""Corpus enumeration, property reports, theorem suite, scan, CLI."""

import hashlib
import importlib
import inspect
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from clutterlab import (
    CorpusSpec,
    InstanceTooLargeError,
    NormalityVerdict,
    PowerCertificate,
    PropertyReport,
    PropertyVerdict,
    TheoremViolationError,
    VerifyBounds,
    adjoin_whisker_edge,
    check_properties,
    emit_report,
    enumerate_Q_vertices,
    enumerate_clutters,
    graft,
    has_konig,
    has_packing_property,
    hilbert_basis,
    independence_complex,
    is_cohen_macaulay,
    is_ideal_clutter,
    is_normal,
    is_ntf_bounded,
    isomorphism_key,
    make_clutter,
    parallelization,
    parse_clutter,
    read_report,
    rees_cone,
    report_hash,
    scan_conforti_cornuejols,
    serialize_clutter,
    solve_lp_exact,
    verify_theorems,
)
from clutterlab import cm, covering, harness, rees
from clutterlab.cm import CmVerdict
from clutterlab.cli import main
from clutterlab.harness import _IMPLICATIONS, _canonical_labellings, _edge_key

TRIANGLE = parse_clutter("v: x1 x2 x3\ne: x1 x2\ne: x1 x3\ne: x2 x3\n")
TRIANGLE_TEXT = "v: x1 x2 x3\ne: x1 x2\ne: x1 x3\ne: x2 x3\n"


class TestEnumeration:
    def test_counts_uniform(self):
        assert len(list(enumerate_clutters(CorpusSpec(2, uniform_size=2)))) == 1
        assert len(list(enumerate_clutters(CorpusSpec(3, uniform_size=2)))) == 7
        assert (
            len(
                list(
                    enumerate_clutters(
                        CorpusSpec(3, uniform_size=2, isomorph_reject=True)
                    )
                )
            )
            == 3
        )

    def test_edge_limit(self):
        only_small = list(
            enumerate_clutters(CorpusSpec(3, uniform_size=2, max_edges=1))
        )
        assert len(only_small) == 3
        assert all(c.q == 1 for c in only_small)

    def test_antichains_match_brute_force(self):
        for n in (1, 2, 3, 4):
            pool = sorted(
                (
                    tuple(s)
                    for k in range(1, n + 1)
                    for s in itertools.combinations(range(n), k)
                ),
                key=lambda t: (len(t), t),
            )
            sets = [frozenset(s) for s in pool]
            brute = 0
            for mask in range(1, 1 << len(pool)):
                chosen = [sets[i] for i in range(len(pool)) if mask >> i & 1]
                if all(
                    not (a <= b or b <= a)
                    for a, b in itertools.combinations(chosen, 2)
                ):
                    brute += 1
            mine = len(list(enumerate_clutters(CorpusSpec(n))))
            assert mine == brute

    def test_deterministic_order(self):
        first = [serialize_clutter(c) for c in enumerate_clutters(CorpusSpec(3))]
        second = [serialize_clutter(c) for c in enumerate_clutters(CorpusSpec(3))]
        assert first == second

    def test_guards(self):
        with pytest.raises(InstanceTooLargeError):
            list(enumerate_clutters(CorpusSpec(7, uniform_size=2)))
        with pytest.raises(InstanceTooLargeError):
            list(enumerate_clutters(CorpusSpec(6)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CorpusSpec(0)
        with pytest.raises(ValueError):
            CorpusSpec(3, uniform_size=4)

    def test_isomorphism_key_is_invariant(self):
        a = make_clutter(["p", "q", "r"], [["p", "q"], ["q", "r"]])
        b = make_clutter(["x", "y", "z"], [["y", "x"], ["x", "z"]])
        assert isomorphism_key(a) == isomorphism_key(b)
        c = make_clutter(["p", "q", "r"], [["p", "q"], ["q", "r"], ["p", "r"]])
        assert isomorphism_key(a) != isomorphism_key(c)


# every isomorph-free spec on at most 5 vertices, with its class count:
# 8, 28 and 208 antichains are A003182's 10, 30 and 210 without the empty
# antichain and {∅}
ISO_SPECS = [
    pytest.param(CorpusSpec(3, isomorph_reject=True), 8, id="n3"),
    pytest.param(CorpusSpec(4, isomorph_reject=True), 28, id="n4"),
    pytest.param(CorpusSpec(5, isomorph_reject=True), 208, id="n5"),
    *(
        pytest.param(
            CorpusSpec(5, uniform_size=d, isomorph_reject=True), count, id=f"n5-d{d}"
        )
        for d, count in ((1, 5), (2, 33), (3, 33), (4, 5), (5, 1))
    ),
    pytest.param(
        CorpusSpec(5, uniform_size=3, max_edges=5, isomorph_reject=True), 19,
        id="n5-d3-q5",
    ),
    pytest.param(CorpusSpec(5, max_edges=3, isomorph_reject=True), 48, id="n5-q3"),
]

# six-vertex uniform sequences, too long for the brute oracle: the sha256 of
# the serialized clutters, each followed by a NUL byte.  155 classes are
# A000088's 156 graphs without the edgeless one, and 2,135 are A000665's
# 2,136 3-uniform hypergraphs without the empty one
SIX_VERTEX_SPECS = [
    pytest.param(
        CorpusSpec(6, uniform_size=2, isomorph_reject=True),
        155,
        "ebd9fb012e2ea60eeab43a32dda40766eacdb5ea39408c35caa190f79164b7c9",
        id="n6-d2",
    ),
    pytest.param(
        CorpusSpec(6, uniform_size=3, max_edges=6, isomorph_reject=True),
        169,
        "31b6b04a7ebe3f65461ed9c787ee2e60a53441e9b6baadae005d32f26e2b905a",
        id="n6-d3-q6",
    ),
    pytest.param(
        CorpusSpec(6, uniform_size=3, isomorph_reject=True),
        2135,
        "9c12af61a5bb0dfca616de338885e28043d9443a32ae8d2f663e8e4a2994c951",
        id="n6-d3",
    ),
]


class TestIsomorphismKey:
    @pytest.mark.parametrize("spec, count", ISO_SPECS)
    def test_enumeration_matches_brute_key_oracle(self, spec, count):
        mine = [serialize_clutter(c) for c in enumerate_clutters(spec)]
        labelled = enumerate_clutters(replace(spec, isomorph_reject=False))
        brute = [serialize_clutter(c) for c in oracles.brute_isomorph_free(labelled)]
        assert mine == brute
        assert len(mine) == count

    @pytest.mark.parametrize("spec, count, digest", SIX_VERTEX_SPECS)
    def test_six_vertex_sequences(self, spec, count, digest):
        texts = [serialize_clutter(c) for c in enumerate_clutters(spec)]
        assert len(texts) == count
        joined = "".join(text + "\0" for text in texts)
        assert hashlib.sha256(joined.encode()).hexdigest() == digest

    @settings(max_examples=100, deadline=None)
    @given(strategies.clutters(max_n=6, max_q=6), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, c, rng):
        # fresh names, listed in an order that moves the vertices around
        names = [f"y{i}" for i in range(c.n)]
        rng.shuffle(names)
        relabeled = make_clutter(
            sorted(names), [[names[v] for v in e] for e in c.edges]
        )
        assert isomorphism_key(relabeled) == isomorphism_key(c)

    @settings(max_examples=200, deadline=None)
    @given(strategies.clutters(max_n=5, max_q=4), strategies.clutters(max_n=5, max_q=4))
    def test_complete_against_brute_key(self, a, b):
        brute = oracles.brute_isomorphism_key
        assert (isomorphism_key(a) == isomorphism_key(b)) == (brute(a) == brute(b))

    def test_equal_invariants_different_classes(self):
        # C6 and two disjoint triangles: every vertex has degree 2 and
        # neighbours of degree 2, so only the minimum tells them apart
        hexagon = make_clutter("abcdef", ["ab", "bc", "cd", "de", "ef", "af"])
        triangles = make_clutter("abcdef", ["ab", "bc", "ac", "de", "ef", "df"])
        assert isomorphism_key(hexagon)[:3] == isomorphism_key(triangles)[:3]
        assert isomorphism_key(hexagon) != isomorphism_key(triangles)

    def test_stranded_indices_are_ignored(self):
        path = make_clutter(["a", "b", "c"], [["a", "b"], ["b", "c"]])
        assert _edge_key([(0, 3), (3, 5)]) == isomorphism_key(path)

    @settings(max_examples=60, deadline=None)
    @given(strategies.clutters(max_n=5, max_q=5), st.randoms(use_true_random=False))
    def test_key_of_spread_indices(self, c, rng):
        # an increasing map into a wider index range leaves gaps
        spread = sorted(rng.sample(range(2 * c.n + 2), c.n))
        edges = [tuple(spread[v] for v in e) for e in c.edges]
        assert _edge_key(edges) == isomorphism_key(c)


def _masks(edges, order):
    """The sorted bitmask edge list of ``edges`` with vertex order[i] at
    position i."""
    position = {v: i for i, v in enumerate(order)}
    return tuple(sorted(sum(1 << position[v] for v in e) for e in edges))


def _permuted(c, perm):
    """c with vertex i moved to index perm[i]: the same clutter up to
    isomorphism, with another edge structure (n, edges) in general."""
    labels = [f"p{k}" for k in range(c.n)]
    return make_clutter(labels, [[labels[perm[v]] for v in e] for e in c.edges])


class TestOrbitSharing:
    """The facts behind `verify_theorems` running each derived kernel once
    per isomorphism class of (corpus clutter, derivation)."""

    @settings(max_examples=150, deadline=None)
    @given(strategies.clutters(max_n=5, max_q=6))
    def test_minimizers_are_one_automorphism_coset(self, c):
        key, orders = _canonical_labellings(c.edges)
        assert key == _edge_key(c.edges)
        assert all(_masks(c.edges, order) == key[-1] for order in orders)
        # every minimizer is the first one followed by an automorphism,
        # and each automorphism gives one
        autos = oracles.brute_automorphisms(c)
        assert len(orders) == len(set(orders)) == len(autos)
        assert set(orders) == {tuple(a[v] for v in orders[0]) for a in autos}

    @settings(max_examples=60, deadline=None)
    @given(strategies.clutters(max_n=5, max_q=6))
    def test_least_images_key_the_automorphism_orbits(self, c):
        _, orders = _canonical_labellings(c.edges)
        autos = oracles.brute_automorphisms(c)

        def least(w):
            return min(tuple(w[v] for v in order) for order in orders)

        def orbit(w):
            return frozenset(tuple(w[a[v]] for v in range(c.n)) for a in autos)

        weights = list(itertools.product(range(2), repeat=c.n))
        for w in weights:
            assert {least(u) == least(w) for u in orbit(w)} == {True}
        assert len({least(w) for w in weights}) == len({orbit(w) for w in weights})
        vertex_keys = [min(order.index(v) for order in orders) for v in range(c.n)]
        for v in range(c.n):
            mates = {u for u in range(c.n) if vertex_keys[u] == vertex_keys[v]}
            assert mates == {a[v] for a in autos}

    @settings(max_examples=100, deadline=None)
    @given(strategies.derived_clutters(), st.randoms(use_true_random=False))
    def test_derived_verdicts_are_permutation_invariant(self, x, rng):
        perm = list(range(x.n))
        rng.shuffle(perm)
        y = _permuted(x, perm)
        for verdict in (
            lambda c: is_normal(c, max_vertices=16, max_edges=c.q).normal,
            lambda c: is_ntf_bounded(c, 2).certified,
            has_konig,
            lambda c: has_packing_property(c).holds,
            lambda c: is_ideal_clutter(c).ideal,
            lambda c: is_cohen_macaulay(c).cohen_macaulay,
        ):
            assert verdict(y) == verdict(x)


class TestCheckProperties:
    def test_triangle_full_battery(self):
        report = check_properties(TRIANGLE)
        assert [v.name for v in report.verdicts] == [
            "konig",
            "packing",
            "ideal",
            "mfmc",
            "normal",
            "ntf",
            "cm",
        ]
        by = {v.name: v for v in report.verdicts}
        assert by["konig"].value is False
        assert by["konig"].witness == {"alpha0": 2, "beta1": 1}
        assert by["ideal"].witness == {"vertex": ["1/2", "1/2", "1/2"]}
        assert by["mfmc"].bound == 2
        assert by["mfmc"].witness == {"w": [1, 1, 1], "cover": 2, "packing": 1}
        assert by["normal"].value is True
        assert by["ntf"].witness == {
            "a": [1, 1, 1],
            "i": 2,
            "monomial": "x1*x2*x3",
        }
        assert by["cm"].value is True
        assert len(report.timings) == 7

    def test_subset_and_unknown(self):
        report = check_properties(TRIANGLE, props=("cm", "konig"))
        assert [v.name for v in report.verdicts] == ["cm", "konig"]
        with pytest.raises(ValueError):
            check_properties(TRIANGLE, props=("bogus",))

    def test_packing_witness_shape(self):
        c5 = parse_clutter(
            "v: x1 x2 x3 x4 x5\n"
            "e: x1 x2\ne: x2 x3\ne: x3 x4\ne: x4 x5\ne: x1 x5\n"
        )
        report = check_properties(c5, props=("packing",))
        w = report.verdict("packing").witness
        assert w == {"deleted": [], "contracted": [], "alpha0": 3, "beta1": 2}


class TestGuardDefaults:
    """Each size guard's API default is the bound the harness passes."""

    @pytest.mark.parametrize(
        "function, parameter, field",
        [
            (has_packing_property, "max_vertices", "packing_max_vertices"),
            (is_cohen_macaulay, "max_vertices", "cm_max_vertices"),
            (is_ideal_clutter, "max_vertices", "ideal_max_vertices"),
            (solve_lp_exact, "max_vertices", "ideal_max_vertices"),
            (hilbert_basis, "max_vertices", "hilbert_max_vertices"),
            (hilbert_basis, "max_edges", "hilbert_max_edges"),
            (is_normal, "max_vertices", "hilbert_max_vertices"),
            (is_normal, "max_edges", "hilbert_max_edges"),
        ],
    )
    def test_api_default_matches_verify_bounds(self, function, parameter, field):
        default = inspect.signature(function).parameters[parameter].default
        assert default == getattr(VerifyBounds(), field)


    @pytest.mark.parametrize("limit", [1.5, "15"], ids=["float", "string"])
    @pytest.mark.parametrize(
        "guarded",
        [
            lambda limit: has_packing_property(TRIANGLE, max_vertices=limit),
            lambda limit: is_cohen_macaulay(TRIANGLE, max_vertices=limit),
            lambda limit: independence_complex(TRIANGLE, max_vertices=limit),
            lambda limit: is_ideal_clutter(TRIANGLE, max_vertices=limit),
            lambda limit: enumerate_Q_vertices(TRIANGLE, max_vertices=limit),
            lambda limit: solve_lp_exact(TRIANGLE, (1, 1, 1), max_vertices=limit),
            lambda limit: hilbert_basis(rees_cone(TRIANGLE), max_vertices=limit),
            lambda limit: hilbert_basis(rees_cone(TRIANGLE), max_edges=limit),
            lambda limit: is_normal(TRIANGLE, max_vertices=limit),
            lambda limit: is_normal(TRIANGLE, max_edges=limit),
        ],
        ids=[
            "packing", "cm", "independence-complex", "ideal", "q-vertices",
            "lp", "hilbert-vertices", "hilbert-edges", "normal-vertices",
            "normal-edges",
        ],
    )
    def test_non_integer_limit_refused(self, guarded, limit):
        # a size limit is a count: neither truncated, compared, nor parsed
        with pytest.raises(ValueError, match="must be an integer"):
            guarded(limit)


class TestVerifyBoundsValidation:
    """Every bound is checked when VerifyBounds is built, not by the first
    check that uses it in the middle of a run."""

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ({"max_power": 0}, "max_power must be positive"),
            ({"max_weight": 0}, "max_weight must be positive"),
            ({"whisker_lengths": (0,)}, "whisker lengths must be positive"),
            ({"whisker_lengths": (1, -2)}, "whisker lengths must be positive"),
            ({"cm_max_vertices": -1}, "cm_max_vertices must be non-negative"),
            ({"packing_max_vertices": -1}, "packing_max_vertices must be non-negative"),
            ({"ideal_max_vertices": -1}, "ideal_max_vertices must be non-negative"),
            ({"hilbert_max_vertices": -1}, "hilbert_max_vertices must be non-negative"),
            ({"hilbert_max_edges": -1}, "hilbert_max_edges must be non-negative"),
            ({"max_power": 1.5}, "must be an integer"),
            ({"max_weight": "2"}, "must be an integer"),
            ({"whisker_lengths": (1.5,)}, "must be an integer"),
            ({"cm_max_vertices": 16.0}, "must be an integer"),
            ({"include_graft": "false"}, "include_graft must be a bool"),
            (
                {"include_parallelization": 1},
                "include_parallelization must be a bool",
            ),
            ({"include_whiskers": None}, "include_whiskers must be a bool"),
        ],
        ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={x}" for k, x in v.items()),
    )
    def test_bad_bound_refused(self, bounds, message):
        with pytest.raises(ValueError, match=message):
            VerifyBounds(**bounds)

    def test_least_bounds_accepted(self):
        VerifyBounds(
            max_weight=1, max_power=1, parallel_weight=0, whisker_lengths=(1,),
            hilbert_max_vertices=0, hilbert_max_edges=0, cm_max_vertices=0,
            packing_max_vertices=0, ideal_max_vertices=0,
        )


class TestBenchmarkMetricNames:
    """Every function a per-layer benchmark metric names still exists, so a
    deletion fails here rather than in a traced benchmark run."""

    SPEC = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
    )

    def _named_functions(self, stats=None):
        for metric in self.SPEC["per_layer"]:
            parts = metric["name"].split(".")
            if len(parts) == 3 and (stats is None or parts[2] in stats):
                yield parts[0], parts[1]

    def test_per_layer_functions_are_public_in_their_layer(self):
        named = list(self._named_functions())
        assert named
        for layer, name in named:
            module = importlib.import_module(f"clutterlab.{layer}")
            fn = getattr(module, name, None)
            assert not name.startswith("_"), f"{layer}.{name}"
            assert callable(fn) and not inspect.isclass(fn), f"{layer}.{name}"
            assert fn.__module__ == module.__name__, f"{layer}.{name}"

    def test_package_exports_resolve(self):
        package = importlib.import_module("clutterlab")
        for name in package.__all__:
            assert hasattr(package, name), name

    def test_cache_metrics_name_cached_functions(self):
        named = list(self._named_functions(("cache_hits", "cache_misses")))
        assert named
        for layer, name in named:
            module = importlib.import_module(f"clutterlab.{layer}")
            assert hasattr(getattr(module, name), "cache_info"), f"{layer}.{name}"


class TestVerifyTheorems:
    def test_golden_benchmark_operations(self):
        # the two operations of the verify benchmark workload: a kernel
        # change that moves any verdict, witness or count fails here
        a = verify_theorems(CorpusSpec(4, uniform_size=2))
        assert report_hash(a.reports) == (
            "7a1b99c3b783a169b0f6cb6bc18dceb4850564f00e5e39ee4ba4b318a571e3a5"
        )
        assert a.lines() == [
            "packing-implies-ideal: 63 checked, 0 violations",
            "mfmc-implies-konig: 63 checked, 0 violations",
            "mfmc-implies-packing: 63 checked, 0 violations",
            "exact-mfmc-implies-bounded: 63 checked, 0 violations",
            "mfmc-parall-konig: 2160 checked, 0 violations",
            "parall-normal: 3807 checked, 0 violations",
            "ntf-parallelization: 2160 checked, 0 violations",
            "whisker-konig: 368 checked, 0 violations",
            "whisker-packing: 272 checked, 0 violations",
            "whisker-normal: 448 checked, 0 violations",
            "graft-cm: 63 checked, 0 violations",
            "graft-pp: 40 checked, 0 violations",
            "graft-mfmc: 40 checked, 0 violations",
        ]
        b = verify_theorems(
            CorpusSpec(5, uniform_size=2, isomorph_reject=True),
            VerifyBounds(
                include_graft=False,
                include_parallelization=False,
                include_whiskers=False,
            ),
        )
        assert report_hash(b.reports) == (
            "ade2b9a659443d175632e437e3907ec0dd98691f0acccb872c5dc1c75fb4b34f"
        )
        assert b.lines() == [
            f"{name}: {33 if k < 4 else 0} checked, 0 violations"
            for k, name in enumerate(_IMPLICATIONS)
        ]

    def test_antichain_corpus_summary(self):
        # `clutterlab verify --n 4`: every antichain on at most 4 vertices
        summary = verify_theorems(CorpusSpec(4))
        assert report_hash(summary.reports) == (
            "6d69ccfacba666d5f45af281d2e998d1d6b755e3c872890236a49d09d28e556b"
        )
        assert summary.lines() == [
            "packing-implies-ideal: 166 checked, 0 violations",
            "mfmc-implies-konig: 166 checked, 0 violations",
            "mfmc-implies-packing: 166 checked, 0 violations",
            "exact-mfmc-implies-bounded: 166 checked, 0 violations",
            "mfmc-parall-konig: 6168 checked, 0 violations",
            "parall-normal: 10326 checked, 0 violations",
            "ntf-parallelization: 6168 checked, 0 violations",
            "whisker-konig: 888 checked, 0 violations",
            "whisker-packing: 760 checked, 0 violations",
            "whisker-normal: 1184 checked, 0 violations",
            "graft-cm: 94 checked, 0 violations",
            "graft-pp: 65 checked, 0 violations (skipped 1)",
            "graft-mfmc: 66 checked, 0 violations",
        ]

    def test_derived_kernels_run_once_per_orbit(self, monkeypatch):
        # CorpusSpec(4, uniform_size=2) checks 3,807 parallelizations and
        # 448 whiskers for normality, 2,160 parallelizations for NTF and
        # Konig, 368 whiskers for Konig and 272 for packing.  Its 63
        # clutters fall into 10 classes, and one call per orbit of each
        # class, plus one per corpus verdict (and one Konig call per vertex
        # orbit for the whisker gate), leaves these counts
        calls = {
            (rees, "is_normal"): 0,
            (rees, "is_ntf_bounded"): 0,
            (covering, "has_konig"): 0,
            (covering, "has_packing_property"): 0,
        }
        for module, name in calls:
            kernel = getattr(module, name)

            def counted(*args, _kernel=kernel, _key=(module, name), **kwargs):
                calls[_key] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        verify_theorems(CorpusSpec(4, uniform_size=2))
        assert {name: n for (_, name), n in calls.items()} == {
            "is_normal": 357,
            "is_ntf_bounded": 204,
            "has_konig": 242,
            "has_packing_property": 87,
        }

    def test_no_class_key_without_derivations(self, monkeypatch):
        # with every derivation off, no derived check runs, so no corpus
        # clutter needs its canonical labellings
        calls = []
        labellings = harness._canonical_labellings

        def counted(edges):
            calls.append(edges)
            return labellings(edges)

        monkeypatch.setattr(harness, "_canonical_labellings", counted)
        off = VerifyBounds(
            include_graft=False, include_parallelization=False, include_whiskers=False
        )
        spec = CorpusSpec(5, uniform_size=2, isomorph_reject=True)
        summary = verify_theorems(spec, off)
        assert calls == []
        assert summary.lines() == [
            f"{name}: {33 if k < 4 else 0} checked, 0 violations"
            for k, name in enumerate(_IMPLICATIONS)
        ]

    # K_{2,3}: the parallelizations of a 2-edge path with weight 2 on its
    # middle vertex and on one end
    K23 = "v: a b c d e\ne: a c\ne: a d\ne: a e\ne: b c\ne: b d\ne: b e\n"

    @pytest.mark.parametrize(
        "spec, clutter_text, w",
        [
            (
                CorpusSpec(3, uniform_size=2),
                "v: x1 x2 x3\ne: x1 x2\ne: x1 x3\n",
                [2, 1, 2],
            ),
            (
                CorpusSpec(4),
                "v: x1 x2 x3 x4\ne: x1\ne: x2 x3\ne: x2 x4\n",
                [0, 2, 1, 2],
            ),
        ],
        ids=["n3-d2", "n4"],
    )
    def test_planted_failure_keeps_the_first_violation(
        self, spec, clutter_text, w, monkeypatch
    ):
        # derived normality says "not normal" on one isomorphism class of
        # parallelizations; the violation is still the first failing
        # (clutter, w) in walk order, with the path's other end at weight 2
        # (its orbit mate under the automorphism comes later)
        target = isomorphism_key(parse_clutter(self.K23))
        derived_guard = VerifyBounds().cm_max_vertices
        original = rees.is_normal

        def planted(x, max_vertices=8, max_edges=24):
            if max_vertices == derived_guard and isomorphism_key(x) == target:
                return NormalityVerdict(normal=False, witness=((0,) * x.n, 1))
            return original(x, max_vertices, max_edges)

        monkeypatch.setattr(rees, "is_normal", planted)
        with pytest.raises(TheoremViolationError) as info:
            verify_theorems(spec)
        assert info.value.implication == "parall-normal"
        assert info.value.clutter_text == clutter_text
        assert info.value.details == {"w": w}

    PATH_TEXT = "v: x1 x2 x3\ne: x1 x2\ne: x1 x3\n"

    @staticmethod
    def plant_not_normal(monkeypatch, target):
        # derived normality (the call under the CM guard) says "not normal"
        # on the isomorphism class with key ``target``
        derived_guard = VerifyBounds().cm_max_vertices
        original = rees.is_normal

        def planted(x, max_vertices=8, max_edges=24):
            if max_vertices == derived_guard and isomorphism_key(x) == target:
                return NormalityVerdict(normal=False, witness=((0,) * x.n, 1))
            return original(x, max_vertices, max_edges)

        monkeypatch.setattr(rees, "is_normal", planted)

    def test_planted_whisker_failure_names_vertex_and_length(self, monkeypatch):
        # the planted class is the 2-edge path with a 3-edge whisker on one
        # end; the first failing (clutter, vertex, length) is the path
        # itself, with its first end vertex
        path = parse_clutter(self.PATH_TEXT)
        self.plant_not_normal(
            monkeypatch, isomorphism_key(adjoin_whisker_edge(path, "x2", 2))
        )
        with pytest.raises(TheoremViolationError) as info:
            verify_theorems(CorpusSpec(3, uniform_size=2))
        assert info.value.implication == "whisker-normal"
        assert info.value.clutter_text == self.PATH_TEXT
        assert info.value.details == {"vertex": "x2", "length": 2}

    def test_planted_graft_failure_names_the_graft(self, monkeypatch):
        # the graft of the 2-edge path is reported not Cohen-Macaulay
        target = isomorphism_key(graft(parse_clutter(self.PATH_TEXT)))
        original = cm.is_cohen_macaulay

        def planted(x, field="Q", max_vertices=16):
            if isomorphism_key(x) == target:
                return CmVerdict(cohen_macaulay=False, field=field)
            return original(x, field, max_vertices)

        monkeypatch.setattr(cm, "is_cohen_macaulay", planted)
        with pytest.raises(TheoremViolationError) as info:
            verify_theorems(
                CorpusSpec(3, uniform_size=2),
                VerifyBounds(include_parallelization=False, include_whiskers=False),
            )
        assert info.value.implication == "graft-cm"
        assert info.value.clutter_text == self.PATH_TEXT
        assert info.value.details == {
            "graft": "v: x1 x2 x3 y1_1 y2_1 y3_1\ne: x1 x2\ne: x1 x3\n"
            "e: x1 y1_1\ne: x2 y2_1\ne: x3 y3_1\n"
        }

    def test_table_order_decides_between_checks_on_one_weight(self, monkeypatch):
        # both normality and NTF are planted to fail on the K_{2,3} class of
        # parallelizations; on its first (clutter, w) the check listed first
        # in the summary is the one raised
        target = isomorphism_key(parse_clutter(self.K23))
        ntf = rees.is_ntf_bounded

        def planted_ntf(x, max_power, *args, **kwargs):
            if isomorphism_key(x) == target:
                return PowerCertificate(False, max_power, ((0,) * x.n, 1))
            return ntf(x, max_power, *args, **kwargs)

        self.plant_not_normal(monkeypatch, target)
        monkeypatch.setattr(rees, "is_ntf_bounded", planted_ntf)
        with pytest.raises(TheoremViolationError) as info:
            verify_theorems(CorpusSpec(3, uniform_size=2))
        assert info.value.implication == "parall-normal"
        assert info.value.clutter_text == self.PATH_TEXT
        assert info.value.details == {"w": [2, 1, 2]}

    def test_smallest_corpus_is_clean(self):
        summary = verify_theorems(CorpusSpec(2))
        assert len(summary.reports) == 4
        assert summary.checked["packing-implies-ideal"] == 4
        assert summary.checked["mfmc-parall-konig"] == 24
        assert summary.checked["whisker-konig"] == 12
        assert not summary.skipped

    def test_uniform_corpus_counts(self):
        summary = verify_theorems(
            CorpusSpec(3, uniform_size=2),
            VerifyBounds(parallel_weight=1, whisker_lengths=(1,)),
        )
        assert len(summary.reports) == 7
        # the triangle is the only instance failing Konig/PP/ideal/mfmc/ntf
        negatives = [
            r
            for r in summary.reports
            if not r.verdict("konig").value
        ]
        assert len(negatives) == 1
        assert negatives[0].vertex_count == 3

    def test_every_counted_name_is_listed(self):
        # every implication is reached on this corpus, graft-pp as a skip
        summary = verify_theorems(CorpusSpec(3), VerifyBounds(packing_max_vertices=8))
        counted = set(summary.checked) | set(summary.skipped)
        assert counted == set(_IMPLICATIONS)

    def test_graft_beyond_packing_guard_is_skipped(self):
        # the graft of {x1x2x3} has 9 vertices: within the CM guard, beyond
        # the packing guard of 8
        summary = verify_theorems(
            CorpusSpec(3, uniform_size=3), VerifyBounds(packing_max_vertices=8)
        )
        assert summary.skipped["graft-pp"] == 1
        assert "graft-pp" not in summary.checked
        assert summary.checked["graft-cm"] == 1

    def test_graft_beyond_cm_guard_is_skipped(self):
        # the 4-uniform classes on 5 vertices graft to 20 vertices, beyond
        # the CM guard of 16; only {x1x2x3x4} grafts within it (to 16, one
        # beyond the packing guard).  The two packing classes are the two
        # with exact MFMC.
        summary = verify_theorems(
            CorpusSpec(5, uniform_size=4, isomorph_reject=True),
            VerifyBounds(include_parallelization=False, include_whiskers=False),
        )
        assert len(summary.reports) == 5
        assert summary.checked["graft-cm"] == 1
        assert summary.skipped["graft-cm"] == 4
        assert "graft-pp" not in summary.checked
        assert summary.skipped["graft-pp"] == 2
        assert summary.checked["graft-mfmc"] == 1
        assert summary.skipped["graft-mfmc"] == 1

    def test_graft_mfmc_is_gated_on_exact_mfmc(self):
        # the triangle is normal but not ideal, so only its graft goes
        # unchecked; the other six have exact MFMC
        summary = verify_theorems(
            CorpusSpec(3, uniform_size=2),
            VerifyBounds(include_parallelization=False, include_whiskers=False),
        )
        exact = [
            r.verdict("ideal").value and r.verdict("normal").value
            for r in summary.reports
        ]
        assert exact == [True] * 6 + [False]
        assert summary.reports[-1].clutter == TRIANGLE_TEXT
        assert summary.checked["graft-cm"] == 7
        assert summary.checked["graft-mfmc"] == 6
        assert not summary.skipped

    def test_derived_normality_answers_to_the_cm_guard(self):
        # parallelizations beyond cm_max_vertices are skipped, the rest
        # checked, whatever the Hilbert-basis guard of the corpus verdict
        bounds = VerifyBounds(
            cm_max_vertices=4,
            hilbert_max_vertices=3,
            include_graft=False,
            include_whiskers=False,
        )
        summary = verify_theorems(CorpusSpec(3, uniform_size=2), bounds)
        sizes = [
            parallelization(parse_clutter(r.clutter), w).n
            for r in summary.reports
            for w in itertools.product(range(3), repeat=r.vertex_count)
        ]
        assert summary.skipped["parall-normal"] == sum(n > 4 for n in sizes) == 16
        assert summary.checked["parall-normal"] == sum(n <= 4 for n in sizes) == 119

    def test_derived_ntf_beyond_its_box_guard_is_skipped(self):
        # at k = 32 the weight-(2, 2) parallelizations of the two 2-vertex
        # clutters have 4 vertices, so 33^4 box points: past the NTF scan's
        # limit of 2^20, they are skipped instead of aborting the run
        summary = verify_theorems(
            CorpusSpec(2),
            VerifyBounds(max_power=32, include_whiskers=False, include_graft=False),
        )
        assert summary.skipped == {"ntf-parallelization": 2}
        assert summary.checked["ntf-parallelization"] == 22

    def test_corpus_verdict_beyond_its_guard_aborts(self):
        # only derived checks turn a refusal into a skip
        with pytest.raises(InstanceTooLargeError):
            verify_theorems(CorpusSpec(3), VerifyBounds(packing_max_vertices=2))

    def test_five_vertex_graph_classes_pass(self):
        # C5 is NTF at k = 2 but not ideal, so it has no exact MFMC
        summary = verify_theorems(
            CorpusSpec(5, uniform_size=2, isomorph_reject=True),
            VerifyBounds(
                include_graft=False,
                include_parallelization=False,
                include_whiskers=False,
            ),
        )
        assert len(summary.reports) == 33
        c5 = [
            r
            for r in summary.reports
            if r.verdict("ntf").value and not r.verdict("ideal").value
        ]
        assert [(r.vertex_count, r.edge_count) for r in c5] == [(5, 5)]

    def test_violation_error_carries_context(self):
        err = TheoremViolationError(
            "packing-implies-ideal", TRIANGLE_TEXT, {"pp": True, "ideal": False}
        )
        assert err.implication == "packing-implies-ideal"
        assert err.clutter_text == TRIANGLE_TEXT
        assert "packing-implies-ideal" in str(err)
        assert "x1" in str(err)

    def test_ntf_coherence_witness_coupling(self):
        # the fractional covering vertex scales to the torsion witness: for
        # the triangle, 2 * (1/2,1/2,1/2) at power 2; for the pentagon,
        # 2 * (1/2,...,1/2) rounds into the witness at power 3
        from clutterlab import is_ideal_clutter, is_ntf_bounded

        tri_vertex = is_ideal_clutter(TRIANGLE).fractional_witness
        tri_witness = is_ntf_bounded(TRIANGLE, 2).witness
        assert tuple(2 * x for x in tri_vertex) == tri_witness[0]
        assert tri_witness[1] == 2

        c5 = parse_clutter(
            "v: x1 x2 x3 x4 x5\n"
            "e: x1 x2\ne: x2 x3\ne: x3 x4\ne: x4 x5\ne: x1 x5\n"
        )
        assert is_ntf_bounded(c5, 3).witness == ((1, 1, 1, 1, 1), 3)


class TestScan:
    def test_small_graph_corpus(self):
        result = scan_conforti_cornuejols(CorpusSpec(3, uniform_size=2))
        assert len(result.reports) == 6  # the triangle fails the PP filter
        assert result.counterexamples == ()
        texts = [r.clutter for r in result.reports]
        assert TRIANGLE_TEXT not in texts
        assert "v: x1 x2\ne: x1 x2\n" in texts

    def test_hash_deterministic(self):
        a = scan_conforti_cornuejols(CorpusSpec(3, uniform_size=2))
        b = scan_conforti_cornuejols(CorpusSpec(3, uniform_size=2))
        assert report_hash(a.reports) == report_hash(b.reports)


class TestReports:
    def test_empty_json(self):
        assert emit_report([], format="json") == b'{"version":1,"reports":[]}'

    def test_round_trip(self):
        report = check_properties(TRIANGLE)
        blob = emit_report([report])
        back = read_report(blob)
        assert emit_report(back) == blob

    def test_csv_and_text(self):
        report = check_properties(TRIANGLE, props=("konig",))
        csv_blob = emit_report([report], format="csv").decode()
        assert csv_blob.splitlines()[0] == "clutter,property,value,bound,witness"
        assert "konig" in csv_blob
        text_blob = emit_report([report], format="text").decode()
        assert "konig: False" in text_blob
        with pytest.raises(ValueError):
            emit_report([report], format="yaml")

    def test_strict_reader(self):
        report = check_properties(TRIANGLE, props=("konig",))
        payload = json.loads(emit_report([report]).decode())
        payload["reports"][0]["surprise"] = 1
        with pytest.raises(ValueError):
            read_report(json.dumps(payload).encode())
        payload = json.loads(emit_report([report]).decode())
        payload["reports"][0]["verdicts"][0]["extra"] = 1
        with pytest.raises(ValueError):
            read_report(json.dumps(payload).encode())
        payload = json.loads(emit_report([report]).decode())
        payload["version"] = 2
        with pytest.raises(ValueError):
            read_report(json.dumps(payload).encode())
        with pytest.raises(ValueError):
            read_report(b"[]")
        with pytest.raises(ValueError):
            read_report(b"not json")


    def test_reader_rejects_malformed_shapes(self):
        report = check_properties(TRIANGLE, props=("konig",))
        good = json.loads(emit_report([report]).decode())
        edits = [
            lambda p: p.update(reports={}),
            lambda p: p["reports"].append(1),
            lambda p: p["reports"][0].update(verdicts=5),
            lambda p: p["reports"][0].update(timings=[]),
            lambda p: p["reports"][0]["verdicts"].append(1),
            lambda p: p["reports"][0]["verdicts"][0].pop("name"),
            lambda p: p["reports"][0]["verdicts"][0].pop("value"),
            lambda p: (
                p["reports"][0].update(clutter=7, n="three", q=None),
                p["reports"][0]["verdicts"][0].update(name=["x"], value="yes"),
            ),
            lambda p: p["reports"][0].update(clutter=7),
            lambda p: p["reports"][0].update(q=None),
            lambda p: p["reports"][0]["verdicts"][0].update(name=["x"]),
            lambda p: p["reports"][0].update(n=True),
            lambda p: p["reports"][0]["verdicts"][0].update(value=1),
            lambda p: p["reports"][0]["verdicts"][0].update(bound="2"),
        ]
        for edit in edits:
            payload = json.loads(json.dumps(good))
            edit(payload)
            with pytest.raises(ValueError):
                read_report(json.dumps(payload).encode())

    def test_hash_ignores_timings(self):
        report = check_properties(TRIANGLE, props=("konig",))
        retimed = PropertyReport(
            clutter=report.clutter,
            vertex_count=report.vertex_count,
            edge_count=report.edge_count,
            verdicts=report.verdicts,
            timings=(("konig", 99.0),),
        )
        assert report_hash([report]) == report_hash([retimed])
        other = check_properties(TRIANGLE, props=("cm",))
        assert report_hash([report]) != report_hash([other])

    def test_timings_are_an_object(self):
        # the documented schema: property name -> seconds
        report = check_properties(TRIANGLE, props=("konig", "mfmc"))
        item = json.loads(emit_report([report]))["reports"][0]
        assert isinstance(item["timings"], dict)
        assert list(item["timings"]) == ["konig", "mfmc"]
        assert all(isinstance(s, float) for s in item["timings"].values())
        (back,) = read_report(emit_report([report]))
        assert back.timings == report.timings

    @settings(max_examples=20, deadline=None)
    @given(strategies.clutters(max_n=4, max_q=4))
    def test_round_trip_random(self, c):
        report = check_properties(c, props=("konig", "packing", "ideal"))
        blob = emit_report([report])
        assert emit_report(read_report(blob)) == blob


class TestCli:
    @pytest.fixture
    def triangle_file(self, tmp_path):
        path = tmp_path / "triangle.clt"
        path.write_text(TRIANGLE_TEXT)
        return str(path)

    def test_check_ok(self, triangle_file, capsys):
        assert main(["check", "--format", "json", triangle_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1

    def test_check_strict_negative(self, triangle_file):
        assert main(["check", "--strict", triangle_file]) == 1

    def test_check_strict_positive(self, tmp_path):
        path = tmp_path / "edge.clt"
        path.write_text("v: a b\ne: a b\n")
        assert main(["check", "--strict", str(path)]) == 0

    def test_check_usage_errors(self, triangle_file):
        assert main(["check", "--props", "bogus", triangle_file]) == 3
        assert main(["nonsense"]) == 3

    def test_check_missing_file(self):
        assert main(["check", "/nonexistent/path.clt"]) == 1

    def test_transform_round_trip(self, triangle_file, capsys):
        assert main(["transform", "whisker", "--vertex", "x1", triangle_file]) == 0
        out = capsys.readouterr().out
        c = parse_clutter(out)
        assert c.n == 4 and c.q == 4

    def test_transform_domain_error(self, triangle_file):
        assert (
            main(
                [
                    "transform",
                    "minor",
                    "--contract",
                    "x1,x2,x3",
                    triangle_file,
                ]
            )
            == 1
        )

    def test_transform_usage(self, triangle_file):
        assert main(["transform", "duplicate", triangle_file]) == 3
        assert main(["transform", "parallelize", triangle_file]) == 3
        assert (
            main(
                ["transform", "parallelize", "--weights", "a,b", triangle_file]
            )
            == 3
        )

    def test_scan_writes_report(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code = main(["scan", "--n", "3", "--d", "2", "--out", str(out)])
        assert code == 0
        reports = read_report(out.read_bytes())
        assert len(reports) == 6
        assert "0 counterexamples" in capsys.readouterr().out

    def test_scan_reports_counterexamples(self, monkeypatch, capsys):
        from clutterlab import harness

        # a packing clutter that is not normal would be reported; stand the
        # triangle in for one
        real = harness.check_properties

        def not_normal(c, bounds=None, props=None, field="Q"):
            report = real(c, bounds, props, field)
            verdicts = tuple(
                PropertyVerdict("normal", False) if v.name == "normal" else v
                for v in report.verdicts
            )
            return PropertyReport(
                report.clutter, report.vertex_count, report.edge_count, verdicts
            )

        monkeypatch.setattr(harness, "check_properties", not_normal)
        assert main(["scan", "--n", "2", "--d", "2"]) == 0
        err = capsys.readouterr().err
        assert "1 counterexamples" in err
        assert "COUNTEREXAMPLE:\nv: x1 x2\ne: x1 x2\n" in err

    def test_scan_too_large(self):
        assert main(["scan", "--n", "9", "--d", "2"]) == 4

    def test_verify_ok(self, capsys):
        assert main(["verify", "--n", "2", "--d", "2"]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_verify_zero_weight_bound(self, capsys):
        assert main(["verify", "--n", "3", "--d", "2", "--max-w", "0"]) == 1
        assert "weight bound" in capsys.readouterr().err

    def test_python_dash_m(self):
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": "src"}

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "clutterlab", *args],
                cwd=root, env=env, capture_output=True, text=True, timeout=300,
            )

        ok = run("verify", "--n", "3", "--d", "2")
        assert ok.returncode == 0, ok.stderr
        assert "0 violations" in ok.stdout
        too_large = run("scan", "--n", "7", "--d", "2", "--iso")
        assert too_large.returncode == 4
        assert "uniform enumeration is limited to 6 vertices" in too_large.stderr
