"""Hypothesis strategies and seeded random generators for clutters."""

import random
from itertools import combinations

from hypothesis import strategies as st

from clutterlab import adjoin_whisker_edge, graft, make_clutter, parallelization


def _minimal_antichain(edge_sets):
    unique = []
    for e in edge_sets:
        if e not in unique:
            unique.append(e)
    return [e for e in unique if not any(f < e for f in unique)]


def _build(n, edge_sets):
    labels = [f"x{i}" for i in range(1, n + 1)]
    edges = [[labels[i] for i in sorted(e)] for e in _minimal_antichain(edge_sets)]
    return make_clutter(labels, edges)


@st.composite
def clutters(draw, max_n=5, max_q=5, max_edge_size=None):
    n = draw(st.integers(min_value=1, max_value=max_n))
    top = max_edge_size or n
    pool = [
        frozenset(s)
        for k in range(1, min(top, n) + 1)
        for s in combinations(range(n), k)
    ]
    picked = draw(
        st.lists(
            st.sampled_from(pool), min_size=1, max_size=min(max_q, len(pool))
        )
    )
    return _build(n, picked)


@st.composite
def uniform_clutters(draw, max_n=5, size=2, max_q=6):
    n = draw(st.integers(min_value=size, max_value=max_n))
    pool = [frozenset(s) for s in combinations(range(n), size)]
    picked = draw(
        st.lists(
            st.sampled_from(pool),
            min_size=1,
            max_size=min(max_q, len(pool)),
            unique=True,
        )
    )
    return _build(n, picked)


@st.composite
def pure_complex_clutters(draw, max_n=6):
    """The clutter of minimal non-faces of a random pure complex: its
    independence complex is that complex, so unmixed clutters that are and
    are not Cohen-Macaulay both come up often."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n - 1))
    facets = draw(
        st.lists(
            st.sampled_from([frozenset(s) for s in combinations(range(n), k)]),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    non_faces = [
        frozenset(s)
        for size in range(1, n + 1)
        for s in combinations(range(n), size)
        if not any(frozenset(s) <= f for f in facets)
    ]
    return _build(n, non_faces)


@st.composite
def whiskered_clutters(draw, max_n=8):
    """A clutter with whisker edges adjoined, at most ``max_n`` vertices in
    all: every whisker brings fresh vertices that lie on one edge only."""
    c = draw(clutters(max_n=max_n - 1, max_q=5))
    while c.n < max_n and draw(st.booleans()):
        vertex = draw(st.sampled_from(c.vertices))
        length = draw(st.integers(min_value=1, max_value=min(2, max_n - c.n)))
        c = adjoin_whisker_edge(c, vertex, length)
    return c


@st.composite
def derived_clutters(draw, max_n=4):
    """A clutter as the theorem suite derives it from a corpus clutter on at
    most ``max_n`` vertices: a parallelization by weights in {0, 1, 2}, a
    clutter with whisker edges, or the graft of a uniform clutter."""
    kind = draw(st.sampled_from(["parallelization", "whiskers", "graft"]))
    if kind == "parallelization":
        c = draw(clutters(max_n=max_n, max_q=4))
        w = draw(st.lists(st.integers(0, 2), min_size=c.n, max_size=c.n))
        return parallelization(c, w)
    if kind == "whiskers":
        return draw(whiskered_clutters(max_n=max_n + 3))
    size = draw(st.integers(min_value=2, max_value=3))
    return graft(draw(uniform_clutters(max_n=max_n, size=size, max_q=4)))


def random_clutter(rng: random.Random, max_n=5, max_q=5):
    """Seeded generator for reproducible randomized sweeps."""
    n = rng.randint(1, max_n)
    pool = [
        frozenset(s)
        for k in range(1, n + 1)
        for s in combinations(range(n), k)
    ]
    count = rng.randint(1, min(max_q, len(pool)))
    picked = rng.sample(pool, count)
    return _build(n, picked)
