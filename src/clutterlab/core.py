"""Clutters and their structural transformations.

A clutter is a finite set of labelled vertices together with a family of
edges (vertex subsets) none of which contains another.  Clutters encode
square-free monomial ideals: the edge {a, b, c} stands for the generator
a*b*c, a vertex cover corresponds to a prime containing the ideal, and the
transformations in this module (minors, duplications, parallelizations,
grafting, whiskers) are the combinatorial shadows of the matching ideal
operations.

Representation invariants, enforced by the ``Clutter`` constructor (and by
construction in `parallelization` and `minor`, which skip its checks):

* vertex labels are unique non-empty strings, kept in a fixed order;
* every edge is a strictly increasing tuple of vertex indices;
* the edge list is non-empty-edge only, duplicate-free, lexicographically
  sorted, and an antichain (no edge contains another);
* every vertex occurs in at least one edge — vertices stranded by a
  transformation are dropped during canonicalization, so the empty clutter
  (no vertices, no edges) is the unique clutter with q = 0.

Exponent vectors and weight vectors are plain tuples of non-negative ints,
indexed by the clutter's vertex order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from operator import index


class ClutterError(Exception):
    """Base class for all domain errors raised by this package."""


class ClutterSyntaxError(ClutterError):
    """Malformed clutter text; carries 1-based ``line`` and ``column``."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class AntichainViolation(ClutterError):
    """Two presented edges are comparable; names the offending pair."""

    def __init__(self, smaller: tuple[str, ...], larger: tuple[str, ...]):
        super().__init__(
            "edge {%s} is contained in edge {%s}"
            % (" ".join(smaller), " ".join(larger))
        )
        self.smaller = smaller
        self.larger = larger


class DuplicateEdgeError(ClutterError):
    """The same edge was presented twice."""

    def __init__(self, edge: tuple[str, ...]):
        super().__init__("duplicate edge {%s}" % " ".join(edge))
        self.edge = edge


class UnknownVertexError(ClutterError):
    """A named vertex does not exist in the clutter."""


class UnitIdealError(ClutterError):
    """A minor contracted an entire edge away, producing the unit ideal."""


class NotUniformError(ClutterError):
    """The operation requires a d-uniform clutter."""


class InstanceTooLargeError(ClutterError):
    """The instance exceeds the configured size limit for this operation."""


@dataclass(frozen=True, slots=True)
class Clutter:
    """Immutable canonical clutter; see the module docstring for invariants."""

    vertices: tuple[str, ...] = ()
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        labels = self.vertices
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be unique")
        if any(not isinstance(v, str) or not v or v.split() != [v] for v in labels):
            raise ValueError("vertex labels must be non-empty tokens without whitespace")
        n = len(labels)
        used = set()
        for e in self.edges:
            if not e:
                raise ValueError("edges must be non-empty")
            if any(not (0 <= i < n) for i in e):
                raise ValueError("edge refers to a missing vertex")
            if tuple(sorted(set(e))) != e:
                raise ValueError("edges must be strictly increasing index tuples")
            used.update(e)
        if sorted(self.edges) != list(self.edges):
            raise ValueError("edge list must be lexicographically sorted")
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("edge list must be duplicate-free")
        sets = [frozenset(e) for e in self.edges]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if i != j and a < b:
                    raise ValueError("edge list must be an antichain")
        if used != set(range(n)):
            raise ValueError("every vertex must occur in at least one edge")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def q(self) -> int:
        return len(self.edges)

    def index_of(self, label: str) -> int:
        try:
            return self.vertices.index(label)
        except ValueError:
            raise UnknownVertexError(f"no vertex named {label!r}") from None

    def edge_sets(self) -> list[frozenset[int]]:
        return [frozenset(e) for e in self.edges]

    def characteristic_vector(self, j: int) -> tuple[int, ...]:
        """0/1 exponent vector of edge j."""
        members = set(self.edges[j])
        return tuple(1 if i in members else 0 for i in range(self.n))


def _canonical(labels, edge_index_sets, *, minimalize: bool) -> Clutter:
    """Build a canonical Clutter from labels and edge index sets.

    Drops duplicate edges, optionally reduces to inclusion-minimal edges,
    and removes vertices left in no edge.  Raises AntichainViolation when
    ``minimalize`` is off and two edges are strictly comparable.
    """
    sets = []
    seen = set()
    for s in edge_index_sets:
        fs = frozenset(s)
        if fs not in seen:
            seen.add(fs)
            sets.append(fs)
    if minimalize:
        sets = [s for s in sets if not any(t < s for t in seen)]
    else:
        for a in sets:
            for b in sets:
                if a < b:
                    raise AntichainViolation(
                        tuple(sorted(labels[i] for i in a)),
                        tuple(sorted(labels[i] for i in b)),
                    )
    used = set()
    for s in sets:
        used.update(s)
    kept = [i for i in range(len(labels)) if i in used]
    remap = {old: new for new, old in enumerate(kept)}
    new_labels = tuple(labels[i] for i in kept)
    new_edges = tuple(sorted(tuple(sorted(remap[i] for i in s)) for s in sets))
    return Clutter(new_labels, new_edges)


def _trusted(labels, edges) -> Clutter:
    """The Clutter on ``labels`` with the given edges, built without the
    constructor's checks, for a transformation whose edges hold the
    invariants by construction: strictly increasing index tuples, pairwise
    distinct and incomparable.  Vertices left in no edge are dropped, and
    the edges are sorted.
    """
    used = sorted(set().union(*edges))
    if len(used) < len(labels):
        remap = {old: new for new, old in enumerate(used)}
        labels = [labels[i] for i in used]
        edges = [tuple(remap[i] for i in e) for e in edges]
    c = object.__new__(Clutter)
    object.__setattr__(c, "vertices", tuple(labels))
    object.__setattr__(c, "edges", tuple(sorted(edges)))
    return c


def make_clutter(vertices, edges) -> Clutter:
    """Construct a clutter from vertex labels and edges given as label sets.

    Vertices that end up in no edge are dropped.  Duplicate edges raise
    DuplicateEdgeError; comparable edges raise AntichainViolation.
    """
    labels = tuple(vertices)
    index = {v: i for i, v in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("vertex labels must be unique")
    sets = []
    seen = set()
    for edge in edges:
        members = []
        for v in edge:
            if v not in index:
                raise UnknownVertexError(f"no vertex named {v!r}")
            members.append(index[v])
        fs = frozenset(members)
        if not fs:
            raise ValueError("edges must be non-empty")
        if fs in seen:
            raise DuplicateEdgeError(tuple(sorted(labels[i] for i in fs)))
        seen.add(fs)
        sets.append(fs)
    return _canonical(labels, sets, minimalize=False)


_TOKEN = re.compile(r"\S+")


def parse_clutter(text: str) -> Clutter:
    """Parse the line-oriented clutter format.

    The format is UTF-8 text: optional blank lines and whole-line comments
    starting with ``#``, exactly one ``v:`` line listing the vertex labels,
    then one ``e:`` line per edge.  Errors report 1-based line and column.
    """
    labels: list[str] | None = None
    label_index: dict[str, int] = {}
    edges: list[frozenset[int]] = []
    seen_edges: set[frozenset[int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("v:"):
            if labels is not None:
                raise ClutterSyntaxError("second v: line", lineno, line.find("v:") + 1)
            labels = []
            for m in _TOKEN.finditer(line, line.find("v:") + 2):
                tok = m.group()
                if tok in label_index:
                    raise ClutterSyntaxError(
                        f"duplicate vertex label {tok!r}", lineno, m.start() + 1
                    )
                label_index[tok] = len(labels)
                labels.append(tok)
        elif stripped.startswith("e:"):
            if labels is None:
                raise ClutterSyntaxError("edge before v: line", lineno, 1)
            members: list[int] = []
            for m in _TOKEN.finditer(line, line.find("e:") + 2):
                tok = m.group()
                if tok not in label_index:
                    raise ClutterSyntaxError(
                        f"unknown vertex {tok!r}", lineno, m.start() + 1
                    )
                if label_index[tok] in members:
                    raise ClutterSyntaxError(
                        f"vertex {tok!r} repeated in edge", lineno, m.start() + 1
                    )
                members.append(label_index[tok])
            if not members:
                raise ClutterSyntaxError("empty edge", lineno, 1)
            fs = frozenset(members)
            if fs in seen_edges:
                raise DuplicateEdgeError(tuple(sorted(labels[i] for i in fs)))
            seen_edges.add(fs)
            edges.append(fs)
        else:
            raise ClutterSyntaxError(
                f"expected 'v:' or 'e:' directive, got {stripped.split()[0]!r}",
                lineno,
                len(line) - len(line.lstrip()) + 1,
            )
    if labels is None:
        raise ClutterSyntaxError("missing v: line", max(1, text.count(chr(10)) + 1), 1)
    return _canonical(tuple(labels), edges, minimalize=False)


def serialize_clutter(c: Clutter) -> str:
    """Canonical text form.  parse_clutter(serialize_clutter(c)) == c."""
    lines = ["v: " + " ".join(c.vertices) if c.vertices else "v:"]
    for e in c.edges:
        lines.append("e: " + " ".join(c.vertices[i] for i in e))
    return "\n".join(lines) + "\n"


def minor(c: Clutter, deleted=(), contracted=()) -> Clutter:
    """Minor by deleting and contracting disjoint vertex sets.

    Deletion of v removes every edge through v (the substitution v = 0);
    contraction removes v from every remaining edge (v = 1), after which the
    edge set is reduced to its inclusion-minimal members.  Contracting an
    entire edge away yields the unit ideal, which is not a clutter: that
    raises UnitIdealError.  minor(c) with empty sets is c itself.
    """
    del_idx = frozenset(c.index_of(v) for v in deleted)
    con_idx = frozenset(c.index_of(v) for v in contracted)
    if del_idx & con_idx:
        raise ValueError("deleted and contracted sets must be disjoint")
    edges = []
    for e in c.edges:
        if del_idx.isdisjoint(e):
            shrunk = tuple(i for i in e if i not in con_idx)
            if not shrunk:
                raise UnitIdealError(
                    "edge {%s} contracted away entirely"
                    % " ".join(sorted(c.vertices[i] for i in e))
                )
            edges.append(shrunk)
    if con_idx:
        # contraction can make edges equal or comparable: keep one copy of
        # each inclusion-minimal edge
        sets = {frozenset(e): e for e in edges}
        edges = [e for s, e in sets.items() if not any(t < s for t in sets)]
    return _trusted(c.vertices, edges)


def _copy_base(label: str) -> str:
    """Strip one trailing '#<number>' copy suffix, if present."""
    head, sep, tail = label.rpartition("#")
    if sep and tail.isdigit():
        return head
    return label


def duplicate(c: Clutter, vertex: str) -> Clutter:
    """Duplicate one vertex: add a copy v' and the edges (e - v) + v'.

    The copy is labelled base#k for the smallest free k >= 2, where base is
    the vertex's label with any existing copy suffix removed.
    """
    i = c.index_of(vertex)
    base = _copy_base(vertex)
    taken = set(c.vertices)
    k = 2
    while f"{base}#{k}" in taken:
        k += 1
    labels = c.vertices + (f"{base}#{k}",)
    new = len(c.vertices)
    sets = c.edge_sets()
    extra = [(e - {i}) | {new} for e in sets if i in e]
    return _canonical(labels, sets + extra, minimalize=False)


def _vertex_vector(c: Clutter, values, what: str = "weights") -> tuple[int, ...]:
    """A weight or exponent vector: one non-negative int per vertex; a float
    or a string is refused, not truncated or parsed."""
    try:
        vec = tuple(map(index, values))
    except TypeError as exc:
        raise ValueError(f"{what} must be a sequence of integers ({exc})") from None
    if len(vec) != c.n:
        raise ValueError(f"expected {c.n} {what}, got {len(vec)}")
    if any(x < 0 for x in vec):
        raise ValueError(f"{what} must be non-negative")
    return vec


def _integer(value, what: str) -> int:
    """A count such as a power or a bound: an int, by `operator.index`; a
    float or a string is refused, not truncated or parsed."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _guard_vertices(n: int, max_vertices, what: str) -> None:
    """Refuse an instance on more than ``max_vertices`` vertices, an integer
    limit; ``what`` names the check in the message."""
    max_vertices = _integer(max_vertices, "max_vertices")
    if n > max_vertices:
        raise InstanceTooLargeError(
            f"{what} limited to {max_vertices} vertices (got {n})"
        )


def _guard_box(n: int, bound, max_boxes, what: str, points: str) -> int:
    """The bound of a box scan {0..bound}^n as an int, once it is positive
    and the box holds at most ``max_boxes`` points; ``what`` names the bound
    and ``points`` the box's points in the messages."""
    bound = _integer(bound, f"the {what} bound")
    max_boxes = _integer(max_boxes, "max_boxes")
    if bound < 1:
        raise ValueError(f"the {what} bound must be positive")
    if (bound + 1) ** n > max_boxes:
        raise InstanceTooLargeError(
            f"{(bound + 1) ** n} {points} exceed the limit of {max_boxes}"
        )
    return bound


def _earlier_twins(n: int, edges) -> list[int]:
    """The nearest twin i < j of each vertex j, or -1 when it has none.

    Vertices i and j are twins when swapping them maps edges to edges, that
    is, when every edge holding just one of them is matched by the edge that
    holds the other instead.  Twins are an equivalence (the swap (i k) is
    (j k)(i j)(j k)), and each copy a parallelization makes is a twin of its
    original.  Read off the edges alone, so the twins are label-free.
    """
    masks = {sum(1 << v for v in e) for e in edges}
    earlier = [-1] * n
    for j in range(n):
        for i in reversed(range(j)):
            both = 1 << i | 1 << j
            if all((m & both) in (0, both) or m ^ both in masks for m in masks):
                earlier[j] = i
                break
    return earlier


def parallelization(c: Clutter, weights) -> Clutter:
    """Replace vertex i by w_i parallel copies (w_i = 0 deletes it).

    Copy j of a vertex labelled v is labelled v for j = 1 and v#j for
    j >= 2.  Each surviving edge e (one whose vertices all have positive
    weight) expands to the prod(w_i, i in e) edges obtained by choosing one
    copy per vertex.  Weight 1 everywhere returns c itself.
    """
    w = _vertex_vector(c, weights)
    taken = set(c.vertices)
    labels: list[str] = []
    copies: list[list[int]] = []
    for i, v in enumerate(c.vertices):
        mine: list[int] = []
        j = 1
        while len(mine) < w[i]:
            name = v if j == 1 else f"{v}#{j}"
            j += 1
            if name != v and name in taken:
                # an unrelated original vertex owns this label; skip past it
                continue
            mine.append(len(labels))
            labels.append(name)
        copies.append(mine)
    # one copy per vertex of an edge: the copies of distinct edges are
    # distinct and incomparable, and each tuple is increasing because the
    # copies are numbered in vertex order
    edges = []
    for e in c.edges:
        if all(w[i] for i in e):
            edges.extend(product(*[copies[i] for i in e]))
    return _trusted(labels, edges)


def is_uniform(c: Clutter):
    """The common edge size d when the clutter is d-uniform, else None.

    The empty clutter has no edge size and is reported as not uniform.
    """
    if not c.edges:
        return None
    sizes = {len(e) for e in c.edges}
    if len(sizes) == 1:
        return sizes.pop()
    return None


def _fresh_prefix(base: str, existing: set[str], candidates) -> str:
    """Smallest repetition of ``base`` making every candidate label fresh."""
    prefix = base
    while any(f"{prefix}{suffix}" in existing for suffix in candidates):
        prefix += base
    return prefix


def graft(c: Clutter, d: int | None = None) -> Clutter:
    """Graft a d-uniform clutter: hang a fresh (d-1)-whisker on each vertex.

    For each vertex x_i this adds d-1 new vertices and the edge
    {x_i, y_i_1, ..., y_i_{d-1}}.  For d = 1 the added edges duplicate the
    existing singletons and the clutter is returned unchanged.  Raises
    NotUniformError when the clutter is not d-uniform.
    """
    actual = is_uniform(c)
    if actual is None:
        raise NotUniformError("grafting requires a d-uniform clutter")
    if d is not None and _integer(d, "d") != actual:
        raise NotUniformError(f"clutter is {actual}-uniform, not {d}-uniform")
    d = actual
    if d == 1:
        return c
    suffixes = [f"{i + 1}_{j + 1}" for i in range(c.n) for j in range(d - 1)]
    prefix = _fresh_prefix("y", set(c.vertices), suffixes)
    labels = list(c.vertices)
    sets = c.edge_sets()
    for i in range(c.n):
        fresh = []
        for j in range(d - 1):
            fresh.append(len(labels))
            labels.append(f"{prefix}{i + 1}_{j + 1}")
        sets.append(frozenset([i] + fresh))
    return _canonical(tuple(labels), sets, minimalize=False)


def adjoin_whisker_edge(c: Clutter, vertex: str, length: int) -> Clutter:
    """Adjoin one whisker edge {v, z_1, ..., z_l} on fresh vertices.

    Corresponds to passing from the ideal I to (I, v*z_1*...*z_l).  If {v}
    is already an edge the new edge is redundant and c is returned
    unchanged.
    """
    length = _integer(length, "whisker length")
    if length < 1:
        raise ValueError("whisker length must be >= 1")
    i = c.index_of(vertex)
    suffixes = [str(k + 1) for k in range(length)]
    prefix = _fresh_prefix("z", set(c.vertices), suffixes)
    labels = list(c.vertices)
    fresh = []
    for k in range(length):
        fresh.append(len(labels))
        labels.append(f"{prefix}{k + 1}")
    sets = c.edge_sets() + [frozenset([i] + fresh)]
    return _canonical(tuple(labels), sets, minimalize=True)
