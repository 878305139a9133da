"""Vertex covers, matchings, and the packing property.

A vertex cover (transversal) meets every edge; the covering number alpha0
is the least cover size and equals the height of the corresponding
square-free monomial ideal.  A matching is a set of pairwise disjoint
edges; the matching number beta1 is the largest matching size.  Always
beta1 <= alpha0; the clutter has the Konig property when they are equal,
and the packing property when every minor (including itself) has the Konig
property.

Conventions for the empty clutter: alpha0 = beta1 = 0, Konig holds, and
the packing property holds (its only minor is itself).

A vertex v on exactly one edge e of a clutter H never needs contracting
when the packing property is decided, because H and H / v have equal
alpha0 and beta1.  A cover of H through v may take another vertex of e
instead, and a cover of H / v meets e - v, so it meets e and every edge
holding e - v.  A matching of H trades e, or the one edge that holds
e - v, for e - v; a matching of H / v trades e - v back for e.  Deleting
or contracting other vertices adds no edge through v, so v stays on one
edge, or on none (then H / v = H), in every minor where it is kept.
Grafts and whiskers bring many such vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import Clutter, _guard_vertices, _integer, _vertex_vector, minor


@lru_cache(maxsize=None)
def minimal_vertex_covers(c: Clutter) -> tuple[tuple[int, ...], ...]:
    """All inclusion-minimal vertex covers, as sorted index tuples.

    Exact branching search: repeatedly branch on the vertices of the first
    uncovered edge.  Every minimal cover appears as a leaf; non-minimal
    leaves are filtered afterwards.  The family is returned sorted by size
    then lexicographically.
    """
    found: set[frozenset[int]] = set()
    edges = c.edge_sets()

    def extend(chosen: frozenset[int], remaining: list[frozenset[int]]):
        uncovered = [e for e in remaining if not (e & chosen)]
        if not uncovered:
            found.add(chosen)
            return
        first = min(uncovered, key=sorted)
        for v in sorted(first):
            extend(chosen | {v}, uncovered)

    extend(frozenset(), edges)
    minimal = [s for s in found if not any(t < s for t in found)]
    return tuple(sorted((tuple(sorted(s)) for s in minimal), key=lambda t: (len(t), t)))


def _edge_masks(c: Clutter) -> list[int]:
    return [sum(1 << i for i in e) for e in c.edges]


def _cover_number(masks) -> int:
    """Least number of vertices meeting every edge mask, by branch and bound."""
    if not masks:
        return 0
    support = 0
    for m in masks:
        support |= m
    best = support.bit_count()  # all vertices: always a cover

    def search(chosen_size: int, uncovered: list[int]):
        nonlocal best
        if not uncovered:
            best = min(best, chosen_size)
            return
        # a set of pairwise disjoint uncovered edges lower-bounds the cover size
        used = disjoint = 0
        for e in uncovered:
            if not e & used:
                used |= e
                disjoint += 1
        if chosen_size + disjoint >= best:
            return
        rest = min(uncovered, key=int.bit_count)
        while rest:
            low = rest & -rest
            search(chosen_size + 1, [e for e in uncovered if not e & low])
            rest ^= low

    search(0, list(masks))
    return best


def _matching_number(masks) -> int:
    """Largest number of pairwise disjoint edge masks, by exact search."""
    masks = list(masks)
    if not masks:
        return 0
    min_size = min(m.bit_count() for m in masks)
    support = 0
    for m in masks:
        support |= m

    # greedy initial bound
    best = 0
    used = 0
    for m in masks:
        if not (m & used):
            used |= m
            best += 1

    def search(idx: int, used: int, count: int, remaining: int):
        nonlocal best
        if count > best:
            best = count
        free = support & ~used
        cap = count + min(remaining, free.bit_count() // min_size)
        if cap <= best:
            return
        for k in range(idx, len(masks)):
            m = masks[k]
            if not (m & used):
                search(k + 1, used | m, count + 1, remaining - (k + 1 - idx))

    search(0, 0, 0, len(masks))
    return best


@lru_cache(maxsize=None)
def covering_number(c: Clutter) -> int:
    """alpha0: least size of a vertex cover, by direct branch and bound.

    Deliberately independent of minimal_vertex_covers so the two routes can
    cross-check each other.
    """
    return _cover_number(_edge_masks(c))


@lru_cache(maxsize=None)
def matching_number(c: Clutter) -> int:
    """beta1: largest number of pairwise disjoint edges (exact search)."""
    return _matching_number(_edge_masks(c))


@lru_cache(maxsize=None)
def has_konig(c: Clutter) -> bool:
    """True when the covering and matching numbers coincide."""
    return covering_number(c) == matching_number(c)


def weighted_cover_number(c: Clutter, weights) -> int:
    """tau_w: min over minimal covers C of sum(w_i for i in C).

    This is the covering number of the parallelization of c by w, computed
    without building the parallelization.
    """
    w = _vertex_vector(c, weights)
    covers = minimal_vertex_covers(c)
    if not covers:
        return 0
    return min(sum(w[i] for i in cover) for cover in covers)


def _packing(c: Clutter, w: tuple[int, ...], k: int) -> list[int] | None:
    """Indices of k edges, repeats allowed, loading each vertex i at most
    w_i; None when there are none.

    Depth-first search over edge multisets in index order, pruned when the
    capacity left cannot hold the edges still to place (sum(w) < k * least
    edge size).  The first multiset found is returned, in nondecreasing
    index order.  Nothing is cached.
    """
    cap = list(w)
    edges = c.edges
    smallest = min((len(e) for e in edges), default=1)
    chosen: list[int] = []

    def search(left: int, j0: int, total: int) -> bool:
        if left <= 0:
            return True
        if total < left * smallest:
            return False
        for j in range(j0, len(edges)):
            e = edges[j]
            if all(cap[i] for i in e):
                for i in e:
                    cap[i] -= 1
                chosen.append(j)
                if search(left - 1, j, total - len(e)):
                    return True
                chosen.pop()
                for i in e:
                    cap[i] += 1
        return False

    return chosen if search(k, 0, sum(cap)) else None


def packs(c: Clutter, weights, k: int) -> bool:
    """nu_w >= k: some multiset of k edges loads each vertex i at most w_i.

    In the edge ideal this is x^w in I^k.
    """
    return _packing(c, _vertex_vector(c, weights), _integer(k, "k")) is not None


@dataclass(frozen=True, slots=True)
class MinorWitness:
    """A minor failing the Konig property, with its two numbers."""

    deleted: tuple[str, ...]
    contracted: tuple[str, ...]
    minor: Clutter
    alpha0: int
    beta1: int


@dataclass(frozen=True, slots=True)
class PackingVerdict:
    holds: bool
    witness: MinorWitness | None = None


_KEEP, _DELETE, _CONTRACT = 0, 1, 2


def _delete(edges: frozenset[int], bit: int) -> frozenset[int]:
    return frozenset(e for e in edges if not e & bit)


def _contract(edges: frozenset[int], bit: int) -> frozenset[int] | None:
    """Clear the bit from every edge and keep the inclusion-minimal masks;
    None when an edge vanishes (the unit ideal).

    The edges are an antichain, so the only comparable pairs left are a
    shrunk edge inside an edge that never held the bit.
    """
    shrunk = [e ^ bit for e in edges if e & bit]
    if 0 in shrunk:
        return None
    kept = [e for e in edges if not e & bit and not any(s & e == s for s in shrunk)]
    return frozenset(shrunk + kept)


def has_packing_property(c: Clutter, max_vertices: int = 15) -> PackingVerdict:
    """Decide the packing property: every minor satisfies Konig.

    Minors are indexed by assignments in {keep, delete, contract}^n over the
    vertex order; assignments that contract an entire edge away (unit ideal)
    are skipped.  On failure the witness is the lexicographically first
    failing assignment, with keep < delete < contract.

    The search walks the assignment tree vertex by vertex on edge bitmasks
    over the original vertex indices, which is equivalent to enumerating all
    3^n assignments because deletions and contractions of distinct vertices
    commute; vertices on no edge are passed over.  Edges that are pairwise
    disjoint end the branch at once: every minor of a matching is a
    matching, so Konig.  A vertex on exactly one edge of the current minor
    is not contracted: in every completion it still lies on at most one
    edge, so contracting it changes neither alpha0 nor beta1 (module
    docstring), that branch fails only where keeping the vertex fails, and
    keep comes first in the witness order.  The answer depends only on the
    edge masks and on which of their vertices are still to be decided, so
    the per-call memo is keyed on exactly that pair.  Only the witness
    minor is built as a Clutter.
    """
    _guard_vertices(c.n, max_vertices, "packing property")
    n = c.n
    memo: dict[tuple[frozenset[int], int], bool] = {}

    def fails(edges: frozenset[int], i: int) -> bool:
        support = size = 0
        for e in edges:
            support |= e
            size += e.bit_count()
        if size == support.bit_count():
            return False  # pairwise disjoint: a matching, and so is every minor
        ahead = support >> i << i
        key = (edges, ahead)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if not ahead:
            result = _cover_number(edges) != _matching_number(edges)
        else:
            bit = ahead & -ahead
            nxt = bit.bit_length()
            deleted = _delete(edges, bit)
            result = fails(edges, nxt) or fails(deleted, nxt)  # keep, delete
            # A vertex v on one edge e is never contracted.  Later steps add
            # no edge through v, so in each completion H it lies on e or on
            # nothing, and H / v has the same alpha0 (a cover uses a vertex of
            # e - v in place of v) and beta1 (a matching swaps e, or the one
            # edge holding e - v, for e - v): contract fails only where keep
            # does, and keep is first in the witness order.
            if not result and len(edges) - len(deleted) > 1:
                contracted = _contract(edges, bit)
                # None: every completion of this prefix is the unit ideal
                result = contracted is not None and fails(contracted, nxt)
        memo[key] = result
        return result

    cur = frozenset(_edge_masks(c))
    if not fails(cur, 0):
        return PackingVerdict(holds=True)

    # Reconstruct the lexicographically first failing assignment by always
    # taking the smallest branch whose subtree contains a failure.
    assignment: list[int] = []
    for i in range(n):
        bit = 1 << i
        if not any(e & bit for e in cur) or fails(cur, i + 1):
            assignment.append(_KEEP)
            continue
        deleted = _delete(cur, bit)
        if fails(deleted, i + 1):
            assignment.append(_DELETE)
            cur = deleted
            continue
        assignment.append(_CONTRACT)
        cur = _contract(cur, bit)
    order = c.vertices
    deleted_labels = tuple(order[i] for i, t in enumerate(assignment) if t == _DELETE)
    contracted_labels = tuple(order[i] for i, t in enumerate(assignment) if t == _CONTRACT)
    witness_minor = minor(c, deleted=deleted_labels, contracted=contracted_labels)
    return PackingVerdict(
        holds=False,
        witness=MinorWitness(
            deleted=deleted_labels,
            contracted=contracted_labels,
            minor=witness_minor,
            alpha0=covering_number(witness_minor),
            beta1=matching_number(witness_minor),
        ),
    )
