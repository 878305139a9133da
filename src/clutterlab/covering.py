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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import Clutter, InstanceTooLargeError, UnitIdealError, _vertex_vector, minor


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


@lru_cache(maxsize=None)
def covering_number(c: Clutter) -> int:
    """alpha0: least size of a vertex cover, by direct branch and bound.

    Deliberately independent of minimal_vertex_covers so the two routes can
    cross-check each other.
    """
    edges = c.edge_sets()
    if not edges:
        return 0
    best = len({v for e in edges for v in e})  # all vertices: always a cover

    def greedy_disjoint(uncovered) -> int:
        # a set of pairwise disjoint uncovered edges lower-bounds the cover size
        used: set[int] = set()
        count = 0
        for e in uncovered:
            if not (e & used):
                used |= e
                count += 1
        return count

    def search(chosen_size: int, uncovered: list[frozenset[int]]):
        nonlocal best
        if not uncovered:
            best = min(best, chosen_size)
            return
        if chosen_size + greedy_disjoint(uncovered) >= best:
            return
        first = min(uncovered, key=sorted)
        for v in sorted(first):
            search(chosen_size + 1, [e for e in uncovered if v not in e])

    search(0, edges)
    return best


@lru_cache(maxsize=None)
def matching_number(c: Clutter) -> int:
    """beta1: largest number of pairwise disjoint edges (exact search)."""
    masks = [sum(1 << i for i in e) for e in c.edges]
    if not masks:
        return 0
    min_size = min(len(e) for e in c.edges)
    all_vertices = (1 << c.n) - 1

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
        free = all_vertices & ~used
        cap = count + min(remaining, free.bit_count() // min_size)
        if cap <= best:
            return
        for k in range(idx, len(masks)):
            m = masks[k]
            if not (m & used):
                search(k + 1, used | m, count + 1, remaining - (k + 1 - idx))
        return

    search(0, 0, 0, len(masks))
    return best


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


def packs(c: Clutter, weights, k: int) -> bool:
    """nu_w >= k: some multiset of k edges loads each vertex i at most w_i.

    In the edge ideal this is x^w in I^k.  Depth-first search over edge
    multisets in index order, pruned when the capacity left cannot hold the
    edges still to place (sum(w) < k * least edge size).  Nothing is cached.
    """
    cap = list(_vertex_vector(c, weights))
    if k <= 0:
        return True
    edges = c.edges
    smallest = min((len(e) for e in edges), default=1)

    def search(left: int, j0: int, total: int) -> bool:
        if left == 0:
            return True
        if total < left * smallest:
            return False
        for j in range(j0, len(edges)):
            e = edges[j]
            if all(cap[i] for i in e):
                for i in e:
                    cap[i] -= 1
                found = search(left - 1, j, total - len(e))
                for i in e:
                    cap[i] += 1
                if found:
                    return True
        return False

    return search(k, 0, sum(cap))


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


def has_packing_property(c: Clutter, max_vertices: int = 14) -> PackingVerdict:
    """Decide the packing property: every minor satisfies Konig.

    Minors are indexed by assignments in {keep, delete, contract}^n over the
    vertex order; assignments that contract an entire edge away (unit ideal)
    are skipped.  On failure the witness is the lexicographically first
    failing assignment, with keep < delete < contract.

    The search walks the assignment tree vertex by vertex, memoizing on the
    intermediate minor, which is equivalent to enumerating all 3^n
    assignments because deletions and contractions of distinct vertices
    commute.
    """
    if c.n > max_vertices:
        raise InstanceTooLargeError(
            f"packing property limited to {max_vertices} vertices (got {c.n})"
        )
    order = c.vertices
    memo: dict[tuple[Clutter, int], bool] = {}

    def fails(cur: Clutter, i: int) -> bool:
        if i == len(order):
            return not has_konig(cur)
        key = (cur, i)
        hit = memo.get(key)
        if hit is not None:
            return hit
        v = order[i]
        if v not in cur.vertices:
            result = fails(cur, i + 1)
        else:
            result = fails(cur, i + 1)  # keep
            if not result:
                result = fails(minor(cur, deleted=(v,)), i + 1)
            if not result:
                try:
                    contracted = minor(cur, contracted=(v,))
                except UnitIdealError:
                    pass  # every completion of this prefix is the unit ideal
                else:
                    result = fails(contracted, i + 1)
        memo[key] = result
        return result

    if not fails(c, 0):
        return PackingVerdict(holds=True)

    # Reconstruct the lexicographically first failing assignment by always
    # taking the smallest branch whose subtree contains a failure.
    assignment: list[int] = []
    cur = c
    for i, v in enumerate(order):
        if v not in cur.vertices:
            assignment.append(_KEEP)
            continue
        if fails(cur, i + 1):
            assignment.append(_KEEP)
            continue
        deleted = minor(cur, deleted=(v,))
        if fails(deleted, i + 1):
            assignment.append(_DELETE)
            cur = deleted
            continue
        assignment.append(_CONTRACT)
        cur = minor(cur, contracted=(v,))
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

