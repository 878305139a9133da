"""Independent brute-force reference implementations.

Everything here is written from the definitions, with no shared code paths
into the package beyond plain data access (vertex labels and edge index
tuples).  Deliberately naive: exhaustive subset scans, dense matrices,
vertex enumeration instead of simplex.  Only usable on tiny instances.
"""

from fractions import Fraction
from itertools import combinations, permutations, product


def _edge_sets(c):
    return [frozenset(e) for e in c.edges]


def _is_cover(edge_sets, chosen):
    return all(e & chosen for e in edge_sets)


def brute_minimal_covers(c):
    """All minimal vertex covers as label tuples, sorted by (size, lex)."""
    edge_sets = _edge_sets(c)
    covers = [
        frozenset(s)
        for k in range(c.n + 1)
        for s in combinations(range(c.n), k)
        if _is_cover(edge_sets, frozenset(s))
    ]
    minimal = [
        s for s in covers if not any(t < s for t in covers)
    ]
    labeled = [tuple(c.vertices[i] for i in sorted(s)) for s in minimal]
    return sorted(labeled, key=lambda t: (len(t), t))


def brute_covering_number(c):
    edge_sets = _edge_sets(c)
    for k in range(c.n + 1):
        for s in combinations(range(c.n), k):
            if _is_cover(edge_sets, frozenset(s)):
                return k
    raise AssertionError("some subset always covers")


def brute_matching_number(c):
    edge_sets = _edge_sets(c)
    best = 0
    for k in range(len(edge_sets), 0, -1):
        for chosen in combinations(edge_sets, k):
            if all(
                not (a & b) for a, b in combinations(chosen, 2)
            ):
                return k
    return best


def brute_weighted_cover(c, weights):
    """min sum of weights over vertex covers (weights indexed like vertices)."""
    edge_sets = _edge_sets(c)
    best = None
    for k in range(c.n + 1):
        for s in combinations(range(c.n), k):
            if _is_cover(edge_sets, frozenset(s)):
                total = sum(weights[i] for i in s)
                if best is None or total < best:
                    best = total
    return best


def brute_max_packing(c, weights):
    """max total edge multiplicity subject to per-vertex capacities."""
    edges = [tuple(e) for e in c.edges]
    best = 0

    def recurse(j, capacity, total):
        nonlocal best
        if total + sum(
            min(capacity[v] for v in e) for e in edges[j:]
        ) <= best:
            return
        if j == len(edges):
            best = max(best, total)
            return
        limit = min(capacity[v] for v in edges[j])
        for y in range(limit, -1, -1):
            if y:
                nxt = list(capacity)
                for v in edges[j]:
                    nxt[v] -= y
                recurse(j + 1, nxt, total + y)
            else:
                recurse(j + 1, capacity, total)

    recurse(0, list(weights), 0)
    return best


def brute_konig(c):
    return brute_covering_number(c) == brute_matching_number(c)


def _minor_edges(edge_sets, deleted, contracted):
    """Deletion/contraction on raw index sets; None when a unit ideal appears."""
    kept = []
    for e in edge_sets:
        if e & deleted:
            continue
        reduced = e - contracted
        if not reduced:
            return None
        kept.append(reduced)
    minimal = [e for e in kept if not any(f < e for f in kept)]
    out = []
    for e in minimal:
        if e not in out:
            out.append(e)
    return out


def brute_packing_property(c):
    """Konig on every (deletion, contraction) minor, all from first principles."""
    edge_sets = _edge_sets(c)
    for assignment in product((0, 1, 2), repeat=c.n):
        deleted = frozenset(i for i, a in enumerate(assignment) if a == 1)
        contracted = frozenset(i for i, a in enumerate(assignment) if a == 2)
        edges = _minor_edges(edge_sets, deleted, contracted)
        if edges is None:
            continue
        alpha = _alpha_on_edges(edges)
        beta = _beta_on_edges(edges)
        if alpha != beta:
            return False
    return True


def _alpha_on_edges(edges):
    support = sorted(set().union(*edges)) if edges else []
    for k in range(len(support) + 1):
        for s in combinations(support, k):
            if all(e & set(s) for e in edges):
                return k
    return len(support)


def _beta_on_edges(edges):
    for k in range(len(edges), 0, -1):
        for chosen in combinations(edges, k):
            if all(not (a & b) for a, b in combinations(chosen, 2)):
                return k
    return 0


def brute_power_membership(c, exponents, power):
    """x^a in I^i by scanning all multisets of i edges."""
    if power == 0:
        return True
    from itertools import combinations_with_replacement

    vectors = []
    for e in c.edges:
        vectors.append(tuple(1 if v in set(e) else 0 for v in range(c.n)))
    for chosen in combinations_with_replacement(vectors, power):
        total = [sum(col) for col in zip(*chosen)]
        if all(t <= a for t, a in zip(total, exponents)):
            return True
    return False


def brute_symbolic_membership(c, exponents, power):
    """x^a in the i-th symbolic power: cover sums at least i, per cover."""
    if power == 0:
        return True
    for cover in brute_minimal_covers(c):
        index = {v: i for i, v in enumerate(c.vertices)}
        if sum(exponents[index[v]] for v in cover) < power:
            return False
    return True


def brute_power_scan(c, bound, member):
    """Bounded comparison of I^i with a larger ideal, point by point.

    For i = 1..bound, every a in {0..i}^n (lex order) that is a member of the
    larger ideal (``member(c, a, i)``) while no a - e_j is, must lie in I^i.
    Returns (certified, bound, witness) with the first failing (a, i).
    Membership answers are memoized, as each point is asked about up to n + 1
    times.
    """
    seen = {}

    def is_member(a, i):
        if (a, i) not in seen:
            seen[a, i] = member(c, a, i)
        return seen[a, i]

    for i in range(1, bound + 1):
        for a in product(range(i + 1), repeat=c.n):
            if not is_member(a, i):
                continue
            if any(
                a[j] and is_member(a[:j] + (a[j] - 1,) + a[j + 1 :], i)
                for j in range(c.n)
            ):
                continue
            if not brute_power_membership(c, a, i):
                return False, bound, (a, i)
    return True, bound, None


def brute_determinant(matrix):
    """Leibniz formula: signed sum over all permutations."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for x in range(n) for y in range(x + 1, n) if perm[x] > perm[y]
        )
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def _solve_dense(matrix, rhs):
    """Exact Gaussian elimination; None when the square system is singular."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def brute_Q_vertices(c):
    """Vertices of Q(A) = {x >= 0 : x A >= 1}, by basis enumeration.

    Every vertex is the unique solution of n linearly independent tight
    constraints, so every n-subset of the q edge rows and the n coordinate
    rows is solved exactly and the feasible solutions are kept.  Returned
    as a lexicographically sorted tuple of Fraction tuples.
    """
    n = c.n
    if n == 0:
        return ((),)
    rows = []
    rhs = []
    for e in c.edges:
        rows.append([Fraction(1 if v in set(e) else 0) for v in range(n)])
        rhs.append(Fraction(1))
    for i in range(n):
        rows.append([Fraction(1 if v == i else 0) for v in range(n)])
        rhs.append(Fraction(0))
    found = set()
    for chosen in combinations(range(len(rows)), n):
        x = _solve_dense([rows[i] for i in chosen], [rhs[i] for i in chosen])
        if x is None:
            continue
        if all(
            sum(r * v for r, v in zip(rows[i], x)) >= rhs[i]
            for i in range(len(rows))
        ):
            found.add(tuple(x))
    return tuple(sorted(found))


def brute_packing_lp_value(c, capacities):
    """max <y, 1> with Ay <= capacities, y >= 0, by basic-solution enumeration.

    The feasible set is a polytope containing 0, so the optimum is attained
    at a basic solution: choose q of the n + q constraint rows to be tight
    and solve the square system exactly.
    """
    q = c.q
    if q == 0:
        return Fraction(0)
    n = c.n
    rows = []
    rhs = []
    for v in range(n):
        rows.append([Fraction(1 if v in set(e) else 0) for e in c.edges])
        rhs.append(Fraction(capacities[v]))
    for j in range(q):
        rows.append([Fraction(1 if k == j else 0) for k in range(q)])
        rhs.append(Fraction(0))
    best = Fraction(0)
    for chosen in combinations(range(n + q), q):
        system = [rows[i] for i in chosen]
        target = [rhs[i] for i in chosen]
        y = _solve_dense(system, target)
        if y is None:
            continue
        if any(v < 0 for v in y):
            continue
        if any(
            sum(r * x for r, x in zip(rows[i], y)) > rhs[i] for i in range(n)
        ):
            continue
        best = max(best, sum(y, Fraction(0)))
    return best


def brute_closure_membership(c, exponents, power):
    """x^a in the integral closure of I^i, via the exact packing LP value."""
    if power == 0:
        return True
    if c.q == 0:
        return False
    return brute_packing_lp_value(c, exponents) >= power


def brute_hilbert_basis(cone, contains, box):
    """Irreducible lattice points of the cone inside [0, box]^dim.

    `contains` decides exact cone membership (the package's LP route; the
    construction being cross-checked never calls it).  Any lattice point of
    the cone that splits as a sum of two nonzero cone lattice points splits
    inside the box, because the cone lies in the nonnegative orthant.
    """
    points = [
        p
        for p in product(range(box + 1), repeat=cone.dim)
        if any(p) and contains(cone, p)
    ]
    point_set = set(points)
    basis = []
    for z in points:
        reducible = False
        for x in points:
            if x == z:
                continue
            y = tuple(a - b for a, b in zip(z, x))
            if all(v >= 0 for v in y) and any(y) and y in point_set:
                reducible = True
                break
        if not reducible:
            basis.append(z)
    return sorted(basis, key=lambda p: (sum(p), p))


def _rank_dense_q(rows):
    rows = [list(map(Fraction, r)) for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _rank_dense_f2(rows):
    rows = [[x % 2 for x in r] for r in rows]
    rows = [r for r in rows if any(r)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col]), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                rows[r] = [(x + y) % 2 for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def brute_reduced_betti(facets, field="Q"):
    """Reduced Betti numbers from dense boundary matrices.

    `facets`: iterable of vertex-index tuples.  Returns a dict k -> betti
    for k = -1 .. dim.  Faces include the empty face.
    """
    facets = [tuple(sorted(f)) for f in facets]
    faces = {()}
    for f in facets:
        for k in range(len(f) + 1):
            faces.update(combinations(f, k))
    by_dim: dict = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    for k in by_dim:
        by_dim[k].sort()
    top = max(by_dim)
    ranks = {}
    for k in range(0, top + 1):
        lower = {f: i for i, f in enumerate(by_dim.get(k - 1, []))}
        rows = []
        for f in by_dim.get(k, []):
            row = [0] * len(lower)
            for i in range(len(f)):
                sub = f[:i] + f[i + 1 :]
                row[lower[sub]] = (-1) ** i
            rows.append(row)
        if not rows or not lower:
            ranks[k] = 0
        elif field == "Q":
            ranks[k] = _rank_dense_q(rows)
        else:
            ranks[k] = _rank_dense_f2(rows)
    betti = {}
    for k in range(-1, top + 1):
        betti[k] = (
            len(by_dim.get(k, []))
            - ranks.get(k, 0)
            - ranks.get(k + 1, 0)
        )
    return betti


def reduced_euler_characteristic(facets):
    """Alternating face-count sum, empty face included: sum (-1)^dim."""
    facets = [tuple(sorted(f)) for f in facets]
    faces = {()}
    for f in facets:
        for k in range(len(f) + 1):
            faces.update(combinations(f, k))
    return sum((-1) ** (len(f) + 1) for f in faces)


def _brute_index_covers(c):
    """Minimal vertex covers as index tuples, sorted by (size, index lex)."""
    edge_sets = _edge_sets(c)
    covers = [
        frozenset(s)
        for k in range(c.n + 1)
        for s in combinations(range(c.n), k)
        if _is_cover(edge_sets, frozenset(s))
    ]
    minimal = [s for s in covers if not any(t < s for t in covers)]
    return sorted((tuple(sorted(s)) for s in minimal), key=lambda t: (len(t), t))


def brute_cm_verdict(c, field="Q"):
    """(cohen_macaulay, unmixed_witness, link_witness) by Reisner's criterion.

    Mirrors the unmixed pre-filter: covers of two sizes give the first cover
    of the least and of the greatest size.  Otherwise every face of the
    independence complex, in (size, index lex) order, has its link's reduced
    Betti numbers computed densely; the first one nonzero below the link's
    dimension gives (face labels, dimension, Betti number).
    """
    covers = _brute_index_covers(c)
    labels = lambda t: tuple(c.vertices[i] for i in t)  # noqa: E731
    small, big = covers[0], covers[-1]
    if len(small) != len(big):
        first_big = next(t for t in covers if len(t) == len(big))
        return False, (labels(small), labels(first_big)), None
    everything = frozenset(range(c.n))
    facets = [everything - frozenset(t) for t in covers]
    faces = {
        s for f in facets for k in range(len(f) + 1)
        for s in combinations(sorted(f), k)
    }
    for face in sorted(faces, key=lambda t: (len(t), t)):
        link = [tuple(sorted(f - set(face))) for f in facets if f >= set(face)]
        top = max(len(f) for f in link) - 1
        betti = brute_reduced_betti(link, field=field)
        for k in range(-1, top):
            if betti.get(k, 0):
                return False, None, (labels(face), k, betti[k])
    return True, None, None


def brute_packing_witness(c):
    """(deleted labels, contracted labels, alpha0, beta1) of the first
    assignment in lex order over {keep < delete < contract}^n whose minor
    fails Konig, unit ideals skipped; None when every minor is Konig."""
    edge_sets = _edge_sets(c)
    seen = set()  # minors already found Konig: many assignments repeat one
    for assignment in product((0, 1, 2), repeat=c.n):
        deleted = frozenset(i for i, a in enumerate(assignment) if a == 1)
        contracted = frozenset(i for i, a in enumerate(assignment) if a == 2)
        edges = _minor_edges(edge_sets, deleted, contracted)
        if edges is None:
            continue
        key = frozenset(edges)
        if key in seen:
            continue
        alpha, beta = _alpha_on_edges(edges), _beta_on_edges(edges)
        seen.add(key)
        if alpha != beta:
            return (
                tuple(c.vertices[i] for i in sorted(deleted)),
                tuple(c.vertices[i] for i in sorted(contracted)),
                alpha,
                beta,
            )
    return None
