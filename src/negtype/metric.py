"""Finite metric spaces and their entrywise power matrices.

A space is a list of point labels plus a dense, validated distance matrix.
Validation tolerances are relative to the largest distance so that the
metric axioms are checked scale-free. Every matrix gets the O(m^2) checks
(finite, symmetric, zero diagonal, positive). The triangle inequality is an
O(m^3) scan over all triples with d(i,j) + d(j,k) as the bound on d(i,k).
It has the answer of that scan on every raw matrix, but an O(m^2)
certificate from the row and column minima settles most metrics first.
The scan (_violation) stops at the first failing triple. On the triangle
check it reads, per pivot, only the middles j with d(j,k) small enough to
break a pair given the row minima: a small share on concentrated metrics
(random graph weights in [0.5, 2]), while geodesic ones (paths, point
clouds) keep most middles and the full block. A constructor skips
the check only inside a domain where a rounding-error bound shows that
the scan cannot fail:
- random_ultrametric always: its block fill is an exact ultrametric, and
  fl(a + b) >= max(a, b) for positive a and b;
- from_graph up to 3000 vertices;
- from_points when q = inf, or when the error floor of the computed l_q
  distances is below REL_TOL / 8 of the largest one.
is_ultrametric returns the answer of the same scan with max(d(i,j), d(j,k))
as the bound, but certifies most ultrametrics in O(m^2) by a comparison
with the subdominant ultrametric, and otherwise runs the scan.
Power matrices raise every distance to p >= 0 with 0**0 = 0 on the
diagonal, so the p = 0 matrix is the discrete-metric matrix. _power builds
every one the package computes on as D~_p = (d / max d)^p, largest entry 1
at any scale, over all points or a block of them, and _real converts values
of D~_p to the units of D_p once; power_matrix alone returns D_p itself.
scipy is imported only inside from_graph and from_points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricEntry,
    DisconnectedGraph,
    DuplicatePoint,
    InvalidNormOrder,
    NegativeExponent,
    NonpositiveDistance,
    NonpositiveWeight,
    NonzeroDiagonal,
    NotSquare,
    TriangleViolation,
)

__all__ = [
    "MetricSpace",
    "validate_metric",
    "is_ultrametric",
    "from_graph",
    "from_points",
    "random_ultrametric",
]

# Relative tolerance for symmetry, diagonal, triangle, and ultrametric checks.
REL_TOL = 1e-12

_U = 2.0**-53  # unit roundoff of float64
_TINY = 2.0**-1074  # smallest positive float64

# Largest graph whose shortest-path distances skip the triangle scan. Each
# computed distance is a sum of edge weights along a real path, rounded at
# most m times over, so it lies within a factor 1 +- m*u of the exact
# distance, and the scan's slack d(i,k) - fl(d(i,j) + d(j,k)) is at most
# (2m + 1) * u * max d: 6.7e-13 * max d at m = 3000, below REL_TOL * max d.
_GRAPH_SCAN_FREE_MAX = 3000


# values that int() and float() read as numbers, but a simplex or q does not take
_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def _integer(x, what: str) -> int:
    """x as an int: an int, a numpy integer or an integral float (2.0 reads as 2)."""
    if (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            or isinstance(x, (float, np.floating)) and x.is_integer()):
        return int(x)
    raise ValueError(f"{what} must be an integer, got {x!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def default_labels(m: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(m))


@dataclass(frozen=True, eq=False)
class MetricSpace:
    """Labeled points with an immutable distance matrix.

    Construct through :func:`validate_metric` (or the generators below);
    direct construction skips the axiom checks.
    """

    labels: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "dist", _frozen(self.dist))

    @property
    def size(self) -> int:
        return len(self.labels)


def _violation(d: np.ndarray, bound, tol: float, rows=None) -> tuple[int, int, int] | None:
    """A triple (i, j, k) with d[i, k] - bound(d[i, j], d[j, k]) > tol, or None.

    bound is np.add (triangle inequality) or np.maximum (ultrametric
    inequality). Rounded subtraction x -> fl(c - x) never increases as x
    grows, so for each pivot k the largest slack of row i is
    fl(d[i, k] - min_j bound(d[i, j], d[j, k])): one bound pass over an
    m x m block and one row-wise minimum per pivot. When d == d.T entry for
    entry, triple (k, j, i) has the slack of (i, j, k), since rounded + and
    max commute, and the block shrinks to the rows i <= k. A NaN bound or
    slack never fails the scan's test: np.fmin skips the one, and the
    other compares False. An overflowed sum only raises the bound. The
    triple named is the first failing row i at the first failing pivot k,
    with j the first index of the smallest bound in that row.

    rows, given with np.add only, holds the smallest off-diagonal entry r_i
    of each row, and promises that no triple with j = i or j = k fails. A
    middle j outside {i, k} has d[i, j] >= r_i, and rounding is monotone,
    so it can fail row i only if fl(r_i + d[j, k]) < d[i, k]. A rounded sum
    below the float d[i, k] is below it exactly, so then d[j, k] <=
    fl(d[i, k] - r_i). The candidates of pivot k are the j with d[j, k] at
    most the largest fl(d[i, k] - r_i) over all rows i. When they are fewer
    than m / 2, the block is their rows of d.T against the pivot's rows,
    |J| x n instead of n x m: a gathered block costs 1.3 to 2 times the
    full one per entry (2-core host, m = 350 to 1000), so it gains below
    that share. Each row's smallest candidate bound is then its smallest
    bound or too large to fail, so the same pivot, row and j are named.
    """
    d = np.ascontiguousarray(d)
    m = len(d)
    half = np.array_equal(d, d.T)
    block = np.empty_like(d)
    low = np.empty(m)
    if rows is not None:
        reach = (d - rows[:, None]).max(axis=0)  # max_i fl(d[i, k] - r_i)
        fewer = 2 * np.count_nonzero(d <= reach, axis=0) < m  # d[j, k] <= reach[k]
        dt = d if half else np.ascontiguousarray(d.T)  # row j of dt is d[:, j]
    with np.errstate(over="ignore"):
        for k in range(m):
            n = k + 1 if half else m
            column = d[k] if half else np.ascontiguousarray(d[:, k])  # d[j, k] over j
            if rows is not None and fewer[k]:
                J = np.flatnonzero(column <= reach[k])
                part = dt[J, :n]  # part[c, i] = d[i, J[c]], then + d[J[c], k]
                bound(part, column[J, None], out=part)
                np.fmin.reduce(part, axis=0, out=low[:n], initial=np.inf)
            else:
                bound(d[:n], column, out=block[:n])
                np.fmin.reduce(block[:n], axis=1, out=low[:n])
            bad = column[:n] - low[:n] > tol
            if bad.any():
                i = int(bad.argmax())  # its row holds a bound that is not NaN
                return i, int(np.nanargmin(bound(d[i], column))), k
    return None


def _triangle_violation(a: np.ndarray, tol: float) -> tuple[int, int, int] | None:
    """_violation(a, np.add, tol), certified in O(m^2) where possible.

    Let r_i and c_k be the smallest off-diagonal entries of row i and of
    column k. For j outside {i, k}, a[i, j] >= r_i and a[j, k] >= c_k, and
    rounded addition and subtraction are monotone, so the scan's slack
    fl(a[i, k] - fl(a[i, j] + a[j, k])) is at most fl(a[i, k] - fl(r_i + c_k)).
    When the triples with j = i or j = k pass the scan's own test and that
    bound is at most tol for every pair (i = k included), no triple fails.
    Otherwise the scan runs, naming the triple it stops at; when the
    triples with j in {i, k} pass, it is given the row minima r_i and
    scans only the candidate middles. The certificate holds whenever the
    largest distance is at most the sum of the two row minima, as in every
    random_ultrametric output.
    """
    off = a.copy()
    np.fill_diagonal(off, np.inf)
    diag = np.diag(a)
    rows = off.min(axis=1)
    with np.errstate(over="ignore"):  # a sum that overflows to inf only raises the bound
        # a diagonal entry x >= 0 gives fl(x + a) >= a: no triple with j in
        # {i, k} fails, and only a negative one needs their O(m^2) test
        ends = (diag >= 0).all() or ((a - (diag[:, None] + a) <= tol).all()
                                     and (a - (a + diag) <= tol).all())
        bound = rows[:, None] + off.min(axis=0)
    if ends and (a - bound <= tol).all():
        return None
    return _violation(a, np.add, tol, rows if ends else None)


def validate_metric(labels, matrix) -> MetricSpace:
    """Check the metric axioms and return a canonicalized space.

    The returned matrix is symmetrized and its diagonal zeroed exactly;
    the checks themselves allow slack REL_TOL * max distance. ``labels``
    may be None, in which case "x1".."xm" are used; a str, bytes or dict
    is not a sequence of labels and raises ValueError.
    """
    return _validated(labels, matrix, scan=True)


def _validated(labels, matrix, scan: bool) -> MetricSpace:
    """validate_metric, with the triangle scan only when ``scan`` is set."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"matrix has shape {a.shape}")
    m = a.shape[0]
    if m < 2:
        raise NotSquare("need at least 2 points")
    if labels is None:
        labels = default_labels(m)
    if isinstance(labels, (str, bytes, dict)):
        raise ValueError(f"labels must be a list, got a {type(labels).__name__}")
    labels = tuple(str(x) for x in labels)
    if len(labels) != m:
        raise ValueError(f"{len(labels)} labels for {m}x{m} matrix")

    finite = np.isfinite(a)
    if not finite.all():
        i, j = map(int, np.argwhere(~finite)[0])
        if i == j:
            raise NonzeroDiagonal(i)
        raise NonpositiveDistance(i, j, reason="is not finite")

    tol = REL_TOL * float(np.abs(a).max())

    with np.errstate(over="ignore"):  # a difference that overflows to inf exceeds any tol
        asym = np.abs(a - a.T) > tol
    if asym.any():
        i, j = map(int, np.argwhere(asym)[0])
        raise AsymmetricEntry(i, j)

    diag = np.abs(np.diag(a))
    if (diag > tol).any():
        raise NonzeroDiagonal(int(np.argmax(diag > tol)))

    nonpos = (a <= 0) & ~np.eye(m, dtype=bool)  # the diagonal masked
    if nonpos.any():
        i, j = map(int, np.argwhere(nonpos)[0])
        raise NonpositiveDistance(i, j)

    if scan:
        viol = _triangle_violation(a, tol)
        if viol is not None:
            raise TriangleViolation(*viol)

    with np.errstate(over="ignore"):
        canon = 0.5 * (a + a.T)
    over = np.isinf(canon)
    if over.any():  # halving entries this large is exact, and + commutes: still symmetric
        canon[over] = 0.5 * a[over] + 0.5 * a.T[over]
    np.fill_diagonal(canon, 0.0)
    return MetricSpace(labels, canon)


def _exponent(p) -> float:
    """p as a float; the one exponent check: p must be finite and nonnegative."""
    if not 0.0 <= p < math.inf:
        raise NegativeExponent(f"p = {p}")
    return float(p)


def _power(X: MetricSpace, p: float, idx=None) -> tuple[np.ndarray, float]:
    """(D~_p, s) with D_p = s D~_p: diagonal 0, largest entry 1, no overflow.

    With idx, sorted distinct point indices, the block of D_p on those
    points, scaled by its own largest entry; all of them take no copy.
    s = (max d)^p reads inf or 0, quietly, where it is not representable.
    """
    dist = X.dist if idx is None or len(idx) == X.size else X.dist[np.ix_(idx, idx)]
    p, top = _exponent(p), dist.max(initial=0.0)
    with np.errstate(all="ignore"):
        d = dist / top
        d **= p
        scale = float(top**p)
    np.fill_diagonal(d, 0.0)
    return d, scale


def _real(x, scale: float, twos: int = 0):
    """A value of D~_p, or an array of them in place, in the units of D_p.

    A value also takes the factor 2**twos, which undoes the exact scaling
    of weights it was summed on: x * scale * 2**twos, rounded once while it
    is a normal float. 0 stays 0 and nothing reads NaN; the rest reads
    +-inf or 0 where the product, or the scale itself, is not representable.
    """
    if np.ndim(x) == 0:
        if not x:
            return x
        if not twos:
            return x * scale
        frac, exp = math.frexp(scale)
        try:
            return math.ldexp(x * frac, exp + twos)
        except OverflowError:
            return math.copysign(math.inf, x)
    with np.errstate(over="ignore"):
        return np.multiply(x, scale, out=x, where=x != 0.0)


def power_matrix(X: MetricSpace, p: float) -> np.ndarray:
    """Read-only entrywise p-th power of the distances, diagonal exactly 0.

    Each entry is d^p itself, inf where that overflows, 0 or subnormal where
    it underflows; nothing reads NaN.
    """
    with np.errstate(over="ignore"):
        d = X.dist ** _exponent(p)
    np.fill_diagonal(d, 0.0)
    d.setflags(write=False)
    return d


def is_ultrametric(X: MetricSpace) -> bool:
    """True iff every triple satisfies d(i,k) <= max(d(i,j), d(j,k)) + slack.

    The answer is that of the full O(m^3) scan. The space is first compared
    with its subdominant ultrametric in O(m^2), and only when that
    comparison fails does _violation run, with np.maximum as the bound.
    The slack scales with the largest finite entry.
    """
    d = X.dist
    tol = REL_TOL * float(np.fmax.reduce(d, axis=None, initial=0.0, where=np.isfinite(d)))
    return _within_subdominant(d, tol) or _violation(d, np.maximum, tol) is None


def _within_subdominant(d: np.ndarray, tol: float) -> bool:
    """True if d - u <= tol for u the subdominant ultrametric of d.

    u(i,k) is the heaviest edge on the minimum-spanning-tree path from i to
    k: a copy of an entry of d, at most d(i,k), and an exact ultrametric. So
    for every j, max(d(i,j), d(j,k)) >= max(u(i,j), u(j,k)) >= u(i,k), and
    since rounding is monotone no triple fails the scan's test when
    d(i,k) - u(i,k) <= tol. Prim's algorithm adds one vertex k per step; the
    new row of u is the row of k's tree neighbour, raised to the joining
    edge, and the comparison stops at the first row that fails.
    """
    m = len(d)
    u = np.zeros_like(d)  # rows and columns in the order Prim adds vertices
    order = np.zeros(m, dtype=int)  # the vertex added at each step
    w = d.copy()  # edge weights, with the columns of tree vertices at inf
    w[:, 0] = np.inf
    best = w[0].copy()  # lightest edge from each vertex into the tree
    via = np.zeros(m, dtype=int)  # the step that added its tree end
    for t in range(1, m):
        k = int(best.argmin())
        row = np.maximum(u[via[k], :t], best[k])
        if not (d[k].take(order[:t]) - row <= tol).all():  # a NaN fails too
            return False
        u[t, :t] = u[:t, t] = row
        order[t] = k
        w[:, k] = np.inf
        closer = w[k] < best
        np.copyto(best, w[k], where=closer)
        via[closer] = t
        best[k] = np.inf
    return True


def from_graph(n: int, weighted_edges) -> MetricSpace:
    """Shortest-path metric of a connected, positively weighted graph.

    n is an integer, and an integral float reads as one. Edges are (i, j, w)
    triples with 0-based endpoints; parallel edges keep the lighter weight.
    Graphs with at most n^2 / 10 edges run Dijkstra from every vertex,
    denser ones Floyd-Warshall; on unit weights both give the same bits.
    Fewer than n - 1 edges between distinct vertices raise
    DisconnectedGraph before any n x n array is built. An infinite path
    length raises DisconnectedGraph when the graph has more than one
    component and NonpositiveDistance when the path sum overflows. The
    triangle scan runs only above 3000 vertices, where the rounding bound
    of the path sums ends.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components, dijkstra, floyd_warshall

    n = _integer(n, "graph n")
    if n < 2:
        raise NotSquare("need at least 2 vertices")
    e = np.asarray(weighted_edges, dtype=float)
    if e.size == 0:
        e = e.reshape(0, 3)
    if e.ndim != 2 or e.shape[1] != 3:
        raise ValueError("edges must be (i, j, w) triples")
    # endpoints truncate as int() does; the range is checked before the cast
    ends, weight = np.trunc(e[:, :2]), e[:, 2]
    outside = ~((ends >= 0) & (ends < n)).all(axis=1)
    loop = ends[:, 0] == ends[:, 1]
    bad = outside | (~(np.isfinite(weight) & (weight > 0)) & ~loop)
    if bad.any():  # the first bad edge, as an edge-by-edge check meets it
        t = int(bad.argmax())
        i, j = (int(x) if math.isfinite(x) else x for x in e[t, :2].tolist())
        if outside[t]:
            raise ValueError(f"edge endpoint out of range: ({i},{j})")
        raise NonpositiveWeight(i, j)
    if np.count_nonzero(~loop) < n - 1:  # no connected graph has fewer edges
        raise DisconnectedGraph("graph is not connected")
    i, j = np.sort(ends[~loop].astype(int), axis=1).T
    w = np.full((n, n), np.inf)
    np.minimum.at(w, (i, j), weight[~loop])  # parallel edges keep the lighter
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)

    edges = np.nonzero(np.triu(np.isfinite(w), 1))
    if 10 * len(edges[0]) <= n * n:
        graph = csr_array((w[edges], edges), shape=(n, n))
        dist = dijkstra(graph, directed=False)
    else:
        graph = w  # csgraph reads a dense 0 or inf as no edge
        dist = floyd_warshall(graph, directed=False)
    far = np.isinf(dist)
    if far.any():
        if connected_components(graph, directed=False, return_labels=False) > 1:
            raise DisconnectedGraph("graph is not connected")
        raise NonpositiveDistance(*map(int, np.argwhere(far)[0]), reason="path length overflows")
    return _validated(None, dist, scan=n > _GRAPH_SCAN_FREE_MAX)


def from_points(coords, q: float = 2.0) -> MetricSpace:
    """Pairwise l_q distances of distinct points (q >= 1, or inf).

    A bool or a string q raises InvalidNormOrder. Two equal coordinate rows
    raise DuplicatePoint. Distinct points whose computed distance underflows
    to 0 or overflows raise NonpositiveDistance.
    """
    from scipy.spatial.distance import cdist

    pts = np.asarray(coords, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 2:
        raise NotSquare("need at least 2 points")
    if isinstance(q, _NOT_NUMBERS):
        raise InvalidNormOrder(f"q = {q!r}")
    q = float(q)
    if math.isnan(q) or q < 1:
        raise InvalidNormOrder(f"q = {q}")
    if math.isinf(q):
        dist = cdist(pts, pts, "chebyshev")
    else:
        dist = cdist(pts, pts, "minkowski", p=q)

    zero = np.triu(dist == 0, 1)
    if zero.any():
        pairs = np.argwhere(zero)
        same = (pts[pairs[:, 0]] == pts[pairs[:, 1]]).all(axis=1)
        if same.any():
            raise DuplicatePoint(*map(int, pairs[np.argmax(same)]))
        raise NonpositiveDistance(*map(int, pairs[0]), reason=f"underflows to 0 at q = {q:g}")
    big = ~np.isfinite(dist)
    if big.any() and np.isfinite(pts).all():
        raise NonpositiveDistance(*map(int, np.argwhere(big)[0]), reason=f"overflows at q = {q:g}")

    # One computed distance errs by at most (dim + 2) * u relative (the root
    # divides the rounding of the q-th powers by q) plus (dim * 2^-1074)^(1/q)
    # absolute from powers that underflow; a rounded 1/q raises every norm
    # to the same power 1 + O(u), which stretches a triangle by at most
    # u * ln 2 relative. A Chebyshev distance is one rounded difference.
    # The scan's slack is at most three such errors plus one rounded sum, so
    # a floor below REL_TOL / 8 of the largest distance cannot trip it.
    dmax = float(dist.max())
    dim = pts.shape[1]
    if math.isinf(q):
        floor = _U * dmax
    else:
        floor = (dim * _TINY) ** (1.0 / q) + (dim + 2) * _U * dmax
    return _validated(None, dist, scan=not 8.0 * floor <= REL_TOL * dmax)


def random_ultrametric(n: int, seed: int | None = None) -> MetricSpace:
    """Random ultrametric space from a binary merge tree.

    Merge heights are strictly increasing draws from [1, 2]; the distance
    between two points is the height at which their clusters merge. Keeping
    all heights within a factor 2 of each other leaves room for small
    multiplicative perturbations without breaking the triangle inequality.
    The rng draws the heights, then one pair of clusters per merge. A merge
    appends cluster b to cluster a, so every cluster is a contiguous range
    of the final merge order: each merge sets its two off-diagonal blocks
    of that order by slices, and one permutation returns to point order.
    """
    if n < 2:
        raise NotSquare("need at least 2 points")
    rng = np.random.default_rng(seed)
    heights = np.sort(rng.uniform(1.0, 2.0, size=n - 1))
    heights = heights + 1e-9 * np.arange(n - 1)  # force strict increase

    clusters = [[i] for i in range(n)]
    merges = []  # (first point of a, size of a, size of b) per merge
    for _ in range(n - 1):
        a, b = rng.choice(len(clusters), size=2, replace=False)
        a, b = (int(a), int(b)) if a < b else (int(b), int(a))
        A, B = clusters[a], clusters[b]
        merges.append((A[0], len(A), len(B)))
        A.extend(B)
        del clusters[b]
    order = clusters[0]
    at = np.empty(n, dtype=int)  # the position of each point in the merge order
    at[order] = np.arange(n)
    blocks = np.zeros((n, n))
    for h, (first, la, lb) in zip(heights.tolist(), merges):
        i = at[first]
        j, k = i + la, i + la + lb
        blocks[i:j, j:k] = blocks[j:k, i:j] = h
    return _validated(None, blocks[np.ix_(at, at)], scan=False)
