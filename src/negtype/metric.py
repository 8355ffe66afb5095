"""Finite metric spaces and their entrywise power matrices.

A space is a list of point labels plus a dense, validated distance matrix.
Validation tolerances are relative to the largest distance so that the
metric axioms are checked scale-free. Power matrices raise every distance
to a fixed exponent p >= 0 with the convention 0**0 = 0 on the diagonal,
so the p = 0 matrix is the discrete-metric matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import floyd_warshall
from scipy.spatial.distance import cdist

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
    "power_matrix",
    "is_ultrametric",
    "from_graph",
    "from_points",
    "random_ultrametric",
]

# Relative tolerance for symmetry, diagonal, triangle, and ultrametric checks.
REL_TOL = 1e-12


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


def validate_metric(labels, matrix) -> MetricSpace:
    """Check the metric axioms and return a canonicalized space.

    The returned matrix is symmetrized and its diagonal zeroed exactly;
    the checks themselves allow slack REL_TOL * max distance. ``labels``
    may be None, in which case "x1".."xm" are used.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"matrix has shape {a.shape}")
    m = a.shape[0]
    if m < 2:
        raise NotSquare("need at least 2 points")
    if labels is None:
        labels = default_labels(m)
    labels = tuple(str(x) for x in labels)
    if len(labels) != m:
        raise ValueError(f"{len(labels)} labels for {m}x{m} matrix")

    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        i, j = map(int, bad[0])
        if i == j:
            raise NonzeroDiagonal(i)
        raise NonpositiveDistance(i, j, reason="is not finite")

    tol = REL_TOL * float(np.abs(a).max())

    asym = np.argwhere(np.abs(a - a.T) > tol)
    if asym.size:
        i, j = map(int, asym[0])
        raise AsymmetricEntry(i, j)

    diag = np.abs(np.diag(a))
    if (diag > tol).any():
        raise NonzeroDiagonal(int(np.argmax(diag > tol)))

    off = a + np.eye(m)  # mask the diagonal
    nonpos = np.argwhere(off <= 0)
    if nonpos.size:
        i, j = map(int, nonpos[0])
        raise NonpositiveDistance(i, j)

    for j in range(m):
        slack = a - (a[:, j][:, None] + a[j, :][None, :])
        viol = np.argwhere(slack > tol)
        if viol.size:
            i, k = map(int, viol[0])
            raise TriangleViolation(i, j, k)

    canon = 0.5 * (a + a.T)
    np.fill_diagonal(canon, 0.0)
    return MetricSpace(labels, canon)


def power_matrix(X: MetricSpace, p: float) -> np.ndarray:
    """Read-only entrywise p-th power of the distances, diagonal exactly 0.

    This is the one place D_p is built, so it is also where the exponent is
    checked: p must be finite and nonnegative.
    """
    if not 0.0 <= p < math.inf:
        raise NegativeExponent(f"p = {p}")
    d = X.dist ** float(p)
    np.fill_diagonal(d, 0.0)
    d.setflags(write=False)
    return d


def is_ultrametric(X: MetricSpace) -> bool:
    """True iff every triple satisfies d(i,k) <= max(d(i,j), d(j,k)) + slack."""
    d = X.dist
    tol = REL_TOL * float(d.max())
    for j in range(X.size):
        if (d > np.maximum.outer(d[:, j], d[j, :]) + tol).any():
            return False
    return True


def from_graph(n: int, weighted_edges) -> MetricSpace:
    """Shortest-path metric of a connected, positively weighted graph.

    Edges are (i, j, w) triples with 0-based endpoints; parallel edges keep
    the lighter weight.
    """
    if n < 2:
        raise NotSquare("need at least 2 vertices")
    w = np.full((n, n), np.inf)
    np.fill_diagonal(w, 0.0)
    for i, j, weight in weighted_edges:
        i, j, weight = int(i), int(j), float(weight)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge endpoint out of range: ({i},{j})")
        if i == j:
            continue
        if not math.isfinite(weight) or weight <= 0:
            raise NonpositiveWeight(i, j)
        w[i, j] = w[j, i] = min(w[i, j], weight)

    dist = floyd_warshall(w, directed=False)
    if np.isinf(dist).any():
        raise DisconnectedGraph("graph is not connected")
    return validate_metric(None, dist)


def from_points(coords, q: float = 2.0) -> MetricSpace:
    """Pairwise l_q distances of distinct points (q >= 1, or inf)."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 2:
        raise NotSquare("need at least 2 points")
    q = float(q)
    if math.isnan(q) or q < 1:
        raise InvalidNormOrder(f"q = {q}")
    if math.isinf(q):
        dist = cdist(pts, pts, "chebyshev")
    else:
        dist = cdist(pts, pts, "minkowski", p=q)

    dup = np.argwhere((dist + np.eye(len(pts))) == 0)
    if dup.size:
        i, j = map(int, dup[0])
        raise DuplicatePoint(i, j)
    return validate_metric(None, dist)


def random_ultrametric(n: int, seed: int | None = None) -> MetricSpace:
    """Random ultrametric space from a binary merge tree.

    Merge heights are strictly increasing draws from [1, 2]; the distance
    between two points is the height at which their clusters merge. Keeping
    all heights within a factor 2 of each other leaves room for small
    multiplicative perturbations without breaking the triangle inequality.
    """
    if n < 2:
        raise NotSquare("need at least 2 points")
    rng = np.random.default_rng(seed)
    heights = np.sort(rng.uniform(1.0, 2.0, size=n - 1))
    heights = heights + 1e-9 * np.arange(n - 1)  # force strict increase

    dist = np.zeros((n, n))
    clusters = [[i] for i in range(n)]
    for h in heights:
        a, b = rng.choice(len(clusters), size=2, replace=False)
        a, b = (int(a), int(b)) if a < b else (int(b), int(a))
        for u in clusters[a]:
            for v in clusters[b]:
                dist[u, v] = dist[v, u] = h
        clusters[a].extend(clusters[b])
        del clusters[b]
    return validate_metric(None, dist)
