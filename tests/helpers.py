"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the library's code paths: eigenvalues come
from scipy on the centered m x m matrix rather than the package's
(m-1)-dimensional restriction, gap/form references are literal loops
over the defining sums, the triangle reference is a literal triple loop
in pivot order, the ultrametric reference is scipy's single-linkage
clustering, and the supremal reference is a sign-only bisection on the
scipy eigenvalues, and the class at an integer exponent of an integer
space is the inertia of its form, by elimination in Fractions, as is a
basis of the form's kernel. The
ultrametric generator's reference is its original merge loop, point
order throughout; the graph generators' reference is their original
per-edge loops, one rng call per random weight. The validation reference
is validate_metric as it read before an exactly symmetric matrix skipped
its asymmetry pass: it reads the triangle inequality through the library's
own certificate and scan, whose agreement with the literal loop is tested
on its own.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform

from negtype import (
    AsymmetricEntry,
    MetricSpace,
    NegTypeError,
    NonpositiveDistance,
    NonzeroDiagonal,
    NotSquare,
    SignedSimplex,
    TriangleViolation,
    from_graph,
    is_ultrametric,
    validate_metric,
)
from negtype import metric
from negtype.cli import generate_space


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def power_entries(X: MetricSpace, p: float) -> np.ndarray:
    d = X.dist ** p
    np.fill_diagonal(d, 0.0)
    return d


def quad_reference(X: MetricSpace, p: float, xi) -> float:
    """Literal double loop over ordered pairs."""
    xi = np.asarray(xi, dtype=float)
    d = power_entries(X, p)
    total = 0.0
    for i in range(X.size):
        for j in range(X.size):
            total += d[i, j] * xi[i] * xi[j]
    return total


def gap_reference(X: MetricSpace, p: float, Q: SignedSimplex) -> float:
    """Literal loops over the cross-side and same-side sums."""
    d = power_entries(X, p)
    left, right = list(Q.left), list(Q.right)
    cross = sum(
        mw * nw * d[i, j] for i, mw in left for j, nw in right
    )
    same_l = sum(
        left[a][1] * left[b][1] * d[left[a][0], left[b][0]]
        for a in range(len(left))
        for b in range(a + 1, len(left))
    )
    same_r = sum(
        right[a][1] * right[b][1] * d[right[a][0], right[b][0]]
        for a in range(len(right))
        for b in range(a + 1, len(right))
    )
    return cross - same_l - same_r


def exact_gap(X: MetricSpace, p: float, Q: SignedSimplex) -> tuple[Fraction, Fraction]:
    """(gap, mass): the pair sums of the gap and of their absolute values,
    exact in rationals on the floats of power_entries and the weights."""
    d = power_entries(X, p)
    left, right = list(Q.left), list(Q.right)
    cross = [(w, v, d[i, j]) for i, w in left for j, v in right]
    same = [(side[a][1], side[b][1], d[side[a][0], side[b][0]])
            for side in (left, right)
            for a in range(len(side)) for b in range(a + 1, len(side))]
    terms = [(Fraction(w) * Fraction(v) * Fraction(x), sign)
             for sign, pairs in ((1, cross), (-1, same)) for w, v, x in pairs]
    return (sum((sign * t for t, sign in terms), Fraction(0)),
            sum((abs(t) for t, _ in terms), Fraction(0)))


def _exact_gram(dist, p: int) -> list[list[Fraction]]:
    """G_ij = d_ij^p - d_im^p - d_jm^p (i, j < m): the form in the basis
    e_i - e_m of the zero-sum hyperplane, exact in Fractions."""
    d = [[int(x) ** p for x in row] for row in np.asarray(dist).tolist()]
    m = len(d) - 1
    return [[Fraction(d[i][j] - d[i][m] - d[j][m]) for j in range(m)] for i in range(m)]


def exact_class(dist, p: int) -> str:
    """The class at integer p of an integer distance matrix, exact in Fractions.

    In the basis e_i - e_m of the zero-sum hyperplane the form has the
    matrix G (_exact_gram), and by Sylvester's law of inertia its class is
    that of G: STRICT when G is negative definite, BOUNDARY when negative
    semidefinite and singular, NOT_NEG_TYPE otherwise. Symmetric
    elimination keeps the inertia: a positive pivot, or a zero pivot with a
    nonzero entry beside it (a 2 x 2 minor of determinant -b^2 < 0), shows
    a positive eigenvalue.
    """
    g = _exact_gram(dist, p)
    m = len(g)
    singular = False
    for k in range(m):
        pivot = g[k][k]
        if pivot > 0 or pivot == 0 and any(g[k][k + 1:]):
            return "NOT_NEG_TYPE"
        if pivot == 0:
            singular = True
            continue
        for i in range(k + 1, m):
            f = g[i][k] / pivot
            for j in range(k + 1, m):
                g[i][j] -= f * g[k][j]
    return "BOUNDARY" if singular else "STRICT"


def exact_kernel(dist, p: int) -> list[list[int]]:
    """A basis of the kernel of exact_class's G, each vector lifted to the
    zero-sum hyperplane as coprime integers.

    Gauss-Jordan elimination in Fractions brings G to reduced row echelon
    form; each free column gives the kernel vector c with 1 there, 0 at
    the other free columns and minus that column of the pivot rows at the
    pivots. Scaled to coprime integers, c lifts through the basis e_i - e_m
    to xi = (c, -sum c), a zero-sum integer vector whose form is
    c^T G c = 0.
    """
    g = _exact_gram(dist, p)
    m = len(g)
    pivots = []
    for col in range(m):
        r = next((i for i in range(len(pivots), m) if g[i][col]), None)
        if r is None:
            continue
        k = len(pivots)
        g[k], g[r] = g[r], g[k]
        g[k] = [x / g[k][col] for x in g[k]]
        for i in range(m):
            f = g[i][col]
            if i != k and f:
                g[i] = [a - f * b for a, b in zip(g[i], g[k])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(m) if c not in pivots):
        c = [Fraction(0)] * m
        c[free] = Fraction(1)
        for k, col in enumerate(pivots):
            c[col] = -g[k][free]
        ints = [int(x * math.lcm(*(y.denominator for y in c))) for x in c]
        ints = [x // math.gcd(*ints) for x in ints]
        basis.append(ints + [-sum(ints)])
    return basis


def centered_eigenpairs(X: MetricSpace, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the form on the zero-sum hyperplane, with
    unit eigenvectors in R^m as columns.

    Uses the centering projector P = I - J/m and scipy's full eigensolver,
    then discards the eigenpair carried by the all-ones direction.
    """
    m = X.size
    proj = np.eye(m) - np.full((m, m), 1.0 / m)
    a = proj @ power_entries(X, p) @ proj
    evals, evecs = scipy.linalg.eigh(0.5 * (a + a.T))
    ones = np.ones(m) / np.sqrt(m)
    drop = int(np.argmax(np.abs(evecs.T @ ones)))
    keep = np.delete(evecs, drop, axis=1)
    # where 0 is also an eigenvalue on the hyperplane (an l2 cloud at p = 2),
    # the solver may mix the all-ones direction into a kept eigenvector
    keep -= keep.mean(axis=0)
    keep /= np.linalg.norm(keep, axis=0)
    return np.delete(evals, drop), keep


def centered_spectrum(X: MetricSpace, p: float) -> np.ndarray:
    """Ascending eigenvalues of the form on the zero-sum hyperplane."""
    return centered_eigenpairs(X, p)[0]


def centered_lambda_max(X: MetricSpace, p: float) -> float:
    """Largest eigenvalue of the form on the zero-sum hyperplane."""
    return float(centered_spectrum(X, p)[-1])


def doubling_probes(cap: float = 64.0) -> list[float]:
    """The exponents 1, 2, 4, ... that supremal probes first, the last clamped to cap."""
    probes = [min(1.0, cap)]
    while probes[-1] < cap:
        probes.append(min(2.0 * probes[-1], cap))
    return probes


def reference_supremal(X: MetricSpace, cap: float = 64.0, width_tol: float = 1e-10):
    """(lo, hi) from doubling then sign-only bisection on centered_lambda_max,
    or None when no sign change is found at or below cap."""
    lo, hi = 0.0, None
    for p in doubling_probes(cap):
        if centered_lambda_max(X, p) > 0.0:
            hi = p
            break
        lo = p
    if hi is None:
        return None
    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if centered_lambda_max(X, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def probe_bound(sup, width_tol: float = 1e-10) -> int:
    """Most probes a FINITE supremal search may make: the doubling probes plus
    2 * ceil(log2((hi0 - lo0) / width_tol)) for the bracket doubling found."""
    probes = doubling_probes(sup.cap)
    k = next(i for i, p in enumerate(probes) if p >= sup.hi)
    lo0 = probes[k - 1] if k else 0.0
    return k + 1 + 2 * max(0, math.ceil(math.log2((probes[k] - lo0) / width_tol)))


def first_triangle_violation(d: np.ndarray, tol: float, bound=operator.add):
    """First (i, j, k) with d[i,k] - bound(d[i,j], d[j,k]) > tol, in pivot order.

    bound is addition (the triangle inequality) or max (the ultrametric one).
    The loop runs over k, then i (only i <= k when d equals d.T), and names
    the first j with the smallest bound of row i that is not NaN; a row with
    no such bound, or whose slack to it is NaN, passes.
    """
    m = len(d)
    symmetric = all(d[i, k] == d[k, i] for i in range(m) for k in range(m))
    for k in range(m):
        for i in range(k + 1 if symmetric else m):
            best = None
            for j in range(m):
                b = bound(d[i, j], d[j, k])
                if not math.isnan(b) and (best is None or b < best[0]):
                    best = b, j
            if best is not None and d[i, k] - best[0] > tol:
                return i, best[1], k
    return None


def reference_validate_metric(labels, matrix) -> MetricSpace:
    """validate_metric with every check on the whole matrix, in turn.

    Asymmetry |a - a.T| > tol first, then the diagonal, positivity and the
    triangle inequality (by the column minima of the certificate, then the
    scan), and the canonical matrix 0.5 (a + a.T), halved before the sum
    where the sum overflows, with its diagonal zeroed.
    """
    a = metric._floats(matrix, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSquare(f"matrix has shape {a.shape}")
    m = a.shape[0]
    if m < 2:
        raise NotSquare("need at least 2 points")
    if labels is None:
        labels = metric.default_labels(m)
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

    tol = metric.REL_TOL * float(np.abs(a).max())
    with np.errstate(over="ignore"):
        asym = np.abs(a - a.T) > tol
    if asym.any():
        i, j = map(int, np.argwhere(asym)[0])
        raise AsymmetricEntry(i, j)
    diag = np.abs(np.diag(a))
    if (diag > tol).any():
        raise NonzeroDiagonal(int(np.argmax(diag > tol)))
    nonpos = (a <= 0) & ~np.eye(m, dtype=bool)
    if nonpos.any():
        i, j = map(int, np.argwhere(nonpos)[0])
        raise NonpositiveDistance(i, j)
    viol = metric._triangle_violation(a, tol)
    if viol is not None:
        raise TriangleViolation(*viol)

    with np.errstate(over="ignore"):
        canon = 0.5 * (a + a.T)
    over = np.isinf(canon)
    if over.any():
        canon[over] = 0.5 * a[over] + 0.5 * a.T[over]
    np.fill_diagonal(canon, 0.0)
    return MetricSpace(labels, canon)


def reference_ultrametric(n: int, seed: int | None = None) -> np.ndarray:
    """The distance matrix of random_ultrametric(n, seed), by its first merge loop.

    Each merge writes its height into the two blocks of its clusters in
    point order. Seeded corpora are drawn through the generator, so its
    stream of rng calls and its matrices must stay the same.
    """
    rng = np.random.default_rng(seed)
    heights = np.sort(rng.uniform(1.0, 2.0, size=n - 1))
    heights = heights + 1e-9 * np.arange(n - 1)  # force strict increase

    dist = np.zeros((n, n))
    clusters = [[i] for i in range(n)]
    for h in heights:
        a, b = rng.choice(len(clusters), size=2, replace=False)
        a, b = (int(a), int(b)) if a < b else (int(b), int(a))
        A, B = clusters[a], clusters[b]
        dist[np.ix_(A, B)] = dist[np.ix_(B, A)] = h
        A.extend(B)
        del clusters[b]
    return dist


def reference_graph(kind: str, n: int, seed: int | None = None) -> MetricSpace:
    """generate_space(kind, n, seed=seed) for a graph kind, by its first loops.

    One (i, j, w) tuple per edge in loop order, and for random one scalar
    rng.uniform(0.5, 2.0) draw per edge; from_graph reads the list.
    """
    if kind == "cycle":
        return from_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)])
    if kind == "path":
        return from_graph(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "complete":
        return from_graph(n, [(i, j, 1.0) for i, j in pairs])
    rng = np.random.default_rng(seed)
    return from_graph(n, [(i, j, float(rng.uniform(0.5, 2.0))) for i, j in pairs])


def small_graph_metrics(n: int, weights) -> np.ndarray:
    """The distinct shortest-path matrices of every connected graph on n
    labelled vertices whose edges take weights from weights, as one array.

    Each vertex pair is absent or an edge of each weight; Floyd-Warshall
    runs on all of these graphs at once.
    """
    i, j = np.triu_indices(n, 1)
    d = np.full(((len(weights) + 1) ** len(i), n, n), np.inf)
    d[:, i, j] = d[:, j, i] = list(itertools.product((np.inf, *weights), repeat=len(i)))
    d[:, range(n), range(n)] = 0.0
    for k in range(n):
        np.minimum(d, d[:, :, k, None] + d[:, None, k, :], out=d)
    return np.unique(d[np.isfinite(d).all(axis=(1, 2))], axis=0)


def subdominant_ultrametric(d: np.ndarray) -> np.ndarray:
    """Single-linkage cophenetic distances: the largest ultrametric below d.

    A metric is ultrametric exactly when it equals this matrix.
    """
    return squareform(cophenet(linkage(squareform(d, checks=False), "single")))


def sampled_form_max(X: MetricSpace, p: float, trials: int, seed: int) -> float:
    """Brute-force lower bound: max of the form over random unit zero-sum vectors."""
    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(trials):
        v = random_balanced(X.size, rng)
        best = max(best, quad_reference(X, p, v))
    return best


# ---------------------------------------------------------------------------
# fixed spaces
# ---------------------------------------------------------------------------

def collinear_triple() -> MetricSpace:
    """Points 0, 1, 2 on the line: supremal exponent exactly 2."""
    return from_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])


def unit_four_cycle() -> MetricSpace:
    """Unit 4-cycle: supremal exponent exactly 1."""
    return from_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

# the gen kinds of the fixed-exponent corpus, as (kind, q), with their test ids
GEN_KINDS = [("points", 2.0), ("points", 1.0), ("random", 2.0), ("path", 2.0), ("cycle", 2.0)]
GEN_IDS = ["l2_cloud", "l1_cloud", "random_graph", "path", "cycle"]


def fixed_exponent_corpus(kind: str, q: float):
    """(X, p): gen spaces of one kind at m = 4 to 120, two seeds, at p = 0.5 to 8."""
    for m in (4, 9, 40, 120):
        for seed in range(2):
            X = generate_space(kind, m, q=q, seed=seed)
            for p in (0.5, 1.0, 2.0, 3.0, 8.0):
                yield X, p


def random_balanced(m: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit vector in the zero-sum hyperplane."""
    while True:
        v = rng.standard_normal(m)
        v -= v.mean()
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def normalize_diameter(X: MetricSpace, diameter: float = 2.0) -> MetricSpace:
    return validate_metric(X.labels, X.dist * (diameter / X.dist.max()))


def random_space(rng: np.random.Generator, max_n: int = 8, min_n: int = 3) -> MetricSpace:
    """Random non-degenerate metric space with diameter 2.

    Alternates between shortest-path metrics of randomly weighted complete
    graphs and l_2 point clouds.
    """
    n = int(rng.integers(min_n, max_n + 1))
    seed = int(rng.integers(0, 2**31))
    if rng.random() < 0.5:
        X = generate_space("random", n, seed=seed)
    else:
        dim = int(rng.integers(2, 5))
        X = generate_space("points", n, dim=dim, seed=seed)
    return normalize_diameter(X)


def break_ultrametricity(X: MetricSpace, rng: np.random.Generator) -> MetricSpace:
    """Scale one distance by +-5% so the result is metric but not ultrametric."""
    m = X.size
    for _ in range(500):
        i, j = sorted(map(int, rng.choice(m, size=2, replace=False)))
        factor = 1.05 if rng.random() < 0.5 else 0.95
        d = np.array(X.dist)
        d[i, j] = d[j, i] = factor * d[i, j]
        try:
            Y = validate_metric(X.labels, d)
        except NegTypeError:
            continue
        if not is_ultrametric(Y):
            return Y
    raise AssertionError("no single perturbation broke ultrametricity")


def random_refined_simplex(X: MetricSpace, rng: np.random.Generator) -> SignedSimplex:
    """Completely refined simplex with balanced weight totals."""
    m = X.size
    while True:
        sides = rng.integers(0, 3, size=m)  # 0: unused, 1: left, 2: right
        li = np.flatnonzero(sides == 1)
        ri = np.flatnonzero(sides == 2)
        if li.size and ri.size:
            break
    lw = rng.uniform(0.2, 2.0, size=li.size)
    rw = rng.uniform(0.2, 2.0, size=ri.size)
    rw *= lw.sum() / rw.sum()
    return SignedSimplex(
        tuple(zip(li.tolist(), lw.tolist())),
        tuple(zip(ri.tolist(), rw.tolist())),
    )


def angular_deviation(u, v) -> float:
    """Angle between the lines spanned by u and v (sign-insensitive)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(min(1.0, c)))
