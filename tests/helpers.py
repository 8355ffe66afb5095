"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the library's code paths: eigenvalues come
from scipy on the centered m x m matrix rather than the package's
(m-1)-dimensional restriction, gap/form references are literal loops
over the defining sums, the triangle reference is a literal triple loop
in pivot order, the ultrametric reference is scipy's single-linkage
clustering, and the supremal reference is a sign-only bisection on the
scipy eigenvalues. The ultrametric generator's reference is its original
merge loop, point order throughout; the graph generators' reference is
their original per-edge loops, one rng call per random weight.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform

from negtype import (
    MetricSpace,
    NegTypeError,
    SignedSimplex,
    from_graph,
    is_ultrametric,
    validate_metric,
)
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
