"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the library's code paths: eigenvalues come
from scipy on the centered m x m matrix rather than the package's
(m-1)-dimensional restriction, and gap/form references are literal loops
over the defining sums.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from negtype import MetricSpace, SignedSimplex, validate_metric
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


def centered_spectrum(X: MetricSpace, p: float) -> np.ndarray:
    """Ascending eigenvalues of the form on the zero-sum hyperplane.

    Uses the centering projector P = I - J/m and scipy's eigensolver, then
    discards the eigenpair carried by the all-ones direction.
    """
    m = X.size
    proj = np.eye(m) - np.full((m, m), 1.0 / m)
    a = proj @ power_entries(X, p) @ proj
    evals, evecs = scipy.linalg.eigh(0.5 * (a + a.T))
    ones = np.ones(m) / np.sqrt(m)
    drop = int(np.argmax(np.abs(evecs.T @ ones)))
    return np.delete(evals, drop)


def centered_lambda_max(X: MetricSpace, p: float) -> float:
    """Largest eigenvalue of the form on the zero-sum hyperplane."""
    return float(centered_spectrum(X, p)[-1])


def sampled_form_max(X: MetricSpace, p: float, trials: int, seed: int) -> float:
    """Brute-force lower bound: max of the form over random unit zero-sum vectors."""
    rng = np.random.default_rng(seed)
    best = -np.inf
    for _ in range(trials):
        v = random_balanced(X.size, rng)
        best = max(best, quad_reference(X, p, v))
    return best


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
