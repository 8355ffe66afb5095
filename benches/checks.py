"""Independent output checks. Nothing here imports negtype.

Distances are recomputed from the generated inputs, gaps are plain numpy
sums over the emitted simplex, classes come from ``scipy.linalg.eigh`` of the
double-centred m x m power matrix, and ultrametricity from single-linkage
cophenetic distances.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform

# Acceptance gate of a supremal witness, from the README: form residual at
# most 1e-6 * max entry of the power matrix. The gap is minus half the form.
GAP_REL = 0.5e-6
# Closed-form anchors must be met to this relative accuracy.
ANCHOR_REL = 1e-6
# Oracle class thresholds on lambda_max / max|D_p|: BOUNDARY below the first,
# a sign decision above the second; inputs in between are refused.
BOUNDARY_REL = 1e-10
DECIDED_REL = 1e-6


def point_distances(coords: np.ndarray, q: float) -> np.ndarray:
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    return (diff ** q).sum(axis=2) ** (1.0 / q)


def path_distances(m: int) -> np.ndarray:
    idx = np.arange(m, dtype=float)
    return np.abs(idx[:, None] - idx[None, :])


def cycle_distances(m: int) -> np.ndarray:
    d = path_distances(m)
    return np.minimum(d, m - d)


def simplex_problems(simplex: dict, m: int) -> list[str]:
    """Problems with a simplex as completely refined: distinct points, positive
    weights, balanced totals."""
    left, right = simplex["left"], simplex["right"]
    idx = [int(i) for i, _ in left + right]
    out = []
    if not left or not right:
        out.append("one side of the simplex is empty")
    if len(set(idx)) != len(idx) or not all(0 <= i < m for i in idx):
        out.append("simplex indices repeat or are out of range")
    if not all(w > 0 for _, w in left + right):
        out.append("simplex has a nonpositive weight")
    lsum, rsum = sum(w for _, w in left), sum(w for _, w in right)
    if abs(lsum - rsum) > 1e-9 * max(lsum, rsum):
        out.append(f"unbalanced simplex: {lsum!r} vs {rsum!r}")
    return out


def gap_problems(d: np.ndarray, p: float, simplex: dict) -> list[str]:
    """Recompute the p-gap of a simplex and hold it to the witness gate."""
    li = np.array([i for i, _ in simplex["left"]], dtype=int)
    lw = np.array([w for _, w in simplex["left"]], dtype=float)
    ri = np.array([i for i, _ in simplex["right"]], dtype=int)
    rw = np.array([w for _, w in simplex["right"]], dtype=float)
    dp = d ** p
    np.fill_diagonal(dp, 0.0)
    cross = lw @ dp[np.ix_(li, ri)] @ rw
    same = 0.5 * (lw @ dp[np.ix_(li, li)] @ lw + rw @ dp[np.ix_(ri, ri)] @ rw)
    gate = GAP_REL * dp.max()
    if not abs(cross - same) <= gate:
        return [f"gap {cross - same:.3e} exceeds {gate:.3e} at p = {p!r}"]
    return []


def anchor_problems(p: float, w: float | None) -> list[str]:
    if w is not None and not abs(p - w) <= ANCHOR_REL * w:
        return [f"p = {p!r} misses the closed-form w = {w}"]
    return []


def lambda_rel(d: np.ndarray, p: float) -> float:
    """Largest eigenvalue of the p-form on the zero-sum hyperplane / max|D_p|.

    Double centring keeps the hyperplane spectrum and sends the ones
    direction to 0; a shift of -2m max|D_p| on that direction moves it below
    every other eigenvalue.
    """
    m = d.shape[0]
    dp = d ** p
    np.fill_diagonal(dp, 0.0)
    scale = dp.max()
    c = dp - dp.mean(axis=0)[None, :] - dp.mean(axis=1)[:, None] + dp.mean()
    c -= 2.0 * scale
    top = scipy.linalg.eigh(c, eigvals_only=True, subset_by_index=[m - 1, m - 1])
    return float(top[0]) / scale


def oracle_class(d: np.ndarray, p: float) -> str:
    lam = lambda_rel(d, p)
    if abs(lam) <= BOUNDARY_REL:
        return "BOUNDARY"
    if abs(lam) < DECIDED_REL:
        raise ValueError(f"p = {p!r} is too close to the supremal exponent to decide")
    return "NOT_NEG_TYPE" if lam > 0 else "STRICT"


def coarse_supremal(d: np.ndarray, cap: float = 64.0, steps: int = 12) -> float:
    """Supremal exponent to about 2**-steps of its doubling bracket."""
    lo, hi = 0.0, 1.0
    while lambda_rel(d, hi) <= 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > cap:
            raise ValueError(f"no sign change at or below {cap}")
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if lambda_rel(d, mid) > 0.0 else (mid, hi)
    return 0.5 * (lo + hi)


def ultrametric_problems(d: np.ndarray) -> list[str]:
    """A matrix is ultrametric iff it equals its single-linkage cophenetic matrix."""
    coph = squareform(cophenet(linkage(squareform(d, checks=False), "single")))
    if not np.allclose(coph, d, rtol=1e-12, atol=0.0):
        return ["generated matrix is not ultrametric"]
    return []
