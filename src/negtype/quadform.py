"""Quadratic-form analysis on the zero-sum hyperplane.

For a space X and exponent p, the form xi -> <D_p xi, xi> restricted to the
hyperplane F0 = {xi : sum xi = 0} decides p-negative type: the space has
p-negative type iff the form is nonpositive there, strictly so iff it is
negative definite. The set of such p is a closed interval [0, w] (all of
[0, inf) exactly for ultrametric spaces), so the largest restricted
eigenvalue changes sign once, at the supremal p-negative type w, and a
regula falsi on that eigenvalue brackets w, ending early on a probe inside
the rounding floor (FLOOR). Every decision and value reads D~_p =
(d / max d)^p from metric._power, largest entry 1 at any scale, and a
value converts once to the units of D_p (metric._real). quad_form is -2
gap_p of the sign split of its vector, summed as gap is (_sums, _block).

The restriction uses one Householder reflection H = I - beta u u^T mapping
the unit all-ones vector to -e_m: the first m-1 columns of H are an
orthonormal basis of F0, so the leading (m-1) x (m-1) block of H D~_p H is
the form in that basis, built in one matrix-vector product and one pass
over its entries (_restrict; 0.4 ms at m = 350 and 2 ms at m = 800 on a
2-core host, against 9 and 47 ms for eigvalsh). An eigenvector maps back
through one O(m) reflection. Each public call builds D~_p at most once
(a witness checks a simplex that leaves out a point on its own block).

Every eigensolve of that block runs in one helper (_top); a sign probe of
supremal computes eigenvalues only. The class at one exponent and the
witnesses in polyeq read the two extreme eigenpairs of one eigh, which
_solve keeps per space object with the read-only D~_p they were solved on,
for the last exact exponent only (O(m^2) floats per live space, weakly
keyed): classify, then witness_at_p builds and solves once, and quad_form,
polyeq.gap and polyeq.verify_equality read the kept D~_p (_block) when
their vector or simplex covers every point. A space is immutable
(re-enabling writes on X.dist is unsupported). Sign probes and
restricted_form neither read nor write the memo.
"""

from __future__ import annotations

import enum
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenFailure,
    InvalidCap,
    InvalidTolerance,
    LengthMismatch,
    NotBalanced,
)
from .metric import MetricSpace, _exponent, _power, _real, is_ultrametric

__all__ = [
    "BalancedVector",
    "Classification",
    "QuadFormReport",
    "SupremalStatus",
    "SupremalResult",
    "quad_form",
    "classify",
    "supremal",
    "hilbert_embeddable",
]

# Balance slack, relative to a vector's largest |weight|.
BALANCE_REL = 1e-12
# Classification tolerance on the normalised form, whose largest entry is 1.
EPSILON_REL = 1e-9
# Rounding floor of a sign probe, relative to the spectral norm of the form.
FLOOR = 16 * np.finfo(float).eps

# space -> (p, _solve tuple of the space at p), see _solve
_SOLVED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class BalancedVector:
    """A vector of finite components that sum to zero (the hyperplane F0)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).ravel()
        unit, e = _scaled(w)
        # a non-finite component leaves w unscaled, and its sum is NaN or
        # inf, rejected below
        with np.errstate(invalid="ignore", over="ignore"):
            total = float(unit.sum())
        if not abs(total) <= BALANCE_REL * float(np.abs(unit).max(initial=0.0)) < math.inf:
            raise NotBalanced(_real(total, 1.0, e))
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.weights.size


class Classification(str, enum.Enum):
    STRICT = "STRICT"
    BOUNDARY = "BOUNDARY"
    NOT_NEG_TYPE = "NOT_NEG_TYPE"


class SupremalStatus(str, enum.Enum):
    FINITE = "FINITE"
    INFINITE_ULTRAMETRIC = "INFINITE_ULTRAMETRIC"
    EXCEEDS_CAP = "EXCEEDS_CAP"


@dataclass(frozen=True, eq=False)
class QuadFormReport:
    """Largest restricted eigenvalue at one exponent, with its direction.

    STRICT means strict p-negative type (lambda_max < -eps), BOUNDARY means
    p-negative type but not strict (|lambda_max| <= eps), NOT_NEG_TYPE means
    the form takes positive values on F0 (lambda_max > eps).
    """

    p: float
    lambda_max: float
    classification: Classification
    direction: BalancedVector
    tolerance: float


@dataclass(frozen=True, eq=False)
class SupremalResult:
    """Bracketed estimate of the supremal p-negative type.

    lo and hi are set only for FINITE status, where lo == hi is a probe
    that read zero within the rounding floor; EXCEEDS_CAP records that the
    space is not ultrametric yet no sign change was found at or below cap.
    """

    status: SupremalStatus
    lo: float | None
    hi: float | None
    cap: float
    evaluations: int

    @property
    def midpoint(self) -> float | None:
        if self.status is not SupremalStatus.FINITE:
            return None
        return 0.5 * (self.lo + self.hi)


def _weights(xi, m: int) -> np.ndarray:
    w = np.asarray(xi.weights if isinstance(xi, BalancedVector) else xi, dtype=float).ravel()
    if w.size != m:
        raise LengthMismatch(m, w.size)
    if not np.isfinite(w).all():  # a NaN or infinite component has no finite sum
        raise NotBalanced(math.nan)
    return w


def _scaled(w: np.ndarray) -> tuple[np.ndarray, int]:
    """(w * 2**-e, e), e the binary exponent of the largest |w|.

    The largest weight then lies in [0.5, 1), so sums of weights and of
    products of two weights with entries of D~_p cannot overflow, and the
    scaling is exact for every weight of at least 2**-1021 times the largest.
    """
    e = math.frexp(float(np.abs(w).max(initial=0.0)))[1]  # 0 for 0, inf and NaN
    return np.ldexp(w, -e), e


def _reflector(m: int) -> tuple[np.ndarray, float]:
    """u and beta of the reflection H = I - beta u u^T with H 1/sqrt(m) = -e_m."""
    u = np.full(m, 1.0 / math.sqrt(m))
    u[-1] += 1.0
    return u, 2.0 / float(u @ u)


def _restrict(d: np.ndarray) -> np.ndarray:
    """Leading (m-1) x (m-1) block of H D_p H: the form in the basis of F0."""
    u, beta = _reflector(d.shape[0])
    w = beta * (d @ u)
    z = w - (0.5 * beta * float(u @ w)) * u
    # H D_p H = D_p - (u z^T + z u^T). Every entry of u[:-1] is 1/sqrt(m), so
    # with t = u[0] z[:-1] the block of u z^T + z u^T is t[i] + t[j], formed
    # in one pass and exactly symmetric, since rounded + commutes
    t = u[0] * z[:-1]
    a = np.add.outer(t, t)
    np.subtract(d[:-1, :-1], a, out=a)
    return a


def _lift(y: np.ndarray) -> np.ndarray:
    """H [y; 0]: basis coordinates of F0 back to a zero-sum vector in R^m."""
    u, beta = _reflector(y.size + 1)
    x = np.append(y, 0.0)
    x -= (beta * float(u[:-1] @ y)) * u
    return x


def _top(d: np.ndarray, vector: bool = True) -> tuple:
    """Extreme eigenpairs of the restricted form, with unit zero-sum eigenvectors.

    The one eigensolve of the package. A sign probe (vector=False) gets
    (lambda_max, None) from eigvalsh, about half the cost, with lambda_max
    read as exactly 0.0 when it is at most FLOOR times the spectral norm
    max(-lambda_min, lambda_max) of the form; _solve gets
    (lambda_max, v_max, lambda_min, v_min) from one eigh. Both
    run in the LAPACK that numpy loads: scipy.linalg bundles a second
    OpenBLAS, whose idle worker threads keep spinning after each call and
    slow the caller's next numpy BLAS call several-fold on a host with as
    many cores as BLAS threads. A form that is not finite (an unvalidated
    space's NaN or inf) and a convergence failure both raise EigenFailure.
    """
    a = _restrict(d)
    if not np.isfinite(a).all():
        raise EigenFailure("restricted form is not finite")
    try:
        if not vector:
            evals = np.linalg.eigvalsh(a)
            lam = float(evals[-1])
            return (0.0 if abs(lam) <= FLOOR * max(-evals[0], lam) else lam), None
        evals, evecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    return float(evals[-1]), _lift(evecs[:, -1]), float(evals[0]), _lift(evecs[:, 0])


def _solve(X: MetricSpace, p: float) -> tuple:
    """(D~_p, scale, lambda_max, v_max, lambda_min, v_min) for one decision at (X, p).

    The tuple is kept for the last exponent of this same space object, with
    D~_p and the eigenvectors read-only, and a call at exactly float(p) hands
    out those very arrays, which a fresh build and solve would repeat bit
    for bit. A build or solve that raises stores nothing. Concurrent callers
    can only overwrite each other's entry, never read one at the wrong
    exponent, since the entry carries its exponent.
    """
    solved = _kept(X, p)
    if solved is None:
        d, scale = _power(X, p)
        pairs = _top(d)
        for a in (d, *pairs[1::2]):  # every later hit hands out these same arrays
            a.setflags(write=False)
        solved = (d, scale, *pairs)
        _SOLVED[X] = (float(p), solved)
    return solved


def _kept(X: MetricSpace, p: float) -> tuple | None:
    """The kept _solve tuple of X when it was solved at exactly float(p), else None."""
    kept = _SOLVED.get(X)
    return kept[1] if kept is not None and kept[0] == _exponent(p) else None


def _block(X: MetricSpace, p: float, s: np.ndarray) -> tuple[np.ndarray, float]:
    """(D~_p, scale) on the block of D_p on the sorted distinct points s.

    The block's own largest entry sets its scale. A block of every point is
    the D~_p kept by _solve at exactly p, if any: the bits _power builds.
    """
    solved = _kept(X, p) if len(s) == X.size else None
    return solved[:2] if solved is not None else _power(X, p, s)


def _sums(d: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(a d b, (a d a + b d b) / 2) for dense weights a, b: one product reads d once.

    gap_p is the first minus the second, and the form of a - b is 2 (second - first).
    """
    da, db = np.stack((a, b)) @ d  # d is symmetric: rows a d and b d
    return float(da @ b), 0.5 * (float(da @ a) + float(db @ b))


def quad_form(X: MetricSpace, p: float, xi) -> float:
    """<D_p xi, xi> = sum_{i,j} d(x_i,x_j)^p xi_i xi_j over ordered pairs."""
    w = _weights(xi, X.size)
    s = np.flatnonzero(w)
    w, e = _scaled(w[s])
    d, scale = _block(X, p, s)
    cross, same = _sums(d, np.maximum(w, 0.0), np.maximum(-w, 0.0))
    return _real(2.0 * (same - cross), scale, 2 * e)


def restricted_form(X: MetricSpace, p: float) -> np.ndarray:
    """The (m-1) x (m-1) symmetric matrix of the form in an orthonormal basis of F0."""
    d, scale = _power(X, p)
    return _real(_restrict(d), scale)


def classify(X: MetricSpace, p: float, epsilon: float | None = None) -> QuadFormReport:
    """Three-way negative-type classification at exponent p.

    Computes the largest eigenvalue of the restricted form and compares it
    against epsilon, which must be finite and nonnegative. The default is
    EPSILON_REL times the largest entry of D_p; the comparison runs on the
    normalised form, where epsilon reads epsilon / max D_p.
    """
    if epsilon is not None and not 0.0 <= epsilon < math.inf:
        raise InvalidTolerance(f"epsilon = {epsilon}")
    _, scale, lam, direction, _, _ = _solve(X, p)
    if epsilon is None:
        eps, epsilon = EPSILON_REL, _real(EPSILON_REL, scale)
    else:  # x / 0 reads as inf, 0 / 0 as 0
        eps = epsilon / scale if scale else math.inf if epsilon else 0.0

    if lam < -eps:
        cls = Classification.STRICT
    elif lam > eps:
        cls = Classification.NOT_NEG_TYPE
    else:
        cls = Classification.BOUNDARY
    return QuadFormReport(float(p), _real(lam, scale), cls, BalancedVector(direction),
                          float(epsilon))


def supremal(
    X: MetricSpace, cap: float = 64.0, width_tol: float = 1e-10
) -> SupremalResult:
    """Bracket the supremal p-negative type by doubling then regula falsi.

    Ultrametric spaces short-circuit to INFINITE_ULTRAMETRIC. Otherwise g(p),
    lambda_max of the normalised form (of D_p divided by max D_p), is probed
    at p = 1, 2, 4, ... (the last probe clamped to cap); the form at p = 0
    equals -|xi|^2 on F0, so g(0) = -1 anchors the nonpositive side without
    a probe. The exponents of p-negative type are [0, w], so g
    changes sign once. Its sign change is narrowed to width_tol by an
    Illinois regula falsi on g that keeps g(lo) <= 0 < g(hi):
    - each interpolated exponent stays width_tol/4 inside the bracket, so
      an accurate estimate lands on the far side and closes the bracket;
    - the search may spend 2 * ceil(log2(W / width_tol)) probes after
      doubling found a bracket of width W, and a step falls back to the
      midpoint once one more step that fails to shrink the bracket would
      leave too few probes for bisection to finish.
    A probe that reads 0.0 (within FLOOR of the form's norm, see _top) is
    taken as the zero of g: the search ends there with lo == hi, so the
    midpoint is that exponent. Otherwise a bracket is a sign change of the
    computed lambda_max, which can still sit anywhere in a band where the
    true value is near the floor. The tolerance applies only to the
    reported bracket width.
    """
    if not 0.0 < cap < math.inf:
        raise InvalidCap(f"cap = {cap}")
    if not 0.0 < width_tol < math.inf:
        raise InvalidCap(f"width_tol = {width_tol}")
    if is_ultrametric(X):
        return SupremalResult(SupremalStatus.INFINITE_ULTRAMETRIC, None, None, float(cap), 0)

    evaluations = 0

    def value(p: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return _top(_power(X, p)[0], vector=False)[0]

    lo, g_lo, hi, g_hi = 0.0, -1.0, None, None
    probe = min(1.0, cap)
    while True:
        g = value(probe)
        if g >= 0.0:
            hi, g_hi = probe, g
            break
        lo, g_lo = probe, g
        if probe >= cap:
            break
        probe = min(2.0 * probe, cap)

    if hi is None:
        return SupremalResult(SupremalStatus.EXCEEDS_CAP, None, None, float(cap), evaluations)
    if g_hi == 0.0:
        return SupremalResult(SupremalStatus.FINITE, hi, hi, float(cap), evaluations)

    left = 2 * math.ceil(math.log2(hi - lo) - math.log2(width_tol))
    kept = 0  # which end the last probe moved: +1 hi, -1 lo
    while hi - lo > width_tol:
        p = 0.5 * (lo + hi)
        if math.log2(hi - lo) - math.log2(width_tol) <= left - 1:
            step = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
            step = min(max(step, lo + 0.25 * width_tol), hi - 0.25 * width_tol)
            if lo < step < hi:
                p = step
        if p <= lo or p >= hi:  # reached float spacing
            break
        left -= 1
        g = value(p)
        if g == 0.0:  # a zero of g: end on it
            lo = hi = p
            break
        if g > 0.0:
            hi, g_hi = p, g
            if kept > 0:  # lo kept twice: halve its weight
                g_lo *= 0.5
            kept = 1
        else:
            lo, g_lo = p, g
            if kept < 0:
                g_hi *= 0.5
            kept = -1
    return SupremalResult(SupremalStatus.FINITE, lo, hi, float(cap), evaluations)


def hilbert_embeddable(X: MetricSpace) -> bool:
    """True iff the space embeds isometrically in a Hilbert space.

    The classical criterion: embeddability holds exactly when the space has
    2-negative type, i.e. the supremal exponent is at least 2.
    """
    return classify(X, 2.0).classification is not Classification.NOT_NEG_TYPE
