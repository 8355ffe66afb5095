"""Quadratic-form analysis on the zero-sum hyperplane.

For a space X and exponent p, the form xi -> <D_p xi, xi> restricted to the
hyperplane F0 = {xi : sum xi = 0} decides p-negative type: the space has
p-negative type iff the form is nonpositive there, strictly so iff it is
negative definite. The set of such p is a closed interval [0, w] (all of
[0, inf) exactly for ultrametric spaces), so the right endpoint w -- the
supremal p-negative type -- can be bracketed by bisecting the sign of the
largest restricted eigenvalue.

The restriction uses one Householder reflection H = I - beta u u^T mapping
the unit all-ones vector to -e_m: the first m-1 columns of H are an
orthonormal basis of F0, so the leading (m-1) x (m-1) block of H D_p H is
the form in that basis. The block costs O(m^2) and an eigenvector maps back
through one O(m) reflection. Each public call builds D_p once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenFailure,
    InvalidCap,
    InvalidTolerance,
    LengthMismatch,
    NotBalanced,
)
from .metric import MetricSpace, is_ultrametric, power_matrix

__all__ = [
    "BalancedVector",
    "Classification",
    "QuadFormReport",
    "SupremalStatus",
    "SupremalResult",
    "restricted_form",
    "quad_form",
    "classify",
    "supremal",
    "hilbert_embeddable",
]

# Balance slack for constructing a BalancedVector, relative to max |component|.
BALANCE_REL = 1e-12
# Classification tolerance, relative to the largest entry of D_p.
EPSILON_REL = 1e-9


@dataclass(frozen=True, eq=False)
class BalancedVector:
    """A vector whose components sum to zero (the hyperplane F0)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).ravel()
        total = float(w.sum())
        if abs(total) > BALANCE_REL * float(np.abs(w).max(initial=0.0)):
            raise NotBalanced(total)
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

    lo and hi are set only for FINITE status; EXCEEDS_CAP records that the
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
    w = xi.weights if isinstance(xi, BalancedVector) else np.asarray(xi, dtype=float)
    w = w.ravel()
    if w.size != m:
        raise LengthMismatch(m, w.size)
    return w


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
    # H D_p H = D_p - (u z^T + z u^T); the sum is formed first so that the
    # result is exactly symmetric
    a = np.outer(u, z)
    a += a.T
    np.subtract(d, a, out=a)
    return a[:-1, :-1]


def _lift(y: np.ndarray) -> np.ndarray:
    """H [y; 0]: basis coordinates of F0 back to a zero-sum vector in R^m."""
    u, beta = _reflector(y.size + 1)
    x = np.append(y, 0.0)
    x -= (beta * float(u[:-1] @ y)) * u
    return x


def quad_form(X: MetricSpace, p: float, xi) -> float:
    """<D_p xi, xi> = sum_{i,j} d(x_i,x_j)^p xi_i xi_j over ordered pairs."""
    w = _weights(xi, X.size)
    return float(w @ power_matrix(X, p) @ w)


def restricted_form(X: MetricSpace, p: float) -> np.ndarray:
    """The (m-1) x (m-1) symmetric matrix of the form in an orthonormal basis of F0."""
    return _restrict(power_matrix(X, p))


def classify(X: MetricSpace, p: float, epsilon: float | None = None) -> QuadFormReport:
    """Three-way negative-type classification at exponent p.

    Computes the largest eigenvalue of the restricted form and compares it
    against epsilon (default EPSILON_REL times the largest entry of D_p),
    which must be finite and nonnegative.
    """
    return _classify(power_matrix(X, p), p, epsilon)


def _classify(d: np.ndarray, p: float, epsilon: float | None) -> QuadFormReport:
    """classify on an already built D_p."""
    if epsilon is not None and not 0.0 <= epsilon < math.inf:
        raise InvalidTolerance(f"epsilon = {epsilon}")
    try:
        evals, evecs = np.linalg.eigh(_restrict(d))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    if epsilon is None:
        epsilon = EPSILON_REL * float(d.max())
    lam = float(evals[-1])

    if lam < -epsilon:
        cls = Classification.STRICT
    elif lam > epsilon:
        cls = Classification.NOT_NEG_TYPE
    else:
        cls = Classification.BOUNDARY
    direction = BalancedVector(_lift(evecs[:, -1]))
    return QuadFormReport(float(p), lam, cls, direction, float(epsilon))


def _lambda_max(d: np.ndarray) -> float:
    try:
        return float(np.linalg.eigvalsh(_restrict(d))[-1])
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def supremal(
    X: MetricSpace, cap: float = 64.0, width_tol: float = 1e-10
) -> SupremalResult:
    """Bracket the supremal p-negative type by doubling then bisection.

    Ultrametric spaces short-circuit to INFINITE_ULTRAMETRIC. Otherwise the
    largest restricted eigenvalue is probed at p = 1, 2, 4, ... (the last
    probe clamped to cap); the form at p = 0 equals -|xi|^2 on F0, so p = 0
    always anchors the nonpositive side. A sign change is narrowed to
    width_tol by bisection on raw eigenvalue signs; the tolerance applies
    only to the reported bracket width.
    """
    if not 0.0 < cap < math.inf:
        raise InvalidCap(f"cap = {cap}")
    if not 0.0 < width_tol < math.inf:
        raise InvalidCap(f"width_tol = {width_tol}")
    if is_ultrametric(X):
        return SupremalResult(SupremalStatus.INFINITE_ULTRAMETRIC, None, None, float(cap), 0)

    evaluations = 0

    def positive(p: float) -> bool:
        nonlocal evaluations
        evaluations += 1
        return _lambda_max(power_matrix(X, p)) > 0.0

    lo, hi = 0.0, None
    probe = min(1.0, cap)
    while True:
        if positive(probe):
            hi = probe
            break
        lo = probe
        if probe >= cap:
            break
        probe = min(2.0 * probe, cap)

    if hi is None:
        return SupremalResult(SupremalStatus.EXCEEDS_CAP, None, None, float(cap), evaluations)

    while hi - lo > width_tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # reached float spacing
            break
        if positive(mid):
            hi = mid
        else:
            lo = mid
    return SupremalResult(SupremalStatus.FINITE, lo, hi, float(cap), evaluations)


def hilbert_embeddable(X: MetricSpace) -> bool:
    """True iff the space embeds isometrically in a Hilbert space.

    The classical criterion: embeddability holds exactly when the space has
    2-negative type, i.e. the supremal exponent is at least 2.
    """
    return classify(X, 2.0).classification is not Classification.NOT_NEG_TYPE
