"""Signed simplices, simplex gaps, and polygonal-equality witnesses.

A signed simplex carries two weighted point lists. Its p-gap is the
cross-side weighted sum of p-th-power distances minus the two same-side
sums; a p-polygonal equality is a vanishing gap with balanced weights, and
it is nontrivial exactly when the simplex reduces to a completely refined
one (distinct points, strictly positive weights). The gap is linked to the
quadratic form through the induced zero-sum vector xi:

    <D_p xi, xi> = -2 * gap_p(Q)

so a nonzero xi with vanishing form is the same thing as a nontrivial
p-polygonal equality. Witness constructions exploit this: at an exponent
where the form takes positive values, a segment from the always-negative
direction e1 - e2 to a positive direction crosses zero (the quadratic in
the segment parameter is solved in closed form); at the supremal exponent
the largest restricted eigenvalue is zero, so its eigendirection is itself
a zero-sum vector with vanishing form.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidTolerance,
    NoRootInUnitInterval,
    NotApplicable,
    NotBalanced,
    NoWitnessFound,
    UnbalancedWeights,
    ZeroVector,
)
from .metric import MetricSpace, power_matrix
from .quadform import (
    BalancedVector,
    Classification,
    QuadFormReport,
    SupremalResult,
    SupremalStatus,
    _classify,
    _weights,
)

__all__ = [
    "SignedSimplex",
    "ReducedKind",
    "ReducedForm",
    "WitnessMethod",
    "WitnessReport",
    "EqualityReport",
    "IntervalKind",
    "IntervalReport",
    "gap",
    "simplex_to_vector",
    "vector_to_simplex",
    "reduce",
    "is_nondegenerate",
    "witness_ivt",
    "witness_at_p",
    "witness_at_supremal",
    "verify_equality",
    "polygonal_interval",
]

# Relative tolerance for weight balance (against the larger side total) and for
# dropping negligible net weights (against the largest weight).
CLEANUP_REL = 1e-12
# Residual acceptance for supremal witnesses, relative to max matrix entry.
RESIDUAL_REL = 1e-6
# Default tolerance for verifying an equality, relative to max(|lhs|,|rhs|,1).
VERIFY_REL = 1e-9


@dataclass(frozen=True)
class SignedSimplex:
    """Two weighted point lists; entries are (point index, real weight)."""

    left: tuple[tuple[int, float], ...]
    right: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "left", tuple((int(i), float(w)) for i, w in self.left)
        )
        object.__setattr__(
            self, "right", tuple((int(i), float(w)) for i, w in self.right)
        )


class ReducedKind(str, enum.Enum):
    DEGENERATE = "DEGENERATE"
    COMPLETELY_REFINED = "COMPLETELY_REFINED"


@dataclass(frozen=True)
class ReducedForm:
    kind: ReducedKind
    simplex: SignedSimplex | None = None


class WitnessMethod(str, enum.Enum):
    IVT = "IVT"
    EIGEN_DIRECTION = "EIGEN_DIRECTION"


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """A unit zero-sum vector with (near-)vanishing form, plus its simplex.

    lhs and rhs are the cross-side and same-side sums of the equality the
    simplex realizes at exponent p; |lhs - rhs| is residual/2 up to the
    components dropped when converting the vector to a simplex.
    """

    p: float
    xi: BalancedVector
    simplex: SignedSimplex
    residual: float
    method: WitnessMethod
    lhs: float
    rhs: float


@dataclass(frozen=True, eq=False)
class EqualityReport:
    """Outcome of checking one candidate p-polygonal equality."""

    p: float
    lhs: float
    rhs: float
    gap: float
    holds: bool
    nontrivial: bool
    tolerance: float

    @property
    def nontrivial_equality(self) -> bool:
        return self.holds and self.nontrivial


class IntervalKind(str, enum.Enum):
    EMPTY = "EMPTY"
    RAY = "RAY"
    RAY_BEYOND_CAP = "RAY_BEYOND_CAP"


@dataclass(frozen=True, eq=False)
class IntervalReport:
    """The set of exponents admitting a nontrivial polygonal equality.

    RAY: [w, inf) with w bracketed by [lo, hi]. RAY_BEYOND_CAP: same shape
    but only the lower bound cap is known. EMPTY: no exponent qualifies
    (ultrametric spaces).
    """

    kind: IntervalKind
    lo: float | None = None
    hi: float | None = None
    cap: float | None = None

    def describe(self) -> str:
        if self.kind is IntervalKind.EMPTY:
            return "∅"
        if self.kind is IntervalKind.RAY_BEYOND_CAP:
            return f"[>{self.cap:g}, ∞)"
        return f"[{0.5 * (self.lo + self.hi):.4f}, ∞)"


def _split(Q: SignedSimplex, m: int):
    for i, _ in (*Q.left, *Q.right):
        if not 0 <= i < m:
            raise IndexOutOfRange(i, m)
    li = np.array([i for i, _ in Q.left], dtype=int)
    lw = np.array([w for _, w in Q.left], dtype=float)
    ri = np.array([i for i, _ in Q.right], dtype=int)
    rw = np.array([w for _, w in Q.right], dtype=float)
    return li, lw, ri, rw


def _sums(d: np.ndarray, li, lw, ri, rw):
    """(cross, same_left, same_right) weighted sums of the entries of D_p."""
    cross = float(lw @ d[np.ix_(li, ri)] @ rw) if li.size and ri.size else 0.0
    same_l = 0.5 * float(lw @ d[np.ix_(li, li)] @ lw) if li.size else 0.0
    same_r = 0.5 * float(rw @ d[np.ix_(ri, ri)] @ rw) if ri.size else 0.0
    return cross, same_l, same_r


def gap(X: MetricSpace, p: float, Q: SignedSimplex) -> float:
    """The p-simplex gap: cross-side sum minus the two same-side sums."""
    parts = _split(Q, X.size)
    cross, same_l, same_r = _sums(power_matrix(X, p), *parts)
    return cross - same_l - same_r


def _net_vector(m: int, li, lw, ri, rw) -> BalancedVector:
    """Net weight per point of balanced sides, with cancellation noise zeroed.

    A net weight counts as zero when it is at most CLEANUP_REL times the
    largest weight written on either side. vector_to_simplex drops the same
    components by the same rule, so every simplex it emits converts back to
    the vector it kept.
    """
    mass = max(float(np.abs(lw).sum()), float(np.abs(rw).sum()))
    if abs(float(lw.sum()) - float(rw.sum())) > CLEANUP_REL * mass:
        raise UnbalancedWeights(float(lw.sum()), float(rw.sum()))
    xi = np.zeros(m)
    np.add.at(xi, li, lw)
    np.subtract.at(xi, ri, rw)
    top = max(float(np.abs(lw).max(initial=0.0)), float(np.abs(rw).max(initial=0.0)))
    xi[np.abs(xi) <= CLEANUP_REL * top] = 0.0
    try:
        return BalancedVector(xi)
    except NotBalanced:
        raise UnbalancedWeights(float(lw.sum()), float(rw.sum())) from None


def simplex_to_vector(X: MetricSpace, Q: SignedSimplex) -> BalancedVector:
    """Net weight per point: left total minus right total, 0 elsewhere.

    Requires balanced weight totals so the result lies in the zero-sum
    hyperplane. Net weights at most CLEANUP_REL times the largest weight are
    zeroed, so exact cancellations survive float rounding.
    """
    return _net_vector(X.size, *_split(Q, X.size))


def vector_to_simplex(X: MetricSpace, xi) -> SignedSimplex:
    """Sign-split a nonzero zero-sum vector into a completely refined simplex.

    Positive components become left weights, negated negative components
    become right weights; components at most CLEANUP_REL times the largest
    are dropped so eigenvector noise cannot create spurious vertices. The
    kept components must sum to zero, as simplex_to_vector requires of the
    result.
    """
    w = _weights(xi, X.size)
    top = float(np.abs(w).max(initial=0.0))
    if top == 0.0:
        raise ZeroVector("all components are zero")
    w = np.where(np.abs(w) > CLEANUP_REL * top, w, 0.0)
    BalancedVector(w)  # raises NotBalanced
    left = tuple((int(i), float(w[i])) for i in np.flatnonzero(w > 0.0))
    right = tuple((int(i), float(-w[i])) for i in np.flatnonzero(w < 0.0))
    if not left and not right:
        raise ZeroVector("all components below cleanup threshold")
    return SignedSimplex(left, right)


def reduce(X: MetricSpace, Q: SignedSimplex) -> ReducedForm:
    """Reduce a signed simplex through its induced zero-sum vector.

    The gap of the reduction equals the gap of the original at every
    exponent, because both sides share the induced vector. A zero vector
    means the simplex is degenerate; otherwise the sign split yields a
    completely refined simplex.
    """
    xi = simplex_to_vector(X, Q)
    if not np.any(xi.weights):
        return ReducedForm(ReducedKind.DEGENERATE)
    return ReducedForm(ReducedKind.COMPLETELY_REFINED, vector_to_simplex(X, xi))


def is_nondegenerate(X: MetricSpace, Q: SignedSimplex) -> bool:
    """True iff the simplex reduces to a completely refined one."""
    return reduce(X, Q).kind is ReducedKind.COMPLETELY_REFINED


def verify_equality(
    X: MetricSpace, p: float, Q: SignedSimplex, tol: float = VERIFY_REL
) -> EqualityReport:
    """Check whether a signed simplex realizes a p-polygonal equality.

    holds compares the cross-side sum (lhs) against the same-side sums
    (rhs) relative to max(|lhs|, |rhs|, 1); nontrivial reports whether the
    simplex is nondegenerate. The two together certify a nontrivial
    p-polygonal equality. tol must be finite and nonnegative.
    """
    if not 0.0 <= tol < math.inf:
        raise InvalidTolerance(f"tol = {tol}")
    parts = _split(Q, X.size)
    xi = _net_vector(X.size, *parts)
    cross, same_l, same_r = _sums(power_matrix(X, p), *parts)
    rhs = same_l + same_r
    g = cross - rhs
    scale = max(abs(cross), abs(rhs), 1.0)
    return EqualityReport(
        p=float(p),
        lhs=cross,
        rhs=rhs,
        gap=g,
        holds=abs(g) <= tol * scale,
        nontrivial=bool(np.any(xi.weights)),
        tolerance=float(tol),
    )


def _witness_from_vector(
    X: MetricSpace, d: np.ndarray, p: float, raw: np.ndarray, method: WitnessMethod
) -> WitnessReport:
    """Project onto the zero-sum hyperplane, normalize, and package."""
    v = raw - raw.mean()
    norm = float(np.linalg.norm(v))
    if norm <= 0.0:
        raise ZeroVector("witness vector vanishes")
    v = v / norm
    xi = BalancedVector(v)
    simplex = vector_to_simplex(X, xi)
    cross, same_l, same_r = _sums(d, *_split(simplex, X.size))
    return WitnessReport(
        p=float(p),
        xi=xi,
        simplex=simplex,
        residual=abs(float(v @ d @ v)),
        method=method,
        lhs=cross,
        rhs=same_l + same_r,
    )


def witness_ivt(X: MetricSpace, p: float) -> WitnessReport:
    """Zero of the form along a segment from a negative to a positive direction.

    Requires NOT_NEG_TYPE at p. With xi0 = e_0 - e_1 (form value
    -2 d(x_0, x_1)^p < 0) and xi1 the positive eigendirection, the form
    along (1-t) xi0 + t xi1 is a quadratic in t with opposite signs at the
    endpoints, so its root in (0, 1) is solved in closed form. The zero
    vector cannot occur there: it would force xi1 parallel to xi0, whose
    form value is negative.
    """
    d = power_matrix(X, p)
    return _witness_ivt(X, d, p, _classify(d, p, None))


def _witness_ivt(
    X: MetricSpace, d: np.ndarray, p: float, report: QuadFormReport
) -> WitnessReport:
    if report.classification is not Classification.NOT_NEG_TYPE:
        raise NotApplicable(
            f"space has {report.p}-negative type (lambda_max = {report.lambda_max:g})"
        )
    xi0 = np.zeros(X.size)
    xi0[0], xi0[1] = 1.0, -1.0
    xi1 = report.direction.weights

    f00 = float(xi0 @ d @ xi0)  # -2 d(x_0, x_1)^p
    f01 = float(xi0 @ d @ xi1)
    f11 = float(xi1 @ d @ xi1)

    # form((1-t) xi0 + t xi1) = a t^2 + b t + c
    a = f00 - 2.0 * f01 + f11
    b = 2.0 * (f01 - f00)
    c = f00
    scale = max(abs(f00), abs(f01), abs(f11))

    if abs(a) <= 1e-14 * scale:
        if b == 0.0:
            raise NoRootInUnitInterval("degenerate segment quadratic")
        roots = [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            if disc < -1e-12 * scale * scale:
                raise NoRootInUnitInterval(f"negative discriminant {disc:g}")
            disc = 0.0
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b if b != 0 else 1.0))
        roots = [r for r in (q / a, c / q if q != 0 else np.nan) if np.isfinite(r)]

    inside = sorted(t for t in roots if 0.0 < t < 1.0)
    if not inside:
        raise NoRootInUnitInterval(f"roots {roots} outside (0,1)")
    s = inside[0]

    xi_s = (1.0 - s) * xi0 + s * xi1
    if float(np.linalg.norm(xi_s)) <= 1e-12:
        raise NoRootInUnitInterval("interpolated vector vanished")
    return _witness_from_vector(X, d, p, xi_s, WitnessMethod.IVT)


def witness_at_p(
    X: MetricSpace, p: float, epsilon: float | None = None
) -> WitnessReport:
    """Witness at a fixed exponent, when one exists.

    NOT_NEG_TYPE uses the segment construction; BOUNDARY uses the top
    eigendirection, whose form value is within classification tolerance of
    zero. STRICT raises NotApplicable: no nontrivial p-polygonal equality
    exists there.
    """
    d = power_matrix(X, p)
    report = _classify(d, p, epsilon)
    if report.classification is Classification.STRICT:
        raise NotApplicable(
            f"strict {p:g}-negative type: no nontrivial {p:g}-polygonal equality"
        )
    if report.classification is Classification.NOT_NEG_TYPE:
        return _witness_ivt(X, d, p, report)
    return _witness_from_vector(
        X, d, p, report.direction.weights, WitnessMethod.EIGEN_DIRECTION
    )


def witness_at_supremal(X: MetricSpace, sup: SupremalResult) -> WitnessReport:
    """Witness at the midpoint of a FINITE supremal bracket.

    At the supremal exponent the largest restricted eigenvalue is zero, so
    its eigendirection is a unit zero-sum vector with vanishing form. It is
    accepted when its residual is at most RESIDUAL_REL of the largest entry
    of D_p; a bracket away from the supremal exponent raises NoWitnessFound.
    Ultrametric spaces and capped searches raise NotApplicable.
    """
    if sup.status is SupremalStatus.INFINITE_ULTRAMETRIC:
        raise NotApplicable(
            "ultrametric space: no nontrivial polygonal equality at any exponent"
        )
    if sup.status is SupremalStatus.EXCEEDS_CAP:
        raise NotApplicable(
            f"supremal exponent exceeds cap {sup.cap:g}; no witness located"
        )
    p = sup.midpoint
    d = power_matrix(X, p)
    report = _witness_from_vector(
        X, d, p, _classify(d, p, None).direction.weights, WitnessMethod.EIGEN_DIRECTION
    )
    gate = RESIDUAL_REL * float(d.max())
    if report.residual > gate:
        raise NoWitnessFound(
            f"eigendirection residual {report.residual:g} exceeds {gate:g} at p = {p:g}"
        )
    return report


def polygonal_interval(X: MetricSpace, sup: SupremalResult) -> IntervalReport:
    """Exponents admitting a nontrivial polygonal equality, from a supremal result.

    A finite supremal exponent w yields the closed ray [w, inf); ultrametric
    spaces yield the empty set; a capped search yields a ray whose left
    endpoint is only known to exceed the cap.
    """
    if sup.status is SupremalStatus.FINITE:
        return IntervalReport(IntervalKind.RAY, lo=sup.lo, hi=sup.hi, cap=sup.cap)
    if sup.status is SupremalStatus.INFINITE_ULTRAMETRIC:
        return IntervalReport(IntervalKind.EMPTY, cap=sup.cap)
    return IntervalReport(IntervalKind.RAY_BEYOND_CAP, cap=sup.cap)
