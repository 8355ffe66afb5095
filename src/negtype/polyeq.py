"""Signed simplices, simplex gaps, and polygonal-equality witnesses.

A signed simplex carries two weighted point lists. Its p-gap is the
cross-side weighted sum of p-th-power distances minus the two same-side
sums; a p-polygonal equality is a vanishing gap with balanced weights, and
it is nontrivial exactly when the simplex reduces to a completely refined
one (distinct points, strictly positive weights). The gap is linked to the
quadratic form through the induced zero-sum vector xi:

    <D_p xi, xi> = -2 * gap_p(Q)

so a nonzero xi with vanishing form is the same thing as a nontrivial
p-polygonal equality. One witness construction serves every exponent: the
top and bottom eigendirections of the restricted form, from its one
eigensolve, span a plane of unit zero-sum vectors on which the form runs
from lambda_max down to lambda_min < 0. Where lambda_max >= 0 the form
vanishes at a closed-form angle in that plane; at the supremal exponent
lambda_max is zero and the angle is zero, so the witness is the top
eigendirection itself. Every D_p here is metric._power's D~_p, converted
once: a witness and its equality check share one build, and one helper
(_equality) checks both it and a simplex given to verify_equality, which
like gap reads only the block of D_p on the points of the simplex. That
check is the one gate: NoWitnessFound carries a witness that fails it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidTolerance,
    NotApplicable,
    NotBalanced,
    NoWitnessFound,
    UnbalancedWeights,
    ZeroVector,
)
from .metric import MetricSpace, _power, _real
from .quadform import (
    BalancedVector,
    Classification,
    QuadFormReport,
    SupremalResult,
    SupremalStatus,
    _check_epsilon,
    _classify,
    _scaled,
    _solve,
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
    "witness_at_p",
    "witness_at_supremal",
    "verify_equality",
    "polygonal_interval",
]

# Relative tolerance for weight balance (against the larger side total) and for
# dropping negligible net weights (against the largest weight).
CLEANUP_REL = 1e-12
# Default tolerance for verifying an equality, relative to max(|lhs|, |rhs|).
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

    equality is verify_equality of the simplex at p, summed on the D~_p the
    witness was solved on; lhs and rhs read from it. |lhs - rhs| is residual/2
    up to the components dropped when converting the vector to a simplex.
    """

    p: float
    xi: BalancedVector
    simplex: SignedSimplex
    residual: float
    method: WitnessMethod
    equality: EqualityReport

    lhs = property(lambda self: self.equality.lhs)
    rhs = property(lambda self: self.equality.rhs)


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


def _split(Q: SignedSimplex, m: int) -> tuple:
    """(li, lw, ri, rw, e): the points and weights of each side of Q.

    The weights are scaled by one exact power of two 2**-e (quadform._scaled),
    so no side total or weighted sum overflows: a value summed on them takes
    the factor 2**e per weight back when it converts (metric._real).
    """
    for i, _ in (*Q.left, *Q.right):
        if not 0 <= i < m:
            raise IndexOutOfRange(i, m)
    li = np.array([i for i, _ in Q.left], dtype=int)
    lw = np.array([w for _, w in Q.left], dtype=float)
    ri = np.array([i for i, _ in Q.right], dtype=int)
    rw = np.array([w for _, w in Q.right], dtype=float)
    if not (np.isfinite(lw).all() and np.isfinite(rw).all()):  # no finite totals
        with np.errstate(invalid="ignore", over="ignore"):
            raise UnbalancedWeights(float(lw.sum()), float(rw.sum()))
    w, e = _scaled(np.concatenate((lw, rw)))
    return li, w[: li.size], ri, w[li.size :], e


def _sums(d: np.ndarray, li, lw, ri, rw, e):
    """(cross, same_left, same_right) weighted sums of the entries of D_p, times 2**-2e."""
    cross = float(lw @ d[np.ix_(li, ri)] @ rw) if li.size and ri.size else 0.0
    same_l = 0.5 * float(lw @ d[np.ix_(li, li)] @ lw) if li.size else 0.0
    same_r = 0.5 * float(rw @ d[np.ix_(ri, ri)] @ rw) if ri.size else 0.0
    return cross, same_l, same_r


def _on_points(X: MetricSpace, p: float, Q: SignedSimplex) -> tuple:
    """(D~_p, scale, parts) on the block of D_p on the points of Q.

    parts are the _split parts of Q indexed into that block. The sums of Q
    read no other entry, so the block's own largest entry sets the scale,
    and a Q on points far closer than the rest of the space keeps its value.
    """
    li, lw, ri, rw, e = _split(Q, X.size)
    s, at = np.unique(np.concatenate((li, ri)), return_inverse=True)
    return *_power(X, p, s), (at[: li.size], lw, at[li.size :], rw, e)


def gap(X: MetricSpace, p: float, Q: SignedSimplex) -> float:
    """The p-simplex gap: cross-side sum minus the two same-side sums."""
    d, scale, parts = _on_points(X, p, Q)
    cross, same_l, same_r = _sums(d, *parts)
    return _real(cross - same_l - same_r, scale, 2 * parts[-1])


def _net_vector(m: int, li, lw, ri, rw, e) -> BalancedVector:
    """Net weight per point of balanced sides, times 2**-e, with cancellation noise zeroed.

    The sides are _split's, so balance is decided on the scaled weights,
    where no total overflows. A net weight counts as zero when it is at most
    CLEANUP_REL times the largest weight written on either side.
    vector_to_simplex drops the same components by the same rule, so every
    simplex it emits converts back to the vector it kept.
    """
    left, right = float(lw.sum()), float(rw.sum())
    totals = _real(left, 1.0, e), _real(right, 1.0, e)
    mass = max(float(np.abs(lw).sum()), float(np.abs(rw).sum()))
    if not abs(left - right) <= CLEANUP_REL * mass:
        raise UnbalancedWeights(*totals)
    xi = np.zeros(m)
    np.add.at(xi, li, lw)
    np.subtract.at(xi, ri, rw)
    top = max(float(np.abs(lw).max(initial=0.0)), float(np.abs(rw).max(initial=0.0)))
    xi[np.abs(xi) <= CLEANUP_REL * top] = 0.0
    try:
        return BalancedVector(xi)
    except NotBalanced:
        raise UnbalancedWeights(*totals) from None


def simplex_to_vector(X: MetricSpace, Q: SignedSimplex) -> BalancedVector:
    """Net weight per point: left total minus right total, 0 elsewhere.

    Requires balanced weight totals so the result lies in the zero-sum
    hyperplane. Net weights at most CLEANUP_REL times the largest weight are
    zeroed, so exact cancellations survive float rounding. A net weight
    beyond the largest float raises NotBalanced.
    """
    parts = _split(Q, X.size)
    with np.errstate(over="ignore"):
        return BalancedVector(np.ldexp(_net_vector(X.size, *parts).weights, parts[-1]))


def vector_to_simplex(X: MetricSpace, xi) -> SignedSimplex:
    """Sign-split a nonzero zero-sum vector into a completely refined simplex.

    Positive components become left weights, negated negative components
    become right weights; components at most CLEANUP_REL times the largest
    are dropped so eigenvector noise cannot create spurious vertices. The
    kept components must sum to zero, as simplex_to_vector requires of the
    result, and a NaN or infinite component raises NotBalanced.
    """
    w = _weights(xi, X.size)
    top = float(np.abs(w).max(initial=0.0))
    if top == 0.0:
        raise ZeroVector("all components are zero")
    w = np.where(np.abs(w) > CLEANUP_REL * top, w, 0.0)
    BalancedVector(w)  # raises NotBalanced
    left = tuple((int(i), float(w[i])) for i in np.flatnonzero(w > 0.0))
    right = tuple((int(i), float(-w[i])) for i in np.flatnonzero(w < 0.0))
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
    (rhs) relative to max(|lhs|, |rhs|), both summed on the normalised
    block of D_p on the points of Q (_on_points), so the test does not
    depend on the unit of distance;
    nontrivial reports whether the simplex is nondegenerate. The two
    together certify a nontrivial p-polygonal equality. tol must be finite
    and nonnegative.
    """
    if not 0.0 <= tol < math.inf:
        raise InvalidTolerance(f"tol = {tol}")
    d, scale, parts = _on_points(X, p, Q)
    return _equality(d, scale, p, parts, tol)


def _equality(d: np.ndarray, scale: float, p: float, parts: tuple, tol: float) -> EqualityReport:
    """verify_equality on D~_p and its scale, for the _split parts of a simplex."""
    nontrivial = bool(np.any(_net_vector(len(d), *parts).weights))
    cross, same_l, same_r = _sums(d, *parts)
    rhs = same_l + same_r
    g = cross - rhs
    twos = 2 * parts[-1]
    return EqualityReport(
        p=float(p),
        lhs=_real(cross, scale, twos),
        rhs=_real(rhs, scale, twos),
        gap=_real(g, scale, twos),
        holds=abs(g) <= tol * max(abs(cross), abs(rhs)),
        nontrivial=nontrivial,
        tolerance=float(tol),
    )


def _witness(X: MetricSpace, solved: tuple, report: QuadFormReport) -> WitnessReport:
    """The form's zero in the top-bottom eigenplane, returned only if it verifies.

    solved is the _solve tuple report was classified from; lambda_min < 0
    always, since the form at e_i - e_j is -2 d(x_i, x_j)^p. The form at the
    unit zero-sum vector cos(t) v_max + sin(t) v_min is lambda_max cos^2 t +
    lambda_min sin^2 t: zero at tan^2 t = lambda_max / -lambda_min when
    lambda_max > 0 (method IVT at NOT_NEG_TYPE), and t = 0 otherwise. The
    simplex is checked as verify_equality would, on this same D~_p, and
    NoWitnessFound carries it unless that is a nontrivial equality.
    """
    d, scale, lam, v_max, lam_min, v_min = solved
    ivt = report.classification is Classification.NOT_NEG_TYPE
    theta = math.atan(math.sqrt(lam / -lam_min)) if lam > 0.0 else 0.0
    v = math.cos(theta) * v_max + math.sin(theta) * v_min
    xi = BalancedVector(v)
    simplex = vector_to_simplex(X, xi)
    witness = WitnessReport(
        p=report.p,
        xi=xi,
        simplex=simplex,
        residual=_real(abs(float(v @ d @ v)), scale),
        method=WitnessMethod.IVT if ivt else WitnessMethod.EIGEN_DIRECTION,
        equality=_equality(d, scale, report.p, _split(simplex, X.size), VERIFY_REL),
    )
    if not witness.equality.nontrivial_equality:
        raise NoWitnessFound(witness)
    return witness


def witness_at_p(
    X: MetricSpace, p: float, epsilon: float | None = None
) -> WitnessReport:
    """Witness at a fixed exponent, when one exists.

    The witness is the zero of the form between the top and bottom
    eigendirections of the restricted form (method IVT at NOT_NEG_TYPE).
    At BOUNDARY it is the top eigendirection, turned towards the bottom one
    by the angle that cancels a positive rounding-level lambda_max (method
    EIGEN_DIRECTION). STRICT raises NotApplicable: no nontrivial
    p-polygonal equality exists there. A witness that verify_equality
    rejects raises NoWitnessFound.
    """
    _check_epsilon(epsilon)
    solved = _solve(X, p)
    report = _classify(solved, p, epsilon)
    if report.classification is Classification.STRICT:
        raise NotApplicable(
            f"strict {p:g}-negative type: no nontrivial {p:g}-polygonal equality"
        )
    return _witness(X, solved, report)


def witness_at_supremal(X: MetricSpace, sup: SupremalResult) -> WitnessReport:
    """Witness at the midpoint of a FINITE supremal bracket.

    The construction and its acceptance are witness_at_p's at the default
    tolerance. At the supremal exponent lambda_max is zero, so the witness
    is the top eigendirection (method EIGEN_DIRECTION); a bracket above the
    supremal exponent gets an exact zero of the form (method IVT). A witness
    whose simplex does not verify raises NoWitnessFound, as one at a bracket
    below the supremal exponent does. Ultrametric spaces and capped searches
    raise NotApplicable.
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
    solved = _solve(X, p)
    return _witness(X, solved, _classify(solved, p, None))


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
