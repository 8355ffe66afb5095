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
once. Every simplex, a witness's own included, is checked by
verify_equality, which like gap reads only the block of D_p on the points
of the simplex (quadform._block): the D~_p kept by the solve when the
simplex uses every point, so a witness and its check share one build. A
simplex is read once into one dense vector per side on its own points
(_read). Their difference is the net vector (_net) behind every conversion
and every check: a net weight within the rounding of the weights written
at its point is 0, the rest is kept if BalancedVector accepts it, and a
sum it refuses is rounding only within the largest such rounding. The
equality check, the one gate (NoWitnessFound carries a witness that fails
it), sums the sign split of the net vector: holds and nontrivial share a scale.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

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
from .metric import _NOT_NUMBERS, MetricSpace, _integer, _real
from .quadform import (
    BALANCE_REL,
    BalancedVector,
    Classification,
    QuadFormReport,
    SupremalResult,
    SupremalStatus,
    _block,
    _scaled,
    _solve,
    _sums,
    _weights,
    classify,
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

# Default tolerance for verifying an equality, relative to max(|lhs|, |rhs|).
VERIFY_REL = 1e-9


@dataclass(frozen=True)
class SignedSimplex:
    """Two weighted point lists; entries are (point index, real weight)."""

    left: tuple[tuple[int, float], ...]
    right: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for side in ("left", "right"):
            entries = tuple((_integer(i, "simplex index"), _weight(w))
                            for i, w in getattr(self, side))
            object.__setattr__(self, side, entries)


def _weight(w) -> float:
    """A weight as a float; a bool or a string is not one."""
    if isinstance(w, _NOT_NUMBERS):
        raise ValueError(f"simplex weight must be a number, got {w!r}")
    return float(w)


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

    equality is verify_equality of the simplex at p, field for field; lhs and
    rhs read from it. |lhs - rhs| is residual/2 up to the components dropped
    when converting the vector to a simplex.
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
    """Outcome of checking one candidate p-polygonal equality.

    relative_gap is |lhs - rhs| / max(|lhs|, |rhs|) on the normalised sums,
    the ratio that holds bounds by tolerance (holds tests the product, not
    the quotient). It reads 0.0 for a zero gap and inf, never NaN, for
    NaN sums, and it stays telling where lhs and rhs underflow in the units
    of D_p.
    """

    p: float
    lhs: float
    rhs: float
    gap: float
    holds: bool
    nontrivial: bool
    tolerance: float
    relative_gap: float

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


class _Sides(NamedTuple):
    """A simplex read once (_read), every weight scaled by 2**-e."""

    s: np.ndarray  # the listed points, sorted
    a: np.ndarray  # left weight per point of s, repeats added up
    b: np.ndarray  # right weight per point of s
    e: int
    totals: tuple[float, float]  # the side totals, unscaled
    slack: np.ndarray  # per point of s, the rounding its written weights can make


def _read(Q: SignedSimplex, m: int) -> _Sides:
    """Q's sorted distinct points s and one dense vector per side on s.

    Weights carry one exact scaling 2**-e (quadform._scaled), so no sum
    overflows. A point's slack, 4 u n |w| for n entries written there whose
    |weight|s sum to |w| (u = eps / 2), bounds the rounding of its net weight.
    """
    for i, _ in (*Q.left, *Q.right):
        if not 0 <= i < m:
            raise IndexOutOfRange(i, m)
    k = len(Q.left)
    idx = np.array([i for i, _ in (*Q.left, *Q.right)], dtype=int)
    w, e = _scaled(np.array([w for _, w in (*Q.left, *Q.right)], dtype=float))
    lw, rw = w[:k], w[k:]
    with np.errstate(invalid="ignore", over="ignore"):  # a NaN or inf is left unscaled
        left, right = float(lw.sum()), float(rw.sum())
    if not (math.isfinite(left) and math.isfinite(right)):
        raise UnbalancedWeights(left, right)
    s, at = np.unique(idx, return_inverse=True)
    a, b = np.bincount(at[:k], lw, s.size), np.bincount(at[k:], rw, s.size)
    n, mass = np.bincount(at, minlength=s.size), np.bincount(at, np.abs(w), s.size)
    slack = 2 * np.finfo(float).eps * n * mass
    return _Sides(s, a, b, e, (_real(left, 1.0, e), _real(right, 1.0, e)), slack)


def _net(sides: _Sides) -> np.ndarray:
    """a - b judged against the rounding of the weights written: net weight per point of s.

    A net weight within its point's slack is 0. The rest is kept as it is if
    BalancedVector accepts it (a sum within BALANCE_REL of its largest entry);
    else its exact sum r is rounding only within the largest slack, and comes
    off that point, so no kept weight changes sign. A larger r raises UnbalancedWeights.
    """
    net = sides.a - sides.b
    net[np.abs(net) <= sides.slack] = 0.0
    try:
        return BalancedVector(net).weights
    except NotBalanced:
        r, k = math.fsum(net), int(np.argmax(sides.slack))
        if abs(r) <= sides.slack[k]:
            net[k] -= r
            return BalancedVector(net).weights
        raise UnbalancedWeights(*sides.totals) from None


def _sign_split(w: np.ndarray) -> SignedSimplex:
    """Positive components as left weights, negated negative components as right weights."""
    left, right = np.flatnonzero(w > 0.0), np.flatnonzero(w < 0.0)
    return SignedSimplex(tuple(zip(left.tolist(), w[left].tolist())),
                         tuple(zip(right.tolist(), (-w[right]).tolist())))


def gap(X: MetricSpace, p: float, Q: SignedSimplex) -> float:
    """The p-simplex gap: cross-side sum minus the two same-side sums."""
    sides = _read(Q, X.size)
    d, scale = _block(X, p, sides.s)
    cross, same = _sums(d, sides.a, sides.b)
    return _real(cross - same, scale, 2 * sides.e)


def simplex_to_vector(X: MetricSpace, Q: SignedSimplex) -> BalancedVector:
    """Net weight per point: left total minus right total, 0 elsewhere.

    The weights must balance as _net judges them, so the result lies in the
    zero-sum hyperplane and exact cancellations survive float rounding. A
    net weight beyond the largest float raises NotBalanced.
    """
    sides = _read(Q, X.size)
    net = np.zeros(X.size)
    net[sides.s] = _net(sides)
    with np.errstate(over="ignore"):
        return BalancedVector(np.ldexp(net, sides.e))


def vector_to_simplex(X: MetricSpace, xi) -> SignedSimplex:
    """Sign-split a nonzero zero-sum vector into a completely refined simplex.

    Positive components become left weights, negated negative components
    become right weights; components at most BALANCE_REL times the largest
    are dropped, because eigenvector noise scales with the vector's norm, so
    it cannot create spurious vertices. The kept components must sum to
    zero, and the simplex converts back to them; a NaN or infinite
    component raises NotBalanced.
    """
    w = _weights(xi, X.size)
    top = float(np.abs(w).max(initial=0.0))
    if top == 0.0:
        raise ZeroVector("all components are zero")
    return _sign_split(BalancedVector(np.where(np.abs(w) > BALANCE_REL * top, w, 0.0)).weights)


def reduce(X: MetricSpace, Q: SignedSimplex) -> ReducedForm:
    """Reduce a signed simplex through its induced zero-sum vector.

    The gap of the reduction equals the gap of the original at every
    exponent, because both sides share the induced vector. A zero vector
    means the simplex is degenerate; otherwise its sign split is a
    completely refined simplex, which reduces to itself.
    """
    xi = simplex_to_vector(X, Q).weights
    if not xi.any():
        return ReducedForm(ReducedKind.DEGENERATE)
    return ReducedForm(ReducedKind.COMPLETELY_REFINED, _sign_split(xi))


def is_nondegenerate(X: MetricSpace, Q: SignedSimplex) -> bool:
    """True iff the net vector of Q is nonzero, the nontrivial of verify_equality."""
    return bool(_net(_read(Q, X.size)).any())


def verify_equality(
    X: MetricSpace, p: float, Q: SignedSimplex, tol: float = VERIFY_REL
) -> EqualityReport:
    """Check whether a signed simplex realizes a p-polygonal equality.

    holds compares the cross-side sum (lhs) against the same-side sums
    (rhs) relative to max(|lhs|, |rhs|), both summed for the sign split of
    the net vector (the simplex reduce returns) on the normalised block of
    D_p on the points of Q (quadform._block), so the test neither depends on
    the unit of distance nor counts weights that cancel; nontrivial is
    is_nondegenerate. The two together certify a nontrivial p-polygonal
    equality. tol must be finite and nonnegative.
    """
    if not 0.0 <= tol < math.inf:
        raise InvalidTolerance(f"tol = {tol}")
    sides = _read(Q, X.size)
    d, scale = _block(X, p, sides.s)
    net = _net(sides)
    cross, rhs = _sums(d, np.maximum(net, 0.0), np.maximum(-net, 0.0))
    g = cross - rhs
    top = max(abs(cross), abs(rhs))
    relative = abs(g) / top if g else 0.0
    relative = math.inf if math.isnan(relative) else relative  # NaN distances
    twos = 2 * sides.e
    return EqualityReport(
        p=float(p),
        lhs=_real(cross, scale, twos),
        rhs=_real(rhs, scale, twos),
        gap=_real(g, scale, twos),
        holds=abs(g) <= tol * top,
        nontrivial=bool(net.any()),
        tolerance=float(tol),
        relative_gap=relative,
    )


def _witness(X: MetricSpace, report: QuadFormReport) -> WitnessReport:
    """The form's zero in the top-bottom eigenplane, returned only if it verifies.

    It reads the eigenpairs report was classified from (_solve at report.p,
    a memo hit); lambda_min < 0 always, since the form at e_i - e_j is
    -2 d(x_i, x_j)^p. The form at the unit zero-sum vector
    cos(t) v_max + sin(t) v_min is lambda_max cos^2 t + lambda_min sin^2 t:
    zero at tan^2 t = lambda_max / -lambda_min when lambda_max > 0 (method
    IVT at NOT_NEG_TYPE), and t = 0 otherwise. The simplex is checked by
    verify_equality, and NoWitnessFound carries it unless that is a
    nontrivial equality.
    """
    d, scale, lam, v_max, lam_min, v_min = _solve(X, report.p)
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
        equality=verify_equality(X, report.p, simplex),
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
    report = classify(X, p, epsilon)
    if report.classification is Classification.STRICT:
        raise NotApplicable(
            f"strict {p:g}-negative type: no nontrivial {p:g}-polygonal equality"
        )
    return _witness(X, report)


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
    return _witness(X, classify(X, sup.midpoint))


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
