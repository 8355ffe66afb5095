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
like gap reads only the block of D_p on the points of the simplex
(quadform._block). A simplex is read once into one dense vector per side
(_read); their difference, cleaned by one rule, is the net vector (_net)
behind every conversion and every nontrivial. The equality check is the
one gate: NoWitnessFound carries a witness that fails it.
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
from .metric import MetricSpace, _real
from .quadform import (
    BALANCE_REL,
    BalancedVector,
    Classification,
    QuadFormReport,
    SupremalResult,
    SupremalStatus,
    _block,
    _check_epsilon,
    _classify,
    _scaled,
    _solve,
    _sums,
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

# Default tolerance for verifying an equality, relative to max(|lhs|, |rhs|).
VERIFY_REL = 1e-9


@dataclass(frozen=True)
class SignedSimplex:
    """Two weighted point lists; entries are (point index, real weight)."""

    left: tuple[tuple[int, float], ...]
    right: tuple[tuple[int, float], ...]

    def __post_init__(self):
        for side in ("left", "right"):
            entries = tuple((_index(i), _weight(w)) for i, w in getattr(self, side))
            object.__setattr__(self, side, entries)


# values that int() and float() read as numbers, but a simplex does not take
_NOT_NUMBERS = (bool, np.bool_, str, bytes)


def _index(i) -> int:
    """A point index as an int; a float must be integral (2.0 reads as 2)."""
    if isinstance(i, _NOT_NUMBERS) or (
            isinstance(i, (float, np.floating)) and not i.is_integer()):
        raise ValueError(f"simplex index must be an integer, got {i!r}")
    return int(i)


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
    balanced: bool
    top: float  # the largest |weight| written


def _read(Q: SignedSimplex, m: int, every: bool = False) -> _Sides:
    """Q's points s and one dense vector per side on s (on all m points with every).

    Weights carry one exact scaling 2**-e (quadform._scaled), so no sum
    overflows. The sides balance when their totals agree within BALANCE_REL
    of the larger side's sum of |weight|.
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
    s, at = (np.arange(m), idx) if every else np.unique(idx, return_inverse=True)
    a, b = np.bincount(at[:k], lw, s.size), np.bincount(at[k:], rw, s.size)
    mass = max(float(np.abs(lw).sum()), float(np.abs(rw).sum()))
    totals = _real(left, 1.0, e), _real(right, 1.0, e)
    balanced = abs(left - right) <= BALANCE_REL * mass
    return _Sides(s, a, b, e, totals, balanced, float(np.abs(w).max(initial=0.0)))


def _clean(w: np.ndarray, top: float) -> np.ndarray:
    """w with each component of at most BALANCE_REL * top zeroed: the one cleanup rule.

    What it keeps must sum to zero (BalancedVector), or NotBalanced is raised.
    """
    return BalancedVector(np.where(np.abs(w) > BALANCE_REL * top, w, 0.0)).weights


def _net(sides: _Sides) -> np.ndarray:
    """a - b, cleaned against the largest weight written: net weight per point of s.

    Raises UnbalancedWeights unless the sides balance and the kept weights sum to 0.
    """
    if not sides.balanced:
        raise UnbalancedWeights(*sides.totals)
    try:
        return _clean(sides.a - sides.b, sides.top)
    except NotBalanced:
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

    Requires balanced weight totals so the result lies in the zero-sum
    hyperplane. Net weights at most BALANCE_REL times the largest weight are
    zeroed, so exact cancellations survive float rounding. A net weight
    beyond the largest float raises NotBalanced.
    """
    sides = _read(Q, X.size, every=True)
    with np.errstate(over="ignore"):
        return BalancedVector(np.ldexp(_net(sides), sides.e))


def vector_to_simplex(X: MetricSpace, xi) -> SignedSimplex:
    """Sign-split a nonzero zero-sum vector into a completely refined simplex.

    Positive components become left weights, negated negative components
    become right weights; components at most BALANCE_REL times the largest
    are dropped (the cleanup rule of simplex_to_vector), so eigenvector
    noise cannot create spurious vertices and the simplex converts back to
    the vector kept. The kept components must sum to zero, and a NaN or
    infinite component raises NotBalanced.
    """
    w = _weights(xi, X.size)
    top = float(np.abs(w).max(initial=0.0))
    if top == 0.0:
        raise ZeroVector("all components are zero")
    return _sign_split(_clean(w, top))


def reduce(X: MetricSpace, Q: SignedSimplex) -> ReducedForm:
    """Reduce a signed simplex through its induced zero-sum vector.

    The gap of the reduction equals the gap of the original at every
    exponent, because both sides share the induced vector. A zero vector
    means the simplex is degenerate; otherwise its sign split, with no
    second cleanup, is a completely refined simplex.
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
    (rhs) relative to max(|lhs|, |rhs|), both summed on the normalised
    block of D_p on the points of Q (quadform._block), so the test does not
    depend on the unit of distance; nontrivial is is_nondegenerate. The two
    together certify a nontrivial p-polygonal equality. tol must be finite
    and nonnegative.
    """
    if not 0.0 <= tol < math.inf:
        raise InvalidTolerance(f"tol = {tol}")
    sides = _read(Q, X.size)
    d, scale = _block(X, p, sides.s)
    return _equality(d, scale, p, sides, tol)


def _equality(d: np.ndarray, scale: float, p: float, sides: _Sides, tol: float) -> EqualityReport:
    """verify_equality on D~_p and its scale, for a simplex read on the points of d."""
    nontrivial = bool(_net(sides).any())
    cross, rhs = _sums(d, sides.a, sides.b)
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
        nontrivial=nontrivial,
        tolerance=float(tol),
        relative_gap=relative,
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
        equality=_equality(d, scale, report.p, _read(simplex, X.size, every=True), VERIFY_REL),
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
