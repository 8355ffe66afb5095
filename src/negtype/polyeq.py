"""Signed simplices, simplex gaps, and polygonal-equality witnesses.

A signed simplex carries two weighted point lists. Its p-gap is the
cross-side weighted sum of p-th-power distances minus the two same-side
sums; a p-polygonal equality is a vanishing gap with balanced weights, and
it is nontrivial exactly when the simplex reduces to a completely refined
one (distinct points, strictly positive weights). The gap is linked to the
quadratic form through the induced zero-sum vector xi:

    <D_p xi, xi> = -2 * gap_p(Q)

so a nonzero xi with vanishing form is the same thing as a nontrivial
p-polygonal equality. This is the paper's continuity argument: where the
form is positive at some zero-sum vector, it turns to an exact zero of
the form against e_i - e_j of a farthest pair, where the form is
negative, in closed form (_null_witness). At a fixed exponent above w
(NOT_NEG_TYPE) any positive vector will do, so the witness turns the
Lanczos Ritz vector whose form proved the class in classify, from a few
products with the restricted block and no eigensolve
(quadform._Form.ritz). At BOUNDARY it turns the last Ritz vector of the
same run, whose form the decision read before its factorisation or its
eigvalsh. Behind a Ritz witness that fails it turns the top eigenvector of
one shifted solve on that block (quadform._Form.top); a STRICT class has no
witness and takes the Lanczos steps and the factorisation or the eigvalsh
alone. At a supremal bracket
lambda_max is zero to the bracket width, so the witness is the form's
near-null direction: one linear solve finds it (quadform._near_null),
and it turns the same way. eigh runs only behind a failed check: a
witness that fails its check falls back to the zero of the form in the
plane of the top and bottom eigendirections of one eigh (_witness). All
of them read the space's one form at p (quadform._Form), whose D~_p is
metric._power's, converted once. Every simplex, a witness's own included,
is checked by verify_equality, which like gap reads only the block of D_p
on the points of the simplex (quadform._block): the form itself when the
simplex uses every point, so a witness and its check share one build. A
simplex is read once into its net vector on its own points (_read), left
minus right weight per point, with a net weight within the rounding of the
weights written at its point read as 0. gap sums the sign split of that
vector (quadform._sums), which gives the gap of any two sides with that
difference, balanced or not. Every conversion and every check reads it
balanced (_net): kept if BalancedVector accepts it, and a sum it refuses is
rounding only within the largest such rounding. The equality check, the one
gate (NoWitnessFound carries a witness that fails it), sums the sign split
of the balanced vector as gap does: holds and nontrivial share a scale.
"""

from __future__ import annotations

import enum
import math
import weakref
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
    EPSILON_REL,
    BalancedVector,
    Classification,
    QuadFormReport,
    SupremalResult,
    SupremalStatus,
    _block,
    _form,
    _Form,
    _near_null,
    _scaled,
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

# space -> a farthest pair of its points, see _farthest
_FARTHEST: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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

    @classmethod
    def _unchecked(cls, left: tuple, right: tuple) -> SignedSimplex:
        """The simplex of entries that are already (int, float) pairs, read as they are."""
        simplex = object.__new__(cls)
        object.__setattr__(simplex, "left", left)
        object.__setattr__(simplex, "right", right)
        return simplex


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
    net: np.ndarray  # left minus right weight per point of s, 0 within its slack
    e: int
    totals: tuple[float, float]  # the side totals, unscaled
    slack: np.ndarray  # per point of s, the rounding its written weights can make


def _read(Q: SignedSimplex, m: int) -> _Sides:
    """Q's sorted distinct points s and its net vector on s.

    Weights carry one exact scaling 2**-e (quadform._scaled), so no sum
    overflows. A point's slack, 4 u n |w| for n entries written there whose
    |weight|s sum to |w| (u = eps / 2), bounds the rounding of its net weight:
    a net weight within it is 0.
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
    net = a - b
    net[np.abs(net) <= slack] = 0.0
    return _Sides(s, net, e, (_real(left, 1.0, e), _real(right, 1.0, e)), slack)


def _net(sides: _Sides) -> np.ndarray:
    """The net vector of sides, balanced as the rounding of the weights written allows.

    It is kept as it is if BalancedVector accepts it (a sum within BALANCE_REL
    of its largest entry); else its exact sum r is rounding only within the
    largest slack, and comes off that point, so no kept weight changes sign.
    A larger r raises UnbalancedWeights.
    """
    try:
        return BalancedVector(sides.net).weights
    except NotBalanced:
        net = sides.net.copy()
        r, k = math.fsum(net), int(np.argmax(sides.slack))
        if abs(r) <= sides.slack[k]:
            net[k] -= r
            return BalancedVector(net).weights
        raise UnbalancedWeights(*sides.totals) from None


def _sign_split(w: np.ndarray) -> SignedSimplex:
    """Positive components as left weights, negated negative components as right weights.

    tolist gives Python ints and floats, so the entries need no second check.
    """
    left, right = np.flatnonzero(w > 0.0), np.flatnonzero(w < 0.0)
    return SignedSimplex._unchecked(tuple(zip(left.tolist(), w[left].tolist())),
                                    tuple(zip(right.tolist(), (-w[right]).tolist())))


def gap(X: MetricSpace, p: float, Q: SignedSimplex) -> float:
    """The p-simplex gap: cross-side sum minus the two same-side sums.

    It is -1/2 <D_p xi, xi> for the net vector xi of Q, balanced or not, so
    it is summed for the sign split of that vector, as verify_equality sums it.
    """
    sides = _read(Q, X.size)
    d, scale = _block(X, p, sides.s)
    cross, same = _sums(d, sides.net)
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
    cross, rhs = _sums(d, net)
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


def _report(X: MetricSpace, form: _Form, v: np.ndarray, method: WitnessMethod) -> WitnessReport:
    """The witness of the unit zero-sum vector v on the form of X at form.p."""
    xi = BalancedVector(v)
    simplex = vector_to_simplex(X, xi)
    return WitnessReport(
        p=form.p,
        xi=xi,
        simplex=simplex,
        residual=_real(abs(float(v @ form.d @ v)), form.scale),
        method=method,
        equality=verify_equality(X, form.p, simplex),
    )


def _witness(X: MetricSpace, form: _Form, report: QuadFormReport) -> WitnessReport:
    """The form's zero in the top-bottom eigenplane, returned only if it verifies.

    The fallback of _fixed_witness: it reads the eigenpairs of one eigh
    (form.eigen); lambda_min < 0 always, since the form at e_i - e_j is
    -2 d(x_i, x_j)^p. The form at the unit zero-sum vector
    cos(t) v_max + sin(t) v_min is lambda_max cos^2 t + lambda_min sin^2 t:
    zero at tan^2 t = lambda_max / -lambda_min when lambda_max > 0 (method
    IVT at NOT_NEG_TYPE), and t = 0 otherwise. The simplex is checked by
    verify_equality, and NoWitnessFound carries it unless that is a
    nontrivial equality.
    """
    lam, v_max, lam_min, v_min = form.eigen
    ivt = report.classification is Classification.NOT_NEG_TYPE
    theta = math.atan(math.sqrt(lam / -lam_min)) if lam > 0.0 else 0.0
    v = math.cos(theta) * v_max + math.sin(theta) * v_min
    witness = _report(X, form, v, WitnessMethod.IVT if ivt else WitnessMethod.EIGEN_DIRECTION)
    if not witness.equality.nontrivial_equality:
        raise NoWitnessFound(witness)
    return witness


def _farthest(X: MetricSpace) -> tuple[int, int]:
    """(i, j), the first largest entry of X.dist in row-major order, found once per space.

    At every p > 0, D~_p = (d / max d)^p is 1 there, and its own first
    largest entry is the same pair unless the rounding of the power makes
    an earlier entry 1 as well.
    """
    pair = _FARTHEST.get(X)
    if pair is None:
        pair = _FARTHEST[X] = divmod(int(np.argmax(X.dist)), X.size)
    return pair


def _null_witness(X: MetricSpace, form: _Form, v: np.ndarray | None,
                  method: WitnessMethod | None = None,
                  dv: np.ndarray | None = None) -> WitnessReport | None:
    """The witness from the unit zero-sum vector v on the form, if it verifies.

    Where the form f of v is positive, v turns to the exact zero of the form
    in its plane with u = (e_i - e_j) / sqrt(2) for the space's farthest
    pair i, j (_farthest), where the form is -D~(i, j) = -1: the root t of
    f + 2 b t - t^2 = 0 nearest 0, b the bilinear form of v and u, needs no
    solve. method
    defaults to classify's rule read on f: IVT only where f exceeds
    EPSILON_REL. dv, where given, is D~_p v, already computed (_Form.ritz).
    None where the solve found no v, or the simplex is not a nontrivial
    equality.
    """
    if v is None:
        return None
    d = form.d
    if dv is None:
        dv = d @ v
    f = float(v @ dv)
    if f > 0.0:
        i, j = _farthest(X)
        b = (float(dv[i]) - float(dv[j])) / math.sqrt(2.0)
        t = -f / (b + math.copysign(math.sqrt(b * b + f * float(d[i, j])), b))
        v = v.copy()
        v[i] += t / math.sqrt(2.0)  # v + t u
        v[j] -= t / math.sqrt(2.0)
        v /= np.linalg.norm(v)
    if method is None:
        method = WitnessMethod.IVT if f > EPSILON_REL else WitnessMethod.EIGEN_DIRECTION
    try:
        witness = _report(X, form, v, method)
    except NotBalanced:
        return None
    return witness if witness.equality.nontrivial_equality else None


def _fixed_witness(X: MetricSpace, form: _Form, report: QuadFormReport) -> WitnessReport:
    """The witness on the form that report was classified from, or NoWitnessFound.

    At NOT_NEG_TYPE and BOUNDARY the first vector turned (_null_witness,
    with classify's method) is a Ritz vector of the form's Lanczos run
    (form.ritz), no solve: at a proved NOT_NEG_TYPE the one whose form
    proved the class, else the run's last. Once its witness verifies, the
    form drops its block. Where it does not, the form's top eigenvector is
    turned (form.top: one solve, the vector a report's direction reads), and
    only where that solve failed or its simplex does not verify does the
    eigen-plane witness (_witness) take one eigh. At STRICT, which has no
    nontrivial equality, the eigen-plane witness is the only one tried.
    """
    if report.classification is Classification.STRICT:
        return _witness(X, form, report)
    ivt = report.classification is Classification.NOT_NEG_TYPE
    method = WitnessMethod.IVT if ivt else WitnessMethod.EIGEN_DIRECTION
    v, dv = form.ritz(report._step) or (None, None)
    witness = _null_witness(X, form, v, method, dv)
    if witness is not None:
        form.release()
        return witness
    return _null_witness(X, form, form.top[1], method) or _witness(X, form, report)


def witness_at_p(
    X: MetricSpace, p: float, epsilon: float | None = None
) -> WitnessReport:
    """Witness at a fixed exponent, when one exists.

    classify's class, then a vector turned to the exact zero of the form
    against e_i - e_j of a farthest pair (_fixed_witness). The vector is a
    Ritz vector of the Lanczos run classify took on the restricted block:
    at NOT_NEG_TYPE (method IVT) the one whose form proved the class, with
    no eigensolve of the form at all; at BOUNDARY the run's last, whose
    form is within the tolerance of 0, and it turns only where that form is
    positive (method EIGEN_DIRECTION). A Ritz witness that verify_equality
    rejects falls back to the top eigenvector of one shifted solve on that
    block, and a top-vector witness that it rejects, or a failed solve, to
    the zero of the form between the top and bottom eigendirections of one
    eigh. STRICT raises NotApplicable after the class alone: no nontrivial
    p-polygonal equality exists there, so no vector is sought. A fallback
    witness that verify_equality rejects raises NoWitnessFound.
    """
    report = classify(X, p, epsilon)
    if report.classification is Classification.STRICT:
        raise NotApplicable(
            f"strict {p:g}-negative type: no nontrivial {p:g}-polygonal equality"
        )
    return _fixed_witness(X, _form(X, p), report)


def witness_at_supremal(X: MetricSpace, sup: SupremalResult) -> WitnessReport:
    """Witness at the midpoint of a FINITE supremal bracket.

    At the supremal exponent lambda_max is zero, so the witness is the
    form's near-null direction, from one solve of the restricted form and
    no eigenvalue (quadform._near_null, then _null_witness; method
    EIGEN_DIRECTION); a bracket above the supremal exponent gets an exact
    zero of the form (method IVT). Where that witness does not verify, or
    the solve fails, the witness is witness_at_p's at the default tolerance
    on the same form (_fixed_witness after classify): where the
    eigenvalue nearest 0 is not the top one, and at a bracket below the
    supremal exponent, whose class is STRICT: there the eigen-plane witness
    of one eigh is the only one tried, and its NoWitnessFound is raised.
    The form is the space's kept one
    (quadform._form), so a later check or classify at the witness's p
    builds nothing. Ultrametric spaces and capped searches raise
    NotApplicable.
    """
    if sup.status is SupremalStatus.INFINITE_ULTRAMETRIC:
        raise NotApplicable(
            "ultrametric space: no nontrivial polygonal equality at any exponent"
        )
    if sup.status is SupremalStatus.EXCEEDS_CAP:
        raise NotApplicable(
            f"supremal exponent exceeds cap {sup.cap:g}; no witness located"
        )
    form = _form(X, sup.midpoint)
    return (_null_witness(X, form, _near_null(form.d))
            or _fixed_witness(X, form, classify(X, form.p)))


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
