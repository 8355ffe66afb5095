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
value converts once to the units of D_p (metric._real). quad_form, polyeq.gap
and polyeq.verify_equality sum one signed vector on the block of D_p on its
points (_sums, _block): quad_form is -2 gap_p of the sign split of its vector.

The restriction uses one Householder reflection H = I - beta u u^T mapping
the unit all-ones vector to -e_m: the first m-1 columns of H are an
orthonormal basis of F0, so the leading (m-1) x (m-1) block of H D~_p H is
the form in that basis, built in one matrix-vector product and one pass
over its entries (_restrict; 0.4 ms at m = 350 and 2 ms at m = 800 on a
2-core host, against 9 and 47 ms for eigvalsh). An eigenvector maps back
through one O(m) reflection. Each public call builds D~_p at most once
(a witness checks a simplex that leaves out a point on its own block).

A decision at a fixed exponent takes one eigvalsh of that block, as does
a sign probe of supremal (_spectrum). The top eigenvector comes from one
shifted linear solve on the same block, run only when something reads it:
a witness, or the report's direction. So a STRICT decision, which has no
witness, costs the eigvalsh alone. eigh runs only behind a failed check:
where that solve fails, or the witness turned from its vector does not
verify. A space's D~_p at one exponent is one _Form: the read-only D~_p,
its scale and, each solved on first read, its top eigenvalue and shift
(spectrum), the top eigenpair (top) that the witness at a fixed exponent
and the report's direction read, and the two extreme eigenpairs of one
eigh (eigen) that only the fallback reads. The block that spectrum's
eigvalsh ran on is held until top's solve overwrites it; classify drops
it at STRICT. _form keeps the last form per space object (O(m^2) floats
per live space, weakly keyed), so every call at (X, p) on every point
builds D~_p once: classify, witness_at_p and witness_at_supremal, and
quad_form, polyeq.gap and polyeq.verify_equality when their vector or
simplex covers every point (_block). The supremal witness first tries one
linear solve on that D~_p (_near_null; 2.5 ms at m = 350 against 15 ms
for eigh on a 2-core host), and classifies the form only when it falls
back to the fixed-exponent witness. A space is immutable (re-enabling
writes on X.dist is unsupported). Sign probes and restricted_form neither
read nor write the kept form.
"""

from __future__ import annotations

import enum
import functools
import math
import weakref
from dataclasses import InitVar, dataclass

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

# space -> its last _Form, see _form
_FORMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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

    The report keeps its space, not the form. direction, the top
    eigenvector, is solved on first read from the space's form at p (top,
    or eigen where that solve fails): the very array a witness at p turns,
    so (space, p) takes one solve whoever reads first. A read after the
    space's kept form has moved to another exponent builds D~_p and solves
    again, with the same bits; an eigh that fails raises EigenFailure at
    that read. direction is not a dataclass field.
    """

    p: float
    lambda_max: float
    classification: Classification
    tolerance: float
    space: InitVar[MetricSpace]

    def __post_init__(self, space: MetricSpace):
        object.__setattr__(self, "_space", space)

    @functools.cached_property
    def direction(self) -> BalancedVector:
        form = _form(self._space, self.p)
        v = form.top[1]
        return BalancedVector(form.eigen[1] if v is None else v)


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


def _solved(d: np.ndarray, solver):
    """The restricted form of D~_p and solver's result on it, in one EigenFailure guard.

    A form that is not finite (an unvalidated space's NaN or inf) and a
    LinAlgError of the solver (no convergence) both raise EigenFailure.
    Every eigensolver runs in the LAPACK that numpy loads: scipy.linalg
    bundles a second OpenBLAS, whose idle worker threads keep spinning after
    each call and slow the caller's next numpy BLAS call several-fold on a
    host with as many cores as BLAS threads.
    """
    a = _restrict(d)
    if not np.isfinite(a).all():
        raise EigenFailure("restricted form is not finite")
    try:
        return a, solver(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def _spectrum(d: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(a, lambda_max, floor): the restricted form a of D~_p and its top eigenvalue.

    The spectrum comes from eigvalsh alone, about half the cost of eigh; a
    is the block it ran on, unchanged. The floor is FLOOR times the
    spectral norm max(-lambda_min, |lambda_max|) of the form: a sign probe
    reads lambda_max within it as exactly 0.0, and the top eigenvector is
    solved at lambda_max plus it (_Form.top).
    """
    a, evals = _solved(d, np.linalg.eigvalsh)
    lam = float(evals[-1])
    return a, lam, FLOOR * max(-float(evals[0]), abs(lam))


@dataclass(frozen=True, eq=False)
class _Form:
    """D~_p of one space at exponent p, read-only, with D_p = scale D~_p.

    Its top eigenvalue (spectrum), its top eigenpair (top) and its extreme
    eigenpairs (eigen) are solved on first read only. A decision at p reads
    spectrum, one eigvalsh; a witness at p and a report's direction read
    top, one solve on the block that eigvalsh ran on, which the form holds
    until then (classify drops it at STRICT, where nothing need read top).
    eigen, one eigh, is read only behind a failed check: where the solve
    for the top vector fails, or its witness does not verify.
    """

    p: float
    d: np.ndarray
    scale: float

    @functools.cached_property
    def spectrum(self) -> tuple[float, float]:
        """(lambda_max, lambda_max + floor) of _spectrum; its block is held for top."""
        a, lam, floor = _spectrum(self.d)
        self.__dict__["block"] = a
        return lam, lam + floor

    def release(self) -> np.ndarray | None:
        """Take the block that spectrum holds off the form, or None where none is held."""
        return self.__dict__.pop("block", None)  # one atomic pop: no two solves share a block

    @functools.cached_property
    def top(self) -> tuple:
        """(lambda_max, v), v the top eigenvector, read-only, or None where the solve fails.

        v comes from one step of inverse iteration (_inverse_step) at the
        shift of spectrum: every eigenvector but the top one is damped by
        the floor over its distance below lambda_max, so v is the top one
        unless another eigenvalue lies within a few floors of it, where v
        is a unit vector of that cluster. The solve overwrites the held
        block, or, where classify released it, the block formed again with
        the same bits. An eigvalsh that raises keeps nothing.
        """
        lam, shift = self.spectrum
        a = self.release()
        if a is None:
            a = _restrict(self.d)
        v = _inverse_step(a, shift)
        if v is not None:  # every later read hands out this same array
            v.setflags(write=False)
        return lam, v

    @functools.cached_property
    def eigen(self) -> tuple:
        """(lambda_max, v_max, lambda_min, v_min) of one eigh, solved on first read only.

        The eigenvectors are unit, zero-sum and read-only; a solve that
        raises keeps nothing.
        """
        _, (evals, evecs) = _solved(self.d, np.linalg.eigh)
        pairs = float(evals[-1]), _lift(evecs[:, -1]), float(evals[0]), _lift(evecs[:, 0])
        for v in pairs[1::2]:  # every later read hands out these same arrays
            v.setflags(write=False)
        return pairs


def _form(X: MetricSpace, p: float) -> _Form:
    """The form of X at p: the one kept for X if it is at exactly float(p), else a new one.

    A new form replaces the kept one, so only the last exponent is kept, and
    a later call at that exponent hands out the very arrays a fresh build
    and solve would repeat bit for bit. Concurrent callers can only replace
    each other's form, never read one at the wrong exponent, since the form
    carries its exponent.
    """
    p = _exponent(p)
    form = _FORMS.get(X)
    if form is None or form.p != p:
        d, scale = _power(X, p)
        d.setflags(write=False)
        form = _FORMS[X] = _Form(p, d, scale)
    return form


def _inverse_step(a: np.ndarray, shift: float) -> np.ndarray | None:
    """One step of inverse iteration on the restricted form a, overwritten, at shift.

    One LU solve of a - shift I (Ipsen, SIAM Review 39, 1997) from a
    fixed-seed Gaussian start, so the vector is reproducible and no symmetry
    of the space leaves the start orthogonal to the eigenvector sought,
    lifted to a unit zero-sum vector in R^m. It leans on the eigenvectors
    whose eigenvalues lie nearest the shift. None where the solution is not
    finite or the solve fails.
    """
    a[np.diag_indices_from(a)] -= shift
    start = np.random.default_rng(0).standard_normal(a.shape[0])
    try:
        with np.errstate(all="ignore"):
            y = np.linalg.solve(a, start)
    except np.linalg.LinAlgError:
        return None
    top = float(np.abs(y).max(initial=0.0))
    if not 0.0 < top < math.inf:  # a NaN fails both
        return None
    y /= top  # no overflow in the norm
    return _lift(y / np.linalg.norm(y))


def _near_null(d: np.ndarray) -> np.ndarray | None:
    """A unit zero-sum vector that the form of D~_p nearly annuls, or None.

    _inverse_step at a shift of FLOOR times the largest |entry| of the
    restricted form, so that an exactly singular form still factors: at a
    supremal bracket, where lambda_max is zero to the bracket width, it
    leans on the top eigenvector, unless another eigenvalue lies nearer 0.
    It needs no eigenvalue. None where the form is not finite, or the step
    finds no vector.
    """
    a = _restrict(d)
    if not np.isfinite(a).all():
        return None
    return _inverse_step(a, FLOOR * float(np.abs(a).max(initial=0.0)))


def _block(X: MetricSpace, p: float, s: np.ndarray) -> tuple[np.ndarray, float]:
    """(D~_p, scale) on the block of D_p on the sorted distinct points s.

    The block's own largest entry sets its scale. A block of every point is
    the space's form at p (_form), kept or built.
    """
    if len(s) == X.size:
        form = _form(X, p)
        return form.d, form.scale
    return _power(X, p, s)


def _sums(d: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """(a d b, (a d a + b d b) / 2) for the sign split w = a - b: one product reads d once.

    gap_p of the split is the first minus the second, and the form of w is
    2 (second - first).
    """
    a, b = np.maximum(w, 0.0), np.maximum(-w, 0.0)
    da, db = np.stack((a, b)) @ d  # d is symmetric: rows a d and b d
    return float(da @ b), 0.5 * (float(da @ a) + float(db @ b))


def quad_form(X: MetricSpace, p: float, xi) -> float:
    """<D_p xi, xi> = sum_{i,j} d(x_i,x_j)^p xi_i xi_j over ordered pairs."""
    w = _weights(xi, X.size)
    s = np.flatnonzero(w)
    w, e = _scaled(w[s])
    d, scale = _block(X, p, s)
    cross, same = _sums(d, w)
    return _real(2.0 * (same - cross), scale, 2 * e)


def restricted_form(X: MetricSpace, p: float) -> np.ndarray:
    """The (m-1) x (m-1) symmetric matrix of the form in an orthonormal basis of F0."""
    d, scale = _power(X, p)
    return _real(_restrict(d), scale)


def classify(X: MetricSpace, p: float, epsilon: float | None = None) -> QuadFormReport:
    """Three-way negative-type classification at exponent p.

    Computes the largest eigenvalue of the restricted form (eigvalsh, see
    _Form.spectrum) and compares it against epsilon, which must be finite
    and nonnegative. The default is EPSILON_REL times the largest entry of
    D_p; the comparison runs on the normalised form, where epsilon reads
    epsilon / max D_p. The report's direction is solved only when it is
    read (QuadFormReport.direction); at STRICT the form drops the block it
    holds for that solve.
    """
    if epsilon is not None and not 0.0 <= epsilon < math.inf:
        raise InvalidTolerance(f"epsilon = {epsilon}")
    form = _form(X, p)
    lam, _ = form.spectrum
    scale = form.scale
    if epsilon is None:
        eps, epsilon = EPSILON_REL, _real(EPSILON_REL, scale)
    else:  # x / 0 reads as inf, 0 / 0 as 0
        eps = epsilon / scale if scale else math.inf if epsilon else 0.0

    if lam < -eps:
        cls = Classification.STRICT
        form.release()
    elif lam > eps:
        cls = Classification.NOT_NEG_TYPE
    else:
        cls = Classification.BOUNDARY
    return QuadFormReport(float(p), _real(lam, scale), cls, float(epsilon), X)


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
    A probe that reads 0.0 (within FLOOR of the form's norm, see _spectrum) is
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
        _, lam, floor = _spectrum(_power(X, p)[0])
        return 0.0 if abs(lam) <= floor else lam

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
