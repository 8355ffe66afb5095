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

A decision at a fixed exponent first takes a few Lanczos steps on that
block (_Run), which prove NOT_NEG_TYPE at the first step whose Ritz vector
has a form above the tolerance by a rounding margin (classify, _KAPPA): the
class eigvalsh would give, for one product with the block per step and no
eigensolve (all LANCZOS_STEPS = 8 steps take 0.8 and 1.2 ms at m = 500 and
800 on a 2-core host, against 12 to 14 and 34 to 37 ms for eigvalsh).
Where they prove nothing and the run's last top Ritz value, a lower bound
on lambda_max, is below minus that margin, one Cholesky factorisation of
the negated block shifted by the margin proves STRICT where it succeeds
(_definite; 5 and 14 ms at m = 500 and 800): again the class eigvalsh
would give. Only where neither proves the class does one eigvalsh of the
block decide, as it does each sign probe of supremal (_spectrum); a
proved report computes its lambda_max on first read. The top eigenvector
comes from one shifted linear solve on the same block, run only when
something reads it: the report's direction, or a witness whose Ritz
vector does not verify. A witness at NOT_NEG_TYPE or BOUNDARY turns a
Ritz vector of the same run first: at NOT_NEG_TYPE the one whose form
proved the class. eigh runs only behind a failed check: where that solve
fails, or the witness turned from its vector does not verify. A space's
D~_p at one exponent is one _Form: the read-only D~_p, its scale, the
Lanczos run (kept, and resumed where a later call needs more steps), and,
each solved on first read, its top eigenvalue and shift (spectrum), the
top eigenpair (top) that the report's direction reads, and the two
extreme eigenpairs of one eigh (eigen) that only the fallback reads. The
block is formed once and held for the run, the factorisation, eigvalsh
and the solve, until top's solve takes it; classify drops it at STRICT
and a witness once its Ritz vector verifies (a later step or solve forms
it again, with the same bits). A factorisation that proves STRICT drops
the whole form unless a caller holds it, so a later read at p builds
D~_p again. _form keeps the last form per space
object (O(m^2) floats per live space, weakly keyed), so every call at
(X, p) on every point builds D~_p once: classify, witness_at_p and
witness_at_supremal, and quad_form, polyeq.gap and polyeq.verify_equality
when their vector or simplex covers every point (_block). The supremal
witness first tries one linear solve on that D~_p (_near_null; 2.5 ms at
m = 350 against 15 ms for eigh on a 2-core host), and classifies the form
only when it falls back to the fixed-exponent witness. A space is
immutable (re-enabling writes on X.dist is unsupported). Sign probes and
restricted_form neither read nor write the kept form.
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
from .metric import _U, MetricSpace, _exponent, _power, _real, is_ultrametric

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
# Lanczos steps a decision takes before eigvalsh decides (_Run, classify).
LANCZOS_STEPS = 8

# A Lanczos decision's margin over the tolerance is _KAPPA m^2 u on the
# normalised form. D~_p has entries in [0, 1], so its spectral norm and that
# of its restricted form are at most m. The computed form f = v (D~_p v) of a
# Ritz vector v is within about m u |v||D~_p||v| <= m^2 u of the exact form
# of v, which one reflection lifts to unit length and zero sum within a few
# m u, moving it by as much again. The block _restrict forms is within
# about m u per entry, so m^2 u in norm, of the exact restricted form, and
# eigvalsh's lambda_max is within its backward error, about (m - 1) u times
# the block's norm <= m^2 u, of the block's. So f > eps + 16 m^2 u proves
# that eigvalsh of the same block reads lambda_max > eps: the class it
# would give. The margin is 1.1e-9 at m = 800, beside EPSILON_REL = 1e-9.
# The same margin s = eps + 16 m^2 u proves STRICT from one Cholesky
# factorisation of -a - s I, a the block eigvalsh would read (_definite).
# A floating-point Cholesky that succeeds proves its matrix positive
# definite up to a shift of about gamma_m tr, gamma_m = m u / (1 - m u) and
# tr its trace (Rump, BIT 46, 2006); the diagonal shift adds a rounding of
# a few m u. The trace of the restricted form is -(1/m) sum D~_p, so
# tr(-a) <= m - 1 and the shift is within about m^2 u: lambda_max of a is
# below -eps - 15 m^2 u. eigvalsh's backward error, about m^2 u again,
# leaves its lambda_max below -eps: STRICT, the class it would give.
_KAPPA = 16

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
    """A fixed-exponent class, with the largest restricted eigenvalue and its direction.

    STRICT means strict p-negative type (lambda_max < -eps), BOUNDARY means
    p-negative type but not strict (|lambda_max| <= eps), NOT_NEG_TYPE means
    the form takes positive values on F0 (lambda_max > eps).

    The report keeps its space, not the form. lambda_max and direction are
    not dataclass fields. lambda_max is the eigvalsh of the decision where
    it took one; where a Lanczos vector proved NOT_NEG_TYPE or a Cholesky
    factorisation proved STRICT (classify), it is computed on first read,
    one eigvalsh of the space's form at p.
    direction, the top eigenvector, is solved on first read from that form
    (top, or eigen where that solve fails), the array a witness at p turns
    where its Ritz vector does not verify. A read after the space's kept
    form has moved to another exponent builds D~_p and solves again, with
    the same bits; an eigensolve that fails raises EigenFailure at that read.
    """

    p: float
    classification: Classification
    tolerance: float
    space: InitVar[MetricSpace]
    known: InitVar[float | None] = None  # lambda_max, where the decision computed it
    step: InitVar[int | None] = None  # the Lanczos step that proved the class

    def __post_init__(self, space: MetricSpace, known: float | None, step: int | None):
        object.__setattr__(self, "_space", space)
        object.__setattr__(self, "_step", step)
        if known is not None:  # the cached value of lambda_max
            object.__setattr__(self, "lambda_max", known)

    @functools.cached_property
    def lambda_max(self) -> float:
        form = _form(self._space, self.p)
        return _real(form.spectrum[0], form.scale)

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


def _checked(d: np.ndarray) -> np.ndarray:
    """The restricted form of D~_p (_restrict); one that is not finite raises EigenFailure.

    An unvalidated space's NaN or inf makes the form non-finite.
    """
    a = _restrict(d)
    if not np.isfinite(a).all():
        raise EigenFailure("restricted form is not finite")
    return a


def _guarded(solver, a: np.ndarray):
    """solver(a), with a LinAlgError (no convergence) raised as EigenFailure.

    Every eigensolver runs in the LAPACK that numpy loads: scipy.linalg
    bundles a second OpenBLAS, whose idle worker threads keep spinning after
    each call and slow the caller's next numpy BLAS call several-fold on a
    host with as many cores as BLAS threads.
    """
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def _largest(a: np.ndarray) -> tuple[float, float]:
    """(lambda_max, floor) of the restricted form a, from eigvalsh alone.

    eigvalsh costs about half of eigh and leaves a unchanged. The floor is
    FLOOR times the spectral norm max(-lambda_min, |lambda_max|) of the
    form: a sign probe reads lambda_max within it as exactly 0.0, and the
    top eigenvector is solved at lambda_max plus it (_Form.top).
    """
    evals = _guarded(np.linalg.eigvalsh, a)
    lam = float(evals[-1])
    return lam, FLOOR * max(-float(evals[0]), abs(lam))


def _spectrum(d: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(a, lambda_max, floor): the restricted form a of D~_p and _largest of it."""
    a = _checked(d)
    return a, *_largest(a)


class _Run:
    """A Lanczos run on the restricted form of one _Form, resumed a step at a time.

    Lanczos (Paige, JIMA 10, 1972) from the fixed-seed Gaussian start of
    _inverse_step, each new basis vector reorthogonalised against all
    earlier ones twice. From a random start the top Ritz value nears
    lambda_max at a rate that needs no gap below it (Kuczynski and
    Wozniakowski, SIAM J. Matrix Anal. Appl. 13, 1992), so a clearly
    positive form shows within a few steps. Step j (from 1) keeps the top
    Ritz pair of its j x j tridiagonal matrix; the Ritz vector, lifted to a
    unit zero-sum vector in R^m, and its form on D~_p are computed on first
    read (vector). Each step reads only the steps before it and a block with
    the same bits, so a run resumed on a block formed again repeats a run
    taken at once. A step whose eigh of the tridiagonal matrix fails is not
    taken. The run ends after min(LANCZOS_STEPS, m - 1) steps, or at a
    breakdown, where the new residual is within FLOOR times that matrix's
    spectral norm: the Krylov space is then invariant to rounding, and its
    Ritz pairs are eigenpairs of the form.
    """

    def __init__(self, n: int):
        steps = min(LANCZOS_STEPS, n)
        self.q = np.empty((steps, n))
        self.t = np.zeros((steps, steps))
        start = np.random.default_rng(0).standard_normal(n)
        self.q[0] = start / np.linalg.norm(start)
        self.tops: list[tuple[float, np.ndarray]] = []  # (theta, s) per step taken
        self.lifted: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}  # step -> (v, D~_p v, form of v)
        self.ended = False

    def step(self, a: np.ndarray) -> bool:
        """Take the next step on the block a, read and never written; False where none is left."""
        if self.ended:
            return False
        k, q, t = len(self.tops), self.q, self.t
        w = a @ q[k]
        t[k, k] = float(q[k] @ w)
        try:
            theta, s = np.linalg.eigh(t[:k + 1, :k + 1])
        except np.linalg.LinAlgError:  # the step is not taken, and a later call retries it
            return False
        self.tops.append((float(theta[-1]), s[:, -1]))
        if k + 1 == len(q):
            self.ended = True
            return True
        for _ in range(2):
            w -= (q[:k + 1] @ w) @ q[:k + 1]
        beta = float(np.linalg.norm(w))
        if not beta > FLOOR * max(-float(theta[0]), abs(float(theta[-1]))):
            self.ended = True
        else:
            t[k, k + 1] = t[k + 1, k] = beta
            q[k + 1] = w / beta
        return True

    def vector(self, j: int, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """(v, dv, f): step j's Ritz vector, unit, zero-sum and read-only, D~_p v and its form v dv."""
        got = self.lifted.get(j)
        if got is None:
            y = self.tops[j - 1][1] @ self.q[:j]
            v = _lift(y / np.linalg.norm(y))
            dv = d @ v
            for x in (v, dv):  # every later read hands out these same arrays
                x.setflags(write=False)
            got = self.lifted[j] = v, dv, float(v @ dv)
        return got


@dataclass(frozen=True, eq=False)
class _Form:
    """D~_p of one space at exponent p, read-only, with D_p = scale D~_p.

    A decision at p first reads proves, a few steps of a Lanczos run (_Run)
    on the restricted block, then where they prove nothing may factor the
    block (classify, _strict), and only where that proves nothing either
    reads spectrum, one eigvalsh of that block. A report's direction reads
    top, one solve on the block, which overwrites it. A witness at
    NOT_NEG_TYPE or BOUNDARY first turns a Ritz vector of the run (ritz).
    eigen, one eigh, is read only behind a failed check: where the solve
    for the top vector fails, or its witness does not verify. The block is
    formed once, on first need, and held between them until top takes it,
    release drops it (classify at STRICT, a witness once a Ritz vector
    verifies) or a factorisation that proves STRICT negates it; a later
    read forms it again with the same bits. The run is kept, so a later
    decision or witness at p reads the steps already taken and takes only
    new ones.
    A caller takes the block or the run off the form with one atomic pop
    while it uses the block or steps the run, and puts it back, so no two
    concurrent callers use one block or step one run at once; a caller that
    finds one gone builds its own, with the same bits. Other callers read
    only steps already taken, which no later step changes.
    """

    p: float
    d: np.ndarray
    scale: float

    def _take(self) -> np.ndarray:
        """The held block, taken off the form, or the block formed again (_checked)."""
        a = self.__dict__.pop("block", None)
        return _checked(self.d) if a is None else a

    def _hold(self, a: np.ndarray, run: _Run | None = None) -> None:
        """Hold the block a, and the run where the form has none."""
        self.__dict__["block"] = a
        if run is not None:
            self.__dict__.setdefault("run", run)

    def release(self) -> None:
        """Drop the block the form holds, if any: the form then holds D~_p alone."""
        self.__dict__.pop("block", None)

    def _run(self, steps: float) -> _Run:
        """The kept run, taking new steps on the block until it has taken steps or ended."""
        run = self.__dict__.pop("run", None) or _Run(self.d.shape[0] - 1)
        if len(run.tops) < steps and not run.ended:
            a = self._take()
            while len(run.tops) < steps and run.step(a):
                pass
            self._hold(a)
        self.__dict__["run"] = run
        return run

    def proves(self, threshold: float) -> int | None:
        """The first step whose Ritz vector has a form above threshold, or None.

        A step is tried only where its Ritz value is above threshold too.
        The answer depends on the steps alone, so it is the same whatever
        steps earlier calls took.
        """
        j = 0
        while True:
            run = self._run(j + 1)
            if j == len(run.tops):
                return None
            j += 1
            if run.tops[j - 1][0] > threshold and run.vector(j, self.d)[2] > threshold:
                return j

    def ritz(self, step: int | None) -> tuple[np.ndarray, np.ndarray] | None:
        """(v, D~_p v) for the Ritz vector v of that step, or of the run's last where step is None.

        See _Run.vector. None where the run took no step.
        """
        run = self._run(math.inf if step is None else step)
        j = len(run.tops) if step is None else min(step, len(run.tops))
        return run.vector(j, self.d)[:2] if j else None

    @functools.cached_property
    def spectrum(self) -> tuple[float, float]:
        """(lambda_max, lambda_max + floor) of _largest on the block, which stays held."""
        a = self._take()
        lam, floor = _largest(a)
        self._hold(a)
        return lam, lam + floor

    @functools.cached_property
    def top(self) -> tuple:
        """(lambda_max, v), v the top eigenvector, read-only, or None where the solve fails.

        v comes from one step of inverse iteration (_inverse_step) at the
        shift of spectrum: every eigenvector but the top one is damped by
        the floor over its distance below lambda_max, so v is the top one
        unless another eigenvalue lies within a few floors of it, where v
        is a unit vector of that cluster. The solve overwrites the block it
        takes. An eigvalsh that raises keeps nothing.
        """
        lam, shift = self.spectrum
        v = _inverse_step(self._take(), shift)
        if v is not None:  # every later read hands out this same array
            v.setflags(write=False)
        return lam, v

    @functools.cached_property
    def eigen(self) -> tuple:
        """(lambda_max, v_max, lambda_min, v_min) of one eigh, solved on first read only.

        The eigenvectors are unit, zero-sum and read-only; a solve that
        raises keeps nothing.
        """
        evals, evecs = _guarded(np.linalg.eigh, _checked(self.d))
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


def _definite(a: np.ndarray, shift: float) -> bool:
    """True where a Cholesky factorisation of -a - shift I succeeds (see _KAPPA).

    It factors a itself, negated in place: numpy factors a copy, so the
    factor and that copy are the only other arrays of its size. Where the
    factorisation fails, a gets its bits back (negation is exact, and the
    diagonal is put back as it was).
    """
    diagonal = a.diagonal().copy()
    np.negative(a, out=a)
    a[np.diag_indices_from(a)] -= shift
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        np.negative(a, out=a)
        np.fill_diagonal(a, diagonal)
        return False
    return True


def _strict(X: MetricSpace, p: float, margin: float) -> bool:
    """True where _definite proves the form of X at p STRICT at that margin.

    The form leaves the space's slot while the block it held is factored,
    so D~_p is freed there unless a caller holds the form, which then goes
    back to the slot. Where the factorisation fails, the block goes back to
    the form, or with the form's Lanczos run to one built again where that
    was freed.
    """
    form = _form(X, p)
    a, run = form._take(), form.__dict__.get("run")
    kept = weakref.ref(form)
    if _FORMS.get(X) is form:
        del _FORMS[X]
    del form
    proved = _definite(a, margin)
    form = kept()
    if form is not None:
        _FORMS.setdefault(X, form)
    if not proved:
        if form is None:
            form = _form(X, p)
        form._hold(a, run)
    return proved


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

    epsilon must be finite and nonnegative. The default is EPSILON_REL
    times the largest entry of D_p; the comparison runs on the normalised
    form, where epsilon reads epsilon / max D_p. A Lanczos run on the
    restricted form (_Form.proves) first seeks a Ritz vector whose form
    exceeds epsilon by the rounding margin _KAPPA m^2 u: where one of its
    first LANCZOS_STEPS steps finds one, the class is NOT_NEG_TYPE, the one
    eigvalsh would give, and lambda_max is computed only when it is read.
    Where the run's last top Ritz value is below minus that margin, one
    Cholesky factorisation of the negated block shifted by the margin
    follows (_strict): where it succeeds, the class is STRICT, again the
    one eigvalsh would give, and lambda_max is computed only when it is
    read. Otherwise the largest eigenvalue of the same block (eigvalsh, see
    _Form.spectrum) is compared against epsilon. The report's direction is
    solved only when it is read (QuadFormReport.direction); at STRICT the
    form drops the block it holds for that solve, and a proved STRICT drops
    the form as well.
    """
    if epsilon is not None and not 0.0 <= epsilon < math.inf:
        raise InvalidTolerance(f"epsilon = {epsilon}")
    form = _form(X, p)
    scale = form.scale
    if epsilon is None:
        eps, epsilon = EPSILON_REL, _real(EPSILON_REL, scale)
    else:  # x / 0 reads as inf, 0 / 0 as 0
        eps = epsilon / scale if scale else math.inf if epsilon else 0.0

    margin = eps + _KAPPA * X.size**2 * _U
    step = form.proves(margin)
    if step is not None:
        return QuadFormReport(float(p), Classification.NOT_NEG_TYPE, float(epsilon), X,
                              step=step)
    # the run's last top Ritz value is at most lambda_max: at or above -margin
    # (or where margin is inf) no factorisation can prove STRICT, and a form
    # whose eigvalsh is taken already decides by it
    tops = form._run(0).tops
    if tops and tops[-1][0] < -margin and "spectrum" not in vars(form):
        del form  # the factorisation frees D~_p where no caller holds the form
        if _strict(X, p, margin):
            return QuadFormReport(float(p), Classification.STRICT, float(epsilon), X)
        form = _form(X, p)
    lam, _ = form.spectrum
    if lam < -eps:
        cls = Classification.STRICT
        form.release()
    elif lam > eps:
        cls = Classification.NOT_NEG_TYPE
    else:
        cls = Classification.BOUNDARY
    return QuadFormReport(float(p), cls, float(epsilon), X, _real(lam, scale))


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
