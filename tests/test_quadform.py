import dataclasses
import functools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GEN_IDS,
    GEN_KINDS,
    angular_deviation,
    centered_eigenpairs,
    centered_lambda_max,
    centered_spectrum,
    collinear_triple,
    exact_class,
    exact_gap,
    exact_kernel,
    fixed_exponent_corpus,
    probe_bound,
    quad_reference,
    random_balanced,
    random_space,
    reference_supremal,
    sampled_form_max,
    small_graph_metrics,
    unit_four_cycle,
)
from negtype import quadform
from negtype import (
    Classification,
    EigenFailure,
    InvalidCap,
    InvalidTolerance,
    LengthMismatch,
    MetricSpace,
    NegativeExponent,
    NotBalanced,
    SignedSimplex,
    SupremalStatus,
    classify,
    from_points,
    hilbert_embeddable,
    is_ultrametric,
    quad_form,
    random_ultrametric,
    supremal,
    validate_metric,
    verify_equality,
    witness_at_p,
)
from negtype.cli import generate_space
from negtype.quadform import restricted_form


class TestBalancedBasis:
    def test_unbalanced_vector_rejected(self):
        from negtype import BalancedVector

        with pytest.raises(NotBalanced):
            BalancedVector([1.0, 1.0])

    def test_huge_components_balance_without_overflow(self):
        # 1e308 + 1e308 overflows; balance is decided on the components
        # scaled by an exact power of two
        from negtype import BalancedVector

        w = [1e308, 1e308, -1e308, -1e308]
        np.testing.assert_array_equal(BalancedVector(w).weights, w)
        with pytest.raises(NotBalanced) as exc:
            BalancedVector([1e308, 1e308, -1e308])
        assert exc.value.total == 1e308

    @pytest.mark.parametrize("w", [[math.nan, 1.0, -1.0], [math.inf, 0.0, 0.0],
                                   [math.inf, -math.inf, 0.0]])
    def test_non_finite_component_rejected(self, w):
        from negtype import BalancedVector

        with pytest.raises(NotBalanced):
            BalancedVector(w)


class TestQuadForm:
    def test_two_point_closed_form(self, two_point):
        # the form on the zero-sum line is -2 t^2 d^p
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = rng.uniform(-3, 3)
            for p in (0.0, 0.5, 1.0, 2.0, 7.0):
                assert quad_form(two_point, p, [t, -t]) == pytest.approx(
                    -2 * t * t, rel=1e-12, abs=1e-300
                )

    def test_zero_vector(self, collinear):
        assert quad_form(collinear, 1.7, [0.0, 0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("p,expected", [(2.0, 0.0), (3.0, 8.0), (1.0, -4.0)])
    def test_collinear_hand_expansion(self, collinear, p, expected):
        # six cross terms collapse to 2 (2^p - 4)
        assert quad_form(collinear, p, [1, -2, 1]) == pytest.approx(expected, abs=1e-12)
        assert 2 * (2**p - 4) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self, collinear):
        with pytest.raises(LengthMismatch):
            quad_form(collinear, 1.0, [1.0, -1.0])

    @pytest.mark.parametrize("v", [[math.nan, 1.0, -1.0], [math.inf, 1.0, -1.0],
                                   [math.inf, -math.inf, 0.0]])
    def test_non_finite_weight(self, collinear, v):
        with pytest.raises(NotBalanced) as exc:
            quad_form(collinear, 2.0, v)
        assert math.isnan(exc.value.total)

    def test_huge_weights_sum_without_overflow(self, collinear):
        # the sum runs on the weights scaled by an exact power of two, so
        # scaling them by 2^k scales the value by 4^k while it fits, and it
        # reads +-inf where it does not
        assert quad_form(collinear, 1.0, [1e150, -2e150, 1e150]) == pytest.approx(-4e300)
        assert quad_form(collinear, 1.0, [1e200, -2e200, 1e200]) == -math.inf
        for p in (1.0, 2.0, 3.0):
            unit = quad_form(collinear, p, [0.5, -1.0, 0.5])
            for k in (500, 660, -600):
                try:
                    want = math.ldexp(unit, 2 * k)
                except OverflowError:
                    want = math.copysign(math.inf, unit)
                assert quad_form(collinear, p, np.ldexp([0.5, -1.0, 0.5], k)) == want
        # the equality's form is 0: the cross and same-side sums of its sign
        # split cancel exactly, as they do in gap
        assert quad_form(collinear, 2.0, [1e200, -2e200, 1e200]) == 0.0

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(5)
        X = random_space(rng)
        for _ in range(20):
            v = random_balanced(X.size, rng)
            p = rng.uniform(0, 6)
            assert quad_form(X, p, v) == pytest.approx(
                quad_reference(X, p, v), rel=1e-12, abs=1e-14
            )


class TestClassify:
    def test_collinear_p1_strict(self, collinear):
        rep = classify(collinear, 1.0)
        assert rep.classification is Classification.STRICT
        # hand value: max of -2(a^2+c^2)/|xi|^2 over the hyperplane is -2/3
        assert rep.lambda_max == pytest.approx(-2 / 3, rel=1e-12)
        assert rep.lambda_max == pytest.approx(centered_lambda_max(collinear, 1.0), rel=1e-10)
        assert sampled_form_max(collinear, 1.0, 200, seed=1) < 0

    def test_collinear_p2_boundary(self, collinear):
        rep = classify(collinear, 2.0)
        assert rep.classification is Classification.BOUNDARY
        target = np.array([1, -2, 1]) / math.sqrt(6)
        assert abs(abs(rep.direction.weights @ target) - 1) < 1e-10
        assert quad_form(collinear, 2.0, rep.direction) == pytest.approx(0, abs=1e-12)

    def test_collinear_p3_not_neg_type(self, collinear):
        rep = classify(collinear, 3.0)
        assert rep.classification is Classification.NOT_NEG_TYPE
        # attained along (1,-2,1): 8 / |(1,-2,1)|^2 = 4/3
        assert rep.lambda_max == pytest.approx(4 / 3, rel=1e-12)
        assert rep.lambda_max == pytest.approx(centered_lambda_max(collinear, 3.0), rel=1e-10)

    def test_four_cycle_p2_eigenvalue(self, four_cycle):
        # circulant [0,1,4,1]: restricted eigenvalues are {-4, 2, -4}
        rep = classify(four_cycle, 2.0)
        assert rep.lambda_max == pytest.approx(2.0, rel=1e-12)
        assert rep.classification is Classification.NOT_NEG_TYPE

    def test_direction_is_unit_and_balanced(self, four_cycle):
        rep = classify(four_cycle, 2.0)
        assert np.linalg.norm(rep.direction.weights) == pytest.approx(1.0, rel=1e-12)
        assert abs(rep.direction.weights.sum()) < 1e-12

    def test_direction_attains_lambda_max(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            X = random_space(rng)
            p = rng.uniform(0.2, 5)
            rep = classify(X, p)
            assert quad_form(X, p, rep.direction) == pytest.approx(
                rep.lambda_max, rel=1e-9, abs=1e-12
            )

    @pytest.mark.parametrize("p", [-1.0, math.nan, math.inf])
    def test_invalid_exponent(self, collinear, p):
        with pytest.raises(NegativeExponent):
            classify(collinear, p)

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf])
    def test_invalid_tolerance(self, collinear, epsilon):
        with pytest.raises(InvalidTolerance):
            classify(collinear, 1.0, epsilon)

    def test_zero_tolerance_is_valid(self, collinear):
        assert classify(collinear, 1.0, 0.0).classification is Classification.STRICT

    def test_eigensolver_failure_is_typed(self, monkeypatch):
        # a fresh space: the session fixture may already be solved at p = 1
        collinear = collinear_triple()

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(EigenFailure):
            classify(collinear, 1.0)
        with pytest.raises(EigenFailure):
            supremal(collinear)

    def test_non_finite_form_is_typed(self):
        # 1e6^60 and 1e6^64 overflow, but the decisions read the normalised
        # power matrix, so both spaces get the answers of their copies of
        # diameter 1; a nonzero lambda_max reports as +-inf, a zero as 0
        Y = validate_metric(None, 1e6 * np.array([[0, 1, 1], [1, 0, 1.001], [1, 1.001, 0]]))
        Z = validate_metric(None, [[0, 1, 1e6], [1, 0, 1e6], [1e6, 1e6, 0]])
        for X, p in ((Z, 60.0), (Y, 64.0)):
            rep, unit = classify(X, p), classify(validate_metric(None, X.dist / X.dist.max()), p)
            assert rep.classification is unit.classification
            assert rep.lambda_max == (unit.lambda_max * math.inf if unit.lambda_max else 0.0)
            assert rep.tolerance == math.inf
        sup, unit = supremal(Y), supremal(validate_metric(None, Y.dist / 1e6))
        assert (sup.status, sup.evaluations) == (unit.status, unit.evaluations)

    def test_unvalidated_non_finite_space_is_typed(self):
        # a directly built space skips validation; a NaN or inf in it makes
        # the form non-finite, which the eigensolve helper rejects
        nan = MetricSpace(("a", "b", "c", "d"),
                          [[0, 1, 3, 2], [1, 0, 2, math.nan], [3, 2, 0, 1], [2, 2, 1, 0]])
        inf = MetricSpace(("a", "b", "c"), [[0, 1, math.inf], [1, 0, 1], [math.inf, 1, 0]])
        for X in (nan, inf):
            assert not is_ultrametric(X)
            for call in (lambda: classify(X, 1.0), lambda: witness_at_p(X, 1.0),
                         lambda: supremal(X)):
                with pytest.raises(EigenFailure, match="not finite"):
                    call()

    def test_underflowed_power_matrix_is_typed(self, four_cycle):
        # (2e-6)^60 and (2e-200)^2 underflow to 0; the decisions read the
        # normalised power matrix, so the answers are the unscaled 4-cycle's
        assert classify(four_cycle, 60.0).classification is Classification.NOT_NEG_TYPE
        Y = validate_metric(None, 1e-6 * four_cycle.dist)
        rep = classify(Y, 60.0)
        assert rep.classification is Classification.NOT_NEG_TYPE
        assert rep.lambda_max == rep.tolerance == 0.0
        assert not hilbert_embeddable(validate_metric(None, 1e-200 * four_cycle.dist))

    def test_top_pair_matches_centered_reference(self, two_point):
        # the top eigenpair against scipy's full solve of the centred m x m
        # matrix, from m = 2 (one restricted dimension) up
        rng = np.random.default_rng(19)
        spaces = [two_point, validate_metric(None, [[0, 0.3], [0.3, 0]])]
        spaces += [random_space(rng, min_n=2, max_n=9) for _ in range(12)]
        for X in spaces:
            for p in (0.0, 0.6, 1.0, 2.0, 4.5):
                rep = classify(X, p)
                evals, evecs = centered_eigenpairs(X, p)
                scale = float(X.dist.max()) ** p
                assert rep.lambda_max == pytest.approx(evals[-1], rel=1e-10, abs=1e-12 * scale)
                if X.size == 2 or evals[-1] - evals[-2] > 1e-6 * scale:
                    assert angular_deviation(rep.direction.weights, evecs[:, -1]) < 1e-6

    @pytest.mark.parametrize("kind, q", GEN_KINDS, ids=GEN_IDS)
    def test_direction_is_the_top_eigenvector(self, kind, q):
        # the direction of eigvalsh and one shifted solve is a unit zero-sum
        # vector whose Rayleigh quotient on the restricted form A is
        # lambda_max within C m eps |A|, C = 4 (the largest seen is 0.375):
        # the top eigenvector, or a unit vector of a cluster at the top
        eps, c = np.finfo(float).eps, 4.0
        for X, p in fixed_exponent_corpus(kind, q):
            m = X.size
            rep = classify(X, p)
            form = quadform._form(X, p)
            lam, v = form.top
            assert rep.lambda_max == quadform._real(lam, form.scale)
            np.testing.assert_array_equal(rep.direction.weights, v)
            assert abs(np.linalg.norm(v) - 1.0) <= 4 * eps
            assert abs(v.sum()) <= m * eps
            a = quadform._restrict(form.d)
            evals = np.linalg.eigvalsh(a)
            assert lam == evals[-1]
            u, beta = quadform._reflector(m)
            y = (v - beta * float(u @ v) * u)[:-1]  # v in the basis of F0
            norm = max(-evals[0], abs(evals[-1]))
            assert abs(float(y @ a @ y) - lam) <= c * m * eps * norm, (m, p)

    def test_tolerance_scales_with_power_matrix(self, collinear):
        # default tolerance is EPSILON_REL times max D_p = 2^p
        assert classify(collinear, 3.0).tolerance == pytest.approx(8e-9, rel=1e-12)

    def test_lambda_max_at_zero_is_negative(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            X = random_space(rng)
            rep = classify(X, 0.0)
            # the p = 0 form is minus the squared norm on the hyperplane
            assert rep.lambda_max == pytest.approx(-1.0, rel=1e-12)
            assert rep.classification is Classification.STRICT


class TestLazyDirection:
    """A report's direction is solved on its first read, from the space's form at p,
    and so is its lambda_max where a Lanczos vector proved NOT_NEG_TYPE."""

    @staticmethod
    def space():
        return generate_space("points", 30, seed=4)  # STRICT, BOUNDARY, NOT_NEG_TYPE below

    PS = (1.0, 2.0, 3.0)

    def test_reads_after_the_kept_form_moved_on(self, lapack):
        # the reports at 1 and 2 are read only once the kept form is at 3:
        # each builds and solves its form again, with the bits of a read
        # made at once on a fresh copy. The classes at 1 and 2 are proved by
        # one Cholesky factorisation each and the class at 3 by Lanczos, so
        # no class takes an eigvalsh, and every read of a direction takes
        # the eigvalsh of its shift first
        X, F = self.space(), self.space()
        reps = [classify(X, p) for p in self.PS]
        assert [r.classification for r in reps] == list(Classification)
        assert lapack == ["cholesky", "cholesky"]
        eager = [classify(F, p).direction.weights.tobytes() for p in self.PS]
        lapack.clear()
        late = {i: reps[i].direction.weights.tobytes() for i in (2, 0, 1)}
        assert lapack == ["eigvalsh", "solve"] * 3 and lapack.steps == 0
        assert [late[i] for i in range(3)] == eager

    def test_lambda_max_read_after_the_kept_form_moved_on(self, lapack):
        # a proved NOT_NEG_TYPE computes no eigenvalue; its lambda_max is one
        # eigvalsh on first read, with the bits of the class's eigvalsh on
        # a fresh copy, whether the kept form is still at p or has moved on
        X, Y, F = self.space(), self.space(), self.space()
        rep, late = classify(X, 3.0), classify(Y, 3.0)
        assert rep.classification is Classification.NOT_NEG_TYPE
        assert lapack == [] and "lambda_max" not in vars(rep)
        classify(Y, 1.0)
        lapack.clear()
        want = quadform._real(quadform._form(F, 3.0).spectrum[0], quadform._form(F, 3.0).scale)
        assert lapack == ["eigvalsh"]
        assert rep.lambda_max == late.lambda_max == want
        assert rep.lambda_max is rep.lambda_max and late.lambda_max is late.lambda_max
        assert lapack == ["eigvalsh"] * 3
        assert want == pytest.approx(centered_lambda_max(F, 3.0), rel=1e-10)

    def test_one_read_one_array(self, lapack):
        X = self.space()
        for p in self.PS:
            rep = classify(X, p)
            assert not any(isinstance(v, (np.ndarray, quadform._Form)) for v in vars(rep).values())
            assert rep.direction is rep.direction
            np.testing.assert_array_equal(rep.direction.weights, quadform._form(X, p).top[1])
        # the classes at 1 and 2 are proved STRICT and BOUNDARY by one
        # Cholesky factorisation each
        assert lapack == ["cholesky", "eigvalsh", "solve", "cholesky", *["eigvalsh", "solve"] * 2]
        assert [f.name for f in dataclasses.fields(rep)] == ["p", "classification", "tolerance"]
        assert "direction" not in repr(rep) and "lambda_max" not in repr(rep)

    def test_kept_form_holds_its_block_only_until_it_is_used(self):
        # the block is formed once for the Lanczos run and eigvalsh and held
        # for the solve, and dropped at STRICT, where no witness needs it: a
        # kept form then holds D~_p alone
        X = self.space()
        for p in self.PS:
            rep = classify(X, p)
            form = quadform._form(X, p)
            arrays = [v for v in vars(form).values() if isinstance(v, np.ndarray)]
            held = 0 if rep.classification is Classification.STRICT else 1
            assert len(arrays) == 1 + held and arrays[0] is form.d
            rep.direction
            assert [v for v in vars(form).values() if isinstance(v, np.ndarray)] == [form.d]

    def test_failed_solve_at_the_read_falls_back_to_eigh(self, lapack, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("singular matrix")

        X = collinear_triple()
        rep = classify(X, 3.0)
        monkeypatch.setattr(np.linalg, "solve", singular)
        v = rep.direction.weights
        assert lapack == ["eigvalsh", "eigh"]
        np.testing.assert_array_equal(v, quadform._form(X, 3.0).eigen[1])
        assert abs(abs(v @ np.array([1, -2, 1])) / math.sqrt(6) - 1) < 1e-12

    def test_eigen_failure_surfaces_at_the_read(self, monkeypatch):
        # classify needs no eigh of the form, and a Lanczos step whose eigh
        # fails leaves the class to eigvalsh; the read that falls back to
        # an eigh of the form raises
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        X = collinear_triple()
        monkeypatch.setattr(np.linalg, "solve", fail)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        rep = classify(X, 3.0)
        assert rep.classification is Classification.NOT_NEG_TYPE
        with pytest.raises(EigenFailure):
            rep.direction
        monkeypatch.undo()  # the failed eigh kept nothing: a later read solves it
        np.testing.assert_array_equal(rep.direction.weights, quadform._form(X, 3.0).eigen[1])

    def test_hilbert_embeddable_factors_only_where_it_embeds(self, lapack):
        # the 4-cycle at 2 is proved NOT_NEG_TYPE by Lanczos, and the other
        # two spaces BOUNDARY at 2 by one Cholesky factorisation each
        spaces = (collinear_triple(), unit_four_cycle(), self.space())
        assert [hilbert_embeddable(X) for X in spaces] == [True, False, True]
        assert lapack == ["cholesky"] * 2
        lapack.clear()
        assert not hilbert_embeddable(generate_space("points", 200, q=1.0, seed=1))
        assert lapack == [] and 1 <= lapack.steps <= quadform.LANCZOS_STEPS


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLanczosDecision:
    """classify first takes up to LANCZOS_STEPS Lanczos steps, which prove
    NOT_NEG_TYPE where a Ritz vector's form exceeds the tolerance eps by
    eps + r, r = _KAPPA m u (N + m eps) and N the largest row sum of D~_p.
    Where the last Ritz value is below -(eps + r), one Cholesky
    factorisation of the negated form shifted by eps + r proves STRICT
    where it succeeds; where the last Ritz vector's form is at least
    r - eps, one of (eps - r) I minus the form proves BOUNDARY where it
    succeeds. eigvalsh decides the rest. Either way the class is the one
    the eigvalsh rule gives."""

    # STRICT reports the factorisation proves in test_gen_corpus_at_every_tolerance
    GEN_PROVED_STRICT = {("points", 2.0): 36, ("points", 1.0): 34, ("random", 2.0): 14,
                         ("path", 2.0): 32, ("cycle", 2.0): 20}
    # BOUNDARY reports it proves there, at the default tolerance and at 1e300
    GEN_PROVED_BOUNDARY = {("points", 2.0): (6, 34), ("points", 1.0): (0, 40),
                           ("random", 2.0): (0, 40), ("path", 2.0): (8, 32),
                           ("cycle", 2.0): (2, 34)}

    @staticmethod
    def proved_strict(rep):
        """True where a Cholesky factorisation proved the report STRICT: no eigvalsh ran."""
        return rep.classification is Classification.STRICT and "lambda_max" not in vars(rep)

    @staticmethod
    def proved_boundary(rep):
        """True where a Cholesky factorisation proved the report BOUNDARY: no eigvalsh ran."""
        return rep.classification is Classification.BOUNDARY and "lambda_max" not in vars(rep)

    @staticmethod
    def rounding(X, p, eps):
        """r = _KAPPA m u (N + m eps) on the form of X at p, N summed here."""
        m = X.size
        norm = float(quadform._power(X, p)[0].sum(axis=1).max())
        return quadform._KAPPA * m * 2.0**-53 * (norm + m * eps)

    @staticmethod
    def eigvalsh_class(X, p, epsilon=None):
        """The class from eigvalsh of the restricted form, compared against the tolerance."""
        d, scale = quadform._power(X, p)
        lam = float(np.linalg.eigvalsh(quadform._restrict(d))[-1])
        if epsilon is None:
            eps = quadform.EPSILON_REL
        else:
            eps = epsilon / scale if scale else math.inf if epsilon else 0.0
        return (Classification.STRICT if lam < -eps
                else Classification.NOT_NEG_TYPE if lam > eps else Classification.BOUNDARY)

    def test_sweep_corpus(self):
        # the spaces of TestWitnessContract's sweep at its 8 exponents above
        # the bracket, every one NOT_NEG_TYPE and proved, and at 0.5 lo,
        # 0.99 lo and hi; the factorisation proves STRICT at 0.5 lo and
        # 0.99 lo, and BOUNDARY at hi, where every class is BOUNDARY
        rng = np.random.default_rng(123)
        spaces = proved = 0
        strict, boundary = Counter(), Counter()
        while spaces < 150:
            X = random_space(rng)
            sup = supremal(X)
            if sup.status is not SupremalStatus.FINITE:
                continue
            spaces += 1
            above = np.geomspace(1.01 * sup.hi, 64, 8).tolist()
            for f, p in [*zip(["above"] * 8, above), (0.5, 0.5 * sup.lo),
                         (0.99, 0.99 * sup.lo), ("hi", sup.hi)]:
                rep = classify(X, p)
                assert rep.classification is self.eigvalsh_class(X, p), (spaces, p)
                proved += rep._step is not None
                assert rep._step is not None or p not in above, (spaces, p)
                strict[f] += self.proved_strict(rep)
                boundary[f] += self.proved_boundary(rep)
        assert proved >= 1200
        assert strict[0.5] >= 150 and strict[0.99] >= 150
        assert +boundary == {"hi": 150}

    @pytest.mark.parametrize("kind, q", GEN_KINDS, ids=GEN_IDS)
    def test_gen_corpus_at_every_tolerance(self, kind, q):
        # epsilon = 0 leaves the margin alone above 0 and proves no
        # BOUNDARY, and a huge epsilon makes every class BOUNDARY, which no
        # step proves and the factorisation proves where no eigvalsh of the
        # form was taken at a smaller epsilon
        proved, boundary = 0, Counter()
        for X, p in fixed_exponent_corpus(kind, q):
            for epsilon in (None, 0.0, 1e300):
                rep = classify(X, p, epsilon)
                assert rep.classification is self.eigvalsh_class(X, p, epsilon), (X.size, p)
                proved += self.proved_strict(rep)
                boundary[epsilon] += self.proved_boundary(rep)
            assert rep.classification is Classification.BOUNDARY and rep._step is None
        assert proved >= self.GEN_PROVED_STRICT[kind, q]
        assert boundary[0.0] == 0
        at_default, at_huge = self.GEN_PROVED_BOUNDARY[kind, q]
        assert boundary[None] >= at_default and boundary[1e300] >= at_huge

    def test_the_margin_leaves_a_close_call_to_eigvalsh(self, lapack):
        # lambda_max of the collinear triple's normalised form at 3 is 1/6:
        # a tolerance within r below it is left to eigvalsh, and one 2 r
        # below it is proved in two steps
        lam = classify(collinear_triple(), 3.0).lambda_max / 8.0  # max D_3 = 8
        X = collinear_triple()
        r = self.rounding(X, 3.0, lam)
        lapack.clear()
        close = classify(X, 3.0, 8.0 * (lam - 0.5 * r))
        assert close.classification is Classification.NOT_NEG_TYPE and close._step is None
        assert lapack == ["eigvalsh"] and lapack.steps == 2
        # the second class reads the two steps the run kept
        far = classify(X, 3.0, 8.0 * (lam - 2.0 * r))
        assert far.classification is Classification.NOT_NEG_TYPE and far._step == 2
        assert lapack == ["eigvalsh"] and lapack.steps == 2

    @pytest.mark.parametrize("space, p", [(collinear_triple, 3.0), (unit_four_cycle, 8.0)],
                             ids=["collinear", "four_cycle"])
    def test_boundary_within_the_margin_is_left_to_eigvalsh(self, lapack, space, p):
        # a tolerance r / 2 above lambda_max makes the class BOUNDARY, and
        # the factorisation of (eps - r) I minus the form, below lambda_max,
        # is not tried: eigvalsh decides. 2 r above, it proves the class. On
        # the 4-cycle at 8, lambda_max = 1 - 2^-7 and N = 1 + 2^-7, so the
        # shift's own share m eps of the factored matrix's trace is most of r
        d, scale = quadform._power(space(), p)
        lam = float(np.linalg.eigvalsh(quadform._restrict(d))[-1])
        r = self.rounding(space(), p, lam)
        lapack.clear()
        close = classify(space(), p, scale * (lam + 0.5 * r))
        assert close.classification is Classification.BOUNDARY and "lambda_max" in vars(close)
        assert lapack == ["eigvalsh"]
        lapack.clear()
        far = classify(space(), p, scale * (lam + 2.0 * r))
        assert self.proved_boundary(far) and lapack == ["cholesky"]

    def test_strict_within_the_margin_is_left_to_eigvalsh(self, lapack):
        # a tolerance half the margin below -lambda_max keeps the class
        # STRICT. On three points the run spans F0, so its last Ritz value is
        # lambda_max, above minus the margin: no factorisation is tried. On
        # 40 points the run ends well below lambda_max, so the factorisation
        # is tried, and it fails, since the form shifted by the margin is not
        # negative definite by far more than its rounding; eigvalsh decides
        for X, p in ((collinear_triple(), 1.0), (generate_space("points", 40, seed=0), 1.0)):
            d, scale = quadform._power(X, p)
            lam = float(np.linalg.eigvalsh(quadform._restrict(d))[-1])
            margin = quadform._KAPPA * X.size**2 * 2.0**-53
            lapack.clear()
            rep = classify(X, p, scale * (-lam - 0.5 * margin))
            assert rep.classification is Classification.STRICT and "lambda_max" in vars(rep)
            assert lapack == (["eigvalsh"] if X.size == 3 else ["cholesky", "eigvalsh"])
            assert rep.lambda_max == quadform._real(lam, scale)
            # twice the margin below, the factorisation proves the class
            lapack.clear()
            far = classify(validate_metric(None, X.dist), p, scale * (-lam - 2.0 * margin))
            assert self.proved_strict(far) and lapack == ["cholesky"]

    def test_failed_factorisation_leaves_the_block_as_it_was(self):
        # the BOUNDARY 4-cycle at 1, whose lambda_max is 0: the form is not
        # below -1e-9, and the block keeps its bits for eigvalsh; it is
        # below 1e-9, and with keep the block keeps its bits as well
        a = quadform._restrict(quadform._power(unit_four_cycle(), 1.0)[0])
        before = a.copy()
        assert not quadform._definite(a, -1e-9)
        assert a.tobytes() == before.tobytes()
        assert quadform._definite(a, 1e-9, keep=True)
        assert a.tobytes() == before.tobytes()
        assert quadform._definite(-np.eye(3), -0.5) and not quadform._definite(-np.eye(3), -1.0)

    @pytest.mark.parametrize("kind, m, q, p", [
        ("points", 300, 2.0, 1.0), ("points", 200, 1.0, 0.5), ("path", 150, 2.0, 1.0),
    ], ids=["l2_cloud", "l1_cloud", "path"])
    def test_proved_strict_takes_one_factorisation(self, lapack, kind, m, q, p):
        # no eigvalsh, solve or eigh of order m - 1: the steps' eigh calls on
        # their tridiagonal matrices and the one factorisation. The proof
        # drops the space's form, and lambda_max read later is one eigvalsh
        # of the form built again, with the bits of the eigvalsh rule
        X = generate_space(kind, m, q=q, seed=1)
        rep = classify(X, p)
        assert self.proved_strict(rep)
        assert lapack == ["cholesky"] and lapack.of_order(m - 1) == ["cholesky"]
        steps = [("eigh", k) for k in range(1, lapack.steps + 1)]
        assert lapack.steps == quadform.LANCZOS_STEPS
        assert lapack.sized == [*steps, ("cholesky", m - 1)]
        assert X not in quadform._FORMS
        d, scale = quadform._power(X, p)
        want = quadform._real(float(np.linalg.eigvalsh(quadform._restrict(d))[-1]), scale)
        lapack.clear()
        assert rep.lambda_max == want and lapack == ["eigvalsh"]

    @pytest.mark.parametrize("kind, m", [("points", 200), ("path", 150)], ids=["l2_cloud", "path"])
    def test_proved_boundary_takes_one_factorisation(self, lapack, kind, m):
        # classify, witness_at_p and verify_equality take the steps' eigh
        # calls on their tridiagonal matrices and one factorisation: the
        # witness's own class reads the answer the form keeps. The block
        # keeps its bits, those of _restrict, so lambda_max read at once
        # after the proof on a fresh copy is the eigvalsh rule's
        X = generate_space(kind, m, seed=1)
        rep = classify(X, 2.0)
        assert self.proved_boundary(rep)
        form = quadform._form(X, 2.0)
        assert form.__dict__["block"].tobytes() == quadform._restrict(form.d).tobytes()
        w = witness_at_p(X, 2.0)
        assert verify_equality(X, 2.0, w.simplex).nontrivial_equality
        assert lapack == ["cholesky"] and lapack.of_order(m - 1) == ["cholesky"]
        # the form has rank 3 (l2_cloud) or 1 (path), so the run breaks down early
        steps = [("eigh", k) for k in range(1, lapack.steps + 1)]
        assert 1 <= lapack.steps < quadform.LANCZOS_STEPS
        assert lapack.sized == [*steps, ("cholesky", m - 1)]
        Y = validate_metric(None, X.dist)
        again = classify(Y, 2.0)
        d, scale = quadform._power(X, 2.0)
        want = quadform._real(float(np.linalg.eigvalsh(quadform._restrict(d))[-1]), scale)
        assert self.proved_boundary(again) and again.lambda_max == want == rep.lambda_max

    @staticmethod
    def classes_with_every_ritz_value(monkeypatch, theta):
        """Classify four spaces with the top Ritz value of every step read as theta."""
        real = quadform._Run.step

        def inflated(run, a):
            took = real(run, a)
            if took:
                run.tops[-1] = (theta, run.tops[-1][1])
            return took

        monkeypatch.setattr(quadform._Run, "step", inflated)
        for X, p, cls in ((collinear_triple(), 1.0, Classification.STRICT),
                          (collinear_triple(), 2.0, Classification.BOUNDARY),
                          (unit_four_cycle(), 1.0, Classification.BOUNDARY),
                          (generate_space("points", 40, seed=0), 1.0, Classification.STRICT)):
            rep = classify(X, p)
            assert rep.classification is cls and rep._step is None

    def test_a_ritz_value_alone_proves_nothing(self, monkeypatch):
        # the proofs read the form of the lifted Ritz vector on D~_p, not
        # the Ritz value: with every Ritz value read as inf, the classes
        # stay the ones eigvalsh gives. A STRICT form is below eps - r, so
        # only its own Ritz vector's form keeps the factorisation from
        # proving BOUNDARY
        self.classes_with_every_ritz_value(monkeypatch, math.inf)

    def test_a_ritz_value_within_the_gates_proves_nothing(self, monkeypatch):
        # as above, with every Ritz value read as 0, inside the gates of
        # the BOUNDARY factorisation at both ends
        self.classes_with_every_ritz_value(monkeypatch, 0.0)

    def test_non_finite_form_raises_before_any_step(self, lapack):
        X = MetricSpace(("a", "b", "c"), [[0, 1, math.inf], [1, 0, 1], [math.inf, 1, 0]])
        with pytest.raises(EigenFailure, match="not finite"):
            classify(X, 1.0)
        assert lapack.sized == []

    @pytest.mark.parametrize("kind, m, q, p", [
        ("points", 300, 1.0, 2.0), ("points", 200, 2.0, 2.5), ("random", 100, 2.0, 3.0),
    ], ids=["l1_cloud", "l2_cloud", "random_graph"])
    def test_proved_class_and_witness_take_no_call_on_the_form(self, lapack, kind, m, q, p):
        # no eigvalsh, solve or eigh of order m - 1: only the steps' eigh
        # calls on their tridiagonal matrices
        X = generate_space(kind, m, q=q, seed=1)
        rep, w = classify(X, p), witness_at_p(X, p)
        assert rep.classification is Classification.NOT_NEG_TYPE
        assert w.equality.nontrivial_equality
        assert lapack.of_order(m - 1) == [] and lapack == []
        assert 1 <= lapack.steps == rep._step <= quadform.LANCZOS_STEPS
        assert lapack.sized == [("eigh", k) for k in range(1, rep._step + 1)]


class TestExactClass:
    """classify against the inertia of the form, exact in rationals."""

    @pytest.mark.parametrize("dist, classes", [
        ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], ("STRICT", "BOUNDARY", "NOT_NEG_TYPE")),
        ([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
         ("BOUNDARY", "NOT_NEG_TYPE", "NOT_NEG_TYPE")),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], ("STRICT",) * 3),
    ], ids=["collinear", "four-cycle", "equilateral"])
    def test_oracle_on_known_spaces(self, dist, classes):
        # w = 2 for the collinear triple, 1 for the unit 4-cycle, and an
        # ultrametric is strict at every exponent
        assert tuple(exact_class(dist, p) for p in (1, 2, 3)) == classes

    def test_every_small_integer_graph(self):
        # every connected graph on at most 5 labelled vertices with unit
        # edges, and on at most 4 with edge weights 1 to 3 (which holds the
        # unit ones), at p = 1, 2 and 3: the BOUNDARY class is decided by a
        # tolerance, and the oracle uses none
        spaces = [*small_graph_metrics(5, (1,)),
                  *(d for n in (2, 3, 4) for d in small_graph_metrics(n, (1, 2, 3)))]
        assert len(spaces) == 2589
        seen = Counter()
        for d in spaces:
            X = validate_metric(None, d)
            for p in (1, 2, 3):
                want = exact_class(d, p)
                seen[want] += 1
                assert classify(X, p).classification.value == want, (d.tolist(), p)
                if want != "STRICT":
                    eq = witness_at_p(X, p).equality
                    assert eq.holds and eq.nontrivial, (d.tolist(), p)
        assert seen == {"STRICT": 2651, "BOUNDARY": 573, "NOT_NEG_TYPE": 4543}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_factorisation_proof_is_exact(self):
        # integer spaces of strict 1-negative type (odd cycles, and paths and
        # trees with integer edge lengths): every class at 1 is proved STRICT
        # by the factorisation, and the oracle agrees. The paths at 2 and
        # the unit 4-cycle at 1 are BOUNDARY: the factorisation proves each
        # of those, and the oracle agrees
        def cycle(n):
            k = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            return np.minimum(k, n - k)

        def path(n, rng):
            x = np.cumsum(rng.integers(1, 6, n))
            return np.abs(np.subtract.outer(x, x))

        def tree(n, rng):
            d = np.zeros((n, n), dtype=int)
            for v in range(1, n):  # vertex v hangs off an earlier vertex u
                u, w = int(rng.integers(v)), int(rng.integers(1, 6))
                d[v, :v] = d[u, :v] + w
                d[:v, v] = d[v, :v]
            return d

        rng = np.random.default_rng(37)
        spaces, boundary = [cycle(n) for n in range(3, 32, 2)], [(cycle(4), 1)]
        for _ in range(30):
            n = int(rng.integers(3, 25))
            spaces += [path(n, rng), tree(n, rng)]
            boundary.append((spaces[-2], 2))
        for d in spaces:
            rep = classify(validate_metric(None, d), 1.0)
            assert TestLanczosDecision.proved_strict(rep), d.tolist()
            assert exact_class(d, 1) == "STRICT", d.tolist()
        for d, p in boundary:
            rep = classify(validate_metric(None, d), float(p))
            assert TestLanczosDecision.proved_boundary(rep), d.tolist()
            assert exact_class(d, p) == "BOUNDARY", d.tolist()

    def test_boundary_kernels_are_exact_equalities(self):
        # at each BOUNDARY pair of the graphs above every vector of an exact
        # rational kernel basis of the form is an integer zero-sum xi whose
        # sign split is a nontrivial equality with gap exactly 0; where the
        # kernel is a line, the float direction spans it
        spaces = [*small_graph_metrics(5, (1,)),
                  *(d for n in (2, 3, 4) for d in small_graph_metrics(n, (1, 2, 3)))]
        dims = Counter()
        for d in spaces:
            X = validate_metric(None, d)
            for p in (1, 2, 3):
                if exact_class(d, p) != "BOUNDARY":
                    continue
                kernel = exact_kernel(d, p)
                dims[len(kernel)] += 1
                for xi in kernel:
                    Q = SignedSimplex(tuple((i, w) for i, w in enumerate(xi) if w > 0),
                                      tuple((i, -w) for i, w in enumerate(xi) if w < 0))
                    assert exact_gap(X, p, Q)[0] == 0, (d.tolist(), p, xi)
                    assert verify_equality(X, p, Q).nontrivial, (d.tolist(), p, xi)
                if len(kernel) == 1:
                    direction = classify(X, p).direction.weights
                    assert angular_deviation(direction, kernel[0]) < 1e-6, (d.tolist(), p)
        assert dims == {1: 189, 2: 324, 3: 60}


class TestRestrictionCorrectness:
    @staticmethod
    def two_step(d):
        # u z^T formed as an outer product, then symmetrised by its transpose
        u, beta = quadform._reflector(len(d))
        w = beta * (d @ u)
        z = w - (0.5 * beta * float(u @ w)) * u
        a = np.outer(u[:-1], z[:-1])
        a += a.T
        return d[:-1, :-1] - a

    def test_one_pass_has_the_bits_of_the_two_step_reference(self, four_cycle):
        rng = np.random.default_rng(37)
        spaces = [four_cycle, validate_metric(None, 1e200 * four_cycle.dist),
                  validate_metric(None, 1e-200 * four_cycle.dist)]
        for m in (2, 3, 50, 351):
            spaces.append(from_points(rng.standard_normal((m, 3)), q=1))
            spaces.append(generate_space("random", m, seed=m))
        for X in spaces:
            for p in (0.0, 1.0, 2.5, 60.0):
                d = quadform._power(X, p)[0]
                a = quadform._restrict(d)
                assert a.tobytes() == self.two_step(d).tobytes()
                assert a.tobytes() == a.T.copy().tobytes()

    def test_matches_quad_form(self):
        # the restriction is an orthonormal change of basis on the zero-sum
        # hyperplane, so its spectrum is the form's spectrum there
        rng = np.random.default_rng(31)
        X = random_space(rng)
        for p in (0.5, 1.0, 2.0, 3.7):
            m = restricted_form(X, p)
            assert m.shape == (X.size - 1, X.size - 1)
            np.testing.assert_array_equal(m, m.T)
            np.testing.assert_allclose(
                np.linalg.eigvalsh(m), centered_spectrum(X, p), rtol=1e-10, atol=1e-12
            )


class TestSupremal:
    def test_collinear(self, collinear):
        sup = supremal(collinear)
        assert sup.status is SupremalStatus.FINITE
        assert sup.lo <= sup.hi
        assert sup.hi - sup.lo <= 1e-10
        assert sup.midpoint == pytest.approx(2.0, abs=1e-8)
        # independent sign-change scan around the bracket
        assert centered_lambda_max(collinear, 1.9) < 0
        assert centered_lambda_max(collinear, 2.1) > 0

    def test_four_cycle(self, four_cycle):
        sup = supremal(four_cycle)
        assert sup.status is SupremalStatus.FINITE
        assert sup.midpoint == pytest.approx(1.0, abs=1e-8)
        assert centered_lambda_max(four_cycle, 0.9) < 0
        assert centered_lambda_max(four_cycle, 1.1) > 0

    def test_equilateral_ultrametric(self, equilateral):
        sup = supremal(equilateral)
        assert sup.status is SupremalStatus.INFINITE_ULTRAMETRIC
        assert sup.lo is None and sup.hi is None and sup.midpoint is None

    def test_exceeds_cap_near_equilateral(self):
        # distances {1, 1, 1.001}: positive direction appears only once
        # 1.001^p > 4, i.e. beyond p ~ 1386
        X = validate_metric(None, [[0, 1, 1], [1, 0, 1.001], [1, 1.001, 0]])
        sup = supremal(X)
        assert sup.status is SupremalStatus.EXCEEDS_CAP
        assert classify(X, 64.0).classification is Classification.STRICT
        big = supremal(X, cap=2048.0)
        assert big.status is SupremalStatus.FINITE
        assert big.midpoint == pytest.approx(math.log(4) / math.log(1.001), rel=1e-6)

    def test_small_cap_exceeded(self, collinear):
        sup = supremal(collinear, cap=1.5)
        assert sup.status is SupremalStatus.EXCEEDS_CAP
        assert sup.cap == 1.5

    def test_invalid_cap(self, collinear):
        with pytest.raises(InvalidCap):
            supremal(collinear, cap=0.0)
        with pytest.raises(InvalidCap):
            supremal(collinear, width_tol=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidCap):
                supremal(collinear, cap=bad)
            with pytest.raises(InvalidCap):
                supremal(collinear, width_tol=bad)

    def test_bracket_endpoints_have_correct_signs(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            X = random_space(rng)
            sup = supremal(X)
            if sup.status is not SupremalStatus.FINITE:
                continue
            assert centered_lambda_max(X, sup.lo) <= 1e-9
            assert centered_lambda_max(X, sup.hi) >= -1e-9

    def test_brackets_match_reference_bisection(self, collinear, four_cycle):
        rng = np.random.default_rng(71)
        for X in [collinear, four_cycle] + [random_space(rng) for _ in range(12)]:
            sup = supremal(X)
            ref = reference_supremal(X)
            if ref is None:
                assert sup.status is SupremalStatus.EXCEEDS_CAP
                continue
            assert sup.status is SupremalStatus.FINITE
            assert sup.hi - sup.lo <= 1e-10
            assert abs(sup.lo - ref[0]) <= 1e-10
            assert abs(sup.hi - ref[1]) <= 1e-10

    def test_probe_counts(self, collinear, four_cycle):
        # bisection takes 36 and 35 probes on these two; each probes its w
        assert supremal(collinear).evaluations <= 2
        assert supremal(four_cycle).evaluations <= 1
        rng = np.random.default_rng(41)
        sups = [supremal(random_space(rng)) for _ in range(5)]
        assert np.mean([s.evaluations for s in sups]) <= 15
        for sup in sups:
            if sup.status is SupremalStatus.FINITE:
                assert sup.evaluations <= probe_bound(sup)

    @pytest.mark.parametrize("neg,pos", [(1e-300, 1e300), (1e300, 1e-300)])
    def test_probe_bound_with_adversarial_magnitudes(self, collinear, four_cycle,
                                                     monkeypatch, neg, pos):
        # the probes keep their signs but their sizes mislead every secant step
        rng = np.random.default_rng(73)
        spaces = [collinear, four_cycle] + [random_space(rng) for _ in range(4)]
        honest = [supremal(X) for X in spaces]
        real_spectrum = quadform._spectrum

        def skewed(d):
            # the probe's value as supremal reads it, resized, with no floor left
            a, lam, floor = real_spectrum(d)
            g = 0.0 if abs(lam) <= floor else lam
            return a, (pos if g > 0 else -neg if g < 0 else 0.0), 0.0

        monkeypatch.setattr(quadform, "_spectrum", skewed)
        for X, ref in zip(spaces, honest):
            sup = supremal(X)
            assert sup.status is ref.status
            if sup.status is not SupremalStatus.FINITE:
                continue
            assert sup.hi - sup.lo <= 1e-10
            assert abs(sup.lo - ref.lo) <= 1e-10
            assert sup.evaluations <= probe_bound(sup)

    def test_width_below_float_spacing_stops_at_adjacent_floats(self, collinear,
                                                                monkeypatch):
        sup = supremal(collinear, width_tol=1e-300)
        assert sup.status is SupremalStatus.FINITE
        assert sup.lo <= 2.0 <= sup.hi
        assert sup.midpoint == pytest.approx(2.0, abs=1e-15)
        assert sup.evaluations <= probe_bound(sup, width_tol=1e-300)
        # |dg/dp| <= m / (e p), so one float step moves g by at most m eps / e:
        # on a space this small every search reads a zero before float spacing,
        # and only a search without the floor shows where that stop lies
        monkeypatch.setattr(quadform, "FLOOR", 0.0)
        sup = supremal(random_space(np.random.default_rng(81)), width_tol=1e-300)
        assert sup.status is SupremalStatus.FINITE
        assert sup.hi == math.nextafter(sup.lo, math.inf)
        assert sup.evaluations <= probe_bound(sup, width_tol=1e-300)

    def test_underflowed_power_matrix_is_typed(self, collinear):
        # (2e-200)^2 underflows to 0, but g is the largest eigenvalue of the
        # normalised form: every probe sees the unscaled collinear triple's
        X = validate_metric(None, 1e-200 * collinear.dist)
        sup, unit = supremal(X), supremal(collinear)
        assert (sup.status, sup.evaluations) == (unit.status, unit.evaluations)
        assert abs(sup.lo - unit.lo) <= 1e-10 and abs(sup.hi - unit.hi) <= 1e-10

    def test_finite_lower_endpoint_positive(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            X = random_space(rng)
            sup = supremal(X)
            if sup.status is SupremalStatus.FINITE:
                assert sup.lo > 0

    def test_boundary_behavior_near_midpoint(self):
        rng = np.random.default_rng(47)
        done = 0
        while done < 5:
            X = random_space(rng)
            sup = supremal(X)
            if sup.status is not SupremalStatus.FINITE:
                continue
            done += 1
            mid = sup.midpoint
            if mid > 0.01:
                assert classify(X, mid - 0.01).classification is Classification.STRICT
            rep = classify(X, mid)
            assert abs(rep.lambda_max) <= 10 * rep.tolerance


SIZES = (50, 150, 350, 600, 1000)


@pytest.fixture(scope="module")
def closed_form():
    """gen spaces whose supremal exponent is known: path 2, even cycle 1, l2 cloud 2."""
    return functools.cache(lambda kind, m: generate_space(kind, m, seed=m))


def closed_forms(kind: str, w: float, sizes) -> list:
    return [pytest.param(kind, m, w, id=f"{kind}-{m}") for m in sizes]


PATHS_AND_CYCLES = closed_forms("path", 2.0, SIZES) + closed_forms("cycle", 1.0, SIZES)


class TestNoiseFloor:
    """At an exact zero of g every solver reads |lambda_max| well inside the floor."""

    @staticmethod
    def spectra(X: MetricSpace, p: float):
        d = quadform._power(X, p)[0]
        perm = np.random.default_rng(X.size).permutation(X.size)
        yield np.linalg.eigvalsh(quadform._restrict(d))
        yield np.linalg.eigh(quadform._restrict(d))[0]
        yield np.linalg.eigvalsh(quadform._restrict(d[np.ix_(perm, perm)]))

    def check_zero(self, X: MetricSpace, p: float):
        for evals in self.spectra(X, p):
            norm = max(-evals[0], evals[-1])
            assert abs(evals[-1]) <= 0.5 * quadform.FLOOR * norm
        _, lam, floor = quadform._spectrum(quadform._power(X, p)[0])
        assert abs(lam) <= floor  # the sign probe reads exactly 0.0

    @pytest.mark.parametrize("kind,m,w",
                             PATHS_AND_CYCLES + closed_forms("points", 2.0, SIZES[:-1]))
    def test_closed_form_zeros(self, closed_form, kind, m, w):
        self.check_zero(closed_form(kind, m), w)

    def test_collinear_and_four_cycle(self, collinear, four_cycle):
        self.check_zero(collinear, 2.0)
        self.check_zero(four_cycle, 1.0)

    @pytest.mark.parametrize("kind,m,w", PATHS_AND_CYCLES + closed_forms("points", 2.0, [600]))
    def test_bracket_contains_the_closed_form_exponent(self, closed_form, kind, m, w):
        sup = supremal(closed_form(kind, m))
        assert sup.status is SupremalStatus.FINITE
        assert sup.lo <= w <= sup.hi
        assert sup.evaluations <= 2


class TestIntervalStructure:
    def test_monotone_classification(self):
        # negative type at q forces negative type at every p < q
        rng = np.random.default_rng(53)
        for _ in range(15):
            X = random_space(rng)
            ps = np.sort(rng.uniform(0, 6, size=4))
            reps = [classify(X, p).classification for p in ps]
            for a in range(len(ps)):
                for b in range(a + 1, len(ps)):
                    if reps[b] is not Classification.NOT_NEG_TYPE:
                        assert reps[a] is not Classification.NOT_NEG_TYPE

    def test_scale_invariance(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            X = random_space(rng)
            ps = rng.uniform(0.1, 5, size=3)
            # c^64 * max d stays finite for c = 1e3
            for c in (0.1, 3.0, 1e-3, 1e3):
                Y = validate_metric(X.labels, c * X.dist)
                for p in ps:
                    assert classify(X, p).classification is classify(Y, p).classification
                a, b = supremal(X), supremal(Y)
                assert a.status is b.status
                if a.status is SupremalStatus.FINITE:
                    assert abs(a.lo - b.lo) <= 2e-10
                    assert abs(a.hi - b.hi) <= 2e-10

    def test_quad_form_scales_by_c_to_p(self, collinear):
        c = 3.0
        Y = validate_metric(None, c * collinear.dist)
        rng = np.random.default_rng(61)
        for _ in range(10):
            v = random_balanced(3, rng)
            p = rng.uniform(0, 4)
            assert quad_form(Y, p, v) == pytest.approx(
                c**p * quad_form(collinear, p, v), rel=1e-12
            )


class TestHilbertEmbeddable:
    def test_collinear(self, collinear):
        assert hilbert_embeddable(collinear)

    def test_four_cycle(self, four_cycle):
        assert not hilbert_embeddable(four_cycle)

    def test_ultrametric(self):
        assert hilbert_embeddable(random_ultrametric(6, seed=3))

    def test_euclidean_clouds_never_fail_at_two(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            dim = int(rng.integers(1, 5))
            X = from_points(rng.standard_normal((n, dim)), q=2)
            assert classify(X, 2.0).classification is not Classification.NOT_NEG_TYPE
            assert hilbert_embeddable(X)


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(-5, 5, allow_nan=False).filter(lambda t: abs(t) > 1e-3),
    p=st.floats(0, 8, allow_nan=False),
    d=st.floats(0.1, 10, allow_nan=False),
)
def test_two_point_form_property(t, p, d):
    X = validate_metric(None, [[0, d], [d, 0]])
    assert quad_form(X, p, [t, -t]) == pytest.approx(-2 * t * t * d**p, rel=1e-11)
