import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    angular_deviation,
    gap_reference,
    random_balanced,
    random_refined_simplex,
    random_space,
)
from negtype import (
    BalancedVector,
    Classification,
    IndexOutOfRange,
    IntervalKind,
    InvalidTolerance,
    NoRootInUnitInterval,
    NotApplicable,
    NotBalanced,
    NoWitnessFound,
    QuadFormReport,
    ReducedKind,
    SignedSimplex,
    SupremalResult,
    SupremalStatus,
    UnbalancedWeights,
    WitnessMethod,
    ZeroVector,
    classify,
    from_graph,
    gap,
    is_nondegenerate,
    polygonal_interval,
    quad_form,
    reduce,
    simplex_to_vector,
    supremal,
    validate_metric,
    vector_to_simplex,
    verify_equality,
    witness_at_p,
    witness_at_supremal,
    witness_ivt,
)
from negtype import metric, polyeq, quadform
from negtype.cli import generate_space

TRIVIAL_PAIR = SignedSimplex(((0, 1.0), (1, 1.0)), ((0, 1.0), (1, 1.0)))
COLLINEAR_WITNESS = SignedSimplex(((0, 1.0), (2, 1.0)), ((1, 2.0),))


class TestGap:
    def test_two_point_single_cross_term(self, two_point):
        Q = SignedSimplex(((0, 1.0),), ((1, 1.0),))
        assert gap(two_point, 1.0, Q) == 1.0

    def test_all_weights_zero(self, collinear):
        Q = SignedSimplex(((0, 0.0), (2, 0.0)), ((1, 0.0),))
        assert gap(collinear, 2.0, Q) == 0.0

    def test_collinear_hand_expansion(self, collinear):
        # 1*2*1 + 1*2*1 - 1*1*4 = 0
        assert gap(collinear, 2.0, COLLINEAR_WITNESS) == 0.0
        assert gap(collinear, 1.0, COLLINEAR_WITNESS) == 2.0

    def test_index_out_of_range(self, collinear):
        with pytest.raises(IndexOutOfRange):
            gap(collinear, 1.0, SignedSimplex(((3, 1.0),), ((0, 1.0),)))

    def test_matches_reference_loops(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            X = random_space(rng)
            Q = random_refined_simplex(X, rng)
            p = rng.uniform(0, 8)
            assert gap(X, p, Q) == pytest.approx(
                gap_reference(X, p, Q), rel=1e-12, abs=1e-13
            )

    def test_repeated_points_contribute_zero_distance(self, collinear):
        Q = SignedSimplex(((0, 1.0), (0, 2.0)), ((1, 3.0),))
        assert gap(collinear, 1.0, Q) == pytest.approx(gap_reference(collinear, 1.0, Q))


class TestSimplexToVector:
    def test_collinear_witness(self, collinear):
        xi = simplex_to_vector(collinear, COLLINEAR_WITNESS)
        np.testing.assert_array_equal(xi.weights, [1.0, -2.0, 1.0])

    def test_trivial_pair_cancels(self, collinear):
        xi = simplex_to_vector(collinear, TRIVIAL_PAIR)
        np.testing.assert_array_equal(xi.weights, [0.0, 0.0, 0.0])

    def test_unbalanced(self, collinear):
        with pytest.raises(UnbalancedWeights):
            simplex_to_vector(collinear, SignedSimplex(((0, 1.0),), ((1, 2.0),)))

    def test_unused_points_padded_with_zero(self):
        X = validate_metric(None, np.abs(np.subtract.outer(range(5), range(5))).astype(float))
        Q = SignedSimplex(((1, 2.5),), ((3, 2.5),))
        xi = simplex_to_vector(X, Q)
        np.testing.assert_array_equal(xi.weights, [0.0, 2.5, 0.0, -2.5, 0.0])

    def test_float_cancellation_noise_is_cleaned(self, collinear):
        Q = SignedSimplex(((0, 0.1), (0, 0.2)), ((0, 0.3),))
        xi = simplex_to_vector(collinear, Q)
        assert (xi.weights == 0.0).all()


class TestVectorToSimplex:
    def test_sign_split(self, collinear):
        Q = vector_to_simplex(collinear, [1.0, -2.0, 1.0])
        assert Q == COLLINEAR_WITNESS

    def test_two_point(self, two_point):
        Q = vector_to_simplex(two_point, [1.0, -1.0])
        assert Q == SignedSimplex(((0, 1.0),), ((1, 1.0),))

    def test_zero_vector(self, collinear):
        with pytest.raises(ZeroVector):
            vector_to_simplex(collinear, [0.0, 0.0, 0.0])

    def test_not_balanced(self, collinear):
        with pytest.raises(NotBalanced):
            vector_to_simplex(collinear, [1.0, 1.0, 1.0])

    def test_tiny_components_dropped(self, collinear):
        Q = vector_to_simplex(collinear, [1.0, -1.0, 1e-15])
        assert Q == SignedSimplex(((0, 1.0),), ((1, 1.0),))

    def test_round_trip(self):
        rng = np.random.default_rng(73)
        X = random_space(rng, max_n=7)
        for _ in range(20):
            v = random_balanced(X.size, rng)
            v[np.abs(v) < 1e-6] = 0.0  # keep clear of the cleanup threshold
            v -= v.mean()
            Q = vector_to_simplex(X, v)
            back = simplex_to_vector(X, Q)
            np.testing.assert_allclose(back.weights, v, atol=1e-15)

    def test_kept_small_component_survives_the_round_trip(self):
        # c is above the drop threshold (1e-12 of the largest component) but
        # below 1e-12 of the side total 3; both conversions must keep it
        X = from_graph(7, [(i, i + 1, 1.0) for i in range(6)])
        c = 2e-12
        v = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0 - c, c])
        Q = vector_to_simplex(X, v)
        assert (6, c) in Q.left
        np.testing.assert_array_equal(simplex_to_vector(X, Q).weights, v)
        assert reduce(X, Q).simplex == Q
        rep = verify_equality(X, 1.0, Q)
        assert rep.nontrivial

    def test_dropped_components_must_not_unbalance(self, four_cycle):
        # the two tiny components are dropped, and what is left sums to
        # 1.8e-12, which simplex_to_vector would reject
        with pytest.raises(NotBalanced):
            vector_to_simplex(four_cycle, [1.0, -1.0 + 1.8e-12, -0.9e-12, -0.9e-12])


class TestReduce:
    def test_same_side_merge(self, collinear):
        got = reduce(collinear, SignedSimplex(((0, 1.0), (0, 1.0)), ((1, 2.0),)))
        assert got.kind is ReducedKind.COMPLETELY_REFINED
        assert got.simplex == SignedSimplex(((0, 2.0),), ((1, 2.0),))

    def test_trivial_pair_degenerate(self, collinear):
        got = reduce(collinear, TRIVIAL_PAIR)
        assert got.kind is ReducedKind.DEGENERATE
        assert got.simplex is None

    def test_negative_weights_flip_sides(self, collinear):
        got = reduce(collinear, SignedSimplex(((0, -1.0),), ((1, -1.0),)))
        assert got.kind is ReducedKind.COMPLETELY_REFINED
        assert got.simplex == SignedSimplex(((1, 1.0),), ((0, 1.0),))
        # the reduction preserves the gap at sampled exponents
        for p in (0.5, 1.0, 2.0):
            assert gap(collinear, p, got.simplex) == pytest.approx(
                gap(collinear, p, SignedSimplex(((0, -1.0),), ((1, -1.0),)))
            )

    def test_gap_preserved_for_messy_simplices(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            X = random_space(rng, max_n=7)
            m = X.size
            # repeated points, zero weights, negative weights
            k = int(rng.integers(2, 6))
            li = rng.integers(0, m, size=k)
            lw = rng.uniform(-2, 2, size=k)
            lw[rng.random(k) < 0.2] = 0.0
            ri = rng.integers(0, m, size=k)
            rw = rng.uniform(-2, 2, size=k)
            # balance totals exactly
            rw[-1] = lw.sum() - rw[:-1].sum()
            Q = SignedSimplex(tuple(zip(li.tolist(), lw)), tuple(zip(ri.tolist(), rw)))
            got = reduce(X, Q)
            for p in (0.5, 1.0, 2.0, 3.7):
                want = gap(X, p, Q)
                have = 0.0 if got.kind is ReducedKind.DEGENERATE else gap(X, p, got.simplex)
                assert have == pytest.approx(want, rel=1e-9, abs=1e-10)

    def test_refined_output_is_refined(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            X = random_space(rng)
            Q = random_refined_simplex(X, rng)
            got = reduce(X, Q)
            assert got.kind is ReducedKind.COMPLETELY_REFINED
            idx = [i for i, _ in (*got.simplex.left, *got.simplex.right)]
            assert len(idx) == len(set(idx))
            assert all(w > 0 for _, w in (*got.simplex.left, *got.simplex.right))


class TestIsNondegenerate:
    def test_collinear_witness(self, collinear):
        assert is_nondegenerate(collinear, COLLINEAR_WITNESS)

    def test_trivial_pair(self, collinear):
        assert not is_nondegenerate(collinear, TRIVIAL_PAIR)

    def test_all_zero_weights(self, collinear):
        Q = SignedSimplex(((0, 0.0),), ((1, 0.0),))
        assert not is_nondegenerate(collinear, Q)


class TestLinkIdentity:
    def test_refined_simplices(self):
        # the form of the induced vector is minus twice the gap
        rng = np.random.default_rng(89)
        for _ in range(100):
            X = random_space(rng)
            Q = random_refined_simplex(X, rng)
            p = rng.uniform(0, 8)
            g = gap(X, p, Q)
            f = quad_form(X, p, simplex_to_vector(X, Q))
            assert f == pytest.approx(-2 * g, rel=1e-10, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        lw=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        rw=st.lists(st.integers(1, 9), min_size=1, max_size=2),
        p=st.floats(0, 6, allow_nan=False),
    )
    def test_integer_weight_simplices(self, collinear, lw, rw, p):
        # spread integer weights over disjoint points of the 3-point line,
        # scaling the right side to balance exactly
        left = tuple((i % 2, float(w)) for i, w in enumerate(lw))
        total = sum(w for _, w in left)
        right = tuple((2, total * w / sum(rw)) for w in rw)
        Q = SignedSimplex(left, right)
        f = quad_form(collinear, p, simplex_to_vector(collinear, Q))
        assert f == pytest.approx(-2 * gap(collinear, p, Q), rel=1e-9, abs=1e-9)


class TestWitnessIvt:
    def test_collinear_p3(self, collinear):
        w = witness_ivt(collinear, 3.0)
        assert w.method is WitnessMethod.IVT
        assert np.linalg.norm(w.xi.weights) == pytest.approx(1.0, rel=1e-12)
        assert w.residual <= 1e-9
        assert quad_form(collinear, 3.0, w.xi) == pytest.approx(0.0, abs=1e-9)
        rep = verify_equality(collinear, 3.0, w.simplex)
        assert rep.holds and rep.nontrivial

    def test_collinear_p1_not_applicable(self, collinear):
        with pytest.raises(NotApplicable):
            witness_ivt(collinear, 1.0)

    def test_four_cycle_p2(self, four_cycle):
        w = witness_ivt(four_cycle, 2.0)
        assert w.residual <= 1e-9
        assert is_nondegenerate(four_cycle, w.simplex)

    def test_lhs_rhs_mirror_residual(self, four_cycle):
        w = witness_ivt(four_cycle, 2.0)
        assert abs(w.lhs - w.rhs) <= 0.5 * w.residual + 1e-10

    def test_direction_parallel_to_base_pair_has_no_root(self, collinear):
        # xi1 parallel to xi0 = e0 - e1 keeps the segment form negative;
        # its roots (about 3.41) lie outside (0, 1)
        direction = BalancedVector(np.array([1.0, -1.0, 0.0]) / math.sqrt(2))
        rep = QuadFormReport(3.0, 4 / 3, Classification.NOT_NEG_TYPE, direction, 1e-9)
        d = metric.power_matrix(collinear, 3.0)
        with pytest.raises(NoRootInUnitInterval):
            polyeq._witness_ivt(collinear, d, 3.0, rep)


class TestWitnessAtP:
    def test_strict_declines(self, collinear):
        with pytest.raises(NotApplicable):
            witness_at_p(collinear, 1.0)

    def test_boundary_uses_eigendirection(self, four_cycle):
        w = witness_at_p(four_cycle, 1.0)
        assert w.method is WitnessMethod.EIGEN_DIRECTION
        assert angular_deviation(w.xi.weights, [1, -1, 1, -1]) < 1e-6
        assert w.residual <= classify(four_cycle, 1.0).tolerance

    def test_not_neg_type_uses_ivt(self, collinear):
        assert witness_at_p(collinear, 3.0).method is WitnessMethod.IVT


class TestWitnessAtSupremal:
    # both regimes at w: D_p singular (path, even cycle, l2 cloud) and D_p
    # invertible (l1 cloud, random graph)
    @pytest.mark.parametrize(
        "kind, n, q",
        [("path", 6, 2.0), ("cycle", 6, 2.0), ("points", 8, 2.0),
         ("points", 8, 1.0), ("random", 7, 2.0)],
        ids=["path", "even_cycle", "l2_cloud", "l1_cloud", "random_graph"],
    )
    def test_eigendirection_verifies(self, kind, n, q):
        X = generate_space(kind, n, q=q, seed=5)
        w = witness_at_supremal(X, supremal(X))
        assert w.method is WitnessMethod.EIGEN_DIRECTION
        assert w.residual <= polyeq.RESIDUAL_REL * float(metric.power_matrix(X, w.p).max())
        rep = verify_equality(X, w.p, w.simplex)
        assert rep.holds and rep.nontrivial

    def test_collinear_eigendirection(self, collinear):
        w = witness_at_supremal(collinear, supremal(collinear))
        assert w.method is WitnessMethod.EIGEN_DIRECTION
        assert angular_deviation(w.xi.weights, [1, -2, 1]) < 1e-6
        assert w.residual <= 1e-6 * 4.0

    def test_four_cycle_alternating(self, four_cycle):
        sup = supremal(four_cycle)
        w = witness_at_supremal(four_cycle, sup)
        assert angular_deviation(w.xi.weights, [1, -1, 1, -1]) < 1e-6
        assert w.residual <= 1e-6 * 2.0

    def test_ultrametric_not_applicable(self, equilateral):
        with pytest.raises(NotApplicable, match="ultrametric"):
            witness_at_supremal(equilateral, supremal(equilateral))
        beyond_cap = validate_metric(None, [[0, 1, 1], [1, 0, 1.001], [1, 1.001, 0]])
        with pytest.raises(NotApplicable, match="exceeds cap"):
            witness_at_supremal(beyond_cap, supremal(beyond_cap))

    def test_no_candidate_below_supremal(self, four_cycle):
        # a bracket at 0.5, below w = 1: the space is strict there and the
        # eigendirection misses the residual gate
        sup = SupremalResult(SupremalStatus.FINITE, 0.5, 0.5, 64.0, 0)
        with pytest.raises(NoWitnessFound):
            witness_at_supremal(four_cycle, sup)

    def test_witness_verifies(self):
        rng = np.random.default_rng(97)
        done = 0
        while done < 8:
            X = random_space(rng)
            sup = supremal(X)
            if sup.status is not SupremalStatus.FINITE:
                continue
            done += 1
            w = witness_at_supremal(X, sup)
            assert abs(w.xi.weights.sum()) <= 1e-10
            rep = verify_equality(X, w.p, w.simplex, tol=1e-5)
            assert rep.holds and rep.nontrivial


class TestVerifyEquality:
    def test_collinear_p2_holds(self, collinear):
        rep = verify_equality(collinear, 2.0, COLLINEAR_WITNESS)
        assert rep.holds and rep.nontrivial and rep.nontrivial_equality
        assert rep.lhs == 4.0 and rep.rhs == 4.0 and rep.gap == 0.0

    def test_collinear_p1_fails(self, collinear):
        rep = verify_equality(collinear, 1.0, COLLINEAR_WITNESS)
        assert not rep.holds
        assert rep.gap == pytest.approx(2.0)
        assert rep.lhs == 4.0 and rep.rhs == 2.0

    def test_trivial_pair_holds_trivially(self, collinear):
        for p in (0.5, 1.0, 2.0, 5.0):
            rep = verify_equality(collinear, p, TRIVIAL_PAIR)
            assert rep.holds and not rep.nontrivial
            assert not rep.nontrivial_equality

    def test_unbalanced(self, collinear):
        with pytest.raises(UnbalancedWeights):
            verify_equality(collinear, 1.0, SignedSimplex(((0, 1.0),), ((1, 2.0),)))

    def test_index_out_of_range(self, collinear):
        with pytest.raises(IndexOutOfRange):
            verify_equality(collinear, 1.0, SignedSimplex(((0, 1.0),), ((9, 1.0),)))

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_invalid_tolerance(self, collinear, tol):
        with pytest.raises(InvalidTolerance):
            verify_equality(collinear, 2.0, COLLINEAR_WITNESS, tol=tol)


class TestBuildOnce:
    """Each public call builds D_p once and shares it with its helpers."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        real = metric.power_matrix

        def counting(X, p):
            calls.append(p)
            return real(X, p)

        for module in (quadform, polyeq):
            monkeypatch.setattr(module, "power_matrix", counting)
        return calls

    def test_witness_at_p(self, collinear, four_cycle, builds):
        assert witness_at_p(collinear, 3.0).method is WitnessMethod.IVT
        assert len(builds) == 1
        assert witness_at_p(four_cycle, 1.0).method is WitnessMethod.EIGEN_DIRECTION
        assert len(builds) == 2

    def test_witness_ivt(self, collinear, builds):
        witness_ivt(collinear, 3.0)
        assert len(builds) == 1

    def test_witness_at_supremal(self, collinear, four_cycle, builds, monkeypatch):
        eigensolves = []
        real_eigh = np.linalg.eigh

        def counting_eigh(a):
            eigensolves.append(a)
            return real_eigh(a)

        sup = supremal(collinear)
        builds.clear()
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        witness_at_supremal(collinear, sup)
        assert len(builds) == 1 and len(eigensolves) == 1
        low = SupremalResult(SupremalStatus.FINITE, 0.5, 0.5, 64.0, 0)
        with pytest.raises(NoWitnessFound):
            witness_at_supremal(four_cycle, low)
        assert len(builds) == 2 and len(eigensolves) == 2

    def test_verify_equality(self, collinear, builds):
        assert verify_equality(collinear, 2.0, COLLINEAR_WITNESS).nontrivial_equality
        assert len(builds) == 1


class TestDichotomy:
    def test_strict_declines_not_neg_type_witnesses(self):
        rng = np.random.default_rng(101)
        strict_seen = witnessed = 0
        for _ in range(30):
            X = random_space(rng)
            p = float(rng.uniform(0.05, 8.0))
            cls = classify(X, p).classification
            if cls is Classification.STRICT:
                strict_seen += 1
                with pytest.raises(NotApplicable):
                    witness_ivt(X, p)
                with pytest.raises(NotApplicable):
                    witness_at_p(X, p)
            elif cls is Classification.NOT_NEG_TYPE:
                witnessed += 1
                w = witness_ivt(X, p)
                assert np.linalg.norm(w.xi.weights) == pytest.approx(1.0, rel=1e-12)
                assert w.residual <= 1e-8
                rep = verify_equality(X, p, w.simplex)
                assert rep.holds and rep.nontrivial
        assert strict_seen > 0 and witnessed > 0


class TestPolygonalInterval:
    def test_collinear_ray(self, collinear):
        iv = polygonal_interval(collinear, supremal(collinear))
        assert iv.kind is IntervalKind.RAY
        assert iv.describe() == "[2.0000, ∞)"

    def test_two_point_empty(self, two_point):
        iv = polygonal_interval(two_point, supremal(two_point))
        assert iv.kind is IntervalKind.EMPTY
        assert iv.describe() == "∅"

    def test_four_cycle_ray(self, four_cycle):
        iv = polygonal_interval(four_cycle, supremal(four_cycle))
        assert iv.describe() == "[1.0000, ∞)"

    def test_beyond_cap(self):
        X = validate_metric(None, [[0, 1, 1], [1, 0, 1.001], [1, 1.001, 0]])
        iv = polygonal_interval(X, supremal(X))
        assert iv.kind is IntervalKind.RAY_BEYOND_CAP
        assert iv.describe() == "[>64, ∞)"
