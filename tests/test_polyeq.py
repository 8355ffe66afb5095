import dataclasses
import gc
import json
import math
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GEN_IDS,
    GEN_KINDS,
    angular_deviation,
    break_ultrametricity,
    collinear_triple,
    exact_gap,
    fixed_exponent_corpus,
    gap_reference,
    random_balanced,
    random_refined_simplex,
    random_space,
    unit_four_cycle,
)
from negtype import (
    Classification,
    EigenFailure,
    IndexOutOfRange,
    IntervalKind,
    InvalidTolerance,
    MetricSpace,
    NotApplicable,
    NotBalanced,
    NoWitnessFound,
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
    random_ultrametric,
    reduce,
    simplex_to_vector,
    supremal,
    validate_metric,
    vector_to_simplex,
    verify_equality,
    witness_at_p,
    witness_at_supremal,
)
from negtype import metric, polyeq, quadform
from negtype.cli import (
    generate_space,
    load_space,
    main,
    parse_simplex,
    render_json,
    simplex_payload,
    space_payload,
)

EPS = np.finfo(float).eps
TRIVIAL_PAIR = SignedSimplex(((0, 1.0), (1, 1.0)), ((0, 1.0), (1, 1.0)))
COLLINEAR_WITNESS = SignedSimplex(((0, 1.0), (2, 1.0)), ((1, 2.0),))
# a simplex entry drawn as (point, log10 |weight|, negative)
ENTRY = st.tuples(st.integers(0, 5), st.floats(-14, 0), st.booleans())


def lopsided_triangle() -> MetricSpace:
    """A triangle whose top eigenvector at p = 40 turns to a verified witness.

    Its eigen-plane witness there, {1} | {0}, is rejected.
    """
    a, b, c = 0.6645658617228711, 1.9120533633066823, 1.9999999999999998
    return validate_metric(None, [[0, a, b], [a, 0, c], [b, c, 0]])


def rejected_triangle() -> MetricSpace:
    """A triangle whose witness at p = 64 is rejected, with simplex {2} | {0}.

    Space 65 of TestWitnessContract's sweep: both its top-vector witness and
    its eigen-plane witness fail their checks there.
    """
    a, b, c = 2.0, 0.9595464247473998, 1.316143265828143
    return validate_metric(None, [[0, a, b], [a, 0, c], [b, c, 0]])


def lanczos(steps: int) -> list:
    """The lapack calls of a Lanczos run of that many steps (quadform._ritz).

    Each step takes one eigh of its tridiagonal matrix, whose order is the
    step's number.
    """
    return [("eigh", k) for k in range(1, steps + 1)]


def witness_bits(w) -> tuple:
    """Every field of a witness, its vector as bytes."""
    return (w.p, w.xi.weights.tobytes(), w.simplex, w.residual, w.method,
            dataclasses.astuple(w.equality))


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

    @pytest.mark.parametrize("left, right", [
        (((0, math.nan),), ((1, 1.0),)),
        (((0, math.inf),), ((1, math.inf),)),
        (((0, math.inf), (2, -math.inf)), ((1, 1.0),)),
    ], ids=["nan", "inf_both_sides", "inf_minus_inf"])
    def test_non_finite_weight(self, collinear, left, right):
        with pytest.raises(UnbalancedWeights):
            gap(collinear, 2.0, SignedSimplex(left, right))

    def test_matches_reference_loops(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            X = random_space(rng)
            Q = random_refined_simplex(X, rng)
            p = rng.uniform(0, 8)
            assert gap(X, p, Q) == pytest.approx(
                gap_reference(X, p, Q), rel=1e-12, abs=1e-13
            )

    def test_huge_weights_sum_without_overflow(self, collinear):
        # the sums run on the weights scaled by an exact power of two: a gap
        # too large for a float reads inf, and the equality's reads 0
        assert gap(collinear, 2.0, SignedSimplex(((0, 1e200),), ((1, 2e200),))) == math.inf
        big = SignedSimplex(((0, 1e200), (2, 1e200)), ((1, 2e200),))
        assert gap(collinear, 2.0, big) == 0.0
        assert gap(collinear, 1.0, big) == math.inf
        half = SignedSimplex(((0, 1e150), (2, 1e150)), ((1, 2e150),))
        assert gap(collinear, 1.0, half) == pytest.approx(2e300)

    def test_repeated_points_contribute_zero_distance(self, collinear):
        Q = SignedSimplex(((0, 1.0), (0, 2.0)), ((1, 3.0),))
        assert gap(collinear, 1.0, Q) == pytest.approx(gap_reference(collinear, 1.0, Q))

    @pytest.mark.parametrize("left, right", [
        (((0, 1.0), (0, 2.0), (2, 3.0)), ((1, 6.0),)),
        (((0, 1.0), (1, 2.0)), ((1, 1.5), (2, 1.5))),
        (((0, 1.0), (2, 2.0)), ()),
        ((), ((0, 1.0), (1, -0.5), (2, 0.25))),
        (((0, 1e200), (2, 3e199)), ((1, 1.3e200),)),
        (((0, 1e-200), (1, 2e-200)), ((2, 1.5e-200), (1, 1.5e-200))),
        (((0, 1e200), (1, 3e-200)), ((2, 1e200), (0, 7e-201))),
    ], ids=["repeat_one_side", "both_sides", "empty_right", "empty_left",
            "near_1e200", "near_1e-200", "mixed_1e200_1e-200"])
    def test_matches_exact_pairwise_sums(self, collinear, left, right):
        # the exact gap over the pairs of entries, summed in rationals on
        # the floats of D_p, against every side shape the dense-vector sums
        # meet; a unit of distance c is checked where the reference's own
        # entries and pair sums are normal floats
        Q = SignedSimplex(left, right)
        checked = 0
        for c in (1.0, 1e-150, 1e-100, 1e100, 1e150):
            X = validate_metric(None, c * collinear.dist)
            for p in (1.0, 2.0, 2.7):
                if not abs(p * math.log2(c)) < 1000:
                    continue
                exact, mass = exact_gap(X, p, Q)
                if 2.0**-960 < mass < 2.0**1000:
                    checked += 1
                    assert abs(Fraction(gap(X, p, Q)) - exact) <= 8 * EPS * mass, (c, p)
        assert checked >= 3

    def test_equals_the_equality_gap_bit_for_bit(self):
        # gap and verify_equality(...).gap are one number for one simplex,
        # also with a weight that cancels at a point on both sides
        rng = np.random.default_rng(2001)
        for seed in range(300):
            X = generate_space("points", 12, seed=seed)
            v = rng.standard_normal(12)
            Q = vector_to_simplex(X, v - v.mean())
            both = (int(rng.integers(12)), float(rng.uniform(0.1, 3.0)))
            P = SignedSimplex((*Q.left, both), (*Q.right, both))
            for p in (0.5, 1.0, 2.0, 3.7):
                assert gap(X, p, Q) == verify_equality(X, p, Q).gap, (seed, p)
                assert gap(X, p, P) == verify_equality(X, p, P).gap, (seed, p)

    def test_cancelling_weights_leave_the_gap_of_the_net_vector(self, collinear):
        # the unit weights at point 0 cancel: the gap is that of the net vector
        # (0, 1e-13, -1e-13), exactly 1e-26 at p = 1, and no rounding of the
        # sums of the unit weights
        Q = SignedSimplex(((0, 1.0), (1, 1e-13)), ((0, 1.0), (2, 1e-13)))
        assert gap(collinear, 1.0, Q) == 1e-26 == verify_equality(collinear, 1.0, Q).gap


class TestSignedSimplex:
    def test_sign_split_is_the_checked_simplex(self):
        # vector_to_simplex and reduce build their simplex with no second
        # check of its entries: it equals the simplex the public constructor
        # makes of the same entries, every index an int and every weight a float
        rng = np.random.default_rng(5)
        for seed in range(20):
            X = generate_space("points", 12, seed=seed)
            v = rng.standard_normal(12)
            Q = vector_to_simplex(X, v - v.mean())
            for R in (Q, reduce(X, Q).simplex):
                assert SignedSimplex(R.left, R.right) == R
                assert all(type(i) is int and type(w) is float for i, w in (*R.left, *R.right))

    @pytest.mark.parametrize("index", [0.7, -0.5, math.inf, -math.inf, math.nan])
    def test_non_integral_index(self, index):
        with pytest.raises(ValueError, match="simplex index must be an integer"):
            SignedSimplex(((index, 1.0),), ((1, 1.0),))
        with pytest.raises(ValueError, match="simplex index must be an integer"):
            SignedSimplex(((0, 1.0),), ((np.float64(index), 1.0),))

    @pytest.mark.parametrize("left, right, message", [
        (((True, 1.0),), ((1, 1.0),), "index must be an integer, got True"),
        (((0, 1.0),), ((np.bool_(True), 1.0),), "index must be an integer"),
        ((("1", 1.0),), ((2, 1.0),), "index must be an integer, got '1'"),
        (((0, "1"),), ((2, 1.0),), "weight must be a number, got '1'"),
        (((0, 1.0),), ((2, False),), "weight must be a number, got False"),
        (((True, "1"),), (("2", 1),), "index must be an integer, got True"),
        (((None, 1.0),), ((1, 1.0),), "index must be an integer, got None"),
        ((([0], 1.0),), ((1, 1.0),), r"index must be an integer, got \[0\]"),
        (((Fraction(1), 1.0),), ((0, 1.0),), "index must be an integer, got Fraction"),
    ], ids=["bool_index", "numpy_bool_index", "string_index", "string_weight",
            "bool_weight", "bool_and_strings", "none_index", "list_index", "fraction_index"])
    def test_bool_or_string_entry(self, left, right, message):
        # int() and float() would read most of these as numbers ({1} | {2} for
        # bool_and_strings, point 1 for the Fraction); None and a list raised TypeError
        with pytest.raises(ValueError, match=f"simplex {message}"):
            SignedSimplex(left, right)

    def test_integral_float_index_reads_as_int(self):
        Q = SignedSimplex(((0.0, 1.0), (2.0, 1.0)), ((np.float64(1.0), 2.0),))
        assert Q == COLLINEAR_WITNESS
        assert type(Q.right[0][0]) is int


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

    def test_balanced_sides_with_an_unbalanced_net_vector(self, collinear):
        # the net vector (0, 1, -1 - 1e-7) is off by 1e-7, far beyond the
        # rounding the weights written can make (about 2e-9)
        Q = SignedSimplex(((0, 1e6), (1, 1.0)), ((0, 1e6), (2, 1 + 1e-7)))
        with pytest.raises(UnbalancedWeights) as exc:
            simplex_to_vector(collinear, Q)
        assert isinstance(exc.value.__context__, NotBalanced)

    @pytest.mark.parametrize("left, right", [
        (((0, math.nan),), ((1, 1.0),)),
        (((0, math.inf),), ((1, math.inf),)),
        (((0, math.inf), (2, -math.inf)), ((1, 1.0),)),
    ], ids=["nan", "inf_both_sides", "inf_minus_inf"])
    def test_non_finite_weight(self, collinear, left, right):
        with pytest.raises(UnbalancedWeights):
            simplex_to_vector(collinear, SignedSimplex(left, right))

    def test_unused_points_padded_with_zero(self):
        X = validate_metric(None, np.abs(np.subtract.outer(range(5), range(5))).astype(float))
        Q = SignedSimplex(((1, 2.5),), ((3, 2.5),))
        xi = simplex_to_vector(X, Q)
        np.testing.assert_array_equal(xi.weights, [0.0, 2.5, 0.0, -2.5, 0.0])

    def test_float_cancellation_noise_is_cleaned(self, collinear):
        Q = SignedSimplex(((0, 0.1), (0, 0.2)), ((0, 0.3),))
        xi = simplex_to_vector(collinear, Q)
        assert (xi.weights == 0.0).all()

    def test_net_vector_that_balanced_vector_accepts_is_kept(self, collinear):
        # the residue 5e-13 is far beyond the rounding of the weights written
        # (about 9e-16) but within BALANCE_REL of the largest net weight
        Q = SignedSimplex(((0, 1.0),), ((1, 1 - 5e-13),))
        np.testing.assert_array_equal(simplex_to_vector(collinear, Q).weights,
                                      [1.0, -(1 - 5e-13), 0.0])

    def test_cancellation_noise_beside_a_net_weight_is_cleaned(self, collinear):
        # the 5.6e-17 left at point 0 is within the rounding of 0.1 + 0.2 - 0.3,
        # though the net vector would sum to 0 with it
        Q = SignedSimplex(((0, 0.1), (0, 0.2), (1, 1.0)), ((0, 0.3), (2, 1.0)))
        np.testing.assert_array_equal(simplex_to_vector(collinear, Q).weights,
                                      [0.0, 1.0, -1.0])


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

    @pytest.mark.parametrize("v", [[math.nan, 1.0, -1.0], [math.inf, 1.0, -1.0]])
    def test_non_finite_component(self, collinear, v):
        with pytest.raises(NotBalanced):
            vector_to_simplex(collinear, v)

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

    def test_four_cycle_reduction_is_a_fixed_point(self, four_cycle):
        # the 2.5e-12 weights lie far above the rounding of what is written
        # at their points, so reading the reduction again keeps them
        Q = SignedSimplex(((0, 1.0), (0, 1.0), (0, 1.0), (1, 2.5e-12), (2, 2.5e-12)),
                          ((3, 1.5 + 2.5e-12), (3, 1.5 + 2.5e-12)))
        once = reduce(four_cycle, Q)
        assert reduce(four_cycle, once.simplex) == once
        assert is_nondegenerate(four_cycle, once.simplex)
        assert verify_equality(four_cycle, 1.0, once.simplex).nontrivial

    def test_rounding_residue_on_the_path(self, collinear, tmp_path, capsys):
        # the net vector (1e-9 + 8.3e-17, -1e-9, 0) is off by the rounding of
        # the weight 1 written at point 0, far above 1e-12 of its largest entry;
        # the residue comes off point 0, and verify reads without error that
        # the reduction, a plain pair, is no equality (exit 2)
        Q = SignedSimplex(((0, 1.0),), ((0, 1 - 1e-9), (1, 1e-9)))
        got = reduce(collinear, Q)
        assert got.simplex == SignedSimplex(((0, 1e-9),), ((1, 1e-9),))
        space, simplex = tmp_path / "path.json", tmp_path / "q.json"
        space.write_text(render_json(space_payload(collinear)))
        simplex.write_text(json.dumps(simplex_payload(Q)))
        assert main(["verify", str(space), str(simplex), "--p", "1"]) == 2
        out = capsys.readouterr().out
        assert "holds: False" in out and "nontrivial: True" in out

    def test_residue_comes_off_the_point_that_rounds_most(self, collinear):
        # the exact net vector (0, 1e-11, 1e-11) is off by 2e-11, below the
        # rounding of the 1e6 weights at point 0: the residue goes there, and
        # points 1 and 2 keep the side they were written on
        Q = SignedSimplex(((0, 1e6), (1, 1e-11), (2, 1e-11)), ((0, 1e6),))
        once = reduce(collinear, Q)
        assert once.simplex == SignedSimplex(((1, 1e-11), (2, 1e-11)), ((0, 2e-11),))
        assert reduce(collinear, once.simplex) == once
        for p in (1.0, 2.0):
            assert not verify_equality(collinear, p, Q).nontrivial_equality

    def test_tiny_weight_beside_unit_weights_is_kept(self, collinear):
        # 1 + 1e-37 rounds to 1, so the net 1e-37 at point 2 is no rounding
        # of what was written there
        Q = SignedSimplex(((0, 1.0), (2, 1e-37)), ((1, 1 + 1e-37),))
        np.testing.assert_array_equal(simplex_to_vector(collinear, Q).weights,
                                      [1.0, -1.0, 1e-37])
        assert reduce(collinear, Q).simplex == SignedSimplex(((0, 1.0), (2, 1e-37)),
                                                             ((1, 1.0),))

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(3, 6),
        seed=st.integers(0, 3),
        left=st.lists(ENTRY, min_size=1, max_size=6),
        right=st.lists(ENTRY, max_size=5),
        last=st.integers(0, 5),
    )
    def test_reduce_is_a_fixed_point(self, m, seed, left, right, last):
        # repeated points, points on both sides, negative weights from 1e-14
        # to 1; a last right entry balances the sides to rounding
        X = generate_space("points", m, seed=seed)

        def side(entries):
            return [(i % m, (-1.0 if neg else 1.0) * 10.0 ** e) for i, e, neg in entries]

        lw, rw = side(left), side(right)
        rw.append((last % m, math.fsum(w for _, w in lw) - math.fsum(w for _, w in rw)))
        once = reduce(X, SignedSimplex(tuple(lw), tuple(rw)))
        if once.simplex is not None:
            assert reduce(X, once.simplex) == once


class TestIsNondegenerate:
    def test_collinear_witness(self, collinear):
        assert is_nondegenerate(collinear, COLLINEAR_WITNESS)

    def test_trivial_pair(self, collinear):
        assert not is_nondegenerate(collinear, TRIVIAL_PAIR)

    def test_all_zero_weights(self, collinear):
        Q = SignedSimplex(((0, 0.0),), ((1, 0.0),))
        assert not is_nondegenerate(collinear, Q)

    def test_small_net_weights_beside_a_large_net_weight(self, four_cycle):
        # each net weight is judged against the rounding of the weights written
        # at its own point: 2.5e-12 at points 1 and 2 lies far above theirs,
        # though below 1e-12 of the largest net weight (3 + 5e-12), so every
        # conversion keeps it, and the reduction is balanced and refined
        Q = SignedSimplex(((0, 1.0), (0, 1.0), (0, 1.0), (1, 2.5e-12), (2, 2.5e-12)),
                          ((3, 1.5 + 2.5e-12), (3, 1.5 + 2.5e-12)))
        assert verify_equality(four_cycle, 1.0, Q).nontrivial
        assert is_nondegenerate(four_cycle, Q)
        got = reduce(four_cycle, Q)
        assert got.kind is ReducedKind.COMPLETELY_REFINED
        assert got.simplex == SignedSimplex(((0, 3.0), (1, 2.5e-12), (2, 2.5e-12)),
                                            ((3, 3 + 5e-12),))

    def test_is_the_nontrivial_of_verify_equality(self):
        # messy simplices: repeated points, negative weights, net weights near
        # 1e-12 of the largest one, far above the rounding of the weights
        # written at their points, and points on both sides whose cancelling
        # weights net out within that rounding; where verify_equality raises,
        # is_nondegenerate does too
        rng = np.random.default_rng(2207)
        outcomes = {True: 0, False: 0, "raised": 0}
        for _ in range(400):
            X = random_space(rng, max_n=6)
            m = X.size
            xi = rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)
            small = rng.random(m) < 0.4
            small[-1] = False
            xi[small] = 0.0
            xi[-1] -= xi.sum()
            xi[small] = rng.uniform(0.3, 1.5, small.sum()) * 1e-12 * np.abs(xi).max()
            xi[-1] -= xi.sum()
            if rng.random() < 0.15:
                xi[:] = 0.0
            left, right = [], []
            for i, x in enumerate(xi.tolist()):
                parts = int(rng.integers(1, 4))
                for _ in range(parts):
                    if rng.random() < 0.3:  # a negative weight on the other side
                        (right if x > 0 else left).append((i, -x / parts))
                    else:
                        (left if x > 0 else right).append((i, abs(x) / parts))
                if rng.random() < 0.3:  # the point on both sides, cancelling
                    c = float(rng.uniform(0.1, 3.0))
                    left += [(i, 0.1 * c), (i, 0.2 * c)]
                    right.append((i, 0.3 * c))
            Q = SignedSimplex(tuple(left), tuple(right))
            p = float(rng.choice([0.5, 1.0, 2.5]))
            try:
                nontrivial = verify_equality(X, p, Q).nontrivial
            except UnbalancedWeights:
                outcomes["raised"] += 1
                with pytest.raises(UnbalancedWeights):
                    is_nondegenerate(X, Q)
                continue
            assert is_nondegenerate(X, Q) is nontrivial, Q
            outcomes[nontrivial] += 1
        assert min(outcomes.values()) >= 50, outcomes


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
            assert f == -2 * g

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

    def test_witness_file_at_200_points(self, tmp_path):
        # the witness of gen points 200 --seed 1 at p = 3, read back from its
        # file: a nondegenerate simplex that reduce leaves as it is, whose
        # form is exactly -2 gap at every exponent
        space, out = tmp_path / "points.json", tmp_path / "w.json"
        assert main(["gen", "points", "200", "--seed", "1", "--out", str(space)]) == 0
        assert main(["witness", str(space), "--p", "3", "--format", "json",
                     "--out", str(out)]) == 0
        X = load_space(str(space))
        Q = parse_simplex(json.loads(out.read_text(encoding="utf-8"))["simplex"])
        assert is_nondegenerate(X, Q) is verify_equality(X, 3.0, Q).nontrivial is True
        assert reduce(X, Q).simplex == Q
        for p in (1.0, 2.0, 3.0):
            assert quad_form(X, p, simplex_to_vector(X, Q)) == -2 * gap(X, p, Q), p


class TestWitnessIvt:
    """The witness at NOT_NEG_TYPE: the zero of the form between the extreme eigendirections."""

    def test_collinear_p3(self, collinear):
        w = witness_at_p(collinear, 3.0)
        assert w.method is WitnessMethod.IVT
        assert np.linalg.norm(w.xi.weights) == pytest.approx(1.0, rel=1e-12)
        assert w.residual <= 1e-9
        assert quad_form(collinear, 3.0, w.xi) == pytest.approx(0.0, abs=1e-9)
        rep = verify_equality(collinear, 3.0, w.simplex)
        assert rep.holds and rep.nontrivial

    def test_collinear_p1_not_applicable(self, collinear):
        with pytest.raises(NotApplicable):
            witness_at_p(collinear, 1.0)

    def test_four_cycle_p2(self, four_cycle):
        w = witness_at_p(four_cycle, 2.0)
        assert w.method is WitnessMethod.IVT
        assert w.residual <= 1e-9
        assert is_nondegenerate(four_cycle, w.simplex)

    def test_lhs_rhs_mirror_residual(self, four_cycle):
        w = witness_at_p(four_cycle, 2.0)
        assert w.method is WitnessMethod.IVT
        assert abs(w.lhs - w.rhs) <= 0.5 * w.residual + 1e-10


class TestWitnessAtP:
    def test_strict_declines(self, collinear):
        with pytest.raises(NotApplicable):
            witness_at_p(collinear, 1.0)

    def test_boundary_uses_eigendirection(self, four_cycle):
        w = witness_at_p(four_cycle, 1.0)
        assert w.method is WitnessMethod.EIGEN_DIRECTION
        assert angular_deviation(w.xi.weights, [1, -1, 1, -1]) < 1e-6
        assert w.residual <= classify(four_cycle, 1.0).tolerance

    def test_underflowed_power_matrix_is_typed(self, collinear, four_cycle):
        # D_p underflows to zero, but the witnesses are built on the
        # normalised power matrix: those of the unscaled spaces, in the
        # same directions, and they verify
        tiny = validate_metric(None, 1e-200 * collinear.dist)
        small = validate_metric(None, 1e-6 * four_cycle.dist)
        for X, unit, p in ((tiny, collinear, 2.0), (small, four_cycle, 60.0)):
            for w, ref in ((witness_at_p(X, p), witness_at_p(unit, p)),
                           (witness_at_supremal(X, supremal(X)),
                            witness_at_supremal(unit, supremal(unit)))):
                assert w.method is ref.method
                assert angular_deviation(w.xi.weights, ref.xi.weights) < 1e-6
                assert verify_equality(X, w.p, w.simplex).nontrivial_equality

    def test_not_neg_type_uses_ivt(self, collinear):
        assert witness_at_p(collinear, 3.0).method is WitnessMethod.IVT

    def test_method_follows_the_class_at_the_given_tolerance(self, four_cycle):
        # lambda_max = 2 at p = 2 is within epsilon = 10, so the class is
        # BOUNDARY and the method EIGEN_DIRECTION, though the form on the
        # top vector is far above EPSILON_REL; the witness still turns to
        # the form's zero and verifies
        assert classify(four_cycle, 2.0, 10.0).classification is Classification.BOUNDARY
        w = witness_at_p(four_cycle, 2.0, 10.0)
        assert w.method is WitnessMethod.EIGEN_DIRECTION
        assert w.equality.nontrivial_equality and w.residual <= 1e-12 * 4.0


    @pytest.mark.parametrize("kind, m, p", [
        ("points", 40, 3.0), ("random", 30, 2.5), ("path", 25, 2.0), ("cycle", 12, 1.0),
    ], ids=["l2_cloud", "random_graph", "path", "cycle"])
    def test_permuted_witness_verifies_on_the_permuted_space(self, kind, m, p):
        # point k of Y is point perm[k] of X, so X's point i is Y's inv[i]:
        # the witness simplex at p, with its indices carried over, is a
        # nontrivial equality on Y, and Y's own witness carried back is one on X
        X = generate_space(kind, m, seed=3)
        perm = np.random.default_rng(m).permutation(m)
        inv = np.argsort(perm)
        Y = validate_metric(None, X.dist[np.ix_(perm, perm)])
        assert classify(Y, p).classification is classify(X, p).classification

        def carried(Q, to):
            return SignedSimplex(tuple((int(to[i]), w) for i, w in Q.left),
                                 tuple((int(to[i]), w) for i, w in Q.right))

        w, v = witness_at_p(X, p), witness_at_p(Y, p)
        assert verify_equality(Y, p, carried(w.simplex, inv)).nontrivial_equality
        assert verify_equality(X, p, carried(v.simplex, perm)).nontrivial_equality


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
        assert w.residual <= 1e-6 * float(metric.power_matrix(X, w.p).max())
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
        # a bracket at 0.5, below w = 1: the space is strict there, so the
        # eigendirection's simplex has a nonzero gap and does not verify
        sup = SupremalResult(SupremalStatus.FINITE, 0.5, 0.5, 64.0, 0)
        with pytest.raises(NoWitnessFound, match=r"^witness at p = 0\.5 does not verify: "
                           r"relative gap \S+ against tol 1e-09; "
                           r"gap \S+ with lhs \S+, rhs \S+$") as exc:
            witness_at_supremal(four_cycle, sup)
        w = exc.value.witness
        assert w.p == 0.5 and w.equality.holds is False
        assert w.equality.relative_gap > w.equality.tolerance
        assert (f"relative gap {w.equality.relative_gap:g} against tol 1e-09; "
                f"gap {w.equality.gap:g} with lhs {w.lhs:g}, rhs {w.rhs:g}") in str(exc.value)

    def test_bracket_above_supremal_verifies(self, lapack):
        # above w the top eigenvalue is positive: the near-null vector of the
        # one solve turns to the exact zero of the form, with no eigensolve
        for X in (collinear_triple(), unit_four_cycle()):
            p = supremal(X).hi + 1e-3
            lapack.clear()
            w = witness_at_supremal(X, SupremalResult(SupremalStatus.FINITE, p, p, 64.0, 0))
            assert lapack == ["solve"]
            assert w.p == p and w.method is WitnessMethod.IVT
            assert w.residual <= 1e-12 * float(metric.power_matrix(X, p).max())
            rep = verify_equality(X, p, w.simplex)
            assert rep.holds and rep.nontrivial

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


class TestWitnessCorpus:
    """The rotation to the zero of the form is exact to rounding wherever
    the top eigenvalue is positive: at NOT_NEG_TYPE exponents and at
    brackets above the supremal exponent."""

    @pytest.mark.parametrize(
        "kind, q",
        [("path", 2.0), ("cycle", 2.0), ("points", 2.0), ("points", 1.0), ("random", 2.0)],
        ids=["path", "cycle", "l2_cloud", "l1_cloud", "random_graph"],
    )
    def test_residual_norm_and_verification(self, kind, q):
        cases = 0
        for n in (6, 25):
            for seed in range(3):
                X = generate_space(kind, n, q=q, seed=seed)
                sup = supremal(X)
                above = [sup.hi + 1e-3] if sup.status is SupremalStatus.FINITE else []
                for p in [2.5, 8.0] + above:
                    if p in above:
                        bracket = SupremalResult(SupremalStatus.FINITE, p, p, 64.0, 0)
                        w = witness_at_supremal(X, bracket)
                    elif classify(X, p).classification is Classification.NOT_NEG_TYPE:
                        w = witness_at_p(X, p)
                    else:
                        continue
                    cases += 1
                    assert w.method is WitnessMethod.IVT
                    assert w.residual <= 1e-12 * float(metric.power_matrix(X, p).max())
                    assert abs(np.linalg.norm(w.xi.weights) - 1.0) <= 1e-12
                    rep = verify_equality(X, p, w.simplex)
                    assert rep.holds and rep.nontrivial
        assert cases >= 6


class TestSupremalWitnessFromOneSolve:
    """witness_at_supremal takes the near-null vector of one solve of the form,
    and witness_at_p's chain at the midpoint (a Ritz vector of the class's
    Lanczos run, the top vector, then the eigen witness, _witness) only where
    that one does not verify: the eigenvalue nearest 0 need not be the top
    one, and the solve may fail."""

    @staticmethod
    def eigen_witness(X, sup):
        """The eigen witness at the midpoint, or None where it does not verify."""
        try:
            p = sup.midpoint
            return polyeq._witness(X, quadform._form(X, p), classify(X, p))
        except NoWitnessFound:
            return None

    def test_verifies_wherever_the_eigen_witness_does(self, lapack):
        rng = np.random.default_rng(97)
        random_spaces = [random_space(rng) for _ in range(400)]
        rng = np.random.default_rng(7001)  # the corpus of acceptance criterion 7
        perturbed = []
        for _ in range(50):
            n = int(rng.integers(3, 13))
            perturbed.append(break_ultrametricity(
                random_ultrametric(n, seed=int(rng.integers(0, 2**31))), rng))
        gen = [generate_space(kind, m, q=q, seed=seed)
               for kind, q in (("path", 2.0), ("cycle", 2.0), ("points", 2.0),
                               ("points", 1.0), ("random", 2.0))
               for m in (4, 12, 60, 200) for seed in range(2)]
        for name, spaces in (("random", random_spaces), ("perturbed", perturbed), ("gen", gen)):
            finite = raised = 0
            for trial, X in enumerate(spaces):
                sup = supremal(X)
                if sup.status is not SupremalStatus.FINITE:
                    continue
                finite += 1
                lapack.clear()
                try:
                    w = witness_at_supremal(X, sup)
                except NoWitnessFound as exc:
                    assert not exc.witness.equality.nontrivial_equality
                    assert self.eigen_witness(X, sup) is None, (name, trial)
                    assert name == "perturbed" and trial == 38
                    raised += 1
                    continue
                assert w.p == sup.midpoint
                assert verify_equality(X, w.p, w.simplex).nontrivial_equality, (name, trial)
                if name == "gen":
                    assert lapack == ["solve"], trial
            assert finite > 0.9 * len(spaces) and raised <= (name == "perturbed")

    @pytest.mark.parametrize("solve", ["raises", "nan"])
    @pytest.mark.parametrize("space", [
        collinear_triple,
        unit_four_cycle,
        lambda: generate_space("random", 12, seed=8),
        lambda: generate_space("points", 40, q=1.0, seed=3),
    ], ids=["collinear", "four_cycle", "random_graph", "l1_cloud"])
    def test_failed_solve_gives_the_eigen_witness(self, monkeypatch, solve, space):
        # where every solve fails, the witness is the Ritz witness of the
        # class at the midpoint if that verifies (on all four spaces here,
        # at BOUNDARY), else the eigen witness
        sup = supremal(space())
        F = space()
        rep = classify(F, sup.midpoint)
        form = quadform._form(F, sup.midpoint)
        assert rep.classification is Classification.BOUNDARY
        expected = (polyeq._null_witness(F, form, form.ritz(rep._step)[0],
                                         WitnessMethod.EIGEN_DIRECTION)
                    or self.eigen_witness(space(), sup))

        def failing(a, b):
            if solve == "raises":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(b, np.nan)

        monkeypatch.setattr(np.linalg, "solve", failing)
        w = witness_at_supremal(space(), sup)
        for f in dataclasses.fields(w):
            got, want = getattr(w, f.name), getattr(expected, f.name)
            if f.name == "xi":
                assert got.weights.tobytes() == want.weights.tobytes()
            elif f.name == "equality":
                assert dataclasses.astuple(got) == dataclasses.astuple(want)
            else:
                assert got == want, f.name


class TestWitnessContract:
    """A witness is returned only when its own simplex verifies; otherwise
    NoWitnessFound carries the witness that failed its check. The bounds on
    the raises are the counts of returned witnesses that failed their check
    before the check gated them."""

    def test_fixed_exponent_sweep(self):
        rng = np.random.default_rng(123)
        spaces = raised = 0
        while spaces < 150:
            X = random_space(rng)
            sup = supremal(X)
            if sup.status is not SupremalStatus.FINITE:
                continue
            spaces += 1
            for p in np.geomspace(1.01 * sup.hi, 64, 8).tolist():
                try:
                    w = witness_at_p(X, p)
                except NoWitnessFound as exc:
                    assert not exc.witness.equality.nontrivial_equality
                    raised += 1
                    continue
                assert verify_equality(X, p, w.simplex).nontrivial_equality, (spaces, p)
        assert raised <= 27

    def test_supremal_on_perturbed_ultrametrics(self):
        # the corpus of acceptance criterion 7
        rng = np.random.default_rng(7001)
        verified, raised = 0, []
        for trial in range(50):
            n = int(rng.integers(3, 13))
            X = random_ultrametric(n, seed=int(rng.integers(0, 2**31)))
            Y = break_ultrametricity(X, rng)
            sup = supremal(Y)
            if sup.status is not SupremalStatus.FINITE:
                continue
            try:
                w = witness_at_supremal(Y, sup)
            except NoWitnessFound as exc:
                assert not exc.witness.equality.nontrivial_equality
                raised.append(trial)
                continue
            assert verify_equality(Y, w.p, w.simplex).nontrivial_equality, trial
            verified += 1
        assert set(raised) <= {38} and verified + len(raised) == 50

    def test_rejected_witness_on_two_points_reports_verify_equality(self, tmp_path, capsys):
        # the simplex leaves out point 1, so its check reads the 2-point block
        X = rejected_triangle()
        with pytest.raises(NoWitnessFound) as exc:
            witness_at_p(X, 64.0)
        w = exc.value.witness
        assert sorted(i for i, _ in (*w.simplex.left, *w.simplex.right)) == [0, 2]
        assert not w.equality.holds and w.equality.nontrivial
        assert (dataclasses.astuple(w.equality)
                == dataclasses.astuple(verify_equality(X, 64.0, w.simplex)))
        # the CLI exits 3 on it and writes nothing
        space, out = tmp_path / "rejected.json", tmp_path / "w.json"
        space.write_text(json.dumps({"matrix": X.dist.tolist()}))
        assert main(["witness", str(space), "--p", "64", "--format", "json",
                     "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()

    def test_lopsided_triangle_verifies_from_its_top_vector(self, tmp_path, capsys):
        # the eigen-plane witness {1} | {0} fails here; the turned top
        # eigenvector is a nontrivial equality, and the CLI prints it
        X = lopsided_triangle()
        w = witness_at_p(X, 40.0)
        assert w.method is WitnessMethod.IVT and w.equality.nontrivial_equality
        assert (dataclasses.astuple(w.equality)
                == dataclasses.astuple(verify_equality(X, 40.0, w.simplex)))
        with pytest.raises(NoWitnessFound):
            polyeq._witness(X, quadform._form(X, 40.0), classify(X, 40.0))
        space = tmp_path / "lopsided.json"
        space.write_text(json.dumps({"matrix": X.dist.tolist()}))
        assert main(["witness", str(space), "--p", "40", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True

    def test_every_witness_reports_verify_equality(self):
        rng = np.random.default_rng(7001)
        returned = rejected = 0
        for _ in range(300):
            X = random_space(rng)
            for p in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0):
                try:
                    w = witness_at_p(X, p)
                    returned += 1
                except NotApplicable:
                    continue
                except NoWitnessFound as exc:
                    w = exc.witness
                    rejected += 1
                assert (dataclasses.astuple(w.equality)
                        == dataclasses.astuple(verify_equality(X, p, w.simplex))), p
        assert returned > 1000 and rejected > 0


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

    def test_scale_free_at_small_distances(self, collinear):
        # at unit distance 1e-6 and p = 2 every sum is about 1e-12: the plain
        # pair {0} | {1} (gap 1e-12) must fail, the true equality must hold
        Y = validate_metric(None, 1e-6 * collinear.dist)
        pair = verify_equality(Y, 2.0, SignedSimplex(((0, 1.0),), ((1, 1.0),)))
        assert pair.nontrivial and not pair.holds
        rep = verify_equality(Y, 2.0, COLLINEAR_WITNESS)
        assert rep.holds and rep.nontrivial

    def test_relative_gap(self, collinear):
        # |lhs - rhs| / max(|lhs|, |rhs|) on the normalised sums, at any scale
        pair = SignedSimplex(((0, 1.0),), ((1, 1.0),))
        for c in (1.0, 1e-200):
            Y = validate_metric(None, c * collinear.dist)
            assert verify_equality(Y, 2.0, COLLINEAR_WITNESS).relative_gap == 0.0
            assert verify_equality(Y, 1.0, COLLINEAR_WITNESS).relative_gap == 0.5
            assert verify_equality(Y, 2.0, pair).relative_gap == 1.0
        # a directly built space with a NaN distance: NaN sums read inf, never NaN
        nan = MetricSpace(("a", "b"), np.array([[0.0, math.nan], [math.nan, 0.0]]))
        assert verify_equality(nan, 1.0, pair).relative_gap == math.inf

    def test_underflowed_power_matrix_is_typed(self, collinear):
        # at unit distance 1e-200 and p = 2 every sum underflows to 0, but
        # holds is decided on the normalised sums: the plain pair {0} | {1}
        # still fails and the true equality still holds, as at unit scale
        Y = validate_metric(None, 1e-200 * collinear.dist)
        pair = verify_equality(Y, 2.0, SignedSimplex(((0, 1.0),), ((1, 1.0),)))
        assert pair.nontrivial and not pair.holds
        assert pair.lhs == pair.rhs == pair.gap == 0.0
        rep = verify_equality(Y, 2.0, COLLINEAR_WITNESS)
        assert rep.holds and rep.nontrivial

    def test_cancelling_weights_do_not_hide_a_gap(self, collinear, tmp_path, capsys):
        # the unit weights at point 0 cancel; the net vector (0, 1e-13, -1e-13)
        # is the pair {1} | {2}, whose gap is all of its sums, and verify exits 2
        Q = SignedSimplex(((0, 1.0), (1, 1e-13)), ((0, 1.0), (2, 1e-13)))
        space, simplex = tmp_path / "path.json", tmp_path / "q.json"
        space.write_text(render_json(space_payload(collinear)))
        simplex.write_text(json.dumps(simplex_payload(Q)))
        for p in (1.0, 2.0):
            rep = verify_equality(collinear, p, Q)
            assert rep.nontrivial and not rep.holds and rep.relative_gap == 1.0
            assert main(["verify", str(space), str(simplex), "--p", repr(p)]) == 2
        capsys.readouterr()

    def test_trivial_pair_holds_trivially(self, collinear):
        for p in (0.5, 1.0, 2.0, 5.0):
            rep = verify_equality(collinear, p, TRIVIAL_PAIR)
            assert rep.holds and not rep.nontrivial
            assert not rep.nontrivial_equality

    def test_unbalanced(self, collinear):
        with pytest.raises(UnbalancedWeights):
            verify_equality(collinear, 1.0, SignedSimplex(((0, 1.0),), ((1, 2.0),)))

    def test_huge_weights_balance_without_overflow(self, collinear):
        # side totals of 2e308 do not fit, but balance is decided on the
        # weights scaled by an exact power of two: the equality holds, and
        # its sums read inf
        Q = SignedSimplex(((0, 1e308), (2, 1e308)), ((1, 1e308), (1, 1e308)))
        rep = verify_equality(collinear, 2.0, Q)
        assert rep.holds and rep.nontrivial
        assert rep.lhs == rep.rhs == math.inf and rep.gap == 0.0
        with pytest.raises(UnbalancedWeights) as exc:
            verify_equality(collinear, 2.0, SignedSimplex(Q.left, ((1, 1e308),)))
        assert (exc.value.left_total, exc.value.right_total) == (math.inf, 1e308)
        with pytest.raises(NotBalanced):  # its net weight -2e308 is not a float
            simplex_to_vector(collinear, Q)

    def test_index_out_of_range(self, collinear):
        with pytest.raises(IndexOutOfRange):
            verify_equality(collinear, 1.0, SignedSimplex(((0, 1.0),), ((9, 1.0),)))

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight(self, collinear, weight):
        # RuntimeWarnings are errors in this suite: the weights are rejected
        # before any sum is formed
        with pytest.raises(UnbalancedWeights):
            verify_equality(collinear, 2.0, SignedSimplex(((0, weight),), ((1, 1.0),)))

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
    def test_invalid_tolerance(self, collinear, tol):
        with pytest.raises(InvalidTolerance):
            verify_equality(collinear, 2.0, COLLINEAR_WITNESS, tol=tol)


class TestBuildOnce:
    """Each public call builds D_p at most once, and each (space, p) is solved once;
    a simplex check on fewer than every point builds that block of D_p besides.

    A decision takes a few Lanczos steps on the form, whose eigh calls are
    on their small tridiagonal matrices (lapack.steps counts them), then
    one Cholesky factorisation of the form where the steps do not prove
    NOT_NEG_TYPE and its last Ritz value is outside the margin, and one
    eigvalsh of the form only where neither proves the class; the first
    read of its direction takes one solve besides, after the eigvalsh of
    its shift (lapack counts the calls on the form by name and order). A
    witness at NOT_NEG_TYPE or BOUNDARY turns a Ritz vector of the run, and
    solves only where that does not verify. eigh of the form runs only
    behind a failed check. Every test builds its own
    spaces: D~_p and its solves are remembered per space object, so a
    session fixture that an earlier test solved at the same exponent would
    take no build and no solve here.
    """

    @pytest.fixture()
    def builds(self, monkeypatch):
        calls = []
        real = metric._power

        def counting(X, p, *idx):
            calls.append(p)
            return real(X, p, *idx)

        for module in (metric, quadform):
            monkeypatch.setattr(module, "_power", counting)
        return calls

    def test_witness_at_p(self, builds, lapack):
        # the class at 3 is proved in two steps; the 4-cycle at 1 is
        # BOUNDARY, and its two distinct eigenvalues on F0 end the run at a
        # breakdown after two steps, whose Ritz vector proves the lower end
        # of the class, one factorisation the upper end, and which verifies
        assert witness_at_p(collinear_triple(), 3.0).method is WitnessMethod.IVT
        assert len(builds) == 1 and lapack.sized == lanczos(2)
        lapack.clear()
        assert witness_at_p(unit_four_cycle(), 1.0).method is WitnessMethod.EIGEN_DIRECTION
        assert len(builds) == 2 and lapack.sized == [*lanczos(2), ("cholesky", 3)]

    def test_witness_at_supremal(self, builds, lapack):
        # the witness from one solve; the fallback classifies the D~_p built
        # for it, which is STRICT below w, proved by one Cholesky
        # factorisation, and solves it with eigh alone
        collinear = collinear_triple()
        sup = supremal(collinear)
        builds.clear()
        lapack.clear()
        witness_at_supremal(collinear, sup)
        assert len(builds) == 1 and lapack == ["solve"]
        low = SupremalResult(SupremalStatus.FINITE, 0.5, 0.5, 64.0, 0)
        builds.clear()
        lapack.clear()
        with pytest.raises(NoWitnessFound):
            witness_at_supremal(unit_four_cycle(), low)
        assert len(builds) == 1 and lapack == ["solve", "cholesky", "eigh"]

    def test_supremal_fallback_below_w_skips_the_top_vector(self, lapack, monkeypatch):
        # at a bracket below w the class is STRICT, which has no nontrivial
        # equality: the fallback takes eigh at once, without forming the
        # block again for a solve, and raises the eigen-plane witness
        restricts = []
        real = quadform._restrict

        def counting(d):
            restricts.append(d.shape[0])
            return real(d)

        monkeypatch.setattr(quadform, "_restrict", counting)
        low = SupremalResult(SupremalStatus.FINITE, 0.5, 0.5, 64.0, 0)
        with pytest.raises(NoWitnessFound) as exc:
            witness_at_supremal(unit_four_cycle(), low)
        # _near_null's solve, the class's factorisation and the eigh: three
        assert restricts == [4] * 3 and lapack == ["solve", "cholesky", "eigh"]
        F = unit_four_cycle()
        rep = classify(F, 0.5)
        assert rep.classification is Classification.STRICT
        with pytest.raises(NoWitnessFound) as plane:
            polyeq._witness(F, quadform._form(F, 0.5), rep)
        assert witness_bits(exc.value.witness) == witness_bits(plane.value.witness)

    @pytest.mark.parametrize("kind, q", GEN_KINDS, ids=GEN_IDS)
    def test_not_neg_type_witness_takes_no_solve(self, builds, lapack, kind, q):
        # every NOT_NEG_TYPE class here is proved by Lanczos, with no call on
        # the form: only the steps' eigh calls on their tridiagonal matrices,
        # of order m - 1 only where the run spans F0. The witness then turns
        # the proving Ritz vector with no call and no new step, and so does a
        # second witness, with no _restrict either. A fresh copy of the space
        # gives the same bits, and the kept form holds D~_p alone afterwards
        restricts = []
        real = quadform._restrict
        seen = 0
        for (X, p), (F, _) in zip(fixed_exponent_corpus(kind, q),
                                  fixed_exponent_corpus(kind, q)):
            lapack.clear()
            rep = classify(X, p)
            if rep.classification is not Classification.NOT_NEG_TYPE:
                continue
            seen += 1
            n = X.size - 1
            steps = lapack.steps
            assert rep._step == steps <= min(n, quadform.LANCZOS_STEPS), (X.size, p)
            assert lapack.sized == lanczos(steps), (X.size, p)
            builds.clear()
            w = witness_at_p(X, p)
            assert lapack.sized == lanczos(steps), (X.size, p)
            # a check on fewer than every point builds its block (the 4-cycle at 2)
            every = {i for i, _ in (*w.simplex.left, *w.simplex.right)} == set(range(X.size))
            assert builds == ([] if every else [p]), (X.size, p)
            form = quadform._form(X, p)
            assert [v for v in vars(form).values() if isinstance(v, np.ndarray)] == [form.d]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(quadform, "_restrict", lambda d: restricts.append(d) or real(d))
                again = witness_at_p(X, p)
            assert restricts == [] and lapack.sized == lanczos(steps), (X.size, p)
            assert witness_bits(again) == witness_bits(w) == witness_bits(witness_at_p(F, p))
        assert seen >= 10

    @pytest.mark.parametrize("kind, q", GEN_KINDS, ids=GEN_IDS)
    def test_ritz_witness_reads_the_kept_product(self, kind, q):
        # the proof computes D~_p v for the proving Ritz vector once, and the
        # witness turns v with that product: the bits of a witness that
        # computes it again
        seen = 0
        for X, p in fixed_exponent_corpus(kind, q):
            rep = classify(X, p)
            if rep._step is None:
                continue
            seen += 1
            form = quadform._form(X, p)
            v, dv = form.ritz(rep._step)
            np.testing.assert_array_equal(dv, form.d @ v)
            kept = polyeq._null_witness(X, form, v, WitnessMethod.IVT, dv)
            again = polyeq._null_witness(X, form, v, WitnessMethod.IVT)
            assert witness_bits(kept) == witness_bits(again), (X.size, p)
            assert witness_bits(witness_at_p(X, p)) == witness_bits(kept), (X.size, p)
        assert seen >= 10

    @pytest.mark.parametrize("kind, q", GEN_KINDS, ids=GEN_IDS)
    def test_without_a_ritz_vector_the_witness_turns_the_top_vector(self, lapack, monkeypatch,
                                                                    kind, q):
        # where the run gives no vector, the witness is the one turned from
        # the top vector of one solve, which a report's direction reads, as
        # before the Ritz vector was tried; the solve's shift takes the
        # eigvalsh that the proved class did not
        monkeypatch.setattr(quadform._Form, "ritz", lambda form, step: None)
        for (X, p), (F, _) in zip(fixed_exponent_corpus(kind, q),
                                  fixed_exponent_corpus(kind, q)):
            if classify(X, p).classification is not Classification.NOT_NEG_TYPE:
                continue
            lapack.clear()
            w = witness_at_p(X, p)
            assert lapack == ["eigvalsh", "solve"] and lapack.steps == 0, (X.size, p)
            top = polyeq._null_witness(F, quadform._form(F, p), classify(F, p).direction.weights,
                                       WitnessMethod.IVT)
            assert witness_bits(w) == witness_bits(top), (X.size, p)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lanczos_breakdown_warns_nothing(self):
        # a residual within the floor ends the run: a multiple of the
        # identity and a zero form after one step, and the 4-cycle's form at
        # 3, whose two distinct eigenvalues on F0 make its Krylov space
        # invariant after two steps, where the top Ritz value is lambda_max
        def run(a):
            r = quadform._Run(a.shape[0])
            while r.step(a):
                pass
            return r

        for a in (np.eye(3), np.zeros((2, 2))):
            r = run(a)
            assert r.ended and len(r.tops) == 1
        form = quadform._form(unit_four_cycle(), 3.0)
        r = run(quadform._restrict(form.d))
        assert r.ended and len(r.tops) == 2
        assert r.tops[-1][0] == pytest.approx(form.spectrum[0], rel=1e-14)
        # on three points the run spans F0 in two steps, and on the 4-cycle
        # it reaches lambda_max there
        for X, p in ((collinear_triple(), 3.0), (lopsided_triangle(), 40.0),
                     (unit_four_cycle(), 3.0)):
            assert witness_at_p(X, p).equality.nontrivial_equality
        with pytest.raises(NoWitnessFound):
            witness_at_p(rejected_triangle(), 64.0)

    def test_rejected_witness_on_two_points_builds_its_block(self, builds, lapack):
        # the class builds D~_p, which the checks of the Ritz and the
        # top-vector witnesses on all three points read; the check of the
        # eigen-plane witness {2} | {0} builds its own 2-point block. The
        # class is proved in two steps, so the top vector's shift takes the
        # eigvalsh before the solve
        with pytest.raises(NoWitnessFound):
            witness_at_p(rejected_triangle(), 64.0)
        assert builds == [64.0, 64.0]
        assert lapack.sized == [*lanczos(2), ("eigvalsh", 2), ("solve", 2), ("eigh", 2)]

    def test_quad_form_reads_the_kept_matrix(self, builds):
        # after a decision at (X, p), a vector on every point builds nothing
        # and reads the same bits a fresh build gives; a vector on a strict
        # subset of the points builds its own block
        X, fresh = collinear_triple(), collinear_triple()
        classify(X, 3.0)
        builds.clear()
        assert quad_form(X, 3.0, [1.0, -2.0, 1.0]) == 8.0
        assert quad_form(X, 3.0, [0.3, -0.7, 0.4]) == quad_form(fresh, 3.0, [0.3, -0.7, 0.4])
        assert builds == [3.0]  # the fresh space's call only
        assert quad_form(X, 3.0, [1.0, -1.0, 0.0]) == -2.0
        assert builds == [3.0, 3.0]

    def test_verify_equality(self, builds):
        assert verify_equality(collinear_triple(), 2.0, COLLINEAR_WITNESS).nontrivial_equality
        assert len(builds) == 1

    @pytest.mark.parametrize("fallback", [False, True], ids=["one_solve", "fallback"])
    @pytest.mark.parametrize("space", [collinear_triple, unit_four_cycle,
                                       lambda: generate_space("points", 40, seed=3)],
                             ids=["collinear", "four_cycle", "l2_cloud"])
    def test_supremal_witness_form_serves_later_calls(self, builds, lapack, monkeypatch,
                                                      space, fallback):
        # a check or a class at the witness's p reads the form the witness
        # was built on: no build, and no call where the witness took the
        # fallback; the one-solve witness computes no eigenvalue, so the
        # class, BOUNDARY, takes the one factorisation that proves it, and
        # the first read of its direction one eigvalsh and one solve. Where
        # every solve fails, the fallback's class takes that factorisation
        # and its witness verifies from the run's Ritz vector, so the read
        # of the direction takes the eigvalsh and falls back to one eigh
        X = space()
        sup = supremal(X)
        if fallback:
            def singular(a, b):
                raise np.linalg.LinAlgError("singular matrix")

            monkeypatch.setattr(np.linalg, "solve", singular)
        lapack.clear()
        w = witness_at_supremal(X, sup)
        assert lapack == (["cholesky"] if fallback else ["solve"])
        builds.clear()
        lapack.clear()
        assert verify_equality(X, w.p, w.simplex).nontrivial_equality
        assert builds == []
        rep = classify(X, w.p)
        assert builds == [] and lapack == ([] if fallback else ["cholesky"])
        rep.direction
        rep.direction
        assert builds == [] and lapack == (["eigvalsh", "eigh"] if fallback
                                           else ["cholesky", "eigvalsh", "solve"])

    @pytest.mark.parametrize("mode, probes, p", [
        (["--p", "3"], [], 3.0),
        (["--at-supremal"], [1.0, 2.0], 2.0),  # the supremal probes, ending on 2
    ], ids=["p3", "at_supremal"])
    def test_cli_witness_builds_once_at_the_witness_exponent(self, builds, tmp_path, capsys,
                                                             mode, probes, p):
        # one build of D~_p serves the witness and its holds / nontrivial check
        f = tmp_path / "collinear.json"
        f.write_text(json.dumps({"matrix": collinear_triple().dist.tolist()}))
        assert main(["witness", str(f), *mode]) == 0
        assert builds == [*probes, p]
        assert '"holds": true' in capsys.readouterr().out

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf])
    def test_invalid_tolerance_does_no_work(self, builds, lapack, epsilon):
        for decide in (classify, witness_at_p):
            with pytest.raises(InvalidTolerance):
                decide(collinear_triple(), 3.0, epsilon)
        assert builds == [] and lapack == []

    def test_classify_then_witness_then_verify_solve_once(self, builds, lapack):
        X = collinear_triple()
        assert classify(X, 3.0).classification is Classification.NOT_NEG_TYPE
        w = witness_at_p(X, 3.0)
        assert verify_equality(X, 3.0, w.simplex).nontrivial_equality
        assert len(builds) == 1 and lapack.sized == lanczos(2)

    @pytest.mark.parametrize("kind, q", GEN_KINDS, ids=GEN_IDS)
    def test_fixed_exponent_decisions_never_call_eigh(self, lapack, kind, q):
        # classify, witness_at_p and verify_equality at every class. The
        # class takes Lanczos steps, at most LANCZOS_STEPS and m - 1, then
        # one Cholesky factorisation of the form at every STRICT and
        # BOUNDARY, and one eigvalsh only where that does not prove the
        # class: every class here is proved but the BOUNDARY cycles at 1 on
        # 40 and 120 points, whose last Ritz value is below the margin, so
        # the factorisation tried is the STRICT one, and it fails. A proved
        # STRICT drops the form, so the class that witness_at_p takes is
        # made again, with the same calls; a BOUNDARY form keeps its
        # factorisation's answer, so that class takes no call. A
        # NOT_NEG_TYPE witness verifies from the proving Ritz vector with no
        # call. A BOUNDARY witness turns the run's last Ritz vector, and
        # takes one solve only where that does not verify (cycles at 40 and
        # 120 points). The first read of the direction takes the eigvalsh
        # and the solve not yet taken. eigh runs only in the Lanczos steps,
        # on their tridiagonal matrices
        for X, p in fixed_exponent_corpus(kind, q):
            lapack.clear()
            n = X.size - 1
            rep = classify(X, p)
            cls = rep.classification
            proved = "lambda_max" not in vars(rep)
            assert proved is not (kind == "cycle" and X.size >= 40 and p == 1.0), (X.size, p)
            steps = lapack.steps
            assert 1 <= steps <= min(n, quadform.LANCZOS_STEPS), (X.size, p)
            assert rep._step == (steps if cls is Classification.NOT_NEG_TYPE else None)
            tried = cls is not Classification.NOT_NEG_TYPE
            calls = lanczos(steps) + [("cholesky", n)] * tried
            calls += [] if proved else [("eigvalsh", n)]
            assert lapack.sized == calls, (X.size, p)
            if cls is Classification.STRICT:
                with pytest.raises(NotApplicable):
                    witness_at_p(X, p)
                calls *= 2  # the proof dropped the form: the witness's class repeats it
            else:
                w = witness_at_p(X, p)
                assert verify_equality(X, p, w.simplex).nontrivial_equality
                if lapack.sized != calls:
                    assert kind == "cycle" and X.size >= 40, (X.size, p)
                    assert rep.classification is Classification.BOUNDARY
                    calls.append(("solve", n))
            assert lapack.sized == calls, (X.size, p)
            rep.direction
            if proved:
                calls.append(("eigvalsh", n))
            if calls[-1] != ("solve", n):
                calls.append(("solve", n))
            assert lapack.sized == calls, (X.size, p)

    def test_kept_matrix_reports_equal_fresh_ones(self, builds, lapack):
        # verify_equality and gap on a simplex over every point read the D~_p
        # kept by the solve; on a fresh copy the first of them builds and
        # keeps it, with the same bits, and every later call reads it. A
        # report's direction is no dataclass field: it is compared on its own
        def fields(report):
            return [v.weights.tobytes() if isinstance(v, quadform.BalancedVector)
                    else fields(v) if isinstance(v, polyeq.EqualityReport) else v
                    for v in (getattr(report, f.name) for f in dataclasses.fields(report))]

        for m, seed, p in ((30, 7, 3.0), (800, 1, 2.2)):
            def space():
                return validate_metric(None, generate_space("points", m, seed=seed).dist)

            builds.clear()
            lapack.clear()
            X = space()
            rep, w = classify(X, p), witness_at_p(X, p)
            assert rep.classification is Classification.NOT_NEG_TYPE
            assert {i for i, _ in (*w.simplex.left, *w.simplex.right)} == set(range(m))
            chk, g = verify_equality(X, p, w.simplex), gap(X, p, w.simplex)
            assert chk.nontrivial_equality, m
            # Lanczos proves the class, and the witness turns its Ritz
            # vector: no call on the form
            assert len(builds) == 1 and lapack == [] and lapack.of_order(m - 1) == []
            ritz = list(lapack.sized)
            assert ritz == lanczos(rep._step)
            F = space()
            fresh_chk, fresh_g = verify_equality(F, p, w.simplex), gap(F, p, w.simplex)
            assert len(builds) == 2 and lapack.sized == ritz  # F's, not yet classified
            fresh_rep, fresh_w = classify(F, p), witness_at_p(F, p)
            assert len(builds) == 2 and lapack.sized == ritz * 2

            assert fields(rep) == fields(fresh_rep)
            assert rep.lambda_max == fresh_rep.lambda_max
            assert rep.direction.weights.tobytes() == fresh_rep.direction.weights.tobytes()
            assert lapack.of_order(m - 1) == ["eigvalsh", "eigvalsh", "solve", "solve"]
            assert fields(w) == fields(fresh_w)
            assert fields(chk) == fields(fresh_chk) == fields(w.equality)
            assert g == fresh_g == chk.gap
            # a simplex on a strict subset of the points builds its own block,
            # scaled by its own largest entry, memo or not
            sub = SignedSimplex(((0, 1.0), (2, 1.0)), ((1, 2.0),))
            builds.clear()
            assert fields(verify_equality(X, p, sub)) == fields(verify_equality(F, p, sub))
            assert len(builds) == 2

    def test_new_exponent_or_new_space_solves_again(self, lapack):
        # each class at 3 and 2.5 is proved in two Lanczos steps
        X = collinear_triple()
        classify(X, 3.0)
        classify(X, 2.5)
        assert lapack.sized == lanczos(2) * 2
        # the same matrix in another space object: the key is identity
        classify(validate_metric(X.labels, X.dist), 2.5)
        assert lapack.sized == lanczos(2) * 3
        # the witness turns the Ritz vector of the run kept since the class at 2.5
        witness_at_p(X, 2.5)
        assert lapack.sized == lanczos(2) * 3
        # only the last exponent is kept
        classify(X, 3.0)
        assert lapack.sized == lanczos(2) * 4 and lapack == []

    @pytest.mark.parametrize("space,p", [
        (collinear_triple, 3.0),
        (unit_four_cycle, 1.0),
        (lambda: generate_space("points", 30, dim=3, seed=7), 3.0),
        (lambda: generate_space("random", 12, seed=8), 2.5),
    ], ids=["collinear", "four_cycle", "l2_cloud", "random_graph"])
    def test_memo_hits_are_bit_identical(self, lapack, space, p):
        # the class takes Lanczos steps, which prove NOT_NEG_TYPE, and one
        # factorisation where they do not (the 4-cycle, at BOUNDARY); the
        # witness verifies from the run's Ritz vector with no call, the
        # class again takes none, and each fresh space repeats the same calls
        X = space()
        n = X.size - 1
        rep, w = classify(X, p), witness_at_p(X, p)
        again = classify(X, p)
        factored = rep.classification is Classification.BOUNDARY
        solved = list(lapack.sized)
        assert lapack == ["cholesky"] * factored
        assert solved == lanczos(lapack.steps) + [("cholesky", n)] * factored
        lapack.clear()
        fresh_rep, fresh_w = classify(space(), p), witness_at_p(space(), p)
        assert lapack.sized == solved * 2
        lapack.clear()
        for r in (rep, again):
            assert r.lambda_max == fresh_rep.lambda_max
            assert r.direction.weights.tobytes() == fresh_rep.direction.weights.tobytes()
        # rep and again read one lambda_max and one vector, each computed by
        # the first read, since the class and the witness took none, and so
        # does fresh_rep's space
        assert lapack.sized == [("eigvalsh", n)] * 2 + [("solve", n)] * 2
        assert w.xi.weights.tobytes() == fresh_w.xi.weights.tobytes()
        assert w.simplex == fresh_w.simplex
        assert (w.residual, w.lhs, w.rhs) == (fresh_w.residual, fresh_w.lhs, fresh_w.rhs)

    def test_farthest_pair_is_found_once_per_space(self):
        # the turn reads the first largest entry of X.dist, found on the
        # first witness and kept per space: at every p > 0 it is the first
        # largest entry of D~_p, where the power rounds no other entry to 1
        X = generate_space("points", 40, seed=2)
        assert X not in polyeq._FARTHEST
        for p in (2.5, 3.0, 8.0):
            witness_at_p(X, p)
            d = quadform._form(X, p).d
            assert np.count_nonzero(d == 1.0) == 2
            assert polyeq._FARTHEST[X] == divmod(int(np.argmax(d)), X.size)
        ref = weakref.ref(X)
        del X
        gc.collect()
        assert ref() is None

    def test_solved_space_is_not_kept_alive(self):
        X = collinear_triple()
        witness_at_p(X, 3.0)
        ref = weakref.ref(X)
        del X
        gc.collect()
        assert ref() is None

    def test_failed_solve_is_not_remembered(self, lapack, monkeypatch):
        counting = np.linalg.eigvalsh

        def fail_once(a):
            if not lapack:
                lapack.append("failed")
                raise np.linalg.LinAlgError("did not converge")
            return counting(a)

        # at 2 with a tolerance of 1e-15 on the normalised form (max D_2 is
        # 4), below the rounding part of the margins, nothing proves the
        # class, so it takes eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", fail_once)
        X = collinear_triple()
        with pytest.raises(EigenFailure):
            classify(X, 2.0, 4e-15)
        rep = classify(X, 2.0, 4e-15)
        assert rep.classification is Classification.BOUNDARY
        assert lapack == ["failed", "eigvalsh"]
        rep.direction
        assert lapack == ["failed", "eigvalsh", "solve"]

    @staticmethod
    def concurrent_answers(kind, ps):
        """Threads at the two exponents ps on one shared space each answer as a fresh space does."""
        def space():
            return generate_space(kind, 12, seed=8)

        xi = np.random.default_rng(5).standard_normal(12)
        xi -= xi.mean()
        Q = vector_to_simplex(space(), xi)

        def answers(X, p):
            rep = classify(X, p)
            return (rep.lambda_max, rep.direction.weights.tobytes(), quad_form(X, p, xi),
                    verify_equality(X, p, Q).gap, witness_at_p(X, p).xi.weights.tobytes())

        want = {p: answers(space(), p) for p in ps}
        X, errors = space(), []

        def work(p):
            try:
                for _ in range(200):
                    if answers(X, p) != want[p]:
                        errors.append(p)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(p,)) for p in ps * 8]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_concurrent_callers_read_their_own_exponent(self):
        # threads at two exponents replace each other's form in the one slot
        # of a shared space; none may read the other's: every answer has the
        # bits of a fresh space's. Threads at one exponent share a form: its
        # Lanczos run, its held block and the solve that takes the block
        self.concurrent_answers("random", (2.5, 3.5))

    def test_concurrent_callers_share_a_boundary_proof(self):
        # as above, on a path at 2, where the threads also share the
        # BOUNDARY factorisation that negates the held block in place, and
        # the answer the form keeps
        rep = classify(generate_space("path", 12, seed=8), 2.0)
        assert rep.classification is Classification.BOUNDARY and "lambda_max" not in vars(rep)
        self.concurrent_answers("path", (2.0, 3.0))

    def test_supremal_probes_skip_the_memo(self, lapack):
        # each probe takes one eigvalsh and no solve; the class at 0.5, STRICT,
        # and the class at the midpoint, BOUNDARY, take one Cholesky
        # factorisation each
        calls = []
        for X in (collinear_triple(), unit_four_cycle()):
            before = supremal(X)
            assert classify(X, 0.5).classification is Classification.STRICT
            classify(X, before.midpoint)  # not 0.5, which the 4-cycle probes exactly
            after = supremal(X)
            assert (after.lo, after.hi, after.evaluations) == (
                before.lo, before.hi, before.evaluations)
            calls += ["eigvalsh"] * before.evaluations + ["cholesky", "cholesky"]
            calls += ["eigvalsh"] * after.evaluations
        assert lapack == calls


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
                    witness_at_p(X, p)
            elif cls is Classification.NOT_NEG_TYPE:
                witnessed += 1
                w = witness_at_p(X, p)
                assert w.method is WitnessMethod.IVT
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
