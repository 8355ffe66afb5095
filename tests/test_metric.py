import numpy as np
import pytest

from helpers import first_triangle_violation, random_space, subdominant_ultrametric
from negtype import (
    AsymmetricEntry,
    DisconnectedGraph,
    DuplicatePoint,
    InvalidNormOrder,
    NegativeExponent,
    NonpositiveDistance,
    NonpositiveWeight,
    NonzeroDiagonal,
    NotSquare,
    TriangleViolation,
    from_graph,
    from_points,
    is_ultrametric,
    power_matrix,
    random_ultrametric,
    validate_metric,
)
from negtype.metric import REL_TOL


class TestValidateMetric:
    def test_minimal_two_point_space(self):
        X = validate_metric(["a", "b"], [[0, 1], [1, 0]])
        assert X.size == 2
        assert X.labels == ("a", "b")
        np.testing.assert_array_equal(X.dist, [[0.0, 1.0], [1.0, 0.0]])

    def test_default_labels(self):
        X = validate_metric(None, [[0, 1], [1, 0]])
        assert X.labels == ("x1", "x2")

    def test_asymmetric_entry(self):
        with pytest.raises(AsymmetricEntry) as exc:
            validate_metric(None, [[0, 1], [2, 0]])
        assert (exc.value.i, exc.value.j) == (0, 1)

    def test_triangle_violation(self):
        with pytest.raises(TriangleViolation) as exc:
            validate_metric(None, [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert (exc.value.i, exc.value.j, exc.value.k) == (0, 1, 2)

    def test_triangle_violation_matches_brute_force(self):
        # random symmetric matrices break the triangle inequality early;
        # metrics with one stretched entry break it at a later j or not at all
        rng = np.random.default_rng(13)
        seen = set()
        for trial in range(120):
            m = int(rng.integers(3, 9))
            if trial % 2:
                a = rng.uniform(0.1, 3.0, (m, m))
                a = np.triu(a, 1) + np.triu(a, 1).T
            else:
                a = np.array(random_space(rng, min_n=m, max_n=m).dist)
                i, k = rng.choice(m, size=2, replace=False)
                a[i, k] = a[k, i] = a[i, k] * rng.uniform(1.0, 2.0)
            want = first_triangle_violation(a, REL_TOL * float(a.max()))
            if want is None:
                np.testing.assert_array_equal(validate_metric(None, a).dist, a)
                seen.add(None)
                continue
            with pytest.raises(TriangleViolation) as exc:
                validate_metric(None, a)
            assert (exc.value.i, exc.value.j, exc.value.k) == want
            seen.add(want[1] > 0)
        assert seen == {None, False, True}

    def test_not_square(self):
        with pytest.raises(NotSquare):
            validate_metric(None, [[0, 1, 2], [1, 0, 1]])
        with pytest.raises(NotSquare):
            validate_metric(None, [[0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal) as exc:
            validate_metric(None, [[0, 1], [1, 0.5]])
        assert exc.value.i == 1

    def test_nonpositive_distance(self):
        with pytest.raises(NonpositiveDistance):
            validate_metric(None, [[0, 0], [0, 0]])
        with pytest.raises(NonpositiveDistance):
            validate_metric(None, [[0, -1], [-1, 0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(NonpositiveDistance):
            validate_metric(None, [[0, np.inf], [np.inf, 0]])
        with pytest.raises(NonpositiveDistance):
            validate_metric(None, [[0, np.nan], [np.nan, 0]])

    def test_symmetry_slack_is_canonicalized(self):
        d, eps = 1.0, 1e-14
        X = validate_metric(None, [[0, d + eps], [d, 0]])
        assert X.dist[0, 1] == X.dist[1, 0]
        assert X.dist[0, 0] == 0.0

    def test_immutable(self):
        X = validate_metric(None, [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            X.dist[0, 1] = 5.0


class TestPowerMatrix:
    def test_squares_collinear(self, collinear):
        pm = power_matrix(collinear, 2.0)
        np.testing.assert_allclose(pm, [[0, 1, 4], [1, 0, 1], [4, 1, 0]])

    def test_p_zero_is_discrete(self, collinear):
        pm = power_matrix(collinear, 0.0)
        expected = np.ones((3, 3)) - np.eye(3)
        np.testing.assert_array_equal(pm, expected)

    def test_p_one_is_identity_map(self, collinear):
        np.testing.assert_array_equal(power_matrix(collinear, 1.0), collinear.dist)

    def test_negative_exponent(self, collinear):
        with pytest.raises(NegativeExponent):
            power_matrix(collinear, -0.5)

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_non_finite_exponent(self, collinear, p):
        with pytest.raises(NegativeExponent):
            power_matrix(collinear, p)

    def test_read_only(self, collinear):
        with pytest.raises(ValueError):
            power_matrix(collinear, 1.0)[0, 1] = 5.0

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 7.3])
    def test_diagonal_exactly_zero(self, collinear, p):
        assert (np.diag(power_matrix(collinear, p)) == 0.0).all()

    def test_monotone_in_p_for_distances_at_least_one(self):
        X = from_graph(5, [(i, i + 1, 1.0) for i in range(4)])
        assert (X.dist[~np.eye(5, dtype=bool)] >= 1.0).all()
        prev = power_matrix(X, 0.5)
        for p in (1.0, 2.0, 4.0):
            cur = power_matrix(X, p)
            assert (cur >= prev).all()
            prev = cur


class TestIsUltrametric:
    def test_equilateral(self, equilateral):
        assert is_ultrametric(equilateral)

    def test_collinear_is_not(self, collinear):
        assert not is_ultrametric(collinear)

    def test_two_point_vacuous(self, two_point):
        assert is_ultrametric(two_point)

    def test_nested_clusters(self):
        X = validate_metric(None, [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]])
        assert is_ultrametric(X)

    def test_matches_single_linkage_reference(self):
        # random ultrametrics, the same with one distance scaled by 0.9..1.1
        # (still a metric, usually no longer ultrametric), and random spaces
        rng = np.random.default_rng(17)
        verdicts = []
        for _ in range(40):
            n = int(rng.integers(3, 12))
            U = random_ultrametric(n, seed=int(rng.integers(0, 2**31)))
            d = np.array(U.dist)
            i, k = rng.choice(n, size=2, replace=False)
            d[i, k] = d[k, i] = d[i, k] * rng.uniform(0.9, 1.1)
            for X in (U, validate_metric(None, d), random_space(rng)):
                want = np.allclose(subdominant_ultrametric(X.dist), X.dist, rtol=1e-9, atol=0)
                assert is_ultrametric(X) == want
                verdicts.append(want)
        assert 40 < sum(verdicts) < len(verdicts)


class TestFromGraph:
    def test_four_cycle(self, four_cycle):
        np.testing.assert_array_equal(
            four_cycle.dist,
            [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
        )

    def test_path_graph_collinear(self, collinear):
        np.testing.assert_array_equal(collinear.dist, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraph):
            from_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_nonpositive_weight(self):
        with pytest.raises(NonpositiveWeight):
            from_graph(2, [(0, 1, 0.0)])

    def test_parallel_edges_keep_lighter(self):
        X = from_graph(2, [(0, 1, 3.0), (1, 0, 1.0)])
        assert X.dist[0, 1] == 1.0

    def test_shortcut_beats_direct_edge(self):
        X = from_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        assert X.dist[0, 2] == 2.0


class TestFromPoints:
    def test_line(self):
        X = from_points([[0.0], [1.0], [2.0]], q=2)
        np.testing.assert_allclose(X.dist, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_unit_square_l1_matches_four_cycle(self, four_cycle):
        corners = [[0, 0], [1, 0], [1, 1], [0, 1]]
        X = from_points(corners, q=1)
        np.testing.assert_allclose(X.dist, four_cycle.dist)

    def test_duplicate_point(self):
        with pytest.raises(DuplicatePoint):
            from_points([[0, 0], [1, 1], [0, 0]])

    def test_invalid_norm_order(self):
        with pytest.raises(InvalidNormOrder):
            from_points([[0], [1]], q=0.5)

    def test_chebyshev(self):
        X = from_points([[0, 0], [3, 1]], q=np.inf)
        assert X.dist[0, 1] == 3.0


class TestRandomUltrametric:
    def test_two_points(self):
        assert random_ultrametric(2, seed=0).size == 2

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_always_ultrametric(self, n, seed):
        assert is_ultrametric(random_ultrametric(n, seed))

    def test_deterministic(self):
        a = random_ultrametric(9, seed=42)
        b = random_ultrametric(9, seed=42)
        np.testing.assert_array_equal(a.dist, b.dist)
        assert a.labels == b.labels

    def test_distinct_seeds_differ(self):
        a = random_ultrametric(9, seed=1)
        b = random_ultrametric(9, seed=2)
        assert not np.array_equal(a.dist, b.dist)


def test_generated_spaces_validate():
    # every generator funnels through validate_metric; re-validating the
    # stored matrix must succeed and be idempotent
    for X in (
        from_graph(6, [(i, (i + 1) % 6, 1.0) for i in range(6)]),
        from_points(np.random.default_rng(3).standard_normal((5, 3))),
        random_ultrametric(7, seed=5),
    ):
        Y = validate_metric(X.labels, X.dist)
        np.testing.assert_array_equal(X.dist, Y.dist)


def test_permutation_equivariance():
    rng = np.random.default_rng(11)
    X = from_points(rng.standard_normal((6, 3)))
    perm = rng.permutation(6)
    relabeled = validate_metric(
        [X.labels[i] for i in perm], X.dist[np.ix_(perm, perm)]
    )
    for p in (0.0, 0.7, 2.0, 3.5):
        a = power_matrix(X, p)[np.ix_(perm, perm)]
        b = power_matrix(relabeled, p)
        np.testing.assert_allclose(a, b, rtol=0, atol=0)
