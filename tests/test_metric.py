import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from helpers import (
    first_triangle_violation,
    random_space,
    reference_ultrametric,
    reference_validate_metric,
    subdominant_ultrametric,
)
from negtype import (
    AsymmetricEntry,
    Classification,
    DisconnectedGraph,
    DuplicatePoint,
    InvalidNormOrder,
    MetricSpace,
    NegTypeError,
    NegativeExponent,
    NonpositiveDistance,
    NonpositiveWeight,
    NonzeroDiagonal,
    NotSquare,
    SupremalStatus,
    TriangleViolation,
    classify,
    from_graph,
    from_points,
    is_ultrametric,
    random_ultrametric,
    supremal,
    validate_metric,
)
from negtype import metric
from negtype.cli import main
from negtype.metric import REL_TOL, _within_subdominant, default_labels, power_matrix


class TestValidateMetric:
    def test_minimal_two_point_space(self):
        X = validate_metric(["a", "b"], [[0, 1], [1, 0]])
        assert X.size == 2
        assert X.labels == ("a", "b")
        np.testing.assert_array_equal(X.dist, [[0.0, 1.0], [1.0, 0.0]])

    def test_default_labels(self):
        X = validate_metric(None, [[0, 1], [1, 0]])
        assert X.labels == ("x1", "x2")

    def test_label_count_mismatch(self):
        with pytest.raises(ValueError, match="3 labels for 2x2 matrix"):
            validate_metric(["a", "b", "c"], [[0, 1], [1, 0]])

    @pytest.mark.parametrize("labels", ["ab", b"ab", {"a": 0, "b": 1}],
                             ids=["str", "bytes", "dict"])
    def test_labels_that_are_not_a_list(self, labels):
        # each would otherwise iterate into one label per character or key
        with pytest.raises(ValueError, match="labels must be a list"):
            validate_metric(labels, [[0, 1], [1, 0]])

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
        # metrics with one stretched entry break it at a later pivot or not at all
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

    def test_certificate_agrees_with_the_scan(self, monkeypatch):
        # raw matrices with and without violations, entries asymmetric within
        # tol and diagonals of +-tol/2 or -tol: validate_metric raises the
        # triple the plain scan finds first, or passes where it finds none
        scans = []
        real = metric._violation

        def counting(*args, **kwargs):
            scans.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(metric, "_violation", counting)
        rng = np.random.default_rng(29)
        seen = set()
        for trial in range(400):
            m = int(rng.integers(2, 12))
            if trial % 4 == 0:  # within a factor 2: certified
                a = rng.uniform(1.0, 2.0, (m, m))
            elif trial % 4 == 1:  # early violations
                a = rng.uniform(0.1, 3.0, (m, m))
            elif trial % 4 == 2:  # graph and point metrics, mostly past the certificate
                a = np.array(random_space(rng, min_n=m, max_n=m).dist)
            else:  # an ultrametric with one entry stretched, sometimes past the slack
                a = np.array(random_ultrametric(m, int(rng.integers(1000))).dist)
                i, k = rng.choice(m, size=2, replace=False)
                a[i, k] = a[k, i] = a[i, k] * rng.choice([1.0, 1.0 + 1e-13, 2.0, 2.5])
            a = np.triu(a, 1) + np.triu(a, 1).T
            a += np.triu(rng.uniform(-0.5, 0.5, (m, m)), 1) * REL_TOL * float(a.max())
            tol = REL_TOL * float(np.abs(a).max())
            np.fill_diagonal(a, rng.choice([0.0, 0.5 * tol, -0.5 * tol, -tol], size=m))
            want = real(a, np.add, tol)
            assert first_triangle_violation(a, tol) == want
            scans.clear()
            if want is None:
                validate_metric(None, a)
            else:
                with pytest.raises(TriangleViolation) as exc:
                    validate_metric(None, a)
                assert (exc.value.i, exc.value.j, exc.value.k) == want
            seen.add((bool(scans), want is None))
        assert seen == {(False, True), (True, True), (True, False)}

    def test_pruned_scan_agrees_with_the_literal_loop(self, monkeypatch):
        # shortest-path metrics of random complete graphs have concentrated
        # distances, so most pivots scan only their candidate middles; one
        # pair is sometimes stretched, entries are asymmetric and diagonals
        # nonzero within the slack, and some copies sit where two entries
        # sum past the largest float
        gathered = []
        real = metric._violation

        def add(x, y, out=None):
            gathered.append(np.ndim(y) == 2)  # the candidate block adds a column
            return np.add(x, y, out=out)

        def spying(d, bound, tol, rows=None):
            return real(d, add if rows is not None else bound, tol, rows)

        monkeypatch.setattr(metric, "_violation", spying)
        rng = np.random.default_rng(83)
        seen = set()
        for trial in range(24):
            m = int(rng.integers(20, 61))
            edges = [(i, j, rng.uniform(0.5, 2.0)) for i in range(m) for j in range(i + 1, m)]
            a = np.array(from_graph(m, edges).dist)
            if trial % 4:
                i, k = rng.choice(m, size=2, replace=False)
                a[i, k] = a[k, i] = a[i, k] * (1.0 + 1e-13, 1.5, 3.0)[trial % 4 - 1]
            if trial % 3 == 1:
                slack = REL_TOL * float(a.max())
                a += np.triu(rng.uniform(-0.5, 0.5, (m, m)), 1) * slack
                np.fill_diagonal(a, rng.choice([0.0, 0.5 * slack, -0.5 * slack], size=m))
            if trial % 3 == 2:
                a *= 8e307 / a.max() * 2  # largest entry 1.6e308
            tol = REL_TOL * float(np.abs(a).max())
            with np.errstate(over="ignore"):  # the loop's own overflowed sums
                want = first_triangle_violation(a, tol)
            if want is None:
                validate_metric(None, a)
            else:
                with pytest.raises(TriangleViolation) as exc:
                    validate_metric(None, a)
                assert (exc.value.i, exc.value.j, exc.value.k) == want
            seen.add(want is None)
        assert seen == {True, False}
        assert any(gathered) and not all(gathered)

    def test_stretched_random_graph_names_the_first_failing_triple(self, tmp_path, capsys):
        # gen random 500 --seed 1 has a supremal witness that is a nontrivial
        # equality; with d[170][341] stretched to 3 max d, check exits 3 naming
        # the first failing triple of the full scan: pivot k, then row i <= k
        # (the matrix is symmetric), j the first index of the smallest bound,
        # found here one pivot at a time in numpy
        space, wit = tmp_path / "r.json", tmp_path / "w.json"
        assert main(["gen", "random", "500", "--seed", "1", "--out", str(space)]) == 0
        assert main(["witness", str(space), "--at-supremal", "--format", "json",
                     "--out", str(wit)]) == 0
        w = json.loads(wit.read_text(encoding="utf-8"))
        assert w["holds"] and w["nontrivial"], w
        data = json.loads(space.read_text(encoding="utf-8"))
        rows = data["matrix"]
        rows[170][341] = rows[341][170] = 3 * max(map(max, rows))
        space.write_text(json.dumps(data), encoding="utf-8")
        assert main(["check", str(space), "--p", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        named = re.search(r"dist\[(\d+)\]\[(\d+)\] > dist\[\1\]\[(\d+)\]", err)
        i, k, j = map(int, named.groups())
        d = np.array(rows)
        assert d[i, k] > d[i, j] + d[j, k], (i, j, k)
        assert (d == d.T).all()
        tol = REL_TOL * d.max()
        for pivot in range(len(d)):
            bounds = d[: pivot + 1] + d[pivot]  # d[ii, jj] + d[jj, pivot]
            bad = np.flatnonzero(d[: pivot + 1, pivot] - bounds.min(axis=1) > tol)
            if bad.size:
                break
        assert (int(bad[0]), int(bounds[bad[0]].argmin()), pivot) == (i, j, k)

    def test_concentrated_metric_at_1000_points(self, tmp_path):
        # gen random 1000 --seed 3 read back as a matrix: the pruned scan
        # validates it, and check reports its class
        space, out = tmp_path / "r.json", tmp_path / "c.json"
        assert main(["gen", "random", "1000", "--seed", "3", "--out", str(space)]) == 0
        code = main(["check", str(space), "--p", "1", "--format", "json", "--out", str(out)])
        assert code in (0, 1, 2)
        classes = ("STRICT", "BOUNDARY", "NOT_NEG_TYPE")
        assert json.loads(out.read_text(encoding="utf-8"))["classification"] == classes[code]

    def test_ultrametric_matrices_skip_the_scan(self, monkeypatch):
        # merge heights in [1, 2]: the largest distance is at most the sum
        # of any two row minima, so the O(m^2) certificate decides
        def scan(*args, **kwargs):
            raise AssertionError("the O(m^3) scan ran")

        monkeypatch.setattr(metric, "_violation", scan)
        for n in (2, 3, 17, 120):
            for seed in (0, 1):
                X = random_ultrametric(n, seed)
                np.testing.assert_array_equal(validate_metric(None, X.dist).dist, X.dist)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            validate_metric(None, [[0, 1, 2], [1, 0, 1]])
        with pytest.raises(NotSquare):
            validate_metric(None, [[0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal) as exc:
            validate_metric(None, [[0, 1], [1, 0.5]])
        assert exc.value.i == 1
        with pytest.raises(NonzeroDiagonal) as exc:
            validate_metric(None, [[0, 1], [1, np.nan]])
        assert exc.value.i == 1

    def test_nonpositive_distance(self):
        with pytest.raises(NonpositiveDistance):
            validate_metric(None, [[0, 0], [0, 0]])
        with pytest.raises(NonpositiveDistance):
            validate_metric(None, [[0, -1], [-1, 0]])

    @pytest.mark.parametrize("diag, off, error", [
        (-2.0, 1e13, None), (-0.5, 1e13, None), (-10.0, 1e13, None),
        (-10.5, 1e13, NonzeroDiagonal), (-2.0, 0.0, NonpositiveDistance),
    ], ids=["minus2", "minus0.5", "minus10", "past_the_slack", "zero_off_diagonal"])
    def test_negative_diagonal_within_the_slack(self, diag, off, error):
        # the slack is 1e-12 * 1e13 = 10; the positivity test skips the
        # diagonal, so any diagonal entry within the slack passes
        d = [[diag, 1e13, 1e13], [1e13, 0, off], [1e13, off, 0]]
        if error is None:
            np.testing.assert_array_equal(np.diag(validate_metric(None, d).dist), 0.0)
            return
        with pytest.raises(error) as exc:
            validate_metric(None, d)
        assert exc.value.i == (0 if error is NonzeroDiagonal else 1)

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

    def test_distances_near_the_largest_float_do_not_overflow(self):
        # a + a.T overflows here, which pytest's RuntimeWarning filter turns
        # into an error; halving first keeps the value and the symmetry
        X = validate_metric(None, [[0, 1e308], [1e308, 0]])
        assert X.dist[0, 1] == X.dist[1, 0] == 1e308
        a = 1.7e308
        b = math.nextafter(a, math.inf)
        X = validate_metric(None, [[0, a], [b, 0]])
        assert X.dist[0, 1] == X.dist[1, 0] == 0.5 * a + 0.5 * b

    def test_asymmetry_that_overflows_is_typed(self):
        # a - a.T overflows to inf, which exceeds any slack; pytest's
        # RuntimeWarning filter would turn a warning into the error instead
        for big in (1e308, 1.7e308):
            with pytest.raises(AsymmetricEntry) as exc:
                validate_metric(None, [[0, big], [-big, 0]])
            assert (exc.value.i, exc.value.j) == (0, 1)

    def test_near_max_metrics_validate_without_overflow(self):
        # the path 5e307 * |i - k| is a metric, but d(i,j) + d(j,k) overflows
        # for some triples; an overflowed bound is inf, which no triple exceeds
        x = np.arange(4.0)
        d = 5e307 * np.abs(x[:, None] - x)
        np.testing.assert_array_equal(validate_metric(None, d).dist, d)
        d[3, 1] = d[1, 3] = 1.6e308  # past d(1,2) + d(2,3) = 1e308
        with np.errstate(over="ignore"):
            want = first_triangle_violation(d, REL_TOL * float(d.max()))
        with pytest.raises(TriangleViolation) as exc:
            validate_metric(None, d)
        assert (exc.value.i, exc.value.j, exc.value.k) == want == (1, 2, 3)

    def test_diagonal_slack_beside_the_largest_float(self):
        # the diagonal is within the slack; its negative entry sends it to
        # the test of the triples (i, i, k), where d(0,0) + d(0,1) overflows,
        # and an overflowed sum passes
        top = np.finfo(float).max
        d = [[1e295, top, 1e308], [top, -0.5, 1e308], [1e308, 1e308, 0.0]]
        np.testing.assert_array_equal(validate_metric(None, d).dist,
                                      [[0, top, 1e308], [top, 0, 1e308], [1e308, 1e308, 0]])

    def test_negative_diagonal_beside_half_the_largest_float(self):
        # the certificate's d(0,0) - (r_0 + c_0) overflows to -inf, which
        # passes, with no numpy warning
        d = [[-4.494232837155789e295, 8.988465674311579e307], [8.988465674311579e307, 0.0]]
        np.testing.assert_array_equal(validate_metric(None, d).dist,
                                      [[0.0, 8.988465674311579e307], [8.988465674311579e307, 0.0]])

    def test_immutable(self):
        X = validate_metric(None, [[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            X.dist[0, 1] = 5.0


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 7).flatmap(lambda m: st.lists(
    st.one_of(st.integers(1, 4).map(float), st.floats(0.1, 3.0)),
    min_size=m * (m - 1) // 2, max_size=m * (m - 1) // 2)))
def test_validate_metric_agrees_with_a_plain_loop(upper):
    # symmetric positive matrices, integral entries for exact ties: the
    # matrix passes exactly when no triple fails, and a named triple fails
    m = next(m for m in range(3, 8) if m * (m - 1) // 2 == len(upper))
    d = np.zeros((m, m))
    d[np.triu_indices(m, 1)] = upper
    d += d.T
    tol = REL_TOL * float(d.max())
    fails = any(d[i, k] - (d[i, j] + d[j, k]) > tol
                for i in range(m) for j in range(m) for k in range(m))
    if not fails:
        np.testing.assert_array_equal(validate_metric(None, d).dist, d)
        return
    with pytest.raises(TriangleViolation) as exc:
        validate_metric(None, d)
    i, j, k = exc.value.i, exc.value.j, exc.value.k
    assert d[i, k] - (d[i, j] + d[j, k]) > tol


def _validation(validate, labels, a):
    """The bits of the space validate builds from a, or its error."""
    try:
        X = validate(labels, a)
    except (NegTypeError, ValueError) as exc:
        return type(exc), str(exc)
    return X.labels, X.dist.tobytes()


@st.composite
def _raw_matrices(draw):
    """Square matrices at the edges of validation: exactly symmetric,
    asymmetric within and past the slack, +-0.0 off the diagonal, entries
    near the largest float, a small diagonal and stretched triangles."""
    m = draw(st.integers(2, 6))
    top = draw(st.sampled_from([1.0, 3e-300, 1e300, np.finfo(float).max]))
    low = draw(st.sampled_from([0.1, 0.5]))  # 0.5: every triangle holds
    upper = draw(st.lists(st.floats(low, 1.0), min_size=m * (m - 1) // 2,
                          max_size=m * (m - 1) // 2))
    a = np.zeros((m, m))
    a[np.triu_indices(m, 1)] = np.array(upper) * top
    a += a.T
    tol = REL_TOL * float(a.max())
    pair = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(lambda t: t[0] != t[1])
    with np.errstate(over="ignore"):
        if draw(st.booleans()):  # stretch one distance past a triangle, or to inf
            (i, k), f = draw(pair), draw(st.sampled_from([1.0 + 1e-13, 1.5, 2.5]))
            a[i, k] = a[k, i] = a[i, k] * f
        for _ in range(draw(st.integers(0, 2))):  # one side moved within or past the slack
            (i, j), f = draw(pair), draw(st.sampled_from([-0.999, -0.5, 0.25, 1.5, -4.0, 1e6]))
            a[i, j] += f * tol
        if draw(st.booleans()):  # a diagonal entry within or past the slack
            i, f = draw(st.integers(0, m - 1)), draw(st.sampled_from([0.5, -0.5, -1.0, 2.0]))
            a[i, i] = f * tol
        if draw(st.booleans()):  # a signed zero off the diagonal, on one side or both
            (i, j), z = draw(pair), draw(st.sampled_from([0.0, -0.0]))
            a[i, j] = z
            if draw(st.booleans()):
                a[j, i] = -z
    return a


@settings(max_examples=400, deadline=None)
@given(_raw_matrices(), st.booleans())
def test_validate_metric_agrees_with_the_checks_in_turn(a, labelled):
    # an exactly symmetric matrix skips the asymmetry pass and the
    # symmetrizing sum: the same bits or the same error as every check on
    # the whole matrix, and the caller's array is never written
    labels = [f"p{i}" for i in range(len(a))] if labelled else None
    before = a.tobytes()
    got = _validation(validate_metric, labels, a)
    assert a.tobytes() == before
    assert got == _validation(reference_validate_metric, labels, a)


class TestViolationDecision:
    """metric._violation decides and names what the literal triple loop
    finds, for the triangle and the ultrametric bound."""

    @staticmethod
    def literal(d, tol, bound):
        with np.errstate(over="ignore"):  # an overflowed sum is inf, as in the scan
            return first_triangle_violation(d, tol, bound=bound)

    def check(self, d, tol):
        verdicts = []
        for bound in (np.add, np.maximum):
            want = self.literal(d, tol, bound)
            got = metric._violation(d, bound, tol)
            assert got == want
            if got is not None:  # it fails the scan's own test
                i, j, k = got
                with np.errstate(over="ignore"):
                    assert d[i, k] - bound(d[i, j], d[j, k]) > tol
            verdicts.append(want)
        return verdicts

    @staticmethod
    def path_with_raised_pair(rng, m, lower):
        """|x_i - x_k| for distinct integers x, with d[i,k] = d[k,i] raised
        0.9 slack above the path through the points between them, then
        d[i,k] alone 0.5 slack more: only triples (i, j, k) fail, with i > k
        when ``lower`` and i < k otherwise, and d is within the slack of d.T."""
        x = rng.permutation(m).astype(float)
        d = np.abs(x[:, None] - x)
        tol = REL_TOL * float(d.max())
        i, k = np.argwhere(d >= 2)[int(rng.integers(np.count_nonzero(d >= 2)))]
        if (i > k) != lower:
            i, k = k, i
        d[i, k] = d[k, i] = d[i, k] + 0.9 * tol
        d[i, k] += 0.5 * tol
        return d, tol, (int(i), int(k))

    def test_agrees_with_the_literal_loop(self):
        # exactly symmetric metrics, some stretched; the same within tol of
        # symmetric; diagonals of +-tol; everything scaled near the largest
        # float; uniform matrices that fail at once
        rng = np.random.default_rng(61)
        seen = set()
        for trial in range(240):
            m = int(rng.integers(2, 10))
            kind = trial % 3
            if kind == 0:
                d = np.array(random_space(rng, min_n=max(m, 3), max_n=max(m, 3)).dist)
            elif kind == 1:
                d = np.array(random_ultrametric(m, int(rng.integers(1000))).dist)
            else:
                d = rng.uniform(0.1, 3.0, (m, m))
                d = np.triu(d, 1) + np.triu(d, 1).T
            m = len(d)
            i, k = rng.choice(m, size=2, replace=False)
            d[i, k] = d[k, i] = d[i, k] * rng.choice([1.0, 1.0 + 1e-13, 1.5, 2.5])
            if trial % 4 == 1:
                d *= 1.5e308 / float(d.max())
            tol = REL_TOL * float(d.max())
            symmetric = trial % 2 == 0
            if not symmetric:
                d += np.triu(rng.uniform(-0.5, 0.5, (m, m)), 1) * tol
            if trial % 5 == 2:
                np.fill_diagonal(d, rng.choice([tol, -tol, 0.5 * tol, -0.5 * tol], size=m))
            add, ultra = self.check(d, tol)
            seen.add((symmetric, add is None, ultra is None))
        assert seen >= {(s, a, u) for s in (True, False) for a, u in
                         ((True, True), (True, False), (False, False))}

    @pytest.mark.parametrize("lower", [True, False], ids=["i>k", "i<k"])
    def test_violation_on_one_side_of_an_asymmetric_matrix(self, lower):
        # d is within the slack of d.T, so only the full block finds these
        rng = np.random.default_rng(67)
        for _ in range(30):
            d, tol, (i, k) = self.path_with_raised_pair(rng, int(rng.integers(3, 10)), lower)
            want, _ = self.check(d, tol)
            assert (want[0], want[2]) == (i, k)
            with pytest.raises(TriangleViolation) as exc:
                validate_metric(None, d)
            assert (exc.value.i, exc.value.j, exc.value.k) == want

    def test_violation_on_the_diagonal_alone(self):
        # direct matrices: a diagonal entry above twice every other entry
        # fails only the triples (k, j, k); one of -2 tol fails (k, k, k)
        for m in (2, 3, 6):
            for k in range(m):
                d = 1.0 - np.eye(m)
                d[k, k] = 3.0
                add, ultra = self.check(d, REL_TOL * 3.0)
                assert add[0] == add[2] == ultra[0] == ultra[2] == k
                d[k, k] = -2 * REL_TOL
                add, ultra = self.check(d, REL_TOL)
                assert add is not None and ultra is None

    def test_nan_entries_are_skipped_as_the_scan_skips_them(self):
        # a NaN bound or slack never fails the scan's test, but the other
        # triples in its row and pivot still do
        rng = np.random.default_rng(71)
        found = 0
        for _ in range(60):
            m = int(rng.integers(4, 10))
            d, tol, (i, k) = self.path_with_raised_pair(rng, m, bool(rng.integers(2)))
            for r, c in rng.choice(m, size=(int(rng.integers(1, 4)), 2)):
                d[r, c] = np.nan
            d[i, int(rng.integers(m))] = d[int(rng.integers(m)), k] = np.nan
            add, ultra = self.check(d, tol)
            found += add is not None
            X = MetricSpace(default_labels(m), d)
            # the slack of is_ultrametric, from the largest distance that is not NaN
            want = self.literal(X.dist, REL_TOL * float(np.nanmax(X.dist)), np.maximum) is None
            assert is_ultrametric(X) == want
        assert 0 < found < 60

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

    def test_matches_full_scan_at_the_slack_edge(self):
        # ultrametrics with entries moved to either side of the slack, each
        # compared with the literal triple loop of the scan's own test; the
        # corpus reaches both exits: the subdominant comparison certifies, or
        # it fails and the scan rejects (the test below reaches the third,
        # where it fails and the scan accepts)
        rng = np.random.default_rng(29)
        exits = set()
        for trial in range(300):
            n = int(rng.integers(3, 13))
            d = np.array(random_ultrametric(n, seed=trial).dist)
            tol = REL_TOL * float(d.max())
            for _ in range(int(rng.integers(1, 4))):
                i, k = rng.choice(n, size=2, replace=False)
                c = rng.choice([-3.0, -1.0, 0.5, 0.999, 1.0, 1.001, 1.5, 3.0])
                d[i, k] = d[k, i] = d[i, k] + c * tol
            X = validate_metric(None, d)
            tol = REL_TOL * float(X.dist.max())
            viol = first_triangle_violation(X.dist, tol, bound=max)
            assert is_ultrametric(X) == (viol is None)
            exits.add(("violates" if viol else "holds",
                       "passes" if _within_subdominant(X.dist, tol) else "fails"))
        assert exits >= {("violates", "fails"), ("holds", "passes")}

    def test_near_max_metrics(self):
        # the path metric is not ultrametric; an ultrametric near the largest
        # float, and one whose slack is spread over a chain so that it
        # reaches the scan, are
        x = np.arange(4.0)
        assert not is_ultrametric(validate_metric(None, 5e307 * np.abs(x[:, None] - x)))
        assert is_ultrametric(validate_metric(None, 8e307 * random_ultrametric(9, 3).dist))
        tol = REL_TOL * (1 + 1.6e-12)
        a, b = 1 + 0.8 * tol, 1 + 1.6 * tol
        chain = 1.5e308 * np.array([[0, 1, a, b], [1, 0, 1, a], [a, 1, 0, 1], [b, a, 1, 0]])
        X = validate_metric(None, chain)
        assert not _within_subdominant(X.dist, REL_TOL * float(X.dist.max()))
        assert is_ultrametric(X)

    def test_slack_spread_over_a_chain_falls_back_to_the_scan(self):
        # every triple is within the slack, but d(0,3) exceeds the tree's
        # heaviest edge by 1.6 slacks: the certificate fails, the scan passes
        tol = REL_TOL * (1 + 1.6e-12)
        a, b = 1 + 0.8 * tol, 1 + 1.6 * tol
        X = validate_metric(None, [[0, 1, a, b], [1, 0, 1, a], [a, 1, 0, 1], [b, a, 1, 0]])
        assert not _within_subdominant(X.dist, REL_TOL * float(X.dist.max()))
        assert is_ultrametric(X)


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

    def test_too_few_edges_raise_before_any_allocation(self, monkeypatch):
        # an n x n array at n = 10**8 would need 80 PB; fewer than n - 1
        # edges between distinct vertices cannot connect n vertices
        with pytest.raises(DisconnectedGraph, match="not connected"):
            from_graph(10**8, [(0, 1, 1.0)])
        with monkeypatch.context() as patch:
            def full(*args, **kwargs):
                raise AssertionError("an n x n array was built")

            patch.setattr(np, "full", full)
            for n in (3, 5, 40):
                with pytest.raises(DisconnectedGraph, match="not connected"):
                    from_graph(n, [(i, i + 1, 1.0) for i in range(n - 2)])
        with pytest.raises(DisconnectedGraph, match="not connected"):
            from_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (3, 3, 1.0)])
        # the edge checks still come first, and parallel edges still count
        with pytest.raises(NonpositiveWeight):
            from_graph(10**8, [(0, 1, -1.0)])
        with pytest.raises(DisconnectedGraph, match="not connected"):
            from_graph(4, [(0, 1, 1.0), (1, 0, 2.0), (2, 3, 1.0)])

    @pytest.mark.parametrize("n, edges", [
        (3, [(0, 1, 1e308), (1, 2, 1e308)]),  # Floyd-Warshall
        (12, [(i, i + 1, 1e308) for i in range(11)]),  # Dijkstra
    ], ids=["dense", "sparse"])
    def test_overflowed_path_is_not_disconnected(self, n, edges):
        with pytest.raises(NonpositiveDistance, match="path length overflows") as exc:
            from_graph(n, edges)
        assert (exc.value.i, exc.value.j) == (0, 2)

    def test_nonpositive_weight(self):
        with pytest.raises(NonpositiveWeight):
            from_graph(2, [(0, 1, 0.0)])

    @pytest.mark.parametrize("n", [2.5, math.nan, math.inf, True, np.bool_(True), "3", None],
                             ids=["fraction", "nan", "inf", "bool", "numpy_bool", "str", "none"])
    def test_n_must_be_an_integer(self, n):
        # 2.5 raised DisconnectedGraph and True NotSquare
        with pytest.raises(ValueError, match=re.escape(f"graph n must be an integer, got {n!r}")):
            from_graph(n, [(0, 1, 1.0)])

    @pytest.mark.parametrize("n", [3.0, np.float64(3.0), np.int64(3)],
                             ids=["float", "numpy_float", "numpy_int"])
    def test_integral_n_reads_as_int(self, n):
        # 3.0 died in np.full with a TypeError
        path = [(0, 1, 1.0), (1, 2, 1.0)]
        assert from_graph(n, path).dist.tobytes() == from_graph(3, path).dist.tobytes()

    def test_parallel_edges_keep_lighter(self):
        X = from_graph(2, [(0, 1, 3.0), (1, 0, 1.0)])
        assert X.dist[0, 1] == 1.0

    def test_same_direction_parallel_edges_keep_lighter(self):
        # a sparse matrix built from the edge list would sum the two weights
        X = from_graph(2, [(0, 1, 3.0), (0, 1, 1.0)])
        assert X.dist[0, 1] == 1.0
        Y = from_graph(12, [(i, i + 1, 2.0) for i in range(11)] + [(0, 1, 1.0), (0, 1, 5.0)])
        assert Y.dist[0, 1] == 1.0 and Y.dist[0, 11] == 21.0

    def test_trees_have_strict_one_negative_type(self):
        # finite metric trees have strict 1-negative type, so their supremal
        # exponent exceeds 1 (Hjorth-Lisonek-Markvorsen-Thomassen 1998); at
        # these sizes the edge count selects Dijkstra
        rng = np.random.default_rng(31)
        for n in (10, 14, 23, 40):
            edges = [(v, int(rng.integers(0, v)), float(rng.uniform(0.5, 2.0)))
                     for v in range(1, n)]
            T = from_graph(n, edges)
            assert first_triangle_violation(T.dist, REL_TOL * float(T.dist.max())) is None
            assert classify(T, 1.0).classification is Classification.STRICT
            sup = supremal(T)
            assert sup.status is SupremalStatus.FINITE and sup.lo > 1.0

    def test_dijkstra_and_floyd_warshall_agree(self):
        # the same weighted graphs, sparse enough for Dijkstra, then padded
        # with heavy edges that no shortest path uses until Floyd-Warshall runs
        rng = np.random.default_rng(37)
        for n in (24, 40):
            ring = [(i, (i + 1) % n, float(rng.uniform(0.5, 2.0))) for i in range(n)]
            chords = [(int(rng.integers(n)), int(rng.integers(n)), float(rng.uniform(0.5, 2.0)))
                      for _ in range(n // 3)]
            heavy = [(i, j, 1e3) for i in range(n) for j in range(i + 1, n)]
            sparse, dense = from_graph(n, ring + chords), from_graph(n, ring + chords + heavy)
            np.testing.assert_allclose(sparse.dist, dense.dist, rtol=4 * n * 2.0**-53, atol=0)

    def test_first_bad_edge_is_reported(self):
        with pytest.raises(NonpositiveWeight) as exc:
            from_graph(3, [(0, 1, 1.0), (2, 1, -1.0), (0, 5, 1.0)])
        assert (exc.value.i, exc.value.j) == (2, 1)
        with pytest.raises(ValueError, match=r"out of range: \(0,5\)"):
            from_graph(3, [(0, 1, 1.0), (0, 5, 1.0), (1, 2, math.nan)])

    def test_endpoints_checked_before_the_integer_cast(self):
        # a cast of 1e20 to a machine integer would wrap around
        for bad in (1e20, -1e20, -1, 3, math.nan, math.inf):
            with pytest.raises(ValueError, match="out of range"):
                from_graph(3, [(0, 1, 1.0), (0, bad, 1.0)])
        # in range, endpoints truncate toward zero as int() does
        X = from_graph(3, [(0.9, 1.5, 1.0), (-0.5, 2.99, 3.0)])
        assert X.dist[0, 1] == 1.0 and X.dist[0, 2] == 3.0

    def test_self_loops_are_skipped_whatever_their_weight(self):
        X = from_graph(2, [(0, 0, -1.0), (1, 1, math.nan), (0, 1, 2.0)])
        assert X.dist[0, 1] == 2.0

    def test_edge_checks_match_an_edge_by_edge_reference(self):
        def reference(n, edges):
            w = np.full((n, n), np.inf)
            for i, j, weight in edges:
                i, j, weight = int(i), int(j), float(weight)
                if not (0 <= i < n and 0 <= j < n):
                    return ValueError(f"edge endpoint out of range: ({i},{j})")
                if i == j:
                    continue
                if not math.isfinite(weight) or weight <= 0:
                    return NonpositiveWeight(i, j)
                w[i, j] = w[j, i] = min(w[i, j], weight)
            return w

        def outcome(n, edges):
            try:
                return from_graph(n, edges).dist.tobytes()
            except (ValueError, NonpositiveWeight, DisconnectedGraph) as exc:
                return type(exc), str(exc)

        rng = np.random.default_rng(53)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(2, 7))
            edges = [(int(rng.integers(0, n)) if rng.random() < 0.9 else float(rng.uniform(-2, n + 2)),
                      int(rng.integers(0, n)) if rng.random() < 0.9 else int(rng.integers(-2, n + 2)),
                      float(rng.uniform(0.5, 2.0)) if rng.random() < 0.85
                      else float(rng.choice([0.0, -1.0, math.inf, math.nan])))
                     for _ in range(int(rng.integers(0, 12)))]
            want = reference(n, edges)
            got = outcome(n, edges)
            if isinstance(want, Exception):
                assert got == (type(want), str(want))
            else:  # one edge per pair, at the lighter of its parallel weights
                lighter = [(i, j, want[i, j]) for i, j in zip(*np.nonzero(np.triu(np.isfinite(want), 1)))]
                assert got == outcome(n, lighter)
            seen.add(got[0] if isinstance(got, tuple) else "ok")
        assert seen == {ValueError, NonpositiveWeight, DisconnectedGraph, "ok"}

    def test_edges_must_be_triples(self):
        with pytest.raises(ValueError, match="edges must be"):
            from_graph(3, [(0, 1)])

    def test_shortcut_beats_direct_edge(self):
        X = from_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        assert X.dist[0, 2] == 2.0


class TestFromPoints:
    def test_line(self):
        X = from_points([[0.0], [1.0], [2.0]], q=2)
        np.testing.assert_allclose(X.dist, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_one_dimensional_coordinates(self):
        X = from_points([0.0, 1.0, 3.0])
        np.testing.assert_array_equal(X.dist, [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        with pytest.raises(NotSquare):
            from_points([[0.0, 0.0]])

    def test_unit_square_l1_matches_four_cycle(self, four_cycle):
        corners = [[0, 0], [1, 0], [1, 1], [0, 1]]
        X = from_points(corners, q=1)
        np.testing.assert_allclose(X.dist, four_cycle.dist)

    def test_duplicate_point(self):
        with pytest.raises(DuplicatePoint) as exc:
            from_points([[0, 0], [1, 1], [0, 0]])
        assert (exc.value.i, exc.value.j) == (0, 2)

    def test_underflow_and_overflow_are_not_duplicates(self):
        # no two rows are equal; at q = 500 the powers of these differences
        # underflow to 0 (seed 5) or overflow (seed 1)
        pts = np.random.default_rng(5).standard_normal((20, 3))
        assert len(np.unique(pts, axis=0)) == 20
        with pytest.raises(NonpositiveDistance, match="underflows to 0 at q = 500") as exc:
            from_points(pts, q=500)
        assert (exc.value.i, exc.value.j) == (9, 11)
        with pytest.raises(NonpositiveDistance, match="overflows at q = 500"):
            from_points(np.random.default_rng(1).standard_normal((20, 3)), q=500)
        with pytest.raises(NonpositiveDistance, match="underflows to 0 at q = 2"):
            from_points([[0.0, 0.0], [1e-170, 0.0], [1.0, 0.0]], q=2)

    def test_large_q_rounding_keeps_the_scan(self):
        # a true l_80 cloud whose computed distances break the triangle
        # inequality beyond the slack: its underflow floor is far above
        # REL_TOL * max d, so the scan runs and reports the triple the
        # literal loop finds first on scipy's distances
        pts = 1e-3 * np.random.default_rng(26).standard_normal((80, 3))
        with pytest.raises(TriangleViolation) as exc:
            from_points(pts, q=80)
        d = cdist(pts, pts, "minkowski", p=80)
        want = first_triangle_violation(d, REL_TOL * float(d.max()))
        assert (exc.value.i, exc.value.j, exc.value.k) == want == (2, 59, 52)

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, np.inf])
    def test_outputs_satisfy_the_triangle_inequality(self, q):
        rng = np.random.default_rng(41)
        for scale in (1e-100, 1e-3, 1.0, 1e50):
            for dim in (1, 3, 8):
                pts = scale * rng.standard_normal((14, dim))
                pts[1] = pts[0] + scale * 1e-6  # a near-duplicate pair
                X = from_points(pts, q=q)
                d = X.dist
                assert first_triangle_violation(d, REL_TOL * float(d.max())) is None
                # a lattice with exactly collinear triples
                Y = from_points(scale * np.arange(12.0)[:, None] * np.ones(dim), q=q)
                assert first_triangle_violation(Y.dist, REL_TOL * float(Y.dist.max())) is None

    def test_invalid_norm_order(self):
        with pytest.raises(InvalidNormOrder):
            from_points([[0], [1]], q=0.5)

    @pytest.mark.parametrize("q", [True, False, np.bool_(True), "2", b"2"],
                             ids=["true", "false", "numpy_bool", "str", "bytes"])
    def test_norm_order_that_is_not_a_number(self, q):
        # float() reads True as the l1 metric and "2" as the l2 one
        with pytest.raises(InvalidNormOrder, match=re.escape(f"q = {q!r}")):
            from_points([[0], [1]], q=q)

    def test_chebyshev(self):
        X = from_points([[0, 0], [3, 1]], q=np.inf)
        assert X.dist[0, 1] == 3.0


class TestStringEntries:
    """numpy's float conversion reads "1" as 1.0; a space takes numbers only."""

    @pytest.mark.parametrize("build, field, entries", [
        (lambda x: validate_metric(None, x), "matrix", [
            [[0, "1"], ["1", 0]], [["0", "1"], ["1", "0"]], [[0, b"1"], [b"1", 0]],
            [[0, "1"], [None, 0]]]),
        (lambda x: from_graph(2, x), "edges", [
            [[0, 1, "2.5"]], [[0, 1, 1.0], ["0", 1, 1.0]], [[0, 1, "2.5"], [0, 1, None]]]),
        (lambda x: from_points(x), "coords", [
            [["0", "0"], ["3", "4"]], [[0, 0], [3, "4"]], ["0", "1"], [[0, None], [1, "4"]]]),
    ], ids=["matrix", "edges", "coords"])
    def test_rejected_with_the_field_named(self, build, field, entries):
        # a mix of strings and numbers is all strings to numpy, and a mix
        # with None an object array
        for x in entries:
            with pytest.raises(ValueError, match=f"^{field} entries must be numbers"):
                build(x)

    def test_numbers_give_the_bits_they_gave(self):
        # ints, floats and numpy arrays convert as np.asarray(x, dtype=float) did
        d = [[0, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]]
        for x in (d, np.array(d), np.array(d, dtype=np.float32), [[0, 1], [1, 0]]):
            want = np.asarray(x, dtype=float)
            np.testing.assert_array_equal(validate_metric(None, x).dist, want)
        path = [[0, 1, 1], [1, 2, 2.5]]
        assert from_graph(3, path).dist.tobytes() == from_graph(3, np.array(path, float)).dist.tobytes()
        assert from_points([[0, 0], [3, 4]]).dist[0, 1] == 5.0


class TestRandomUltrametric:
    def test_two_points(self):
        assert random_ultrametric(2, seed=0).size == 2
        with pytest.raises(NotSquare):
            random_ultrametric(1)

    @pytest.mark.parametrize("n", [True, "4", 4.5, None, math.nan],
                             ids=["bool", "str", "fraction", "none", "nan"])
    def test_n_must_be_an_integer(self, n):
        # 4.5 and "4" raised TypeError from numpy or from <
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {n!r}")):
            random_ultrametric(n, seed=3)

    @pytest.mark.parametrize("n", [4.0, np.float64(9.0), np.int64(9)],
                             ids=["float", "numpy_float", "numpy_int"])
    def test_integral_n_reads_as_int(self, n):
        # the same rng draws, so the same bits
        assert random_ultrametric(n, 3).dist.tobytes() == random_ultrametric(int(n), 3).dist.tobytes()

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

    @pytest.mark.parametrize("n", [2, 3, 5, 40, 150, 350])
    def test_built_with_the_bits_validation_gives(self, n, monkeypatch):
        # the fill meets every axiom, so the generator skips validation;
        # validating its matrix returns it unchanged
        calls = []
        real = metric._validated

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(metric, "_validated", spy)
        spaces = [random_ultrametric(n, seed) for seed in (0, 1, 5, 77)]
        assert calls == []
        monkeypatch.undo()
        for U in spaces:
            for V in (validate_metric(None, U.dist), reference_validate_metric(None, U.dist)):
                assert U.labels == V.labels == default_labels(n)
                assert U.dist.tobytes() == V.dist.tobytes()
            assert is_ultrametric(U)

    @pytest.mark.parametrize("n", [2, 3, 9, 40, 350])
    def test_bits_of_the_reference_loop(self, n):
        # the criterion-7 and acceptance corpora are drawn through this
        # generator: a changed rng stream or fill must fail here
        for seed in (0, 1, 5, 77, 2024):
            got = random_ultrametric(n, seed).dist
            want = reference_ultrametric(n, seed)
            assert got.tobytes() == want.tobytes(), (n, seed)


def test_generated_spaces_validate():
    # generators skip the triangle scan inside their error bounds; the full
    # validation of the stored matrix must succeed and be idempotent
    for X in (
        from_graph(6, [(i, (i + 1) % 6, 1.0) for i in range(6)]),
        from_points(np.random.default_rng(3).standard_normal((5, 3))),
        random_ultrametric(7, seed=5),
    ):
        Y = validate_metric(X.labels, X.dist)
        np.testing.assert_array_equal(X.dist, Y.dist)


def test_generator_outputs_have_no_violating_triple():
    # brute force over sparse, dense and weighted graphs and ultrametrics
    rng = np.random.default_rng(43)
    spaces = [random_ultrametric(n, seed=s) for n in (3, 9, 16) for s in (0, 1)]
    for n in (3, 9, 16):
        spaces += [
            from_graph(n, [(i, (i + 1) % n, 1.0) for i in range(n)]),
            from_graph(n, [(i, i + 1, float(rng.uniform(1e-3, 1e3))) for i in range(n - 1)]),
            from_graph(n, [(i, j, float(rng.uniform(0.5, 2.0)))
                           for i in range(n) for j in range(i + 1, n)]),
            from_graph(n, [(i, j, float(rng.lognormal(0.0, 3.0)))
                           for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
                       + [(i, i + 1, 50.0) for i in range(n - 1)]),
        ]
    for X in spaces:
        assert first_triangle_violation(X.dist, REL_TOL * float(X.dist.max())) is None


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
