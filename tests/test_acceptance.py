"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import angular_deviation, probe_bound, random_refined_simplex, random_space
from negtype import (
    Classification,
    IntervalKind,
    NegTypeError,
    NotApplicable,
    SignedSimplex,
    SupremalStatus,
    WitnessMethod,
    classify,
    from_points,
    gap,
    is_ultrametric,
    polygonal_interval,
    quad_form,
    random_ultrametric,
    simplex_to_vector,
    supremal,
    validate_metric,
    verify_equality,
    witness_at_p,
    witness_at_supremal,
)
from negtype.cli import main


@contextmanager
def criterion(num: int, name: str, limit_s: float):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok and elapsed < limit_s else "FAIL"
        print(f"\n[acceptance {num}] {name}: {status} ({elapsed:.2f}s, limit {limit_s:g}s)")
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds {limit_s:g}s"


def test_criterion_1_two_point_anchor(tmp_path, capsys):
    with criterion(1, "two-point anchor", 1.0):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            d = float(rng.uniform(0.2, 5.0))
            X = validate_metric(None, [[0.0, d], [d, 0.0]])
            t = float(rng.uniform(-2.0, 2.0))
            for p in (0.0, 0.5, 1.0, 2.0, 7.0):
                got = quad_form(X, p, [t, -t])
                want = -2.0 * t * t * d**p
                assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

        space = tmp_path / "pair.json"
        space.write_text(json.dumps({"matrix": [[0, 1], [1, 0]]}))
        assert main(["interval", str(space)]) == 0
        assert "∅" in capsys.readouterr().out


def test_criterion_2_collinear_triple(collinear):
    with criterion(2, "collinear triple", 1.0):
        sup = supremal(collinear)
        assert sup.status is SupremalStatus.FINITE
        assert sup.midpoint == pytest.approx(2.0, abs=1e-8)

        assert classify(collinear, 1.9).classification is Classification.STRICT
        assert classify(collinear, 2.0).classification is Classification.BOUNDARY
        assert classify(collinear, 2.1).classification is Classification.NOT_NEG_TYPE

        w = witness_at_supremal(collinear, sup)
        assert angular_deviation(w.xi.weights, [1.0, -2.0, 1.0]) <= 1e-6

        Q = SignedSimplex(((0, 1.0), (2, 1.0)), ((1, 2.0),))
        rep = verify_equality(collinear, 2.0, Q)
        assert rep.holds and rep.nontrivial
        assert abs(rep.lhs - rep.rhs) <= 1e-12
        assert rep.lhs == 4.0 and rep.rhs == 4.0


def test_criterion_3_four_cycle(four_cycle):
    with criterion(3, "four-cycle", 1.0):
        sup = supremal(four_cycle)
        assert sup.midpoint == pytest.approx(1.0, abs=1e-8)

        target = [1.0, -1.0, 1.0, -1.0]
        assert angular_deviation(witness_at_p(four_cycle, 1.0).xi.weights, target) <= 1e-6
        assert angular_deviation(witness_at_supremal(four_cycle, sup).xi.weights, target) <= 1e-6

        iv = polygonal_interval(four_cycle, sup)
        assert iv.kind is IntervalKind.RAY
        assert iv.describe() == "[1.0000, ∞)"


def test_criterion_4_link_identity():
    with criterion(4, "link identity", 10.0):
        rng = np.random.default_rng(4001)
        for _ in range(1000):
            X = random_space(rng, max_n=10)
            Q = random_refined_simplex(X, rng)
            p = float(rng.uniform(0.0, 8.0))
            g = gap(X, p, Q)
            f = quad_form(X, p, simplex_to_vector(X, Q))
            scale = max(1.0, abs(g), 0.5 * abs(f))
            assert abs(g + 0.5 * f) <= 1e-9 * scale


def test_criterion_5_dichotomy_suite():
    with criterion(5, "dichotomy suite", 60.0):
        rng = np.random.default_rng(5001)
        strict_cases = witness_cases = 0
        for _ in range(200):
            X = random_space(rng, min_n=3, max_n=8)
            for p in rng.uniform(0.05, 8.0, size=5):
                p = float(p)
                cls = classify(X, p).classification
                if cls is Classification.STRICT:
                    strict_cases += 1
                    with pytest.raises(NotApplicable):
                        witness_at_p(X, p)
                elif cls is Classification.NOT_NEG_TYPE:
                    witness_cases += 1
                    w = witness_at_p(X, p)
                    assert w.method is WitnessMethod.IVT
                    assert np.linalg.norm(w.xi.weights) > 0
                    assert w.residual <= 1e-8
                    rep = verify_equality(X, p, w.simplex)
                    assert rep.holds and rep.nontrivial
        assert strict_cases > 100 and witness_cases > 100


def test_criterion_6_interval_structure():
    with criterion(6, "interval structure", 120.0):
        rng = np.random.default_rng(6001)
        finite = 0
        attempts = 0
        while finite < 100:
            attempts += 1
            assert attempts <= 200, "too few FINITE supremal results"
            X = random_space(rng)
            sup = supremal(X)
            if sup.status is not SupremalStatus.FINITE:
                continue
            finite += 1
            assert sup.lo > 0
            below = max(sup.lo - 0.05, 0.0)
            assert classify(X, below).classification is Classification.STRICT
            assert classify(X, sup.hi + 0.05).classification is Classification.NOT_NEG_TYPE


def _break_ultrametricity(X, rng):
    """Scale one distance by +-5% so the result is metric but not ultrametric."""
    m = X.size
    for _ in range(500):
        i, j = sorted(map(int, rng.choice(m, size=2, replace=False)))
        factor = 1.05 if rng.random() < 0.5 else 0.95
        d = np.array(X.dist)
        d[i, j] = d[j, i] = factor * d[i, j]
        try:
            Y = validate_metric(X.labels, d)
        except NegTypeError:
            continue
        if not is_ultrametric(Y):
            return Y
    raise AssertionError("no single perturbation broke ultrametricity")


def test_criterion_7_ultrametric_characterization():
    with criterion(7, "ultrametric characterization", 30.0):
        rng = np.random.default_rng(7001)
        for trial in range(50):
            n = int(rng.integers(3, 13))
            X = random_ultrametric(n, seed=int(rng.integers(0, 2**31)))
            sup = supremal(X)
            assert sup.status is SupremalStatus.INFINITE_ULTRAMETRIC
            assert polygonal_interval(X, sup).kind is IntervalKind.EMPTY

            Y = _break_ultrametricity(X, rng)
            sup_y = supremal(Y)
            assert sup_y.status is not SupremalStatus.INFINITE_ULTRAMETRIC
            if sup_y.status is SupremalStatus.FINITE:
                assert sup_y.evaluations <= probe_bound(sup_y)


def test_criterion_8_scale_invariance():
    with criterion(8, "scale invariance", 60.0):
        rng = np.random.default_rng(8001)
        width_tol = 1e-10
        for _ in range(50):
            X = random_space(rng)
            ps = [float(p) for p in rng.uniform(0.1, 6.0, size=3)]
            sup_x = supremal(X, width_tol=width_tol)
            for c in (0.1, 3.0):
                Y = validate_metric(X.labels, c * X.dist)
                for p in ps:
                    assert classify(X, p).classification is classify(Y, p).classification
                sup_y = supremal(Y, width_tol=width_tol)
                assert sup_x.status is sup_y.status
                if sup_x.status is SupremalStatus.FINITE:
                    assert abs(sup_x.lo - sup_y.lo) <= 2 * width_tol
                    assert abs(sup_x.hi - sup_y.hi) <= 2 * width_tol


def test_criterion_9_hilbert_criterion():
    with criterion(9, "Hilbert criterion", 60.0):
        rng = np.random.default_rng(9001)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            dim = int(rng.integers(1, 5))
            X = from_points(rng.standard_normal((n, dim)), q=2)
            assert classify(X, 2.0).classification is not Classification.NOT_NEG_TYPE
