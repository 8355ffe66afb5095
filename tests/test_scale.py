"""Scale invariance: classes, brackets and witnesses do not depend on the unit.

Scaling d by c > 0 scales D_p by c^p, so the class at each exponent, the
supremal exponent and the polygonal equalities are those of the unscaled
space. The decisions read the normalised power matrix (d / max d)^p, so
they hold at scales where D_p itself overflows or underflows, and no numpy
RuntimeWarning escapes.
"""

import math
from decimal import Decimal

import numpy as np
import pytest

from helpers import collinear_triple, unit_four_cycle
from negtype import (
    Classification,
    NoWitnessFound,
    SignedSimplex,
    SupremalStatus,
    classify,
    gap,
    quad_form,
    supremal,
    validate_metric,
    vector_to_simplex,
    verify_equality,
    witness_at_p,
    witness_at_supremal,
)
from negtype.cli import generate_space
from negtype.metric import power_matrix
from negtype.quadform import _reflector, restricted_form

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SCALES = [2.0**-40, 1e-12, 1e-6, 3.0, 1e6, 1e12, 2.0**40, 1e-200, 1e200]
EXPONENTS = [0.0, 0.5, 1.0, 2.0, 7.0, 40.0, 64.0]
WIDTH_TOL = 1e-10


def scaled(X, c: float):
    return validate_metric(X.labels, c * X.dist)


def verifies(X, w) -> bool:
    return verify_equality(X, w.p, w.simplex).nontrivial_equality


def witness_or_rejected(X, p: float):
    """(witness, returned): a witness that NoWitnessFound rejected comes from the error."""
    try:
        return witness_at_p(X, p), True
    except NoWitnessFound as exc:
        return exc.witness, False


@pytest.mark.parametrize("kind, n", [("path", 12), ("path", 60), ("cycle", 8),
                                     ("points", 9), ("random", 9)],
                         ids=["path12", "path60", "cycle8", "points9", "random9"])
def test_scaled_gen_spaces_keep_their_answers(kind, n):
    X = generate_space(kind, n, seed=4)
    classes = [classify(X, p).classification for p in EXPONENTS]
    sup = supremal(X, width_tol=WIDTH_TOL)
    assert sup.status is SupremalStatus.FINITE
    for c in SCALES:
        Y = scaled(X, c)
        assert [classify(Y, p).classification for p in EXPONENTS] == classes, c
        got = supremal(Y, width_tol=WIDTH_TOL)
        assert got.status is SupremalStatus.FINITE
        if math.frexp(c)[0] == 0.5:  # a power of two: D~_p is the same bits
            assert (got.lo, got.hi, got.evaluations) == (sup.lo, sup.hi, sup.evaluations)
        else:
            assert abs(got.lo - sup.lo) <= WIDTH_TOL and abs(got.hi - sup.hi) <= WIDTH_TOL
        assert verifies(Y, witness_at_supremal(Y, got))


@pytest.mark.parametrize("unit, c, p, verified", [
    (unit_four_cycle, 1e-6, 60.0, True),
    (unit_four_cycle, 1e6, 60.0, True),
    (unit_four_cycle, 1e20, 30.0, True),
    (collinear_triple, 1e-200, 2.0, True),
    # the zero of this form has a component of order 1e-16 on the far
    # point, which the simplex drops as noise, at every scale: the witness
    # does not verify, so it is not returned
    (lambda: validate_metric(None, [[0, 1, 2.5], [1, 0, 3], [2.5, 3, 0]]), 1e-3, 150.0, False),
], ids=["cycle-1e-6-p60", "cycle-1e6-p60", "cycle-1e20-p30", "collinear-1e-200-p2",
        "triangle-1e-3-p150"])
def test_underflow_and_overflow_cases(unit, c, p, verified):
    # each of these raised EigenFailure, or a RuntimeWarning before it,
    # when the decisions read D_p itself
    X = unit()
    Y = scaled(X, c)
    rep, ref = classify(Y, p), classify(X, p)
    assert rep.classification is ref.classification is not Classification.STRICT
    (w, returned), (w_ref, returned_ref) = witness_or_rejected(Y, p), witness_or_rejected(X, p)
    assert w.method is w_ref.method
    assert returned is returned_ref is verifies(Y, w) is verifies(X, w_ref) is verified
    sup = supremal(Y)
    if sup.status is SupremalStatus.FINITE:
        assert verifies(Y, witness_at_supremal(Y, sup))


_LOG_NORMAL = (math.log(np.finfo(float).tiny), math.log(np.finfo(float).max))


def times_c_to_the_p(value: float, c: float, p: float) -> float | None:
    """c^p * value, or None where that product is not 0 or a normal float."""
    if value == 0.0:
        return 0.0
    log = p * math.log(c) + math.log(abs(value))
    if not _LOG_NORMAL[0] < log < _LOG_NORMAL[1]:
        return None
    return math.copysign(math.exp(log), value)


@pytest.mark.parametrize("c", [1e-200, 1e-6, 1e6, 1e20, 1e200])
@pytest.mark.parametrize("p", [0.0, 1.0, 2.0, 30.0, 60.0, 64.0])
@pytest.mark.parametrize("unit, xi", [
    (unit_four_cycle, [1.0, -2.0, 0.5, 0.5]),
    (collinear_triple, [1.0, -2.0, 1.0]),
], ids=["cycle", "collinear"])
def test_real_unit_values_scale_by_c_to_the_p(unit, xi, p, c):
    # the public real-unit functions convert D~_p once: no NaN and no
    # warning, c^p times the unscaled value wherever that is representable
    X = unit()
    Y = scaled(X, c)
    Q = vector_to_simplex(X, xi)
    values = {f.__name__: (f(Y, p, *args), f(X, p, *args)) for f, args in [
        (power_matrix, ()), (restricted_form, ()), (quad_form, (xi,)), (gap, (Q,))]}
    for name, (got, unscaled) in values.items():
        got, unscaled = np.asarray(got).ravel().tolist(), np.asarray(unscaled).ravel().tolist()
        assert not any(map(math.isnan, got)), name
        for have, value in zip(got, unscaled):
            want = times_c_to_the_p(value, c, p)
            assert want is None or abs(have - want) <= 1e-12 * abs(want), (name, have, want)
    f, g = values["quad_form"][0], values["gap"][0]
    if math.isfinite(f) and math.isfinite(g):  # criterion 4, the link identity
        assert abs(f + 2.0 * g) <= 1e-12 * abs(f)


@pytest.mark.parametrize("near, far", [(1e-3, 1e3), (1.0, 1e6)], ids=["wide", "overflowing"])
def test_wide_ratio_values_are_exact(near, far):
    # at p = 64 the near pair's entry underflows in (d / max d)^p, and in the
    # second space (max d)^p itself overflows; every value still reads its
    # exact real-unit value wherever that is representable
    p = 64.0
    X = validate_metric(None, [[0, near, far], [near, 0, far], [far, far, 0]])
    powers = [[Decimal(d) ** 64 for d in row] for row in X.dist.tolist()]
    exact = np.array(powers, dtype=float)
    entry = exact[0, 1]
    pair = SignedSimplex(((0, 1.0),), ((1, 1.0),))
    assert entry > 0.0
    np.testing.assert_allclose(power_matrix(X, p), exact, rtol=1e-12, atol=0.0)
    assert quad_form(X, p, [1.0, -1.0, 0.0]) == pytest.approx(-2.0 * entry, rel=1e-12)
    assert gap(X, p, pair) == pytest.approx(entry, rel=1e-12)
    rep = verify_equality(X, p, pair)
    assert rep.lhs == pytest.approx(entry, rel=1e-12) and rep.rhs == 0.0 and not rep.holds
    # the form in the basis of F0 that restricted_form uses, summed exactly
    u, beta = _reflector(3)
    basis = (np.eye(3) - beta * np.outer(u, u))[:, :-1]
    want = [[float(sum(Decimal(basis[i, k]) * powers[i][j] * Decimal(basis[j, l])
                       for i in range(3) for j in range(3))) for l in range(2)] for k in range(2)]
    np.testing.assert_allclose(restricted_form(X, p), want, rtol=1e-12, atol=0.0)
