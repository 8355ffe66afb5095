"""Scale invariance: classes, brackets and witnesses do not depend on the unit.

Scaling d by c > 0 scales D_p by c^p, so the class at each exponent, the
supremal exponent and the polygonal equalities are those of the unscaled
space. The decisions read the normalised power matrix (d / max d)^p, so
they hold at scales where D_p itself overflows or underflows, and no numpy
RuntimeWarning escapes.
"""

import math

import numpy as np
import pytest

from helpers import collinear_triple, unit_four_cycle
from negtype import (
    Classification,
    SupremalStatus,
    classify,
    supremal,
    validate_metric,
    verify_equality,
    witness_at_p,
    witness_at_supremal,
)
from negtype.cli import generate_space

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SCALES = [2.0**-40, 1e-12, 1e-6, 3.0, 1e6, 1e12, 2.0**40, 1e-200, 1e200]
EXPONENTS = [0.0, 0.5, 1.0, 2.0, 7.0, 40.0, 64.0]
WIDTH_TOL = 1e-10


def scaled(X, c: float):
    return validate_metric(X.labels, c * X.dist)


def verifies(X, w) -> bool:
    return verify_equality(X, w.p, w.simplex).nontrivial_equality


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
    # point, which the simplex drops as noise, at every scale
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
    w, w_ref = witness_at_p(Y, p), witness_at_p(X, p)
    assert w.method is w_ref.method
    assert verifies(Y, w) is verifies(X, w_ref) is verified
    sup = supremal(Y)
    if sup.status is SupremalStatus.FINITE:
        assert verifies(Y, witness_at_supremal(Y, sup))
