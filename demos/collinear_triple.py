"""Walkthrough: three collinear points {0, 1, 2}.

The supremal p-negative type of this space is exactly 2. Below 2 the
quadratic form is negative definite on the zero-sum hyperplane, at 2 it
degenerates along (1, -2, 1), and above 2 it takes positive values, which
is certified by an explicit polygonal equality.
"""

import numpy as np

from negtype import (
    SignedSimplex,
    classify,
    from_graph,
    quad_form,
    supremal,
    verify_equality,
    witness_at_supremal,
    witness_ivt,
)

X = from_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
print("distance matrix:")
print(X.dist)

# The direction (1, -2, 1) tells the whole story: its form value is
# 2 (2^p - 4), negative below p = 2, zero at 2, positive above.
for p in (1.0, 1.9, 2.0, 2.1, 3.0):
    rep = classify(X, p)
    print(f"p = {p:4.1f}   form(1,-2,1) = {quad_form(X, p, [1, -2, 1]):+9.5f}"
          f"   lambda_max = {rep.lambda_max:+12.6g}   {rep.classification.value}")

sup = supremal(X)
print(f"\nsupremal exponent bracket: [{sup.lo:.12f}, {sup.hi:.12f}]"
      f" (midpoint {sup.midpoint:.10f}, {sup.evaluations} eigenvalue evaluations)")

# At the supremal exponent the largest eigenvalue of the restricted form is
# zero, so its eigendirection is a zero-sum vector with vanishing form: a witness.
w = witness_at_supremal(X, sup)
print(f"\nwitness at the supremal exponent ({w.method.value}):")
print(f"  xi       = {np.round(w.xi.weights, 6)}")
print(f"  residual = {w.residual:.3g}")

# The same witness written as a simplex: x1(1), x3(1) vs x2(2), i.e.
# 1*2*d(x1,x2)^2 + 1*2*d(x3,x2)^2 = 1*1*d(x1,x3)^2 reads 2 + 2 = 4.
Q = SignedSimplex(((0, 1.0), (2, 1.0)), ((1, 2.0),))
rep = verify_equality(X, 2.0, Q)
print(f"\nhand-written equality at p = 2: lhs = {rep.lhs}, rhs = {rep.rhs},"
      f" holds = {rep.holds}, nontrivial = {rep.nontrivial}")

# Above the supremal exponent a witness always exists; the segment
# construction finds a zero of the form between e1 - e2 and the positive
# eigendirection.
w3 = witness_ivt(X, 3.0)
print(f"\nwitness at p = 3 ({w3.method.value}): xi = {np.round(w3.xi.weights, 6)},"
      f" residual = {w3.residual:.3g}")
print(f"its equality: lhs = {w3.lhs:.12f}, rhs = {w3.rhs:.12f}")
