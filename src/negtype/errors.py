"""Exception hierarchy for the package.

Every error raised by the library derives from :class:`NegTypeError`, so
callers (including the CLI) can catch one type. Errors that point at
offending entries carry the indices as attributes.
"""

__all__ = [
    "NegTypeError",
    "NotSquare",
    "AsymmetricEntry",
    "NonzeroDiagonal",
    "NonpositiveDistance",
    "TriangleViolation",
    "NegativeExponent",
    "DisconnectedGraph",
    "NonpositiveWeight",
    "DuplicatePoint",
    "InvalidNormOrder",
    "LengthMismatch",
    "EigenFailure",
    "InvalidCap",
    "InvalidTolerance",
    "IndexOutOfRange",
    "UnbalancedWeights",
    "ZeroVector",
    "NotBalanced",
    "NotApplicable",
    "NoWitnessFound",
]


class NegTypeError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# metric construction and validation
# ---------------------------------------------------------------------------

class NotSquare(NegTypeError):
    """Distance matrix is not a square matrix of size at least 2."""


class AsymmetricEntry(NegTypeError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"dist[{i}][{j}] != dist[{j}][{i}] beyond tolerance")


class NonzeroDiagonal(NegTypeError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"dist[{i}][{i}] != 0")


class NonpositiveDistance(NegTypeError):
    def __init__(self, i: int, j: int, reason: str = "must be > 0"):
        self.i, self.j = i, j
        super().__init__(f"dist[{i}][{j}] {reason}")


class TriangleViolation(NegTypeError):
    def __init__(self, i: int, j: int, k: int):
        self.i, self.j, self.k = i, j, k
        super().__init__(
            f"dist[{i}][{k}] > dist[{i}][{j}] + dist[{j}][{k}] beyond tolerance"
        )


class NegativeExponent(NegTypeError):
    """Exponent p must be finite and nonnegative."""


class DisconnectedGraph(NegTypeError):
    """Graph has no path between some pair of vertices."""


class NonpositiveWeight(NegTypeError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"edge ({i},{j}) has nonpositive weight")


class DuplicatePoint(NegTypeError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"points {i} and {j} coincide")


class InvalidNormOrder(NegTypeError):
    """Norm order q must satisfy q >= 1 (or be infinity)."""


# ---------------------------------------------------------------------------
# quadratic-form analysis
# ---------------------------------------------------------------------------

class LengthMismatch(NegTypeError):
    def __init__(self, expected: int, got: int):
        self.expected, self.got = expected, got
        super().__init__(f"vector of length {got}, expected {expected}")


class EigenFailure(NegTypeError):
    """The eigensolver did not converge, or an unvalidated space's form is not finite."""


class InvalidCap(NegTypeError):
    """The supremal search cap and bracket width must be finite and positive."""


class InvalidTolerance(NegTypeError):
    """A classification or verification tolerance must be finite and nonnegative."""


# ---------------------------------------------------------------------------
# signed simplices and witnesses
# ---------------------------------------------------------------------------

class IndexOutOfRange(NegTypeError):
    def __init__(self, index: int, size: int):
        self.index, self.size = index, size
        super().__init__(f"point index {index} out of range for {size} points")


class UnbalancedWeights(NegTypeError):
    def __init__(self, left_total: float, right_total: float):
        self.left_total, self.right_total = left_total, right_total
        super().__init__(
            f"weight totals differ: left {left_total!r} vs right {right_total!r}"
        )


class ZeroVector(NegTypeError):
    """Operation requires a nonzero vector."""


class NotBalanced(NegTypeError):
    def __init__(self, total: float):
        self.total = total
        super().__init__(f"components sum to {total!r}, not 0 within tolerance")


class NotApplicable(NegTypeError):
    """Witness construction does not apply in this regime."""


class NoWitnessFound(NegTypeError):
    """The witness's simplex does not verify as a nontrivial polygonal equality.

    witness is the rejected WitnessReport, with its simplex, its residual
    and the failed check as its equality. The message names the check's
    relative gap, which reads where lhs and rhs underflow to 0.
    """

    def __init__(self, witness):
        self.witness, eq = witness, witness.equality
        super().__init__(f"witness at p = {witness.p:g} does not verify: relative gap "
                         f"{eq.relative_gap:g} against tol {eq.tolerance:g}; "
                         f"gap {eq.gap:g} with lhs {eq.lhs:g}, rhs {eq.rhs:g}")
