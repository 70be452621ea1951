"""Exception types shared across the toolkit.

Every failure mode callers are expected to handle gets its own class so that
tests and the CLI can match on type rather than message text.
"""


class CoarseKitError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatch(CoarseKitError):
    pass


class NotAChainComplex(CoarseKitError):
    """Boundary-squared is nonzero; carries the offending (dim, cell) pair."""

    def __init__(self, message, cell=None):
        super().__init__(message)
        self.cell = cell


class TooFewVertices(CoarseKitError):
    pass


class NotDivisible(CoarseKitError):
    pass


class NotSimplicial(CoarseKitError):
    pass


class NotAVertex(CoarseKitError):
    pass


class NotIsomorphic(CoarseKitError):
    pass


class DimensionTooHigh(CoarseKitError):
    pass


class NotASimplex(CoarseKitError):
    pass


class SizeGuardExceeded(CoarseKitError):
    pass


class InvalidParams(CoarseKitError):
    pass


class NoIntegerSolution(CoarseKitError):
    pass


class NodeLimitExceeded(CoarseKitError):
    """Search budget exhausted; carries the best-known interval.

    Attributes:
        lower: a proven lower bound on the optimum; for minimal primitives
            the largest ceil(|c(s)| / sum of |coefficients| of ds on
            relative edges) over relative faces s.
        upper: best incumbent value, or None if no feasible point was found.
        node_count: nodes explored before giving up.
    """

    def __init__(self, message, lower=None, upper=None, node_count=0):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.node_count = node_count


class DegreeOutOfRange(CoarseKitError):
    pass


class NotASubcomplex(CoarseKitError):
    pass


class WrongShape(CoarseKitError):
    pass


class NotACoboundary(CoarseKitError):
    pass


class NotCoprime(CoarseKitError):
    pass


class NotACycle(CoarseKitError):
    pass


class ImageNotOnCircle(CoarseKitError):
    pass


class NoValidAssignment(CoarseKitError):
    pass


class DivisibilityViolated(CoarseKitError):
    pass


class NotLight(CoarseKitError):
    pass


class NotACover(CoarseKitError):
    pass


class Uncovered(CoarseKitError):
    pass


class HypothesisViolated(UserWarning):
    """Warning category for parameter ranges outside the guaranteed regime."""
