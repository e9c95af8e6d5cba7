"""Exception types shared across the package."""


class ConeBilliardsError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ConeBilliardsError):
    """A vector does not have the number of components the cone expects."""


class ZeroVector(ConeBilliardsError):
    """A direction vector with (near-)zero norm was supplied."""


class DegenerateArrangement(ConeBilliardsError):
    """The wall normals are linearly dependent (or numerically so)."""


class NotPositiveDefinite(ConeBilliardsError):
    """A matrix expected to be positive definite has lambda_min <= 0."""


class WrongWallCount(ConeBilliardsError):
    """An operation specific to a fixed number of walls got a different count."""


class ConeMismatch(ConeBilliardsError):
    """Two objects that must share the same cone were built from different ones."""


class TooFewEvents(ConeBilliardsError):
    """The trajectory does not contain enough collisions for this analysis."""


class AlternationError(ConeBilliardsError):
    """A two-wall trajectory did not alternate walls as required."""


class InvalidState(ConeBilliardsError):
    """A particle state violates its invariants (outside the cone, bad speed)."""


class TooFewBalls(ConeBilliardsError):
    """A hard-ball system needs at least two balls."""


class NonpositiveMass(ConeBilliardsError):
    """All ball masses must be finite and strictly positive."""


class DegenerateSampling(ConeBilliardsError):
    """Random cone sampling failed to reach the conditioning floor."""
