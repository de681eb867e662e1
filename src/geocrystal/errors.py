"""Exception hierarchy shared by all geocrystal modules."""


class GeoCrystalError(Exception):
    """Base class for all errors raised by this package."""


class InvalidRankError(GeoCrystalError, ValueError):
    """Rank parameter n < 2."""


class DimensionMismatchError(GeoCrystalError, ValueError):
    """Matrix/vector/ambient dimensions are inconsistent."""


class NotInImageError(GeoCrystalError, ValueError):
    """A coordinate change would produce a negative entry."""


class IncompatibleError(GeoCrystalError, ValueError):
    """Inputs fail a required compatibility condition (e.g. sum mismatch)."""


class SizeMismatchError(GeoCrystalError, ValueError):
    """Sizes of combinatorial data disagree (|partition| vs total, etc.)."""


class MembershipError(GeoCrystalError, ValueError):
    """A flag is not compatible with the given nilpotent endomorphism."""


class LambdaPreconditionError(GeoCrystalError, ValueError):
    """Quiver point fails a required predicate (Lambda membership, stability)."""


class BudgetExceededError(GeoCrystalError, ValueError):
    """Requested computation exceeds the configured size budget."""


class SampleExhaustedError(GeoCrystalError, RuntimeError):
    """Sampler could not produce a valid point within the retry bound."""


class InternalConsistencyError(GeoCrystalError, RuntimeError):
    """A frozen convention failed its self-check (should never happen)."""
