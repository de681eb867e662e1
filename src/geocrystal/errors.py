"""Exception hierarchy shared by all geocrystal modules, the size budget
past which a computation raises BudgetExceededError, and the cap on the
failure messages a report records."""

import os

DEFAULT_BUDGET = 100_000
MAX_RECORDED_FAILURES = 20


def _record(failures: list[str], msg: str) -> None:
    if len(failures) < MAX_RECORDED_FAILURES:
        failures.append(msg)


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


def size_budget(budget: int | None = None) -> int:
    """The budget given, else GEOCRYSTAL_BUDGET, else DEFAULT_BUDGET.

    Raises ValueError if GEOCRYSTAL_BUDGET is set to anything but an int >= 1.
    """
    if budget is not None:
        return int(budget)
    env = os.environ.get("GEOCRYSTAL_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
        if value < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"GEOCRYSTAL_BUDGET must be an int >= 1, got {env!r}") from None
    return value
