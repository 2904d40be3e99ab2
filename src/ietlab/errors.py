"""Exception types shared across the package."""

from . import kernels


class LabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(LabError):
    """Malformed run configuration (unknown keys, bad values, bad paths)."""


class ConstraintViolationError(LabError):
    """A structural constraint was violated at construction time."""


class SingularityProximityError(LabError):
    """A point fell inside the exclusion band around a roof singularity."""


class TruncationExceededError(LabError):
    """An orbit left the truncated index range of the base transformation."""


class ConsistencyError(LabError):
    """Internal invariant broken (bad table data, envelope violation, ...)."""


class InsufficientDataError(LabError):
    """Not enough data for the requested statistical estimate."""


# The kernels report failures as the status codes of ``kernels`` (exceptions
# cannot cross the JIT boundary); ``raise_for_status`` turns them back.
_STATUS_EXC = {
    kernels.SINGULARITY: SingularityProximityError,
    kernels.TRUNCATION: TruncationExceededError,
    kernels.INCONSISTENT: ConsistencyError,
}


def raise_for_status(status: int, context: str) -> None:
    """Map a kernel status code to the corresponding exception, whose
    message is ``context``."""
    if status == kernels.OK:
        return
    exc = _STATUS_EXC.get(status, ConsistencyError)
    raise exc(context)
