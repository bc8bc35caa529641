"""Exception types shared across the package."""


class CorralignError(Exception):
    """Base class for all package-specific errors."""


class SizeCapError(CorralignError):
    """An input exceeds the size cap of a brute-force or enumeration routine."""


class InvalidAlternateError(CorralignError):
    """An operation that only makes sense under the correlated hypothesis was
    called with a zero correlation coefficient."""


class DomainError(CorralignError):
    """A numeric argument lies outside the domain where a closed form is valid
    (for example an MGF argument outside its convergence interval)."""


class ConditionViolatedError(CorralignError):
    """A stated precondition of a bound fails; the message names the failing
    inequality."""


class InversionUndefinedError(CorralignError):
    """A monotone bound inversion does not cross the requested target on the
    rho2 range it scanned, which the message names, or its scan found a NaN
    or non-monotone behaviour."""
