"""Exception types shared across the library."""


class NotApplicableError(ValueError):
    """A test/model combination for which the requested quantity is undefined.

    Raised, for example, for moment-based statistics under the Cauchy null or
    for mean (untrimmed) centering when the null has no second moment.  Callers
    that tabulate over grids catch this and emit a not-applicable marker
    instead of a number.
    """


class InsufficientSampleError(ValueError):
    """Sample too small for the requested kernel order."""


class DegenerateSampleError(ValueError):
    """Sample on which the statistic is undefined (e.g. zero variance)."""
