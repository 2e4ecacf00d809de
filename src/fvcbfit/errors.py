"""Exception types raised across the package.

Everything derives from FvcbError so callers can catch one base class.
I/O and validation problems carry enough context (row, curve id) to be
actionable from a batch run.
"""


class FvcbError(Exception):
    """Base class for all package errors."""


class MissingColumn(FvcbError):
    """A required CSV header column is absent."""


class ParseError(FvcbError):
    """A cell in a required or present column could not be parsed."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class EmptyCurve(FvcbError):
    """A curve id ended up with zero valid rows after filtering."""


class IoError(FvcbError):
    """Result serialization failed."""


class SeriesTooShort(FvcbError):
    """Series shorter than the smoothing window."""


class TooFewPointsAfterCleanup(FvcbError):
    """Preprocessing left fewer than the minimum number of points."""


class DomainError(FvcbError):
    """Arguments outside the mathematical domain of a response function."""


class NonPositiveC(FvcbError):
    """Chloroplastic CO2 went non-positive after the g_m substitution.

    groups lists the fitting groups (indices into group_ids) where it did.
    """

    def __init__(self, message: str, groups=()):
        super().__init__(message)
        self.groups = list(groups)


class LengthMismatch(FvcbError):
    """Paired series of unequal length."""


class ZeroVariance(FvcbError):
    """A statistic that needs spread was given a constant series."""


class DegenerateSeries(FvcbError):
    """Correlation requested on a zero-variance series."""


class NonFinite(FvcbError):
    """NaN or Inf encountered during gradient evaluation."""


class DivergenceError(FvcbError):
    """The optimizer produced a non-finite loss.

    Carries the last finite state so a caller can inspect or resume.
    """

    def __init__(self, message: str, last_good=None, iteration: int | None = None):
        super().__init__(message)
        self.last_good = last_good
        self.iteration = iteration
