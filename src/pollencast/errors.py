"""Exception types raised across the package.

Every error raised by pollencast derives from :class:`PollencastError`, so
callers (and the CLI) can catch one base class and map it to a data-error
exit status.
"""


class PollencastError(Exception):
    """Base class for all pollencast errors."""


# --- dataset ingestion / validation ---------------------------------------

class MissingColumnError(PollencastError):
    """A required column is absent from the CSV header."""


class GapTooLargeError(PollencastError):
    """More than the permitted number of consecutive days is missing."""


class NonFiniteError(PollencastError):
    """A value is NaN, infinite, or unparseable."""


class NonMonotoneDatesError(PollencastError):
    """Dates are not strictly increasing."""


class InvalidRecordError(PollencastError):
    """A daily record violates a field-range invariant."""


class InsufficientDataError(PollencastError):
    """The dataset does not cover the span required by the operation."""


# --- feature extraction -----------------------------------------------------

class WrongWindowLengthError(PollencastError):
    """A rolling window does not have the required number of samples."""


class DatasetTooShortError(PollencastError):
    """The dataset is shorter than one rolling window."""


# --- boosted-tree learner ----------------------------------------------------

class TooFewRowsError(PollencastError):
    """Not enough training rows for the configured leaf size."""


class WrongFeatureCountError(PollencastError):
    """Prediction input width differs from the training matrix width."""


class LengthMismatchError(PollencastError):
    """Two paired vectors have different lengths."""


# --- pipeline ----------------------------------------------------------------

class MissingLabelError(PollencastError):
    """A requested year has no season label."""


class HorizonOutOfRangeError(PollencastError):
    """The prediction horizon extends outside the available data."""


class TooFewYearsError(PollencastError):
    """The operation needs more labeled years than were supplied."""


class WindowUnavailableError(PollencastError):
    """No feature window exists for a requested prediction day."""


class WorkerLostError(PollencastError):
    """A worker process ended before it returned its fit's result."""


# --- weighted linear fusion ----------------------------------------------------

class TooFewPointsError(PollencastError):
    """Fewer than two prediction points were supplied to the fit."""


class DegenerateDesignError(PollencastError):
    """All prediction days coincide; the line fit is underdetermined."""


class NonPositiveWeightError(PollencastError):
    """A regression weight (or the uncertainty behind it) is not positive."""


class DegenerateSlopeError(PollencastError):
    """The fitted slope is too close to zero to extract a date."""


class ZeroSlopeError(PollencastError):
    """The threshold function is undefined for a zero slope coefficient."""


# --- backtesting ---------------------------------------------------------------

class FoldConfigInvalidError(PollencastError):
    """A backtest fold is misconfigured (e.g. test year inside train years)."""


class EmptyInputError(PollencastError):
    """An aggregate was requested over an empty collection."""
