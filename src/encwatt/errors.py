"""Exception types shared across the toolkit."""

from __future__ import annotations


class EncwattError(Exception):
    """Base class for all encwatt errors."""


class MalformedTraceError(EncwattError):
    """A power trace (or trace file) violates the trace invariants."""


class TraceWindowError(EncwattError):
    """An integration window falls outside the span of a trace."""


class AcquisitionError(EncwattError):
    """A live meter source could not be read."""


class CorruptCounterError(AcquisitionError):
    """A cumulative energy counter moved in a way no wrap-around explains."""


class InvalidMeasurementError(EncwattError):
    """Measured energies are unusable (e.g. non-positive mean)."""


class MeasurementRunError(EncwattError):
    """A measurement repetition failed.

    Carries the 1-based repetition index and the energies of the
    repetitions that completed before the failure.
    """

    def __init__(self, repetition: int, energies: tuple[float, ...], message: str):
        super().__init__(f"repetition {repetition}: {message}")
        self.repetition = repetition
        self.energies = energies


class EncodeFailedError(EncwattError):
    """The encoder process failed to produce a bitstream."""

    def __init__(self, message: str, log_tail: str = ""):
        super().__init__(message)
        self.log_tail = log_tail


class ManifestError(EncwattError):
    """A campaign manifest could not be parsed or validated."""


class DatasetError(EncwattError, ValueError):
    """A dataset row or file violates the dataset schema."""


class FitError(EncwattError):
    """Base class for model-fitting failures."""


class SingularFitError(FitError):
    """The design matrix is rank deficient (e.g. all covariates equal)."""


class UnderdeterminedFitError(FitError):
    """Too few rows for the number of model coefficients."""


class FitRejectedError(FitError):
    """The fit converged to physically meaningless parameters."""
