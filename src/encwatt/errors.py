"""Exception types shared across the toolkit.

Each class stands for one thing its caller does: an
:class:`AcquisitionError` aborts a campaign (``measure`` exits 3); a
:class:`MeasurementRunError`, :class:`InvalidMeasurementError` or
:class:`EncodeFailedError` fails one job (exit 4); a
:class:`ManifestError`, :class:`DatasetError` or :class:`FitError`
refuses the input (exit 2).
"""

from __future__ import annotations


class EncwattError(Exception):
    """Base class for all encwatt errors."""


class AcquisitionError(EncwattError):
    """The meter cannot give an encode's energy: a counter or trace file is
    unreadable, malformed or corrupt, or a trace does not cover the window
    asked of it.  The caller aborts the campaign."""


class InvalidMeasurementError(EncwattError):
    """Measured energies are unusable (e.g. non-positive mean); the caller fails the job."""


class MeasurementRunError(EncwattError):
    """A measurement repetition failed; the caller fails the job, or aborts
    the campaign if the cause is an :class:`AcquisitionError`.

    Carries the 1-based repetition index and the energies of the
    repetitions that completed before the failure.
    """

    def __init__(self, repetition: int, energies: tuple[float, ...], message: str):
        super().__init__(f"repetition {repetition}: {message}")
        self.repetition = repetition
        self.energies = energies


class EncodeFailedError(EncwattError):
    """The encoder process failed to produce a bitstream; the caller fails the job."""

    def __init__(self, message: str, log_tail: str = ""):
        super().__init__(message)
        self.log_tail = log_tail


class ManifestError(EncwattError):
    """A campaign manifest could not be parsed or validated; the caller refuses it."""


class DatasetError(EncwattError, ValueError):
    """A dataset row or file violates the dataset schema; the caller refuses it."""


class FitError(EncwattError):
    """A model cannot be fitted to a cell: too few rows or distinct
    covariates, an uncertified L1 solve, or physically meaningless
    parameters.  The caller refuses the dataset."""
