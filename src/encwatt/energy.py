"""Net encoding-energy computation and the repeat-until-confident stopping rule.

The energy of one encoding run is the integral of total system power over
the encode duration minus the integral of idle power over a window of the
same length.  Because single measurements are noisy, a run is repeated
until a Student-t confidence test bounds the relative deviation of the
sample mean, or a repetition budget is exhausted; the test reads a
running mean and sum of squared deviations, so a repetition costs O(1).
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    InvalidMeasurementError,
    MalformedTraceError,
    MeasurementRunError,
    TraceWindowError,
)

logger = logging.getLogger(__name__)

__all__ = [
    "PowerTrace",
    "ConfidencePolicy",
    "MeasurementRecord",
    "integrate_energy",
    "net_energy",
    "t_critical",
    "confidence_check",
    "measure_until_confident",
]


def _first_invalid_row(samples: np.ndarray) -> int:
    """Index of the first ``(t, p)`` row breaking a trace invariant, or -1.

    A row is invalid if a value is non-finite or negative, or if its
    timestamp is not greater than the previous row's.
    """
    bad = ~np.isfinite(samples).all(axis=1) | (samples < 0).any(axis=1)
    t = samples[:, 0]
    bad[1:] |= t[1:] <= t[:-1]
    return int(np.argmax(bad)) if bad.any() else -1


@dataclass(frozen=True, eq=False)
class PowerTrace:
    """Power readings from one source: ``samples`` rows of ``(t_s, p_w)``.

    ``samples`` is copied into a read-only float64 array of shape (n, 2),
    column-major so that :meth:`times` and :meth:`powers` are contiguous.
    At least two rows are required, every value must be finite and
    non-negative, and timestamps must be strictly increasing, so every
    trace has a positive duration and can be integrated.
    """

    samples: np.ndarray
    source_label: str = ""

    def __post_init__(self) -> None:
        samples = np.array(self.samples, dtype=np.float64, order="F")
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise MalformedTraceError(
                f"trace {self.source_label!r}: expected (t, p) rows, got shape {samples.shape}"
            )
        if len(samples) < 2:
            raise MalformedTraceError(
                f"trace {self.source_label!r} has {len(samples)} sample(s); need at least 2"
            )
        i = _first_invalid_row(samples)
        if i >= 0:
            raise MalformedTraceError(
                f"trace {self.source_label!r}: sample {i} {tuple(samples[i].tolist())} breaks "
                f"the invariants (finite, >= 0, timestamps strictly increasing)"
            )
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_arrays(
        cls, times: Sequence[float], powers: Sequence[float], source_label: str = ""
    ) -> "PowerTrace":
        return cls(np.column_stack((times, powers)), source_label=source_label)

    @property
    def start(self) -> float:
        return float(self.samples[0, 0])

    @property
    def end(self) -> float:
        return float(self.samples[-1, 0])

    @property
    def duration(self) -> float:
        return self.end - self.start

    def times(self) -> np.ndarray:
        return self.samples[:, 0]

    def powers(self) -> np.ndarray:
        return self.samples[:, 1]

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class ConfidencePolicy:
    """Parameters of the repeat-measurement stopping rule.

    ``alpha`` is the probability with which the mean deviates from the
    true energy by at most the relative bound ``beta``; the critical
    t-value is the one-sided ``alpha`` quantile.
    """

    alpha: float = 0.99
    beta: float = 0.02
    min_reps: int = 2
    max_reps: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.min_reps < 2:
            raise ValueError(f"min_reps must be >= 2, got {self.min_reps}")
        if self.max_reps < self.min_reps:
            raise ValueError(
                f"max_reps ({self.max_reps}) must be >= min_reps ({self.min_reps})"
            )


@dataclass(frozen=True)
class MeasurementRecord:
    """Repeated net-energy observations for one job plus the stopping verdict."""

    job_id: str
    energies: tuple[float, ...]
    mean_energy: float
    std_dev: float
    reps: int
    confident: bool


def integrate_energy(trace: PowerTrace, t_start: float, t_end: float) -> float:
    """Trapezoidal integral of power over ``[t_start, t_end]``, in joules.

    Window endpoints may fall between samples; the boundary power values
    are then linearly interpolated from the bracketing samples.  Exact
    for piecewise-linear power traces.
    """
    if not (trace.start <= t_start < t_end <= trace.end):
        raise TraceWindowError(
            f"window [{t_start}, {t_end}] outside trace span "
            f"[{trace.start}, {trace.end}] of {trace.source_label!r}"
        )
    ts = trace.times()
    ps = trace.powers()
    p_start = float(np.interp(t_start, ts, ps))
    p_end = float(np.interp(t_end, ts, ps))
    inside = (ts > t_start) & (ts < t_end)
    xs = np.concatenate(([t_start], ts[inside], [t_end]))
    ys = np.concatenate(([p_start], ps[inside], [p_end]))
    return float(np.trapezoid(ys, xs))


def net_energy(total: PowerTrace, idle: PowerTrace, duration: float) -> float:
    """Energy attributable to the measured activity over ``duration`` seconds.

    Integrates each trace over a window of length ``duration`` anchored at
    that trace's own first sample and returns total minus idle.  A
    negative result means the idle baseline exceeded the loaded trace; it
    is logged as a warning and returned unclamped.
    """
    if duration <= 0:
        raise TraceWindowError(f"duration must be > 0, got {duration}")
    for trace in (total, idle):
        if trace.duration < duration:
            raise TraceWindowError(
                f"trace {trace.source_label!r} spans {trace.duration:.6g} s, "
                f"shorter than the requested {duration:.6g} s window"
            )
    e_total = integrate_energy(total, total.start, total.start + duration)
    e_idle = integrate_energy(idle, idle.start, idle.start + duration)
    net = e_total - e_idle
    if net < 0:
        logger.warning(
            "net energy is negative (%.6g J): idle baseline %r exceeds total trace %r",
            net,
            idle.source_label,
            total.source_label,
        )
    return net


@lru_cache(maxsize=4096)
def t_critical(alpha: float, dof: int) -> float:
    """One-sided critical value of the Student t-distribution.

    Returns the t for which the CDF with ``dof`` degrees of freedom
    equals ``alpha``, computed through the inverse regularized
    incomplete beta function.
    """
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if alpha == 0.5:
        return 0.0
    if alpha < 0.5:
        return -t_critical(1.0 - alpha, dof)
    from scipy.special import betaincinv  # here, as it is most of the CLI's import time

    # For t >= 0:  CDF(t) = 1 - I_x(dof/2, 1/2) / 2  with  x = dof / (dof + t^2)
    x = float(betaincinv(dof / 2.0, 0.5, 2.0 * (1.0 - alpha)))
    return math.sqrt(dof * (1.0 - x) / x)


def _welford(n: int, mean: float, m2: float, x: float) -> tuple[float, float]:
    """Add ``x``, the ``n``-th value, to a running mean and sum of squared deviations."""
    delta = x - mean
    mean += delta / n
    return mean, m2 + delta * (x - mean)


def _passes(n: int, mean: float, m2: float, policy: ConfidencePolicy) -> bool:
    """The stopping test on a running count, mean and ``m2``; see :func:`confidence_check`."""
    if n < 2:
        return False
    if mean <= 0:
        raise InvalidMeasurementError(
            f"mean energy must be positive to apply the relative bound, got {mean:.6g} J"
        )
    std = math.sqrt(m2 / (n - 1))
    return 2.0 * std / math.sqrt(n) * t_critical(policy.alpha, n - 1) < policy.beta * mean


def confidence_check(energies: Sequence[float], policy: ConfidencePolicy) -> bool:
    """True iff the repeated energies satisfy the stopping criterion.

    The test is ``2 * s / sqrt(m) * t(m - 1) < beta * mean`` with ``s``
    the sample standard deviation and the current sample mean standing
    in for the unknown true energy on the right-hand side, both folded
    from the energies by Welford's update.  Fewer than two repetitions
    can never be confident.
    """
    mean = m2 = 0.0
    for n, x in enumerate(energies, 1):
        mean, m2 = _welford(n, mean, m2, x)
    return _passes(len(energies), mean, m2, policy)


def measure_until_confident(
    run_once: Callable[[], float],
    policy: ConfidencePolicy,
    job_id: str = "",
) -> MeasurementRecord:
    """Repeat a measurement callback until the stopping rule is satisfied.

    Invokes ``run_once`` at least ``min_reps`` and at most ``max_reps``
    times.  Each energy updates a running mean and sum of squared
    deviations (Welford 1962), from which every repetition from
    ``min_reps`` on applies the test of :func:`confidence_check`; the
    first pass stops, and exhausting the budget yields a record with
    ``confident=False``.  A failing callback raises
    :class:`MeasurementRunError` carrying the repetition index and the
    energies collected so far.
    """
    energies: list[float] = []
    mean = m2 = 0.0
    for rep in range(1, policy.max_reps + 1):
        try:
            value = float(run_once())
        except Exception as exc:
            raise MeasurementRunError(rep, tuple(energies), str(exc)) from exc
        energies.append(value)
        mean, m2 = _welford(rep, mean, m2, value)
        confident = rep >= policy.min_reps and _passes(rep, mean, m2, policy)
        if confident:
            break
    return MeasurementRecord(
        job_id=job_id,
        energies=tuple(energies),
        mean_energy=statistics.fmean(energies),
        std_dev=math.sqrt(m2 / (rep - 1)),
        reps=rep,
        confident=confident,
    )
