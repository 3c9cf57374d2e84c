"""Net encoding-energy computation and the repeat-until-confident stopping rule.

The energy of one encoding run is the integral of total system power over
the encode duration minus the integral of idle power over a window of the
same length.  Because single measurements are noisy, a run is repeated
until a Student-t confidence test bounds the relative deviation of the
sample mean, or a repetition budget is exhausted.
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import betaincinv

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
    true energy by at most the relative bound ``beta``.  The critical
    t-value is one-sided (quantile ``alpha``) by default; set
    ``two_sided`` to use the ``(1 + alpha) / 2`` quantile instead.
    """

    alpha: float = 0.99
    beta: float = 0.02
    min_reps: int = 2
    max_reps: int = 50
    two_sided: bool = False

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

    @property
    def quantile(self) -> float:
        return (1.0 + self.alpha) / 2.0 if self.two_sided else self.alpha


@dataclass(frozen=True)
class MeasurementRecord:
    """Repeated net-energy observations for one job plus the stopping verdict."""

    job_id: str
    energies: tuple[float, ...]
    mean_energy: float
    std_dev: float
    reps: int
    confident: bool
    alpha: float = 0.99
    beta: float = 0.02

    @classmethod
    def from_energies(
        cls, job_id: str, energies: Sequence[float], policy: ConfidencePolicy
    ) -> "MeasurementRecord":
        energies = tuple(float(e) for e in energies)
        mean = statistics.fmean(energies)
        std = statistics.stdev(energies) if len(energies) >= 2 else float("nan")
        return cls(
            job_id=job_id,
            energies=energies,
            mean_energy=mean,
            std_dev=std,
            reps=len(energies),
            confident=confidence_check(energies, policy),
            alpha=policy.alpha,
            beta=policy.beta,
        )


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
    # For t >= 0:  CDF(t) = 1 - I_x(dof/2, 1/2) / 2  with  x = dof / (dof + t^2)
    x = float(betaincinv(dof / 2.0, 0.5, 2.0 * (1.0 - alpha)))
    return math.sqrt(dof * (1.0 - x) / x)


def confidence_check(energies: Sequence[float], policy: ConfidencePolicy) -> bool:
    """True iff the repeated energies satisfy the stopping criterion.

    The test is ``2 * s / sqrt(m) * t(m - 1) < beta * mean`` with ``s``
    the sample standard deviation and the current sample mean standing
    in for the unknown true energy on the right-hand side.  Fewer than
    two repetitions can never be confident.
    """
    m = len(energies)
    if m < 2:
        return False
    mean = statistics.fmean(energies)
    if mean <= 0:
        raise InvalidMeasurementError(
            f"mean energy must be positive to apply the relative bound, got {mean:.6g} J"
        )
    std = statistics.stdev(energies)
    lhs = 2.0 * std / math.sqrt(m) * t_critical(policy.quantile, m - 1)
    return lhs < policy.beta * mean


def measure_until_confident(
    run_once: Callable[[], float],
    policy: ConfidencePolicy,
    job_id: str = "",
) -> MeasurementRecord:
    """Repeat a measurement callback until the stopping rule is satisfied.

    Invokes ``run_once`` at least ``min_reps`` and at most ``max_reps``
    times, stopping at the first count where :func:`confidence_check`
    passes.  Exhausting the budget yields a record with
    ``confident=False``; a failing callback raises
    :class:`MeasurementRunError` carrying the repetition index and the
    energies collected so far.
    """
    energies: list[float] = []
    for rep in range(1, policy.max_reps + 1):
        try:
            value = float(run_once())
        except Exception as exc:
            raise MeasurementRunError(rep, tuple(energies), str(exc)) from exc
        energies.append(value)
        if rep >= policy.min_reps and confidence_check(energies, policy):
            break
    return MeasurementRecord.from_energies(job_id, energies, policy)
