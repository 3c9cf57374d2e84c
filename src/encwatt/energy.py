"""Net encoding-energy computation and the repeat-until-confident stopping rule.

The energy of one encoding run is the joules a meter recorded while it ran
minus idle power over the same seconds, each recording a
:class:`CounterSpan` of joules over seconds (a trace's by
:func:`trace_span`, from its first sample).  Because single measurements
are noisy, a run is repeated until a Student-t confidence test bounds the
relative deviation of the sample mean, or a repetition budget is
exhausted; the test reads a running mean and sum of squared deviations, so
a repetition costs O(1).  The test's t quantile needs only ``math``: for an
integer number of degrees of freedom the t CDF is a finite series in
``cos(theta)``, ``theta = atan(t / sqrt(dof))`` (Abramowitz & Stegun
26.7.3-4), which Newton's method inverts in ``theta``.  The stopping rule
reads its quantiles from one row per ``alpha``, indexed by degrees of
freedom and cached for the life of the process; a row grows one entry at a
time, only as far as the repetitions some campaign has reached, never to
``max_reps`` in advance.

numpy is imported by the functions that build or read a trace, so it is
loaded when a trace is first built: a counter campaign, whose spans are
its counter's own, never loads it.
"""

from __future__ import annotations

import logging
import math
import statistics
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import AcquisitionError, InvalidMeasurementError, MeasurementRunError

if TYPE_CHECKING:
    import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "PowerTrace",
    "CounterSpan",
    "ConfidencePolicy",
    "MeasurementRecord",
    "integrate_energy",
    "trace_span",
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
    import numpy as np

    # Column views rather than reductions over the row axis, which are
    # slow on the C-order array the trace parser builds.
    t, p = samples[:, 0], samples[:, 1]
    bad = ~(np.isfinite(t) & np.isfinite(p)) | (t < 0) | (p < 0)
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
        import numpy as np

        samples = np.array(self.samples, dtype=np.float64, order="F")
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise AcquisitionError(
                f"trace {self.source_label!r}: expected (t, p) rows, got shape {samples.shape}"
            )
        if len(samples) < 2:
            raise AcquisitionError(
                f"trace {self.source_label!r} has {len(samples)} sample(s); need at least 2"
            )
        i = _first_invalid_row(samples)
        if i >= 0:
            raise AcquisitionError(
                f"trace {self.source_label!r}: sample {i} {tuple(samples[i].tolist())} breaks "
                f"the invariants (finite, >= 0, timestamps strictly increasing)"
            )
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_arrays(
        cls, times: Sequence[float], powers: Sequence[float], source_label: str = ""
    ) -> "PowerTrace":
        import numpy as np

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


class CounterSpan(NamedTuple):
    """The joules a meter recorded and the seconds they span."""

    joules: float
    seconds: float
    source_label: str = ""


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


class MeasurementRecord(NamedTuple):
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
    for piecewise-linear power traces.  The samples inside the window
    are found by binary search, so a window costs O(log n) plus its own
    samples; ``np.interp`` on the two samples around an endpoint gives
    the value it gives on the whole trace.
    """
    import numpy as np

    if not (trace.start <= t_start < t_end <= trace.end):
        raise AcquisitionError(
            f"window [{t_start}, {t_end}] outside trace span "
            f"[{trace.start}, {trace.end}] of {trace.source_label!r}"
        )
    ts = trace.times()
    ps = trace.powers()
    lo = int(np.searchsorted(ts, t_start, "right"))  # first sample after t_start
    hi = int(np.searchsorted(ts, t_end, "left"))  # first sample at or after t_end
    p_start = float(np.interp(t_start, ts[lo - 1:lo + 1], ps[lo - 1:lo + 1]))
    p_end = float(np.interp(t_end, ts[hi - 1:hi + 1], ps[hi - 1:hi + 1]))
    xs = np.concatenate(([t_start], ts[lo:hi], [t_end]))
    ys = np.concatenate(([p_start], ps[lo:hi], [p_end]))
    return float(np.trapezoid(ys, xs))


def trace_span(trace: PowerTrace, seconds: float) -> CounterSpan:
    """The joules of ``trace`` over ``seconds`` from its first sample."""
    joules = integrate_energy(trace, trace.start, trace.start + seconds)
    return CounterSpan(joules, seconds, trace.source_label)


def net_energy(total: CounterSpan, idle: CounterSpan) -> float:
    """Energy attributable to the activity ``total`` recorded.

    Idle power, ``idle``'s joules over its own seconds, is subtracted over
    ``total``'s seconds.  A negative result means the idle baseline
    exceeded the total; it is logged as a warning and returned unclamped.
    """
    net = float(total.joules - idle.joules * (total.seconds / idle.seconds))
    if net < 0:
        logger.warning(
            "net energy is negative (%.6g J): idle baseline %r exceeds total %r",
            net,
            idle.source_label,
            total.source_label,
        )
    return net


def _t_central_mass(theta: float, dof: int) -> tuple[float, float]:
    """``A = P(|T| <= sqrt(dof) tan(theta))`` and ``dA/dtheta``.

    ``A`` is the finite series in ``cos(theta)`` of Abramowitz & Stegun
    26.7.3 (odd ``dof``) and 26.7.4 (even ``dof``).  ``dA/dtheta`` is
    ``dof`` times the series' next term over ``cos(theta)``, times
    ``2 / pi`` for odd ``dof``: the Gamma-function constant taken from
    the series, so that at ``dof = 1`` it is ``2 / pi`` to the last bit.
    """
    sin, cos = math.sin(theta), math.cos(theta)
    cos2 = cos * cos
    term, total = 1.0, 0.0
    if dof % 2:
        for k in range(1, (dof - 1) // 2 + 1):  # 1, 2/3 cos^2, 2*4/(3*5) cos^4, ...
            total += term
            term *= cos2 * (2 * k) / (2 * k + 1)
        return 2.0 / math.pi * (theta + sin * cos * total), 2.0 / math.pi * dof * term
    for k in range(1, dof // 2 + 1):  # 1, 1/2 cos^2, 1*3/(2*4) cos^4, ...
        total += term
        term *= cos2 * (2 * k - 1) / (2 * k)
    return sin * total, dof * term / cos


def t_critical(alpha: float, dof: int) -> float:
    """One-sided critical value of the Student t-distribution.

    Returns the t for which the CDF with ``dof`` degrees of freedom
    equals ``alpha``.  With ``theta = atan(t / sqrt(dof))`` the central
    mass ``A = 2 * alpha - 1`` is a finite series in ``cos(theta)``
    (Abramowitz & Stegun 26.7.3-4).  ``A`` is increasing and concave on
    ``[0, pi/2)``, so Newton steps from ``theta = 0`` climb to the root
    without overshooting; they stop once a step no longer raises
    ``theta``.  As ``A`` holds ``1 - alpha`` as a difference from 1, the
    relative error grows as ``alpha`` nears 1: under 1e-12 up to 0.999,
    up to 1e-4 at ``1 - 1e-12``, and within some 1e-15 of 1 the climb
    can stop high, where the slope underflows.
    """
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if alpha == 0.5:
        return 0.0
    if alpha < 0.5:
        return -t_critical(1.0 - alpha, dof)
    target = 2.0 * alpha - 1.0
    theta = 0.0
    while True:
        mass, slope = _t_central_mass(theta, dof)
        # math.pi / 2 lies just below pi/2, so tan stays positive
        after = min(theta + (target - mass) / slope, math.pi / 2) if slope else theta
        if not after > theta:
            return math.sqrt(dof) * math.tan(theta)
        theta = after


@lru_cache(maxsize=16)
def _t_row(alpha: float) -> list[float]:
    """``t_critical(alpha, dof)`` at index ``dof``; index 0 holds no quantile.

    The row only ever grows, through :func:`_grow_t_row`, so an entry once
    read never changes.
    """
    return [math.nan]


_T_ROW_LOCK = threading.Lock()


def _grow_t_row(row: list[float], alpha: float, dof: int) -> None:
    """Append to ``row`` every quantile up to ``dof`` degrees of freedom."""
    with _T_ROW_LOCK:  # two threads must not append the same entry
        while len(row) <= dof:
            row.append(t_critical(alpha, len(row)))


_NONPOSITIVE_MEAN = "mean energy must be positive to apply the relative bound, got {:.6g} J"


def confidence_check(energies: Sequence[float], policy: ConfidencePolicy) -> bool:
    """True iff the repeated energies satisfy the stopping criterion.

    The test is ``2 * s / sqrt(m) * t(m - 1) < beta * mean`` with ``s``
    the sample standard deviation and the current sample mean standing
    in for the unknown true energy on the right-hand side, both folded
    from the energies by Welford's update as in
    :func:`measure_until_confident`.  Fewer than two repetitions can
    never be confident.
    """
    n = len(energies)
    if n < 2:
        return False
    mean = m2 = 0.0
    for k, x in enumerate(energies, 1):
        delta = x - mean
        mean += delta / k
        m2 += delta * (x - mean)
    if mean <= 0:
        raise InvalidMeasurementError(_NONPOSITIVE_MEAN.format(mean))
    t = t_critical(policy.alpha, n - 1)
    return 2.0 * math.sqrt(m2 / (n - 1)) / math.sqrt(n) * t < policy.beta * mean


def measure_until_confident(
    run_once: Callable[[], float],
    policy: ConfidencePolicy,
    job_id: str = "",
) -> MeasurementRecord:
    """Repeat a measurement callback until the stopping rule is satisfied.

    Invokes ``run_once`` at least ``min_reps`` and at most ``max_reps``
    times.  Each energy updates a running mean and sum of squared
    deviations (Welford 1962), from which every repetition from
    ``min_reps`` on applies the test of :func:`confidence_check`, with
    its t quantile read from the row cached for ``alpha``; the first
    pass stops, and exhausting the budget yields a record with
    ``confident=False``.  A failing callback raises
    :class:`MeasurementRunError` carrying the repetition index and the
    energies collected so far.
    """
    alpha, beta, min_reps = policy.alpha, policy.beta, policy.min_reps
    t = _t_row(alpha)
    energies: list[float] = []
    mean = m2 = 0.0
    confident = False
    for n in range(1, policy.max_reps + 1):
        try:
            x = float(run_once())
        except Exception as exc:
            raise MeasurementRunError(n, tuple(energies), str(exc)) from exc
        energies.append(x)
        delta = x - mean
        mean += delta / n
        m2 += delta * (x - mean)
        if n < min_reps:
            continue
        if mean <= 0:
            raise InvalidMeasurementError(_NONPOSITIVE_MEAN.format(mean))
        if len(t) < n:
            _grow_t_row(t, alpha, n - 1)
        # This operation order is the one confidence_check uses; folding
        # 2 / sqrt(n) * t into one factor would round differently.
        if 2.0 * math.sqrt(m2 / (n - 1)) / math.sqrt(n) * t[n - 1] < beta * mean:
            confident = True
            break
    return MeasurementRecord(
        job_id, tuple(energies), statistics.fmean(energies), math.sqrt(m2 / (n - 1)), n, confident
    )
