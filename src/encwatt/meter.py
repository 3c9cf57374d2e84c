"""Power-trace acquisition: CSV files, live counter files, synthetic generators.

Trace CSV format: header line ``t_s,p_w`` followed by ``<float>,<float>``
rows, UTF-8, ``.`` decimal separator, LF line endings.

Counter files follow the RAPL convention: a text file holding one
non-negative integer, a cumulative energy counter in microjoules, re-read
on every poll.  The wrap-around modulus is read from a sibling
``max_energy_range_uj`` file when there is one (as in a powercap zone),
else from the ``ENCWATT_WRAP_UJ`` environment variable, else 2**32.
"""

from __future__ import annotations

import abc
import contextlib
import json
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, TypeVar

import numpy as np

from .energy import PowerTrace, _first_invalid_row
from .errors import (
    AcquisitionError,
    CorruptCounterError,
    MalformedTraceError,
    TraceWindowError,
)

__all__ = [
    "SyntheticRecipe",
    "parse_trace_csv",
    "write_trace_csv",
    "read_counter_uj",
    "sample_counter_file",
    "generate_synthetic_trace",
    "Meter",
    "CounterMeter",
    "SyntheticMeter",
    "CsvReplayMeter",
    "open_meter",
    "DEFAULT_POLL_PERIOD",
    "DEFAULT_WRAP_UJ",
]

DEFAULT_POLL_PERIOD = 0.1  # seconds; configuration default, not a measured value
DEFAULT_WRAP_UJ = 2**32
WRAP_ENV_VAR = "ENCWATT_WRAP_UJ"

TRACE_HEADER = "t_s,p_w"

# How long a counter recording waits for its sampler's first reading.
_READY_TIMEOUT_S = 10.0
_WRAP_FRACTION = 0.5  # a drop implying this share of the modulus or more is no wrap

T = TypeVar("T")


@dataclass(frozen=True)
class SyntheticRecipe:
    """Test double for a power meter: base load plus an active step."""

    base_power: float = 20.0
    active_power: float = 30.0
    noise_std: float = 0.0
    duration: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_power < 0 or self.active_power < 0:
            raise ValueError("base_power and active_power must be >= 0")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be > 0")


def parse_trace_csv(path: str | Path) -> PowerTrace:
    """Read a trace CSV, validating header, monotonicity, and power sign."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AcquisitionError(f"cannot read trace file {path}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise MalformedTraceError(
            f"{path}: expected header {TRACE_HEADER!r}, got {lines[0]!r}" if lines
            else f"{path}: empty file"
        )
    values: list[float] = []
    unparsed: Optional[str] = None  # complaint about the first unparseable line
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 2:
            unparsed = f"line {lineno}: expected 2 columns, got {len(fields)}"
            break
        try:
            values += float(fields[0]), float(fields[1])
        except ValueError as exc:
            unparsed = f"line {lineno}: {exc}"
            break
    samples = np.array(values, dtype=np.float64).reshape(-1, 2)
    i = _first_invalid_row(samples)  # reported first: it precedes any unparseable line
    if i >= 0:
        t, p = samples[i].tolist()
        if p < 0:
            why = f"negative power {p}"
        elif i > 0 and t <= samples[i - 1, 0]:
            why = f"timestamp {t} not greater than previous {float(samples[i - 1, 0])}"
        else:
            why = f"values must be finite and >= 0, got {t}, {p}"
        raise MalformedTraceError(f"{path}, line {i + 2}: {why}")
    if unparsed is not None:
        raise MalformedTraceError(f"{path}, {unparsed}")
    if len(samples) < 2:
        raise MalformedTraceError(f"{path}: fewer than 2 samples")
    return PowerTrace(samples, source_label=str(path))


def write_trace_csv(trace: PowerTrace, path: str | Path) -> None:
    """Write a trace in canonical CSV form (shortest round-trip floats, LF)."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.writelines(f"{t!r},{p!r}\n" for t, p in trace.samples.tolist())


def _wrap_modulus(counter_path: str | Path) -> int:
    """The counter's wrap modulus: sibling range file, else environment, else 2**32."""
    range_file = Path(counter_path).with_name("max_energy_range_uj")
    source, raw = WRAP_ENV_VAR, os.environ.get(WRAP_ENV_VAR)
    if range_file.is_file():
        source = str(range_file)
        try:
            raw = range_file.read_text().strip()
        except OSError as exc:
            raise AcquisitionError(f"cannot read {source}: {exc}") from exc
    if raw is None:
        return DEFAULT_WRAP_UJ
    try:
        value = int(raw)
    except ValueError as exc:
        raise AcquisitionError(f"{source} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise AcquisitionError(f"{source} must be positive, got {value}")
    return value


def read_counter_uj(path: str | Path) -> int:
    """Read a cumulative microjoule counter from a text file."""
    try:
        raw = Path(path).read_text().strip()
    except OSError as exc:
        raise AcquisitionError(f"cannot read counter file {path}: {exc}") from exc
    try:
        value = int(raw)
    except ValueError as exc:
        raise AcquisitionError(f"counter file {path} does not hold an integer: {raw!r}") from exc
    if value < 0:
        raise AcquisitionError(f"counter file {path} holds a negative value: {value}")
    return value


def counter_delta_uj(prev: int, current: int, modulus: int) -> int:
    """Microjoules consumed between two counter readings, handling wrap-around.

    A decrease is interpreted as one wrap of the counter.  If the implied
    interval energy is negative (the drop exceeds the modulus) or reaches
    half the modulus, the decrease cannot be a plausible wrap and the
    counter is reported corrupt.
    """
    delta = current - prev
    if delta < 0:
        delta += modulus
        if not 0 <= delta < _WRAP_FRACTION * modulus:
            raise CorruptCounterError(
                f"counter fell from {prev} to {current}; implied wrap energy {delta} uJ "
                f"is outside [0, {_WRAP_FRACTION:.0%} of modulus {modulus})"
            )
    return delta


def sample_counter_file(
    path: str | Path,
    period: float,
    stop_signal: Optional[threading.Event] = None,
    *,
    max_duration: Optional[float] = None,
    wrap_modulus: Optional[int] = None,
    clock: Callable[[], float] = time.monotonic,
    wait: Optional[Callable[[float], None]] = None,
    source_label: Optional[str] = None,
    ready: Optional[threading.Event] = None,
) -> PowerTrace:
    """Poll a cumulative energy counter and return interval-average powers.

    Each poll interval becomes one sample at the interval midpoint with
    power ``delta_uJ / dt / 1e6``.  Polling runs until ``stop_signal`` is
    set or ``max_duration`` elapses (at least one must be given).  When
    stopped by signal a final partial interval is captured so the trace
    reaches the stop moment.  ``ready`` is set right after the initial
    counter reading, letting a supervisor delay the measured activity
    until sampling has actually begun.

    The ``clock`` and ``wait`` hooks exist for deterministic testing;
    production use keeps the defaults.
    """
    if period <= 0:
        raise ValueError(f"period must be > 0, got {period}")
    if stop_signal is None and max_duration is None:
        raise ValueError("need a stop_signal or a max_duration; refusing to poll forever")
    modulus = wrap_modulus if wrap_modulus is not None else _wrap_modulus(path)
    if wait is None:
        wait = stop_signal.wait if stop_signal is not None else time.sleep

    label = source_label if source_label is not None else f"counter:{path}"
    t0 = clock()
    prev_t = t0
    prev_c = read_counter_uj(path)
    if ready is not None:
        ready.set()
    samples: list[tuple[float, float]] = []

    def take_reading() -> None:
        nonlocal prev_t, prev_c
        now = clock()
        current = read_counter_uj(path)
        dt = now - prev_t
        if dt <= 0:
            return
        delta = counter_delta_uj(prev_c, current, modulus)
        midpoint = (prev_t + now) / 2.0 - t0
        samples.append((midpoint, delta / dt / 1e6))
        prev_t, prev_c = now, current

    while True:
        if stop_signal is not None and stop_signal.is_set():
            break
        if max_duration is not None and clock() - t0 >= max_duration:
            break
        wait(period)
        take_reading()

    if stop_signal is not None and stop_signal.is_set() and clock() - prev_t > period * 0.05:
        take_reading()  # final partial interval up to the stop moment

    if len(samples) < 2:
        raise AcquisitionError(
            f"counter sampling of {path} yielded {len(samples)} interval(s); "
            f"need at least 2 (sampled for {clock() - t0:.3f} s at period {period} s)"
        )
    return PowerTrace(samples, source_label=label)


def generate_synthetic_trace(
    recipe: SyntheticRecipe,
    active_window: tuple[float, float],
    sample_period: float = DEFAULT_POLL_PERIOD,
    source_label: str = "synthetic",
) -> PowerTrace:
    """Deterministic synthetic trace: base power plus a step inside the window.

    Samples lie on the grid ``0, T, 2T, ...`` up to the recipe duration
    (the endpoint is included).  Window membership is half-open,
    ``a <= t < b``, so a window with edges on the sample grid integrates
    to exactly ``base * duration + active * (b - a)``.  Gaussian noise of
    the given std is added and truncated at zero.
    """
    if sample_period <= 0:
        raise ValueError(f"sample_period must be > 0, got {sample_period}")
    a, b = active_window
    if not (0.0 <= a <= b <= recipe.duration):
        raise ValueError(
            f"active window [{a}, {b}] must lie within [0, {recipe.duration}]"
        )
    n = int(np.floor(recipe.duration / sample_period + 1e-9)) + 1
    times = np.arange(n) * sample_period
    if times[-1] < recipe.duration - 1e-12:
        times = np.append(times, recipe.duration)
    powers = np.full(times.shape, recipe.base_power, dtype=float)
    powers[(times >= a) & (times < b)] += recipe.active_power
    if recipe.noise_std > 0:
        rng = np.random.default_rng(recipe.seed)
        powers = powers + rng.normal(0.0, recipe.noise_std, size=times.shape)
        powers = np.maximum(powers, 0.0)
    return PowerTrace.from_arrays(times, powers, source_label=source_label)


class Meter(abc.ABC):
    """A source of power traces for measured runs and idle baselines."""

    @abc.abstractmethod
    def record(self, activity: Callable[[], T]) -> tuple[PowerTrace, T]:
        """Run ``activity`` while measuring; return the trace and its result.

        The trace starts before the activity and covers all of it, so the
        activity's energy is the trace's integral over a window of the
        activity's duration anchored at the trace's first sample.  An
        exception from ``activity`` propagates unchanged.
        """

    @abc.abstractmethod
    def capture_idle(self, duration: float) -> PowerTrace: ...


class _CounterSession:
    """The sampler thread of one counter recording."""

    def __init__(self, meter: "CounterMeter"):
        self._meter = meter
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._trace: Optional[PowerTrace] = None
        self._error: Optional[BaseException] = None

    def start(self) -> None:
        def run() -> None:
            try:
                self._trace = sample_counter_file(
                    self._meter.path,
                    self._meter.sample_period,
                    self._stop,
                    wrap_modulus=self._meter.wrap_modulus,
                    ready=self._ready,
                )
            except BaseException as exc:  # surfaced on stop()
                self._ready.set()
                self._error = exc

        self._thread = threading.Thread(target=run, name="encwatt-sampler", daemon=True)
        self._thread.start()
        # the measured activity must not begin before sampling has
        if not self._ready.wait(timeout=_READY_TIMEOUT_S):
            self._stop.set()
            raise AcquisitionError(
                f"sampler of counter file {self._meter.path} not ready "
                f"after {_READY_TIMEOUT_S} s"
            )

    def stop(self) -> PowerTrace:
        assert self._thread is not None, "stop() before start()"
        self._stop.set()
        self._thread.join()
        if self._error is not None:
            raise self._error
        assert self._trace is not None
        return self._trace


class CounterMeter(Meter):
    """Live meter polling a cumulative microjoule counter file."""

    def __init__(
        self,
        path: str | Path,
        sample_period: float = DEFAULT_POLL_PERIOD,
        wrap_modulus: Optional[int] = None,
    ):
        self.path = Path(path)
        self.sample_period = sample_period
        self.wrap_modulus = wrap_modulus
        read_counter_uj(self.path)  # an unreachable counter fails here, not mid-campaign

    def record(self, activity: Callable[[], T]) -> tuple[PowerTrace, T]:
        session = _CounterSession(self)
        session.start()
        try:
            result = activity()
        except BaseException:
            # A sampler stopped this early may hold too few intervals to
            # build a trace; the activity's error is the one to report.
            with contextlib.suppress(AcquisitionError):
                session.stop()
            raise
        time.sleep(2 * self.sample_period)  # let the trace cover the activity's end
        return session.stop(), result

    def capture_idle(self, duration: float) -> PowerTrace:
        # Two extra periods so midpoint trimming cannot shrink the span
        # below the requested duration.
        return sample_counter_file(
            self.path,
            self.sample_period,
            max_duration=duration + 2 * self.sample_period,
            wrap_modulus=self.wrap_modulus,
            source_label=f"idle:{self.path}",
        )


class SyntheticMeter(Meter):
    """Meter test double generating traces from a recipe.

    Each recording and idle capture draws a fresh seed derived from the
    recipe seed so repeated measurements see independent noise; with
    ``noise_std=0`` traces are exactly reproducible.
    """

    def __init__(self, recipe: SyntheticRecipe, sample_period: float = DEFAULT_POLL_PERIOD):
        self.recipe = recipe
        self.sample_period = sample_period
        self._uses = 0

    def _next_seed(self) -> int:
        self._uses += 1
        return self.recipe.seed + self._uses

    def record(self, activity: Callable[[], T]) -> tuple[PowerTrace, T]:
        seed = self._next_seed()
        t0 = time.perf_counter()
        result = activity()
        elapsed = time.perf_counter() - t0
        recipe = replace(self.recipe, duration=elapsed + 2 * self.sample_period, seed=seed)
        trace = generate_synthetic_trace(
            recipe, (0.0, elapsed), sample_period=self.sample_period, source_label="synthetic-meter"
        )
        return trace, result

    def capture_idle(self, duration: float) -> PowerTrace:
        recipe = replace(
            self.recipe,
            duration=duration + 2 * self.sample_period,
            seed=self._next_seed(),
        )
        return generate_synthetic_trace(
            recipe,
            (0.0, 0.0),  # empty active window: base power only
            sample_period=self.sample_period,
            source_label="synthetic-idle",
        )


class CsvReplayMeter(Meter):
    """Replays a fixed trace file; useful for dry runs and diagnostics."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._trace = parse_trace_csv(self.path)

    def record(self, activity: Callable[[], T]) -> tuple[PowerTrace, T]:
        return self._trace, activity()

    def capture_idle(self, duration: float) -> PowerTrace:
        if self._trace.duration < duration:
            raise TraceWindowError(
                f"replay trace {self.path} spans {self._trace.duration:.6g} s, "
                f"shorter than the requested {duration:.6g} s idle window"
            )
        return self._trace


def _parse_inline_recipe(text: str) -> tuple[SyntheticRecipe, Optional[float]]:
    """Parse ``key=value,key=value`` synthetic recipe shorthand."""
    kwargs: dict[str, float] = {}
    period: Optional[float] = None
    aliases = {"base": "base_power", "active": "active_power", "noise": "noise_std"}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad recipe item {item!r}; expected key=value")
        key, value = item.split("=", 1)
        key = aliases.get(key.strip(), key.strip())
        if key == "period":
            period = float(value)
            continue
        if key not in ("base_power", "active_power", "noise_std", "duration", "seed"):
            raise ValueError(f"unknown recipe key {key!r}")
        kwargs[key] = int(value) if key == "seed" else float(value)
    return SyntheticRecipe(**kwargs), period  # type: ignore[arg-type]


def load_recipe(path_or_inline: str) -> tuple[SyntheticRecipe, Optional[float]]:
    """Load a synthetic recipe from a JSON file or inline shorthand."""
    candidate = Path(path_or_inline)
    if candidate.suffix == ".json" or candidate.is_file():
        data = json.loads(candidate.read_text(encoding="utf-8"))
        period = data.pop("period", None)
        return SyntheticRecipe(**data), period
    return _parse_inline_recipe(path_or_inline)


def open_meter(spec: str, sample_period: float) -> Meter:
    """Open the meter a CLI spec names: ``csv:<path> | counter:<path> | synth:<recipe>``.

    A synthetic recipe's own ``period`` overrides ``sample_period``.
    """
    kind, colon, target = spec.partition(":")
    if not colon:
        raise ValueError(f"meter spec {spec!r} must look like kind:target")
    if kind not in ("csv", "counter", "synth"):
        raise ValueError(f"unknown meter kind {kind!r}; expected csv, counter, or synth")
    if kind == "csv":
        return CsvReplayMeter(target)
    if sample_period <= 0:
        raise ValueError(f"sample_period must be > 0, got {sample_period}")
    if kind == "counter":
        return CounterMeter(target, sample_period=sample_period)
    recipe, period = load_recipe(target)
    return SyntheticMeter(recipe, sample_period=period if period is not None else sample_period)
