"""Power-trace acquisition: CSV files, live counter files, synthetic generators.

Trace CSV format: header line ``t_s,p_w`` followed by ``<float>,<float>``
rows, UTF-8, ``.`` decimal separator, LF or CRLF line endings.  Spaces
and tabs around a field are allowed; a blank line is an error.

Counter files follow the RAPL convention: a text file holding one
non-negative integer, a cumulative energy counter in microjoules.  The
counter is its own integrator: a recording's energy is the unwrapped
difference between a reading the recording thread takes just before the
activity and one it takes just after, with a sampler thread polling in
between only to catch wraps, and is returned as a flat two-sample trace
over the time between the two readings.  The wrap-around modulus is read
once, when the meter is built, from a sibling ``max_energy_range_uj``
file when there is one (as in a powercap zone), else it is 2**32.
"""

from __future__ import annotations

import abc
import contextlib
import json
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .energy import PowerTrace, _first_invalid_row
from .errors import (
    AcquisitionError,
    CorruptCounterError,
    MalformedTraceError,
    TraceWindowError,
)
from .models import DEFAULT_POLL_PERIOD

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

DEFAULT_WRAP_UJ = 2**32

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
    """Read a trace CSV, validating header, monotonicity, and power sign.

    A file that ``np.loadtxt`` reads to exactly one ``(t, p)`` row per
    data line is read by it; any other file goes through the strict line
    loop, :func:`_parse_trace_lines`, which alone words the errors.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise AcquisitionError(f"cannot read trace file {path}: {exc}") from exc
    samples = _loadtxt_rows(path, data)
    if samples is None:
        return _parse_trace_lines(path, data)
    return _trace_from_rows(path, samples)


def _loadtxt_rows(path: Path, data: bytes) -> Optional[np.ndarray]:
    """The data rows of ``data``, the bytes of ``path``, read by ``np.loadtxt``.

    None unless the file has LF line endings only, the header, a data
    line, and one row of two columns per data line: blank lines, which
    ``loadtxt`` skips, and ``float`` spellings it rejects (``1_0``,
    non-ASCII digits) are left to the line loop.
    """
    header = data.partition(b"\n")[0]
    n_rows = data.count(b"\n") - 1 + (not data.endswith(b"\n"))
    if b"\r" in data or header.strip() != TRACE_HEADER.encode() or n_rows < 1:
        return None  # loadtxt warns of a file with no data rows
    try:
        samples = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=1,
                             encoding="utf-8")
    except (OSError, ValueError):  # ValueError covers UnicodeDecodeError
        return None
    return samples if samples.shape == (n_rows, 2) else None


def _parse_trace_lines(path: Path, data: bytes) -> PowerTrace:
    """Parse ``data``, the bytes of trace CSV ``path``, line by line.

    Lines end in LF, CRLF or CR, as in a file read in text mode.
    """
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
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
    return _trace_from_rows(path, np.array(values, dtype=np.float64).reshape(-1, 2), unparsed)


def _trace_from_rows(path: Path, samples: np.ndarray, unparsed: Optional[str] = None) -> PowerTrace:
    """The trace of the rows parsed from ``path``, which stopped at ``unparsed`` if set."""
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
    """The counter's wrap modulus: its sibling range file, else 2**32."""
    range_file = Path(counter_path).with_name("max_energy_range_uj")
    if not range_file.is_file():
        return DEFAULT_WRAP_UJ
    try:
        raw = range_file.read_text().strip()
    except OSError as exc:
        raise AcquisitionError(f"cannot read {range_file}: {exc}") from exc
    try:
        value = int(raw)
    except ValueError as exc:
        raise AcquisitionError(f"{range_file} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise AcquisitionError(f"{range_file} must be positive, got {value}")
    return value


def read_counter_uj(path: str | Path) -> int:
    """Read a cumulative microjoule counter from a text file."""
    try:
        raw = Path(path).read_text().strip()
    except PermissionError as exc:
        raise AcquisitionError(
            f"cannot read counter file {path}: {exc}; RAPL energy counters are readable "
            f"only by root since CVE-2020-8694: run as root, or grant read access "
            f"with a udev rule or chmod"
        ) from exc
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


def counter_energy_uj(readings: Sequence[int], modulus: int) -> int:
    """Microjoules counted from the first of ``readings`` to the last.

    Each step between consecutive readings is unwrapped by
    :func:`counter_delta_uj`, so no two of them may be a whole wrap apart.
    """
    return sum(counter_delta_uj(prev, current, modulus)
               for prev, current in zip(readings, readings[1:]))


def sample_counter_file(
    path: str | Path,
    period: float,
    stop_signal: threading.Event,
    *,
    wait: Optional[Callable[[float], None]] = None,
    ready: Optional[threading.Event] = None,
) -> list[int]:
    """Readings of a cumulative counter polled from now until ``stop_signal``.

    The first reading is taken before ``ready`` is set; the counter is
    then read every ``period`` seconds, only so that no two readings are a
    whole wrap apart.  A reading is kept only if ``stop_signal`` was still
    clear once it had been taken, so every reading returned precedes any
    reading the caller takes after setting ``stop_signal``.

    ``wait(period)`` sleeps between polls.  By default it waits on
    ``stop_signal``, so that setting it ends the sampling at once; a caller
    that must not wake the sampler when it sets ``stop_signal`` passes a
    wait on another event, and tests pass a deterministic one.
    """
    if period <= 0:
        raise ValueError(f"period must be > 0, got {period}")
    if wait is None:
        wait = stop_signal.wait
    readings = [read_counter_uj(path)]
    if ready is not None:
        ready.set()
    while True:
        wait(period)
        if stop_signal.is_set():
            return readings
        current = read_counter_uj(path)
        if stop_signal.is_set():  # this reading may follow the caller's last one
            return readings
        readings.append(current)


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
        activity's duration anchored at the trace's first sample.  A
        counter meter's trace is the counter's own difference between
        readings taken just before and just after the activity, spread
        evenly over the time between them.  An exception from ``activity``
        propagates unchanged.
        """

    @abc.abstractmethod
    def capture_idle(self, duration: float) -> PowerTrace: ...


class _CounterSession:
    """One counter recording: edge readings on the recording thread, with
    a sampler thread polling between them to catch wraps."""

    def __init__(self, meter: "CounterMeter"):
        self._meter = meter
        self._stop = threading.Event()
        self._wake = threading.Event()  # ends the sampler's sleep; set after the last edge
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._readings: Optional[list[int]] = None
        self._error: Optional[BaseException] = None
        self._first = (0.0, 0)  # (time just after, value) of the first edge reading

    def start(self) -> None:
        """Start the sampler, then take the first edge reading: the activity follows it."""
        def run() -> None:
            try:
                self._readings = sample_counter_file(
                    self._meter.path, self._meter.sample_period, self._stop,
                    wait=self._wake.wait, ready=self._ready,
                )
            except BaseException as exc:  # surfaced by start() or stop()
                self._error = exc
                self._ready.set()

        self._thread = threading.Thread(target=run, name="encwatt-sampler", daemon=True)
        self._thread.start()
        try:
            # the measured activity must not begin before sampling has
            if not self._ready.wait(timeout=_READY_TIMEOUT_S):
                raise AcquisitionError(
                    f"sampler of counter file {self._meter.path} not ready "
                    f"after {_READY_TIMEOUT_S} s"
                )
            if self._error is not None:  # failed already: the activity would go unmeasured
                raise self._error
            first = read_counter_uj(self._meter.path)
        except BaseException:
            self._stop.set()
            self._wake.set()
            raise
        self._first = (time.perf_counter(), first)

    def stop(self) -> PowerTrace:
        """Take the last edge reading, stop the sampler, and spread the
        energy counted between the edges evenly over the time between them."""
        assert self._thread is not None, "stop() before start()"
        end = time.perf_counter()
        # The sampler keeps no reading from here on; it is woken only after
        # the last edge, so that it does not compete for the interpreter then.
        self._stop.set()
        try:
            last = read_counter_uj(self._meter.path)
        finally:
            self._wake.set()
            self._thread.join()
        if self._error is not None:
            raise self._error
        assert self._readings is not None
        start, first = self._first
        modulus = self._meter._modulus
        # Each sampler reading precedes the last edge; the first sampler
        # reading precedes the first edge, whose lead is taken off.
        energy_uj = (counter_energy_uj([*self._readings, last], modulus)
                     - counter_delta_uj(self._readings[0], first, modulus))
        # The span runs from just after the first reading to just before the
        # last: it holds the activity with almost no slack, and the small
        # counted time outside it recurs in an idle capture, which cancels it.
        span = end - start
        power = energy_uj / span / 1e6
        return PowerTrace([(0.0, power), (span, power)], source_label=f"counter:{self._meter.path}")


class CounterMeter(Meter):
    """Live meter reading a cumulative microjoule counter file."""

    def __init__(self, path: str | Path, sample_period: float = DEFAULT_POLL_PERIOD):
        self.path = Path(path)
        self.sample_period = sample_period
        # an unreadable counter or range file fails here, not mid-campaign
        read_counter_uj(self.path)
        self._modulus = _wrap_modulus(self.path)

    def record(self, activity: Callable[[], T]) -> tuple[PowerTrace, T]:
        session = _CounterSession(self)
        session.start()
        try:
            result = activity()
        except BaseException:
            # Stop the sampler either way; a counter fault met while the
            # activity failed is not the error to report.
            with contextlib.suppress(AcquisitionError):
                session.stop()
            raise
        return session.stop(), result

    def capture_idle(self, duration: float) -> PowerTrace:
        """The counter's difference across a sleep of ``duration`` seconds."""
        return self.record(lambda: time.sleep(duration))[0]


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


_RECIPE_ALIASES = {"base": "base_power", "active": "active_power", "noise": "noise_std"}
_RECIPE_KEYS = ("base_power", "active_power", "noise_std", "duration", "seed", "period")


def load_recipe(path_or_inline: str) -> tuple[SyntheticRecipe, Optional[float]]:
    """Load a synthetic recipe and its ``period`` from a JSON file or inline shorthand.

    Both forms take the keys of :class:`SyntheticRecipe`, ``period``, and
    the aliases ``base``, ``active`` and ``noise``.  The shorthand is
    ``key=value,key=value``.
    """
    candidate = Path(path_or_inline)
    if candidate.suffix == ".json" or candidate.is_file():
        try:
            data = json.loads(candidate.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read recipe {candidate}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"recipe {candidate} must hold a JSON object")
        items = list(data.items())
    else:
        items = []
        for item in filter(None, (part.strip() for part in path_or_inline.split(","))):
            if "=" not in item:
                raise ValueError(f"bad recipe item {item!r}; expected key=value")
            key, value = item.split("=", 1)
            items.append((key.strip(), value))
    kwargs: dict[str, float] = {}
    for key, value in items:
        key = _RECIPE_ALIASES.get(key, key)
        if key not in _RECIPE_KEYS:
            raise ValueError(f"unknown recipe key {key!r}")
        try:
            kwargs[key] = int(value) if key == "seed" else float(value)
        except TypeError as exc:
            raise ValueError(f"recipe key {key!r} needs a number, got {value!r}") from exc
    period = kwargs.pop("period", None)
    return SyntheticRecipe(**kwargs), period  # type: ignore[arg-type]


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
    recipe, period = load_recipe(target) if kind == "synth" else (None, None)
    for value in (sample_period, period):
        if value is not None and value <= 0:
            raise ValueError(f"sample_period must be > 0, got {value}")
    if kind == "counter":
        return CounterMeter(target, sample_period=sample_period)
    return SyntheticMeter(recipe, sample_period=period if period is not None else sample_period)
