"""Meters recording joules over seconds: trace CSVs, live counter files, synthetic traces.

Trace CSV format: header line ``t_s,p_w`` followed by ``<float>,<float>``
rows, UTF-8, ``.`` decimal separator, LF or CRLF line endings.  Spaces
and tabs around a field are allowed; a blank line is an error.

Counter files follow the RAPL convention: a text file holding one
non-negative integer, a cumulative energy counter in microjoules.  The
counter is its own integrator: a recording's energy is the unwrapped
difference between a reading the recording thread takes just before the
activity and one it takes just after, with a sampler thread polling in
between only to catch wraps, over the seconds between the two
readings.  The wrap-around modulus is read once, when the meter is
built, from the ``max_energy_range_uj`` file beside the file the counter
path resolves to (a powercap zone's, also through a symlink) when there
is one, else it is 2**32.

A replayed trace CSV cannot be its own idle baseline: it is opened only
with an idle trace CSV that is another file.

numpy is imported by the functions that parse or generate a trace, so it
is loaded when a trace is first built; the counter path never loads it.
"""

from __future__ import annotations

import abc
import contextlib
import itertools
import math
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar

from .energy import CounterSpan, PowerTrace, _first_invalid_row, trace_span
from .errors import AcquisitionError
from .models import parse_json, read_json

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SyntheticRecipe",
    "parse_trace_csv",
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
# Seconds between counter polls, which only catch wraps: half a 2**32 uJ
# wrap takes over 10 s even at 200 W.  Also a synthetic meter's default grid.
DEFAULT_POLL_PERIOD = 0.1

TRACE_HEADER = "t_s,p_w"

_WRAP_FRACTION = 0.5  # a drop implying this share of the modulus or more is no wrap

T = TypeVar("T")


@dataclass(frozen=True)
class SyntheticRecipe:
    """Test double for a power meter: base load plus an active step on a ``period`` grid."""

    base_power: float = 20.0
    active_power: float = 30.0
    noise_std: float = 0.0
    seed: int = 0
    period: float = DEFAULT_POLL_PERIOD

    def __post_init__(self) -> None:
        for name in ("base_power", "active_power", "noise_std"):  # a NaN fails every comparison
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.period < math.inf:
            raise ValueError(f"period must be finite and > 0, got {self.period}")


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
    import numpy as np

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
    import numpy as np

    try:
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise AcquisitionError(f"{path}: not UTF-8 text: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise AcquisitionError(
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
    if unparsed is None and len(samples) >= 2:
        try:
            return PowerTrace(samples, source_label=str(path))
        except AcquisitionError:
            pass  # a row breaks an invariant: worded below, by its line
    i = _first_invalid_row(samples)  # reported first: it precedes any unparseable line
    if i >= 0:
        t, p = samples[i].tolist()
        if p < 0:
            why = f"negative power {p}"
        elif i > 0 and t <= samples[i - 1, 0]:
            why = f"timestamp {t} not greater than previous {float(samples[i - 1, 0])}"
        else:
            why = f"values must be finite and >= 0, got {t}, {p}"
        raise AcquisitionError(f"{path}, line {i + 2}: {why}")
    if unparsed is not None:
        raise AcquisitionError(f"{path}, {unparsed}")
    raise AcquisitionError(f"{path}: fewer than 2 samples")


# Follows the error of a counter read that the file's permissions refused.
_COUNTER_DENIED = ("; RAPL energy counters are readable only by root since CVE-2020-8694: "
                   "run as root, or grant read access with a udev rule or chmod")


def _read_int_file(path: str | Path, what: str, denied: str = "") -> int:
    """The integer text file ``path`` holds; errors name it as ``what``, and
    ``denied`` ends the error of a read its permissions refused."""
    try:
        raw = Path(path).read_text().strip()
    except (OSError, UnicodeDecodeError) as exc:
        why = denied if isinstance(exc, PermissionError) else ""
        raise AcquisitionError(f"cannot read {what}: {exc}{why}") from exc
    try:
        return int(raw)
    except ValueError as exc:
        raise AcquisitionError(f"{what} does not hold an integer: {raw!r}") from exc


def _wrap_modulus(counter_path: str | Path) -> int:
    """The counter's wrap modulus: the range file beside the file it resolves to, else 2**32."""
    range_file = Path(counter_path).resolve().with_name("max_energy_range_uj")
    if not range_file.is_file():
        return DEFAULT_WRAP_UJ
    value = _read_int_file(range_file, str(range_file))
    if value <= 0:
        raise AcquisitionError(f"{range_file} must be positive, got {value}")
    return value


def read_counter_uj(path: str | Path) -> int:
    """Read a cumulative microjoule counter from a text file."""
    value = _read_int_file(path, f"counter file {path}", denied=_COUNTER_DENIED)
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
            raise AcquisitionError(
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
) -> list[int]:
    """Readings of a cumulative counter polled from now until ``stop_signal``.

    The counter is read every ``period`` seconds, starting one ``period``
    from now, only so that no two consecutive readings of the caller's
    chain (its own first reading, these polls, its last reading) are a
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
    readings: list[int] = []
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
    duration: float,
    active_window: tuple[float, float] = (0.0, 0.0),
    source_label: str = "synthetic",
) -> PowerTrace:
    """Deterministic synthetic trace: base power plus a step inside the window.

    Samples lie on the grid ``0, T, 2T, ...`` of the recipe's ``period``
    ``T`` up to ``duration`` (the endpoint is included).  Window
    membership is half-open, ``a <= t < b``, so a window with edges on the
    sample grid integrates to exactly ``base * duration + active * (b - a)``;
    the default, empty window gives base power only.  Gaussian noise of the
    recipe's std, drawn from its seed, is added and truncated at zero.
    """
    import numpy as np

    if not duration > 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    a, b = active_window
    if not (0.0 <= a <= b <= duration):
        raise ValueError(f"active window [{a}, {b}] must lie within [0, {duration}]")
    n = int(np.floor(duration / recipe.period + 1e-9)) + 1
    times = np.arange(n) * recipe.period
    if times[-1] < duration - 1e-12:
        times = np.append(times, duration)
    powers = np.full(times.shape, recipe.base_power, dtype=float)
    powers[(times >= a) & (times < b)] += recipe.active_power
    if recipe.noise_std > 0:
        rng = np.random.default_rng(recipe.seed)
        powers = powers + rng.normal(0.0, recipe.noise_std, size=times.shape)
        powers = np.maximum(powers, 0.0)
    return PowerTrace.from_arrays(times, powers, source_label=source_label)


class Meter(abc.ABC):
    """A source of energy recordings for measured runs and idle baselines."""

    @abc.abstractmethod
    def record(self, activity: Callable[[], T]) -> tuple[CounterSpan, T]:
        """Run ``activity`` while measuring; return the recording and its result.

        A trace meter's recording is its trace's energy from the first
        sample over the seconds the activity took, on the meter's own
        timer.  A counter meter's is the counter's own difference between
        readings taken just before and just after the activity, with the
        seconds between them.  An exception from ``activity`` propagates
        unchanged.
        """

    @abc.abstractmethod
    def capture_idle(self, duration: float) -> CounterSpan: ...


class _CounterSession:
    """One counter recording: edge readings on the recording thread, with
    a sampler thread polling between them to catch wraps."""

    def __init__(self, meter: "CounterMeter"):
        self._meter = meter
        self._stop = threading.Event()
        self._wake = threading.Event()  # ends the sampler's sleep; set after the last edge
        self._thread: Optional[threading.Thread] = None
        self._polls: Optional[list[int]] = None
        self._error: Optional[BaseException] = None
        self._first = (0.0, 0)  # (time just after, value) of the first edge reading

    def start(self) -> None:
        """Take the first edge reading, then start the sampler: the activity follows."""
        first = read_counter_uj(self._meter.path)
        self._first = (time.perf_counter(), first)

        def run() -> None:
            try:
                self._polls = sample_counter_file(
                    self._meter.path, self._meter.sample_period, self._stop,
                    wait=self._wake.wait,
                )
            except BaseException as exc:  # surfaced by stop()
                self._error = exc

        self._thread = threading.Thread(target=run, name="encwatt-sampler", daemon=True)
        self._thread.start()

    def stop(self) -> CounterSpan:
        """Take the last edge reading, stop the sampler, and return the
        energy counted between the edges with the time between them."""
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
        assert self._polls is not None
        start, first = self._first
        # every poll follows the first edge and precedes the last
        energy_uj = counter_energy_uj([first, *self._polls, last], self._meter._modulus)
        return CounterSpan(energy_uj / 1e6, end - start, f"counter:{self._meter.path}")


class CounterMeter(Meter):
    """Live meter reading a cumulative microjoule counter file."""

    def __init__(self, path: str | Path, sample_period: float = DEFAULT_POLL_PERIOD):
        self.path = Path(path)
        if not sample_period > 0:
            raise ValueError(f"sample_period must be > 0, got {sample_period}")
        self.sample_period = sample_period
        # an unreadable counter or range file fails here, not mid-campaign
        read_counter_uj(self.path)
        self._modulus = _wrap_modulus(self.path)

    def record(self, activity: Callable[[], T]) -> tuple[CounterSpan, T]:
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

    def capture_idle(self, duration: float) -> CounterSpan:
        """The counter's difference across a sleep of ``duration`` seconds."""
        return self.record(lambda: time.sleep(duration))[0]


class SyntheticMeter(Meter):
    """Meter test double generating traces from a recipe.

    The n-th recording or idle capture draws its noise from seed
    ``recipe.seed + n``, so repeated measurements see independent noise;
    with ``noise_std=0`` traces are exactly reproducible.
    """

    def __init__(self, recipe: SyntheticRecipe):
        self.recipe = recipe
        self._seeds = itertools.count(recipe.seed + 1)

    def _span(self, seed: int, seconds: float, active: float, label: str) -> CounterSpan:
        """``seconds`` of a trace two periods longer, active over the first ``active``."""
        recipe = replace(self.recipe, seed=seed)
        trace = generate_synthetic_trace(recipe, seconds + 2 * recipe.period, (0.0, active), label)
        return trace_span(trace, seconds)

    def record(self, activity: Callable[[], T]) -> tuple[CounterSpan, T]:
        seed = next(self._seeds)  # drawn first: an activity that fails uses its seed up
        t0 = time.perf_counter()
        result = activity()
        elapsed = time.perf_counter() - t0
        return self._span(seed, elapsed, elapsed, "synthetic-meter"), result

    def capture_idle(self, duration: float) -> CounterSpan:
        return self._span(next(self._seeds), duration, 0.0, "synthetic-idle")


class CsvReplayMeter(Meter):
    """Replays a trace file, with another trace file as its idle baseline,
    both from their first sample; useful for dry runs and diagnostics."""

    def __init__(self, path: str | Path, idle_path: str | Path):
        with contextlib.suppress(OSError):  # a file that cannot be read is named by its parse
            if Path(path).samefile(idle_path):
                raise ValueError(f"idle trace {idle_path} is the replayed trace {path}: "
                                 f"every net energy would be 0 J")
        self._trace = parse_trace_csv(path)
        self._idle = parse_trace_csv(idle_path)

    def record(self, activity: Callable[[], T]) -> tuple[CounterSpan, T]:
        t0 = time.perf_counter()
        result = activity()
        return trace_span(self._trace, time.perf_counter() - t0), result

    def capture_idle(self, duration: float) -> CounterSpan:
        return trace_span(self._idle, duration)


# The JSON type of each recipe key, and the key each alias spells.
_RECIPE_KEYS = {"base_power": float, "active_power": float, "noise_std": float, "seed": int,
                "period": float, "base": "base_power", "active": "active_power",
                "noise": "noise_std"}


def _inline_value(text: str) -> int | float | str:
    """An inline recipe value as the JSON number it spells, else the text itself."""
    for kind in (int, float):
        with contextlib.suppress(ValueError):
            return kind(text)
    return text


def load_recipe(path_or_inline: str) -> SyntheticRecipe:
    """Load a synthetic recipe from a JSON file or inline shorthand.

    Both forms take the keys of :class:`SyntheticRecipe` and the aliases
    ``base``, ``active`` and ``noise``; the shorthand is ``key=value,...``.
    An unknown key (``duration`` too: each recording sets its own), a
    value given twice (``base`` and ``base_power``, or one key repeated) or
    a value of the wrong type (``true``, or a ``seed`` that is not an
    integer) is refused with the recipe named, one out of range with its key.
    """
    candidate = Path(path_or_inline)
    if candidate.suffix == ".json" or candidate.is_file():
        try:
            data = parse_json(candidate.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read recipe {candidate}: {exc}") from exc
    else:
        pairs = []
        for item in filter(None, (part.strip() for part in path_or_inline.split(","))):
            if "=" not in item:
                raise ValueError(f"bad recipe item {item!r}; expected key=value")
            key, value = item.split("=", 1)
            pairs.append((key.strip(), _inline_value(value)))
        data = tuple(pairs)
    return SyntheticRecipe(**read_json(data, _RECIPE_KEYS, what=f"recipe {path_or_inline!r}"))


@dataclass(frozen=True)
class _SharedIdleMeter(Meter):
    """``meter``, with one shared idle trace for its idle baseline."""

    meter: Meter
    idle: PowerTrace

    def record(self, activity: Callable[[], T]) -> tuple[CounterSpan, T]:
        return self.meter.record(activity)

    def capture_idle(self, duration: float) -> CounterSpan:
        return trace_span(self.idle, duration)


def open_meter(spec: str, idle_trace: Optional[str | Path] = None) -> Meter:
    """Open the meter a CLI spec names: ``csv:<path> | counter:<path> | synth:<recipe>``.

    A counter is polled every ``DEFAULT_POLL_PERIOD``; a synthetic meter's
    grid is its recipe's ``period``.  An ``idle_trace`` CSV is the meter's
    idle baseline, read from its first sample, in place of its own; a
    ``csv:`` replay has none, and is refused without one before any read.
    """
    kind, colon, target = spec.partition(":")
    if not colon:
        raise ValueError(f"meter spec {spec!r} must look like kind:target")
    if kind not in ("csv", "counter", "synth"):
        raise ValueError(f"unknown meter kind {kind!r}; expected csv, counter, or synth")
    if not target and kind != "synth":  # an empty recipe is the default one
        raise ValueError(f"meter spec {spec!r} names no file")
    if kind == "csv":
        if not idle_trace:  # `measure` takes an empty --idle-trace for none
            raise ValueError(f"meter spec {spec!r} needs --idle-trace: the replayed trace would "
                             f"be its own idle baseline, and every net energy 0 J")
        return CsvReplayMeter(target, idle_trace)
    meter = CounterMeter(target) if kind == "counter" else SyntheticMeter(load_recipe(target))
    return _SharedIdleMeter(meter, parse_trace_csv(idle_trace)) if idle_trace else meter
