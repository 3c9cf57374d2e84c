"""Trace CSV parsing, counter-file sampling, and synthetic generation."""

import hashlib
import math
import os
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encwatt import meter as meter_module
from encwatt.energy import CounterSpan, PowerTrace, integrate_energy, net_energy, trace_span
from encwatt.errors import AcquisitionError
from encwatt.meter import (
    DEFAULT_POLL_PERIOD,
    DEFAULT_WRAP_UJ,
    CounterMeter,
    CsvReplayMeter,
    SyntheticMeter,
    SyntheticRecipe,
    counter_delta_uj,
    counter_energy_uj,
    generate_synthetic_trace,
    open_meter,
    parse_trace_csv,
    sample_counter_file,
)


def write_canonical_trace(trace, path):
    """Write ``trace`` as canonical trace CSV: shortest round-trip floats, LF line ends."""
    rows = "".join(f"{t!r},{p!r}\n" for t, p in trace.samples.tolist())
    path.write_text(f"t_s,p_w\n{rows}", newline="\n")


# ── CSV parsing ───────────────────────────────────────────────────────────

def test_parse_minimal_constant_trace(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n0.0,20.0\n1.0,20.0\n")
    trace = parse_trace_csv(f)
    assert len(trace) == 2
    assert trace.powers()[0] == 20.0
    assert trace.duration == 1.0


def test_parse_rejects_empty_data_section(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n")
    with pytest.raises(AcquisitionError, match="fewer than 2"):
        parse_trace_csv(f)


def test_parse_reports_line_of_monotonicity_violation(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n0.0,20.0\n0.0,21.0\n")
    with pytest.raises(AcquisitionError, match="line 3"):
        parse_trace_csv(f)


def test_parse_rejects_negative_power_with_line(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n0.0,20.0\n1.0,-3.0\n")
    with pytest.raises(AcquisitionError, match="line 3"):
        parse_trace_csv(f)


@pytest.mark.parametrize("bad_row", ["1.0,nan", "1.0,inf", "nan,20.0", "inf,20.0"])
def test_parse_rejects_non_finite_value_with_line(tmp_path, bad_row):
    f = tmp_path / "trace.csv"
    f.write_text(f"t_s,p_w\n0.0,20.0\n{bad_row}\n2.0,20.0\n")
    with pytest.raises(AcquisitionError, match="line 3"):
        parse_trace_csv(f)


def test_parse_reports_the_first_bad_line(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n0.0,20.0\n1.0,-3.0\n2.0\n")
    with pytest.raises(AcquisitionError, match="line 3: negative power"):
        parse_trace_csv(f)


def test_parse_rejects_missing_columns(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n0.0\n")
    with pytest.raises(AcquisitionError, match="2 columns"):
        parse_trace_csv(f)


def test_parse_rejects_bad_header(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("time,power\n0.0,1.0\n1.0,1.0\n")
    with pytest.raises(AcquisitionError, match="header"):
        parse_trace_csv(f)


def test_canonical_round_trip_is_byte_identical(tmp_path):
    src = tmp_path / "a.csv"
    dst = tmp_path / "b.csv"
    trace = generate_synthetic_trace(
        SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=1.5, seed=3), 5.0, (1.0, 4.0),
    )
    write_canonical_trace(trace, src)
    write_canonical_trace(parse_trace_csv(src), dst)
    assert src.read_bytes() == dst.read_bytes()


# Each case must parse as the strict line loop alone parses it: to a
# bit-identical array, or to the same exception type and message.
_HEADER = b"t_s,p_w\n"
PARSER_CORPUS = {
    "minimal": _HEADER + b"0.0,20.0\n1.0,20.0\n",
    "no_final_newline": _HEADER + b"0.0,20.0\n1.0,20.0",
    "empty_file": b"",
    "empty_data_section": _HEADER,
    "header_without_newline": b"t_s,p_w",
    "one_row": _HEADER + b"0.0,20.0\n",
    "monotonicity": _HEADER + b"0.0,20.0\n0.0,21.0\n",
    "negative_power": _HEADER + b"0.0,20.0\n1.0,-3.0\n",
    "nan_power": _HEADER + b"0.0,20.0\n1.0,nan\n2.0,20.0\n",
    "inf_power": _HEADER + b"0.0,20.0\n1.0,inf\n2.0,20.0\n",
    "nan_time": _HEADER + b"0.0,20.0\nnan,20.0\n2.0,20.0\n",
    "inf_time": _HEADER + b"0.0,20.0\ninf,20.0\n2.0,20.0\n",
    "overflow_1e400": _HEADER + b"0.0,20.0\n1.0,1e400\n2.0,20.0\n",
    "first_bad_line": _HEADER + b"0.0,20.0\n1.0,-3.0\n2.0\n",
    "missing_column": _HEADER + b"0.0\n",
    "bad_header": b"time,power\n0.0,1.0\n1.0,1.0\n",
    "blank_line_mid_file": _HEADER + b"0.0,1.0\n\n1.0,1.0\n2.0,1.0\n",
    "doubled_trailing_newline": _HEADER + b"0.0,1.0\n1.0,1.0\n\n",
    "whitespace_only_line": _HEADER + b"0.0,1.0\n \t \n1.0,1.0\n",
    "single_row_of_3_columns": _HEADER + b"0.0,1.0,2.0\n",
    "all_rows_3_columns": _HEADER + b"0.0,1.0,2.0\n1.0,1.0,2.0\n2.0,1.0,2.0\n",
    "one_column": _HEADER + b"0.0\n1.0\n2.0\n",
    "underscore_digits": _HEADER + b"0.0,1_0\n1.0,1.0\n",
    "arabic_indic_digits": _HEADER + "0.0,\u0661\u0662\n1.0,\u0661.\u0665\n".encode(),
    "crlf": b"t_s,p_w\r\n0.0,1.0\r\n1.0,2.0\r\n",
    "crlf_negative_power": b"t_s,p_w\r\n0.0,1.0\r\n0.5,-2.0\r\n",
    "lone_cr": _HEADER + b"0.0,1.0\n1.0,2.0\r2.0,3.0\n",
    "lone_cr_then_blank_line": _HEADER + b"0.0,1.0\r1.0,2.0\n\n",
    "utf8_bom": b"\xef\xbb\xbf" + _HEADER + b"0.0,1.0\n1.0,2.0\n",
    "invalid_utf8": _HEADER + b"0.0,1.0\n1.0,\xff\n",
    "spaces_around_fields": _HEADER + b" 0.0 , 1.0 \n 1.0 ,2.0\n",
    "tabs_around_fields": _HEADER + b"\t0.0\t,\t1.0\t\n1.0\t,2.0\n",
    "empty_field": _HEADER + b"0.0,\n1.0,2.0\n",
    "negative_zero": _HEADER + b"-0.0,1.0\n1.0,-0.0\n",
}


def _parse_outcome(parse, path):
    try:
        samples = parse(path).samples
    except Exception as exc:
        return type(exc), str(exc)
    return samples.shape, samples.tobytes()


def _line_loop(path):
    return meter_module._parse_trace_lines(path, path.read_bytes())


@pytest.mark.parametrize("data", PARSER_CORPUS.values(), ids=PARSER_CORPUS.keys())
def test_parse_matches_the_line_loop(tmp_path, data):
    f = tmp_path / "trace.csv"
    f.write_bytes(data)
    assert _parse_outcome(parse_trace_csv, f) == _parse_outcome(_line_loop, f)


_valid_rows = st.lists(
    st.tuples(st.integers(1, 10**6), st.floats(0.0, 1e6, allow_subnormal=True)),
    min_size=2, max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(rows=_valid_rows)
def test_parse_round_trips_valid_traces(tmp_path_factory, rows):
    # canonical files through write_canonical_trace, and the benchmark's %.3f,%.4f
    f = tmp_path_factory.mktemp("round_trip") / "trace.csv"
    times = np.cumsum([step for step, _ in rows]) / 1000.0
    trace = PowerTrace.from_arrays(times, [p for _, p in rows])
    write_canonical_trace(trace, f)
    assert parse_trace_csv(f).samples.tobytes() == trace.samples.tobytes()
    f.write_text("t_s,p_w\n" + "".join(f"{t:.3f},{p:.4f}\n" for t, p in zip(times, trace.powers())))
    assert _parse_outcome(parse_trace_csv, f) == _parse_outcome(_line_loop, f)


def test_parse_of_a_valid_file_does_not_need_the_line_loop(tmp_path, monkeypatch):
    def fail(path, data):
        raise AssertionError("the line loop ran")

    f = tmp_path / "trace.csv"
    n = 10_000
    f.write_text("t_s,p_w\n" + "".join(f"{i / 1000:.3f},{20 + i % 7:.4f}\n" for i in range(n)))
    monkeypatch.setattr(meter_module, "_parse_trace_lines", fail)
    trace = parse_trace_csv(f)
    assert len(trace) == n
    assert trace.end == 9.999 and trace.powers()[6] == 26.0


# ── counter sampling ──────────────────────────────────────────────────────

def test_counter_delta_plain_increase():
    assert counter_delta_uj(1_000_000, 2_000_000, DEFAULT_WRAP_UJ) == 1_000_000


def test_counter_delta_wrap_around():
    modulus = 1_000_000
    assert counter_delta_uj(modulus - 100, 400, modulus) == 500


def test_counter_delta_half_modulus_drop_is_corrupt():
    modulus = 1_000_000
    with pytest.raises(AcquisitionError, match="implied wrap energy"):
        counter_delta_uj(900_000, 900_000 - modulus // 2, modulus)


def test_counter_delta_drop_beyond_modulus_is_corrupt():
    # a real RAPL counter wrapping at its 2.6e11 uJ range, read with the
    # 2**32 default, would otherwise give a negative interval energy
    with pytest.raises(AcquisitionError, match="implied wrap energy"):
        counter_delta_uj(262143328850 - 1000, 500, 2**32)


class ScriptedCounter:
    """Deterministic wait: each wait writes the next scripted counter value;
    the last one sets the stop signal."""

    def __init__(self, path, first, values):
        self.path = path
        self.values = list(values)
        self.stop = threading.Event()
        path.write_text(str(first))

    def wait(self, seconds):
        self.path.write_text(str(self.values.pop(0)))
        if not self.values:
            self.stop.set()

    def sample(self, period=1.0):
        """A recording's chain of readings: its first edge reading, the
        sampler's polls, then the last one it takes after the stop."""
        first = meter_module.read_counter_uj(self.path)
        polls = sample_counter_file(self.path, period, self.stop, wait=self.wait)
        return [first, *polls, meter_module.read_counter_uj(self.path)]


def poll_once(path):
    """Run the sampler on ``path`` for exactly one poll: its second wait stops it."""
    stop = threading.Event()
    waits = []

    def wait(seconds):
        waits.append(seconds)
        if len(waits) == 2:
            stop.set()

    return sample_counter_file(path, 0.1, stop, wait=wait)


def test_sampling_takes_wrap_modulus_from_powercap_range_file(tmp_path):
    zone = tmp_path / "intel-rapl:0"
    zone.mkdir()
    rapl_max = 262143328850
    (zone / "max_energy_range_uj").write_text(f"{rapl_max}\n")
    # wraps on the first interval: 1500 uJ, then 1000 each
    counter = ScriptedCounter(zone / "energy_uj", rapl_max - 1000, [500, 1500, 2500])
    readings = counter.sample()
    assert readings == [rapl_max - 1000, 500, 1500, 2500]
    modulus = CounterMeter(zone / "energy_uj")._modulus
    assert modulus == rapl_max
    assert counter_energy_uj(readings, modulus) == 3500


def test_wrap_modulus_env_override(tmp_path):
    # the range file alone sets the modulus, even one far below 2**32
    (tmp_path / "max_energy_range_uj").write_text("1000\n")
    # starts at 900, wraps at 1000: deltas 200, 200
    counter = ScriptedCounter(tmp_path / "energy_uj", 900, [100, 300])
    modulus = CounterMeter(counter.path)._modulus
    assert modulus == 1000
    assert counter_energy_uj(counter.sample(), modulus) == 400


def test_counter_through_a_symlink_takes_its_zone_wrap_modulus(tmp_path):
    # as a counter path to a powercap zone's energy_uj through a link usually is
    zone = tmp_path / "intel-rapl:0"
    zone.mkdir()
    rapl_max = 262143328850
    (zone / "max_energy_range_uj").write_text(f"{rapl_max}\n")
    (zone / "energy_uj").write_text(str(rapl_max - 1000))
    links = tmp_path / "links"
    links.mkdir()
    (links / "energy_uj").symlink_to(zone / "energy_uj")
    meter = open_meter(f"counter:{links / 'energy_uj'}")

    def wrap():  # replaced whole, so that no poll reads a half-written file
        (zone / "next").write_text("500")
        os.replace(zone / "next", zone / "energy_uj")

    span, _ = meter.record(wrap)
    assert span.joules == pytest.approx(1500e-6, rel=1e-12)


def test_powercap_range_file_must_hold_a_positive_integer(tmp_path):
    f = tmp_path / "energy_uj"
    f.write_text("0")
    for raw in ("lots", "0", "-5"):
        (tmp_path / "max_energy_range_uj").write_text(raw)
        with pytest.raises(AcquisitionError, match="max_energy_range_uj"):
            CounterMeter(f)


def test_sampling_constant_rate_counter_gives_constant_power(tmp_path):
    f = tmp_path / "energy_uj"
    # 1 W: the counter gains 100000 uJ per 0.1 s poll, for 10 polls
    counter = ScriptedCounter(f, 0, [100_000 * i for i in range(1, 11)])
    readings = counter.sample(period=0.1)
    assert len(readings) == 11
    assert np.all(np.diff(readings) == 100_000)
    assert counter_energy_uj(readings, DEFAULT_WRAP_UJ) == 1_000_000


def test_sampling_handles_wrap_midrun(tmp_path):
    modulus = 1_000_000
    # the first reading sees the pre-written value; the first poll wraps
    counter = ScriptedCounter(tmp_path / "energy_uj", modulus - 100, [400, 900, 1400])
    readings = counter.sample()
    # every interval consumed 500 uJ
    assert [counter_energy_uj(pair, modulus) for pair in zip(readings, readings[1:])] == [500] * 3
    assert counter_energy_uj(readings, modulus) == 1500


def test_sampling_corrupt_counter_raises(tmp_path):
    modulus = 1_000_000
    counter = ScriptedCounter(
        tmp_path / "energy_uj", modulus - 1, [500_000 + modulus // 2, 500_000, 500_100]
    )
    readings = counter.sample()
    with pytest.raises(AcquisitionError, match="implied wrap energy"):
        counter_energy_uj(readings, modulus)


def test_sampling_unreadable_file_raises(tmp_path):
    with pytest.raises(AcquisitionError):
        poll_once(tmp_path / "missing")


def test_sampling_non_integer_counter_raises(tmp_path):
    f = tmp_path / "energy_uj"
    f.write_text("not-a-number")
    with pytest.raises(AcquisitionError):
        poll_once(f)


def test_counter_or_range_file_that_is_not_text_is_named(tmp_path):
    f = tmp_path / "energy_uj"
    f.write_bytes(b"\xff12")
    with pytest.raises(AcquisitionError, match="cannot read counter file .*energy_uj"):
        CounterMeter(f)
    f.write_text("0")
    (tmp_path / "max_energy_range_uj").write_bytes(b"\xff12")
    with pytest.raises(AcquisitionError, match="max_energy_range_uj"):
        CounterMeter(f)


def test_sampling_drops_a_reading_taken_after_the_stop(tmp_path, monkeypatch):
    # a poll in flight when the stop is set may read the counter after the
    # caller's last reading, so it must not join the chain
    f = tmp_path / "energy_uj"
    f.write_text("0")
    stop = threading.Event()
    read = meter_module.read_counter_uj
    polls = []

    def read_then_stop(path):
        polls.append(1)
        if len(polls) == 3:
            stop.set()
        return read(path)

    monkeypatch.setattr(meter_module, "read_counter_uj", read_then_stop)
    assert sample_counter_file(f, 1.0, stop, wait=lambda _: None) == [0, 0]
    assert len(polls) == 3


def test_counter_read_permission_denied_names_the_cause(tmp_path, monkeypatch):
    f = tmp_path / "energy_uj"
    f.write_text("0")

    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    # monkeypatched rather than chmod 000, which denies nothing to root
    monkeypatch.setattr(meter_module.Path, "read_text", denied)
    with pytest.raises(AcquisitionError, match="CVE-2020-8694") as excinfo:
        meter_module.read_counter_uj(f)
    message = str(excinfo.value)
    assert str(f) in message and "root" in message and "udev" in message


def test_counter_meter_live_session(tmp_path):
    f = tmp_path / "energy_uj"
    f.write_text("123456")  # static counter: zero power
    meter = CounterMeter(f, sample_period=0.05)
    span, result = meter.record(lambda: time.sleep(0.3) or "done")
    assert result == "done"
    assert span.joules == 0
    assert span.seconds >= 0.3


def test_counter_meter_capture_idle_spans_duration(tmp_path):
    f = tmp_path / "energy_uj"
    f.write_text("0")
    meter = CounterMeter(f, sample_period=0.02)
    span = meter.capture_idle(0.1)
    assert span.joules == 0
    assert span.seconds >= 0.1


def test_counter_meter_rejects_malformed_range_file_when_built(tmp_path):
    (tmp_path / "max_energy_range_uj").write_text("lots")
    f = tmp_path / "energy_uj"
    f.write_text("0")
    with pytest.raises(AcquisitionError, match="max_energy_range_uj"):
        CounterMeter(f)


def test_counter_meter_sampler_failure_stops_record_before_activity(tmp_path, monkeypatch):
    f = tmp_path / "energy_uj"
    f.write_text("0")
    meter = CounterMeter(f, sample_period=0.05)

    def vanished(path):
        raise AcquisitionError(f"cannot read counter file {path}: gone")

    monkeypatch.setattr(meter_module, "read_counter_uj", vanished)
    ran = []
    with pytest.raises(AcquisitionError, match="gone"):
        meter.record(lambda: ran.append(True))
    assert ran == []


def test_counter_meter_raises_a_failed_poll_after_the_activity(tmp_path, monkeypatch):
    # the edge readings succeed; the sampler's poll fails during the activity
    f = tmp_path / "energy_uj"
    f.write_text("0")
    meter = CounterMeter(f, sample_period=0.01)
    read = meter_module.read_counter_uj
    polled = threading.Event()

    def poll_fails(path):
        if threading.current_thread().name == "encwatt-sampler":
            polled.set()
            raise AcquisitionError(f"cannot read counter file {path}: gone")
        return read(path)

    monkeypatch.setattr(meter_module, "read_counter_uj", poll_fails)
    with pytest.raises(AcquisitionError, match="gone"):
        meter.record(lambda: polled.wait(5.0))
    assert polled.is_set()


class StepFeeder:
    """Ticks a counter file every 2-5 ms at ``base_w``, plus ``step_w``
    while the step is on, and keeps the step's true joules."""

    def __init__(self, path, base_w, step_w, seed=0):
        self.path = path
        self.base_w = base_w
        self.step_w = step_w
        self.active = threading.Event()
        self.truth_j = 0.0
        self.ticks = 0  # published ticks
        self._energy_uj = 0.0
        self._rng = np.random.default_rng(seed)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._publish()

    def _publish(self):
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(str(int(self._energy_uj)))
        os.replace(tmp, self.path)  # a reader never sees a half-written number

    def _run(self):
        last = time.monotonic()
        while not self._stop.wait(self._rng.uniform(0.002, 0.005)):
            now = time.monotonic()
            active = self.active.is_set()
            power = self.base_w + (self.step_w if active else 0.0)
            self._energy_uj += power * (now - last) * 1e6
            if active:
                self.truth_j += self.step_w * (now - last)
            last = now
            self._publish()
            self.ticks += 1

    def end_step(self):
        """Turn the step off and wait until every tick that saw it is published."""
        self.active.clear()
        seen = self.ticks  # a tick in flight may still have seen the step
        deadline = time.monotonic() + 5.0
        while self.ticks == seen and time.monotonic() < deadline:
            time.sleep(0.001)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)


@pytest.mark.parametrize("lead_in", [0.02, 0.04])
def test_counter_meter_energy_matches_counter_across_encode(tmp_path, lead_in):
    # An encoder-like activity: a start-up lead-in at base power, then a
    # known step.  At the default poll period the net energy must be the
    # step's true joules within 2 %.
    f = tmp_path / "energy_uj"
    with StepFeeder(f, base_w=10.0, step_w=40.0) as feeder:
        meter = CounterMeter(f)
        assert meter.sample_period == DEFAULT_POLL_PERIOD

        def encode():
            t0 = time.perf_counter()
            time.sleep(lead_in)
            feeder.active.set()
            time.sleep(0.6)
            feeder.end_step()
            return time.perf_counter() - t0

        span, wall = meter.record(encode)
        idle = meter.capture_idle(wall)
    assert feeder.truth_j > 0
    net = net_energy(span, idle)
    assert net == pytest.approx(feeder.truth_j, rel=0.02), (
        f"net {net:.4f} J, truth {feeder.truth_j:.4f} J, span {span.seconds:.4f} s, "
        f"wall {wall:.4f} s, idle {idle.seconds:.4f} s, {feeder.ticks} feeder ticks")


def test_counter_meter_row_ignores_a_pause_outside_the_activity_timer(monkeypatch, tmp_path):
    # A clock-driven counter: 10 W base plus a 40 W step for 0.6 s.  The
    # activity times itself as run_encode does and then pauses 0.2 s
    # outside its own timer but inside the recording, as a stall or the
    # runner's own work would.  The row is still the step's joules.
    f = tmp_path / "energy_uj"
    f.write_text("0")
    meter = CounterMeter(f)
    origin = time.perf_counter()
    step = [math.inf, math.inf]  # the step's start and end on perf_counter

    def joules_at(now):
        on = max(0.0, min(now, step[1]) - step[0])
        return 10.0 * (now - origin) + 40.0 * on

    monkeypatch.setattr(meter_module, "read_counter_uj",
                        lambda path: int(joules_at(time.perf_counter()) * 1e6))

    def encode():
        t0 = time.perf_counter()
        step[0] = time.perf_counter()
        time.sleep(0.6)
        step[1] = time.perf_counter()
        wall = time.perf_counter() - t0
        time.sleep(0.2)
        return wall

    total, wall = meter.record(encode)
    idle = meter.capture_idle(wall)
    truth = 40.0 * (step[1] - step[0])
    assert net_energy(total, idle) == pytest.approx(truth, rel=0.02)


def test_counter_meter_edges_bracket_a_short_activity(tmp_path):
    # Only the activity advances the counter, by 1 J, and it times itself
    # as run_encode does.  The edge readings bracket the activity, so the
    # counted joules are its 1 J to within 1 %.
    f = tmp_path / "energy_uj"
    f.write_text("0")
    meter = CounterMeter(f)
    idle = CounterSpan(0.0, 1.0)
    errors = []
    for i in range(1, 21):
        def activity():
            t0 = time.perf_counter()
            time.sleep(0.01)
            tmp = f.with_name("energy_uj.tmp")
            tmp.write_text(str(i * 1_000_000))
            os.replace(tmp, f)
            time.sleep(0.01)
            return time.perf_counter() - t0

        span, wall = meter.record(activity)
        errors.append(net_energy(span, idle) - 1.0)
    assert float(np.median(np.abs(errors))) < 0.01, errors


# ── synthetic traces ──────────────────────────────────────────────────────

def test_synthetic_zero_noise_integrates_exactly():
    recipe = SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=0.0, period=0.1)
    active = generate_synthetic_trace(recipe, 10.0, (2.0, 8.0))
    assert integrate_energy(active, 0.0, 10.0) == pytest.approx(
        20.0 * 10.0 + 30.0 * 6.0, rel=1e-9
    )


def test_synthetic_net_energy_against_base_only():
    recipe = SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=0.0, period=0.1)
    active = generate_synthetic_trace(recipe, 10.0, (2.0, 8.0))
    base = generate_synthetic_trace(recipe, 10.0)
    assert net_energy(trace_span(active, 10.0), trace_span(base, 10.0)) == pytest.approx(
        180.0, rel=1e-9)


def test_synthetic_deterministic_for_fixed_seed():
    recipe = SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=2.0, seed=11)
    a = generate_synthetic_trace(recipe, 5.0, (1.0, 4.0))
    b = generate_synthetic_trace(recipe, 5.0, (1.0, 4.0))
    assert np.array_equal(a.samples, b.samples)
    c = generate_synthetic_trace(
        SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=2.0, seed=12), 5.0, (1.0, 4.0),
    )
    assert not np.array_equal(a.samples, c.samples)


def test_synthetic_noisy_mean_within_standard_error():
    n = 10_000
    recipe = SyntheticRecipe(base_power=20.0, active_power=0.0, noise_std=1.0, seed=5, period=0.1)
    trace = generate_synthetic_trace(recipe, (n - 1) * 0.1)
    assert len(trace) == n
    assert abs(float(np.mean(trace.powers())) - 20.0) < 3.0 * 1.0 / np.sqrt(n)


def test_synthetic_noise_truncated_at_zero():
    recipe = SyntheticRecipe(base_power=0.5, active_power=0.0, noise_std=5.0, seed=1, period=0.1)
    trace = generate_synthetic_trace(recipe, 50.0)
    assert np.all(trace.powers() >= 0.0)


def test_synthetic_window_validation():
    recipe = SyntheticRecipe()
    with pytest.raises(ValueError):
        generate_synthetic_trace(recipe, 5.0, (2.0, 6.0))
    with pytest.raises(ValueError):
        generate_synthetic_trace(recipe, 5.0, (-1.0, 2.0))
    for duration in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="duration must be > 0"):
            generate_synthetic_trace(recipe, duration)


def test_recipe_validation():
    with pytest.raises(ValueError):
        SyntheticRecipe(base_power=-1.0)
    with pytest.raises(ValueError):
        SyntheticRecipe(noise_std=-0.1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SyntheticRecipe(seed=-1)
    for field in ("base_power", "active_power", "noise_std"):  # as `synth:noise=nan` gives
        with pytest.raises(ValueError, match=">= 0"):
            SyntheticRecipe(**{field: math.nan})


# ── meter factory and specs ───────────────────────────────────────────────

def test_open_meter_kinds(tmp_path):
    trace = tmp_path / "x.csv"
    trace.write_text("t_s,p_w\n0.0,20.0\n1.0,20.0\n")
    idle = tmp_path / "idle.csv"
    idle.write_text("t_s,p_w\n0.0,20.0\n1.0,20.0\n")
    counter = tmp_path / "energy_uj"
    counter.write_text("0")
    meter = open_meter(f"csv:{trace}", idle)
    assert isinstance(meter, CsvReplayMeter)
    assert meter.capture_idle(0.5) == (10.0, 0.5, str(idle))
    meter = open_meter(f"counter:{counter}")
    assert isinstance(meter, CounterMeter)
    assert meter.sample_period == DEFAULT_POLL_PERIOD
    meter = open_meter("synth:base=20,active=30,noise=0,seed=1")
    assert isinstance(meter, SyntheticMeter)
    assert meter.recipe.period == DEFAULT_POLL_PERIOD
    with pytest.raises(ValueError):
        open_meter("bogus:/x")
    with pytest.raises(ValueError):
        open_meter("no-colon")


def test_open_meter_refuses_a_spec_naming_no_file(tmp_path):
    idle = tmp_path / "idle.csv"
    idle.write_text("t_s,p_w\n0.0,20.0\n1.0,20.0\n")
    for spec in ("counter:", "csv:"):
        with pytest.raises(ValueError, match=f"^meter spec '{spec}' names no file$"):
            open_meter(spec, idle)
    assert open_meter("synth:").recipe == SyntheticRecipe()  # the default recipe


def test_open_meter_validation(tmp_path):
    # A counter meter and a synthetic recipe refuse a period, however they are built.
    counter = tmp_path / "energy_uj"
    counter.write_text("0")
    for period in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="sample_period must be > 0"):
            CounterMeter(counter, sample_period=period)
    for period in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"period must be finite and > 0, got {period}"):
            SyntheticRecipe(period=period)


def test_open_meter_counter_must_be_readable(tmp_path):
    with pytest.raises(AcquisitionError, match="cannot read counter file"):
        open_meter(f"counter:{tmp_path / 'missing'}")
    with pytest.raises(AcquisitionError):
        CounterMeter(tmp_path / "missing")


def test_open_meter_synthetic_inline_and_json(tmp_path):
    meter = open_meter("synth:base=20,active=30,noise=0,period=0.05")
    assert isinstance(meter, SyntheticMeter)
    assert meter.recipe.period == 0.05
    assert meter.recipe.base_power == 20.0

    recipe_file = tmp_path / "recipe.json"
    recipe_file.write_text(
        '{"base_power": 10.0, "active_power": 5.0, "noise_std": 0.0, "seed": 4}'
    )
    meter = open_meter(f"synth:{recipe_file}")
    assert meter.recipe.active_power == 5.0


def test_json_recipe_takes_the_inline_aliases_and_keys(tmp_path):
    recipe_file = tmp_path / "recipe.json"
    recipe_file.write_text('{"base": 20, "active": 5, "noise": 0.5, "seed": 3, "period": 0.05}')
    json_meter = open_meter(f"synth:{recipe_file}")
    inline_meter = open_meter("synth:base=20,active=5,noise=0.5,seed=3,period=0.05")
    assert json_meter.recipe == inline_meter.recipe
    assert json_meter.recipe.period == 0.05
    recipe_file.write_text('{"base": 20, "bogus": 1}')
    with pytest.raises(ValueError, match="unknown recipe key 'bogus'"):
        open_meter(f"synth:{recipe_file}")


@pytest.mark.parametrize(("recipe", "field", "first", "second"), [
    ("base=20,base_power=30", "base_power", "base", "base_power"),
    ("base=20,base=30", "base_power", "base", "base"),
    ('{"base": 20, "base_power": 30}', "base_power", "base", "base_power"),
    ('{"noise_std": 1, "noise": 2}', "noise_std", "noise_std", "noise"),
])
def test_recipe_refuses_a_value_given_twice_naming_both_spellings(tmp_path, recipe, field,
                                                                  first, second):
    # the last spelling would win without a word
    if recipe.startswith("{"):
        path = tmp_path / "recipe.json"
        path.write_text(recipe)
        recipe = str(path)
    with pytest.raises(ValueError) as info:
        open_meter(f"synth:{recipe}")
    assert str(info.value) == (f"recipe {recipe!r} gives {field!r} twice: "
                               f"as {first!r} and {second!r}")


def test_recipe_refuses_duration(tmp_path):
    # Each recording and idle capture sets the duration itself.
    recipe_file = tmp_path / "recipe.json"
    recipe_file.write_text('{"base": 20, "duration": 4}')
    for spec in ("synth:base=20,duration=4", f"synth:{recipe_file}"):
        with pytest.raises(ValueError, match="unknown recipe key 'duration'"):
            open_meter(spec)


def test_recipe_file_that_cannot_be_read_is_named(tmp_path):
    for text in (None, "{not json", "[1, 2]"):
        recipe_file = tmp_path / "recipe.json"
        recipe_file.unlink(missing_ok=True)
        if text is not None:
            recipe_file.write_text(text)
        with pytest.raises(ValueError, match="recipe.json"):
            open_meter(f"synth:{recipe_file}")


@pytest.mark.parametrize("spec", ["synth:base=20,period=0", "synth:period=-0.1"])
def test_recipe_period_gets_the_sample_period_check(spec):
    with pytest.raises(ValueError, match="^period must be finite and > 0, got "):
        open_meter(spec)


def test_csv_replay_meter(tmp_path, monkeypatch):
    # Each recording reads the trace from its first sample, at t = 100,
    # over the seconds the activity took on the meter's own timer.
    ticks = iter([7.0, 9.5, 20.0, 21.0])
    monkeypatch.setattr("encwatt.meter.time.perf_counter", lambda: next(ticks))
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n100.0,20.0\n105.0,40.0\n110.0,20.0\n")
    idle = tmp_path / "idle.csv"
    idle.write_text("t_s,p_w\n50.0,10.0\n60.0,30.0\n")
    meter = CsvReplayMeter(f, idle)
    span, result = meter.record(lambda: "done")
    assert result == "done"
    assert span == (pytest.approx(2.5 * (20.0 + 30.0) / 2, rel=1e-12), 2.5, str(f))
    assert meter.record(lambda: None)[0].joules == pytest.approx(1.0 * (20.0 + 24.0) / 2)
    # the idle trace, not the replayed one, is the baseline: from its own first sample, at t = 50
    assert meter.capture_idle(5.0) == (pytest.approx(5.0 * (10.0 + 20.0) / 2, rel=1e-12), 5.0,
                                       str(idle))


def test_open_meter_refuses_a_csv_replay_without_an_idle_trace_before_reading(tmp_path):
    # the replayed trace would be its own idle baseline: every net energy 0 J
    for idle_trace in (None, ""):
        with pytest.raises(ValueError, match="needs --idle-trace"):
            open_meter(f"csv:{tmp_path / 'missing.csv'}", idle_trace)


def test_shared_idle_trace_is_read_from_its_first_sample(tmp_path):
    idle = tmp_path / "idle.csv"
    idle.write_text("t_s,p_w\n100.0,20.0\n105.0,40.0\n110.0,20.0\n")
    meter = open_meter("synth:base=20,active=30,noise=0", idle)
    assert meter.capture_idle(2.5) == (pytest.approx(62.5, rel=1e-12), 2.5, str(idle))
    span, result = meter.record(lambda: "done")
    assert result == "done" and span.source_label == "synthetic-meter"


@pytest.mark.parametrize("short", ["replay", "idle"])
def test_a_trace_shorter_than_the_activity_is_a_meter_failure(tmp_path, monkeypatch, short):
    # Both traces start at t = 100 and cover 1 s; the activity takes 1.5 s.
    ticks = iter([0.0, 1.5])
    monkeypatch.setattr("encwatt.meter.time.perf_counter", lambda: next(ticks))
    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,p_w\n100.0,50.0\n101.0,50.0\n")
    long_trace = tmp_path / "long.csv"
    long_trace.write_text("t_s,p_w\n100.0,50.0\n110.0,50.0\n")
    meter = open_meter(f"csv:{trace if short == 'replay' else long_trace}",
                       trace if short == "idle" else long_trace)
    with pytest.raises(AcquisitionError, match=r"window \[100\.0, 101\.5\] outside trace span "
                                               rf"\[100\.0, 101\.0\] of '{re.escape(str(trace))}'"):
        meter.capture_idle(meter.record(lambda: None)[0].seconds)


def test_synthetic_meter_record_covers_activity():
    meter = SyntheticMeter(SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=0.0,
                                           period=0.05))

    def activity():
        t0 = time.perf_counter()
        time.sleep(0.4)
        return time.perf_counter() - t0

    span, wall = meter.record(activity)
    assert span.seconds >= wall >= 0.4
    idle = meter.capture_idle(wall)
    assert idle.seconds == wall
    e = net_energy(span, idle)
    # The active step starts at the trace's first sample and lasts the
    # recording's seconds: at most half a period's ramp is lost.
    assert 30.0 * span.seconds - 30.0 * 0.05 / 2 - 1e-9 <= e <= 30.0 * span.seconds + 1e-9


def _trace_sha256(trace):
    return hashlib.sha256(trace.source_label.encode() + b"\0" + trace.samples.tobytes()).hexdigest()


# Pinned when the grid period and the duration were passed apart from the
# recipe; building a trace from one recipe must not move a sample.
@pytest.mark.parametrize(("base", "active", "noise", "seed", "period", "duration", "window",
                          "sha256"), [
    pytest.param(20.0, 30.0, 1.5, 3, 0.05, 5.0, (1.0, 4.0),
                 "62a133335befe252b27e333e463ce8efd0ea179a67d1d6720381063a8c7dae08", id="inner"),
    pytest.param(20.0, 30.0, 2.0, 11, 0.02, 4.37, (0.0, 4.37),  # endpoint off the grid
                 "787885d2af6657072824e996ec4d72b5017e472d9afcfa8fc39962bd59ec604a", id="edge"),
    pytest.param(0.5, 0.0, 5.0, 1, 0.1, 3.0, (0.0, 0.0),  # noise truncated at zero
                 "87b26057bcfcee635f556f8e51b77c02f986f689ef454e15ee57678b921cc73f", id="empty"),
    pytest.param(20.0, 30.0, 0.0, 0, 0.1, 10.0, (2.0, 8.0),
                 "a3efc1683248580d341a88950c6545ab1039428183c55d083638bc67f303e6ce", id="no-noise"),
])
def test_synthetic_trace_bytes_are_pinned(base, active, noise, seed, period, duration, window,
                                          sha256):
    recipe = SyntheticRecipe(base_power=base, active_power=active, noise_std=noise, seed=seed,
                             period=period)
    assert _trace_sha256(generate_synthetic_trace(recipe, duration, window)) == sha256


def test_synthetic_meter_trace_bytes_are_pinned(monkeypatch):
    # Seeds recipe.seed + 1, + 2, ... alternate between recordings and idle
    # captures.  Each pin is its trace's integral over the span's seconds
    # from the first sample, taken with `integrate_energy` on the same traces.
    ticks = iter([100.0, 101.234, 200.0, 200.5, 300.0, 303.05])
    monkeypatch.setattr("encwatt.meter.time.perf_counter", lambda: next(ticks))
    meter = SyntheticMeter(SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=2.0,
                                           seed=7, period=0.05))
    spans = []
    for idle in (1.0, 0.5, 2.0):
        span, result = meter.record(lambda: "done")
        assert result == "done"
        spans += span, meter.capture_idle(idle)
    assert [(repr(s.joules), repr(s.seconds), s.source_label) for s in spans] == [
        ("61.18661669855596", "1.2339999999999947", "synthetic-meter"),
        ("20.351277683246177", "1.0", "synthetic-idle"),
        ("24.19343070796065", "0.5", "synthetic-meter"),
        ("10.146240134475349", "0.5", "synthetic-idle"),
        ("153.3854077104326", "3.0500000000000114", "synthetic-meter"),
        ("40.889016841130754", "2.0", "synthetic-idle"),
    ]


def test_synthetic_meter_activity_that_fails_uses_its_seed_up():
    # A campaign goes on past a failed job, so the traces after it keep their seeds.
    meter = SyntheticMeter(SyntheticRecipe(noise_std=1.0, seed=4))

    def encode():
        raise RuntimeError("encoder failed")

    with pytest.raises(RuntimeError):
        meter.record(encode)
    idle = meter.capture_idle(1.0)
    expected = generate_synthetic_trace(SyntheticRecipe(noise_std=1.0, seed=6), 1.0 + 2 * 0.1)
    assert idle.joules == trace_span(expected, 1.0).joules
