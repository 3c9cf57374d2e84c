"""Trace CSV parsing, counter-file sampling, and synthetic generation."""

import threading
import time

import numpy as np
import pytest

from encwatt import meter as meter_module
from encwatt.energy import integrate_energy, net_energy
from encwatt.errors import (
    AcquisitionError,
    CorruptCounterError,
    MalformedTraceError,
    TraceWindowError,
)
from encwatt.meter import (
    DEFAULT_WRAP_UJ,
    CounterMeter,
    CsvReplayMeter,
    SyntheticMeter,
    SyntheticRecipe,
    counter_delta_uj,
    generate_synthetic_trace,
    open_meter,
    parse_trace_csv,
    sample_counter_file,
    write_trace_csv,
)

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
    with pytest.raises(MalformedTraceError, match="fewer than 2"):
        parse_trace_csv(f)


def test_parse_reports_line_of_monotonicity_violation(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n0.0,20.0\n0.0,21.0\n")
    with pytest.raises(MalformedTraceError, match="line 3"):
        parse_trace_csv(f)


def test_parse_rejects_negative_power_with_line(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n0.0,20.0\n1.0,-3.0\n")
    with pytest.raises(MalformedTraceError, match="line 3"):
        parse_trace_csv(f)


@pytest.mark.parametrize("bad_row", ["1.0,nan", "1.0,inf", "nan,20.0", "inf,20.0"])
def test_parse_rejects_non_finite_value_with_line(tmp_path, bad_row):
    f = tmp_path / "trace.csv"
    f.write_text(f"t_s,p_w\n0.0,20.0\n{bad_row}\n2.0,20.0\n")
    with pytest.raises(MalformedTraceError, match="line 3"):
        parse_trace_csv(f)


def test_parse_reports_the_first_bad_line(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n0.0,20.0\n1.0,-3.0\n2.0\n")
    with pytest.raises(MalformedTraceError, match="line 3: negative power"):
        parse_trace_csv(f)


def test_parse_rejects_missing_columns(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n0.0\n")
    with pytest.raises(MalformedTraceError, match="2 columns"):
        parse_trace_csv(f)


def test_parse_rejects_bad_header(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("time,power\n0.0,1.0\n1.0,1.0\n")
    with pytest.raises(MalformedTraceError, match="header"):
        parse_trace_csv(f)


def test_canonical_round_trip_is_byte_identical(tmp_path):
    src = tmp_path / "a.csv"
    dst = tmp_path / "b.csv"
    trace = generate_synthetic_trace(
        SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=1.5, duration=5.0, seed=3),
        (1.0, 4.0),
    )
    write_trace_csv(trace, src)
    write_trace_csv(parse_trace_csv(src), dst)
    assert src.read_bytes() == dst.read_bytes()


# ── counter sampling ──────────────────────────────────────────────────────

def test_counter_delta_plain_increase():
    assert counter_delta_uj(1_000_000, 2_000_000, DEFAULT_WRAP_UJ) == 1_000_000


def test_counter_delta_wrap_around():
    modulus = 1_000_000
    assert counter_delta_uj(modulus - 100, 400, modulus) == 500


def test_counter_delta_half_modulus_drop_is_corrupt():
    modulus = 1_000_000
    with pytest.raises(CorruptCounterError):
        counter_delta_uj(900_000, 900_000 - modulus // 2, modulus)


def test_counter_delta_drop_beyond_modulus_is_corrupt():
    # a real RAPL counter wrapping at its 2.6e11 uJ range, read with the
    # 2**32 default, would otherwise give a negative interval energy
    with pytest.raises(CorruptCounterError):
        counter_delta_uj(262143328850 - 1000, 500, 2**32)


def test_sampling_takes_wrap_modulus_from_powercap_range_file(tmp_path, monkeypatch):
    monkeypatch.delenv("ENCWATT_WRAP_UJ", raising=False)
    zone = tmp_path / "intel-rapl:0"
    zone.mkdir()
    rapl_max = 262143328850
    (zone / "max_energy_range_uj").write_text(f"{rapl_max}\n")
    f = zone / "energy_uj"
    values = iter([500, 1500, 2500])  # wraps on the first interval: 1500 uJ, then 1000 each
    state = {"now": 0.0}

    def wait(seconds):
        state["now"] += seconds
        f.write_text(str(next(values)))

    f.write_text(str(rapl_max - 1000))
    trace = sample_counter_file(
        f, 1.0, max_duration=3.0, clock=lambda: state["now"], wait=wait
    )
    assert np.allclose(trace.powers(), [1500 / 1e6, 1000 / 1e6, 1000 / 1e6])


def test_powercap_range_file_must_hold_a_positive_integer(tmp_path):
    (tmp_path / "max_energy_range_uj").write_text("lots")
    f = tmp_path / "energy_uj"
    f.write_text("0")
    with pytest.raises(AcquisitionError, match="max_energy_range_uj"):
        sample_counter_file(f, 0.01, max_duration=0.05)


class FakeCounterEnv:
    """Deterministic clock/wait pair driving a counter file."""

    def __init__(self, path, rate_w):
        self.path = path
        self.rate_w = rate_w
        self.now = 0.0
        self._write()

    def _write(self):
        self.path.write_text(str(int(round(self.rate_w * self.now * 1e6))))

    def clock(self):
        return self.now

    def wait(self, seconds):
        self.now += seconds
        self._write()


def test_sampling_constant_rate_counter_gives_constant_power(tmp_path):
    f = tmp_path / "energy_uj"
    env = FakeCounterEnv(f, rate_w=1.0)
    trace = sample_counter_file(
        f, 0.1, max_duration=1.0, clock=env.clock, wait=env.wait
    )
    assert 10 <= len(trace) <= 11  # fake-clock float accumulation may add one
    powers = trace.powers()
    assert np.all(np.abs(powers - 1.0) < 1e-6)
    # samples sit at interval midpoints
    assert trace.times()[0] == pytest.approx(0.05)
    assert trace.times()[1] == pytest.approx(0.15)


def test_sampling_handles_wrap_midrun(tmp_path):
    modulus = 1_000_000
    f = tmp_path / "energy_uj"
    values = iter([400, 900, 1400])  # initial read sees the pre-written value
    state = {"now": 0.0}

    def wait(seconds):
        state["now"] += seconds
        f.write_text(str(next(values)))

    f.write_text(str(modulus - 100))

    trace = sample_counter_file(
        f, 1.0, max_duration=3.0, wrap_modulus=modulus,
        clock=lambda: state["now"], wait=wait,
    )
    # every interval consumed 500 uJ over 1 s
    assert np.allclose(trace.powers(), 500 / 1e6)


def test_sampling_corrupt_counter_raises(tmp_path):
    modulus = 1_000_000
    f = tmp_path / "energy_uj"
    values = iter([500_000 + modulus // 2, 500_000, 500_100])
    state = {"now": 0.0}

    def wait(seconds):
        state["now"] += seconds
        f.write_text(str(next(values)))

    f.write_text(str(modulus - 1))
    with pytest.raises(CorruptCounterError):
        sample_counter_file(
            f, 1.0, max_duration=3.0, wrap_modulus=modulus,
            clock=lambda: state["now"], wait=wait,
        )


def test_sampling_unreadable_file_raises(tmp_path):
    with pytest.raises(AcquisitionError):
        sample_counter_file(tmp_path / "missing", 0.1, max_duration=0.5)


def test_sampling_non_integer_counter_raises(tmp_path):
    f = tmp_path / "energy_uj"
    f.write_text("not-a-number")
    with pytest.raises(AcquisitionError):
        sample_counter_file(f, 0.1, max_duration=0.5)


def test_wrap_modulus_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ENCWATT_WRAP_UJ", "1000")
    f = tmp_path / "energy_uj"
    values = iter([100, 300])  # starts at 900, wraps at 1000: deltas 200, 200
    state = {"now": 0.0}

    def wait(seconds):
        state["now"] += seconds
        f.write_text(str(next(values)))

    f.write_text("900")
    trace = sample_counter_file(
        f, 1.0, max_duration=2.0, clock=lambda: state["now"], wait=wait
    )
    assert np.allclose(trace.powers(), 200 / 1e6)


def test_counter_meter_live_session(tmp_path):
    f = tmp_path / "energy_uj"
    f.write_text("123456")  # static counter: zero power
    meter = CounterMeter(f, sample_period=0.05)
    trace, result = meter.record(lambda: time.sleep(0.3) or "done")
    assert result == "done"
    assert len(trace) >= 2
    assert np.all(trace.powers() == 0.0)
    times = trace.times()
    assert np.all(np.diff(times) > 0)


def test_counter_meter_reports_sampler_not_ready(tmp_path, monkeypatch):
    f = tmp_path / "energy_uj"
    f.write_text("0")
    meter = CounterMeter(f, sample_period=0.05)
    release = threading.Event()

    def blocked_read(path):
        release.wait(10.0)
        return 0

    monkeypatch.setattr(meter_module, "read_counter_uj", blocked_read)
    monkeypatch.setattr(meter_module, "_READY_TIMEOUT_S", 0.2)
    ran = []
    try:
        with pytest.raises(AcquisitionError) as excinfo:
            meter.record(lambda: ran.append(True))
    finally:
        release.set()
    assert str(f) in str(excinfo.value) and "0.2 s" in str(excinfo.value)
    assert ran == []  # the activity never started
    for thread in threading.enumerate():
        if thread.name == "encwatt-sampler":
            thread.join(timeout=5.0)
            assert not thread.is_alive()


def test_counter_meter_capture_idle_spans_duration(tmp_path):
    f = tmp_path / "energy_uj"
    f.write_text("0")
    meter = CounterMeter(f, sample_period=0.02)
    trace = meter.capture_idle(0.1)
    assert trace.duration >= 0.1


# ── synthetic traces ──────────────────────────────────────────────────────

def test_synthetic_zero_noise_integrates_exactly():
    recipe = SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=0.0, duration=10.0)
    active = generate_synthetic_trace(recipe, (2.0, 8.0), sample_period=0.1)
    assert integrate_energy(active, 0.0, 10.0) == pytest.approx(
        20.0 * 10.0 + 30.0 * 6.0, rel=1e-9
    )


def test_synthetic_net_energy_against_base_only():
    recipe = SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=0.0, duration=10.0)
    active = generate_synthetic_trace(recipe, (2.0, 8.0), sample_period=0.1)
    base = generate_synthetic_trace(recipe, (0.0, 0.0), sample_period=0.1)
    assert net_energy(active, base, 10.0) == pytest.approx(180.0, rel=1e-9)


def test_synthetic_deterministic_for_fixed_seed():
    recipe = SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=2.0, duration=5.0, seed=11)
    a = generate_synthetic_trace(recipe, (1.0, 4.0))
    b = generate_synthetic_trace(recipe, (1.0, 4.0))
    assert np.array_equal(a.samples, b.samples)
    c = generate_synthetic_trace(
        SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=2.0, duration=5.0, seed=12),
        (1.0, 4.0),
    )
    assert not np.array_equal(a.samples, c.samples)


def test_synthetic_noisy_mean_within_standard_error():
    n = 10_000
    recipe = SyntheticRecipe(
        base_power=20.0, active_power=0.0, noise_std=1.0,
        duration=(n - 1) * 0.1, seed=5,
    )
    trace = generate_synthetic_trace(recipe, (0.0, 0.0), sample_period=0.1)
    assert len(trace) == n
    assert abs(float(np.mean(trace.powers())) - 20.0) < 3.0 * 1.0 / np.sqrt(n)


def test_synthetic_noise_truncated_at_zero():
    recipe = SyntheticRecipe(base_power=0.5, active_power=0.0, noise_std=5.0, duration=50.0, seed=1)
    trace = generate_synthetic_trace(recipe, (0.0, 0.0), sample_period=0.1)
    assert np.all(trace.powers() >= 0.0)


def test_synthetic_window_validation():
    recipe = SyntheticRecipe(duration=5.0)
    with pytest.raises(ValueError):
        generate_synthetic_trace(recipe, (2.0, 6.0))
    with pytest.raises(ValueError):
        generate_synthetic_trace(recipe, (-1.0, 2.0))


def test_recipe_validation():
    with pytest.raises(ValueError):
        SyntheticRecipe(base_power=-1.0)
    with pytest.raises(ValueError):
        SyntheticRecipe(noise_std=-0.1)
    with pytest.raises(ValueError):
        SyntheticRecipe(duration=0.0)


# ── meter factory and specs ───────────────────────────────────────────────

def test_open_meter_kinds(tmp_path):
    trace = tmp_path / "x.csv"
    trace.write_text("t_s,p_w\n0.0,20.0\n1.0,20.0\n")
    counter = tmp_path / "energy_uj"
    counter.write_text("0")
    assert isinstance(open_meter(f"csv:{trace}", 0.1), CsvReplayMeter)
    assert isinstance(open_meter(f"counter:{counter}", 0.1), CounterMeter)
    meter = open_meter("synth:base=20,active=30,noise=0,seed=1", 0.1)
    assert isinstance(meter, SyntheticMeter)
    assert meter.sample_period == 0.1
    with pytest.raises(ValueError):
        open_meter("bogus:/x", 0.1)
    with pytest.raises(ValueError):
        open_meter("no-colon", 0.1)


def test_open_meter_validation(tmp_path):
    counter = tmp_path / "energy_uj"
    counter.write_text("0")
    with pytest.raises(ValueError):
        open_meter("synth:base=20", 0.0)
    with pytest.raises(ValueError):
        open_meter(f"counter:{counter}", 0.0)


def test_open_meter_counter_must_be_readable(tmp_path):
    with pytest.raises(AcquisitionError, match="cannot read counter file"):
        open_meter(f"counter:{tmp_path / 'missing'}", 0.1)
    with pytest.raises(AcquisitionError):
        CounterMeter(tmp_path / "missing")


def test_open_meter_synthetic_inline_and_json(tmp_path):
    meter = open_meter("synth:base=20,active=30,noise=0,duration=4,period=0.05", 0.1)
    assert isinstance(meter, SyntheticMeter)
    assert meter.sample_period == 0.05
    assert meter.recipe.base_power == 20.0

    recipe_file = tmp_path / "recipe.json"
    recipe_file.write_text(
        '{"base_power": 10.0, "active_power": 5.0, "noise_std": 0.0, "duration": 2.0, "seed": 4}'
    )
    meter = open_meter(f"synth:{recipe_file}", 0.1)
    assert meter.recipe.active_power == 5.0


def test_csv_replay_meter(tmp_path):
    f = tmp_path / "trace.csv"
    f.write_text("t_s,p_w\n0.0,20.0\n5.0,20.0\n10.0,20.0\n")
    meter = CsvReplayMeter(f)
    trace, result = meter.record(lambda: "done")
    assert result == "done"
    assert trace.duration == 10.0
    assert meter.capture_idle(8.0).duration == 10.0
    with pytest.raises(TraceWindowError):
        meter.capture_idle(30.0)


def test_synthetic_meter_record_covers_activity():
    meter = SyntheticMeter(SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=0.0),
                           sample_period=0.05)

    def activity():
        t0 = time.perf_counter()
        time.sleep(0.4)
        return time.perf_counter() - t0

    trace, wall = meter.record(activity)
    assert trace.duration >= wall >= 0.4
    idle = meter.capture_idle(wall)
    e = net_energy(trace, idle, wall)
    # The active step starts at the trace's first sample and ends after the
    # activity's own wall time: at most half a period's ramp is lost.
    assert 30.0 * wall - 30.0 * 0.05 / 2 - 1e-9 <= e <= 30.0 * wall + 1e-9
