"""Integration, t-critical, and stopping-rule behavior of the energy core."""

import math
import statistics

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from encwatt.energy import (
    ConfidencePolicy,
    PowerTrace,
    confidence_check,
    integrate_energy,
    measure_until_confident,
    net_energy,
    t_critical,
)
from encwatt.errors import (
    InvalidMeasurementError,
    MalformedTraceError,
    MeasurementRunError,
    TraceWindowError,
)


def const_trace(p, t0=0.0, t1=10.0, n=11, label="const"):
    times = np.linspace(t0, t1, n)
    return PowerTrace.from_arrays(times, np.full(n, p), source_label=label)


def ramp_trace(t0=0.0, t1=10.0, n=11, label="ramp"):
    times = np.linspace(t0, t1, n)
    return PowerTrace.from_arrays(times, times, source_label=label)


# ── trace construction ────────────────────────────────────────────────────

def test_trace_requires_two_samples():
    with pytest.raises(MalformedTraceError, match="at least 2"):
        PowerTrace.from_arrays([0.0], [1.0])


def test_trace_timestamps_strictly_increasing():
    with pytest.raises(MalformedTraceError, match="strictly increasing"):
        PowerTrace.from_arrays([0.0, 0.0], [1.0, 2.0])


def test_sample_rejects_negative_values():
    with pytest.raises(MalformedTraceError):
        PowerTrace.from_arrays([-1.0, 1.0], [5.0, 5.0])
    with pytest.raises(MalformedTraceError):
        PowerTrace.from_arrays([0.0, 1.0], [5.0, -5.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_trace_rejects_non_finite_values(bad):
    with pytest.raises(MalformedTraceError, match="sample 1"):
        PowerTrace.from_arrays([0.0, bad], [1.0, 1.0])
    with pytest.raises(MalformedTraceError, match="sample 1"):
        PowerTrace.from_arrays([0.0, 1.0], [1.0, bad])


def test_trace_is_read_only_and_does_not_alias_its_input():
    times = np.array([0.0, 1.0, 2.0])
    trace = PowerTrace.from_arrays(times, [1.0, 2.0, 3.0])
    samples = np.array([[0.0, 1.0], [1.0, 2.0]])
    copied = PowerTrace(samples)
    samples[0, 1] = 99.0
    assert copied.powers()[0] == 1.0
    assert samples.flags.writeable  # the caller's array is left alone
    assert trace.samples.dtype == np.float64 and trace.samples.shape == (3, 2)
    with pytest.raises(ValueError):
        trace.samples[0, 1] = 5.0
    with pytest.raises(ValueError):
        trace.times()[0] = 5.0
    with pytest.raises(ValueError):
        trace.powers()[:] = 0.0
    assert np.array_equal(trace.times(), times)


def test_trace_equality_and_hash_are_by_identity():
    a = const_trace(1.0)
    b = const_trace(1.0)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_trace_duration():
    trace = const_trace(50.0, 0.0, 10.0)
    assert trace.duration == 10.0
    assert trace.start == 0.0 and trace.end == 10.0


# ── integration ───────────────────────────────────────────────────────────

def test_integrate_constant_power():
    trace = const_trace(50.0, 0.0, 10.0)
    assert integrate_energy(trace, 0.0, 10.0) == pytest.approx(500.0, rel=1e-12)


def test_integrate_linear_ramp():
    # integral of p(t)=t over [0,10] is 50; trapezoid is exact on linear data
    trace = ramp_trace()
    assert integrate_energy(trace, 0.0, 10.0) == pytest.approx(50.0, rel=1e-12)


def test_integrate_interpolated_window():
    trace = PowerTrace.from_arrays([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert integrate_energy(trace, 0.5, 1.5) == pytest.approx(1.5, rel=1e-12)


def test_integrate_subwindow_of_constant():
    trace = const_trace(50.0, 0.0, 10.0)
    assert integrate_energy(trace, 2.25, 7.75) == pytest.approx(50.0 * 5.5, rel=1e-12)


def test_integrate_window_outside_span():
    trace = const_trace(50.0, 1.0, 9.0)
    with pytest.raises(TraceWindowError):
        integrate_energy(trace, 0.5, 5.0)
    with pytest.raises(TraceWindowError):
        integrate_energy(trace, 2.0, 9.5)
    with pytest.raises(TraceWindowError):
        integrate_energy(trace, 5.0, 5.0)


@settings(max_examples=100)
@given(
    powers=st.lists(st.floats(0.0, 1000.0), min_size=11, max_size=11),
    cuts=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
)
def test_integration_additive_over_adjacent_windows(powers, cuts):
    a, b, c = sorted(cuts)
    assume(a < b < c)
    trace = PowerTrace.from_arrays(np.linspace(0.0, 10.0, 11), powers)
    whole = integrate_energy(trace, a, c)
    parts = integrate_energy(trace, a, b) + integrate_energy(trace, b, c)
    assert parts == pytest.approx(whole, rel=1e-12, abs=1e-12)


def test_piecewise_linear_exactness():
    # analytic integral of the tent (0,0)-(5,100)-(10,0) over [0,10] is 500
    trace = PowerTrace.from_arrays([0.0, 5.0, 10.0], [0.0, 100.0, 0.0])
    assert integrate_energy(trace, 0.0, 10.0) == pytest.approx(500.0, rel=1e-9)
    # and over [2.5, 7.5]: 2*(0.5*(50+100)/1*2.5) = 375
    assert integrate_energy(trace, 2.5, 7.5) == pytest.approx(375.0, rel=1e-9)


# ── net energy ────────────────────────────────────────────────────────────

def test_net_energy_constant_powers():
    total = const_trace(50.0)
    idle = const_trace(20.0)
    assert net_energy(total, idle, 10.0) == pytest.approx(300.0, rel=1e-12)


def test_net_energy_identical_traces_is_zero():
    trace = ramp_trace()
    assert net_energy(trace, trace, 7.5) == pytest.approx(0.0, abs=1e-12)


def test_net_energy_ramp_minus_constant():
    total = ramp_trace()            # integral 50 over 10 s
    idle = const_trace(1.0)         # integral 10 over 10 s
    assert net_energy(total, idle, 10.0) == pytest.approx(40.0, rel=1e-12)


def test_net_energy_window_uses_each_traces_own_start():
    total = const_trace(50.0, t0=100.0, t1=110.0)
    idle = const_trace(20.0, t0=0.0, t1=10.0)
    assert net_energy(total, idle, 10.0) == pytest.approx(300.0, rel=1e-12)


def test_net_energy_insufficient_span():
    total = const_trace(50.0, 0.0, 5.0)
    idle = const_trace(20.0)
    with pytest.raises(TraceWindowError):
        net_energy(total, idle, 8.0)


def test_net_energy_negative_is_flagged_not_clamped(caplog):
    total = const_trace(20.0)
    idle = const_trace(50.0)
    with caplog.at_level("WARNING", logger="encwatt.energy"):
        value = net_energy(total, idle, 10.0)
    assert value == pytest.approx(-300.0, rel=1e-12)
    assert any("negative" in rec.message for rec in caplog.records)


# ── t critical ────────────────────────────────────────────────────────────

def test_t_critical_spot_values():
    # standard one-sided t-table values
    assert t_critical(0.99, 3) == pytest.approx(4.5407, abs=1e-4)
    assert t_critical(0.99, 30) == pytest.approx(2.4573, abs=1e-4)
    assert t_critical(0.95, 10) == pytest.approx(1.8125, abs=1e-4)


def test_t_critical_median_is_zero():
    for dof in (1, 7, 100):
        assert t_critical(0.5, dof) == 0.0


def test_t_critical_symmetry():
    assert t_critical(0.01, 5) == pytest.approx(-t_critical(0.99, 5), rel=1e-12)


def test_t_critical_domain_errors():
    with pytest.raises(ValueError):
        t_critical(0.99, 0)
    with pytest.raises(ValueError):
        t_critical(0.0, 3)
    with pytest.raises(ValueError):
        t_critical(1.0, 3)


def test_t_critical_against_scipy_reference():
    for alpha in (0.9, 0.95, 0.99):
        for dof in (1, 2, 5, 17, 60, 200):
            assert t_critical(alpha, dof) == pytest.approx(
                scipy.stats.t.ppf(alpha, dof), abs=1e-7
            )


# ── confidence check ──────────────────────────────────────────────────────

def test_confidence_zero_variance_passes():
    policy = ConfidencePolicy()
    assert confidence_check([1000.0, 1000.0, 1000.0], policy) is True


def test_confidence_hand_example_fails():
    # 2 * (8.539/2) * 4.5407 = 38.8 > 0.02 * 1001.25 = 20.0
    energies = [1000.0, 1010.0, 990.0, 1005.0]
    policy = ConfidencePolicy(alpha=0.99, beta=0.02)
    lhs = 2 * statistics.stdev(energies) / 2 * t_critical(0.99, 3)
    assert lhs == pytest.approx(38.77, abs=0.01)
    assert confidence_check(energies, policy) is False


def test_confidence_single_element_is_never_confident():
    assert confidence_check([1000.0], ConfidencePolicy()) is False
    assert confidence_check([], ConfidencePolicy()) is False


def test_confidence_nonpositive_mean_rejected():
    with pytest.raises(InvalidMeasurementError):
        confidence_check([-5.0, 5.0], ConfidencePolicy())


@settings(max_examples=100)
@given(
    energies=st.lists(st.floats(10.0, 1e6), min_size=2, max_size=8),
    k=st.floats(1e-3, 1e3),
)
def test_confidence_scale_invariant(energies, k):
    policy = ConfidencePolicy()
    scaled = [k * e for e in energies]
    assert confidence_check(energies, policy) == confidence_check(scaled, policy)


@settings(max_examples=100)
@given(
    energies=st.lists(st.floats(10.0, 1e6), min_size=2, max_size=8),
    beta=st.floats(0.01, 0.5),
    bump=st.floats(0.01, 0.4),
)
def test_confidence_monotone_in_beta(energies, beta, bump):
    if confidence_check(energies, ConfidencePolicy(beta=beta)):
        assert confidence_check(energies, ConfidencePolicy(beta=min(beta + bump, 0.99)))


# ── policy and record ─────────────────────────────────────────────────────

def test_policy_validation():
    with pytest.raises(ValueError):
        ConfidencePolicy(alpha=1.5)
    with pytest.raises(ValueError):
        ConfidencePolicy(beta=0.0)
    with pytest.raises(ValueError):
        ConfidencePolicy(min_reps=1)
    with pytest.raises(ValueError):
        ConfidencePolicy(min_reps=5, max_reps=4)


def test_record_from_energies():
    policy = ConfidencePolicy(min_reps=3, max_reps=3)
    values = iter([100.0, 102.0, 98.0])
    record = measure_until_confident(lambda: next(values), policy, job_id="job")
    assert record.job_id == "job"
    assert record.energies == (100.0, 102.0, 98.0)
    assert record.reps == 3
    assert record.mean_energy == pytest.approx(100.0)
    assert record.std_dev == pytest.approx(statistics.stdev([100.0, 102.0, 98.0]))
    assert record.confident is confidence_check(record.energies, policy)


# ── measure until confident ──────────────────────────────────────────────

def test_measure_stops_at_min_reps_for_constant_callback():
    policy = ConfidencePolicy(min_reps=2, max_reps=10)
    record = measure_until_confident(lambda: 500.0, policy, job_id="const")
    assert record.reps == 2
    assert record.confident is True
    assert record.energies == (500.0, 500.0)
    assert record.job_id == "const"


def test_measure_exhausts_budget_on_alternating_callback():
    values = iter([100.0, 200.0, 100.0, 200.0, 100.0])
    policy = ConfidencePolicy(min_reps=2, max_reps=5)
    record = measure_until_confident(lambda: next(values), policy)
    assert record.reps == 5
    assert record.confident is False
    assert record.energies == (100.0, 200.0, 100.0, 200.0, 100.0)


def test_measure_respects_min_reps_above_two():
    policy = ConfidencePolicy(min_reps=4, max_reps=10)
    record = measure_until_confident(lambda: 500.0, policy)
    assert record.reps == 4
    assert record.confident is True


def test_measure_propagates_callback_failure_with_context():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("encoder crashed")
        return 500.0

    policy = ConfidencePolicy(min_reps=5, max_reps=8)
    with pytest.raises(MeasurementRunError) as excinfo:
        measure_until_confident(flaky, policy)
    assert excinfo.value.repetition == 3
    assert excinfo.value.energies == (500.0, 500.0)
    assert "encoder crashed" in str(excinfo.value)


def test_measure_gaussian_terminates_within_bound():
    # smoke-scale version of the coverage criterion
    rng = np.random.default_rng(7)
    policy = ConfidencePolicy(alpha=0.99, beta=0.02, min_reps=2, max_reps=60)
    for _ in range(300):
        draws = iter(rng.normal(1000.0, 5.0, policy.max_reps))
        record = measure_until_confident(lambda: next(draws), policy)
        assert record.confident
        assert abs(record.mean_energy - 1000.0) <= 0.02 * 1000.0


def test_measure_applies_rule_only_from_min_reps():
    # the first two energies average to <= 0, which the rule would reject
    policy = ConfidencePolicy(min_reps=4, max_reps=10)
    values = iter([-10.0, 5.0] + [1000.0] * 8)
    record = measure_until_confident(lambda: next(values), policy)
    assert record.reps >= 4
    assert record.energies[:4] == (-10.0, 5.0, 1000.0, 1000.0)

    values = iter([-10.0, 5.0, -10.0, 5.0, 1000.0])
    with pytest.raises(InvalidMeasurementError):
        measure_until_confident(lambda: next(values), policy)
    assert next(values) == 1000.0  # it raised at repetition 4, not later


def _exact_rule(draws, policy):
    """The stopping rule recomputed from scratch at every repetition, in exact arithmetic."""
    for m in range(policy.min_reps, policy.max_reps + 1):
        energies = draws[:m]
        mean = statistics.fmean(energies)
        lhs = 2.0 * statistics.stdev(energies) / math.sqrt(m) * t_critical(policy.alpha, m - 1)
        if lhs < policy.beta * mean:
            return m, True, mean
    return policy.max_reps, False, mean


def test_running_rule_matches_exact_rule_on_seeded_campaigns():
    rng = np.random.default_rng(20260809)
    mu = 1000.0
    policy = ConfidencePolicy(alpha=0.99, beta=0.02, min_reps=2, max_reps=60)
    for rel_sigma in (0.005, 0.01, 0.02):
        for _ in range(1_000):
            draws = rng.normal(mu, rel_sigma * mu, policy.max_reps).tolist()
            record = measure_until_confident(iter(draws).__next__, policy)
            assert (record.reps, record.confident, record.mean_energy) == _exact_rule(
                draws, policy
            ), (rel_sigma, draws)
