"""Prediction models and the bundled parameter table."""

import pytest

from encwatt.models import (
    PRESETS,
    LinearParams,
    QpModelParams,
    QpRangeWarning,
    load_default_params,
    predict_energy_linear,
    predict_energy_qp,
    predict_time_qp,
    read_params_file,
    write_params_file,
)


def test_preset_list_has_nine_entries_fastest_first():
    assert len(PRESETS) == 9
    assert PRESETS[0] == "ultrafast"
    assert PRESETS[-1] == "veryslow"


# ── QP model ──────────────────────────────────────────────────────────────

def test_qp_time_at_zero_is_offset():
    params = QpModelParams(kappa=1e-4, lam=1e-3, mu=0.01, t0=10.0)
    assert predict_time_qp(params, 0.0) == 10.0


def test_qp_time_hand_value():
    params = QpModelParams(kappa=1e-4, lam=1e-3, mu=0.01, t0=10.0)
    # 0.8 - 0.4 - 0.2 + 10
    assert predict_time_qp(params, 20.0) == pytest.approx(10.2, rel=1e-12)


def test_qp_sign_convention_lambda_decreases_prediction():
    lo = QpModelParams(kappa=1e-4, lam=1e-3, mu=0.01, t0=10.0)
    hi = QpModelParams(kappa=1e-4, lam=2e-3, mu=0.01, t0=10.0)
    assert predict_time_qp(hi, 20.0) < predict_time_qp(lo, 20.0)


def test_qp_time_matches_horner_oracle():
    params = QpModelParams(kappa=3.2e-4, lam=2.1e-3, mu=0.045, t0=12.5)
    for qp in range(0, 52):
        horner = ((params.kappa * qp - params.lam) * qp - params.mu) * qp + params.t0
        assert predict_time_qp(params, float(qp)) == pytest.approx(horner, rel=1e-12)


def test_qp_energy_is_time_times_power():
    params = QpModelParams(kappa=1e-4, lam=1e-3, mu=0.01, t0=10.0, p_avg=100.0)
    assert predict_energy_qp(params, 20.0) == pytest.approx(1020.0, rel=1e-12)
    assert predict_energy_qp(params, 0.0) == pytest.approx(1000.0, rel=1e-12)


def test_qp_nonpositive_power_rejected_at_construction():
    with pytest.raises(ValueError):
        QpModelParams(kappa=1e-4, lam=1e-3, mu=0.01, t0=10.0, p_avg=0.0)


def test_qp_out_of_domain_rejected():
    params = QpModelParams(kappa=1e-4, lam=1e-3, mu=0.01, t0=10.0)
    with pytest.raises(ValueError):
        predict_time_qp(params, 52.0)


def test_qp_warns_outside_calibrated_range():
    params = QpModelParams(kappa=1e-4, lam=1e-3, mu=0.01, t0=10.0,
                           valid_qp_range=(18.0, 38.0))
    with pytest.warns(QpRangeWarning):
        predict_time_qp(params, 10.0)


# ── linear model ──────────────────────────────────────────────────────────

def test_linear_identity_params():
    params = LinearParams(p=1.0, e0=0.0, covariate_kind="own_time")
    assert predict_energy_linear(params, 7.25) == 7.25


def test_linear_rejects_nonpositive_time():
    params = LinearParams(p=100.0, e0=1.0)
    with pytest.raises(ValueError):
        predict_energy_linear(params, 0.0)
    with pytest.raises(ValueError):
        predict_energy_linear(params, -2.0)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
def test_linear_rejects_non_finite_time(t):
    with pytest.raises(ValueError, match="finite"):
        predict_energy_linear(LinearParams(p=100.0, e0=1.0), t)


def test_linear_rejects_nonpositive_slope():
    with pytest.raises(ValueError):
        LinearParams(p=0.0, e0=1.0)
    # negative offsets are fine (the bundled table has them)
    LinearParams(p=10.0, e0=-50.0)


def test_linear_affine_increment_property():
    params = LinearParams(p=160.36, e0=-9.73)
    for t in (0.5, 2.0, 7.3):
        for a in (1.5, 2.0, 4.0):
            lhs = predict_energy_linear(params, a * t) - predict_energy_linear(params, t)
            assert lhs == pytest.approx(params.p * (a - 1.0) * t, rel=1e-12, abs=1e-9)


# ── bundled defaults ──────────────────────────────────────────────────────

def test_default_table_has_exactly_eight_presets():
    table = load_default_params()
    assert set(table) == set(PRESETS) - {"ultrafast"}
    assert all(lp.covariate_kind == "ultrafast_time" for lp in table.values())


def test_default_table_spot_values():
    table = load_default_params()
    assert table["slow"].p == 1137.65 and table["slow"].e0 == -70.20
    assert table["slower"].p == 4025.44 and table["slower"].e0 == 230.18
    assert "ultrafast" not in table


def test_default_table_probe_estimates_at_two_seconds():
    table = load_default_params()
    assert predict_energy_linear(table["superfast"], 2.0) == pytest.approx(310.99, rel=1e-9)
    assert predict_energy_linear(table["veryslow"], 2.0) == pytest.approx(13967.93, rel=1e-9)


def test_default_table_energy_ordering_at_two_seconds():
    table = load_default_params()
    estimates = {p: predict_energy_linear(lp, 2.0) for p, lp in table.items()}
    assert estimates["superfast"] < estimates["veryfast"] < estimates["faster"] < estimates["fast"]
    assert estimates["slow"] < estimates["slower"] < estimates["veryslow"]
    assert estimates["superfast"] == pytest.approx(310.99, rel=1e-9)
    assert estimates["veryfast"] == pytest.approx(479.06, rel=1e-9)
    assert estimates["faster"] == pytest.approx(484.81, rel=1e-9)
    assert estimates["fast"] == pytest.approx(738.34, rel=1e-9)
    assert estimates["slow"] == pytest.approx(2205.10, rel=1e-9)
    assert estimates["slower"] == pytest.approx(8281.06, rel=1e-9)
    assert estimates["veryslow"] == pytest.approx(13967.93, rel=1e-9)


def test_default_table_slope_ratios():
    # stored constants imply these ratios; kept as stored-table facts
    table = load_default_params()
    assert table["fast"].p / table["superfast"].p == pytest.approx(2.36, abs=0.005)
    assert table["veryslow"].p / table["superfast"].p == pytest.approx(42.2, abs=0.05)


# ── parameter files ───────────────────────────────────────────────────────

def test_params_file_round_trip(tmp_path):
    params = {
        "superfast": LinearParams(p=160.36, e0=-9.73),
        "medium": LinearParams(p=358.21, e0=-25.51),
    }
    path = tmp_path / "params.csv"
    write_params_file(params, path, metadata={"seed": 0})
    loaded = read_params_file(path)
    assert loaded == params
    assert path.read_text().startswith("# seed: 0\n")


def test_params_file_rejects_unknown_preset(tmp_path):
    path = tmp_path / "params.csv"
    path.write_text("preset,covariate_kind,p_w,e0_j\nwarp9,ultrafast_time,1.0,0.0\n")
    with pytest.raises(ValueError, match="warp9"):
        read_params_file(path)


def test_params_file_rejects_duplicate_preset(tmp_path):
    path = tmp_path / "params.csv"
    path.write_text(
        "preset,covariate_kind,p_w,e0_j\n"
        "slow,ultrafast_time,1.0,0.0\nslow,ultrafast_time,2.0,0.0\n"
    )
    with pytest.raises(ValueError, match="duplicate"):
        read_params_file(path)
