"""Least-squares fitting, error metrics, and cross-validation."""

import numpy as np
import pytest
from scipy.optimize import minimize

from encwatt.dataset import Dataset, DatasetRow
from encwatt.errors import (
    DatasetError,
    FitRejectedError,
    SingularFitError,
    UnderdeterminedFitError,
)
from encwatt.fitting import (
    FitReport,
    cross_validate,
    fit_linear_model,
    fit_qp_model,
    fit_report,
    kfold_split,
    mean_abs_relative_error,
    relative_error,
)
from encwatt.synth import SynthDatasetRecipe, generate_dataset


def rows_from_arrays(ts, energies, preset="medium", qps=None, class_label="B", seq_prefix="seq"):
    rows = []
    for i, (t, e) in enumerate(zip(ts, energies)):
        rows.append(
            DatasetRow(
                sequence_id=f"{seq_prefix}{i:03d}",
                class_label=class_label,
                preset=preset,
                crf=23.0,
                frames=100,
                avg_qp=qps[i] if qps is not None else 25.0,
                t_enc=float(t),
                t_enc_uf=float(t),
                energy=float(e),
                reps=1,
                confident=True,
            )
        )
    return rows


def dataset_from_arrays(ts, energies, **kwargs) -> Dataset:
    return Dataset(rows=tuple(rows_from_arrays(ts, energies, **kwargs)))


# ── error metrics ─────────────────────────────────────────────────────────

def test_relative_error_definitional_cases():
    assert relative_error(110.0, 100.0) == pytest.approx(0.10, rel=1e-12)
    assert relative_error(100.0, 100.0) == 0.0
    assert relative_error(90.0, 100.0) == pytest.approx(-0.10, rel=1e-12)


def test_relative_error_rejects_nonpositive_measurement():
    with pytest.raises(ValueError):
        relative_error(100.0, 0.0)
    with pytest.raises(ValueError):
        relative_error(100.0, -5.0)


def test_mean_abs_relative_error():
    assert mean_abs_relative_error([0.1, -0.1]) == pytest.approx(0.1)
    assert mean_abs_relative_error([0.0]) == 0.0
    assert mean_abs_relative_error([0.2, 0.1, -0.3]) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        mean_abs_relative_error([])


# ── affine fit ────────────────────────────────────────────────────────────

def test_linear_fit_exact_on_noiseless_data():
    ts = np.linspace(1.0, 6.0, 8)
    energies = 300.0 * ts + 5.0
    result = fit_linear_model(dataset_from_arrays(ts, energies), "medium", "own_time")
    assert result.params.p == pytest.approx(300.0, rel=1e-9)
    assert result.params.e0 == pytest.approx(5.0, rel=1e-9)
    assert result.mean_abs_rel_error == pytest.approx(0.0, abs=1e-12)


def test_linear_fit_identical_covariates_is_singular():
    ds = dataset_from_arrays([2.0, 2.0], [100.0, 105.0])
    with pytest.raises(SingularFitError):
        fit_linear_model(ds, "medium", "own_time")


def test_linear_fit_requires_three_rows():
    ds = dataset_from_arrays([1.0, 2.0], [100.0, 200.0])
    with pytest.raises(UnderdeterminedFitError):
        fit_linear_model(ds, "medium", "own_time")


def test_linear_fit_rejects_nonpositive_slope():
    ts = np.linspace(1.0, 6.0, 8)
    energies = 1000.0 - 50.0 * ts
    with pytest.raises(FitRejectedError):
        fit_linear_model(dataset_from_arrays(ts, energies), "medium", "own_time")


def test_linear_fit_recovers_slope_under_multiplicative_noise():
    rng = np.random.default_rng(42)
    n = 100
    ts = rng.uniform(0.5, 5.0, n)
    energies = (160.36 * ts - 9.73) * (1.0 + rng.normal(0.0, 0.05, n))
    result = fit_linear_model(dataset_from_arrays(ts, energies), "medium", "own_time")
    assert result.params.p == pytest.approx(160.36, rel=0.03)


def test_linear_fit_matches_direct_objective_minimizer():
    # brute-force oracle: Nelder-Mead on the same relative-residual objective
    rng = np.random.default_rng(3)
    for trial in range(5):
        n = int(rng.integers(5, 21))
        ts = rng.uniform(0.5, 8.0, n)
        energies = (rng.uniform(50, 400) * ts + rng.uniform(-30, 30)) * (
            1.0 + rng.normal(0.0, 0.08, n)
        )
        energies = np.abs(energies) + 1.0
        ds = dataset_from_arrays(ts, energies)
        fit = fit_linear_model(ds, "medium", "own_time")

        def objective(c):
            return float(np.sum(((c[0] * ts + c[1] - energies) / energies) ** 2))

        wls_value = objective([fit.params.p, fit.params.e0])
        nm = minimize(
            objective, x0=[100.0, 0.0], method="Nelder-Mead",
            options=dict(xatol=1e-12, fatol=1e-14, maxiter=20000, maxfev=20000),
        )
        assert wls_value <= nm.fun + 1e-9
        assert abs(wls_value - nm.fun) <= 1e-6 * (1.0 + wls_value)


def test_linear_fit_scale_invariance():
    rng = np.random.default_rng(9)
    ts = rng.uniform(0.5, 5.0, 30)
    energies = (200.0 * ts + 10.0) * (1.0 + rng.normal(0.0, 0.05, 30))
    base = fit_linear_model(dataset_from_arrays(ts, energies), "medium", "own_time")
    for k in (0.5, 3.0, 1000.0):
        scaled = fit_linear_model(
            dataset_from_arrays(k * ts, k * energies), "medium", "own_time"
        )
        assert scaled.params.p == pytest.approx(base.params.p, rel=1e-9)
        assert scaled.params.e0 == pytest.approx(k * base.params.e0, rel=1e-9)
        assert np.allclose(scaled.rel_errors, base.rel_errors, rtol=1e-9, atol=1e-12)


def test_abs_rel_objective_improves_l1_error():
    rng = np.random.default_rng(21)
    ts = rng.uniform(0.5, 5.0, 40)
    energies = (150.0 * ts + 5.0) * (1.0 + rng.normal(0.0, 0.05, 40))
    energies[::7] *= 1.6  # outliers
    ds = dataset_from_arrays(ts, energies)
    l2 = fit_linear_model(ds, "medium", "own_time", objective="squared_rel")
    l1 = fit_linear_model(ds, "medium", "own_time", objective="abs_rel")
    assert l1.mean_abs_rel_error <= l2.mean_abs_rel_error + 1e-12


# ── QP fit ────────────────────────────────────────────────────────────────

def qp_energy(qp, kappa, lam, mu, t0):
    return kappa * qp**3 - lam * qp**2 - mu * qp + t0


def test_qp_fit_exact_on_noiseless_cubic():
    rng = np.random.default_rng(0)
    qps = np.linspace(18.0, 38.0, 20)
    truth = dict(kappa=0.02, lam=0.1, mu=0.5, t0=500.0)
    energies = qp_energy(qps, **truth)
    assert np.all(energies > 0)
    ds = dataset_from_arrays(rng.uniform(1, 5, 20), energies, qps=list(qps))
    result = fit_qp_model(ds, "medium", "B")
    assert result.params.kappa == pytest.approx(truth["kappa"], rel=1e-6)
    assert result.params.lam == pytest.approx(truth["lam"], rel=1e-6)
    assert result.params.mu == pytest.approx(truth["mu"], rel=1e-6)
    assert result.params.t0 == pytest.approx(truth["t0"], rel=1e-6)
    assert result.params.p_avg == 1.0
    assert result.params.valid_qp_range == (18.0, 38.0)


def test_qp_fit_with_measured_mean_power():
    qps = np.linspace(18.0, 38.0, 20)
    energies = qp_energy(qps, 0.02, 0.1, 0.5, 500.0)
    ds = dataset_from_arrays(np.linspace(1, 5, 20), energies, qps=list(qps))
    result = fit_qp_model(ds, "medium", "B", p_avg=100.0)
    assert result.params.p_avg == 100.0
    assert result.params.t0 == pytest.approx(5.0, rel=1e-6)  # 500 J / 100 W


def test_qp_fit_underdetermined_on_constant_qp():
    ds = dataset_from_arrays(np.linspace(1, 5, 8), np.linspace(100, 500, 8),
                             qps=[25.0] * 8)
    with pytest.raises(UnderdeterminedFitError):
        fit_qp_model(ds, "medium", "B")


def test_qp_fit_needs_five_rows():
    ds = dataset_from_arrays([1, 2, 3, 4], [100, 200, 300, 400],
                             qps=[20.0, 25.0, 30.0, 35.0])
    with pytest.raises(UnderdeterminedFitError):
        fit_qp_model(ds, "medium", "B")


def test_qp_fit_requires_avg_qp_values():
    rows = rows_from_arrays(np.linspace(1, 5, 6), np.linspace(100, 500, 6),
                            qps=[20.0, 22.0, None, 26.0, 28.0, 30.0])
    with pytest.raises(DatasetError, match="avg_qp"):
        fit_qp_model(Dataset(rows=tuple(rows)), "medium", "B")


# ── k-fold machinery ──────────────────────────────────────────────────────

def test_kfold_singleton_folds():
    folds = kfold_split(10, 10, seed=0)
    assert len(folds) == 10
    assert all(len(f) == 1 for f in folds)


def test_kfold_balanced_partition_sizes():
    folds = kfold_split(25, 10, seed=1)
    sizes = sorted(len(f) for f in folds)
    assert sizes == [2, 2, 2, 2, 2, 3, 3, 3, 3, 3]


def test_kfold_partition_properties():
    folds = kfold_split(37, 7, seed=5)
    flat = [i for fold in folds for i in fold]
    assert sorted(flat) == list(range(37))
    assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1


def test_kfold_deterministic():
    assert kfold_split(25, 10, seed=3) == kfold_split(25, 10, seed=3)
    assert kfold_split(25, 10, seed=3) != kfold_split(25, 10, seed=4)


def test_kfold_domain_errors():
    with pytest.raises(ValueError):
        kfold_split(5, 10, seed=0)
    with pytest.raises(ValueError):
        kfold_split(10, 1, seed=0)


# ── cross-validation ──────────────────────────────────────────────────────

def test_cross_validation_zero_error_on_noiseless_data():
    ts = np.linspace(1.0, 6.0, 20)
    energies = 300.0 * ts + 5.0
    report = cross_validate(dataset_from_arrays(ts, energies), "time_linear", k=10, seed=0)
    assert report.per_preset_error["medium"] == pytest.approx(0.0, abs=1e-9)
    assert all(e == pytest.approx(0.0, abs=1e-9) for e in report.per_fold_errors)
    assert len(report.per_fold_errors) == 10


def test_cross_validation_equals_leave_one_out():
    rng = np.random.default_rng(8)
    n = 12
    ts = rng.uniform(0.5, 5.0, n)
    energies = (200.0 * ts + 30.0) * (1.0 + rng.normal(0.0, 0.1, n))
    ds = dataset_from_arrays(ts, energies)
    report = cross_validate(ds, "time_linear", k=n, seed=0)

    # direct leave-one-out with the same fit
    errors = []
    rows = sorted(ds.rows, key=lambda r: (r.sequence_id, r.preset, r.crf))
    for i in range(n):
        train = [r for j, r in enumerate(rows) if j != i]
        sub = Dataset(rows=tuple(train))
        fit = fit_linear_model(sub, "medium", "own_time")
        pred = fit.params.e0 + fit.params.p * rows[i].t_enc
        errors.append(abs(relative_error(pred, rows[i].energy)))
    assert report.per_preset_error["medium"] == pytest.approx(float(np.mean(errors)), rel=1e-12)


def test_cross_validation_invariant_to_row_order():
    rng = np.random.default_rng(13)
    ts = rng.uniform(0.5, 5.0, 20)
    energies = (120.0 * ts + 10.0) * (1.0 + rng.normal(0.0, 0.05, 20))
    rows = rows_from_arrays(ts, energies)
    forward = Dataset(rows=tuple(rows))
    backward = Dataset(rows=tuple(reversed(rows)))
    a = cross_validate(forward, "time_linear", k=5, seed=2)
    b = cross_validate(backward, "time_linear", k=5, seed=2)
    assert a.per_preset_error == b.per_preset_error
    assert a.per_fold_errors == b.per_fold_errors


def test_cross_validation_degenerate_fold_aborts():
    # nine rows share one covariate value; the fold holding the odd row
    # out trains on a rank-deficient design
    ts = [2.0] * 9 + [3.0]
    energies = list(np.linspace(100, 190, 9)) + [300.0]
    ds = dataset_from_arrays(ts, energies)
    with pytest.raises(SingularFitError, match="fold"):
        cross_validate(ds, "time_linear", k=10, seed=0)


def test_cross_validation_requires_enough_rows_per_preset():
    ds = dataset_from_arrays(np.linspace(1, 5, 6), np.linspace(100, 500, 6))
    with pytest.raises(ValueError, match="folds"):
        cross_validate(ds, "time_linear", k=10, seed=0)


def test_cross_validation_rejects_unknown_model():
    ds = dataset_from_arrays(np.linspace(1, 5, 12), np.linspace(100, 500, 12))
    with pytest.raises(ValueError):
        cross_validate(ds, "cubic_spline", k=3, seed=0)


def test_uf_and_time_models_use_different_covariates():
    # rows where own time and probe time diverge
    rng = np.random.default_rng(4)
    rows = []
    for i in range(20):
        t_uf = rng.uniform(1.0, 3.0)
        t_own = 3.0 * t_uf * rng.uniform(0.9, 1.1)
        rows.append(
            DatasetRow(
                sequence_id=f"seq{i:03d}", class_label="B", preset="medium",
                crf=23.0, frames=100, avg_qp=25.0,
                t_enc=t_own, t_enc_uf=t_uf,
                energy=120.0 * t_own + 10.0, reps=1, confident=True,
            )
        )
    ds = Dataset(rows=tuple(rows))
    own = cross_validate(ds, "time_linear", k=5, seed=0)
    uf = cross_validate(ds, "uf_linear", k=5, seed=0)
    assert own.per_preset_error["medium"] == pytest.approx(0.0, abs=1e-9)
    assert uf.per_preset_error["medium"] > 0.01


def test_qp_cross_validation_averages_class_means():
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=10, seed=3))
    report = cross_validate(ds, "qp_cubic", k=4, seed=3)
    for preset, class_means in (report.per_class_error or {}).items():
        assert report.per_preset_error[preset] == pytest.approx(
            float(np.mean(list(class_means.values()))), rel=1e-12
        )


def test_qp_cross_validation_rejects_missing_avg_qp():
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=10, seed=3))
    rows = list(ds.rows)
    rows[5] = DatasetRow(
        sequence_id=rows[5].sequence_id, class_label=rows[5].class_label,
        preset=rows[5].preset, crf=rows[5].crf, frames=rows[5].frames,
        avg_qp=None, t_enc=rows[5].t_enc, t_enc_uf=rows[5].t_enc_uf,
        energy=rows[5].energy, reps=rows[5].reps, confident=rows[5].confident,
    )
    with pytest.raises(DatasetError, match="avg_qp"):
        cross_validate(Dataset(rows=tuple(rows)), "qp_cubic", k=4, seed=3)
    with pytest.raises(DatasetError, match="avg_qp"):
        fit_report(Dataset(rows=tuple(rows)), "qp_cubic")


def test_probe_model_on_ultrafast_only_dataset_has_no_presets():
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=6, seed=1))
    probe_only = Dataset(rows=tuple(r for r in ds.rows if r.preset == "ultrafast"))
    with pytest.raises(ValueError, match="no presets to evaluate"):
        cross_validate(probe_only, "uf_linear", k=4, seed=1)
    with pytest.raises(ValueError, match="no presets to evaluate"):
        fit_report(probe_only, "uf_linear")


def test_joint_folds_share_bitstream_partition_across_presets():
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=10, seed=6))
    report = cross_validate(ds, "uf_linear", k=5, seed=6, joint_folds=True)
    assert len(report.per_fold_errors) == 5
    assert set(report.per_preset_error) == set(ds.presets()) - {"ultrafast"}
    # joint and per-preset partitions generally disagree
    solo = cross_validate(ds, "uf_linear", k=5, seed=6, joint_folds=False)
    assert report.per_fold_errors != solo.per_fold_errors


# ── reports ───────────────────────────────────────────────────────────────

def test_fit_report_in_sample_and_json_round_trip():
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=6, seed=1))
    report = fit_report(ds, "uf_linear", seed=7, tool_version="encwatt test")
    assert report.validation == "in_sample"
    assert set(report.per_preset_error) == set(ds.presets()) - {"ultrafast"}
    text = report.to_json()
    again = FitReport.from_json(text)
    assert again.per_preset_error == report.per_preset_error
    assert again.linear_params == report.linear_params
    assert again.seed == 7


def test_reports_are_deterministic():
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=8, seed=2))
    a = cross_validate(ds, "uf_linear", k=5, seed=11, tool_version="v")
    b = cross_validate(ds, "uf_linear", k=5, seed=11, tool_version="v")
    assert a.to_json() == b.to_json()


def test_cross_validated_errors_on_bundled_dataset_in_band():
    ds = generate_dataset(SynthDatasetRecipe(seed=0))
    report = cross_validate(ds, "uf_linear", k=10, seed=0)
    assert 0.03 <= report.overall_error <= 0.09


def test_uf_model_has_no_ultrafast_entry():
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=6, seed=1))
    report = cross_validate(ds, "uf_linear", k=4, seed=1)
    assert "ultrafast" not in report.per_preset_error
    assert "ultrafast" not in (report.linear_params or {})
    assert len(report.per_preset_error) == 8
    own = cross_validate(ds, "time_linear", k=4, seed=1)
    assert "ultrafast" in own.per_preset_error


@pytest.mark.parametrize("model_kind", ["qp_cubic", "time_linear"])
def test_fit_report_fits_each_cell_once(monkeypatch, model_kind):
    import encwatt.fitting as fitting

    ds = generate_dataset(SynthDatasetRecipe(n_sequences=10, seed=3))
    calls = []
    solve = fitting._solve_relative_ls

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fitting, "_solve_relative_ls", counted)
    report = fit_report(ds, model_kind)
    if model_kind == "qp_cubic":
        cells = sum(len(classes) for classes in report.qp_params.values())
    else:
        cells = len(report.linear_params)
    assert cells == len(report.per_preset_error) * (5 if model_kind == "qp_cubic" else 1)
    assert len(calls) == cells
