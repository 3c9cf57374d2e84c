"""Least-squares fitting, error metrics, and cross-validation."""

import itertools

import numpy as np
import pytest
from scipy.optimize import minimize

from encwatt.dataset import Dataset, DatasetRow
from encwatt.errors import DatasetError, FitError
from encwatt.fitting import (
    MODEL_KINDS,
    FitReport,
    cross_validate,
    fit_report,
    kfold_split,
    mean_abs_relative_error,
    relative_error,
)
from encwatt.models import (
    OBJECTIVES,
    affine_energy_law,
    predict_energy_linear,
    qp_time_law,
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
    report = fit_report(dataset_from_arrays(ts, energies), "time_linear")
    assert report.linear_params["medium"].p == pytest.approx(300.0, rel=1e-9)
    assert report.linear_params["medium"].e0 == pytest.approx(5.0, rel=1e-9)
    assert report.per_preset_error["medium"] == pytest.approx(0.0, abs=1e-12)


def test_linear_fit_identical_covariates_is_singular():
    ds = dataset_from_arrays([2.0, 2.0], [100.0, 105.0])
    with pytest.raises(FitError, match=r"all own_time values equal \(2\.0\)"):
        fit_report(ds, "time_linear")


def test_linear_fit_requires_three_rows():
    ds = dataset_from_arrays([1.0, 2.0], [100.0, 200.0])
    with pytest.raises(FitError, match="2 rows; need at least 3"):
        fit_report(ds, "time_linear")


def test_linear_fit_rejects_nonpositive_slope():
    ts = np.linspace(1.0, 6.0, 8)
    energies = 1000.0 - 50.0 * ts
    with pytest.raises(FitError, match="W is not positive"):
        fit_report(dataset_from_arrays(ts, energies), "time_linear")


def test_linear_fit_recovers_slope_under_multiplicative_noise():
    rng = np.random.default_rng(42)
    n = 100
    ts = rng.uniform(0.5, 5.0, n)
    energies = (160.36 * ts - 9.73) * (1.0 + rng.normal(0.0, 0.05, n))
    report = fit_report(dataset_from_arrays(ts, energies), "time_linear")
    assert report.linear_params["medium"].p == pytest.approx(160.36, rel=0.03)


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
        params = fit_report(ds, "time_linear").linear_params["medium"]

        def objective(c):
            return float(np.sum(((c[0] * ts + c[1] - energies) / energies) ** 2))

        wls_value = objective([params.p, params.e0])
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
    base = fit_report(dataset_from_arrays(ts, energies), "time_linear")
    for k in (0.5, 3.0, 1000.0):
        scaled = fit_report(dataset_from_arrays(k * ts, k * energies), "time_linear")
        assert scaled.linear_params["medium"].p == pytest.approx(
            base.linear_params["medium"].p, rel=1e-9)
        assert scaled.linear_params["medium"].e0 == pytest.approx(
            k * base.linear_params["medium"].e0, rel=1e-9)
        assert scaled.per_preset_error["medium"] == pytest.approx(
            base.per_preset_error["medium"], rel=1e-9)


def test_abs_rel_objective_improves_l1_error():
    rng = np.random.default_rng(21)
    ts = rng.uniform(0.5, 5.0, 40)
    energies = (150.0 * ts + 5.0) * (1.0 + rng.normal(0.0, 0.05, 40))
    energies[::7] *= 1.6  # outliers
    ds = dataset_from_arrays(ts, energies)
    l2 = fit_report(ds, "time_linear", objective="squared_rel")
    l1 = fit_report(ds, "time_linear", objective="abs_rel")
    assert l1.per_preset_error["medium"] <= l2.per_preset_error["medium"] + 1e-12
    qp_ds = noisy_qp_dataset(np.random.default_rng(21), 40)
    qp_l2 = fit_report(qp_ds, "qp_cubic", objective="squared_rel")
    qp_l1 = fit_report(qp_ds, "qp_cubic", objective="abs_rel")
    assert qp_l1.per_class_error["medium"]["B"] <= qp_l2.per_class_error["medium"]["B"] + 1e-12


def noisy_qp_dataset(rng, n, ties=False):
    """A (medium, B) QP cell: 5 % noise, every 5th row an outlier, and with
    ``ties`` three rows repeating row 0 and QPs on a 0.5 grid."""
    qps = rng.uniform(18.0, 38.0, n)
    if ties:
        qps = np.round(qps * 2.0) / 2.0
    energies = qp_energy(qps, kappa=0.02, lam=0.1, mu=0.5, t0=500.0)
    energies *= 1.0 + rng.normal(0.0, 0.05, n)
    energies[::5] *= 1.6
    if ties:
        qps[1:4], energies[1:4] = qps[0], energies[0]
    return dataset_from_arrays(rng.uniform(1, 5, n), energies, qps=list(qps))


def noisy_linear_dataset(rng, n, ties=False):
    ts = rng.uniform(0.5, 5.0, n)
    energies = (150.0 * ts + 5.0) * (1.0 + rng.normal(0.0, 0.05, n))
    energies[::5] *= 1.6
    if ties:
        ts[1:4], energies[1:4] = ts[0], energies[0]
    return dataset_from_arrays(ts, energies)


def l1_vertex_minimum(design, energies):
    """Brute force: the smallest mean |relative residual| over every fit that
    passes exactly through k linearly independent rows."""
    k = design.shape[1]
    best = np.inf
    for rows in itertools.combinations(range(len(energies)), k):
        sub = design[list(rows)] / energies[list(rows), None]
        if np.linalg.matrix_rank(sub) < k:
            continue
        coef = np.linalg.solve(sub, np.ones(k))
        best = min(best, float(np.mean(np.abs((design @ coef - energies) / energies))))
    return best


@pytest.mark.parametrize("ties", [False, True])
def test_abs_rel_fit_equals_brute_force_vertex_minimum(ties):
    rng = np.random.default_rng(7)
    for _ in range(4):
        ds = noisy_linear_dataset(rng, 12, ties)
        ts = np.array([r.t_enc for r in ds.rows])
        energies = np.array([r.energy for r in ds.rows])
        fit = fit_report(ds, "time_linear", objective="abs_rel")
        oracle = l1_vertex_minimum(np.column_stack([ts, np.ones_like(ts)]), energies)
        assert fit.per_preset_error["medium"] == pytest.approx(oracle, rel=1e-12)

        ds = noisy_qp_dataset(rng, 12, ties)
        qps = np.array([r.avg_qp for r in ds.rows])
        energies = np.array([r.energy for r in ds.rows])
        fit = fit_report(ds, "qp_cubic", objective="abs_rel")
        design = np.column_stack([qps**3, -(qps**2), -qps, np.ones_like(qps)])
        assert fit.per_class_error["medium"]["B"] == pytest.approx(
            l1_vertex_minimum(design, energies), rel=1e-12)


def test_abs_rel_fit_of_noiseless_cell_needs_no_pivot(monkeypatch):
    import encwatt.fitting as fitting

    monkeypatch.setattr(fitting, "_PIVOTS_PER_ROW", 0)  # any pivot would raise
    qps = np.linspace(18.0, 38.0, 20)
    energies = qp_energy(qps, kappa=0.02, lam=0.1, mu=0.5, t0=500.0)
    ds = dataset_from_arrays(np.linspace(1, 5, 20), energies, qps=list(qps))
    fit = fit_report(ds, "qp_cubic", objective="abs_rel")
    assert fit.per_class_error["medium"]["B"] == pytest.approx(0.0, abs=1e-12)
    ts = np.linspace(0.5, 5.0, 20)
    fit = fit_report(dataset_from_arrays(ts, 150.0 * ts + 5.0), "time_linear",
                     objective="abs_rel")
    assert fit.per_preset_error["medium"] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("repeated", [False, True], ids=["independent", "repeated"])
def test_l1_first_basis_takes_one_rank_check_unless_its_rows_are_dependent(monkeypatch,
                                                                           repeated):
    import encwatt.fitting as fitting

    rng = np.random.default_rng(5)
    scaled = rng.uniform(0.5, 2.0, (12, 4))
    start = np.linalg.lstsq(scaled, np.ones(12), rcond=None)[0]
    if repeated:  # three copies of a row on the start: the first vertex cannot hold them all
        scaled[:3] = start / (start @ start)
    calls = []
    matrix_rank = np.linalg.matrix_rank

    def rank(a, *args, **kwargs):
        calls.append(np.shape(a))
        return matrix_rank(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", rank)
    (coef,) = fitting._solve_l1([scaled], [np.ones((1, 12), dtype=bool)], start[None])
    monkeypatch.undo()
    # one check of the k smallest-residual rows, for the whole stack; the
    # row-by-row search only when they are dependent
    assert calls[0] == (1, 4, 4)
    assert (len(calls) > 1) == repeated
    assert np.mean(np.abs(scaled @ coef - 1.0)) == pytest.approx(
        l1_vertex_minimum(scaled, np.ones(12)), rel=1e-12)


def test_abs_rel_pivots_never_raise_the_objective(monkeypatch):
    ds = noisy_qp_dataset(np.random.default_rng(5), 60)
    qps = np.array([r.avg_qp for r in ds.rows])
    energies = np.array([r.energy for r in ds.rows])
    design = np.column_stack([qps**3, -(qps**2), -qps, np.ones_like(qps)])
    vertices = []
    solve = np.linalg.solve

    def spy(a, b):
        x = solve(a, b)
        if np.array_equal(b, np.ones(4)):  # a vertex: the fit through the basis rows
            (coef,) = x  # a cell's fit is a stack of one problem
            vertices.append(float(np.mean(np.abs((design @ coef - energies) / energies))))
        return x

    monkeypatch.setattr(np.linalg, "solve", spy)
    fit = fit_report(ds, "qp_cubic", objective="abs_rel")
    assert len(vertices) >= 3
    for before, after in zip(vertices, vertices[1:]):
        assert after <= before * (1.0 + 1e-12)
    assert fit.per_class_error["medium"]["B"] == pytest.approx(vertices[-1], rel=1e-12)


@pytest.mark.parametrize("model_kind", ["qp_cubic", "time_linear"])
def test_abs_rel_fit_makes_one_lstsq_call(monkeypatch, model_kind):
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=25, seed=0))
    # one cell of either model: medium's class A rows
    cell = Dataset(rows=tuple(r for r in ds.rows if r.preset == "medium" and r.class_label == "A"))
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    fit_report(cell, model_kind, objective="abs_rel")
    assert len(calls) == 1


def test_abs_rel_fit_at_pivot_cap_raises_naming_the_cell(monkeypatch, tmp_path, capsys):
    import encwatt.fitting as fitting
    from encwatt import cli

    ds = generate_dataset(SynthDatasetRecipe(n_sequences=25, seed=0))
    monkeypatch.setattr(fitting, "_PIVOTS_PER_ROW", 0)
    with pytest.raises(FitError, match=r"preset 'ultrafast', class 'A'.*not certified"):
        fit_report(ds, "qp_cubic", objective="abs_rel")
    with pytest.raises(FitError, match=r"preset 'ultrafast': .*not certified"):
        cross_validate(ds, "time_linear", objective="abs_rel")
    data = tmp_path / "d.csv"
    ds.write_csv(data)
    assert cli.main(["crossval", str(data), "--model", "qp_cubic", "--objective", "abs_rel"]) == 2
    assert "not certified" in capsys.readouterr().err


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
    params = fit_report(ds, "qp_cubic").qp_params["medium"]["B"]
    assert params.kappa == pytest.approx(truth["kappa"], rel=1e-6)
    assert params.lam == pytest.approx(truth["lam"], rel=1e-6)
    assert params.mu == pytest.approx(truth["mu"], rel=1e-6)
    assert params.t0 == pytest.approx(truth["t0"], rel=1e-6)
    assert params.p_avg == 1.0
    assert params.valid_qp_range == (18.0, 38.0)


def test_qp_fit_underdetermined_on_constant_qp():
    ds = dataset_from_arrays(np.linspace(1, 5, 8), np.linspace(100, 500, 8),
                             qps=[25.0] * 8)
    with pytest.raises(FitError, match="design matrix has rank 1 < 4"):
        fit_report(ds, "qp_cubic")


def test_qp_fit_needs_five_rows():
    ds = dataset_from_arrays([1, 2, 3, 4], [100, 200, 300, 400],
                             qps=[20.0, 25.0, 30.0, 35.0])
    with pytest.raises(FitError, match="4 rows; need at least 5"):
        fit_report(ds, "qp_cubic")


def test_qp_fit_requires_avg_qp_values():
    rows = rows_from_arrays(np.linspace(1, 5, 6), np.linspace(100, 500, 6),
                            qps=[20.0, 22.0, None, 26.0, 28.0, 30.0])
    with pytest.raises(DatasetError, match="avg_qp"):
        fit_report(Dataset(rows=tuple(rows)), "qp_cubic")


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


def test_kfold_draw_is_pinned():
    # a Fisher–Yates shuffle on random.Random(0).random(), cut 4, 3, 3
    assert kfold_split(10, 3, seed=0) == ((9, 4, 0, 5), (2, 7, 1), (3, 6, 8))


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
        params = fit_report(sub, "time_linear").linear_params["medium"]
        pred = params.e0 + params.p * rows[i].t_enc
        errors.append(abs(relative_error(pred, rows[i].energy)))
    assert report.per_preset_error["medium"] == pytest.approx(float(np.mean(errors)), rel=1e-12)


def cells_of(ds, model_kind):
    """``(preset, class, rows)`` of each cell of ``model_kind``, rows in dataset order."""
    for preset in ds.presets():
        if model_kind == "uf_linear" and preset == "ultrafast":
            continue
        in_preset = [r for r in ds.rows if r.preset == preset]
        labels = sorted({r.class_label for r in in_preset}) if model_kind == "qp_cubic" else [""]
        for label in labels:
            yield preset, label, [r for r in in_preset if label in ("", r.class_label)]


def folds_of(ds, model_kind, k, seed, joint_folds):
    """``(preset, class, rows, folds)`` of each cell of a crossval, rows sorted by key."""
    keys = sorted({(r.sequence_id, r.crf) for r in ds.rows})
    key_fold = {keys[i]: f for f, fold in enumerate(kfold_split(len(keys), k, seed)) for i in fold}
    for preset, label, rows in cells_of(ds, model_kind):
        rows = sorted(rows, key=lambda r: r.key())
        if joint_folds:
            folds = [[i for i, r in enumerate(rows) if key_fold[(r.sequence_id, r.crf)] == f]
                     for f in range(k)]
        else:
            folds = kfold_split(len(rows), k, seed)
        yield preset, label, rows, folds


def cell_params(report, preset, label):
    """The parameters ``report`` holds for one cell."""
    if report.qp_params is not None:
        return report.qp_params[preset][label]
    return report.linear_params[preset]


def cell_error_table(report):
    """``{(preset, class): error}`` of ``report``, class ``""`` for a linear model."""
    if report.per_class_error is not None:
        return {(p, c): e for p, classes in report.per_class_error.items()
                for c, e in classes.items()}
    return {(p, ""): e for p, e in report.per_preset_error.items()}


def per_row_crossval(ds, model_kind, k, seed, joint_folds):
    """Cell and fold errors of a k-fold crossval, one row at a time.

    Each fold is fitted through the public API; a QP cell's prediction is
    its cubic in Horner form, times ``p_avg``.
    """
    cell_errors, fold_errors = {}, [[] for _ in range(k)]
    for preset, label, rows, folds in folds_of(ds, model_kind, k, seed, joint_folds):
        held_out = []
        for f, fold in enumerate(folds):
            if not fold:
                continue
            train = Dataset(rows=tuple(r for i, r in enumerate(rows) if i not in fold))
            params = cell_params(fit_report(train, model_kind), preset, label)
            for i in fold:
                row = rows[i]
                if model_kind == "qp_cubic":
                    qp = row.avg_qp
                    pred = (((params.kappa * qp - params.lam) * qp - params.mu) * qp
                            + params.t0) * params.p_avg
                else:
                    t = row.t_enc if model_kind == "time_linear" else row.t_enc_uf
                    pred = predict_energy_linear(params, t)
                held_out.append(relative_error(pred, row.energy))
                fold_errors[f].append(held_out[-1])
        cell_errors[(preset, label)] = mean_abs_relative_error(held_out)
    return cell_errors, [mean_abs_relative_error(errs) for errs in fold_errors]


@pytest.mark.parametrize("joint_folds", [False, True])
@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_cross_validation_equals_a_per_row_reference(model_kind, joint_folds):
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=15, seed=4))
    shuffled = Dataset(rows=tuple(reversed(ds.rows)))  # folds must not follow the input order
    report = cross_validate(shuffled, model_kind, k=5, seed=3, joint_folds=joint_folds)
    cell_errors, fold_errors = per_row_crossval(ds, model_kind, 5, 3, joint_folds)
    got = cell_error_table(report)
    assert got.keys() == cell_errors.keys()
    for cell, expected in cell_errors.items():
        assert got[cell] == pytest.approx(expected, rel=1e-12), cell
    assert report.per_fold_errors == pytest.approx(fold_errors, rel=1e-12)


_COVARIATE = {"qp_cubic": "avg_qp", "time_linear": "t_enc", "uf_linear": "t_enc_uf"}


def law_errors(params, rows, model_kind):
    """``|law(params, x) - E| / E`` of ``rows`` in their order, by the law ``estimate`` uses."""
    x = np.array([getattr(r, _COVARIATE[model_kind]) for r in rows])
    energy = np.array([r.energy for r in rows])
    law = qp_time_law if model_kind == "qp_cubic" else affine_energy_law
    return np.abs(law(params, x) - energy) / energy


def assert_error_table(report, cell_errors):
    """``report``'s cell, preset and overall errors are exactly those ``cell_errors`` make."""
    assert cell_error_table(report) == cell_errors
    per_preset = {}
    for (preset, _), error in cell_errors.items():
        per_preset.setdefault(preset, []).append(error)
    per_preset = {preset: float(np.mean(errors)) for preset, errors in per_preset.items()}
    assert report.per_preset_error == per_preset
    assert report.overall_error == float(np.mean(list(per_preset.values())))


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_fit_errors_are_what_the_reports_parameters_predict(model_kind, objective):
    ds = generate_dataset(SynthDatasetRecipe(seed=0))
    report = fit_report(ds, model_kind, objective=objective)
    assert_error_table(report, {
        (preset, label): float(np.mean(law_errors(cell_params(report, preset, label), rows,
                                                  model_kind)))
        for preset, label, rows in cells_of(ds, model_kind)})


@pytest.mark.parametrize("joint_folds", [False, True])
@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_crossval_errors_are_what_each_folds_parameters_predict(monkeypatch, model_kind,
                                                                objective, joint_folds):
    import encwatt.fitting as fitting

    ds = generate_dataset(SynthDatasetRecipe(seed=0))
    k, seed = 5, 0
    fitted = {}  # each fold fit's parameters, by the cell and fold its errors name
    cell_fits = []  # per cell, in cell order: its fit on all its rows
    fold_fits = []  # per cell, in cell order: its training masks and their fits
    fit = fitting._fit

    def recorded(cells, *args):
        fits = fit(cells, *args)
        if all(start is None for *_, start in cells):  # each cell on all its rows
            cell_fits.extend(cell_fit for (cell_fit,) in fits)
        else:
            fold_fits.extend((masks, [params for params, _ in trained])
                             for (_, _, masks, _), trained in zip(cells, fits))
        return fits

    monkeypatch.setattr(fitting, "_fit", recorded)
    report = cross_validate(ds, model_kind, k=k, seed=seed, objective=objective,
                            joint_folds=joint_folds)
    cell_errors, fold_errors = {}, [[] for _ in range(k)]
    cells = list(folds_of(ds, model_kind, k, seed, joint_folds))
    assert len(cell_fits) == len(fold_fits) == len(cells)
    for (preset, label, rows, folds), (params, _), (masks, trained) in zip(cells, cell_fits,
                                                                            fold_fits):
        name = f"preset {preset!r}" + (f", class {label!r}" if label else "")
        assert cell_params(report, preset, label) == params
        # one training mask per fold that holds rows: every row but the fold's
        kept = [f for f, fold in enumerate(folds) if len(fold)]
        assert [sorted(np.flatnonzero(~mask)) for mask in masks] == [
            sorted(folds[f]) for f in kept]
        fitted.update((f"{name}, fold {f}", params) for f, params in zip(kept, trained))
        held_out = []
        for f, fold in enumerate(folds):
            if len(fold) == 0:
                continue
            errors = law_errors(fitted[f"{name}, fold {f}"], [rows[i] for i in fold], model_kind)
            held_out.append(errors)
            fold_errors[f].append(errors)
        cell_errors[(preset, label)] = float(np.mean(np.concatenate(held_out)))
    assert_error_table(report, cell_errors)
    assert report.per_fold_errors == tuple(float(np.mean(np.concatenate(errors)))
                                           for errors in fold_errors)


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
    with pytest.raises(FitError, match="fold"):
        cross_validate(ds, "time_linear", k=10, seed=0)


@pytest.mark.parametrize("objective", ["abs_rel", "squared_rel"])
def test_rank_deficient_training_fold_of_a_full_rank_cell_is_named(objective):
    # four QP values over the cell, so its own fit succeeds; the fold
    # holding the one row at 35 out trains on three
    qps = np.array([20.0] * 3 + [25.0] * 3 + [30.0] * 3 + [35.0])
    energies = qp_energy(qps, kappa=0.02, lam=0.1, mu=0.5, t0=500.0) * np.linspace(0.98, 1.02, 10)
    ds = dataset_from_arrays(np.linspace(1, 5, 10), energies, qps=list(qps))
    fit_report(ds, "qp_cubic", objective=objective)
    with pytest.raises(FitError) as info:
        cross_validate(ds, "qp_cubic", k=10, seed=0, objective=objective)
    assert str(info.value) == "preset 'medium', class 'B', fold 0: design matrix has rank 3 < 4"


@pytest.mark.parametrize("model_kind, n, message", [
    ("time_linear", 4, "preset 'medium', fold 0: 2 rows; need at least 3 to fit the affine model"),
    ("qp_cubic", 6, "preset 'medium', class 'B', fold 0: 3 rows; need at least 5"),
])
def test_failed_fold_names_its_cell_once(model_kind, n, message):
    # two folds: each trains on half the cell, one row too few
    ds = dataset_from_arrays(np.linspace(1, 5, n), np.linspace(100, 500, n),
                             qps=list(np.linspace(20.0, 35.0, n)))
    with pytest.raises(FitError) as info:
        cross_validate(ds, model_kind, k=2, seed=0)
    assert str(info.value) == message


_CAPPED = "abs_rel vertex exchange not certified optimal after 0 pivots"
_RANK = "design matrix has rank 3 < 4"
# Cells with two bad folds under abs_rel when no pivot is allowed: a fold
# whose warm start is not its own optimum fails in the solver, and the other
# fails a check, before the solve (one own_time value) or in the stack's
# first-basis search (three QP values).  QP cells keep t_enc out of play.
_TWO_BAD_FOLDS = {
    "linear": ("time_linear", 2, [2.0, 2.0, 2.0, 4.9, 3.7, 3.6],
               [338.0, 297.0, 263.0, 832.0, 580.0, 512.0]),
    "qp_rank_first": ("qp_cubic", 3, [20, 20, 20, 35, 30, 25, 30, 20, 30, 25, 25, 30, 30, 20, 35],
                      [476, 594, 648, 1219, 1039, 897, 1280, 548, 1079, 876, 667, 655, 1292,
                       554, 1120]),
    "qp_cap_first": ("qp_cubic", 3, [30, 25, 35, 30, 35, 20, 20, 35, 25, 30, 20, 30],
                     [1093, 862, 1298, 1018, 1021, 638, 481, 1262, 793, 1161, 595, 667]),
}


@pytest.mark.parametrize("cell, seed, failures", [
    ("linear", 5, {0: _CAPPED, 1: "all own_time values equal (2.0)"}),
    ("linear", 7, {0: "all own_time values equal (2.0)", 1: _CAPPED}),
    ("qp_rank_first", 4, {1: _RANK, 2: _CAPPED}),
    ("qp_cap_first", 10, {0: _CAPPED, 1: _RANK}),
])
def test_first_failing_fold_in_fold_order_is_named(monkeypatch, cell, seed, failures):
    import encwatt.fitting as fitting

    model_kind, k, x, energies = _TWO_BAD_FOLDS[cell]
    if model_kind == "qp_cubic":
        ds = dataset_from_arrays(np.linspace(1, 5, len(x)), energies, qps=[float(q) for q in x])
        name = "preset 'medium', class 'B'"
    else:
        ds = dataset_from_arrays(x, energies)
        name = "preset 'medium'"
    monkeypatch.setattr(fitting, "_PIVOTS_PER_ROW", 0)
    outcomes = []  # of the fold fits
    fit = fitting._fit

    def recorded(cells, *args):
        trained = fit(cells, *args)
        if any(start is not None for *_, start in cells):
            outcomes.extend(outcome for cell in trained for outcome in cell)
        return trained

    monkeypatch.setattr(fitting, "_fit", recorded)
    with pytest.raises(FitError) as info:
        cross_validate(ds, model_kind, k=k, seed=seed, objective="abs_rel")
    first = min(failures)
    assert str(info.value) == f"{name}, fold {first}: {failures[first]}"
    # every fold was fitted before the first failure was raised, and both
    # bad folds failed, each with its own message
    assert len(outcomes) == k
    assert {f: str(o) for f, o in enumerate(outcomes) if isinstance(o, FitError)} == failures


@pytest.mark.parametrize("model_kind", ["time_linear", "qp_cubic"])
def test_stacked_folds_reach_each_folds_vertex_minimum_and_its_cold_fit(model_kind):
    import encwatt.fitting as fitting

    rng = np.random.default_rng(17)
    make = noisy_linear_dataset if model_kind == "time_linear" else noisy_qp_dataset
    for fold_seed in range(3):
        ds = make(rng, 12, ties=True)  # rows 1-3 repeat row 0, so their breakpoints tie
        x = np.array([r.t_enc if model_kind == "time_linear" else r.avg_qp for r in ds.rows])
        energy = np.array([r.energy for r in ds.rows])
        design = fitting._design(model_kind, x)
        (((_, start),),) = fitting._fit([(x, energy, np.ones((1, 12), dtype=bool), None)],
                                        model_kind, "abs_rel")
        masks = np.ones((4, 12), dtype=bool)
        for mask, fold in zip(masks, kfold_split(12, 4, fold_seed)):
            mask[list(fold)] = False
        stacked = fitting._solve_l1([design / energy[:, None]], [masks], start[None])
        for mask, coef in zip(masks, stacked):
            train, energies = design[mask], energy[mask]
            assert np.mean(np.abs(train @ coef - energies) / energies) == pytest.approx(
                l1_vertex_minimum(train, energies), rel=1e-12)
            # the same fold alone, as a cell: started cold from its own least squares
            (((_, cold),),) = fitting._fit(
                [(x[mask], energies, np.ones((1, len(energies)), dtype=bool), None)],
                model_kind, "abs_rel")
            assert np.array_equal(coef, cold)


@pytest.mark.parametrize("cell, objective, pivots, message", [
    # falling energy: every fit of the cell has a negative slope
    ("falling", "squared_rel", 10, r"^preset 'medium': fitted slope -\S+ W is not positive$"),
    # no pivots allowed: no abs_rel fit can be certified
    ("synth", "abs_rel", 0, r"^preset 'ultrafast': .*not certified optimal after 0 pivots$"),
])
def test_a_cell_that_cannot_be_fitted_fails_before_its_folds(monkeypatch, cell, objective,
                                                             pivots, message):
    import encwatt.fitting as fitting

    if cell == "falling":
        ds = dataset_from_arrays(np.linspace(1, 5, 10), np.linspace(500, 100, 10))
    else:
        ds = generate_dataset(SynthDatasetRecipe(n_sequences=25, seed=0))
    monkeypatch.setattr(fitting, "_PIVOTS_PER_ROW", pivots)
    fold_cells = []  # the cells whose folds were fitted, each from its start
    fit = fitting._fit

    def recorded(cells, *args):
        fold_cells.extend(cell for cell in cells if cell[3] is not None)
        return fit(cells, *args)

    monkeypatch.setattr(fitting, "_fit", recorded)
    with pytest.raises(FitError, match=message):
        cross_validate(ds, "time_linear", k=2, seed=0, objective=objective)
    # the failing cell is the first, so no fold of any cell was fitted
    assert fold_cells == []


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_an_earlier_cells_failing_fold_is_named_before_a_later_cell_that_cannot_be_fitted(
        monkeypatch, objective):
    import encwatt.fitting as fitting

    # 'fast' comes before 'medium'.  The fold of 'fast' that holds its one
    # row at 3.0 trains on one own_time value; 'medium' has falling energy,
    # so even its fit on all its rows has a negative slope.
    rows = (rows_from_arrays([2.0] * 9 + [3.0], list(np.linspace(100, 190, 9)) + [300.0],
                             preset="fast")
            + rows_from_arrays(np.linspace(1, 5, 10), np.linspace(500, 100, 10)))
    fold_cells = []  # the cells whose folds were fitted, each from its start
    fit = fitting._fit

    def recorded(cells, *args):
        fold_cells.extend(cell for cell in cells if cell[3] is not None)
        return fit(cells, *args)

    monkeypatch.setattr(fitting, "_fit", recorded)
    with pytest.raises(FitError) as info:
        cross_validate(Dataset(rows=tuple(rows)), "time_linear", k=10, seed=0,
                       objective=objective)
    assert str(info.value) == "preset 'fast', fold 0: all own_time values equal (2.0)"
    # only the cell before the failing one had its folds fitted
    assert [len(x) for x, *_ in fold_cells] == [10]


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_fit_report_solves_every_abs_rel_cell_in_one_stack(monkeypatch, model_kind):
    import encwatt.fitting as fitting

    ds = generate_dataset(SynthDatasetRecipe(n_sequences=10, seed=3))
    calls, stacks = [], []  # the cells of each _solve_l1 call, and of each stack
    solve_l1, solve_stack = fitting._solve_l1, fitting._solve_stack

    def counted_calls(scaled, *args):
        calls.append(len(scaled))
        return solve_l1(scaled, *args)

    def counted_stacks(scaled, *args):
        stacks.append(len(scaled))
        return solve_stack(scaled, *args)

    monkeypatch.setattr(fitting, "_solve_l1", counted_calls)
    monkeypatch.setattr(fitting, "_solve_stack", counted_stacks)
    report = fit_report(ds, model_kind, objective="abs_rel")
    cells = (sum(len(classes) for classes in report.qp_params.values())
             if model_kind == "qp_cubic" else len(report.linear_params))
    # the cells, padded to the longest, fill no more slots than one stack holds
    rows = [len(rows) for *_, rows in cells_of(ds, model_kind)]
    assert len(rows) * max(rows) <= fitting._STACK_SLOTS
    assert calls == stacks == [cells]


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_stacks_hold_at_most_their_slots_and_report_what_one_problem_stacks_do(monkeypatch,
                                                                               model_kind):
    import encwatt.fitting as fitting

    ds = generate_dataset(SynthDatasetRecipe(n_sequences=10, seed=3))

    def report():
        return cross_validate(ds, model_kind, k=5, seed=0, objective="abs_rel").to_json()

    stacks = []  # per stack: (problems, rows of its longest cell)
    solve = fitting._solve_stack

    def recorded(scaled, masks, starts):
        stacks.append((sum(len(cell_masks) for cell_masks in masks),
                       max(len(rows) for rows in scaled)))
        return solve(scaled, masks, starts)

    monkeypatch.setattr(fitting, "_solve_stack", recorded)
    monkeypatch.setattr(fitting, "_STACK_SLOTS", 200)
    small = report()
    # every stack fits its slots, or is one problem that alone does not;
    # each cell's own fit and its five folds are solved
    assert len(stacks) > 2
    assert all(problems * rows <= 200 or problems == 1 for problems, rows in stacks)
    assert sum(problems for problems, _ in stacks) == 6 * len(list(cells_of(ds, model_kind)))
    monkeypatch.setattr(fitting, "_STACK_SLOTS", 1)  # every problem its own stack
    assert report() == small
    monkeypatch.undo()
    assert report() == small


def _random_cell(rng, k):
    """Scaled rows of a random cell of 8-40 rows, some repeated, and its training masks."""
    n = int(rng.integers(8, 41))
    # few distinct covariates in some cells, so that a fold can lose rank
    values = rng.uniform(0.5, 5.0, k if rng.random() < 0.3 else n)
    x = rng.choice(values, n)
    design = (np.column_stack([x, np.ones(n)]) if k == 2
              else np.column_stack([x**3, -(x**2), -x, np.ones(n)]))
    energy = design @ (np.array([120.0, 10.0]) if k == 2 else np.array([2.0, 5.0, -4.0, 40.0]))
    energy *= 1.0 + rng.normal(0.0, 0.05, n)
    repeats = rng.integers(0, n, n // 4)
    design[repeats[1:]], energy[repeats[1:]] = design[repeats[0]], energy[repeats[0]]
    masks = np.ones((3, n), dtype=bool)
    for mask, fold in zip(masks, kfold_split(n, 3, int(rng.integers(100)))):
        mask[list(fold)] = False
    return design / energy[:, None], masks


@pytest.mark.parametrize("pivots", [0, 1, 10])
def test_a_cross_cell_stack_solves_each_cell_as_alone(monkeypatch, pivots):
    import encwatt.fitting as fitting

    monkeypatch.setattr(fitting, "_PIVOTS_PER_ROW", pivots)
    rng = np.random.default_rng(23)
    messages = set()
    for _ in range(25):
        k = int(rng.choice([2, 4]))
        cells = [_random_cell(rng, k) for _ in range(int(rng.integers(2, 6)))]
        starts = np.array([np.linalg.lstsq(scaled, np.ones(len(scaled)), rcond=None)[0]
                           for scaled, _ in cells])
        stacked = fitting._solve_l1([scaled for scaled, _ in cells],
                                    [masks for _, masks in cells], starts)
        alone = [outcome for (scaled, masks), start in zip(cells, starts)
                 for outcome in fitting._solve_l1([scaled], [masks], start[None])]
        assert len(stacked) == len(alone) == 3 * len(cells)
        for got, expected in zip(stacked, alone):
            if isinstance(expected, FitError):
                assert isinstance(got, FitError) and str(got) == str(expected)
                messages.add(str(expected).split()[0])
            else:
                assert np.array_equal(got, expected)
    # rank failures in every run, and with no pivots allowed, capped ones
    assert "design" in messages and ("abs_rel" in messages) == (pivots == 0)


@pytest.mark.parametrize("joint_folds", [False, True])
@pytest.mark.parametrize("model_kind", MODEL_KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_started_folds_report_what_cold_started_folds_do(monkeypatch, seed, model_kind,
                                                              joint_folds):
    import encwatt.fitting as fitting

    ds = generate_dataset(SynthDatasetRecipe(seed=seed))
    k = 5 if joint_folds else 10

    def report():
        return cross_validate(ds, model_kind, k=k, seed=seed, objective="abs_rel",
                              joint_folds=joint_folds).to_json()

    warm = report()
    fit = fitting._fit

    def alone(cells, model_kind, objective):
        # each fit alone, as a cell: a least-squares start and a stack of one
        return [[fit([(x[mask], energy[mask], np.ones((1, mask.sum()), dtype=bool), None)],
                     model_kind, objective)[0][0] for mask in masks]
                for x, energy, masks, _ in cells]

    def unstarted(cells, model_kind, objective):
        # no start: each fold starts from its own least squares, all in one call
        return fit([(x, energy, masks, None) for x, energy, masks, _ in cells], model_kind,
                   objective)

    for cold in (alone, unstarted):
        monkeypatch.setattr(fitting, "_fit", cold)
        assert warm == report()


@pytest.mark.parametrize("model_kind", MODEL_KINDS)
def test_abs_rel_crossval_solves_least_squares_once_per_cell(monkeypatch, model_kind):
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=10, seed=3))
    calls = []
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    report = cross_validate(ds, model_kind, k=5, seed=0, objective="abs_rel")
    cells = (sum(len(errors) for errors in report.per_class_error.values())
             if model_kind == "qp_cubic" else len(report.per_preset_error))
    # only each cell's full-data fit starts from least squares
    assert len(calls) == cells


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
    # three sequences per class: every cell holds 12 rows, each training fold 9
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=15, seed=3))
    report = cross_validate(ds, "qp_cubic", k=4, seed=3)
    for preset, class_means in (report.per_class_error or {}).items():
        assert report.per_preset_error[preset] == pytest.approx(
            float(np.mean(list(class_means.values()))), rel=1e-12
        )


def test_qp_training_fold_predicting_non_positive_energy_is_named():
    # two sequences per class: each cell holds 8 rows, and one 6-row training
    # fold fits a cubic that falls below zero inside its QP range
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=10, seed=3))
    with pytest.raises(FitError) as info:
        cross_validate(ds, "qp_cubic", k=4, seed=3)
    assert str(info.value) == ("preset 'faster', class 'B', fold 2: fitted model predicts "
                               "non-positive energy near qp 31.72")


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

@pytest.mark.parametrize("joint_folds", [False, True])
@pytest.mark.parametrize("objective", ["squared_rel", "abs_rel"])
@pytest.mark.parametrize("model_kind", MODEL_KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_and_crossval_report_the_same_cell_fits(seed, model_kind, objective, joint_folds):
    # `fit` and `crossval` fit the same cells: a crossval report's
    # parameters are the in-sample fit of each cell on all its rows
    ds = generate_dataset(SynthDatasetRecipe(seed=seed))
    fitted = fit_report(ds, model_kind, objective=objective)
    validated = cross_validate(ds, model_kind, k=5, seed=seed, objective=objective,
                               joint_folds=joint_folds)
    assert validated.linear_params == fitted.linear_params
    assert validated.qp_params == fitted.qp_params


def test_fit_report_in_sample_and_json_round_trip():
    ds = generate_dataset(SynthDatasetRecipe(n_sequences=6, seed=1))
    report = fit_report(ds, "uf_linear", tool_version="encwatt test")
    assert report.validation == "in_sample"
    assert set(report.per_preset_error) == set(ds.presets()) - {"ultrafast"}
    text = report.to_json()
    again = FitReport.from_json(text)
    assert again.per_preset_error == report.per_preset_error
    assert again.linear_params == report.linear_params
    assert again.seed == report.seed == 0


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
    solve = fitting._least_squares

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fitting, "_least_squares", counted)
    report = fit_report(ds, model_kind)
    if model_kind == "qp_cubic":
        cells = sum(len(classes) for classes in report.qp_params.values())
    else:
        cells = len(report.linear_params)
    assert cells == len(report.per_preset_error) * (5 if model_kind == "qp_cubic" else 1)
    assert len(calls) == cells
