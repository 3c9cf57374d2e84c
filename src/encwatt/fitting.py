"""Model fitting under a relative-error objective, with k-fold validation.

Both model families are linear in their parameters, so least squares on
relative residuals ``(prediction - E) / E`` is ordinary least squares on
rows scaled by ``1/E`` and is solved in closed form.  An optional L1
variant minimizes the mean absolute relative error instead, solved
exactly by vertex exchange, for sensitivity checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset, DatasetRow
from .errors import (
    DatasetError,
    FitError,
    FitRejectedError,
    SingularFitError,
    UnderdeterminedFitError,
)
from .models import (
    MODEL_KINDS,
    OBJECTIVES,
    PRESETS,
    FitReport,
    LinearParams,
    QpModelParams,
    affine_energy_law,
    qp_time_law,
)

__all__ = [
    "OBJECTIVES",
    "MODEL_KINDS",
    "relative_error",
    "mean_abs_relative_error",
    "FitResult",
    "fit_linear_model",
    "fit_qp_model",
    "kfold_split",
    "cross_validate",
    "fit_report",
    "FitReport",
]

_PIVOTS_PER_ROW = 10  # vertex-exchange cap of an abs_rel fit, per row; reaching it raises
_ZERO_RESIDUAL = 1e-12  # a residual or rate within this share of its terms' size counts as 0
_DUAL_SLACK = 1e-9  # rounding allowance on the optimality certificate max|u| <= 1


def relative_error(estimated: float, measured: float) -> float:
    """Signed relative estimation error ``(estimated - measured) / measured``."""
    if measured <= 0:
        raise ValueError(f"measured energy must be > 0, got {measured}")
    return (estimated - measured) / measured


def mean_abs_relative_error(errors: Sequence[float]) -> float:
    """Arithmetic mean of absolute relative errors."""
    if len(errors) == 0:
        raise ValueError("cannot average an empty error list")
    return float(np.mean(np.abs(np.asarray(errors, dtype=float))))


def _solve_relative_ls(design: np.ndarray, energies: np.ndarray, objective: str) -> np.ndarray:
    """Minimize the relative-residual objective for a parameter-linear model.

    ``design @ c`` predicts energy.  For ``squared_rel`` this is one
    closed-form weighted least-squares solve; ``abs_rel`` starts from it
    and solves the L1 problem exactly by vertex exchange.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    n, k = design.shape
    scaled = design / energies[:, None]
    coef, _, rank, _ = np.linalg.lstsq(scaled, np.ones(n), rcond=None)
    if rank < k:
        raise SingularFitError(f"design matrix has rank {rank} < {k}")
    if objective == "abs_rel":
        coef = _solve_l1(scaled, coef)
    return coef


def _solve_l1(scaled: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Minimize ``sum(|scaled @ c - 1|)`` exactly by vertex exchange.

    An L1 optimum interpolates ``k`` linearly independent rows (Barrodale
    & Roberts, SIAM J. Numer. Anal. 10(5), 1973).  The first vertex goes
    through the ``k`` rows of smallest ``|residual|`` under ``start`` that
    have full rank.  Every row outside the basis ``B`` has a side
    ``s_i``: the sign of its residual, or for a row resting at zero
    residual the side it was last moved to (0 if none).  The dual
    ``u = -B^-T sum_{i not in B} s_i a_i`` certifies the vertex optimal
    when ``max|u| <= 1``.  Otherwise the basis row ``j`` of largest
    ``|u_j|`` is released along ``d = B^-1 sign(u_j) e_j``, on which the
    objective falls, up to the breakpoint where its slope turns
    non-negative (a weighted median of ``-r_i / (a_i . d)``); the rows
    passed change sides and the row breaking there enters the basis.  A
    fit still uncertified after ``_PIVOTS_PER_ROW`` pivots per row raises
    :class:`FitError`.
    """
    n, k = scaled.shape
    residuals = scaled @ start - 1.0
    basis: list[int] = []
    for i in np.argsort(np.abs(residuals), kind="stable").tolist():
        if np.linalg.matrix_rank(scaled[basis + [i]]) > len(basis):
            basis.append(i)
            if len(basis) == k:
                break
    sides = np.zeros(n)
    cap = _PIVOTS_PER_ROW * n
    for pivot in range(cap + 1):
        rows = scaled[basis]
        coef = np.linalg.solve(rows, np.ones(k))
        residuals = scaled @ coef - 1.0
        # a residual within rounding of its terms' scale rests at zero
        off_zero = np.abs(residuals) > _ZERO_RESIDUAL * (np.abs(scaled) @ np.abs(coef) + 1.0)
        off_zero[basis] = False
        residuals[~off_zero] = 0.0
        sides = np.where(off_zero, np.sign(residuals), sides)
        sides[basis] = 0.0
        dual = -np.linalg.solve(rows.T, sides @ scaled)
        j = int(np.argmax(np.abs(dual)))
        if abs(dual[j]) <= 1.0 + _DUAL_SLACK:
            return coef
        if pivot == cap:
            break
        sign = np.sign(dual[j])
        step = np.linalg.solve(rows, sign * np.eye(k)[j])
        rates = scaled @ step  # each residual's change per unit step
        moving = np.abs(rates) > _ZERO_RESIDUAL * (np.abs(scaled) @ np.abs(step))
        moving[basis] = False
        # A row moving against its side (or off zero with no side yet)
        # breaks at ratio -r/rate >= 0, where its slope contribution turns
        # from side*rate to |rate|; the released row adds 1 to the slope.
        breaks = np.flatnonzero(moving & (sides * rates <= 0.0))
        order = breaks[np.argsort(-residuals[breaks] / rates[breaks], kind="stable")]
        jumps = np.abs(rates[order]) - sides[order] * rates[order]
        slopes = np.cumsum(jumps) + 1.0 - abs(dual[j])
        at = int(np.searchsorted(slopes, 0.0))  # first breakpoint where the slope is >= 0
        if at == len(order):
            raise FitError("abs_rel vertex exchange found no breakpoint along a descent step")
        sides[order[:at]] = np.sign(rates[order[:at]])
        sides[basis[j]] = sign
        basis[j] = int(order[at])
    raise FitError(f"abs_rel vertex exchange not certified optimal after {cap} pivots")


@dataclass(frozen=True)
class FitResult:
    """One cell's fitted parameters plus the training-residual summary.

    A cell is the rows one model fits: one (preset, class) for the QP
    model, one preset under class ``""`` for the linear models.
    """

    preset: str
    class_label: str
    params: LinearParams | QpModelParams
    rel_errors: tuple[float, ...]
    mean_abs_rel_error: float
    n_rows: int


def _training_errors(
    params: LinearParams | QpModelParams, x: np.ndarray, energy: np.ndarray
) -> np.ndarray:
    """Relative errors of ``params`` on the covariates ``x`` and energies it was fitted to."""
    if isinstance(params, QpModelParams):
        preds = _qp_design(x) @ np.array([params.kappa, params.lam, params.mu, params.t0])
    else:
        preds = _linear_design(x) @ np.array([params.p, params.e0])
    return (preds - energy) / energy


def _fit_result(
    preset: str, class_label: str, params: LinearParams | QpModelParams, x: np.ndarray,
    energy: np.ndarray,
) -> FitResult:
    errors = _training_errors(params, x, energy)
    mean = mean_abs_relative_error(errors)
    return FitResult(preset, class_label, params, tuple(errors.tolist()), mean, len(errors))


def _linear_design(t: np.ndarray) -> np.ndarray:
    return np.column_stack([t, np.ones_like(t)])


def _fit_linear(
    t: np.ndarray, energy: np.ndarray, preset: str, covariate_kind: str, objective: str
) -> LinearParams:
    if len(t) > 0 and np.all(t == t[0]):
        raise SingularFitError(f"preset {preset!r}: all {covariate_kind} values equal ({t[0]})")
    if len(t) < 3:
        raise UnderdeterminedFitError(
            f"preset {preset!r}: {len(t)} rows; need at least 3 to fit the affine model"
        )
    try:
        slope, offset = _solve_relative_ls(_linear_design(t), energy, objective)
    except FitError as exc:
        raise _tag_fit_error(exc, f"preset {preset!r}") from exc
    if slope <= 0:
        raise FitRejectedError(f"preset {preset!r}: fitted slope {slope:.6g} W is not positive")
    return LinearParams(p=float(slope), e0=float(offset), covariate_kind=covariate_kind)


def fit_linear_model(
    data: Dataset,
    preset: str,
    covariate_kind: str = "ultrafast_time",
    objective: str = "squared_rel",
) -> FitResult:
    """Fit the affine energy model for one preset.

    Minimizes the summed squared relative residuals (least squares with
    ``1/E`` row weights), or the mean absolute relative error when
    ``objective="abs_rel"``.
    """
    model_kind = "time_linear" if covariate_kind == "own_time" else "uf_linear"
    t, energy = _columns(data.rows_for_preset(preset), model_kind)
    return _fit_result(preset, "", _fit_linear(t, energy, preset, covariate_kind, objective),
                       t, energy)


def _qp_design(qp: np.ndarray) -> np.ndarray:
    # Column signs follow the model form  kappa*qp^3 - lam*qp^2 - mu*qp + t0.
    return np.column_stack([qp**3, -(qp**2), -qp, np.ones_like(qp)])


def _require_avg_qp(rows: Sequence[DatasetRow], cell: str) -> None:
    missing = [r.sequence_id for r in rows if r.avg_qp is None]
    if missing:
        raise DatasetError(f"{cell}: rows missing avg_qp: {missing}")


def _fit_qp(
    qp: np.ndarray, energy: np.ndarray, preset: str, class_label: str, objective: str
) -> QpModelParams:
    cell = f"preset {preset!r}, class {class_label!r}"
    if len(qp) < 5:
        raise UnderdeterminedFitError(f"{cell}: {len(qp)} rows; need at least 5")
    design = _qp_design(qp)
    try:
        coef = _solve_relative_ls(design, energy, objective)
    except SingularFitError as exc:
        raise UnderdeterminedFitError(f"{cell}: {exc}") from exc
    except FitError as exc:
        raise _tag_fit_error(exc, cell) from exc
    qp_range = (float(qp.min()), float(qp.max()))
    # fitted in the energy domain: p_avg keeps its default of 1
    kappa, lam, mu, t0 = coef.tolist()
    params = QpModelParams(kappa=kappa, lam=lam, mu=mu, t0=t0, valid_qp_range=qp_range)
    grid = np.arange(qp_range[0], qp_range[1] + 0.25, 0.25)
    grid_pred = _qp_design(grid) @ coef
    if np.any(grid_pred <= 0):
        bad = grid[np.argmin(grid_pred)]
        raise FitRejectedError(
            f"{cell}: fitted model predicts non-positive energy near qp {bad:.2f}"
        )
    return params


def fit_qp_model(
    data: Dataset,
    preset: str,
    class_label: str,
    objective: str = "squared_rel",
) -> FitResult:
    """Fit the cubic-in-QP model for one (preset, class) cell."""
    rows = [r for r in data.rows_for_preset(preset) if r.class_label == class_label]
    _require_avg_qp(rows, f"preset {preset!r}, class {class_label!r}")
    qp, energy = _columns(rows, "qp_cubic")
    return _fit_result(preset, class_label, _fit_qp(qp, energy, preset, class_label, objective),
                       qp, energy)


def kfold_split(n: int, k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Seeded partition of ``range(n)`` into ``k`` folds of near-equal size."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} items into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return tuple(tuple(int(i) for i in fold) for fold in np.array_split(perm, k))


# The row field each model kind reads as its covariate.
_COVARIATE = {"qp_cubic": "avg_qp", "time_linear": "t_enc", "uf_linear": "t_enc_uf"}

_Cells = dict[str, dict[str, list[DatasetRow]]]
_Params = dict[str, dict[str, LinearParams | QpModelParams]]


def _columns(rows: Sequence[DatasetRow], model_kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The covariate and energy arrays of ``rows`` for ``model_kind``, in row order."""
    field = _COVARIATE[model_kind]
    return (np.array([getattr(r, field) for r in rows], dtype=float),
            np.array([r.energy for r in rows], dtype=float))


def _cells(data: Dataset, model_kind: str) -> _Cells:
    """The rows each model of ``model_kind`` fits, as ``{preset: {class: rows}}``.

    A cell is the rows one model fits: for ``qp_cubic`` one cell per
    (preset, class); for ``time_linear`` and ``uf_linear`` one cell per
    preset, under class ``""``.  Presets follow :data:`PRESETS`, classes
    sort, and rows keep the dataset's order.
    """
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {model_kind!r}")
    per_class = model_kind == "qp_cubic"
    grouped: _Cells = {}
    for row in data.rows:
        label = row.class_label if per_class else ""
        grouped.setdefault(row.preset, {}).setdefault(label, []).append(row)
    # The probe-covariate model has no ultrafast entry: estimating the
    # probe preset from its own probe time is the own-time model.
    if model_kind == "uf_linear":
        grouped.pop("ultrafast", None)
    if not grouped:
        raise ValueError(f"no presets to evaluate for model {model_kind!r}")
    cells = {preset: dict(sorted(grouped[preset].items())) for preset in PRESETS
             if preset in grouped}
    if per_class:
        for preset, classes in cells.items():
            for class_label, rows in classes.items():
                _require_avg_qp(rows, f"preset {preset!r}, class {class_label!r}")
    return cells


def _fit_cell(
    x: np.ndarray, energy: np.ndarray, model_kind: str, preset: str, class_label: str,
    objective: str,
) -> LinearParams | QpModelParams:
    """Fit the model of ``model_kind`` to one cell's covariate and energy arrays."""
    if model_kind == "qp_cubic":
        return _fit_qp(x, energy, preset, class_label, objective)
    covariate_kind = "own_time" if model_kind == "time_linear" else "ultrafast_time"
    return _fit_linear(x, energy, preset, covariate_kind, objective)


def _report(
    model_kind: str, params: _Params, cell_errors: dict[str, dict[str, float]], **fields
) -> FitReport:
    """Assemble the report of either command from its fitted parameters and one error per cell.

    A preset's error is the mean of its cells' errors.
    """
    per_preset_error = {
        preset: float(np.mean(list(errors.values()))) for preset, errors in cell_errors.items()
    }
    if model_kind == "qp_cubic":
        fields.update(qp_params=params, per_class_error=cell_errors)
    else:
        fields.update(linear_params={preset: classes[""] for preset, classes in params.items()})
    overall_error = float(np.mean(list(per_preset_error.values())))
    return FitReport(model_kind=model_kind, per_preset_error=per_preset_error,
                     overall_error=overall_error, **fields)


def _tag_fit_error(exc: FitError, context: str) -> FitError:
    tagged = type(exc)(f"{context}: {exc}")
    tagged.__cause__ = exc
    return tagged


def _joint_fold_map(data: Dataset, k: int, seed: int) -> dict[tuple[str, float], int]:
    """One fold index per bitstream key, shared by every preset."""
    keys = sorted({(r.sequence_id, r.crf) for r in data.rows})
    assignment: dict[tuple[str, float], int] = {}
    for fold_index, fold in enumerate(kfold_split(len(keys), k, seed)):
        for i in fold:
            assignment[keys[i]] = fold_index
    return assignment


def cross_validate(
    data: Dataset,
    model_kind: str,
    k: int = 10,
    seed: int = 0,
    objective: str = "squared_rel",
    joint_folds: bool = False,
    tool_version: str = "",
) -> FitReport:
    """K-fold cross-validation of one model family over a dataset.

    Folds partition the bitstreams (sequence, CRF keys) of each cell, so a
    model is never validated on a bitstream it trained on.  With
    ``joint_folds`` the partition is computed once over all bitstream keys
    and shared across cells, so a bitstream is held out in the same fold
    everywhere.  A degenerate training fold aborts the run rather than
    being skipped.  A cell's error averages its held-out errors; a
    preset's error averages its cells' errors.
    """
    cells = _cells(data, model_kind)
    params: _Params = {}
    cell_errors: dict[str, dict[str, float]] = {}
    fold_errors: list[list[np.ndarray]] = [[] for _ in range(k)]
    key_fold = _joint_fold_map(data, k, seed) if joint_folds else None
    # QP fits are in the energy domain (p_avg 1), so their time law is the energy law.
    law = qp_time_law if model_kind == "qp_cubic" else affine_energy_law

    for preset, classes in cells.items():
        for class_label, rows in classes.items():
            context = f"preset {preset!r}" + (f", class {class_label!r}" if class_label else "")
            x, energy = _columns(rows, model_kind)
            # Folds are drawn on the rows sorted by key, making reports
            # independent of the input row order; a fold holds positions in it.
            order = np.array(sorted(range(len(rows)), key=lambda i: rows[i].key()))
            if key_fold is not None:
                row_fold = np.array([key_fold[(r.sequence_id, r.crf)] for r in rows])[order]
                folds = [np.flatnonzero(row_fold == fold_index) for fold_index in range(k)]
            else:
                if len(rows) < k:
                    raise ValueError(f"{context}: {len(rows)} rows cannot fill {k} folds")
                folds = [np.array(fold) for fold in kfold_split(len(rows), k, seed)]
            held_out: list[np.ndarray] = []
            for fold_index, fold in enumerate(folds):
                if len(fold) == 0:
                    continue  # joint split: this cell has no bitstream in the fold
                train, test = np.delete(order, fold), order[fold]
                try:
                    fitted = _fit_cell(x[train], energy[train], model_kind, preset, class_label,
                                       objective)
                except FitError as exc:
                    raise _tag_fit_error(exc, f"{context}, fold {fold_index}") from exc
                errors = (law(fitted, x[test]) - energy[test]) / energy[test]
                held_out.append(errors)
                fold_errors[fold_index].append(errors)
            cell_errors.setdefault(preset, {})[class_label] = mean_abs_relative_error(
                np.concatenate(held_out))
            params.setdefault(preset, {})[class_label] = _fit_cell(
                x, energy, model_kind, preset, class_label, objective)

    per_fold: list[float] = []
    for fold_index, errs in enumerate(fold_errors):
        if not errs:
            raise ValueError(
                f"fold {fold_index} validated no rows; the dataset is too sparse "
                f"for a {k}-fold joint split"
            )
        per_fold.append(mean_abs_relative_error(np.concatenate(errs)))

    return _report(model_kind, params, cell_errors,
                   validation="kfold", k=k, seed=seed, objective=objective,
                   per_fold_errors=tuple(per_fold), tool_version=tool_version)


def fit_report(
    data: Dataset,
    model_kind: str,
    seed: int = 0,
    objective: str = "squared_rel",
    tool_version: str = "",
) -> FitReport:
    """Fit on the full dataset and report in-sample errors (no validation)."""
    params: _Params = {}
    training_errors: dict[str, dict[str, float]] = {}
    for preset, classes in _cells(data, model_kind).items():
        for cls, rows in classes.items():
            x, energy = _columns(rows, model_kind)
            fitted = _fit_cell(x, energy, model_kind, preset, cls, objective)
            params.setdefault(preset, {})[cls] = fitted
            training_errors.setdefault(preset, {})[cls] = mean_abs_relative_error(
                _training_errors(fitted, x, energy))
    return _report(model_kind, params, training_errors, validation="in_sample", k=0, seed=seed,
                   objective=objective, tool_version=tool_version)
