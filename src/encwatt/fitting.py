"""Model fitting under a relative-error objective, with k-fold validation.

Both model families are linear in their parameters, so least squares on
relative residuals ``(prediction - E) / E`` is ordinary least squares on
rows scaled by ``1/E`` and is solved in closed form.  An optional
iteratively-reweighted variant minimizes the mean absolute relative
error instead, for sensitivity checks.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

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
    PRESETS,
    LinearParams,
    QpModelParams,
    QpRangeWarning,
    predict_energy_linear,
    predict_energy_qp,
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

OBJECTIVES = ("squared_rel", "abs_rel")
MODEL_KINDS = ("qp_cubic", "time_linear", "uf_linear")

_IRLS_MAX_ITER = 200
_IRLS_EPS = 1e-8


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
    closed-form weighted least-squares solve; ``abs_rel`` refines it by
    iteratively reweighted least squares.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    n, k = design.shape
    scaled = design / energies[:, None]
    target = np.ones(n)
    coef, _, rank, _ = np.linalg.lstsq(scaled, target, rcond=None)
    if rank < k:
        raise SingularFitError(f"design matrix has rank {rank} < {k}")
    if objective == "abs_rel":
        for _ in range(_IRLS_MAX_ITER):
            residuals = scaled @ coef - target
            weights = 1.0 / np.sqrt(np.maximum(np.abs(residuals), _IRLS_EPS))
            new_coef, _, rank, _ = np.linalg.lstsq(
                scaled * weights[:, None], target * weights, rcond=None
            )
            if rank < k:
                raise SingularFitError(f"reweighted design lost rank ({rank} < {k})")
            if np.allclose(new_coef, coef, rtol=1e-12, atol=1e-14):
                coef = new_coef
                break
            coef = new_coef
    return coef


def _covariate(row: DatasetRow, covariate_kind: str) -> float:
    return row.t_enc if covariate_kind == "own_time" else row.t_enc_uf


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

    def predict(self, row: DatasetRow) -> float:
        """Energy the fitted model predicts for ``row``, in joules."""
        if isinstance(self.params, QpModelParams):
            return predict_energy_qp(self.params, row.avg_qp)
        return predict_energy_linear(self.params, _covariate(row, self.params.covariate_kind))


def _fit_result(
    preset: str, class_label: str, params, preds: np.ndarray, energy: np.ndarray
) -> FitResult:
    errors = tuple(float(e) for e in (preds - energy) / energy)
    mean = mean_abs_relative_error(errors)
    return FitResult(preset, class_label, params, errors, mean, len(errors))


def _fit_linear_rows(
    rows: Sequence[DatasetRow],
    preset: str,
    covariate_kind: str,
    objective: str,
) -> FitResult:
    t = np.array([_covariate(r, covariate_kind) for r in rows])
    energy = np.array([r.energy for r in rows])
    if len(rows) > 0 and np.all(t == t[0]):
        raise SingularFitError(f"preset {preset!r}: all {covariate_kind} values equal ({t[0]})")
    if len(rows) < 3:
        raise UnderdeterminedFitError(
            f"preset {preset!r}: {len(rows)} rows; need at least 3 to fit the affine model"
        )
    design = np.column_stack([t, np.ones_like(t)])
    slope, offset = _solve_relative_ls(design, energy, objective)
    if slope <= 0:
        raise FitRejectedError(f"preset {preset!r}: fitted slope {slope:.6g} W is not positive")
    params = LinearParams(p=float(slope), e0=float(offset), covariate_kind=covariate_kind)
    return _fit_result(preset, "", params, design @ np.array([slope, offset]), energy)


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
    return _fit_linear_rows(data.rows_for_preset(preset), preset, covariate_kind, objective)


def _qp_design(qp: np.ndarray) -> np.ndarray:
    # Column signs follow the model form  kappa*qp^3 - lam*qp^2 - mu*qp + t0.
    return np.column_stack([qp**3, -(qp**2), -qp, np.ones_like(qp)])


def _require_avg_qp(rows: Sequence[DatasetRow], cell: str) -> None:
    missing = [r.sequence_id for r in rows if r.avg_qp is None]
    if missing:
        raise DatasetError(f"{cell}: rows missing avg_qp: {missing}")


def _fit_qp_rows(
    rows: Sequence[DatasetRow],
    preset: str,
    class_label: str,
    objective: str,
    p_avg: Optional[float] = None,
) -> FitResult:
    cell = f"preset {preset!r}, class {class_label!r}"
    _require_avg_qp(rows, cell)
    if len(rows) < 5:
        raise UnderdeterminedFitError(f"{cell}: {len(rows)} rows; need at least 5")
    qp = np.array([r.avg_qp for r in rows], dtype=float)
    energy = np.array([r.energy for r in rows])
    design = _qp_design(qp)
    try:
        coef = _solve_relative_ls(design, energy, objective)
    except SingularFitError as exc:
        raise UnderdeterminedFitError(f"{cell}: {exc}") from exc
    qp_range = (float(qp.min()), float(qp.max()))
    # The fit lives in the energy domain unless a measured mean power is
    # supplied to split time from power.
    scale = p_avg if p_avg is not None else 1.0
    params = QpModelParams(
        kappa=float(coef[0] / scale),
        lam=float(coef[1] / scale),
        mu=float(coef[2] / scale),
        t0=float(coef[3] / scale),
        p_avg=float(scale),
        valid_qp_range=qp_range,
    )
    grid = np.arange(qp_range[0], qp_range[1] + 0.25, 0.25)
    grid_pred = _qp_design(grid) @ coef
    if np.any(grid_pred <= 0):
        bad = grid[np.argmin(grid_pred)]
        raise FitRejectedError(
            f"{cell}: fitted model predicts non-positive energy near qp {bad:.2f}"
        )
    return _fit_result(preset, class_label, params, design @ coef, energy)


def fit_qp_model(
    data: Dataset,
    preset: str,
    class_label: str,
    objective: str = "squared_rel",
    p_avg: Optional[float] = None,
) -> FitResult:
    """Fit the cubic-in-QP model for one (preset, class) cell."""
    rows = [r for r in data.rows_for_preset(preset) if r.class_label == class_label]
    return _fit_qp_rows(rows, preset, class_label, objective, p_avg)


def kfold_split(n: int, k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Seeded partition of ``range(n)`` into ``k`` folds of near-equal size."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} items into {k} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return tuple(tuple(int(i) for i in fold) for fold in np.array_split(perm, k))


@dataclass(frozen=True)
class FitReport:
    """Per-preset parameters and error table for one model evaluation."""

    model_kind: str
    validation: str  # "kfold" | "in_sample"
    k: int
    seed: int
    objective: str
    per_preset_error: dict[str, float]
    overall_error: float
    per_fold_errors: tuple[float, ...] = ()
    linear_params: Optional[dict[str, LinearParams]] = None
    qp_params: Optional[dict[str, dict[str, QpModelParams]]] = None
    per_class_error: Optional[dict[str, dict[str, float]]] = None
    tool_version: str = ""

    def presets(self) -> tuple[str, ...]:
        return tuple(p for p in PRESETS if p in self.per_preset_error)

    def to_json(self) -> str:
        payload: dict = {
            "tool_version": self.tool_version,
            "model_kind": self.model_kind,
            "validation": self.validation,
            "k": self.k,
            "seed": self.seed,
            "objective": self.objective,
            "per_preset_error": self.per_preset_error,
            "overall_error": self.overall_error,
            "per_fold_errors": list(self.per_fold_errors),
        }
        if self.linear_params is not None:
            payload["linear_params"] = {
                preset: {"p_w": lp.p, "e0_j": lp.e0, "covariate_kind": lp.covariate_kind}
                for preset, lp in self.linear_params.items()
            }
        if self.qp_params is not None:
            payload["qp_params"] = {
                preset: {
                    cls: {
                        "kappa": qp.kappa,
                        "lam": qp.lam,
                        "mu": qp.mu,
                        "t0": qp.t0,
                        "p_avg": qp.p_avg,
                        "valid_qp_range": list(qp.valid_qp_range or ()),
                    }
                    for cls, qp in classes.items()
                }
                for preset, classes in self.qp_params.items()
            }
        if self.per_class_error is not None:
            payload["per_class_error"] = self.per_class_error
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        data = json.loads(text)
        linear = None
        if "linear_params" in data:
            linear = {
                preset: LinearParams(
                    p=entry["p_w"], e0=entry["e0_j"], covariate_kind=entry["covariate_kind"]
                )
                for preset, entry in data["linear_params"].items()
            }
        qp = None
        if "qp_params" in data:
            qp = {
                preset: {
                    cls: QpModelParams(
                        kappa=entry["kappa"],
                        lam=entry["lam"],
                        mu=entry["mu"],
                        t0=entry["t0"],
                        p_avg=entry["p_avg"],
                        valid_qp_range=tuple(entry["valid_qp_range"]) or None,
                    )
                    for cls, entry in classes.items()
                }
                for preset, classes in data["qp_params"].items()
            }
        return cls(
            model_kind=data["model_kind"],
            validation=data["validation"],
            k=data["k"],
            seed=data["seed"],
            objective=data["objective"],
            per_preset_error=data["per_preset_error"],
            overall_error=data["overall_error"],
            per_fold_errors=tuple(data["per_fold_errors"]),
            linear_params=linear,
            qp_params=qp,
            per_class_error=data.get("per_class_error"),
            tool_version=data.get("tool_version", ""),
        )


# The covariate of each linear model kind; the other kind is the QP law.
_LINEAR_COVARIATE = {"time_linear": "own_time", "uf_linear": "ultrafast_time"}

_Cells = dict[str, dict[str, list[DatasetRow]]]
_Fits = dict[str, dict[str, FitResult]]


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
    rows: Sequence[DatasetRow], model_kind: str, preset: str, class_label: str, objective: str
) -> FitResult:
    """Fit the model of ``model_kind`` to the rows of one cell."""
    if model_kind in _LINEAR_COVARIATE:
        return _fit_linear_rows(rows, preset, _LINEAR_COVARIATE[model_kind], objective)
    return _fit_qp_rows(rows, preset, class_label, objective)


def _full_data_fits(cells: _Cells, model_kind: str, objective: str) -> _Fits:
    """One fit per cell of the complete dataset."""
    return {
        preset: {cls: _fit_cell(rows, model_kind, preset, cls, objective)
                 for cls, rows in classes.items()}
        for preset, classes in cells.items()
    }


def _report(
    model_kind: str, fits: _Fits, cell_errors: dict[str, dict[str, float]], **fields
) -> FitReport:
    """Assemble the report of either command from its fits and one error per cell.

    A preset's error is the mean of its cells' errors.
    """
    per_preset_error = {
        preset: float(np.mean(list(errors.values()))) for preset, errors in cell_errors.items()
    }
    params = {preset: {cls: fit.params for cls, fit in classes.items()}
              for preset, classes in fits.items()}
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
    cell_errors: dict[str, dict[str, float]] = {}
    fold_errors: list[list[float]] = [[] for _ in range(k)]
    key_fold = _joint_fold_map(data, k, seed) if joint_folds else None

    for preset, classes in cells.items():
        for class_label, rows in classes.items():
            context = f"preset {preset!r}" + (f", class {class_label!r}" if class_label else "")
            # Fold assignment happens on this sort order, making reports
            # independent of the input row order.
            ordered = sorted(rows, key=lambda r: (r.sequence_id, r.preset, r.crf))
            if key_fold is not None:
                folds: Sequence[Sequence[int]] = [
                    [i for i, r in enumerate(ordered)
                     if key_fold[(r.sequence_id, r.crf)] == fold_index]
                    for fold_index in range(k)
                ]
            else:
                if len(ordered) < k:
                    raise ValueError(f"{context}: {len(ordered)} rows cannot fill {k} folds")
                folds = kfold_split(len(ordered), k, seed)
            held_out: list[float] = []
            # Held-out QPs may lie outside the training fold's range by design.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", QpRangeWarning)
                for fold_index, fold in enumerate(folds):
                    if not fold:
                        continue  # joint split: this cell has no bitstream in the fold
                    fold_set = set(fold)
                    train = [r for i, r in enumerate(ordered) if i not in fold_set]
                    try:
                        fitted = _fit_cell(train, model_kind, preset, class_label, objective)
                    except FitError as exc:
                        raise _tag_fit_error(exc, f"{context}, fold {fold_index}") from exc
                    for i in fold:
                        row = ordered[i]
                        err = relative_error(fitted.predict(row), row.energy)
                        held_out.append(err)
                        fold_errors[fold_index].append(err)
            cell_errors.setdefault(preset, {})[class_label] = mean_abs_relative_error(held_out)

    per_fold: list[float] = []
    for fold_index, errs in enumerate(fold_errors):
        if not errs:
            raise ValueError(
                f"fold {fold_index} validated no rows; the dataset is too sparse "
                f"for a {k}-fold joint split"
            )
        per_fold.append(mean_abs_relative_error(errs))

    return _report(model_kind, _full_data_fits(cells, model_kind, objective), cell_errors,
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
    fits = _full_data_fits(_cells(data, model_kind), model_kind, objective)
    training_errors = {preset: {cls: fit.mean_abs_rel_error for cls, fit in classes.items()}
                       for preset, classes in fits.items()}
    return _report(model_kind, fits, training_errors, validation="in_sample", k=0, seed=seed,
                   objective=objective, tool_version=tool_version)
