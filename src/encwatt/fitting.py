"""Model fitting under a relative-error objective, with k-fold validation.

Both model families are linear in their parameters, so least squares on
relative residuals ``(prediction - E) / E`` is ordinary least squares on
rows scaled by ``1/E`` and is solved in closed form.  An optional L1
variant minimizes the mean absolute relative error instead, solved
exactly by vertex exchange, for sensitivity checks.  The one L1 solver,
:func:`_solve_l1`, runs over a stack of problems that share one cell's
rows, each a training-row mask and a start: a cell's own fit is a stack
of one, and a cell's folds are one stack.

The entry points are :func:`fit_report` (in-sample) and
:func:`cross_validate` (k-fold).  Each fits every cell of one model kind
through :func:`_fit_cell` and returns a :class:`FitReport`; a cell's
parameters are read from it, as ``linear_params[preset]`` or
``qp_params[preset][class]``.  Both score a row the one way ``estimate``
does, by the model law of :mod:`encwatt.models` (:func:`_errors`), and a
fit that fails names its cell once, as ``preset 'medium', class 'B'``
(and ``, fold 0`` for a training fold).  Cross-validation fits each cell
on all its rows before its folds, so a cell that cannot be fitted fails
naming the cell, not a fold; it then fits all the cell's folds through
:func:`_fit_folds` and names the first that failed, in fold order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dataset import Dataset, DatasetRow
from .errors import DatasetError, FitError
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


def _least_squares(scaled: np.ndarray) -> np.ndarray:
    """The minimizer of ``sum((scaled @ c - 1)**2)``; a rank-deficient ``scaled`` raises."""
    n, k = scaled.shape
    coef, _, rank, _ = np.linalg.lstsq(scaled, np.ones(n), rcond=None)
    if rank < k:
        raise FitError(f"design matrix has rank {rank} < {k}")
    return coef


def _solve_relative_ls(design: np.ndarray, energies: np.ndarray, objective: str) -> np.ndarray:
    """Minimize the relative-residual objective of one cell for a parameter-linear model.

    ``design @ c`` predicts energy.  For ``squared_rel`` this is one
    closed-form weighted least-squares solve; ``abs_rel`` solves the L1
    problem exactly by vertex exchange, as a stack of one problem that
    starts from the least-squares fit.
    """
    scaled = design / energies[:, None]
    coef = _least_squares(scaled)
    if objective == "abs_rel":
        (coef,) = _solve_l1(scaled, np.ones((1, len(scaled)), dtype=bool), coef[None])
        if isinstance(coef, FitError):
            raise coef
    return coef


def _solve_l1(
    scaled: np.ndarray, masks: np.ndarray, starts: np.ndarray
) -> list[np.ndarray | FitError]:
    """Minimize ``sum(|scaled[m] @ c - 1|)`` exactly by vertex exchange, per problem ``(m, start)``.

    The problems of a stack share the rows of ``scaled``; problem ``p``
    trains on the rows ``masks[p]`` selects, from ``starts[p]``.  Its
    result is its coefficients, or the :class:`FitError` it failed with:
    nothing is raised, so a caller can name the first failing problem.
    Only the numpy work is stacked; each problem takes the steps it would
    take alone, on its training rows in their order.

    An L1 optimum interpolates ``k`` linearly independent rows (Barrodale
    & Roberts, SIAM J. Numer. Anal. 10(5), 1973).  The first vertex goes
    through the ``k`` rows of smallest ``|residual|`` under ``start`` that
    have full rank (fewer fail), so a ``start`` near the optimum needs few
    pivots.  Every row outside the basis ``B`` has a side ``s_i``: the
    sign of its residual, or for a row resting at zero residual the side
    it was last moved to (0 if none).  The dual
    ``u = -B^-T sum_{i not in B} s_i a_i`` certifies the vertex optimal
    when ``max|u| <= 1``; the coefficients are then ``B^-1 1``.  Otherwise
    the basis row ``j`` of largest ``|u_j|`` is released along
    ``d = B^-1 sign(u_j) e_j``, on which the objective falls, up to the
    breakpoint where its slope turns non-negative (a weighted median of
    ``-r_i / (a_i . d)``, ties to the lower row); the rows passed change
    sides and the row breaking there enters the basis.  A problem still
    uncertified after ``_PIVOTS_PER_ROW`` pivots per training row fails.
    """
    n, k = scaled.shape
    outcomes: list[np.ndarray | FitError | None] = [None] * len(starts)
    train = masks.sum(axis=1)
    ranked = np.argsort(np.where(masks, np.abs(starts @ scaled.T - 1.0), np.inf),
                        axis=1, kind="stable")
    basis = ranked[:, :k].copy()
    # If a problem's k first rows have full rank, so has each prefix of
    # them (a row deleted cannot shrink the smallest singular value, nor
    # grow the rank tolerance), and the row-by-row search would pick them.
    for p in np.flatnonzero((np.linalg.matrix_rank(scaled[basis]) < k) | (train < k)):
        found: list[int] = []
        for i in ranked[p, :train[p]].tolist():
            if np.linalg.matrix_rank(scaled[found + [i]]) > len(found):
                found.append(i)
                if len(found) == k:
                    break
        if len(found) < k:
            outcomes[p] = FitError(f"design matrix has rank {len(found)} < {k}")
        else:
            basis[p] = found
    live = np.array([p for p, outcome in enumerate(outcomes) if outcome is None], dtype=int)
    basis, masks, caps = basis[live], masks[live], _PIVOTS_PER_ROW * train[live]
    sides = np.zeros(masks.shape)
    scaled_t, abs_scaled_t, unit, places = scaled.T, np.abs(scaled).T, np.eye(k), np.arange(n)
    # Per-problem state is kept as (problem, row) and (problem, basis slot)
    # arrays.  An element is reached by its flat index: its problem's first
    # flat index (``first`` for rows, ``first_slot`` for slots) plus its
    # row or slot.
    first, first_slot = np.arange(0, len(live) * n, n), np.arange(0, len(live) * k, k)
    pivot = 0
    while len(live):
        in_basis = basis + first[:, None]
        rows = scaled[basis]
        coef = np.linalg.solve(rows, np.ones(k))
        residuals = coef @ scaled_t - 1.0
        # a residual within rounding of its terms' scale rests at zero
        scale = np.abs(coef) @ abs_scaled_t + 1.0
        off_zero = masks & (np.abs(residuals) > _ZERO_RESIDUAL * scale)
        off_zero.put(in_basis, False)
        residuals = np.where(off_zero, residuals, 0.0)
        sides = np.where(off_zero, np.sign(residuals), sides)
        sides.put(in_basis, 0.0)
        dual = -np.linalg.solve(rows.transpose(0, 2, 1), (sides @ scaled)[..., None])[..., 0]
        j = np.argmax(np.abs(dual), axis=1)
        dual_j = dual.take(first_slot + j)
        certified = np.abs(dual_j) <= 1.0 + _DUAL_SLACK
        finished = certified | (caps == pivot)
        if finished.any():
            for p, c, cap, ok in zip(live[finished], coef[finished], caps[finished],
                                     certified[finished]):
                outcomes[p] = c if ok else FitError(
                    f"abs_rel vertex exchange not certified optimal after {cap} pivots")
            go = ~finished
            live, basis, masks, caps, sides, rows, residuals, j, dual_j = (
                a[go] for a in (live, basis, masks, caps, sides, rows, residuals, j, dual_j))
            first, first_slot = first[:len(live)], first_slot[:len(live)]
            in_basis = basis + first[:, None]
        sign = np.sign(dual_j)
        step = np.linalg.solve(rows, (sign[:, None] * unit[j])[..., None])[..., 0]
        rates = step @ scaled_t  # each residual's change per unit step
        moving = masks & (np.abs(rates) > _ZERO_RESIDUAL * (np.abs(step) @ abs_scaled_t))
        moving.put(in_basis, False)
        # A row moving against its side (or off zero with no side yet)
        # breaks at ratio -r/rate >= 0, where its slope contribution turns
        # from side*rate to |rate|; the released row adds 1 to the slope.
        # Every other row sorts last, at +inf.
        breaks = moving & (sides * rates <= 0.0)
        ratios = np.divide(-residuals, rates, out=np.full(rates.shape, np.inf), where=breaks)
        order = np.argsort(ratios, axis=1, kind="stable")
        ordered = order + first[:, None]
        ordered_rates, ordered_sides = rates.take(ordered), sides.take(ordered)
        jumps = np.abs(ordered_rates) - ordered_sides * ordered_rates  # >= 0: slopes never fall
        reached = np.cumsum(jumps, axis=1) + 1.0 - np.abs(dual_j)[:, None] >= 0.0
        at = np.argmax(reached, axis=1)  # first breakpoint where the slope is >= 0
        sides.put(ordered, np.where(places < at[:, None], np.sign(ordered_rates), ordered_sides))
        released = first_slot + j
        sides.put(first + basis.take(released), sign)
        basis.put(released, order.take(first + at))
        stuck = ~reached.take(first + at) | (at >= breaks.sum(axis=1))
        if stuck.any():
            for p in live[stuck]:
                outcomes[p] = FitError("abs_rel vertex exchange found no breakpoint along a "
                                       "descent step")
            go = ~stuck
            live, basis, masks, caps, sides = (a[go] for a in (live, basis, masks, caps, sides))
            first, first_slot = first[:len(live)], first_slot[:len(live)]
        pivot += 1
    return outcomes


def kfold_split(n: int, k: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Seeded partition of ``range(n)`` into ``k`` folds of near-equal size.

    The permutation is a Fisher–Yates shuffle driven by
    ``random.Random(seed).random()``, a stream the Python docs keep fixed
    for a given seed across versions.  It is cut into contiguous folds, the
    first ``n % k`` one item larger.
    """
    import random  # not numpy.random, whose first import costs a process ~6 MB

    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} items into {k} folds")
    draw = random.Random(seed).random
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(draw() * (i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    size, extra = divmod(n, k)
    bounds = [i * size + min(i, extra) for i in range(k + 1)]
    return tuple(tuple(perm[bounds[i]:bounds[i + 1]]) for i in range(k))


# Per model kind: the row field it reads as its covariate, and the
# covariate kind its LinearParams record (None: a QpModelParams fit).
_COVARIATE = {"qp_cubic": ("avg_qp", None), "time_linear": ("t_enc", "own_time"),
              "uf_linear": ("t_enc_uf", "ultrafast_time")}


def _cells(
    data: Dataset, model_kind: str, objective: str
) -> list[tuple[str, str, str, list[DatasetRow], np.ndarray, np.ndarray]]:
    """The cells ``model_kind`` fits in ``data``, as ``(preset, class, name, rows, x, energy)``.

    A cell is the rows one model fits: for ``qp_cubic`` one cell per
    (preset, class); for ``time_linear`` and ``uf_linear`` one cell per
    preset, under class ``""``.  Presets follow :data:`PRESETS`, classes
    sort, and rows keep the dataset's order, as do the covariate ``x`` and
    ``energy`` columns.  ``name`` names the cell in errors.  ``model_kind``
    and ``objective`` are checked here, and every cell's rows, before any
    fit.
    """
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {MODEL_KINDS}, got {model_kind!r}")
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    per_class = model_kind == "qp_cubic"
    grouped: dict[str, dict[str, list[DatasetRow]]] = {}
    for row in data.rows:
        label = row.class_label if per_class else ""
        grouped.setdefault(row.preset, {}).setdefault(label, []).append(row)
    # The probe-covariate model has no ultrafast entry: estimating the
    # probe preset from its own probe time is the own-time model.
    if model_kind == "uf_linear":
        grouped.pop("ultrafast", None)
    if not grouped:
        raise ValueError(f"no presets to evaluate for model {model_kind!r}")
    field = _COVARIATE[model_kind][0]
    cells = []
    for preset in (p for p in PRESETS if p in grouped):
        for class_label, rows in sorted(grouped[preset].items()):
            name = f"preset {preset!r}" + (f", class {class_label!r}" if per_class else "")
            missing = [r.sequence_id for r in rows if r.avg_qp is None] if per_class else []
            if missing:
                raise DatasetError(f"{name}: rows missing avg_qp: {missing}")
            cells.append((preset, class_label, name, rows,
                          np.array([getattr(r, field) for r in rows], dtype=float),
                          np.array([r.energy for r in rows], dtype=float)))
    return cells


def _design(model_kind: str, x: np.ndarray) -> np.ndarray:
    """The design matrix of ``model_kind`` on covariates ``x``; ``design @ coef`` is energy."""
    if model_kind == "qp_cubic":
        # Column signs follow the model form  kappa*qp^3 - lam*qp^2 - mu*qp + t0.
        return np.column_stack([x**3, -(x**2), -x, np.ones_like(x)])
    return np.column_stack([x, np.ones_like(x)])


def _check_rows(x: np.ndarray, model_kind: str) -> None:
    """Refuse covariates ``x`` that ``model_kind`` cannot be fitted to, before any solve."""
    covariate_kind = _COVARIATE[model_kind][1]
    if covariate_kind is None:
        if len(x) < 5:
            raise FitError(f"{len(x)} rows; need at least 5")
        return
    if len(x) > 0 and np.all(x == x[0]):
        raise FitError(f"all {covariate_kind} values equal ({x[0]})")
    if len(x) < 3:
        raise FitError(f"{len(x)} rows; need at least 3 to fit the affine model")


def _params(coef: np.ndarray, x: np.ndarray, model_kind: str) -> LinearParams | QpModelParams:
    """The parameters of solver coefficients ``coef`` fitted on covariates ``x``, checked."""
    covariate_kind = _COVARIATE[model_kind][1]
    if covariate_kind is not None:
        slope, offset = coef.tolist()
        if slope <= 0:
            raise FitError(f"fitted slope {slope:.6g} W is not positive")
        return LinearParams(p=slope, e0=offset, covariate_kind=covariate_kind)
    kappa, lam, mu, t0 = coef.tolist()
    qp_range = (float(x.min()), float(x.max()))
    # fitted in the energy domain: p_avg keeps its default of 1
    params = QpModelParams(kappa=kappa, lam=lam, mu=mu, t0=t0, valid_qp_range=qp_range)
    grid = np.arange(qp_range[0], qp_range[1] + 0.25, 0.25)
    grid_pred = qp_time_law(params, grid)
    if np.any(grid_pred <= 0):
        raise FitError(f"fitted model predicts non-positive energy near qp "
                       f"{grid[np.argmin(grid_pred)]:.2f}")
    return params


def _fit_cell(
    x: np.ndarray, energy: np.ndarray, model_kind: str, objective: str, context: str
) -> tuple[LinearParams | QpModelParams, np.ndarray]:
    """Fit ``model_kind`` to one cell's covariates ``x`` and energies: ``(params, coef)``.

    ``coef`` is the solver's coefficient vector, which each abs_rel fold of
    the cell takes as its start.  A :class:`FitError` names the cell by
    ``context``.
    """
    try:
        _check_rows(x, model_kind)
        coef = _solve_relative_ls(_design(model_kind, x), energy, objective)
        return _params(coef, x, model_kind), coef
    except FitError as exc:
        raise FitError(f"{context}: {exc}") from exc


def _fit_folds(
    x: np.ndarray, energy: np.ndarray, model_kind: str, objective: str, masks: np.ndarray,
    start: np.ndarray,
) -> list[LinearParams | QpModelParams | FitError]:
    """Fit ``model_kind`` on each training mask of one cell's covariates ``x`` and energies.

    Returns per mask its parameters or the :class:`FitError` it failed
    with, raising none, so that a caller names the first failing fold in
    fold order.  For ``abs_rel`` the masks whose rows pass
    :func:`_check_rows` are solved as one stack, each from the cell's
    optimum ``start``; each ``squared_rel`` mask is one least-squares solve.
    """
    scaled = _design(model_kind, x) / energy[:, None]
    outcomes: list = []
    for mask in masks:
        try:
            _check_rows(x[mask], model_kind)
            outcomes.append(_least_squares(scaled[mask]) if objective == "squared_rel" else None)
        except FitError as exc:
            outcomes.append(exc)
    if objective == "abs_rel":
        stacked = [i for i, outcome in enumerate(outcomes) if outcome is None]
        coefs = _solve_l1(scaled, masks[stacked], np.tile(start, (len(stacked), 1)))
        for i, coef in zip(stacked, coefs):
            outcomes[i] = coef
    for i, (mask, coef) in enumerate(zip(masks, outcomes)):
        if not isinstance(coef, FitError):
            try:
                outcomes[i] = _params(coef, x[mask], model_kind)
            except FitError as exc:
                outcomes[i] = exc
    return outcomes


def _errors(
    params: LinearParams | QpModelParams, x: np.ndarray, energy: np.ndarray
) -> np.ndarray:
    """Relative errors of ``params`` on covariates ``x``, predicted by the model law.

    These are the predictions ``estimate`` makes.  QP fits are in the
    energy domain (``p_avg`` 1), so their time law is the energy law.
    """
    law = qp_time_law if isinstance(params, QpModelParams) else affine_energy_law
    return (law(params, x) - energy) / energy


def _report(
    model_kind: str, cells: Sequence[tuple[str, str, LinearParams | QpModelParams, float]],
    **fields,
) -> FitReport:
    """Assemble the report of either command from one ``(preset, class, params, error)`` per cell.

    ``cells`` come in :func:`_cells`' order.  A preset's error is the mean
    of its cells' errors.
    """
    params: dict[str, dict[str, LinearParams | QpModelParams]] = {}
    cell_errors: dict[str, dict[str, float]] = {}
    for preset, class_label, fitted, error in cells:
        params.setdefault(preset, {})[class_label] = fitted
        cell_errors.setdefault(preset, {})[class_label] = error
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
    being skipped, naming the first such fold in fold order.  A cell's
    error averages its held-out errors; a preset's error averages its
    cells' errors.  Each cell is fitted on all its rows before its folds,
    and for ``abs_rel`` that fit's coefficients start every fold of the
    cell's stack; a cell that cannot be fitted raises at once, naming the
    cell, not a fold.
    """
    cells = []
    fold_errors: list[list[np.ndarray]] = [[] for _ in range(k)]
    key_fold = _joint_fold_map(data, k, seed) if joint_folds else None

    for preset, class_label, name, rows, x, energy in _cells(data, model_kind, objective):
        # Folds are drawn on the rows sorted by key, making reports
        # independent of the input row order; a fold holds positions in it.
        keys = [row.key() for row in rows]
        order = np.array(sorted(range(len(rows)), key=keys.__getitem__))
        if key_fold is not None:
            row_fold = np.array([key_fold[(r.sequence_id, r.crf)] for r in rows])[order]
            folds = [np.flatnonzero(row_fold == fold_index) for fold_index in range(k)]
        else:
            if len(rows) < k:
                raise ValueError(f"{name}: {len(rows)} rows cannot fill {k} folds")
            folds = [np.array(fold) for fold in kfold_split(len(rows), k, seed)]
        fitted, start = _fit_cell(x, energy, model_kind, objective, name)
        # joint split: a cell may have no bitstream in a fold
        kept = [(fold_index, fold) for fold_index, fold in enumerate(folds) if len(fold)]
        masks = np.ones((len(kept), len(rows)), dtype=bool)
        for mask, (_, fold) in zip(masks, kept):
            mask[fold] = False
        x, energy = x[order], energy[order]
        trained = _fit_folds(x, energy, model_kind, objective, masks, start)
        held_out: list[np.ndarray] = []
        for (fold_index, fold), params in zip(kept, trained):
            if isinstance(params, FitError):
                raise FitError(f"{name}, fold {fold_index}: {params}") from params
            errors = _errors(params, x[fold], energy[fold])
            held_out.append(errors)
            fold_errors[fold_index].append(errors)
        cells.append((preset, class_label, fitted,
                      mean_abs_relative_error(np.concatenate(held_out))))

    per_fold: list[float] = []
    for fold_index, errs in enumerate(fold_errors):
        if not errs:
            raise ValueError(
                f"fold {fold_index} validated no rows; the dataset is too sparse "
                f"for a {k}-fold joint split"
            )
        per_fold.append(mean_abs_relative_error(np.concatenate(errs)))

    return _report(model_kind, cells, validation="kfold", k=k, seed=seed, objective=objective,
                   per_fold_errors=tuple(per_fold), tool_version=tool_version)


def fit_report(
    data: Dataset,
    model_kind: str,
    objective: str = "squared_rel",
    tool_version: str = "",
) -> FitReport:
    """Fit on the full dataset and report in-sample errors (no validation, no draws: seed 0)."""
    cells = []
    for preset, class_label, name, _, x, energy in _cells(data, model_kind, objective):
        fitted, _ = _fit_cell(x, energy, model_kind, objective, name)
        cells.append((preset, class_label, fitted,
                      mean_abs_relative_error(_errors(fitted, x, energy))))
    return _report(model_kind, cells, validation="in_sample", k=0, seed=0,
                   objective=objective, tool_version=tool_version)
