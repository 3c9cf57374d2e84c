"""Model fitting under a relative-error objective, with k-fold validation.

Both model families are linear in their parameters, so least squares on
relative residuals ``(prediction - E) / E`` is ordinary least squares on
rows scaled by ``1/E`` and is solved in closed form.  An optional L1
variant minimizes the mean absolute relative error instead, solved
exactly by vertex exchange, for sensitivity checks.  The one L1 solver,
:func:`_solve_l1`, takes problems drawn from many cells, each a
training-row mask of one cell started from that cell's start, and solves
them in stacks of at most ``_STACK_SLOTS`` (problem, row) slots, which
bounds its memory: all the cells' own fits are one call, and all their
folds another.

The entry points are :func:`fit_report` (in-sample) and
:func:`cross_validate` (k-fold).  Each fits every cell of one model kind
through :func:`_fit` and returns a :class:`FitReport`; a cell's
parameters are read from it, as ``linear_params[preset]`` or
``qp_params[preset][class]``.  Both score a row the one way ``estimate``
does, by the model law of :mod:`encwatt.models` (:func:`_errors`), and a
fit that fails names its cell once, as ``preset 'medium', class 'B'``
(and ``, fold 0`` for a training fold).  Cross-validation fits every cell
on all its rows, then the folds of each cell before the first that
failed, each step one call of :func:`_fit`.  It names failures in cell
order: a cell that cannot be fitted (naming the cell, not a fold), then
its folds in fold order.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
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
# (problem, row) slots of one stack of abs_rel problems, padding rows
# included.  On a 9,000-row set, twice as many saved little time and
# raised a crossval process's peak memory by about 1 MB.
_STACK_SLOTS = 8192


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


def _first_basis(
    padded: np.ndarray, owner: np.ndarray, masks: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, list[FitError | None]]:
    """Each problem's first vertex, for :func:`_solve_l1`: ``(basis, errors)``.

    Problem ``p`` trains on the rows ``masks[p]`` selects of the cell
    ``padded[owner[p]]``, which starts from ``starts[owner[p]]``.  Its basis
    is the ``k`` training rows of smallest ``|residual|`` under that start
    that have full rank.  ``errors[p]`` is the :class:`FitError` of a
    problem whose training rows have rank below ``k``, else None.
    """
    k = padded.shape[2]
    errors: list[FitError | None] = [None] * len(owner)
    train = masks.sum(axis=1)
    # Each cell's rows ranked once, by |residual| under its start (a
    # padding row is in no mask); each problem's training rows follow in
    # that order, problem after problem, and k spare entries end the run
    # so that every problem has k first rows to check.
    by_rank = np.argsort(np.abs(padded @ starts[..., None] - 1.0)[..., 0], axis=1,
                         kind="stable")[owner]
    problem, place = np.nonzero(np.take_along_axis(masks, by_rank, axis=1))
    ranked = np.append(by_rank[problem, place], np.zeros(k, dtype=int))
    runs = np.cumsum(train) - train
    basis = ranked[runs[:, None] + np.arange(k)]
    # If a problem's k first rows have full rank, so has each prefix of
    # them (a row deleted cannot shrink the smallest singular value, nor
    # grow the rank tolerance), and the row-by-row search would pick them.
    full_rank = np.linalg.matrix_rank(padded[owner[:, None], basis]) == k
    for p in np.flatnonzero(~full_rank | (train < k)):
        found: list[int] = []
        for i in ranked[runs[p]:runs[p] + train[p]].tolist():
            if np.linalg.matrix_rank(padded[owner[p], found + [i]]) > len(found):
                found.append(i)
                if len(found) == k:
                    break
        if len(found) < k:
            errors[p] = FitError(f"design matrix has rank {len(found)} < {k}")
        else:
            basis[p] = found
    return basis, errors


def _solve_l1(
    scaled: Sequence[np.ndarray], masks: Sequence[np.ndarray], starts: np.ndarray
) -> list[np.ndarray | FitError]:
    """Minimize ``sum(|scaled[c][m] @ x - 1|)`` exactly by vertex exchange, per problem ``(c, m)``.

    The problems come from cells: cell ``c`` has the rows ``scaled[c]``,
    each of its problems trains on the rows that one mask of ``masks[c]``
    selects, and all of them start from ``starts[c]``.  The results come
    cell after cell, in mask order: each problem's coefficients, or the
    :class:`FitError` it failed with.  Nothing is raised, so a caller can
    name the first failing problem.  The problems are taken in order into
    stacks of :func:`_solve_stack`, each of at most ``_STACK_SLOTS``
    (problem, row) slots, a problem taking as many slots as its stack's
    longest cell has rows; a problem that alone needs more is a stack by
    itself.  So the solver's memory is bounded, however unequal the cells.
    """
    problems = [(c, i) for c, cell_masks in enumerate(masks) for i in range(len(cell_masks))]
    rows = [len(scaled[c]) for c, _ in problems]
    outcomes: list[np.ndarray | FitError] = []
    while problems:
        size, longest = 1, rows[0]
        while size < len(problems) and (size + 1) * max(longest, rows[size]) <= _STACK_SLOTS:
            longest = max(longest, rows[size])
            size += 1
        stack, problems, rows = problems[:size], problems[size:], rows[size:]
        by_cell = [(c, [i for _, i in group]) for c, group in groupby(stack, itemgetter(0))]
        outcomes += _solve_stack([scaled[c] for c, _ in by_cell],
                                 [masks[c][chosen] for c, chosen in by_cell],
                                 starts[[c for c, _ in by_cell]])
    return outcomes


def _solve_stack(
    scaled: Sequence[np.ndarray], masks: Sequence[np.ndarray], starts: np.ndarray
) -> list[np.ndarray | FitError]:
    """Solve the problems of :func:`_solve_l1` as one stack, laid out as there.

    Only the numpy work is stacked: each cell's rows are padded to the
    longest cell's count by rows no mask selects, and each problem takes
    the steps it would take alone, on its training rows in their order.

    An L1 optimum interpolates ``k`` linearly independent rows (Barrodale
    & Roberts, SIAM J. Numer. Anal. 10(5), 1973).  The first vertex goes
    through the ``k`` rows of smallest ``|residual|`` under ``start`` that
    have full rank (fewer fail), so a ``start`` near the optimum needs few
    pivots; a cell's rows are ranked once, and each problem takes its
    training rows in that ranking.  Every row outside the basis ``B`` has
    a side ``s_i``: the sign of its residual, or for a row resting at zero
    residual the side it was last moved to (0 if none).  The dual
    ``u = -B^-T sum_{i not in B} s_i a_i`` certifies the vertex optimal
    when ``max|u| <= 1``; the coefficients are then ``B^-1 1``.  Otherwise
    the basis row ``j`` of largest ``|u_j|`` is released along
    ``d = B^-1 sign(u_j) e_j``, on which the objective falls, up to the
    breakpoint where its slope turns non-negative (a weighted median of
    ``-r_i / (a_i . d)``, ties to the lower row); the rows passed change
    sides and the row breaking there enters the basis.  A problem still
    uncertified after ``_PIVOTS_PER_ROW`` pivots per training row fails.
    """
    k = starts.shape[1]
    n = max(len(rows) for rows in scaled)
    owner = np.repeat(np.arange(len(scaled)), [len(cell_masks) for cell_masks in masks])
    padded = np.zeros((len(scaled), n, k))
    stacked = np.zeros((len(owner), n), dtype=bool)  # each problem's mask, padded
    first_problem = 0
    for cell_rows, rows, cell_masks in zip(padded, scaled, masks):
        cell_rows[:len(rows)] = rows
        stacked[first_problem:first_problem + len(cell_masks), :len(rows)] = cell_masks
        first_problem += len(cell_masks)
    basis, outcomes = _first_basis(padded, owner, stacked, starts)
    live = np.array([p for p, outcome in enumerate(outcomes) if outcome is None], dtype=int)
    basis, masks = basis[live], stacked[live]
    caps = _PIVOTS_PER_ROW * masks.sum(axis=1)
    first_row = owner[live] * n  # the index of each problem's first row among the cells' rows
    cell_rows = padded.reshape(-1, k)
    # each live problem's cell rows as (problem, column, row): made once,
    # and cut down only as problems finish
    problem_rows = padded.transpose(0, 2, 1)[owner[live]]
    abs_problem_rows = np.abs(problem_rows)
    sides = np.zeros(masks.shape)
    unit, places = np.eye(k), np.arange(n)
    # Per-problem state is kept as (problem, row) and (problem, basis slot)
    # arrays.  An element is reached by its flat index: its problem's first
    # flat index (``first`` for rows, ``first_slot`` for slots) plus its
    # row or slot.
    first, first_slot = np.arange(0, len(live) * n, n), np.arange(0, len(live) * k, k)
    pivot = 0
    while len(live):
        in_basis = basis + first[:, None]
        rows = cell_rows[basis + first_row[:, None]]
        coef = np.linalg.solve(rows, np.ones(k))
        residuals = (coef[:, None] @ problem_rows)[:, 0] - 1.0
        # a residual within rounding of its terms' scale rests at zero
        off_zero = masks & (np.abs(residuals) > _ZERO_RESIDUAL
                            * ((np.abs(coef)[:, None] @ abs_problem_rows)[:, 0] + 1.0))
        off_zero.put(in_basis, False)
        residuals = np.where(off_zero, residuals, 0.0)
        sides = np.where(off_zero, np.sign(residuals), sides)
        sides.put(in_basis, 0.0)
        dual = -np.linalg.solve(rows.transpose(0, 2, 1), problem_rows @ sides[..., None])[..., 0]
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
            (live, basis, masks, caps, sides, first_row, problem_rows, abs_problem_rows, rows,
             residuals, j, dual_j) = (
                a[go] for a in (live, basis, masks, caps, sides, first_row, problem_rows,
                                abs_problem_rows, rows, residuals, j, dual_j))
            first, first_slot = first[:len(live)], first_slot[:len(live)]
            in_basis = basis + first[:, None]
        sign = np.sign(dual_j)
        step = np.linalg.solve(rows, (sign[:, None] * unit[j])[..., None])[..., 0]
        rates = (step[:, None] @ problem_rows)[:, 0]  # each residual's change per unit step
        moving = masks & (np.abs(rates) > _ZERO_RESIDUAL
                          * (np.abs(step)[:, None] @ abs_problem_rows)[:, 0])
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
            live, basis, masks, caps, sides, first_row, problem_rows, abs_problem_rows = (
                a[go] for a in (live, basis, masks, caps, sides, first_row, problem_rows,
                                abs_problem_rows))
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


def _checked(coef: np.ndarray | FitError, x: np.ndarray, model_kind: str
             ) -> tuple[LinearParams | QpModelParams, np.ndarray] | FitError:
    """``(params, coef)`` of ``coef`` fitted on ``x``, or the :class:`FitError` it is or raises."""
    if isinstance(coef, FitError):
        return coef
    try:
        return _params(coef, x, model_kind), coef
    except FitError as exc:
        return exc


def _fit(
    cells: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]],
    model_kind: str, objective: str,
) -> list[list[tuple[LinearParams | QpModelParams, np.ndarray] | FitError]]:
    """Fit ``model_kind`` on each training mask of each cell ``(x, energy, masks, start)``.

    Returns per cell, per mask, ``(params, coef)`` or the :class:`FitError`
    it failed with, raising none, so that a caller names the first failing
    fit in its own order.  ``coef`` is the solver's coefficient vector; a
    cell's fit on all its rows (one all-true mask) gives the ``start`` of
    its abs_rel folds.  A mask whose rows pass :func:`_check_rows` is one
    least-squares solve if the objective is ``squared_rel`` or ``start`` is
    None.  For ``abs_rel`` all those masks are then solved by one call of
    :func:`_solve_l1`, each from ``start``, or if it is None from the
    mask's own least squares.
    """
    coefs: list[list] = []
    l1_cells, l1_fits = [], []  # the cells of the _solve_l1 call, and per problem its (cell, mask)
    for c, (x, energy, masks, start) in enumerate(cells):
        scaled = _design(model_kind, x) / energy[:, None]
        coefs.append([])
        warm = []  # the masks solved from start
        for m, mask in enumerate(masks):
            try:
                _check_rows(x[mask], model_kind)
                coefs[c].append(_least_squares(scaled[mask])
                                if objective == "squared_rel" or start is None else None)
            except FitError as exc:
                coefs[c].append(exc)
                continue
            if objective == "abs_rel":
                l1_fits.append((c, m))
                if start is None:
                    l1_cells.append((scaled, mask[None], coefs[c][m]))
                else:
                    warm.append(m)
        if warm:
            l1_cells.append((scaled, masks[warm], start))
    if l1_cells:
        l1_scaled, l1_masks, l1_starts = zip(*l1_cells)
        for (c, m), coef in zip(l1_fits, _solve_l1(l1_scaled, l1_masks, np.array(l1_starts))):
            coefs[c][m] = coef
    return [[_checked(coef, x[mask], model_kind) for mask, coef in zip(masks, cell_coefs)]
            for (x, _, masks, _), cell_coefs in zip(cells, coefs)]


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
    everywhere.  A cell's error averages its held-out errors; a preset's
    error averages its cells' errors.

    Every cell is first fitted on all its rows, through one call of
    :func:`_fit`.  Then the folds of every cell before the first that
    cannot be fitted are fitted, through another; for ``abs_rel`` a cell's
    optimum starts each of its folds.  Failures are named in cell order:
    a cell that cannot be fitted, then its folds in fold order (a
    degenerate training fold aborts the run rather than being skipped).
    So a cell that cannot be fitted is named, not a fold, and no fold of
    it or of a later cell is fitted.
    """
    key_fold = _joint_fold_map(data, k, seed) if joint_folds else None
    cells = _cells(data, model_kind, objective)
    fits = _fit([(x, energy, np.ones((1, len(x)), dtype=bool), None)
                 for *_, x, energy in cells], model_kind, objective)
    planned = []  # per cell before the first failing one: its report entry and kept folds
    fold_cells = []  # and its sorted covariates and energies, training masks and start
    failure: tuple[Exception, Exception | None] | None = None
    for (preset, class_label, name, rows, x, energy), (fit,) in zip(cells, fits):
        # Folds are drawn on the rows sorted by key, making reports
        # independent of the input row order; a fold holds positions in it.
        keys = [row.key() for row in rows]
        order = np.array(sorted(range(len(rows)), key=keys.__getitem__))
        if key_fold is not None:
            row_fold = np.array([key_fold[(r.sequence_id, r.crf)] for r in rows])[order]
            folds = [np.flatnonzero(row_fold == fold_index) for fold_index in range(k)]
        elif len(rows) < k:
            failure = (ValueError(f"{name}: {len(rows)} rows cannot fill {k} folds"), None)
            break
        else:
            folds = [np.array(fold) for fold in kfold_split(len(rows), k, seed)]
        if isinstance(fit, FitError):
            failure = (FitError(f"{name}: {fit}"), fit)
            break
        # joint split: a cell may have no bitstream in a fold
        kept = [(fold_index, fold) for fold_index, fold in enumerate(folds) if len(fold)]
        masks = np.ones((len(kept), len(rows)), dtype=bool)
        for mask, (_, fold) in zip(masks, kept):
            mask[fold] = False
        planned.append((preset, class_label, name, fit[0], kept))
        fold_cells.append((x[order], energy[order], masks, fit[1]))

    report_cells = []
    fold_errors: list[list[np.ndarray]] = [[] for _ in range(k)]
    trained = _fit(fold_cells, model_kind, objective)
    for (preset, class_label, name, fitted, kept), (x, energy, _, _), cell_trained in zip(
            planned, fold_cells, trained):
        held_out: list[np.ndarray] = []
        for (fold_index, fold), fold_fit in zip(kept, cell_trained):
            if isinstance(fold_fit, FitError):
                raise FitError(f"{name}, fold {fold_index}: {fold_fit}") from fold_fit
            errors = _errors(fold_fit[0], x[fold], energy[fold])
            held_out.append(errors)
            fold_errors[fold_index].append(errors)
        report_cells.append((preset, class_label, fitted,
                             mean_abs_relative_error(np.concatenate(held_out))))
    if failure is not None:
        raise failure[0] from failure[1]

    per_fold: list[float] = []
    for fold_index, errs in enumerate(fold_errors):
        if not errs:
            raise ValueError(
                f"fold {fold_index} validated no rows; the dataset is too sparse "
                f"for a {k}-fold joint split"
            )
        per_fold.append(mean_abs_relative_error(np.concatenate(errs)))

    return _report(model_kind, report_cells, validation="kfold", k=k, seed=seed,
                   objective=objective, per_fold_errors=tuple(per_fold),
                   tool_version=tool_version)


def fit_report(
    data: Dataset,
    model_kind: str,
    objective: str = "squared_rel",
    tool_version: str = "",
) -> FitReport:
    """Fit on the full dataset and report in-sample errors (no validation, no draws: seed 0).

    Every cell is fitted through :func:`_fit`, so the ``abs_rel`` fits are
    one call of :func:`_solve_l1`; the first cell that cannot be fitted is
    named.
    """
    cells = _cells(data, model_kind, objective)
    fits = _fit([(x, energy, np.ones((1, len(x)), dtype=bool), None)
                 for *_, x, energy in cells], model_kind, objective)
    report_cells = []
    for (preset, class_label, name, _, x, energy), (fit,) in zip(cells, fits):
        if isinstance(fit, FitError):
            raise FitError(f"{name}: {fit}") from fit
        report_cells.append((preset, class_label, fit[0],
                             mean_abs_relative_error(_errors(fit[0], x, energy))))
    return _report(model_kind, report_cells, validation="in_sample", k=0, seed=0,
                   objective=objective, tool_version=tool_version)
