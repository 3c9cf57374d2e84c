"""Energy prediction models and their parameter sets.

Three model families are supported:

* a cubic-in-QP encoding-time baseline multiplied by an average power,
* an affine model in the job's own encoding time, and
* an affine model in the encoding time of a cheap ultrafast probe encode,
  which allows estimating the energy of any preset without running it.

A table of published slope/offset parameters for the ultrafast-time model
ships with the package (all presets except ultrafast itself, in watts and
joules).  A :class:`FitReport` carries one fit or cross-validation's
parameters and error table, and reads and writes its JSON form.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path
from typing import Mapping, Optional

__all__ = [
    "PRESETS",
    "COVARIATE_KINDS",
    "MODEL_KINDS",
    "OBJECTIVES",
    "DEFAULT_POLL_PERIOD",
    "QpModelParams",
    "LinearParams",
    "QpRangeWarning",
    "qp_time_law",
    "affine_energy_law",
    "predict_time_qp",
    "predict_energy_qp",
    "predict_energy_linear",
    "load_default_params",
    "read_params_file",
    "write_params_file",
    "DEFAULT_PARAMS_RESOURCE",
    "FitReport",
]

# x265 speed presets, fastest first.
PRESETS: tuple[str, ...] = (
    "ultrafast",
    "superfast",
    "veryfast",
    "faster",
    "fast",
    "medium",
    "slow",
    "slower",
    "veryslow",
)

COVARIATE_KINDS: tuple[str, ...] = ("own_time", "ultrafast_time")

# The model families a fit or cross-validation evaluates, its objectives,
# and the meters' default poll period.  They live here, with no numpy
# import, so that the command-line parser can be built without numpy.
MODEL_KINDS: tuple[str, ...] = ("qp_cubic", "time_linear", "uf_linear")
OBJECTIVES: tuple[str, ...] = ("squared_rel", "abs_rel")
DEFAULT_POLL_PERIOD = 0.1  # seconds; configuration default, not a measured value

DEFAULT_PARAMS_RESOURCE = "data/default_uf_params.csv"

PARAMS_HEADER = "preset,covariate_kind,p_w,e0_j"


class QpRangeWarning(UserWarning):
    """A QP-model prediction was requested outside the calibrated range."""


@dataclass(frozen=True)
class QpModelParams:
    """Coefficients of the cubic-in-QP time model and an average power.

    The predicted time is ``kappa*qp^3 - lam*qp^2 - mu*qp + t0``; energy
    is that time multiplied by ``p_avg``.  When the coefficients were
    fitted directly in the energy domain ``p_avg`` is 1.
    ``valid_qp_range`` records the QP span of the fit data.
    """

    kappa: float
    lam: float
    mu: float
    t0: float
    p_avg: float = 1.0
    valid_qp_range: Optional[tuple[float, float]] = None

    def __post_init__(self) -> None:
        if self.p_avg <= 0:
            raise ValueError(f"p_avg must be > 0, got {self.p_avg}")


@dataclass(frozen=True)
class LinearParams:
    """Slope (watts) and offset (joules) of an affine time-to-energy model."""

    p: float
    e0: float
    covariate_kind: str = "ultrafast_time"

    def __post_init__(self) -> None:
        if self.p <= 0:
            raise ValueError(f"slope p must be > 0, got {self.p}")
        if self.covariate_kind not in COVARIATE_KINDS:
            raise ValueError(
                f"covariate_kind must be one of {COVARIATE_KINDS}, got {self.covariate_kind!r}"
            )


def qp_time_law(params: QpModelParams, qp):
    """``kappa*qp^3 - lam*qp^2 - mu*qp + t0`` for a QP or an array of QPs, unchecked."""
    return params.kappa * qp**3 - params.lam * qp**2 - params.mu * qp + params.t0


def affine_energy_law(params: LinearParams, t):
    """``e0 + p * t`` joules for a time or an array of times, unchecked."""
    return params.e0 + params.p * t


def predict_time_qp(params: QpModelParams, qp: float) -> float:
    """Encoding time predicted by the cubic QP model, in seconds."""
    if not 0.0 <= qp <= 51.0:
        raise ValueError(f"qp must be in [0, 51], got {qp}")
    if params.valid_qp_range is not None:
        lo, hi = params.valid_qp_range
        if not lo <= qp <= hi:
            warnings.warn(
                f"qp {qp} lies outside the calibrated range [{lo}, {hi}]",
                QpRangeWarning,
                stacklevel=2,
            )
    return qp_time_law(params, qp)


def predict_energy_qp(params: QpModelParams, qp: float) -> float:
    """Energy predicted by the QP model: predicted time times average power."""
    return predict_time_qp(params, qp) * params.p_avg


def predict_energy_linear(params: LinearParams, t: float) -> float:
    """Energy predicted by an affine model: ``e0 + p * t`` joules."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"encoding time must be finite and > 0, got {t}")
    return affine_energy_law(params, t)


def write_params_file(
    params: Mapping[str, LinearParams],
    path: str | Path,
    metadata: Optional[Mapping[str, object]] = None,
) -> None:
    """Write per-preset affine parameters as CSV with ``#`` metadata lines."""
    path = Path(path)
    order = [p for p in PRESETS if p in params] + sorted(set(params) - set(PRESETS))
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}: {value}\n")
        fh.write(PARAMS_HEADER + "\n")
        for preset in order:
            lp = params[preset]
            fh.write(f"{preset},{lp.covariate_kind},{lp.p!r},{lp.e0!r}\n")


def _parse_params_text(text: str, origin: str) -> dict[str, LinearParams]:
    lines = [ln for ln in text.split("\n") if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or lines[0].strip() != PARAMS_HEADER:
        raise ValueError(f"{origin}: expected header {PARAMS_HEADER!r}")
    table: dict[str, LinearParams] = {}
    for line in lines[1:]:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 4:
            raise ValueError(f"{origin}: expected 4 columns, got {line!r}")
        preset, kind, p_w, e0_j = fields
        if preset not in PRESETS:
            raise ValueError(f"{origin}: unknown preset {preset!r}")
        if preset in table:
            raise ValueError(f"{origin}: duplicate preset {preset!r}")
        table[preset] = LinearParams(p=float(p_w), e0=float(e0_j), covariate_kind=kind)
    return table


def read_params_file(path: str | Path) -> dict[str, LinearParams]:
    """Read a per-preset affine parameter file written by :func:`write_params_file`."""
    path = Path(path)
    return _parse_params_text(path.read_text(encoding="utf-8"), str(path))


def load_default_params() -> dict[str, LinearParams]:
    """Bundled published ultrafast-time parameters, keyed by preset.

    Covers the eight presets from superfast through veryslow; ultrafast
    has no entry because its own time is the model input.
    """
    text = files("encwatt").joinpath(DEFAULT_PARAMS_RESOURCE).read_text(encoding="utf-8")
    table = _parse_params_text(text, DEFAULT_PARAMS_RESOURCE)
    expected = set(PRESETS) - {"ultrafast"}
    if set(table) != expected:
        raise ValueError(
            f"bundled parameter table must cover exactly {sorted(expected)}, got {sorted(table)}"
        )
    return table


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
