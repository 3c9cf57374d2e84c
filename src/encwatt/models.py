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
from dataclasses import MISSING, dataclass, fields
from functools import partial
from importlib.resources import files
from pathlib import Path
from typing import Mapping, Optional, Union, get_args, get_origin, get_type_hints

__all__ = [
    "PRESETS",
    "COVARIATE_KINDS",
    "MODEL_KINDS",
    "OBJECTIVES",
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

# The model families a fit or cross-validation evaluates, and its
# objectives.  They live here, with no numpy import, so that the
# command-line parser can be built without numpy.
MODEL_KINDS: tuple[str, ...] = ("qp_cubic", "time_linear", "uf_linear")
OBJECTIVES: tuple[str, ...] = ("squared_rel", "abs_rel")

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
        for name in ("kappa", "lam", "mu", "t0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.p_avg < math.inf:
            raise ValueError(f"p_avg must be finite and > 0, got {self.p_avg}")


@dataclass(frozen=True)
class LinearParams:
    """Slope (watts) and offset (joules) of an affine time-to-energy model."""

    p: float
    e0: float
    covariate_kind: str = "ultrafast_time"

    def __post_init__(self) -> None:
        if not 0 < self.p < math.inf:
            raise ValueError(f"slope p must be finite and > 0, got {self.p}")
        if not math.isfinite(self.e0):
            raise ValueError(f"offset e0 must be finite, got {self.e0}")
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
    """Write per-preset affine parameters as CSV with ``#`` metadata lines, in preset order."""
    unknown = sorted(set(params) - set(PRESETS))
    if unknown:
        raise ValueError(f"cannot write parameters for unknown presets {unknown}")
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key}: {value}\n")
        fh.write(PARAMS_HEADER + "\n")
        for preset in (p for p in PRESETS if p in params):
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
        try:
            table[preset] = LinearParams(p=float(p_w), e0=float(e0_j), covariate_kind=kind)
        except ValueError as exc:
            raise ValueError(f"{origin}: preset {preset!r}: {exc}") from exc
    return table


def read_params_file(path: str | Path) -> dict[str, LinearParams]:
    """Read a per-preset affine parameter file written by :func:`write_params_file`."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read params file {path}: {exc}") from exc
    return _parse_params_text(text, str(path))


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


# The JSON key of each parameter field in a report, per parameter type.
_PARAM_KEYS = {
    LinearParams: {"p": "p_w", "e0": "e0_j", "covariate_kind": "covariate_kind"},
    QpModelParams: {name: name for name in ("kappa", "lam", "mu", "t0", "p_avg",
                                            "valid_qp_range")},
}
# The parameter type of each FitReport parameter field, and how many
# levels of dicts (preset, then class) hold it.
_REPORT_PARAMS = {"linear_params": (LinearParams, 1), "qp_params": (QpModelParams, 2)}


def _params_to_json(params: LinearParams | QpModelParams) -> dict:
    entry = {key: getattr(params, name) for name, key in _PARAM_KEYS[type(params)].items()}
    if "valid_qp_range" in entry:  # an unknown range is written as []
        entry["valid_qp_range"] = list(entry["valid_qp_range"] or ())
    return entry


def _params_from_json(kind: type, entry: dict) -> LinearParams | QpModelParams:
    values = {name: entry[key] for name, key in _PARAM_KEYS[kind].items()}
    if "valid_qp_range" in values:
        values["valid_qp_range"] = tuple(values["valid_qp_range"] or ()) or None
    return kind(**values)


# The JSON type of each annotated Python type, and its name in messages.
_JSON_TYPES = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number"),
               dict: (dict, "an object"), tuple: (list, "a list")}


def check_json(value, hint, key: str, what: str = "report") -> None:
    """Raise ValueError, naming ``key``, unless ``value`` is the JSON of a ``hint`` value.

    The message begins ``<what> key``.  Numbers are JSON numbers (an
    integer where ``hint`` is ``int``), never ``true`` or ``false``; a
    parameter set is an object holding its keys.
    """
    origin = get_origin(hint)
    if origin is Union:  # Optional: null stands for None
        if value is not None:
            check_json(value, get_args(hint)[0], key, what)
        return
    json_type, name = _JSON_TYPES[dict if hint in _PARAM_KEYS else origin or hint]
    if not isinstance(value, json_type) or isinstance(value, bool):
        raise ValueError(f"{what} key {key!r} must be {name}, got {value!r}")
    if hint in _PARAM_KEYS:
        hints = get_type_hints(hint)
        for field_name, entry_key in _PARAM_KEYS[hint].items():
            if entry_key in value:  # a missing key is left to raise KeyError
                check_json(value[entry_key], hints[field_name], f"{key}.{entry_key}", what)
    elif origin is dict:
        for inner_key, inner in value.items():
            check_json(inner, get_args(hint)[1], f"{key}.{inner_key}", what)
    elif origin is tuple:
        for i, inner in enumerate(value):
            check_json(inner, get_args(hint)[0], f"{key}[{i}]", what)


def _map_leaves(value, depth: int, convert):
    """``convert`` applied to the values ``depth`` dict levels down in ``value``."""
    if depth == 0:
        return convert(value)
    return {key: _map_leaves(inner, depth - 1, convert) for key, inner in value.items()}


@dataclass(frozen=True)
class FitReport:
    """Per-preset parameters and error table for one model evaluation.

    Its JSON form holds one key per field.  A field whose value is None is
    left out, and a key whose field has a default may be absent.
    """

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
        payload = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None:
                continue
            if field.name in _REPORT_PARAMS:
                value = _map_leaves(value, _REPORT_PARAMS[field.name][1], _params_to_json)
            payload[field.name] = value
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"a report must be a JSON object, got {type(data).__name__}")
        hints = get_type_hints(cls)
        values = {}
        for field in fields(cls):
            if field.name not in data and field.default is not MISSING:
                continue
            value = data[field.name]
            check_json(value, hints[field.name], field.name)
            if field.name in _REPORT_PARAMS and value is not None:
                kind, depth = _REPORT_PARAMS[field.name]
                value = _map_leaves(value, depth, partial(_params_from_json, kind))
            values[field.name] = tuple(value) if field.name == "per_fold_errors" else value
        return cls(**values)
