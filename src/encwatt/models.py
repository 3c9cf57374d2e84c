"""Energy prediction models and their parameter sets.

Three model families are supported:

* a cubic-in-QP encoding-time baseline multiplied by an average power,
* an affine model in the job's own encoding time, and
* an affine model in the encoding time of a cheap ultrafast probe encode,
  which allows estimating the energy of any preset without running it.

A table of published slope/offset parameters for the ultrafast-time model
ships with the package as JSON (all presets except ultrafast itself, in
watts and joules).  A :class:`FitReport` carries one fit or
cross-validation's parameters and error table, and reads and writes its
JSON form; its ``linear_params`` are what ``estimate --params`` reads.

Every JSON input (a report, the bundled table, a campaign manifest line, a
recipe) is parsed by :func:`parse_json`, which keeps each object's keys as
given, and read by :func:`read_json`, which checks a value against a type
and builds it in one walk, refusing a key the type does not have or a
value given twice.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from importlib.resources import files
from typing import Optional, Union, get_args, get_origin, get_type_hints

__all__ = [
    "PRESETS",
    "COVARIATE_KINDS",
    "MODEL_KINDS",
    "OBJECTIVES",
    "QpModelParams",
    "LinearParams",
    "qp_time_law",
    "affine_energy_law",
    "predict_energy_linear",
    "load_default_params",
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

DEFAULT_PARAMS_RESOURCE = "data/default_uf_params.json"


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


def predict_energy_linear(params: LinearParams, t: float) -> float:
    """Energy predicted by an affine model: ``e0 + p * t`` joules."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"encoding time must be finite and > 0, got {t}")
    return affine_energy_law(params, t)


def load_default_params() -> dict[str, LinearParams]:
    """Bundled ultrafast-time parameters from a published least-squares fit, keyed by preset.

    Covers the eight presets from superfast through veryslow; ultrafast
    has no entry because its own time is the model input.
    """
    text = files("encwatt").joinpath(DEFAULT_PARAMS_RESOURCE).read_text(encoding="utf-8")
    table = read_json(parse_json(text), dict[str, LinearParams], what=DEFAULT_PARAMS_RESOURCE)
    expected = set(PRESETS) - {"ultrafast"}
    if set(table) != expected:
        raise ValueError(
            f"bundled parameter table must cover exactly {sorted(expected)}, got {sorted(table)}"
        )
    return table


# The JSON key of each field of a parameter set.  A parameter set is
# written whole and each of its keys is required; another dataclass is
# keyed by its field names, and a field with a default may be absent.
_JSON_KEYS = {
    LinearParams: {"p": "p_w", "e0": "e0_j", "covariate_kind": "covariate_kind"},
    QpModelParams: {name: name for name in ("kappa", "lam", "mu", "t0", "p_avg",
                                            "valid_qp_range")},
}

# The JSON type of each annotated Python type, and its name in messages.
# A JSON object is read as its pairs (see parse_json).
_JSON_TYPES = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number"),
               dict: (tuple, "an object"), tuple: (list, "a list")}


def _json_fields(cls: type) -> list[tuple[str, str, bool]]:
    """``(field name, JSON key, required)`` for each field of dataclass ``cls``."""
    keys = _JSON_KEYS.get(cls)
    return [(f.name, keys[f.name] if keys else f.name, keys is not None or f.default is MISSING)
            for f in fields(cls)]


def parse_json(text: str):
    """``text`` parsed as JSON, each object kept as its ``(key, value)`` pairs.

    The pairs keep a repeated key, which a dict would drop, so that
    :func:`read_json` can refuse it.
    """
    return json.loads(text, object_pairs_hook=tuple)


def read_json(value, hint, key: str = "", what: str = "report"):
    """``value``, as :func:`parse_json` gives it, checked and built as a ``hint`` value.

    ``hint`` is a dataclass (an object keyed as ``_JSON_KEYS`` says), a
    schema dict of key to hint (an object read as a dict; a str in place of
    a hint makes its key an alias of the key it names), ``dict[str, T]``,
    ``tuple[T, ...]`` (a list), ``tuple[T1, T2]`` (a list of exactly those
    items, each read as its own hint), ``Optional[T]`` (null, or ``[]`` for a
    tuple, stands for None), ``str``, ``int`` or ``float``.  Numbers are
    JSON numbers (an integer where ``hint`` is ``int``), never ``true`` or
    ``false``.  A wrong value, a key the schema lacks, or a value given
    twice (a key repeated, or given under two spellings) raises ValueError
    naming the key's path (``<what> key 'a.b[0]' ...``), and a missing
    required key raises KeyError with its path.
    """
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        if value is None or value == [] and get_origin(args[0]) is tuple:
            return None
        return read_json(value, args[0], key, what)
    json_fields = _json_fields(hint) if is_dataclass(hint) else None
    if json_fields is not None:
        hints = get_type_hints(hint)
        schema = {json_key: hints[name] for name, json_key, _ in json_fields}
    else:
        schema = hint if isinstance(hint, dict) else None
    json_type, noun = _JSON_TYPES[dict if schema is not None else origin or hint]
    where = f"{what} key {key!r}" if key else what
    if not isinstance(value, json_type) or isinstance(value, bool):
        shown = dict(value) if isinstance(value, tuple) else value
        raise ValueError(f"{where} must be {noun}, got {shown!r}")
    prefix = f"{key}." if key else ""
    if origin is tuple:
        item_hints = args if args[-1] is not ... else args[:1] * len(value)
        if len(item_hints) != len(value):
            raise ValueError(f"{where} must hold {len(item_hints)} items, got {len(value)}")
        return tuple(read_json(inner, item_hint, f"{key}[{i}]", what)
                     for i, (inner, item_hint) in enumerate(zip(value, item_hints)))
    if origin is dict:
        schema = dict.fromkeys([name for name, _ in value], args[1])
    if schema is None:
        return float(value) if hint is float else value
    read, given = {}, {}  # each key's value, and the name it was given under
    for name, inner in value:
        if name not in schema:  # named by the noun alone: "unknown recipe key"
            raise ValueError(f"unknown {what.split()[0]} key {prefix + name!r}")
        canonical = schema[name] if isinstance(schema[name], str) else name
        if canonical in given:
            raise ValueError(f"{what} gives {prefix + canonical!r} twice: "
                             f"as {given[canonical]!r} and {name!r}")
        given[canonical] = name
        read[canonical] = read_json(inner, schema[canonical], prefix + name, what)
    if json_fields is None:
        return read
    missing = [json_key for _, json_key, required in json_fields
               if required and json_key not in read]
    if missing:
        raise KeyError(prefix + missing[0])
    return hint(**{name: read[json_key] for name, json_key, _ in json_fields if json_key in read})


def _write_json(value):
    """The JSON that :func:`read_json` reads back as ``value``.

    A None field is left out, or written ``[]`` where its key is required.
    """
    if is_dataclass(value):
        return {json_key: _write_json(() if item is None else item)
                for name, json_key, required in _json_fields(type(value))
                if (item := getattr(value, name)) is not None or required}
    if isinstance(value, dict):
        return {k: _write_json(inner) for k, inner in value.items()}
    if isinstance(value, tuple):
        return [_write_json(inner) for inner in value]
    return value


@dataclass(frozen=True)
class FitReport:
    """Per-preset parameters and error table for one model evaluation.

    Its JSON form holds one key per field.  A field whose value is None is
    left out, a key whose field has a default may be absent, and an
    unknown key is refused.
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
        return json.dumps(_write_json(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FitReport":
        """Read a report, refusing an unknown key, a wrongly typed value, a repeated key,
        a table key that is not a preset, or tables that disagree.

        ``per_preset_error`` must name a preset, and each other preset table
        present must name the same ones; per preset, ``per_class_error``
        must name the classes ``qp_params`` does.
        """
        report = read_json(parse_json(text), cls)
        for field in ("linear_params", "qp_params", "per_preset_error", "per_class_error"):
            for preset in getattr(report, field) or {}:
                if preset not in PRESETS:
                    raise ValueError(f"report key '{field}.{preset}' is not a preset")
        if not report.per_preset_error:
            raise ValueError("report table 'per_preset_error' is empty")
        for field in ("linear_params", "qp_params", "per_class_error"):
            if getattr(report, field) is not None:
                _same_keys(("per_preset_error", report.per_preset_error),
                           (field, getattr(report, field)), "preset")
        if report.qp_params is not None and report.per_class_error is not None:
            for preset, classes in report.qp_params.items():
                _same_keys((f"qp_params.{preset}", classes),
                           (f"per_class_error.{preset}", report.per_class_error[preset]), "class")
        return report


def _same_keys(a: tuple[str, dict], b: tuple[str, dict], what: str) -> None:
    """Refuse two report tables, each given as ``(name, table)``, unless their keys agree."""
    for (name, table), (other_name, other) in ((a, b), (b, a)):
        missing = [key for key in other if key not in table]
        if missing:
            raise ValueError(f"report table {name!r} has no {what} {missing[0]!r}, "
                             f"which {other_name!r} has")
