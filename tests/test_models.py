"""Prediction models and the bundled parameter table."""

import json
import re
from pathlib import Path, PurePosixPath

import pytest

from encwatt.errors import ManifestError
from encwatt.meter import load_recipe
from encwatt.models import (
    PRESETS,
    FitReport,
    LinearParams,
    QpModelParams,
    load_default_params,
    predict_energy_linear,
    qp_time_law,
)
from encwatt.runner import load_manifest
from encwatt.synth import load_dataset_recipe


def test_preset_list_has_nine_entries_fastest_first():
    assert len(PRESETS) == 9
    assert PRESETS[0] == "ultrafast"
    assert PRESETS[-1] == "veryslow"


# ── QP model ──────────────────────────────────────────────────────────────

def test_qp_time_at_zero_is_offset():
    params = QpModelParams(kappa=1e-4, lam=1e-3, mu=0.01, t0=10.0)
    assert qp_time_law(params, 0.0) == 10.0


def test_qp_time_hand_value():
    params = QpModelParams(kappa=1e-4, lam=1e-3, mu=0.01, t0=10.0)
    # 0.8 - 0.4 - 0.2 + 10
    assert qp_time_law(params, 20.0) == pytest.approx(10.2, rel=1e-12)


def test_qp_sign_convention_lambda_decreases_prediction():
    lo = QpModelParams(kappa=1e-4, lam=1e-3, mu=0.01, t0=10.0)
    hi = QpModelParams(kappa=1e-4, lam=2e-3, mu=0.01, t0=10.0)
    assert qp_time_law(hi, 20.0) < qp_time_law(lo, 20.0)


def test_qp_time_matches_horner_oracle():
    params = QpModelParams(kappa=3.2e-4, lam=2.1e-3, mu=0.045, t0=12.5)
    for qp in range(0, 52):
        horner = ((params.kappa * qp - params.lam) * qp - params.mu) * qp + params.t0
        assert qp_time_law(params, float(qp)) == pytest.approx(horner, rel=1e-12)


def test_qp_nonpositive_power_rejected_at_construction():
    with pytest.raises(ValueError):
        QpModelParams(kappa=1e-4, lam=1e-3, mu=0.01, t0=10.0, p_avg=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["kappa", "lam", "mu", "t0", "p_avg"])
def test_qp_non_finite_value_rejected_at_construction(name, value):
    values = {"kappa": 1e-4, "lam": 1e-3, "mu": 0.01, "t0": 10.0, "p_avg": 100.0}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        QpModelParams(**{**values, name: value})


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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["p", "e0"])
def test_linear_non_finite_value_rejected_at_construction(name, value):
    with pytest.raises(ValueError, match="must be finite"):
        LinearParams(**{"p": 100.0, "e0": 1.0, name: value})


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


def test_every_bundled_data_file_is_packaged():
    # an editable install reads src/ directly, so a package-data glob that
    # misses a file would ship a wheel without it and no other test would fail
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    with (root / "pyproject.toml").open("rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["encwatt"]
    package = root / "src" / "encwatt"
    data = [PurePosixPath(path.relative_to(package).as_posix())
            for path in (package / "data").rglob("*") if path.is_file()]
    assert data
    assert [path for path in data if not any(path.match(glob) for glob in globs)] == []


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


# ── fit reports ───────────────────────────────────────────────────────────

_QP = {"kappa": 1e-4, "lam": 1e-3, "mu": 0.01, "t0": 10.0}
_REPORTS = [
    FitReport(model_kind="qp_cubic", validation="kfold", k=5, seed=1, objective="abs_rel",
              per_preset_error={"fast": 0.1}, overall_error=0.1, per_fold_errors=(0.1, 0.2),
              qp_params={"fast": {"A": QpModelParams(**_QP, p_avg=2.0,
                                                     valid_qp_range=(18.0, 38.0)),
                                  "B": QpModelParams(**_QP)}},
              per_class_error={"fast": {"A": 0.05, "B": 0.15}}, tool_version="encwatt 0"),
    FitReport(model_kind="uf_linear", validation="in_sample", k=0, seed=0,
              objective="squared_rel", per_preset_error={"medium": 0.05}, overall_error=0.05,
              linear_params={"medium": LinearParams(p=358.21, e0=-25.51)}),
]


@pytest.mark.parametrize("report", _REPORTS, ids=["qp_cubic", "uf_linear"])
def test_fit_report_json_round_trip_is_identity(report):
    text = report.to_json()
    assert FitReport.from_json(text) == report
    assert FitReport.from_json(text).to_json() == text


def test_fit_report_json_keys():
    qp, linear = (json.loads(report.to_json()) for report in _REPORTS)
    assert qp["qp_params"]["fast"]["A"] == {**_QP, "p_avg": 2.0, "valid_qp_range": [18.0, 38.0]}
    assert qp["qp_params"]["fast"]["B"]["valid_qp_range"] == []
    assert linear["linear_params"] == {
        "medium": {"p_w": 358.21, "e0_j": -25.51, "covariate_kind": "ultrafast_time"}}
    assert "qp_params" not in linear and "per_class_error" not in linear


@pytest.mark.parametrize("unknown", [None, []])
def test_fit_report_reads_an_unknown_qp_range_as_none(unknown):
    # [] is how a report writes a range it does not know
    payload = json.loads(_REPORTS[0].to_json())
    payload["qp_params"]["fast"]["A"]["valid_qp_range"] = unknown
    assert FitReport.from_json(json.dumps(payload)).qp_params["fast"]["A"].valid_qp_range is None


@pytest.mark.parametrize("qp_range", [[20, 30, 40], [20]])
def test_fit_report_reads_a_qp_range_of_two_items_only(qp_range):
    # a range of another length would only fail later, when predicting
    payload = json.loads(_REPORTS[0].to_json())
    payload["qp_params"]["fast"]["A"]["valid_qp_range"] = qp_range
    with pytest.raises(ValueError) as info:
        FitReport.from_json(json.dumps(payload))
    assert str(info.value) == ("report key 'qp_params.fast.A.valid_qp_range' must hold 2 items, "
                               f"got {len(qp_range)}")


@pytest.mark.parametrize("path", [("validation",), ("linear_params", "medium", "e0_j")])
def test_fit_report_missing_required_key_raises_key_error(path):
    payload = json.loads(_REPORTS[1].to_json())
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    with pytest.raises(KeyError):
        FitReport.from_json(json.dumps(payload))


# ── every JSON reader ─────────────────────────────────────────────────────

def _read_manifest(tmp_path, misspelt):
    entry = {"sequence_id": "s1", "input": "a.yuv", "frames": 10, "preset": "fast", "crf": 23}
    path = tmp_path / "jobs.jsonl"
    path.write_text(json.dumps({**entry, **misspelt}) + "\n")
    load_manifest(path)


def _read_report(tmp_path, misspelt):
    payload = json.loads(_REPORTS[1].to_json())
    if "p" in misspelt:
        payload["linear_params"]["medium"].update(misspelt)
    else:
        payload.update(misspelt)
    FitReport.from_json(json.dumps(payload))


def _read_synth_recipe(tmp_path, misspelt):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"n_sequences": 2, **misspelt}))
    load_dataset_recipe(path)


def _read_meter_recipe(tmp_path, misspelt):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"base": 20, **misspelt}))
    load_recipe(str(path))


@pytest.mark.parametrize(("read", "misspelt", "named"), [
    (_read_manifest, {"clas": "B"}, "clas"),
    (_read_manifest, {"extra-args": ["--x"]}, "extra-args"),
    (_read_report, {"per_fold_error": [0.1]}, "per_fold_error"),
    (_read_report, {"p": 358.21}, "linear_params.medium.p"),
    (_read_synth_recipe, {"n_sequence": 4}, "n_sequence"),
    (_read_meter_recipe, {"seeds": 4}, "seeds"),
], ids=["manifest-clas", "manifest-extra-args", "report-per_fold_error", "report-p",
        "synth-recipe", "meter-recipe"])
def test_every_json_reader_refuses_a_misspelt_key_naming_it(tmp_path, read, misspelt, named):
    # the value would otherwise be dropped without a word
    with pytest.raises((ValueError, ManifestError), match=f"unknown .*key {named!r}"):
        read(tmp_path, misspelt)


def _given_twice(text, key):
    """``text`` with the first ``"key": <scalar>`` pair in it given twice."""
    return re.sub(rf'("{key}": [^,{{}}\n]+)', r"\1, \1", text, count=1)


_READERS = {
    "manifest": load_manifest,
    "report": lambda path: FitReport.from_json(path.read_text()),
    "synth-recipe": load_dataset_recipe,
    "meter-recipe": lambda path: load_recipe(str(path)),
}


@pytest.mark.parametrize(("reader", "text", "key", "named"), [
    ("manifest", json.dumps({"sequence_id": "s1", "input": "a.yuv", "frames": 10,
                             "preset": "fast", "crf": 23}), "sequence_id", "sequence_id"),
    ("report", _REPORTS[0].to_json(), "overall_error", "overall_error"),
    ("report", _REPORTS[0].to_json(), "fast", "per_preset_error.fast"),
    ("report", _REPORTS[1].to_json(), "p_w", "linear_params.medium.p_w"),
    ("synth-recipe", json.dumps({"n_sequences": 2, "seed": 1}), "seed", "seed"),
    ("meter-recipe", json.dumps({"base": 20, "seed": 1}), "base", "base_power"),
], ids=["manifest", "report", "report-nested", "report-params", "synth-recipe", "meter-recipe"])
def test_every_json_reader_refuses_a_key_given_twice_naming_its_path(tmp_path, reader, text,
                                                                     key, named):
    # a plain json.loads keeps the last of the two without a word
    path = tmp_path / "input.json"
    path.write_text(_given_twice(text, key) + "\n")
    assert path.read_text().count(f'"{key}":') == text.count(f'"{key}":') + 1
    with pytest.raises((ValueError, ManifestError), match=re.escape(f"gives {named!r} twice")):
        _READERS[reader](path)
