"""Command-line surface: exit codes, outputs, determinism."""

import argparse
import hashlib
import importlib
import json
import pkgutil
import os
import re
import shlex
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import encwatt
from encwatt.cli import build_parser, main
from encwatt.dataset import DATASET_COLUMNS, load_dataset_csv
from encwatt.errors import AcquisitionError, DatasetError, FitError, ManifestError
from encwatt.models import PRESETS, FitReport
from encwatt.synth import GROUND_TRUTH


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _quick_start_commands():
    """The ``encwatt`` lines of the ``sh`` block under README's Quick start, split into words."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quick start\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("encwatt ")]


def test_readme_quick_start_runs_as_written(tmp_path):
    commands = _quick_start_commands()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(encwatt.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    for words in commands:
        done = subprocess.run([sys.executable, "-m", "encwatt.cli", *words[1:]], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (words, done.stderr)
    assert commands[-1][1:3] == ["estimate", "--params"]
    header, *estimates = done.stdout.splitlines()
    assert header == "preset estimate_j estimate_kj"
    assert [line.split()[0] for line in estimates] == list(PRESETS[1:])


# ── settings ──────────────────────────────────────────────────────────────

# The options of the tool ("") and of each command, --help aside.  A new
# option, or a removed one, is a deliberate edit of this table.
CLI_OPTIONS = {
    "": ["--version"],
    "measure": ["--alpha", "--beta", "--encoder-cmd", "--idle-trace", "--max-reps", "--meter",
                "--min-reps", "--out", "--resume"],
    "estimate": ["--defaults", "--params", "--preset", "--t-uf"],
    "fit": ["--model", "--objective", "--out"],
    "crossval": ["--joint-folds", "--k", "--model", "--objective", "--out", "--seed"],
    "report": [],
    "synth": ["--noise", "--out", "--recipe", "--seed", "--time-jitter"],
}


def _options(parser):
    return sorted(option for action in parser._actions
                  if not isinstance(action, argparse._HelpAction)
                  for option in action.option_strings)


def test_cli_option_inventory():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {"": _options(parser)}
    found.update((name, _options(command)) for name, command in commands.choices.items())
    assert found == CLI_OPTIONS


@pytest.mark.parametrize("argv", [
    ["measure", "jobs.jsonl", "--meter", "synth:base=20", "--encoder-cmd", "true",
     "--out", "d.csv", "--sample-period", "0.1"],
    ["fit", "d.csv", "--model", "uf_linear", "--seed", "1"],
])
def test_removed_settings_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ── import ────────────────────────────────────────────────────────────────

# Blocks every import of one package (or subpackage, such as numpy.random),
# imports the given modules, then runs each command in one process and
# prints the exit codes and the package's loaded modules.
_BLOCKED_IMPORT_SCRIPT = """
import importlib, json, sys
from contextlib import redirect_stdout
from io import StringIO

blocked = sys.argv[1]

def inside(name):
    return name == blocked or name.startswith(blocked + ".")

class Block:
    def find_spec(self, name, path=None, target=None):
        if inside(name):
            raise ImportError(f"{blocked} is blocked: {name}")

sys.meta_path.insert(0, Block())
sys.path.insert(0, sys.argv[2])
for module in json.loads(sys.argv[4]):
    importlib.import_module(module)
from encwatt.cli import main

codes = []
for argv in json.loads(sys.argv[3]):
    with redirect_stdout(StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:  # argparse exits after --version and --help
            codes.append(exc.code)
print(json.dumps([codes, sorted(m for m in sys.modules if inside(m))]))
"""


def run_with_import_blocked(package, commands, modules=()):
    """Exit codes of ``commands``, run after importing ``modules``, the modules
    of ``package`` left loaded, and stderr."""
    src = str(Path(encwatt.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_IMPORT_SCRIPT, package, src, json.dumps(commands),
         json.dumps(list(modules))],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    return codes, modules, proc.stderr


def test_cli_import_does_not_load_scipy(tmp_path, input_file, stub_encoder):
    # numpy is the only runtime dependency: no subcommand may import scipy,
    # including measure once its stopping rule reaches a verdict
    manifest = tmp_path / "jobs.jsonl"
    write_manifest(manifest, input_file, presets=("ultrafast",), n_seqs=1)
    encoder = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}}"
    )
    data, report = str(tmp_path / "d.csv"), str(tmp_path / "r.json")
    commands = [
        ["measure", str(manifest), "--meter", "synth:base=20,active=30,noise=0,period=0.02",
         "--encoder-cmd", encoder, "--out", str(tmp_path / "m.csv"),
         "--min-reps", "2", "--max-reps", "3", "--beta", "0.3"],
        ["synth", "--out", data, "--seed", "1"],
        ["crossval", data, "--model", "uf_linear", "--out", report],
        ["fit", data, "--model", "qp_cubic"],
        ["estimate", "--defaults", "--t-uf", "2.0"],
        ["report", report],
    ]
    codes, scipy_modules, stderr = run_with_import_blocked("scipy", commands)
    assert codes == [0] * len(commands), stderr
    assert scipy_modules == []
    assert len(load_dataset_csv(tmp_path / "m.csv")) == 1


def test_version_help_estimate_and_report_run_without_numpy(capsys, tmp_path):
    # the probe-time estimate is the paper's product: it must not wait for numpy
    data = str(tmp_path / "d.csv")
    run_cli(capsys, "synth", "--out", data, "--seed", "1")
    reports = []
    for model in ("uf_linear", "qp_cubic"):
        reports.append(str(tmp_path / f"{model}.json"))
        code, _, err = run_cli(capsys, "fit", data, "--model", model, "--out", reports[-1])
        assert code == 0, err
    commands = [
        ["--version"],
        ["--help"],
        *([name, "--help"] for name in ("measure", "estimate", "fit", "crossval", "report",
                                        "synth")),
        ["estimate", "--defaults", "--t-uf", "2.0"],
        ["estimate", "--defaults", "--t-uf", "2.0", "--preset", "medium"],
        ["estimate", "--params", reports[0], "--t-uf", "2.0"],
        *(["report", report] for report in reports),
    ]
    codes, numpy_modules, stderr = run_with_import_blocked("numpy", commands)
    assert codes == [0] * len(commands), stderr
    assert numpy_modules == []


def test_fit_and_crossval_run_without_numpy_random(capsys, tmp_path):
    # folds are drawn from the standard library: of all commands, only synth
    # and a synth: meter draw from numpy.random
    data = str(tmp_path / "d.csv")
    run_cli(capsys, "synth", "--out", data, "--seed", "1")
    commands = [
        ["fit", data, "--model", "qp_cubic"],
        ["crossval", data, "--model", "uf_linear"],
        ["crossval", data, "--model", "qp_cubic", "--joint-folds"],
    ]
    codes, random_modules, stderr = run_with_import_blocked("numpy.random", commands)
    assert codes == [0] * len(commands), stderr
    assert random_modules == []


# The modules that hold array code and import numpy when they are imported,
# and those that import without it: a command loads numpy only when it runs
# one of the first or first builds a power trace.
NUMPY_MODULES = ["fitting", "synth"]
NUMPY_FREE_MODULES = ["cli", "dataset", "energy", "errors", "meter", "models", "runner"]


def test_only_fitting_and_synth_import_numpy():
    names = sorted(info.name for info in pkgutil.iter_modules(encwatt.__path__))
    assert names == sorted(NUMPY_MODULES + NUMPY_FREE_MODULES)  # a new module takes a side
    codes, numpy_modules, stderr = run_with_import_blocked(
        "numpy", [], modules=[f"encwatt.{name}" for name in NUMPY_FREE_MODULES])
    assert codes == [], stderr
    assert numpy_modules == []


# Adds one joule to the counter file its first argument names, then runs the
# rest of its arguments as the encoder.
_COUNTER_BUMP = textwrap.dedent("""
    import os, subprocess, sys

    counter = sys.argv[1]
    with open(counter) as fh:
        value = int(fh.read()) + 1_000_000
    with open(counter + ".tmp", "w") as fh:
        fh.write(f"{value}\\n")
    os.replace(counter + ".tmp", counter)
    sys.exit(subprocess.call(sys.argv[2:]))
""")


def test_measure_on_a_counter_meter_runs_without_numpy(tmp_path, input_file, stub_encoder):
    # encwatt shares the measured machine with the encoder for the whole
    # campaign; the counter path builds no trace, so it must not load numpy
    counter, bump = tmp_path / "energy_uj", tmp_path / "bump.py"
    counter.write_text("7000000\n")
    bump.write_text(_COUNTER_BUMP)
    manifest, out = tmp_path / "jobs.jsonl", tmp_path / "d.csv"
    write_manifest(manifest, input_file, presets=("ultrafast", "fast"), n_seqs=1)
    encoder = (
        f"{sys.executable} {bump} {counter} {sys.executable} {stub_encoder} --input {{input}} "
        f"--output {{output}} --preset {{preset}} --crf {{crf}} --frames {{frames}}"
    )
    commands = [["measure", str(manifest), "--meter", f"counter:{counter}",
                 "--encoder-cmd", encoder, "--out", str(out),
                 "--min-reps", "2", "--max-reps", "3"]]
    codes, numpy_modules, stderr = run_with_import_blocked("numpy", commands)
    assert codes == [0], stderr
    assert numpy_modules == []
    # each encode adds one joule and the counter stands still while idle
    rows = load_dataset_csv(out).rows
    assert [(row.preset, row.energy, row.reps, row.confident) for row in rows] == [
        ("ultrafast", 1.0, 2, True), ("fast", 1.0, 2, True)]
    assert counter.read_text() == "11000000\n"


def test_every_exported_name_resolves():
    # a name left in `__all__` after its definition is deleted breaks
    # `from encwatt.<module> import *`
    modules = [importlib.import_module(f"encwatt.{info.name}")
               for info in pkgutil.iter_modules(encwatt.__path__)]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert exporting
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_only_models_parses_json():
    # every JSON input goes through models.parse_json, which keeps a
    # repeated key for read_json to refuse; a plain json.loads drops it
    modules = [importlib.import_module(f"encwatt.{info.name}")
               for info in pkgutil.iter_modules(encwatt.__path__)]
    parsing = [module.__name__ for module in modules
               if re.search(r"\bjson\.loads?\(", Path(module.__file__).read_text())]
    assert parsing == ["encwatt.models"]


# ── estimate ──────────────────────────────────────────────────────────────

def test_estimate_single_preset(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--defaults", "--preset", "superfast",
                           "--t-uf", "2.0")
    assert code == 0
    value = float(out.split()[1])
    assert value == pytest.approx(310.99, rel=1e-9)
    assert "kJ" in out


def test_estimate_full_table_monotone(capsys):
    code, out, _ = run_cli(capsys, "estimate", "--defaults", "--t-uf", "2.0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "preset estimate_j estimate_kj"
    body = [ln.split() for ln in lines[1:]]
    assert len(body) == 8
    values = {row[0]: float(row[1]) for row in body}
    assert values["superfast"] < values["veryfast"] < values["faster"] < values["fast"]
    assert values["slow"] < values["slower"] < values["veryslow"]
    assert values["veryslow"] == pytest.approx(13967.93, rel=1e-9)


def test_estimate_ultrafast_with_defaults_is_explained(capsys):
    code, _, err = run_cli(capsys, "estimate", "--defaults", "--preset", "ultrafast",
                           "--t-uf", "2.0")
    assert code == 2
    assert "ultrafast" in err
    assert "probe" in err


def test_estimate_requires_exactly_one_source(capsys, tmp_path):
    code, _, err = run_cli(capsys, "estimate", "--t-uf", "2.0")
    assert code == 2
    code, _, err = run_cli(capsys, "estimate", "--defaults", "--params", "x", "--t-uf", "2.0")
    assert code == 2


def test_estimate_rejects_nonpositive_probe_time(capsys):
    code, _, err = run_cli(capsys, "estimate", "--defaults", "--t-uf", "0.0")
    assert code == 2


@pytest.mark.parametrize("t_uf", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("preset", [(), ("--preset", "fast")])
def test_estimate_rejects_non_finite_probe_time_before_any_output(capsys, t_uf, preset):
    code, out, err = run_cli(capsys, "estimate", "--defaults", *preset, f"--t-uf={t_uf}")
    assert code == 2
    assert out == ""
    assert "--t-uf" in err


def write_params_report(path, linear_params):
    """Write a fit report whose ``linear_params`` is the JSON object given."""
    path.write_text(json.dumps({
        "model_kind": "time_linear", "validation": "in_sample", "k": 0, "seed": 0,
        "objective": "squared_rel", "per_preset_error": dict.fromkeys(linear_params, 0.1),
        "overall_error": 0.1, "linear_params": linear_params,
    }))  # json writes a non-finite float as the bare token NaN or Infinity


def test_estimate_own_time_params_warn(capsys, tmp_path):
    path = tmp_path / "own.json"
    write_params_report(path, {"medium": {"covariate_kind": "own_time", "p_w": 100.0,
                                          "e0_j": 2.0}})
    code, out, err = run_cli(capsys, "estimate", "--params", str(path),
                             "--preset", "medium", "--t-uf", "2.0")
    assert code == 0
    assert float(out.split()[1]) == pytest.approx(202.0)
    assert "own_time" in err


@pytest.mark.parametrize("preset", [(), ("--preset", "medium")])
def test_estimate_rejects_non_finite_params_before_any_output(capsys, tmp_path, preset):
    path = tmp_path / "p.json"
    write_params_report(path, {"medium": {"covariate_kind": "ultrafast_time",
                                          "p_w": float("nan"), "e0_j": float("inf")}})
    code, out, err = run_cli(capsys, "estimate", "--params", str(path), *preset,
                             "--t-uf", "2")
    assert code == 2
    assert out == ""
    assert str(path) in err and "finite" in err


@pytest.mark.parametrize(("linear_params", "shown"), [
    # a parameter CSV, which earlier versions read, is no report
    ("preset,covariate_kind,p_w,e0_j\nmedium,ultrafast_time,100,2\n",
     "Expecting value: line 1 column 1 (char 0)"),
    ({"medium": {"covariate_kind": "wall_clock", "p_w": 100, "e0_j": 2}},
     "covariate_kind must be one of"),
], ids=["parameter_csv", "covariate_kind"])
def test_estimate_malformed_params_file_exits_two_naming_it(capsys, tmp_path, linear_params,
                                                             shown):
    path = tmp_path / "p.json"
    if isinstance(linear_params, str):
        path.write_text(linear_params)
    else:
        write_params_report(path, linear_params)
    code, out, err = run_cli(capsys, "estimate", "--params", str(path), "--t-uf", "2")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: cannot read report {path}: {shown}")


def test_estimate_from_a_qp_cubic_report_exits_two_naming_it(capsys, tmp_path):
    # a qp_cubic report holds no per-preset linear parameters to estimate with
    data, report = tmp_path / "d.csv", tmp_path / "qp.json"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    run_cli(capsys, "fit", str(data), "--model", "qp_cubic", "--out", str(report))
    code, out, err = run_cli(capsys, "estimate", "--params", str(report), "--t-uf", "2")
    assert (code, out) == (2, "")
    assert err == (f"error: {report}: report holds no per-preset linear parameters; "
                   f"fit a uf_linear or time_linear model\n")


def test_estimate_preset_missing_from_params_file_exits_two(capsys, tmp_path):
    path = tmp_path / "p.json"
    write_params_report(path, {"medium": {"covariate_kind": "ultrafast_time", "p_w": 100,
                                          "e0_j": 2}})
    code, out, err = run_cli(capsys, "estimate", "--params", str(path), "--preset", "slow",
                             "--t-uf", "2")
    assert code == 2 and out == ""
    assert err == f"error: {path}: no parameters for preset 'slow'\n"


# The sha256 of `estimate --t-uf 2.0`'s stdout followed by its stderr: with
# the bundled table, and with the `fit --out` and `crossval --out` reports of
# a linear model on `synth --seed 1` (stderr holds time_linear's own_time
# warning).  The values were taken when the table and `--params` were read
# from a parameter CSV, so the reports must give the same bytes.
@pytest.mark.parametrize(("source", "preset", "sha256"), [
    pytest.param(source, preset, sha256, id=f"{source}-{preset or 'all'}")
    for source, preset, sha256 in [
        ("defaults", None, "80ca9db17e7ff270435f9972cf52dd383aa698cd0a6ff05135eff7fa857da38d"),
        ("defaults", "superfast", "7f5875bd7d0093ab6d141c3db7b22a4884306df3d9d3f04f0502386e7d29dd60"),
        ("defaults", "veryfast", "f90cfc6118bf16ea89e6bebd5eeee42761b498451ef72086ef45c008ead12668"),
        ("defaults", "faster", "66a9e99bf8b32ac1e1526df5ebc8ca75ebc7f1d621312f51a2d03dad55288929"),
        ("defaults", "fast", "f11b72b736ccb099586fc8a96f2adb2eeb148e144c5eb2c45a390c8c0be85014"),
        ("defaults", "medium", "68dea1a71a156834d48665924ba91db1f248e47f80bac562b926e20874b30a3c"),
        ("defaults", "slow", "f2d97a3a3e2d30898e674a20f11b43b87e772fe627009547dac3c4fb2e19890a"),
        ("defaults", "slower", "7687965f4c2c1c1768b3b06e5bb25d008781347ce6a76f9c6b18ea55a571597b"),
        ("defaults", "veryslow", "3910c3dd86cfde4a39a434b51647326bd4554ebcf90a4fed40c32eebdbd27220"),
        ("uf_linear", None, "67fc0b7f04872f3a4c1c5300751cb32c8dedc42e54b5238f40c8a3d24654cb55"),
        ("uf_linear", "medium", "732fae9f6c4050e55317b936ae04648a248e5c901d0d612099b17266890c00d6"),
        ("time_linear", None, "733ba7f5de394f1b56f195a1cd0624bb66060c0996f2ee3bfddffa58b4308ea3"),
        ("time_linear", "medium", "51eabe6eec5e5374225c04efc45a5770b9a812ef08a21eb09881064f821eaf80"),
        ("time_linear", "ultrafast",
         "e06626eb73971d53ddecd43fc02692c6286f32eb57e9b538e9976a285a917e81"),
    ]
])
def test_estimate_output_bytes_are_pinned(capsys, tmp_path, source, preset, sha256):
    data = tmp_path / "d.csv"
    sources = [["--defaults"]]
    if source != "defaults":
        run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
        sources = []
        for command in ("fit", "crossval"):
            report = tmp_path / f"{command}.json"
            run_cli(capsys, command, str(data), "--model", source, "--out", str(report))
            sources.append(["--params", str(report)])
    chosen = ["--preset", preset] if preset else []
    for given in sources:
        code, out, err = run_cli(capsys, "estimate", *given, *chosen, "--t-uf", "2.0")
        assert code == 0
        assert hashlib.sha256((out + err).encode()).hexdigest() == sha256


# ── files that cannot be read or written ──────────────────────────────────

@pytest.mark.parametrize("argv", [
    ["estimate", "--params", "{missing}/r.json", "--t-uf", "2"],
    ["fit", "{data}", "--model", "uf_linear", "--out", "{missing}/r.json"],
    ["crossval", "{data}", "--model", "uf_linear", "--out", "{missing}/r.json"],
    ["synth", "--out", "{missing}/d.csv"],
], ids=["estimate-params", "fit-out", "crossval-out", "synth-out"])
def test_file_that_cannot_be_read_or_written_exits_two(capsys, tmp_path, argv):
    data, missing = tmp_path / "d.csv", tmp_path / "no_such_dir"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    argv = [arg.format(data=data, missing=missing) for arg in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith("error: ") and str(missing) in line


@pytest.mark.parametrize("error, code, prefix", [
    (ManifestError("bad manifest"), 2, "error"),
    (DatasetError("bad row"), 2, "error"),
    (FitError("bad fit"), 2, "error"),
    (ValueError("bad value"), 2, "error"),
    (OSError("bad file"), 2, "error"),
    (AcquisitionError("bad meter"), 3, "meter error"),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, error, code, prefix):
    # the exit-code table of the README: 2 refuses the input, 3 is the meter's
    def fail(args):
        raise error

    monkeypatch.setattr("encwatt.cli.cmd_report", fail)
    assert run_cli(capsys, "report", "unused.json") == (code, "", f"{prefix}: {error}\n")


# ── synth + fit + crossval + report ───────────────────────────────────────

def test_synth_writes_expected_grid(capsys, tmp_path):
    out = tmp_path / "data.csv"
    code, stdout, _ = run_cli(capsys, "synth", "--out", str(out), "--seed", "1")
    assert code == 0
    assert "900 rows" in stdout
    ds = load_dataset_csv(out)
    assert len(ds) == 900


def test_synth_zero_noise_then_fit_recovers_constants(capsys, tmp_path):
    out = tmp_path / "clean.csv"
    code, _, _ = run_cli(capsys, "synth", "--out", str(out),
                         "--noise", "0", "--time-jitter", "0", "--seed", "0")
    assert code == 0
    report = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "fit", str(out), "--model", "time_linear",
                              "--out", str(report))
    assert code == 0
    fitted = FitReport.from_json(report.read_text()).linear_params
    for preset, law in GROUND_TRUTH.items():
        assert fitted[preset].p == pytest.approx(law.power_w, rel=1e-9)
        assert fitted[preset].e0 == pytest.approx(law.offset_j, rel=1e-9)


def test_crossval_report_is_deterministic(capsys, tmp_path):
    data = tmp_path / "d.csv"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "3")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1, stdout1, _ = run_cli(capsys, "crossval", str(data), "--model", "uf_linear",
                                "--seed", "5", "--out", str(out1))
    code2, stdout2, _ = run_cli(capsys, "crossval", str(data), "--model", "uf_linear",
                                "--seed", "5", "--out", str(out2))
    assert code1 == code2 == 0
    assert stdout1 == stdout2
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["seed"] == 5
    assert payload["k"] == 10
    assert payload["tool_version"].startswith("encwatt")


def test_crossval_prints_error_table_with_average(capsys, tmp_path):
    data = tmp_path / "d.csv"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "2")
    code, stdout, _ = run_cli(capsys, "crossval", str(data), "--model", "uf_linear")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert any(ln.startswith("average ") for ln in lines)
    # probe-covariate model: error table has the eight non-probe presets
    header_idx = lines.index("preset mean_abs_rel_error_pct")
    error_rows = lines[header_idx + 1:]
    assert len([ln for ln in error_rows if not ln.startswith("average")]) == 8
    assert not any(ln.startswith("ultrafast") for ln in error_rows)


def test_fit_qp_missing_class_column_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "sequence_id,preset,crf,frames,avg_qp,t_enc_s,t_enc_uf_s,energy_j,reps,confident\n"
        "s1,medium,23.0,100,25.0,3.0,1.0,350.0,1,true\n"
    )
    code, _, err = run_cli(capsys, "fit", str(bad), "--model", "qp_cubic")
    assert code == 2
    assert "class" in err


def test_fit_empty_dataset_exits_two(capsys, tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("")
    code, out, err = run_cli(capsys, "fit", str(data), "--model", "time_linear")
    assert code == 2 and out == ""
    assert err == f"error: {data}: empty file\n"


def test_fit_bad_dataset_value_exits_two(capsys, tmp_path):
    data = tmp_path / "d.csv"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    text = data.read_text().splitlines()
    text[1] = text[1].replace("true", "maybe")
    data.write_text("\n".join(text) + "\n")
    code, _, err = run_cli(capsys, "fit", str(data), "--model", "uf_linear")
    assert code == 2
    assert "row 2" in err


@pytest.mark.parametrize("command", ["fit", "crossval"])
@pytest.mark.parametrize("spelling", ["same", "other"])
def test_fit_out_naming_the_dataset_exits_two(capsys, tmp_path, monkeypatch, command, spelling):
    # the report would overwrite the measured campaign
    data = tmp_path / "d.csv"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    before = data.read_bytes()
    monkeypatch.chdir(tmp_path)
    out = str(data) if spelling == "same" else "./d.csv"
    code, stdout, err = run_cli(capsys, command, str(data), "--model", "uf_linear", "--out", out)
    assert code == 2
    assert err == f"error: --out {out} is the dataset: the report would overwrite it\n"
    assert stdout == ""
    assert data.read_bytes() == before


def test_crossval_out_of_range_avg_qp_exits_two(capsys, tmp_path):
    data = tmp_path / "d.csv"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    lines = data.read_text().splitlines()
    fields = lines[4].split(",")
    fields[5] = "60.0"  # avg_qp
    lines[4] = ",".join(fields)
    data.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "crossval", str(data), "--model", "qp_cubic")
    assert code == 2
    assert "row 5" in err and "avg_qp" in err


@pytest.mark.parametrize("model", ["qp_cubic", "time_linear", "uf_linear"])
@pytest.mark.parametrize("command", ["fit", "crossval"])
def test_report_round_trip(capsys, tmp_path, command, model):
    data = tmp_path / "d.csv"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    report_path = tmp_path / "report.json"
    _, fit_stdout, _ = run_cli(capsys, command, str(data), "--model", model,
                               "--out", str(report_path))
    code, report_stdout, _ = run_cli(capsys, "report", str(report_path))
    assert code == 0
    assert report_stdout == fit_stdout


def test_report_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "report", str(tmp_path / "nope.json"))
    assert code == 2


@pytest.mark.parametrize(("model", "section", "key"), [("uf_linear", "linear_params", "p_w"),
                                                       ("qp_cubic", "qp_params", "kappa")])
def test_report_holding_nan_exits_two(capsys, tmp_path, model, section, key):
    data, report = tmp_path / "d.csv", tmp_path / "report.json"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    run_cli(capsys, "fit", str(data), "--model", model, "--out", str(report))
    payload = json.loads(report.read_text())
    entry = payload[section]["medium"]
    entry = entry if model == "uf_linear" else next(iter(entry.values()))
    entry[key] = float("nan")
    report.write_text(json.dumps(payload))  # json writes the bare token NaN
    code, out, err = run_cli(capsys, "report", str(report))
    assert code == 2
    assert out == ""
    assert "cannot read report" in err and "finite" in err


@pytest.mark.parametrize(("path", "value", "key"), [
    (("linear_params", "medium", "p_w"), "x", "linear_params.medium.p_w"),
    (("per_preset_error",), [1], "per_preset_error"),
    (("linear_params", "medium"), [1.0, 2.0], "linear_params.medium"),
    (("k",), True, "k"),
])
def test_report_with_a_wrongly_typed_value_exits_two(capsys, tmp_path, path, value, key):
    data, report = tmp_path / "d.csv", tmp_path / "report.json"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    run_cli(capsys, "fit", str(data), "--model", "uf_linear", "--out", str(report))
    payload = json.loads(report.read_text())
    *parents, last = path
    entry = payload
    for name in parents:
        entry = entry[name]
    entry[last] = value
    report.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "report", str(report))
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and f"report key {key!r}" in err


@pytest.mark.parametrize(("model", "section"), [
    ("uf_linear", "linear_params"), ("uf_linear", "per_preset_error"),
    ("qp_cubic", "qp_params"), ("qp_cubic", "per_class_error"),
])
@pytest.mark.parametrize("command", ["estimate", "report"])
def test_report_key_that_is_not_a_preset_exits_two_naming_it(capsys, tmp_path, command, model,
                                                              section):
    data, report = tmp_path / "d.csv", tmp_path / "report.json"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    run_cli(capsys, "fit", str(data), "--model", model, "--out", str(report))
    payload = json.loads(report.read_text())
    payload[section]["warp9"] = payload[section]["medium"]
    report.write_text(json.dumps(payload))
    argv = (["estimate", "--params", str(report), "--t-uf", "2"] if command == "estimate"
            else ["report", str(report)])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read report {report}: "
                   f"report key '{section}.warp9' is not a preset\n")


def _drop_first_class(table):
    classes = table["medium"]
    del classes[next(iter(classes))]


# Per case: the model, an edit of its report, and the refusal, which may
# name the first key of a table (``{first}``) that the edit left whole.
@pytest.mark.parametrize(("model", "edit", "refusal"), [
    ("uf_linear", lambda payload: payload["per_preset_error"].pop("medium"),
     "report table 'per_preset_error' has no preset 'medium', which 'linear_params' has"),
    ("uf_linear", lambda payload: payload.update(linear_params={}),
     "report table 'linear_params' has no preset {first!r}, which 'per_preset_error' has"),
    ("uf_linear", lambda payload: payload.update(per_preset_error={}),
     "report table 'per_preset_error' is empty"),
    ("qp_cubic", lambda payload: _drop_first_class(payload["per_class_error"]),
     "report table 'per_class_error.medium' has no class {first!r}, "
     "which 'qp_params.medium' has"),
], ids=["per_preset_error-lacks-medium", "linear_params-empty", "per_preset_error-empty",
        "per_class_error-lacks-a-class"])
@pytest.mark.parametrize("command", ["estimate", "report"])
def test_report_whose_tables_disagree_exits_two_naming_them(capsys, tmp_path, command, model,
                                                            edit, refusal):
    data, report = tmp_path / "d.csv", tmp_path / "report.json"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    run_cli(capsys, "fit", str(data), "--model", model, "--out", str(report))
    payload = json.loads(report.read_text())
    first = next(iter(payload["per_preset_error"] if model == "uf_linear"
                      else payload["qp_params"]["medium"]))
    edit(payload)
    report.write_text(json.dumps(payload))
    argv = (["estimate", "--params", str(report), "--t-uf", "2"] if command == "estimate"
            else ["report", str(report)])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read report {report}: {refusal.format(first=first)}\n"


def test_report_missing_a_required_key_names_it(capsys, tmp_path):
    data, report = tmp_path / "d.csv", tmp_path / "report.json"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    run_cli(capsys, "fit", str(data), "--model", "uf_linear", "--out", str(report))
    payload = json.loads(report.read_text())
    del payload["validation"]
    report.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "report", str(report))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read report {report}: missing key 'validation'\n"


@pytest.mark.parametrize("command", ["measure", "report", "synth"])
def test_a_json_key_given_twice_exits_two_before_any_encode_or_write(capsys, tmp_path,
                                                                      input_file, stub_encoder,
                                                                      command):
    # a plain json.loads would keep the last of the two without a word
    given, out, calls = tmp_path / "given.json", tmp_path / "out.csv", tmp_path / "calls.log"
    if command == "measure":
        write_manifest(given, input_file, presets=("ultrafast",), n_seqs=1)
        key = "frames"
        argv = ["measure", str(given), "--meter", "synth:base=20", "--out", str(out),
                "--encoder-cmd", f"{sys.executable} {stub_encoder} --input {{input}} "
                f"--output {{output}} --preset {{preset}} --crf {{crf}} --frames {{frames}} "
                f"--call-log {calls}"]
    elif command == "report":
        run_cli(capsys, "synth", "--out", str(tmp_path / "d.csv"), "--seed", "1")
        run_cli(capsys, "fit", str(tmp_path / "d.csv"), "--model", "uf_linear",
                "--out", str(given))
        key, argv = "overall_error", ["report", str(given)]
    else:
        given.write_text(json.dumps({"n_sequences": 2, "seed": 1}))
        key, argv = "seed", ["synth", "--recipe", str(given), "--out", str(out)]
    text = given.read_text()
    given.write_text(re.sub(rf'("{key}": [^,{{}}\n]+)', r"\1, \1", text, count=1))
    assert given.read_text() != text
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    (line,) = err.splitlines()
    assert f"gives {key!r} twice" in line
    assert not calls.exists() and not out.exists()


# The sha256 of the `fit --out` report on `synth --seed 1`, with the tool
# version fixed.  A change to the report's keys, layout or numbers moves it.
@pytest.mark.parametrize(("model", "sha256"), [
    pytest.param(model, sha256, id=model) for model, sha256 in [
        ("uf_linear", "12d3b715d3d94359c31aa1e05a07122ea848b16914fabcb5529250d8cdd5c6b5"),
        ("qp_cubic", "f1c872323ce1d71972d4119ea847c4a7f2c4c0c179673a977d29cff8e865064a"),
    ]
])
def test_fit_report_bytes_are_pinned(capsys, tmp_path, monkeypatch, model, sha256):
    monkeypatch.setattr("encwatt.cli._TOOL", "encwatt test")
    data, report = tmp_path / "d.csv", tmp_path / "report.json"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    code, _, _ = run_cli(capsys, "fit", str(data), "--model", model, "--out", str(report))
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == sha256


# The sha256 of the `crossval --out` report followed by its stdout, on
# `synth --seed 1` with the tool version fixed, for each model, objective
# and fold kind (default seed and k).  A change to the folds, the fits or
# the report moves it.
@pytest.mark.parametrize(("model", "objective", "joint", "sha256"), [
    pytest.param(model, objective, joint, sha256,
                 id=f"{model}-{objective}-{'joint' if joint else 'per-cell'}")
    for model, objective, joint, sha256 in [
        ("qp_cubic", "squared_rel", False, "e210d9f5bcc627b1bd574c24a5c27765e57c880e148ee6df8bcc24ae43e8244c"),
        ("qp_cubic", "squared_rel", True, "28b9b51a952cafb09e8a6cb6066388ba598330ff0139a88c0c3f8d1a5cb5b761"),
        ("qp_cubic", "abs_rel", False, "1c847eb306ac6506a865c8ef6108aa618b6692fb0813a0d6c9630735a56c7b4b"),
        ("qp_cubic", "abs_rel", True, "eeeb3c0181f0a5a342cfb3958f2e24f33f9e49dfdb8c9535f25190a3b7c913d5"),
        ("time_linear", "squared_rel", False, "d30fd4cf6fc5df101880a60e4037c68482eb30ac936c0d77624a4cbd949775b7"),
        ("time_linear", "squared_rel", True, "008dda8f28d0bc550eec20b43004d9872c9fb69b3c79d7d5e7dd37dc12172a54"),
        ("time_linear", "abs_rel", False, "7a07828585e967cd70f4bfe9b19f059faef5a95e8e0fa2402a274d311122a2da"),
        ("time_linear", "abs_rel", True, "7d0d3b9622d6286d352319706cc75b76be2cbed985e9933d90dc5332f7ddef8b"),
        ("uf_linear", "squared_rel", False, "11e55412b85c61142476bb30b1b76b3a77929fcefc6d186e3cd89edb8d81343e"),
        ("uf_linear", "squared_rel", True, "3958602c710d8b70d1d036db52959a83c3b402012664084c171c8917a161ad32"),
        ("uf_linear", "abs_rel", False, "2e55343512616a326b72f9d386b89ad043150c785d412942efd74f23c899a766"),
        ("uf_linear", "abs_rel", True, "96dd12df0e241f9bf06880eae27f45cf2a1185362a8b228d581f672e4d0bcf60"),
    ]
])
def test_crossval_output_bytes_are_pinned(capsys, tmp_path, monkeypatch, model, objective,
                                          joint, sha256):
    monkeypatch.setattr("encwatt.cli._TOOL", "encwatt test")
    data, report = tmp_path / "d.csv", tmp_path / "report.json"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    code, stdout, _ = run_cli(capsys, "crossval", str(data), "--model", model,
                              "--objective", objective, "--out", str(report),
                              *(["--joint-folds"] if joint else []))
    assert code == 0
    assert hashlib.sha256(report.read_bytes() + stdout.encode()).hexdigest() == sha256


def test_synth_recipe_file(capsys, tmp_path):
    recipe = tmp_path / "recipe.json"
    recipe.write_text('{"n_sequences": 3, "noise": 0.0, "time_jitter": 0.0}')
    out = tmp_path / "small.csv"
    code, stdout, _ = run_cli(capsys, "synth", "--out", str(out), "--recipe", str(recipe))
    assert code == 0
    assert "108 rows" in stdout  # 3 x 9 x 4


def test_synth_bad_recipe_exits_two(capsys, tmp_path):
    recipe = tmp_path / "recipe.json"
    recipe.write_text('{"bogus": 1}')
    code, _, err = run_cli(capsys, "synth", "--out", str(tmp_path / "x.csv"),
                           "--recipe", str(recipe))
    assert code == 2


def test_synth_flags_override_recipe_values(capsys, tmp_path):
    noisy, clean = tmp_path / "noisy.json", tmp_path / "clean.json"
    noisy.write_text('{"n_sequences": 3, "noise": 0.2, "time_jitter": 0.3, "seed": 4}')
    clean.write_text('{"n_sequences": 3, "noise": 0.0, "time_jitter": 0.0, "seed": 4}')
    overridden, expected = tmp_path / "overridden.csv", tmp_path / "expected.csv"
    code, _, err = run_cli(capsys, "synth", "--out", str(overridden), "--recipe", str(noisy),
                           "--noise", "0", "--time-jitter", "0")
    assert code == 0, err
    code, _, err = run_cli(capsys, "synth", "--out", str(expected), "--recipe", str(clean))
    assert code == 0, err
    assert overridden.read_bytes() == expected.read_bytes()


def test_synth_missing_recipe_file_exits_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "synth", "--out", str(tmp_path / "x.csv"),
                           "--recipe", str(tmp_path / "missing.json"))
    assert code == 2
    assert "missing.json" in err
    assert not (tmp_path / "x.csv").exists()


# ── measure ───────────────────────────────────────────────────────────────

def write_manifest(path, input_file, presets=("ultrafast", "fast"), crfs=(23,), n_seqs=2):
    lines = []
    for i in range(n_seqs):
        lines.append(json.dumps({
            "sequence_id": f"s{i}",
            "class": "B",
            "input": str(input_file),
            "frames": 100,
            "presets": list(presets),
            "crfs": list(crfs),
            "extra_args": ["--base-sleep", "0.05"],
        }))
    path.write_text("\n".join(lines) + "\n")


def test_measure_end_to_end_with_doubles(capsys, tmp_path, input_file, stub_encoder):
    manifest = tmp_path / "jobs.jsonl"
    write_manifest(manifest, input_file)
    out = tmp_path / "dataset.csv"
    encoder = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}}"
    )
    code, stdout, err = run_cli(
        capsys, "measure", str(manifest),
        "--meter", "synth:base=20,active=30,noise=0,period=0.02",
        "--encoder-cmd", encoder,
        "--out", str(out),
        "--beta", "0.3", "--max-reps", "3",
    )
    assert code == 0, err
    ds = load_dataset_csv(out)
    assert len(ds) == 4
    assert "confident" in stdout.splitlines()[1]


def test_measure_bad_manifest_exits_two_without_csv(capsys, tmp_path):
    manifest = tmp_path / "bad.jsonl"
    manifest.write_text("{broken\n")
    out = tmp_path / "never.csv"
    code, _, err = run_cli(
        capsys, "measure", str(manifest),
        "--meter", "synth:base=20,active=30",
        "--encoder-cmd", "true",
        "--out", str(out),
    )
    assert code == 2
    assert not out.exists()


def test_measure_unreadable_counter_exits_three(capsys, tmp_path, input_file):
    manifest = tmp_path / "jobs.jsonl"
    write_manifest(manifest, input_file)
    code, _, err = run_cli(
        capsys, "measure", str(manifest),
        "--meter", f"counter:{tmp_path / 'missing_counter'}",
        "--encoder-cmd", "true",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 3


def test_measure_aborts_when_the_replay_is_shorter_than_an_encode(capsys, tmp_path, input_file,
                                                                   stub_encoder):
    # a 0.1 s trace cannot cover a 0.3 s encode: a meter failure, which
    # stops the campaign after its first encode
    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,p_w\n0.0,50.0\n0.1,50.0\n")
    idle = tmp_path / "idle.csv"
    idle.write_text("t_s,p_w\n0.0,20.0\n10.0,20.0\n")
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(json.dumps({
        "sequence_id": "s0", "input": str(input_file), "frames": 100,
        "presets": ["ultrafast", "medium"], "crfs": [23, 28],
        "extra_args": ["--base-sleep", "0.3"],
    }) + "\n")
    calls = tmp_path / "calls.log"
    encoder = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}} --call-log {calls}"
    )
    code, stdout, err = run_cli(
        capsys, "measure", str(manifest),
        "--meter", f"csv:{trace}",
        "--encoder-cmd", encoder,
        "--out", str(tmp_path / "dataset.csv"),
        "--idle-trace", str(idle),
    )
    assert code == 3
    (line,) = err.splitlines()
    assert re.fullmatch(rf"meter error: window \[0\.0, \S+\] outside trace span "
                        rf"\[0\.0, 0\.1\] of '{re.escape(str(trace))}'", line)
    assert calls.read_text().splitlines() == ["ultrafast 23"]


def test_measure_with_shared_idle_trace(capsys, tmp_path, input_file, stub_encoder):
    from encwatt.meter import SyntheticRecipe, generate_synthetic_trace

    idle = generate_synthetic_trace(
        SyntheticRecipe(base_power=20.0, active_power=0.0, noise_std=0.0, period=0.02), 30.0
    )
    idle_csv = tmp_path / "idle.csv"
    rows = "".join(f"{t!r},{p!r}\n" for t, p in idle.samples.tolist())
    idle_csv.write_text(f"t_s,p_w\n{rows}", newline="\n")
    manifest = tmp_path / "jobs.jsonl"
    write_manifest(manifest, input_file, presets=("ultrafast",), n_seqs=1)
    out = tmp_path / "dataset.csv"
    encoder = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}}"
    )
    code, stdout, err = run_cli(
        capsys, "measure", str(manifest),
        "--meter", "synth:base=20,active=30,noise=0,period=0.02",
        "--encoder-cmd", encoder,
        "--out", str(out),
        "--idle-trace", str(idle_csv),
        "--beta", "0.3", "--max-reps", "3",
    )
    assert code == 0, err
    ds = load_dataset_csv(out)
    assert len(ds) == 1
    row = ds.rows[0]
    assert row.energy == pytest.approx(30.0 * row.t_enc, abs=30.0 * 0.02 + 0.5)


def test_measure_encoder_failures_exit_four(capsys, tmp_path, input_file, stub_encoder):
    manifest = tmp_path / "jobs.jsonl"
    write_manifest(manifest, input_file, presets=("ultrafast",), n_seqs=1)
    encoder = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}} --fail"
    )
    code, _, err = run_cli(
        capsys, "measure", str(manifest),
        "--meter", "synth:base=20,active=30,noise=0,period=0.02",
        "--encoder-cmd", encoder,
        "--out", str(tmp_path / "d.csv"),
    )
    assert code == 4
    assert "failed" in err


def test_measure_existing_out_without_resume_exits_two(capsys, tmp_path, input_file,
                                                        stub_encoder):
    manifest = tmp_path / "jobs.jsonl"
    write_manifest(manifest, input_file, presets=("ultrafast",), n_seqs=1)
    calls = tmp_path / "calls.log"
    encoder = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}} --call-log {calls}"
    )
    out = tmp_path / "dataset.csv"
    run_cli(capsys, "synth", "--out", str(out), "--seed", "1")
    before = out.read_bytes()
    code, _, err = run_cli(
        capsys, "measure", str(manifest),
        "--meter", "synth:base=20,active=30,noise=0,period=0.02",
        "--encoder-cmd", encoder,
        "--out", str(out),
    )
    assert code == 2
    assert "--resume" in err
    assert not calls.exists()
    assert out.read_bytes() == before


def test_measure_csv_meter_without_idle_trace_exits_two(capsys, tmp_path, input_file,
                                                        stub_encoder):
    # the replayed trace would also be the idle baseline: every net energy 0 J
    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,p_w\n0.0,50.0\n10.0,50.0\n")
    manifest = tmp_path / "jobs.jsonl"
    write_manifest(manifest, input_file, presets=("ultrafast",), n_seqs=1)
    calls = tmp_path / "calls.log"
    encoder = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}} --call-log {calls}"
    )
    out = tmp_path / "dataset.csv"
    code, _, err = run_cli(
        capsys, "measure", str(manifest),
        "--meter", f"csv:{trace}",
        "--encoder-cmd", encoder,
        "--out", str(out),
    )
    assert code == 2
    assert "--idle-trace" in err
    assert not calls.exists()
    assert not out.exists()


def test_measure_csv_meter_with_its_own_trace_as_idle_exits_two(capsys, tmp_path, input_file,
                                                                stub_encoder):
    # every net energy would be 0 J, and each job fail as if the encoder were at fault
    trace = tmp_path / "trace.csv"
    trace.write_text("t_s,p_w\n0.0,50.0\n10.0,50.0\n")
    link = tmp_path / "link.csv"
    link.symlink_to(trace)
    manifest = tmp_path / "jobs.jsonl"
    write_manifest(manifest, input_file, presets=("ultrafast",), n_seqs=1)
    calls = tmp_path / "calls.log"
    encoder = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}} --call-log {calls}"
    )
    out = tmp_path / "dataset.csv"
    for idle in (trace, link):
        code, _, err = run_cli(
            capsys, "measure", str(manifest),
            "--meter", f"csv:{trace}",
            "--idle-trace", str(idle),
            "--encoder-cmd", encoder,
            "--out", str(out),
        )
        assert code == 2
        assert f"idle trace {idle} is the replayed trace" in err
    assert not calls.exists()
    assert not out.exists()


def _measure_logging_calls(capsys, tmp_path, input_file, stub_encoder, *args, entry=None):
    """Run ``measure`` with a stub that logs its calls; return (code, err, call log)."""
    manifest = tmp_path / "jobs.jsonl"
    write_manifest(manifest, input_file, presets=("ultrafast",), n_seqs=1)
    if entry is not None:
        manifest.write_text(json.dumps(entry) + "\n")
    calls = tmp_path / "calls.log"
    encoder = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}} --call-log {calls}"
    )
    code, _, err = run_cli(capsys, "measure", str(manifest), "--encoder-cmd", encoder, *args)
    return code, err, calls


@pytest.mark.parametrize(("changed", "named"), [
    ({"class": "B"}, "class 'B' with 10 frames"),
    ({"frames": 99}, "class 'A' with 99 frames"),
    ({"class": "B", "frames": 99}, "class 'B' with 99 frames"),
], ids=["class", "frames", "both"])
def test_measure_resume_refuses_a_sequence_whose_class_or_frames_changed(
        capsys, tmp_path, input_file, stub_encoder, changed, named):
    # the old and the new rows would put one sequence in two classes
    out = tmp_path / "dataset.csv"
    first = {"sequence_id": "s0", "class": "A", "input": str(input_file), "frames": 10,
             "preset": "ultrafast", "crf": 23}
    meter = ("--meter", "synth:base=20,active=30,noise=0,period=0.02", "--out", str(out),
             "--min-reps", "2", "--max-reps", "2")
    code, err, calls = _measure_logging_calls(capsys, tmp_path, input_file, stub_encoder,
                                              *meter, entry=first)
    assert code == 0, err
    before, calls_before = out.read_bytes(), calls.read_bytes()
    second = {**first, **changed, "presets": ["ultrafast", "medium"]}
    del second["preset"]
    code, err, calls = _measure_logging_calls(capsys, tmp_path, input_file, stub_encoder,
                                              *meter, "--resume", entry=second)
    assert code == 2
    assert err == (f"error: {out}: sequence 's0' was measured as class 'A' with 10 frames, "
                   f"but its jobs give {named}\n")
    assert out.read_bytes() == before
    assert calls.read_bytes() == calls_before


@pytest.mark.parametrize("grid", [{"presets": [], "crf": 23}, {"preset": "ultrafast", "crfs": []}],
                         ids=["presets", "crfs"])
def test_measure_manifest_with_an_empty_grid_exits_two_before_any_encode(capsys, tmp_path,
                                                                         input_file,
                                                                         stub_encoder, grid):
    entry = {"sequence_id": "s0", "input": str(input_file), "frames": 100, **grid}
    code, err, calls = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", "synth:base=20", "--out", str(tmp_path / "d.csv"), entry=entry,
    )
    assert code == 2
    missing = "preset" if "presets" in grid else "crf"
    assert err == f"error: {tmp_path / 'jobs.jsonl'}, line 1: missing key '{missing}'\n"
    assert not calls.exists()


def test_measure_manifest_giving_a_sequence_two_inputs_exits_two_before_any_encode(
        capsys, tmp_path, input_file, stub_encoder):
    other = tmp_path / "other.yuv"
    other.write_bytes(b"\x10" * 64)
    entry = {"sequence_id": "s0", "class": "B", "input": str(input_file), "frames": 100,
             "preset": "medium", "crf": 23}
    manifest = tmp_path / "two.jsonl"
    manifest.write_text(json.dumps(entry) + "\n"
                        + json.dumps({**entry, "preset": "ultrafast", "input": str(other)}) + "\n")
    calls = tmp_path / "calls.log"
    code, _, err = run_cli(
        capsys, "measure", str(manifest), "--meter", "synth:base=20",
        "--encoder-cmd", f"{sys.executable} {stub_encoder} --input {{input}} "
                         f"--output {{output}} --call-log {calls}",
        "--out", str(tmp_path / "d.csv"),
    )
    assert code == 2
    assert err == (f"error: {manifest}, line 2: sequence 's0' has input {str(other)!r} here "
                   f"but {str(input_file)!r} on an earlier line\n")
    assert not calls.exists() and not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize(("recipe", "shown"), [
    ("base", "bad recipe item 'base'; expected key=value"),
    ("base=abc", "recipe 'base=abc' key 'base' must be a number, got 'abc'"),
])
def test_measure_malformed_inline_recipe_exits_two_naming_it(capsys, tmp_path, input_file,
                                                             stub_encoder, recipe, shown):
    code, err, calls = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", f"synth:{recipe}", "--out", str(tmp_path / "d.csv"),
    )
    assert code == 2
    assert err == f"error: {shown}\n"
    assert not calls.exists()


@pytest.mark.parametrize(("recipe", "field"), [("base=inf", "base_power"),
                                             ("active=inf", "active_power"),
                                             ("noise=inf", "noise_std")])
def test_measure_infinite_recipe_value_exits_two_before_any_encode(capsys, tmp_path, input_file,
                                                                   stub_encoder, recipe, field):
    code, err, calls = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", f"synth:{recipe}", "--out", str(tmp_path / "d.csv"),
    )
    assert code == 2
    assert err == f"error: {field} must be finite and >= 0, got inf\n"
    assert not calls.exists()


@pytest.mark.parametrize(("template", "why"), [
    ("", "holds no words"),
    ("x265 'unterminated {input}", "cannot be split: No closing quotation"),
], ids=["empty", "unterminated-quote"])
def test_measure_encoder_template_that_cannot_be_split_exits_two_before_any_encode(
        capsys, tmp_path, input_file, template, why):
    # each job once failed on its own, after the meter and the dataset were opened
    manifest, out = tmp_path / "jobs.jsonl", tmp_path / "d.csv"
    write_manifest(manifest, input_file, presets=("ultrafast",), n_seqs=1)
    code, _, err = run_cli(capsys, "measure", str(manifest), "--meter", "synth:base=20",
                           "--encoder-cmd", template, "--out", str(out))
    assert code == 2
    assert err == f"error: encoder command {template!r} {why}\n"
    assert not out.exists()


def test_measure_counter_holding_a_negative_value_exits_three(capsys, tmp_path, input_file,
                                                               stub_encoder):
    counter = tmp_path / "energy_uj"
    counter.write_text("-5\n")
    code, err, _ = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", f"counter:{counter}", "--out", str(tmp_path / "d.csv"),
    )
    assert code == 3
    assert f"meter error: counter file {counter} holds a negative value: -5" in err


@pytest.mark.parametrize("resume", [[], ["--resume"]])
def test_measure_out_with_a_header_but_no_line_end_exits_two(capsys, tmp_path, input_file,
                                                             stub_encoder, resume):
    out = tmp_path / "dataset.csv"
    out.write_text(",".join(DATASET_COLUMNS))
    code, err, calls = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", "synth:base=20,active=30,noise=0,period=0.02", "--out", str(out), *resume,
    )
    assert code == 2
    assert "header" in err
    assert not calls.exists()
    assert out.read_text() == ",".join(DATASET_COLUMNS)


def test_measure_sequence_id_holding_a_comma_exits_two(capsys, tmp_path, input_file,
                                                       stub_encoder):
    entry = {"sequence_id": "a,b", "class": "B", "input": str(input_file), "frames": 100,
             "preset": "ultrafast", "crf": 23}
    out = tmp_path / "dataset.csv"
    code, err, calls = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", "synth:base=20,active=30,noise=0,period=0.02", "--out", str(out),
        entry=entry,
    )
    assert code == 2
    assert "sequence_id" in err
    assert not calls.exists()
    assert not out.exists()


def test_measure_out_in_missing_directory_exits_two_before_any_encode(capsys, tmp_path,
                                                                      input_file, stub_encoder):
    out = tmp_path / "no_such_dir" / "d.csv"
    code, err, calls = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", "synth:base=20,active=30,noise=0,period=0.02", "--out", str(out),
    )
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith("error: ") and str(out) in line
    assert not calls.exists()


def test_measure_recipe_with_duration_exits_two_naming_the_key(capsys, tmp_path, input_file,
                                                               stub_encoder):
    # each recording sets its own duration: the key would have no effect
    out = tmp_path / "d.csv"
    code, err, calls = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", "synth:base=20,duration=4", "--out", str(out),
    )
    assert code == 2
    assert "unknown recipe key 'duration'" in err
    assert not calls.exists()
    assert not out.exists()


def test_measure_failure_line_ends_with_the_encoder_log(capsys, tmp_path, input_file):
    encoder = tmp_path / "failing_encoder.py"
    encoder.write_text("import sys\n"
                       "print('x265 [info]: HEVC encoder version (stub)')\n"
                       "print('x265 [error]: unable to open input file', file=sys.stderr)\n"
                       "sys.exit(3)\n")
    manifest = tmp_path / "jobs.jsonl"
    write_manifest(manifest, input_file, presets=("ultrafast",), n_seqs=1)
    out = tmp_path / "d.csv"
    code, _, err = run_cli(
        capsys, "measure", str(manifest),
        "--meter", "synth:base=20,active=30,noise=0,period=0.02",
        "--encoder-cmd", f"{sys.executable} {encoder}", "--out", str(out),
    )
    assert code == 4
    (line,) = [line for line in err.splitlines() if line.startswith("failed: ")]
    assert line.endswith("encoder exited with status 3; log ends: "
                         "x265 [info]: HEVC encoder version (stub) | "
                         "x265 [error]: unable to open input file")
    assert out.read_text() == ",".join(DATASET_COLUMNS) + "\n"


@pytest.mark.parametrize(("failure", "reason"), [
    ("missing_input", "input file"),
    ("cannot_execute", "cannot execute"),
    ("exit_status", "encoder exited with status 3"),
])
def test_measure_failure_line_names_the_job_once(capsys, tmp_path, input_file, failure, reason):
    encoder = tmp_path / "failing_encoder.py"
    encoder.write_text("import sys\nsys.exit(3)\n")
    encoder_cmd = {"cannot_execute": str(tmp_path / "no_such_encoder")}.get(
        failure, f"{sys.executable} {encoder}")
    manifest = tmp_path / "jobs.jsonl"
    clip = tmp_path / "missing.yuv" if failure == "missing_input" else input_file
    write_manifest(manifest, clip, presets=("ultrafast",), n_seqs=1)
    code, _, err = run_cli(
        capsys, "measure", str(manifest),
        "--meter", "synth:base=20,active=30,noise=0,period=0.02",
        "--encoder-cmd", encoder_cmd, "--out", str(tmp_path / "d.csv"),
    )
    assert code == 4
    (line,) = [line for line in err.splitlines() if line.startswith("failed: ")]
    assert line.startswith("failed: s0:ultrafast:crf23: repetition 1: " + reason)
    assert line.count("s0:ultrafast:crf23") == 1


@pytest.mark.parametrize(("reader", "code"), [
    ("trace", 3), ("manifest", 2), ("dataset", 2), ("params", 2),
])
def test_input_that_is_not_utf8_is_named(capsys, tmp_path, input_file, reader, code):
    manifest, trace = tmp_path / "jobs.jsonl", tmp_path / "trace.csv"
    write_manifest(manifest, input_file, presets=("ultrafast",), n_seqs=1)
    trace.write_text("t_s,p_w\n0.0,20.0\n10.0,20.0\n")
    data, params = tmp_path / "d.csv", tmp_path / "r.json"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    run_cli(capsys, "fit", str(data), "--model", "uf_linear", "--out", str(params))
    good = {"trace": trace, "manifest": manifest, "dataset": data, "params": params}[reader]
    bad = tmp_path / f"bad-{reader}"
    bad.write_bytes(good.read_bytes().replace(b"\n", b"\n\xff", 1))
    measure = ["--encoder-cmd", "true", "--out", str(tmp_path / "out.csv")]
    argv = {
        "trace": ["measure", str(manifest), "--meter", f"csv:{bad}", "--idle-trace", str(trace),
                  *measure],
        "manifest": ["measure", str(bad), "--meter", "synth:base=20", *measure],
        "dataset": ["fit", str(bad), "--model", "uf_linear"],
        "params": ["estimate", "--params", str(bad), "--t-uf", "2"],
    }[reader]
    exit_code, _, err = run_cli(capsys, *argv)
    assert exit_code == code
    (line,) = err.splitlines()
    assert str(bad) in line and "utf-8" in line


@pytest.mark.parametrize("meter", ["synth:{missing}", "synth:base=20,period=0",
                                   "synth:{zero_period}", "synth:{unknown_key}",
                                   "synth:base=20,base_power=30", "synth:{given_twice}",
                                   "synth:seed=-5", "synth:{negative_seed}"])
def test_measure_bad_synthetic_recipe_exits_two_before_any_encode(capsys, tmp_path, input_file,
                                                                  stub_encoder, meter):
    # numpy itself refuses a negative seed only as the first trace is drawn, after an encode
    recipes = {"missing": tmp_path / "missing.json", "zero_period": tmp_path / "zero.json",
               "unknown_key": tmp_path / "unknown.json", "given_twice": tmp_path / "twice.json",
               "negative_seed": tmp_path / "seed.json"}
    recipes["zero_period"].write_text('{"base": 20, "period": 0}')
    recipes["unknown_key"].write_text('{"base": 20, "bogus": 1}')
    recipes["given_twice"].write_text('{"base": 20, "base_power": 30}')
    recipes["negative_seed"].write_text('{"seed": -5}')
    code, err, calls = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", meter.format(**recipes), "--out", str(tmp_path / "d.csv"),
    )
    assert code == 2, err
    assert not calls.exists()


@pytest.mark.parametrize(("recipe", "key", "noun"), [
    ('{"base": true}', "base", "a number"),
    ('{"seed": 1.7}', "seed", "an integer"),
    ("seed=1.5", "seed", "an integer"),
])
def test_measure_recipe_value_of_the_wrong_type_exits_two_naming_key_and_recipe(
        capsys, tmp_path, input_file, stub_encoder, recipe, key, noun):
    if recipe.startswith("{"):
        path = tmp_path / "recipe.json"
        path.write_text(recipe)
        recipe = str(path)
    code, err, calls = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", f"synth:{recipe}", "--out", str(tmp_path / "d.csv"),
    )
    assert code == 2, err
    (line,) = err.splitlines()
    assert f"recipe {recipe!r} key {key!r} must be {noun}" in line
    assert not calls.exists()


def test_measure_encodes_nothing_more_of_a_bitstream_whose_probe_failed(capsys, tmp_path,
                                                                        input_file, stub_encoder):
    entry = {"sequence_id": "s0", "class": "B", "input": str(input_file), "frames": 100,
             "crf": 23}
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        json.dumps({**entry, "preset": "ultrafast", "extra_args": ["--fail"]}) + "\n"
        + json.dumps({**entry, "presets": ["medium", "slow"],
                      "extra_args": ["--base-sleep", "0.05"]}) + "\n"
    )
    calls = tmp_path / "calls.log"
    encoder = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}} --call-log {calls}"
    )
    code, _, err = run_cli(
        capsys, "measure", str(manifest),
        "--meter", "synth:base=20,active=30,noise=0,period=0.02",
        "--encoder-cmd", encoder, "--out", str(tmp_path / "d.csv"), "--max-reps", "3",
    )
    assert code == 4
    assert calls.read_text() == "ultrafast 23\n"
    failed = [line for line in err.splitlines() if line.startswith("failed: ")]
    assert [line.split(": ")[1] for line in failed] == ["s0:ultrafast:crf23", "s0:medium:crf23",
                                                         "s0:slow:crf23"]
    assert failed[1:] == [f"failed: s0:{preset}:crf23: ultrafast probe for this bitstream failed"
                          for preset in ("medium", "slow")]


def test_measure_interrupted_by_ctrl_c_exits_130_with_one_line(capsys, tmp_path, input_file,
                                                               stub_encoder, monkeypatch):
    def run_campaign(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("encwatt.runner.run_campaign", run_campaign)
    handlers = [signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGHUP)]
    code, err, calls = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", "synth:base=20", "--out", str(tmp_path / "d.csv"),
    )
    assert (code, err) == (130, "interrupted by SIGINT\n")
    assert [signal.getsignal(signum) for signum in (signal.SIGTERM, signal.SIGHUP)] == handlers


# Completes an ultrafast encode at once; any other preset writes its pid
# and sleeps, so that the test can signal encwatt during that encode.
_PID_STUB = textwrap.dedent('''
    import os, sys, time
    from pathlib import Path

    output, preset, pid_file = sys.argv[1:4]
    if preset != "ultrafast":
        Path(pid_file + ".part").write_text(str(os.getpid()))
        os.replace(pid_file + ".part", pid_file)
        time.sleep(60)
    Path(output).write_bytes(b"B" * 64)
    print("x265 [info]: frame P:   99, Avg QP:25.00  kb/s: 900.00")
''')


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP], ids=lambda s: s.name)
def test_measure_killed_by_a_signal_stops_its_encoder_and_keeps_its_rows(tmp_path, input_file,
                                                                         signum):
    stub, pid_file, out = tmp_path / "stub.py", tmp_path / "stub.pid", tmp_path / "d.csv"
    stub.write_text(_PID_STUB)
    manifest = tmp_path / "jobs.jsonl"
    write_manifest(manifest, input_file, presets=("ultrafast", "medium"), n_seqs=1)
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = {**os.environ, "TMPDIR": str(tmpdir),
           "PYTHONPATH": os.pathsep.join([str(Path(encwatt.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "encwatt.cli", "measure", str(manifest),
         "--meter", "synth:base=20,active=30,noise=0,period=0.02",
         "--encoder-cmd", f"{sys.executable} {stub} {{output}} {{preset}} {pid_file}",
         "--out", str(out), "--min-reps", "2", "--max-reps", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    stub_pid = None
    try:
        deadline = time.monotonic() + 30
        while not pid_file.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert pid_file.exists(), proc.communicate(timeout=30)
        stub_pid = int(pid_file.read_text())
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=30)
        exited = time.monotonic()
        assert proc.returncode == 128 + signum, err
        assert err.splitlines()[-1] == f"interrupted by {signum.name}"
        while _alive(stub_pid) and time.monotonic() < exited + 1.0:
            time.sleep(0.02)
        assert not _alive(stub_pid)
        assert list(tmpdir.glob("encwatt_*.bin")) == []
        (row,) = load_dataset_csv(out).rows
        assert (row.preset, row.reps) == ("ultrafast", 2)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if stub_pid is not None and _alive(stub_pid):
            os.kill(stub_pid, signal.SIGKILL)

