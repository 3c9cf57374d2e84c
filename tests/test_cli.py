"""Command-line surface: exit codes, outputs, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import encwatt
from encwatt.cli import main
from encwatt.dataset import DATASET_COLUMNS, load_dataset_csv
from encwatt.models import read_params_file
from encwatt.synth import GROUND_TRUTH


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ── import ────────────────────────────────────────────────────────────────

# Blocks every import of one package, then runs each command in one
# process and prints the exit codes and the package's loaded modules.
_BLOCKED_IMPORT_SCRIPT = """
import json, sys
from contextlib import redirect_stdout
from io import StringIO

blocked = sys.argv[1]

class Block:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == blocked:
            raise ImportError(f"{blocked} is blocked: {name}")

sys.meta_path.insert(0, Block())
sys.path.insert(0, sys.argv[2])
from encwatt.cli import main

codes = []
for argv in json.loads(sys.argv[3]):
    with redirect_stdout(StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:  # argparse exits after --version and --help
            codes.append(exc.code)
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == blocked)]))
"""


def run_with_import_blocked(package, commands):
    """Exit codes of ``commands``, the modules of ``package`` left loaded, and stderr."""
    src = str(Path(encwatt.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_IMPORT_SCRIPT, package, src, json.dumps(commands)],
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
    data, params = str(tmp_path / "d.csv"), str(tmp_path / "p.csv")
    run_cli(capsys, "synth", "--out", data, "--seed", "1")
    reports = []
    for model in ("uf_linear", "qp_cubic"):
        reports.append(str(tmp_path / f"{model}.json"))
        code, _, err = run_cli(capsys, "fit", data, "--model", model, "--out", reports[-1],
                               "--params-out", params)
        assert code == 0, err
    commands = [
        ["--version"],
        ["--help"],
        *([name, "--help"] for name in ("measure", "estimate", "fit", "crossval", "report",
                                        "synth")),
        ["estimate", "--defaults", "--t-uf", "2.0"],
        ["estimate", "--defaults", "--t-uf", "2.0", "--preset", "medium"],
        ["estimate", "--params", params, "--t-uf", "2.0"],
        *(["report", report] for report in reports),
    ]
    codes, numpy_modules, stderr = run_with_import_blocked("numpy", commands)
    assert codes == [0] * len(commands), stderr
    assert numpy_modules == []


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


def test_estimate_own_time_params_warn(capsys, tmp_path):
    from encwatt.models import LinearParams, write_params_file

    path = tmp_path / "own.csv"
    write_params_file({"medium": LinearParams(p=100.0, e0=2.0, covariate_kind="own_time")}, path)
    code, out, err = run_cli(capsys, "estimate", "--params", str(path),
                             "--preset", "medium", "--t-uf", "2.0")
    assert code == 0
    assert float(out.split()[1]) == pytest.approx(202.0)
    assert "own_time" in err


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
    params_out = tmp_path / "params.csv"
    code, stdout, _ = run_cli(capsys, "fit", str(out), "--model", "time_linear",
                              "--params-out", str(params_out))
    assert code == 0
    fitted = read_params_file(params_out)
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


def test_fit_bad_dataset_value_exits_two(capsys, tmp_path):
    data = tmp_path / "d.csv"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    text = data.read_text().splitlines()
    text[1] = text[1].replace("true", "maybe")
    data.write_text("\n".join(text) + "\n")
    code, _, err = run_cli(capsys, "fit", str(data), "--model", "uf_linear")
    assert code == 2
    assert "row 2" in err


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


def test_report_round_trip(capsys, tmp_path):
    data = tmp_path / "d.csv"
    run_cli(capsys, "synth", "--out", str(data), "--seed", "1")
    report_path = tmp_path / "report.json"
    _, fit_stdout, _ = run_cli(capsys, "crossval", str(data), "--model", "uf_linear",
                               "--out", str(report_path))
    code, report_stdout, _ = run_cli(capsys, "report", str(report_path))
    assert code == 0
    assert report_stdout == fit_stdout


def test_report_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "report", str(tmp_path / "nope.json"))
    assert code == 2


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


def test_measure_with_shared_idle_trace(capsys, tmp_path, input_file, stub_encoder):
    from encwatt.meter import SyntheticRecipe, generate_synthetic_trace, write_trace_csv

    idle_csv = tmp_path / "idle.csv"
    write_trace_csv(
        generate_synthetic_trace(
            SyntheticRecipe(base_power=20.0, active_power=0.0, noise_std=0.0, duration=30.0),
            (0.0, 0.0), sample_period=0.02,
        ),
        idle_csv,
    )
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


@pytest.mark.parametrize("meter", ["synth:{missing}", "synth:base=20,period=0",
                                   "synth:{zero_period}", "synth:{unknown_key}"])
def test_measure_bad_synthetic_recipe_exits_two_before_any_encode(capsys, tmp_path, input_file,
                                                                  stub_encoder, meter):
    recipes = {"missing": tmp_path / "missing.json", "zero_period": tmp_path / "zero.json",
               "unknown_key": tmp_path / "unknown.json"}
    recipes["zero_period"].write_text('{"base": 20, "period": 0}')
    recipes["unknown_key"].write_text('{"base": 20, "bogus": 1}')
    code, err, calls = _measure_logging_calls(
        capsys, tmp_path, input_file, stub_encoder,
        "--meter", meter.format(**recipes), "--out", str(tmp_path / "d.csv"),
    )
    assert code == 2, err
    assert not calls.exists()
