"""The benchmark's layer spans see each CLI command's work exactly once.

``encwatt.cli`` imports each command's modules inside the command, so the
names that perfbench/tracer.py wraps on ``cli`` must still be the ones the
commands call, and a trace file must not be counted twice.  The commands
run in a subprocess so the patches cannot leak into other tests.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import json, sys
    from contextlib import redirect_stdout
    from io import StringIO

    sys.path.insert(0, sys.argv[1])
    from tracer import Tracer, install

    from encwatt import cli

    tracer = Tracer()
    install(tracer)
    with redirect_stdout(StringIO()):
        codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
    print(json.dumps({"codes": codes, "spans": [span[:3] + span[5:] for span in tracer.spans]}))
    """
)


def traced_cli(commands):
    """Exit codes and ``[id, parent_id, name, attrs]`` spans of ``commands`` in one process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], result["spans"]


def write_trace(path, watts, n):
    path.write_text("t_s,p_w\n" + "".join(f"{i * 0.1:.1f},{watts}\n" for i in range(n)))


def test_replayed_measure_parses_each_trace_in_one_span(tmp_path, input_file, encoder_cmd):
    total, idle = tmp_path / "total.csv", tmp_path / "idle.csv"
    write_trace(total, 60.0, 301)
    write_trace(idle, 20.0, 201)
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(json.dumps({
        "sequence_id": "s0", "class": "B", "input": str(input_file), "frames": 10,
        "presets": ["ultrafast"], "crfs": [23], "extra_args": ["--base-sleep", "0.02"],
    }) + "\n")
    codes, spans = traced_cli([
        ["measure", str(manifest), "--meter", f"csv:{total}", "--idle-trace", str(idle),
         "--encoder-cmd", encoder_cmd, "--out", str(tmp_path / "m.csv"),
         "--min-reps", "2", "--max-reps", "2"],
    ])
    assert codes == [0]
    parses = [span for span in spans if span[2] == "meter.parse_trace_csv"]
    assert sorted(attrs["n"] for *_, attrs in parses) == [201, 301]
    ids = {sid for sid, *_ in parses}
    assert not any(parent in ids for _, parent, *_ in parses), parses


def test_synth_and_crossval_spans_fire_once_per_call(tmp_path):
    data = str(tmp_path / "d.csv")
    codes, spans = traced_cli([
        ["synth", "--out", data, "--seed", "0"],
        ["crossval", data, "--model", "uf_linear", "--k", "3"],
    ])
    assert codes == [0, 0]
    names = [name for _, _, name, _ in spans]
    assert names.count("synth.generate_dataset") == 1, names
    assert names.count("fitting.cross_validate.uf_linear.squared_rel") == 1, names
    assert names.count("dataset.load_dataset_csv") == 1, names
