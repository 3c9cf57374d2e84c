"""The benchmark's layer spans (perfbench/tracer.py) still find what they patch.

The tracer wraps encwatt's functions where their callers look them up, so
a rename in encwatt silently drops a per-layer metric.  The check runs in
a subprocess so the patches cannot leak into other tests.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


SCRIPT = textwrap.dedent(
    """
    import sys

    sys.path.insert(0, sys.argv[1])
    from tracer import Tracer, install

    from encwatt import cli

    tracer = Tracer()
    install(tracer)  # fails if a name the tracer patches is gone
    trace = cli.parse_trace_csv(sys.argv[2])
    spans = {name: attrs for _sid, _parent, name, _t0, _t1, attrs in tracer.spans}
    assert spans["energy.trace_build"] == {"n": len(trace)}, spans
    assert spans["meter.parse_trace_csv"] == {"n": len(trace)}, spans
    print(len(trace))
    """
)


def test_tracer_records_trace_build_with_sample_count(tmp_path):
    trace_csv = tmp_path / "trace.csv"
    trace_csv.write_text("t_s,p_w\n" + "".join(f"{t}.0,{20 + t}.5\n" for t in range(7)))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(trace_csv)],
        capture_output=True, text=True, env=_env_with_src(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "7"


MEASURED_ENCODE_SCRIPT = textwrap.dedent(
    """
    import sys

    sys.path.insert(0, sys.argv[1])
    from tracer import Tracer, install

    from encwatt import runner
    from encwatt.energy import ConfidencePolicy
    from encwatt.errors import InvalidMeasurementError
    from encwatt.meter import CounterMeter

    tracer = Tracer()
    install(tracer)
    counter, clip = sys.argv[2], sys.argv[3]
    job = runner.EncodeJob(sequence_id="s", input_path=clip, frames=1,
                           preset="ultrafast", crf=23.0)
    try:
        runner.run_measured_encode(job, sys.executable + " -c pass {input}",
                                   CounterMeter(counter, sample_period=0.02),
                                   ConfidencePolicy())
    except InvalidMeasurementError:
        pass  # a static counter reads 0 J net, which the stopping rule rejects
    print(" ".join(sorted({span[2] for span in tracer.spans})))
    """
)


def test_tracer_spans_a_measured_encode_on_a_counter_meter(tmp_path):
    counter = tmp_path / "energy_uj"
    counter.write_text("0")
    clip = tmp_path / "clip.yuv"
    clip.write_bytes(b"\x10" * 64)
    proc = subprocess.run(
        [sys.executable, "-c", MEASURED_ENCODE_SCRIPT, str(ROOT / "perfbench"),
         str(counter), str(clip)],
        capture_output=True, text=True, env=_env_with_src(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    spans = set(proc.stdout.split())
    for name in ("meter.session.start", "meter.session.stop", "meter.capture_idle",
                 "energy.net_energy", "runner.run_encode"):
        assert name in spans, (name, spans)


CROSSVAL_SCRIPT = textwrap.dedent(
    """
    import sys

    sys.path.insert(0, sys.argv[1])
    from tracer import Tracer, install

    from encwatt import cli

    tracer = Tracer()
    install(tracer)
    code = cli.main(["crossval", sys.argv[2], "--model", "time_linear", "--k", "3"])
    assert code == 0, code
    names = {span[2] for span in tracer.spans}
    assert "fitting.cross_validate.time_linear.squared_rel" in names, names
    assert tracer.counts["fitting.lstsq"] > 0, tracer.counts
    """
)


def test_tracer_spans_crossval_and_counts_lstsq(tmp_path):
    from encwatt.synth import SynthDatasetRecipe, generate_dataset

    data = tmp_path / "d.csv"
    generate_dataset(SynthDatasetRecipe(n_sequences=3, seed=0)).write_csv(data)
    proc = subprocess.run(
        [sys.executable, "-c", CROSSVAL_SCRIPT, str(ROOT / "perfbench"), str(data)],
        capture_output=True, text=True, env=_env_with_src(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
