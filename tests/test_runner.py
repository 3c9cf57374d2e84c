"""Encoder orchestration: single encodes, measured encodes, campaigns."""

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest

from encwatt.dataset import DATASET_COLUMNS, load_dataset_csv
from encwatt.energy import ConfidencePolicy
from encwatt.errors import (
    AcquisitionError,
    DatasetError,
    EncodeFailedError,
    ManifestError,
    MeasurementRunError,
)
from encwatt.meter import Meter, SyntheticMeter, SyntheticRecipe, open_meter
from encwatt.runner import (
    EncodeJob,
    EncodeResult,
    ensure_ultrafast_closure,
    load_manifest,
    parse_avg_qp,
    run_campaign,
    run_encode,
    run_measured_encode,
)

QUICK = "--base-sleep 0.08"


def make_job(input_file, preset="ultrafast", crf=23.0, sequence_id="seqA", **overrides):
    fields = dict(
        sequence_id=sequence_id,
        class_label="B",
        input_path=str(input_file),
        frames=100,
        preset=preset,
        crf=crf,
    )
    fields.update(overrides)
    return EncodeJob(**fields)


def fast_meter(noise=0.0, period=0.02, seed=0):
    return SyntheticMeter(
        SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=noise, seed=seed,
                        period=period)
    )


FAST_METER = "synth:base=20,active=30,noise=0,period=0.02"


def write_trace(path, watts, seconds):
    """A trace CSV of constant ``watts`` from 0 to ``seconds``; returns ``path``."""
    path.write_text(f"t_s,p_w\n0.0,{watts}\n{seconds},{watts}\n")
    return path


# ── job validation and QP parsing ─────────────────────────────────────────

def test_job_validation(input_file):
    with pytest.raises(ValueError):
        make_job(input_file, preset="turbo")
    with pytest.raises(ValueError):
        make_job(input_file, crf=77.0)
    with pytest.raises(ValueError):
        make_job(input_file, frames=0)
    with pytest.raises(ValueError):
        make_job(input_file, sequence_id="")


def test_parse_avg_qp_summary_line():
    log = "x265 [info]: total frames 100\nx265 [info]: frame P:   62, Avg QP:27.43  kb/s: 189.21\n"
    assert parse_avg_qp(log) == pytest.approx(27.43)


def test_parse_avg_qp_takes_last_match():
    log = "Avg QP:20.00\nAvg QP:25.50\n"
    assert parse_avg_qp(log) == pytest.approx(25.50)


def test_parse_avg_qp_absent_or_out_of_range():
    assert parse_avg_qp("no qp info here") is None
    assert parse_avg_qp("Avg QP:77.0") is None


# ── run_encode ────────────────────────────────────────────────────────────

def test_run_encode_records_wall_time_and_qp(input_file, encoder_cmd, tmp_path):
    job = make_job(input_file, preset="ultrafast", crf=23.0, extra_args=("--base-sleep", "0.3"))
    result = run_encode(job, encoder_cmd, tmp_path / "out.bin")
    assert 0.3 <= result.wall_time <= 0.9
    assert result.avg_qp == pytest.approx(23.0 + 2.13, abs=1e-6)
    assert result.bitstream_bytes > 0
    assert "encoded 100 frames" in result.encoder_log


def test_run_encode_missing_input_fails_before_spawn(encoder_cmd, tmp_path):
    job = make_job(tmp_path / "nope.yuv")
    with pytest.raises(EncodeFailedError, match="does not exist"):
        run_encode(job, encoder_cmd, tmp_path / "out.bin")


def test_run_encode_nonzero_exit_carries_log_tail(input_file, encoder_cmd, tmp_path):
    job = make_job(input_file, extra_args=("--fail",))
    with pytest.raises(EncodeFailedError) as excinfo:
        run_encode(job, encoder_cmd, tmp_path / "out.bin")
    assert "simulated encoder crash" in excinfo.value.log_tail


def test_run_encode_unknown_binary(input_file, tmp_path):
    job = make_job(input_file)
    with pytest.raises(EncodeFailedError, match="cannot execute"):
        run_encode(job, "/definitely/not/a/binary {input} {output}", tmp_path / "out.bin")


def test_run_encode_unparseable_log_keeps_result(input_file, encoder_cmd, tmp_path):
    job = make_job(input_file, extra_args=("--no-qp", "--base-sleep", "0.05"))
    result = run_encode(job, encoder_cmd, tmp_path / "out.bin")
    assert result.avg_qp is None
    assert result.wall_time > 0


def test_run_encode_writes_requested_output(input_file, encoder_cmd, tmp_path):
    out = tmp_path / "bitstream.bin"
    job = make_job(input_file, extra_args=("--base-sleep", "0.05"))
    result = run_encode(job, encoder_cmd, output_path=out)
    assert out.exists()
    assert result.bitstream_bytes == out.stat().st_size


def test_run_encode_passes_a_placeholder_in_a_value_through(encoder_cmd, tmp_path):
    # each placeholder is substituted once: the {crf} in the path is not
    literal = tmp_path / "clip_{crf}.yuv"
    literal.write_bytes(b"\x10" * 64)
    result = run_encode(make_job(literal, extra_args=("--base-sleep", "0.05")), encoder_cmd,
                        tmp_path / "out.bin")
    assert f"encoded 100 frames of {literal} " in result.encoder_log


# ── run_measured_encode ───────────────────────────────────────────────────

def test_measured_encode_energy_tracks_wall_time(input_file, encoder_cmd, monkeypatch):
    walls = []

    def timed_encode(*args, **kwargs):
        result = run_encode(*args, **kwargs)
        walls.append(result.wall_time)
        return result

    monkeypatch.setattr("encwatt.runner.run_encode", timed_encode)
    job = make_job(input_file, extra_args=("--base-sleep", "0.3"))
    policy = ConfidencePolicy(alpha=0.99, beta=0.2, min_reps=2, max_reps=4)
    record, _ = run_measured_encode(job, encoder_cmd, fast_meter(), policy)
    assert record.reps >= 2 and len(walls) == record.reps
    # each rep's net energy should be active_power * its own wall time up
    # to one sampling interval of energy; encodes under load differ in
    # wall time, so the mean over reps is no reference
    for energy, wall in zip(record.energies, walls):
        assert energy == pytest.approx(30.0 * wall, abs=30.0 * 0.02 + 1.0)


def test_measured_encode_confident_with_low_noise(input_file, tmp_path, monkeypatch):
    # Fixed wall times with a 4 % spread stand in for the encoder's jitter:
    # the rule must reach its verdict within the 8-repetition budget.
    _fake_encodes(monkeypatch, [0.25, 0.27, 0.24, 0.26, 0.25, 0.26, 0.24, 0.25])
    policy = ConfidencePolicy(alpha=0.99, beta=0.15, min_reps=2, max_reps=8)
    record, _ = run_measured_encode(make_job(input_file), "unused", _replay(tmp_path), policy)
    assert record.confident
    assert 2 < record.reps <= 8


def test_measured_encode_failure_names_repetition(input_file, stub_encoder, tmp_path):
    counter = tmp_path / "count"
    cmd = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}} {QUICK} "
        f"--fail-count-file {counter} --fail-on 3"
    )
    job = make_job(tmp_path / "clip.yuv")
    (tmp_path / "clip.yuv").write_bytes(b"\x00" * 128)
    policy = ConfidencePolicy(alpha=0.99, beta=0.0001, min_reps=2, max_reps=10)
    with pytest.raises(MeasurementRunError) as excinfo:
        run_measured_encode(job, cmd, fast_meter(), policy)
    assert excinfo.value.repetition == 3
    assert len(excinfo.value.energies) == 2
    assert all(e > 0 for e in excinfo.value.energies)


def test_measured_encode_shared_idle_trace(input_file, encoder_cmd, tmp_path):
    meter = open_meter(FAST_METER, write_trace(tmp_path / "idle.csv", 20.0, 30.0))
    job = make_job(input_file, extra_args=("--base-sleep", "0.2"))
    policy = ConfidencePolicy(beta=0.2, min_reps=2, max_reps=4)
    record, result = run_measured_encode(job, encoder_cmd, meter, policy)
    assert record.mean_energy == pytest.approx(30.0 * result.wall_time, abs=30.0 * 0.02 + 1.0)


def test_measured_encode_counts_only_the_encode(input_file, tmp_path, monkeypatch):
    # The encoder advances a live counter by exactly 1 J within its own wall
    # time, and making a temporary file takes 10 ms.  A repetition that
    # recorded the bitstream file's creation would spread the joule over
    # that longer span and read about a third low.  Only the fake encoder
    # and the fake mkstemp advance the clock, so the spans are exact.
    counter = tmp_path / "energy_uj"
    counter.write_text("0")
    joule_uj = 1_000_000
    now = [0.0]

    def encoder(argv, **kwargs):
        now[0] += 0.01
        scratch = tmp_path / "energy_uj.tmp"
        scratch.write_text(str(int(counter.read_text()) + joule_uj))
        os.replace(scratch, counter)
        now[0] += 0.01
        return subprocess.CompletedProcess(argv, 0, stdout="Avg QP:25.00", stderr="")

    mkstemp = tempfile.mkstemp

    def slow_mkstemp(*args, **kwargs):
        now[0] += 0.01
        return mkstemp(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", encoder)
    monkeypatch.setattr(tempfile, "mkstemp", slow_mkstemp)
    monkeypatch.setattr(time, "perf_counter", lambda: now[0])
    meter = open_meter(f"counter:{counter}", write_trace(tmp_path / "idle.csv", 0.0, 1.0))
    policy = ConfidencePolicy(beta=0.5, min_reps=5, max_reps=5)
    record, _ = run_measured_encode(make_job(input_file), "enc {output}", meter, policy)
    assert record.reps == 5
    assert float(np.median(record.energies)) == pytest.approx(1.0, rel=0.02), record.energies


def test_counter_campaign_rows_are_pinned(input_file, tmp_path, monkeypatch):
    # A counter at 21.7 W, 48.3 W while an encode runs, on a fake clock that
    # each encode, idle sleep and counter read advances.  Each recording also
    # holds 4.1 ms outside the encoder's own timer, so its span is longer
    # than the wall time its idle baseline lasts.  A row is the span's joules
    # less idle power over the span's seconds, and the pinned bytes move with
    # any change to that arithmetic or to the idle baseline's window.
    import encwatt.meter

    now, joules = [0.0], [0.0]

    def advance(seconds, watts=21.7):
        now[0] += seconds
        joules[0] += watts * seconds

    def read_counter(path):
        advance(0.0013)
        return int(joules[0] * 1e6)

    walls = iter([0.313, 0.297, 0.619, 0.641])

    def run_encode(job, encoder_cmd, output_path=None):
        wall = next(walls)
        advance(wall, watts=48.3)
        advance(0.0041)
        return EncodeResult(wall_time=wall, avg_qp=25.0, bitstream_bytes=100, encoder_log="")

    monkeypatch.setattr("encwatt.meter.time.perf_counter", lambda: now[0])
    monkeypatch.setattr("encwatt.meter.time.sleep", advance)
    monkeypatch.setattr(encwatt.meter, "read_counter_uj", read_counter)
    monkeypatch.setattr("encwatt.runner.run_encode", run_encode)
    counter = tmp_path / "energy_uj"
    counter.write_text("0")
    meter = encwatt.meter.CounterMeter(counter, sample_period=3600.0)  # no poll in between
    policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
    out = tmp_path / "campaign.csv"
    run_campaign([make_job(input_file, preset="fast")], "unused", meter, policy, out_csv=out)
    assert out.read_text() == (
        "sequence_id,class,preset,crf,frames,avg_qp,t_enc_s,t_enc_uf_s,energy_j,reps,confident\n"
        "seqA,B,ultrafast,23.0,100,25.0,0.305,0.305,8.112619515981432,2,false\n"
        "seqA,B,fast,23.0,100,25.0,0.63,0.305,16.757816355124643,2,false\n")


# ── closure and manifests ─────────────────────────────────────────────────

def test_ultrafast_closure_adds_missing_probes(input_file):
    jobs = [
        make_job(input_file, preset="fast", crf=23.0),
        make_job(input_file, preset="medium", crf=23.0),
        make_job(input_file, preset="fast", crf=28.0),
    ]
    closed = ensure_ultrafast_closure(jobs)
    uf = [j for j in closed if j.preset == "ultrafast"]
    assert {(j.sequence_id, j.crf) for j in uf} == {("seqA", 23.0), ("seqA", 28.0)}
    assert len(closed) == 5


def test_ultrafast_closure_keeps_existing_probe(input_file):
    jobs = [
        make_job(input_file, preset="ultrafast", crf=23.0),
        make_job(input_file, preset="fast", crf=23.0),
    ]
    assert len(ensure_ultrafast_closure(jobs)) == 2


def test_load_manifest_grid_expansion(tmp_path):
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        '{"sequence_id": "s1", "class": "B", "input": "a.yuv", "frames": 100, '
        '"presets": ["ultrafast", "fast"], "crfs": [18, 23]}\n'
        '{"sequence_id": "s2", "input": "b.yuv", "frames": 50, "preset": "medium", "crf": 28}\n'
    )
    jobs = load_manifest(manifest)
    assert len(jobs) == 5
    assert jobs[0].class_label == "B"
    assert jobs[4].sequence_id == "s2" and jobs[4].crf == 28.0


def test_load_manifest_errors(tmp_path):
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text("{not json}\n")
    with pytest.raises(ManifestError, match="line 1"):
        load_manifest(bad_json)

    missing_key = tmp_path / "missing.jsonl"
    missing_key.write_text('{"sequence_id": "s1", "frames": 10, "preset": "fast", "crf": 23}\n')
    with pytest.raises(ManifestError, match="input"):
        load_manifest(missing_key)

    dupes = tmp_path / "dupes.jsonl"
    dupes.write_text(
        '{"sequence_id": "s1", "input": "a.yuv", "frames": 10, "preset": "fast", "crf": 23}\n'
        '{"sequence_id": "s1", "input": "a.yuv", "frames": 10, "preset": "fast", "crf": 23}\n'
    )
    with pytest.raises(ManifestError, match="duplicate"):
        load_manifest(dupes)

    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(ManifestError, match="no jobs"):
        load_manifest(empty)


def test_load_manifest_names_every_duplicate_job_once_in_order(tmp_path):
    line = '{{"sequence_id": "{}", "input": "{}.yuv", "frames": 10, "presets": {}, "crf": {}}}\n'
    manifest = tmp_path / "dupes.jsonl"
    manifest.write_text(
        line.format("s2", "b", '["slow", "fast"]', 28)
        + line.format("s1", "a", '["fast"]', 23)
        + line.format("s2", "b", '["slow"]', 28)
        + line.format("s1", "a", '["fast", "medium"]', 23)
        + line.format("s2", "b", '["slow"]', 28.0)
        + line.format("s1", "a", '["medium"]', 18)
    )
    with pytest.raises(ManifestError) as info:
        load_manifest(manifest)
    assert str(info.value) == (f"{manifest}: duplicate jobs [('s1', 'fast', 23.0), "
                               f"('s2', 'slow', 28.0)]")


@pytest.mark.parametrize("scalar, plural", [("preset", "presets"), ("crf", "crfs")])
def test_load_manifest_refuses_a_scalar_and_its_list_together(tmp_path, scalar, plural):
    # one of the two forms would have to be dropped without a word
    entry = {"sequence_id": "s1", "input": "a.yuv", "frames": 10, "preset": "ultrafast",
             "crf": 23}
    both = {**entry, "sequence_id": "s2", plural: ["medium"] if scalar == "preset" else [28]}
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(json.dumps(entry) + "\n" + json.dumps(both) + "\n")
    with pytest.raises(ManifestError,
                       match=f"jobs.jsonl, line 2: give '{scalar}' or '{plural}', not both"):
        load_manifest(manifest)


@pytest.mark.parametrize("extra_args", ['"--foo"', '["--foo", 1]', '{"a": "b"}', "null"])
def test_load_manifest_takes_extra_args_only_as_a_list_of_strings(tmp_path, extra_args):
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        '{"sequence_id": "s1", "input": "a.yuv", "frames": 10, "preset": "fast", "crf": 23}\n'
        '{"sequence_id": "s2", "input": "a.yuv", "frames": 10, "preset": "fast", "crf": 23, '
        f'"extra_args": {extra_args}}}\n'
    )
    with pytest.raises(ManifestError, match="line 2.*extra_args"):
        load_manifest(manifest)


@pytest.mark.parametrize("key, value", [
    ("sequence_id", "a,b"), ("sequence_id", "a\rb"), ("class", "B\n"),
])
def test_load_manifest_refuses_text_a_dataset_row_cannot_hold(tmp_path, key, value):
    entry = {"sequence_id": "s1", "class": "B", "input": "a.yuv", "frames": 10,
             "preset": "fast", "crf": 23}
    entry[key] = value
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(json.dumps(entry) + "\n")
    with pytest.raises(ManifestError, match="line 1"):
        load_manifest(manifest)


@pytest.mark.parametrize("key, value, shown", [
    ("frames", 2.7, "'frames' must be an integer, got 2.7"),
    ("crf", True, "'crf' must be a number, got True"),
    ("sequence_id", 7, "'sequence_id' must be a string, got 7"),
    ("crfs", ["23"], "'crfs[0]' must be a number, got '23'"),
])
def test_load_manifest_refuses_a_value_of_the_wrong_json_type(tmp_path, key, value, shown):
    # int() and float() would take these without a word (2, 1.0, 23.0); 7 is no string id
    entry = {"sequence_id": "s1", "input": "a.yuv", "frames": 10, "preset": "fast", "crf": 23}
    wrong = {**entry, "sequence_id": "s2", key: value}
    if key == "crfs":
        del wrong["crf"]
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(json.dumps(entry) + "\n" + json.dumps(wrong) + "\n")
    with pytest.raises(ManifestError) as info:
        load_manifest(manifest)
    assert str(info.value) == f"{manifest}, line 2: manifest key {shown}"


@pytest.mark.parametrize("key, value, shown", [
    ("input", "b.yuv", "input 'b.yuv' here but 'a.yuv'"),
    ("frames", 50, "frames 50 here but 100"),
    ("class", "B", "class 'B' here but 'A'"),
])
def test_load_manifest_gives_a_sequence_one_input_frames_and_class(tmp_path, key, value, shown):
    # a medium row would otherwise carry another file's probe time as its t_enc_uf
    entry = {"sequence_id": "s1", "class": "A", "input": "a.yuv", "frames": 100,
             "preset": "medium", "crf": 23}
    other = {**entry, "preset": "ultrafast", key: value}
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(json.dumps(entry) + "\n" + json.dumps(other) + "\n")
    with pytest.raises(ManifestError) as info:
        load_manifest(manifest)
    assert str(info.value) == f"{manifest}, line 2: sequence 's1' has {shown} on an earlier line"
    # extra_args may differ between a sequence's lines
    other = {**entry, "preset": "ultrafast", "extra_args": ["--tune", "psnr"]}
    manifest.write_text(json.dumps(entry) + "\n" + json.dumps(other) + "\n")
    assert [job.extra_args for job in load_manifest(manifest)] == [(), ("--tune", "psnr")]


# ── campaigns ─────────────────────────────────────────────────────────────

class WrappedMeter(Meter):
    """Records and captures idle baselines with ``meter``."""

    def __init__(self, meter):
        self.meter = meter

    def record(self, activity):
        return self.meter.record(activity)

    def capture_idle(self, duration):
        return self.meter.capture_idle(duration)


class SessionCountingMeter(WrappedMeter):
    """Fails the test if two measurement sessions ever overlap."""

    def __init__(self, meter):
        super().__init__(meter)
        self.active = 0
        self.max_active = 0

    def record(self, activity):
        self.active += 1
        self.max_active = max(self.max_active, self.active)
        try:
            return super().record(activity)
        finally:
            self.active -= 1


def quick_policy():
    return ConfidencePolicy(alpha=0.99, beta=0.3, min_reps=2, max_reps=3)


def test_campaign_grid_with_explicit_ultrafast(input_file, tmp_path, monkeypatch):
    jobs = []
    for seq in ("s1", "s2"):
        for preset in ("ultrafast", "medium"):
            jobs.append(make_job(input_file, preset=preset, sequence_id=seq))
    # fixed wall times, in campaign order: each job is confident after 2
    # identical repetitions, and medium takes 2.5x its probe's time
    _fake_encodes(monkeypatch, [0.06, 0.06, 0.15, 0.15] * 2)
    meter = SessionCountingMeter(_replay(tmp_path))
    out = tmp_path / "campaign.csv"
    dataset = run_campaign(jobs, "unused", meter, quick_policy(), out_csv=out)
    assert len(dataset.rows) == 4
    assert not dataset.failures
    assert meter.max_active == 1
    loaded = load_dataset_csv(out)
    assert len(loaded) == 4
    assert all(row.t_enc_uf > 0 for row in loaded.rows)
    # slower preset shows a longer wall time than its probe
    for row in loaded.rows:
        if row.preset == "medium":
            assert row.t_enc > row.t_enc_uf


def test_campaign_auto_adds_ultrafast_probes(input_file, encoder_cmd, tmp_path):
    jobs = [
        make_job(input_file, preset="fast", sequence_id="s1",
                 extra_args=("--base-sleep", "0.05")),
        make_job(input_file, preset="fast", sequence_id="s2",
                 extra_args=("--base-sleep", "0.05")),
    ]
    dataset = run_campaign(jobs, encoder_cmd, fast_meter(), quick_policy(),
                           out_csv=tmp_path / "c.csv")
    assert len(dataset.rows) == 4  # 2 requested + 2 auto probes
    presets = sorted(row.preset for row in dataset.rows)
    assert presets == ["fast", "fast", "ultrafast", "ultrafast"]


def test_campaign_records_failures_and_continues(input_file, stub_encoder, tmp_path):
    # the probe for s1 succeeds; its fast encode fails every attempt
    cmd = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}} {QUICK}"
    )
    jobs = [
        make_job(input_file, preset="ultrafast", sequence_id="s1"),
        make_job(input_file, preset="fast", sequence_id="s1", extra_args=("--fail",)),
        make_job(input_file, preset="fast", sequence_id="s2"),
    ]
    dataset = run_campaign(jobs, cmd, fast_meter(), quick_policy(),
                           out_csv=tmp_path / "c.csv")
    assert len(dataset.failures) == 1
    assert dataset.failures[0][0] == "s1:fast:crf23"
    # probe rows for both sequences plus the surviving fast row
    assert len(dataset.rows) == 3


def test_campaign_resume_skips_completed_jobs(input_file, stub_encoder, tmp_path):
    call_log = tmp_path / "calls.log"
    cmd = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}} {QUICK} "
        f"--call-log {call_log}"
    )
    out = tmp_path / "campaign.csv"
    jobs = [
        make_job(input_file, preset="ultrafast", sequence_id="s1"),
        make_job(input_file, preset="fast", sequence_id="s1"),
    ]
    first = run_campaign(jobs, cmd, fast_meter(), quick_policy(), out_csv=out)
    assert len(first.rows) == 2
    calls_before = call_log.read_text().count("\n")

    # add one job and resume: only the new one should run
    jobs.append(make_job(input_file, preset="medium", sequence_id="s1"))
    second = run_campaign(jobs, cmd, fast_meter(), quick_policy(), out_csv=out, resume=True)
    assert len(second.rows) == 3
    new_calls = call_log.read_text().count("\n") - calls_before
    assert new_calls <= 3  # only the medium job's repetitions
    loaded = load_dataset_csv(out)
    assert len(loaded) == 3


def test_campaign_empty_job_list_rejected(encoder_cmd, tmp_path):
    with pytest.raises(ValueError):
        run_campaign([], encoder_cmd, fast_meter(), quick_policy(), out_csv=tmp_path / "d.csv")


def test_measured_encode_with_live_counter_meter(input_file, encoder_cmd, tmp_path):
    # Counter file fed at a constant 5 W by a background thread, with a
    # shared 2 W idle baseline: net energy must be 3 W x wall time.  This
    # drives the threaded sampler and the edge readings.
    import os
    import threading
    import time as time_mod

    counter = tmp_path / "energy_uj"
    scratch = tmp_path / "energy_uj.tmp"
    counter.write_text("0")
    stop = threading.Event()
    t0 = time_mod.monotonic()

    def ticker():
        while not stop.is_set():
            elapsed = time_mod.monotonic() - t0
            scratch.write_text(str(int(5.0e6 * elapsed)))  # 5 W
            os.replace(scratch, counter)  # atomic: readers never see partial writes
            time_mod.sleep(0.005)

    thread = threading.Thread(target=ticker, daemon=True)
    thread.start()
    try:
        meter = open_meter(f"counter:{counter}", write_trace(tmp_path / "idle.csv", 2.0, 30.0))
        job = make_job(input_file, extra_args=("--base-sleep", "0.3"))
        policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
        record, result = run_measured_encode(job, encoder_cmd, meter, policy)
        assert record.reps == 2
        expected = 3.0 * result.wall_time
        for energy in record.energies:
            assert energy == pytest.approx(expected, abs=0.6)
    finally:
        stop.set()
        thread.join()


def test_campaign_records_negative_energy_job_as_failure(input_file, encoder_cmd, tmp_path):
    # idle baseline above the measured trace: net energy is negative, the
    # running mean is non-positive, and the job must fail without
    # aborting the campaign
    meter = open_meter(FAST_METER, write_trace(tmp_path / "hot_idle.csv", 80.0, 30.0))
    jobs = [make_job(input_file, preset="ultrafast", extra_args=("--base-sleep", "0.05"))]
    dataset = run_campaign(jobs, encoder_cmd, meter, quick_policy(),
                           out_csv=tmp_path / "neg.csv")
    assert len(dataset.rows) == 0
    assert len(dataset.failures) == 1


def test_failed_encodes_leave_no_sampler_running(input_file, stub_encoder, tmp_path):
    # The encoder fails within milliseconds, before the sampler has two
    # intervals: each job must be recorded as an encoder failure, not a
    # meter abort, and its sampler thread must be stopped.
    import threading

    from encwatt.meter import CounterMeter

    counter = tmp_path / "energy_uj"
    counter.write_text("0")
    cmd = (
        f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
        f"--preset {{preset}} --crf {{crf}} --frames {{frames}} --fail"
    )
    jobs = [make_job(input_file, sequence_id=seq) for seq in ("s1", "s2")]
    meter = CounterMeter(counter, sample_period=0.5)
    dataset = run_campaign(jobs, cmd, meter, quick_policy(), out_csv=tmp_path / "d.csv")
    labels = [label for label, _ in dataset.failures]
    assert labels == ["s1:ultrafast:crf23", "s2:ultrafast:crf23"]
    assert all("exited with status 3" in message for _, message in dataset.failures)
    samplers = [t for t in threading.enumerate() if t.name == "encwatt-sampler"]
    assert not any(t.is_alive() for t in samplers)


def _replay(tmp_path, idle_seconds=10.0):
    """A replay meter at 50 W with a shared 20 W idle trace, 10 s long by default."""
    trace = write_trace(tmp_path / "replay.csv", 50.0, 10.0)
    return open_meter(f"csv:{trace}", write_trace(tmp_path / "idle.csv", 20.0, idle_seconds))


def _fake_clock(monkeypatch):
    """Stop the meter's clock; return the function that advances it."""
    now = [0.0]
    monkeypatch.setattr("encwatt.meter.time.perf_counter", lambda: now[0])

    def advance(seconds):
        now[0] += seconds

    return advance


def _fake_encodes(monkeypatch, wall_times):
    """Replace the encoder with results of the given wall times, in turn.

    Each encode advances the meter's clock by its wall time, so a recording
    spans exactly its encode.
    """
    walls = iter(wall_times)
    advance = _fake_clock(monkeypatch)

    def run_encode(job, encoder_cmd, output_path=None):
        wall = next(walls)
        advance(wall)
        return EncodeResult(wall_time=wall, avg_qp=25.0, bitstream_bytes=100, encoder_log="")

    monkeypatch.setattr("encwatt.runner.run_encode", run_encode)


def test_campaign_rows_use_mean_wall_time_of_repetitions(input_file, tmp_path, monkeypatch):
    _fake_encodes(monkeypatch, [1.0, 3.0])
    policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
    meter = _replay(tmp_path)
    dataset = run_campaign([make_job(input_file)], "unused", meter, policy,
                           out_csv=tmp_path / "d.csv")
    (row,) = dataset.rows
    assert row.reps == 2
    assert row.t_enc == 2.0 and row.t_enc_uf == 2.0


def test_campaign_resume_drops_torn_last_row(input_file, tmp_path, monkeypatch):
    _fake_encodes(monkeypatch, [1.0] * 6)
    policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
    meter = _replay(tmp_path)
    out = tmp_path / "campaign.csv"
    uf = make_job(input_file, preset="ultrafast")
    fast = make_job(input_file, preset="fast")
    run_campaign([uf], "unused", meter, policy, out_csv=out)
    complete = out.read_text()
    # a campaign killed while appending the fast row
    out.write_text(complete + "seqA,B,fast,23.0,100,25.0,1.0")
    resumed = run_campaign([uf, fast], "unused", meter, policy,
                           out_csv=out, resume=True)
    assert len(resumed.rows) == 2 and not resumed.failures
    loaded = load_dataset_csv(out)
    assert [row.preset for row in loaded.rows] == ["ultrafast", "fast"]
    assert out.read_text().startswith(complete)


def test_campaign_resume_rejects_corrupt_row_before_the_last(input_file, tmp_path, monkeypatch):
    _fake_encodes(monkeypatch, [1.0] * 4)
    policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
    meter = _replay(tmp_path)
    out = tmp_path / "campaign.csv"
    uf = make_job(input_file, preset="ultrafast")
    run_campaign([uf], "unused", meter, policy, out_csv=out)
    header, row = out.read_text().splitlines()
    out.write_text(f"{header}\n{row[:20]}\n{row}\n")
    with pytest.raises(DatasetError, match="row 2"):
        run_campaign([uf], "unused", meter, policy, out_csv=out, resume=True)


def test_campaign_without_resume_refuses_a_csv_that_holds_rows(input_file, tmp_path, monkeypatch):
    calls = []

    def run_encode(job, encoder_cmd, output_path=None):
        calls.append(job.label())
        return EncodeResult(wall_time=1.0, avg_qp=25.0, bitstream_bytes=100, encoder_log="")

    monkeypatch.setattr("encwatt.runner.run_encode", run_encode)
    policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
    meter = _replay(tmp_path)
    out = tmp_path / "campaign.csv"
    uf = make_job(input_file, preset="ultrafast")
    out.write_text(",".join(DATASET_COLUMNS) + "\n")  # a header alone is appended to
    run_campaign([uf], "unused", meter, policy, out_csv=out)
    assert len(calls) == 2
    before = out.read_bytes()
    with pytest.raises(DatasetError, match="--resume"):
        run_campaign([uf], "unused", meter, policy, out_csv=out)
    assert len(calls) == 2
    assert out.read_bytes() == before
    assert len(load_dataset_csv(out)) == 1


class FailingMeter(WrappedMeter):
    """Fails on its recording number ``fail_at``, as a meter lost mid-campaign."""

    def __init__(self, meter, fail_at):
        super().__init__(meter)
        self.fail_at = fail_at
        self.recordings = 0

    def record(self, activity):
        self.recordings += 1
        if self.recordings == self.fail_at:
            raise AcquisitionError("counter vanished")
        return super().record(activity)


def test_campaign_aborts_on_a_meter_failure_and_keeps_the_rows_before_it(
        input_file, tmp_path, monkeypatch):
    _fake_encodes(monkeypatch, [1.0] * 4)
    policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
    meter = FailingMeter(_replay(tmp_path), fail_at=3)
    out = tmp_path / "campaign.csv"
    jobs = [make_job(input_file, preset="ultrafast"), make_job(input_file, preset="fast")]
    with pytest.raises(AcquisitionError, match="counter vanished"):
        run_campaign(jobs, "unused", meter, policy, out_csv=out)
    assert meter.recordings == 3
    (row,) = load_dataset_csv(out).rows
    assert row.preset == "ultrafast" and row.reps == 2


def _logged_encodes(monkeypatch, failing):
    """Replace the encoder with 1 s encodes; return the log of their labels.

    A job whose label is in ``failing`` fails as a crashed encoder does.
    """
    calls = []
    advance = _fake_clock(monkeypatch)

    def run_encode(job, encoder_cmd, output_path=None):
        calls.append(job.label())
        if job.label() in failing:
            raise EncodeFailedError("encoder exited with status 3")
        advance(1.0)
        return EncodeResult(wall_time=1.0, avg_qp=25.0, bitstream_bytes=100, encoder_log="")

    monkeypatch.setattr("encwatt.runner.run_encode", run_encode)
    return calls


def test_campaign_aborts_when_the_idle_trace_is_shorter_than_an_encode(
        input_file, tmp_path, monkeypatch):
    # a trace that cannot cover an encode is a meter failure: the campaign
    # stops at its first repetition, not after one encode per probe
    calls = _logged_encodes(monkeypatch, failing=())
    meter = _replay(tmp_path, idle_seconds=0.5)
    jobs = [make_job(input_file, preset=preset, crf=crf)
            for preset in ("ultrafast", "medium") for crf in (23.0, 28.0)]
    out = tmp_path / "campaign.csv"
    with pytest.raises(AcquisitionError, match=r"window \[0\.0, 1\.0\] outside trace span"):
        run_campaign(jobs, "unused", meter, quick_policy(), out_csv=out)
    assert calls == ["seqA:ultrafast:crf23"]
    assert len(load_dataset_csv(out)) == 0


PROBE_FAILED = "ultrafast probe for this bitstream failed"


def test_campaign_encodes_no_preset_of_a_bitstream_whose_probe_row_is_refused(
        input_file, tmp_path, monkeypatch):
    # a preset row written with a refused probe's time would make the file
    # unloadable: "no ultrafast row for sequence 's1' at crf 23.0"
    import encwatt.runner

    calls = _logged_encodes(monkeypatch, failing=set())
    make_row = encwatt.runner.DatasetRow

    def refusing_row(**fields):
        if (fields["sequence_id"], fields["preset"]) == ("s1", "ultrafast"):
            raise DatasetError("probe row refused")
        return make_row(**fields)

    monkeypatch.setattr("encwatt.runner.DatasetRow", refusing_row)
    policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
    meter = _replay(tmp_path)
    out = tmp_path / "campaign.csv"
    jobs = [make_job(input_file, preset=preset, sequence_id=seq)
            for seq in ("s1", "s2") for preset in ("ultrafast", "medium")]
    dataset = run_campaign(jobs, "unused", meter, policy, out_csv=out)
    loaded = load_dataset_csv(out)
    assert [row.key() for row in loaded.rows] == [("s2", "ultrafast", 23.0),
                                                  ("s2", "medium", 23.0)]
    assert loaded.rows == dataset.rows
    assert calls == ["s1:ultrafast:crf23"] * 2 + ["s2:ultrafast:crf23"] * 2 + ["s2:medium:crf23"] * 2
    assert dataset.failures == (("s1:ultrafast:crf23", "probe row refused"),
                                ("s1:medium:crf23", PROBE_FAILED))


def test_campaign_resume_after_a_failed_probe_runs_the_probe_then_its_presets(
        input_file, tmp_path, monkeypatch):
    uf, medium, slow = "s1:ultrafast:crf23", "s1:medium:crf23", "s1:slow:crf23"
    failing = {uf}
    calls = _logged_encodes(monkeypatch, failing)
    policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
    meter = _replay(tmp_path)
    out = tmp_path / "campaign.csv"
    jobs = [make_job(input_file, preset=preset, sequence_id="s1")
            for preset in ("slow", "medium", "ultrafast")]
    first = run_campaign(jobs, "unused", meter, policy, out_csv=out)
    assert calls == [uf]
    assert [label for label, _ in first.failures] == [uf, medium, slow]
    assert first.failures[1:] == ((medium, PROBE_FAILED), (slow, PROBE_FAILED))
    assert not first.rows and len(load_dataset_csv(out)) == 0

    failing.clear()
    calls.clear()
    second = run_campaign(jobs, "unused", meter, policy, out_csv=out,
                          resume=True)
    assert calls == [uf] * 2 + [medium] * 2 + [slow] * 2
    assert not second.failures
    loaded = load_dataset_csv(out)
    assert [row.preset for row in loaded.rows] == ["ultrafast", "medium", "slow"]
    assert {row.t_enc_uf for row in loaded.rows} == {loaded.rows[0].t_enc}
