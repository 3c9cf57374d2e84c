"""Encoder orchestration: single encodes, measured encodes, campaigns."""

import sys

import pytest

from encwatt.dataset import load_dataset_csv
from encwatt.energy import ConfidencePolicy
from encwatt.errors import (
    DatasetError,
    EncodeFailedError,
    ManifestError,
    MeasurementRunError,
)
from encwatt.meter import CsvReplayMeter, SyntheticMeter, SyntheticRecipe
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
        SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=noise, seed=seed),
        sample_period=period,
    )


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

def test_run_encode_records_wall_time_and_qp(input_file, encoder_cmd):
    job = make_job(input_file, preset="ultrafast", crf=23.0, extra_args=("--base-sleep", "0.3"))
    result = run_encode(job, encoder_cmd)
    assert 0.3 <= result.wall_time <= 0.9
    assert result.avg_qp == pytest.approx(23.0 + 2.13, abs=1e-6)
    assert result.bitstream_bytes > 0
    assert "encoded 100 frames" in result.encoder_log


def test_run_encode_missing_input_fails_before_spawn(encoder_cmd, tmp_path):
    job = make_job(tmp_path / "nope.yuv")
    with pytest.raises(EncodeFailedError, match="does not exist"):
        run_encode(job, encoder_cmd)


def test_run_encode_nonzero_exit_carries_log_tail(input_file, encoder_cmd):
    job = make_job(input_file, extra_args=("--fail",))
    with pytest.raises(EncodeFailedError) as excinfo:
        run_encode(job, encoder_cmd)
    assert "simulated encoder crash" in excinfo.value.log_tail


def test_run_encode_unknown_binary(input_file):
    job = make_job(input_file)
    with pytest.raises(EncodeFailedError, match="cannot execute"):
        run_encode(job, "/definitely/not/a/binary {input} {output}")


def test_run_encode_unparseable_log_keeps_result(input_file, encoder_cmd):
    job = make_job(input_file, extra_args=("--no-qp", "--base-sleep", "0.05"))
    result = run_encode(job, encoder_cmd)
    assert result.avg_qp is None
    assert result.wall_time > 0


def test_run_encode_writes_requested_output(input_file, encoder_cmd, tmp_path):
    out = tmp_path / "bitstream.bin"
    job = make_job(input_file, extra_args=("--base-sleep", "0.05"))
    result = run_encode(job, encoder_cmd, output_path=out)
    assert out.exists()
    assert result.bitstream_bytes == out.stat().st_size


# ── run_measured_encode ───────────────────────────────────────────────────

def test_measured_encode_energy_tracks_wall_time(input_file, encoder_cmd):
    job = make_job(input_file, extra_args=("--base-sleep", "0.3"))
    policy = ConfidencePolicy(alpha=0.99, beta=0.2, min_reps=2, max_reps=4)
    record, result = run_measured_encode(job, encoder_cmd, fast_meter(), policy)
    assert record.reps >= 2
    # net energy per rep should be active_power * wall_time up to one
    # sampling interval of energy
    expected = 30.0 * result.wall_time
    for energy in record.energies:
        assert energy == pytest.approx(expected, abs=30.0 * 0.02 + 1.0)


def test_measured_encode_confident_with_low_noise(input_file, encoder_cmd):
    job = make_job(input_file, extra_args=("--base-sleep", "0.25"))
    policy = ConfidencePolicy(alpha=0.99, beta=0.15, min_reps=2, max_reps=8)
    record, _ = run_measured_encode(job, encoder_cmd, fast_meter(noise=0.2, seed=5), policy)
    assert record.confident


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


def test_measured_encode_shared_idle_trace(input_file, encoder_cmd):
    from encwatt.meter import generate_synthetic_trace

    idle = generate_synthetic_trace(
        SyntheticRecipe(base_power=20.0, active_power=0.0, noise_std=0.0, duration=30.0),
        (0.0, 0.0), sample_period=0.02,
    )
    job = make_job(input_file, extra_args=("--base-sleep", "0.2"))
    policy = ConfidencePolicy(beta=0.2, min_reps=2, max_reps=4)
    record, result = run_measured_encode(
        job, encoder_cmd, fast_meter(), policy, idle_trace=idle
    )
    assert record.mean_energy == pytest.approx(30.0 * result.wall_time, abs=30.0 * 0.02 + 1.0)


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


# ── campaigns ─────────────────────────────────────────────────────────────

class SessionCountingMeter(SyntheticMeter):
    """Fails the test if two measurement sessions ever overlap."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
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


def test_campaign_grid_with_explicit_ultrafast(input_file, encoder_cmd, tmp_path):
    jobs = []
    for seq in ("s1", "s2"):
        for preset in ("ultrafast", "medium"):
            jobs.append(make_job(input_file, preset=preset, sequence_id=seq,
                                 extra_args=("--base-sleep", "0.06")))
    meter = SessionCountingMeter(
        SyntheticRecipe(base_power=20.0, active_power=30.0, noise_std=0.0),
        sample_period=0.02,
    )
    out = tmp_path / "campaign.csv"
    dataset = run_campaign(jobs, encoder_cmd, meter, quick_policy(), out_csv=out)
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


def test_campaign_empty_job_list_rejected(encoder_cmd):
    with pytest.raises(ValueError):
        run_campaign([], encoder_cmd, fast_meter(), quick_policy())


def test_measured_encode_with_live_counter_meter(input_file, encoder_cmd, tmp_path):
    # Counter file fed at a constant 5 W by a background thread, with a
    # shared 2 W idle baseline: net energy must be 3 W x wall time.  This
    # drives the threaded sampler, readiness handshake, and settle wait.
    import os
    import threading
    import time as time_mod

    from encwatt.meter import CounterMeter, generate_synthetic_trace

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
        idle = generate_synthetic_trace(
            SyntheticRecipe(base_power=2.0, active_power=0.0, noise_std=0.0, duration=30.0),
            (0.0, 0.0), sample_period=0.05,
        )
        meter = CounterMeter(counter, sample_period=0.05)
        job = make_job(input_file, extra_args=("--base-sleep", "0.3"))
        policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
        record, result = run_measured_encode(job, encoder_cmd, meter, policy, idle_trace=idle)
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
    from encwatt.meter import SyntheticRecipe as Recipe, generate_synthetic_trace

    hot_idle = generate_synthetic_trace(
        Recipe(base_power=80.0, active_power=0.0, noise_std=0.0, duration=30.0),
        (0.0, 0.0), sample_period=0.02,
    )
    jobs = [make_job(input_file, preset="ultrafast", extra_args=("--base-sleep", "0.05"))]
    dataset = run_campaign(jobs, encoder_cmd, fast_meter(), quick_policy(),
                           out_csv=tmp_path / "neg.csv", idle_trace=hot_idle)
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
    dataset = run_campaign(jobs, cmd, meter, quick_policy())
    labels = [label for label, _ in dataset.failures]
    assert labels == ["s1:ultrafast:crf23", "s2:ultrafast:crf23"]
    assert all("exited with status 3" in message for _, message in dataset.failures)
    samplers = [t for t in threading.enumerate() if t.name == "encwatt-sampler"]
    assert not any(t.is_alive() for t in samplers)


def _replay(tmp_path):
    """A replay meter at 50 W and a 20 W idle trace, both 10 s long."""
    from encwatt.meter import generate_synthetic_trace

    trace = tmp_path / "replay.csv"
    trace.write_text("t_s,p_w\n0.0,50.0\n10.0,50.0\n")
    idle = generate_synthetic_trace(
        SyntheticRecipe(base_power=20.0, active_power=0.0, duration=10.0), (0.0, 0.0)
    )
    return CsvReplayMeter(trace), idle


def _fake_encodes(monkeypatch, wall_times):
    """Replace the encoder with results of the given wall times, in turn."""
    walls = iter(wall_times)

    def run_encode(job, encoder_cmd, output_path=None):
        return EncodeResult(job=job, wall_time=next(walls), avg_qp=25.0,
                            bitstream_bytes=100, encoder_log="")

    monkeypatch.setattr("encwatt.runner.run_encode", run_encode)


def test_campaign_rows_use_mean_wall_time_of_repetitions(input_file, tmp_path, monkeypatch):
    _fake_encodes(monkeypatch, [1.0, 3.0])
    policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
    meter, idle = _replay(tmp_path)
    dataset = run_campaign([make_job(input_file)], "unused", meter, policy, idle_trace=idle)
    (row,) = dataset.rows
    assert row.reps == 2
    assert row.t_enc == 2.0 and row.t_enc_uf == 2.0


def test_campaign_resume_drops_torn_last_row(input_file, tmp_path, monkeypatch):
    _fake_encodes(monkeypatch, [1.0] * 6)
    policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
    meter, idle = _replay(tmp_path)
    out = tmp_path / "campaign.csv"
    uf = make_job(input_file, preset="ultrafast")
    fast = make_job(input_file, preset="fast")
    run_campaign([uf], "unused", meter, policy, out_csv=out, idle_trace=idle)
    complete = out.read_text()
    # a campaign killed while appending the fast row
    out.write_text(complete + "seqA,B,fast,23.0,100,25.0,1.0")
    resumed = run_campaign([uf, fast], "unused", meter, policy,
                           out_csv=out, idle_trace=idle, resume=True)
    assert len(resumed.rows) == 2 and not resumed.failures
    loaded = load_dataset_csv(out)
    assert [row.preset for row in loaded.rows] == ["ultrafast", "fast"]
    assert out.read_text().startswith(complete)


def test_campaign_resume_rejects_corrupt_row_before_the_last(input_file, tmp_path, monkeypatch):
    _fake_encodes(monkeypatch, [1.0] * 4)
    policy = ConfidencePolicy(alpha=0.99, beta=0.9, min_reps=2, max_reps=2)
    meter, idle = _replay(tmp_path)
    out = tmp_path / "campaign.csv"
    uf = make_job(input_file, preset="ultrafast")
    run_campaign([uf], "unused", meter, policy, out_csv=out, idle_trace=idle)
    header, row = out.read_text().splitlines()
    out.write_text(f"{header}\n{row[:20]}\n{row}\n")
    with pytest.raises(DatasetError, match="row 2"):
        run_campaign([uf], "unused", meter, policy, out_csv=out, idle_trace=idle, resume=True)
