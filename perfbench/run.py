#!/usr/bin/env python3
"""encwatt benchmark: four closed-loop workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Workloads (one job at a time, from one benchmark process with at most two
threads: the main thread and, for ``campaign_counter``, the counter feeder):

* ``campaign_counter``: ``encwatt measure`` against a simulated RAPL
  counter file and the stub encoder, per-repetition idle capture.
* ``campaign_replay``: ``encwatt measure`` replaying ~1e6-sample 1 kHz
  trace CSVs with a shared idle trace.
* ``model_crossval``: ``encwatt synth`` (9,000 rows), six ``crossval``
  runs and ``estimate``.
* ``stopping_mc``: ``measure_until_confident`` over seeded normal draws.

Each run works in a fresh temporary directory under ``perfbench/.runs``,
repeats its workload unit until ``--seconds`` would be exceeded (at least
once) and reports medians over the units.  With ``--trace 0`` it prints
the end-to-end metrics of ``BENCHMARK.json`` plus ``wall_s``, ``cpu_s``
and ``setup_raw_s``, which are not gated; with ``--trace 1`` the
per-layer metrics from a traced run (one untraced unit first, as the
reference for the tracing overhead).  Every metric is printed as ``name
value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run, with the machine description and the
git SHA, is written to ``perfbench/results/``.
"""

import argparse
import csv
import json
import os
import platform
import random
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from feeder import CounterFeeder  # noqa: E402
from tracer import summarize  # noqa: E402

PY = sys.executable
PROCESS_TIMEOUT_S = 90.0

# Campaign grid: one sequence x {ultrafast, veryfast, medium} x 2 CRFs,
# with repetitions fixed, because under the default beta the repetition
# count of a stub campaign is noise-driven.
PRESETS = ("ultrafast", "veryfast", "medium")
CRFS = (23.0, 33.0)
REPS = 2
SETUP_PROBES = {"campaign_counter": 5, "campaign_replay": 2}
# A row is grossly wrong when its energy is off the truth by more than this
# share.  Base power is drawn close to the active power, so a lost idle
# subtraction (+60-110 %) fails; the poll-phase bias of the counter meter (a
# few %) is reported in runner.energy_err_pct_*, not hidden by this bound.
GROSS_ERROR = 0.30
BASE_W = (60.0, 100.0)
ACTIVE_W = (90.0, 110.0)
REPLAY_SAMPLES = 1_000_000
REPLAY_RATE_HZ = 1000.0
# The replayed total trace holds the active power only for its first
# second, so an integration window anchored anywhere but at the trace's
# first sample reads too little.
REPLAY_ACTIVE_S = 1.0

CROSSVAL_SEQUENCES = 250
SLOPE_TOL = 0.03
VERSION_PROBES = 7
# setup_s is paced by reference.py, run before and after each set-up probe:
# it is the probe's time on a machine that runs reference.py in this long.
# Raw set-up seconds follow the shared machine's speed, which drifts by
# 20-30 %; the raw median is printed as setup_raw_s.
REFERENCE_NOMINAL_S = 0.25

# End-to-end figures that are printed and recorded but not in BENCHMARK.json.
INFO_METRICS = {"wall_s": "s", "cpu_s": "s", "setup_raw_s": "s"}


# ── metric arithmetic (checked by selfcheck.py) ──────────────────────────

def campaign_figures(launch, wall, cpu_total, entries):
    """End-to-end figures of one campaign from the stub's log.

    ``entries`` are the stub's log lines in call order.  Set-up runs from
    the launch to the first encoder start; the overhead ratio is the
    campaign wall time over the encoders' own time, so spawn, settle and
    idle capture count as overhead; encwatt's CPU time is the process
    total (which includes its reaped children) minus the stubs' own.
    """
    encode_s = sum(e["end"] - e["start"] for e in entries)
    return {
        "setup_s": entries[0]["start"] - launch if entries else None,
        "encode_s": encode_s,
        "overhead_ratio": wall / encode_s if encode_s > 0 else None,
        "cpu_s": cpu_total - sum(e["cpu_s"] for e in entries),
    }


def truth_by_job(entries, truth_j):
    """Mean active joules per (preset, crf) job, pairing encodes in order."""
    if len(entries) != len(truth_j):
        raise ValueError(f"{len(entries)} encodes logged but {len(truth_j)} seen by the feeder")
    per_job = {}
    for entry, joules in zip(entries, truth_j):
        per_job.setdefault((entry["preset"], float(entry["crf"])), []).append(joules)
    return {key: statistics.fmean(values) for key, values in per_job.items()}


def error_pct(measured, truth):
    return (measured - truth) / truth * 100.0


# ── processes ─────────────────────────────────────────────────────────────

class Proc:
    def __init__(self, code, launch, wall, usage, stdout, stderr):
        self.code, self.launch, self.wall = code, launch, wall
        self.cpu = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stdout, self.stderr = stdout, stderr


class Context:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        runs = HERE / ".runs"
        runs.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=runs))
        # Single-threaded BLAS: on a small shared machine a second BLAS thread
        # makes the wall time depend on whether another core is free.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.dir),
                        OPENBLAS_NUM_THREADS="1")
        self._n = 0
        self.notes = []

    def fresh(self, name):
        self._n += 1
        path = self.dir / f"{self._n:03d}-{name}"
        path.mkdir()
        return path

    def run(self, argv, workdir):
        """Run a child to completion and read its resource use from wait4."""
        out, err = workdir / "stdout.txt", workdir / "stderr.txt"
        with open(out, "w") as fo, open(err, "w") as fe:
            launch = time.monotonic()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=workdir)
        # A watchdog alarm rather than a thread: the benchmark process keeps
        # to two threads (main and the counter feeder).
        signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, PROCESS_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.monotonic() - launch
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, launch, wall, usage, out.read_text(), err.read_text())

    def cli(self, args, workdir, traced):
        if traced:
            argv = [PY, str(HERE / "traced_cli.py"), str(workdir / "spans.json"), *args]
        else:
            argv = [PY, "-m", "encwatt.cli", *args]
        return self.run(argv, workdir)

    def note(self, text):
        self.notes.append(text)
        print(f"# {self.workload}: {text}", file=sys.stderr)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def spans_of(ctx, workdir):
    """The dump a traced CLI process wrote; an empty one, noted, if it wrote none."""
    path = workdir / "spans.json"
    if path.exists():
        return json.loads(path.read_text())
    ctx.note(f"no spans from {workdir.name}")
    return {"spans": [], "counts": {}, "records": [], "import_s": 0.0}


def read_jsonl(path):
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def timed_units(seconds, unit, minimum=1):
    """Run ``unit(i)`` until the next one would end after ``seconds``.

    ``unit`` runs at least ``minimum`` times.
    """
    results, start = [], time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(unit(len(results)))
        now = time.monotonic()
        if len(results) >= minimum and now - start + (now - t0) > seconds:
            return results


def reference_wall(ctx, workdir):
    """Wall time of reference.py, fixed work independent of encwatt."""
    proc = ctx.run([PY, str(HERE / "reference.py")], workdir)
    if proc.code != 0:
        ctx.note(f"reference work exited {proc.code}: {proc.stderr[-300:]}")
    return proc.wall


def setup_probes(ctx, probe, n):
    """Set-up times of ``n`` calls of ``probe`` (None when one fails), paced.

    Each probe's wall time is divided by the mean of the reference.py runs
    right before and after it and scaled to ``REFERENCE_NOMINAL_S``.
    """
    references = [reference_wall(ctx, ctx.fresh("reference"))]
    raw, paced = [], []
    for _ in range(n):
        wall = probe()
        references.append(reference_wall(ctx, ctx.fresh("reference")))
        if wall is not None:
            raw.append(wall)
            paced.append(wall / statistics.fmean(references[-2:]) * REFERENCE_NOMINAL_S)
    return {"setup_s": paced, "setup_raw_s": raw, "extra_attempted": n,
            "extra_failed": n - len(raw)}


def version_probe(ctx, traced=False, dumps=None):
    """Interpreter start plus imports: wall time of ``encwatt --version``."""
    workdir = ctx.fresh("version")
    proc = ctx.cli(["--version"], workdir, traced)
    if traced:
        dumps.append(spans_of(ctx, workdir))
    if proc.code != 0 or not proc.stdout.startswith("encwatt "):
        ctx.note(f"--version exited {proc.code}: {proc.stderr.strip()[-300:]}")
        return None
    return proc.wall


def traced_imports(ctx):
    """``cli.import_s`` of traced ``encwatt --version`` probes."""
    dumps = []
    failed = sum(version_probe(ctx, traced=True, dumps=dumps) is None
                 for _ in range(VERSION_PROBES))
    return {"import_s": [d["import_s"] for d in dumps], "extra_attempted": VERSION_PROBES,
            "extra_failed": failed}


# ── campaigns ─────────────────────────────────────────────────────────────

class Campaign:
    """Inputs shared by the units of one campaign workload."""

    def __init__(self, ctx, meter_args, active_w, feeder=None):
        self.ctx, self.meter_args, self.active_w, self.feeder = ctx, meter_args, active_w, feeder
        self.input = ctx.dir / "clip.yuv"
        self.input.write_bytes(b"\x10" * 4096)
        self.marker = ctx.dir / "encoding.marker"

    def _manifest(self, workdir, presets, crfs):
        path = workdir / "jobs.jsonl"
        path.write_text(json.dumps({
            "sequence_id": "seq00", "class": "A", "input": str(self.input), "frames": 100,
            "presets": list(presets), "crfs": list(crfs),
        }) + "\n")
        return path

    def _args(self, workdir, presets, crfs, probe=False):
        stub = [PY, "-S", str(HERE / "stub_encoder.py"),
                "--input", "{input}", "--output", "{output}", "--preset", "{preset}",
                "--crf", "{crf}", "--frames", "{frames}",
                "--marker", str(self.marker), "--log", str(workdir / "stub.jsonl")]
        if probe:
            stub.append("--probe")
        return ["measure", str(self._manifest(workdir, presets, crfs)),
                *self.meter_args, "--encoder-cmd", shlex.join(stub),
                "--out", str(workdir / "out.csv"),
                "--min-reps", str(REPS), "--max-reps", str(REPS)]

    def probe(self):
        """Set-up only: the stub logs its start and fails, so the campaign ends there."""
        workdir = self.ctx.fresh("probe")
        proc = self.ctx.cli(self._args(workdir, ["ultrafast"], [CRFS[0]], probe=True),
                            workdir, traced=False)
        entries = read_jsonl(workdir / "stub.jsonl")
        if proc.code != 4 or len(entries) != 1:
            self.ctx.note(f"set-up probe exited {proc.code} with {len(entries)} stub call(s): "
                          f"{proc.stderr.strip()[-300:]}")
            return None
        return campaign_figures(proc.launch, proc.wall, proc.cpu, entries)["setup_s"]

    def unit(self, traced):
        ctx = self.ctx
        workdir = ctx.fresh("campaign")
        truth_from = len(self.feeder.truth_j) if self.feeder else 0
        proc = ctx.cli(self._args(workdir, PRESETS, CRFS), workdir, traced)
        entries = read_jsonl(workdir / "stub.jsonl")
        figures = campaign_figures(proc.launch, proc.wall, proc.cpu, entries)
        jobs = [(p, c) for p in PRESETS for c in CRFS]
        rows = {}
        if (workdir / "out.csv").exists():
            with open(workdir / "out.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    rows[(row["preset"], float(row["crf"]))] = row
        if self.feeder:
            try:
                truth = truth_by_job(entries, self.feeder.truth_j[truth_from:])
            except ValueError as exc:
                ctx.note(str(exc))
                truth = {}
        else:
            # The active energy the replayed trace holds over the row's window.
            truth = {key: self.active_w * min(float(row["t_enc_s"]), REPLAY_ACTIVE_S)
                     for key, row in rows.items()}
        errors, failed = [], 0
        for job in jobs:
            row = rows.get(job)
            if row is None or job not in truth:
                failed += 1
                ctx.note(f"job {job}: no row or no truth")
                continue
            err = error_pct(float(row["energy_j"]), truth[job])
            errors.append(err)
            if abs(err) > GROSS_ERROR * 100.0:
                failed += 1
                ctx.note(f"job {job}: energy {row['energy_j']} J is {err:+.1f} % off the truth")
        if proc.code != 0:
            failed += 1
            ctx.note(f"measure exited {proc.code}: {proc.stderr.strip()[-300:]}")
        result = {
            "wall_s": proc.wall, "overhead_ratio": figures["overhead_ratio"], "cpu_s": figures["cpu_s"],
            "peak_rss_mb": proc.peak_rss_mb, "attempted": len(jobs) + 1, "failed": failed,
            "energy_err_pct": errors,
        }
        if traced:
            dump = spans_of(ctx, workdir)
            layers = summarize([dump])
            run_encode = [s for s in dump["spans"] if s[2] == "runner.run_encode"]
            layers["runner.spawn_s"] = (sum(s[4] - s[3] for s in run_encode)
                                        - figures["encode_s"])
            abs_err = [abs(e) for e in errors]
            layers["runner.energy_err_pct_p50"] = statistics.median(abs_err) if abs_err else 0.0
            layers["runner.energy_err_pct_max"] = max(abs_err) if abs_err else 0.0
            result["layers"] = layers
            result["import_s"] = [dump["import_s"]]
        return result


def _campaign_workload(ctx, campaign):
    if ctx.trace:
        reference = campaign.unit(traced=False)
        units = timed_units(ctx.seconds, lambda i: campaign.unit(traced=True))
        return {"units": units, "reference": reference}
    setup = setup_probes(ctx, campaign.probe, SETUP_PROBES[ctx.workload])
    units = timed_units(ctx.seconds, lambda i: campaign.unit(traced=False))
    return {"units": units, **setup}


def campaign_counter(ctx):
    rng = random.Random(ctx.seed)
    base_w, active_w = rng.uniform(*BASE_W), rng.uniform(*ACTIVE_W)
    counter = ctx.dir / "energy_uj"
    feeder = CounterFeeder(counter, ctx.dir / "encoding.marker", base_w, active_w,
                           start_uj=rng.randrange(2**32))
    feeder.start()
    try:
        campaign = Campaign(ctx, ["--meter", f"counter:{counter}"], active_w, feeder)
        return _campaign_workload(ctx, campaign)
    finally:
        feeder.stop()


def _write_trace(path, times, powers):
    with open(path, "w") as fh:
        fh.write("t_s,p_w\n")
        fh.write("\n".join(map("{:.3f},{:.4f}".format, times, powers)))
        fh.write("\n")


def campaign_replay(ctx):
    import numpy as np

    rng = np.random.default_rng(ctx.seed)
    base_w, active_w = rng.uniform(*BASE_W), rng.uniform(*ACTIVE_W)
    times = np.arange(REPLAY_SAMPLES) / REPLAY_RATE_HZ
    active = np.where(times < REPLAY_ACTIVE_S, active_w, 0.0)
    total, idle = ctx.dir / "total.csv", ctx.dir / "idle.csv"
    _write_trace(total, times, base_w + active + rng.normal(0.0, 0.5, REPLAY_SAMPLES))
    _write_trace(idle, times, base_w + rng.normal(0.0, 0.5, REPLAY_SAMPLES))
    campaign = Campaign(ctx, ["--meter", f"csv:{total}", "--idle-trace", str(idle)], active_w)
    return _campaign_workload(ctx, campaign)


# ── model cross-validation ────────────────────────────────────────────────

def _crossval_unit(ctx, recipe, traced, ground_truth):
    workdir = ctx.fresh("crossval")
    data = workdir / "data.csv"
    commands = [("synth", ["synth", "--recipe", str(recipe), "--out", str(data)])]
    for model in ("qp_cubic", "time_linear", "uf_linear"):
        for objective in ("squared_rel", "abs_rel"):
            commands.append((f"{model}.{objective}",
                             ["crossval", str(data), "--model", model, "--objective",
                              objective, "--out", str(workdir / f"{model}.{objective}.json")]))
    commands.append(("estimate", ["estimate", "--defaults", "--t-uf", "2.0"]))

    # Each command is paced by the reference.py runs right before and after it.
    procs, dumps, bad = {}, [], set()
    references = [reference_wall(ctx, ctx.fresh("reference"))]
    reference_s = 0.0
    for name, args in commands:
        cmd_dir = workdir / name
        cmd_dir.mkdir()
        procs[name] = proc = ctx.cli(args, cmd_dir, traced)
        references.append(reference_wall(ctx, ctx.fresh("reference")))
        reference_s += statistics.fmean(references[-2:])
        if proc.code != 0:
            bad.add(name)
            ctx.note(f"{name} exited {proc.code}: {proc.stderr.strip()[-300:]}")
        if traced:
            dumps.append(spans_of(ctx, cmd_dir))

    reports = {}
    for name, _ in commands[1:-1]:
        path = workdir / f"{name}.json"
        if name not in bad and path.exists():
            reports[name] = json.loads(path.read_text())
        else:
            bad.add(name)
    for objective in ("squared_rel", "abs_rel"):
        # Own-time slopes recover the true power within 3 % on the default
        # data (acceptance criterion 5).
        own = reports.get(f"time_linear.{objective}")
        if own is not None:
            for preset, params in own["linear_params"].items():
                expected = ground_truth[preset].power_w
                if abs(params["p_w"] / expected - 1.0) > SLOPE_TOL:
                    bad.add(f"time_linear.{objective}")
                    ctx.note(f"time_linear {objective} slope for {preset}: {params['p_w']:.4g} W, "
                             f"expected {expected:.4g} W within {SLOPE_TOL:.0%}")
        # The probe slopes are reported, not checked: with the default 8 %
        # time jitter they read a few % low.
        uf = reports.get(f"uf_linear.{objective}")
        if uf is not None:
            worst = max(abs(params["p_w"] / (ground_truth[p].power_w * ground_truth[p].time_factor)
                            - 1.0) for p, params in uf["linear_params"].items())
            ctx.note(f"uf_linear {objective}: largest slope error {worst:.2%}")
        errs = [reports.get(f"{m}.{objective}") for m in ("time_linear", "uf_linear", "qp_cubic")]
        if None not in errs:
            t, u, q = (r["overall_error"] for r in errs)
            if not t <= u < q:
                bad.add(f"qp_cubic.{objective}")
                ctx.note(f"{objective}: errors out of order: time {t:.4f} uf {u:.4f} qp {q:.4f}")
    estimate = procs["estimate"].stdout.split("\n")
    estimates = [line.split() for line in estimate[1:] if line.strip()]
    if (estimate[0] != "preset estimate_j estimate_kj" or len(estimates) != 8
            or not all(float(e[1]) > 0 for e in estimates)):
        bad.add("estimate")
        ctx.note(f"estimate printed unexpected output: {procs['estimate'].stdout[:300]!r}")

    wall = sum(p.wall for p in procs.values())
    result = {
        "wall_s": wall,
        "overhead_ratio": wall / reference_s,
        "cpu_s": sum(p.cpu for p in procs.values()),
        "peak_rss_mb": max(p.peak_rss_mb for p in procs.values()),
        "attempted": len(commands), "failed": len(bad),
    }
    if traced:
        result["layers"] = summarize(dumps)
        result["import_s"] = [d["import_s"] for d in dumps]
    return result


def model_crossval(ctx):
    recipe = ctx.dir / "recipe.json"
    recipe.write_text(json.dumps({"n_sequences": CROSSVAL_SEQUENCES, "seed": ctx.seed}))
    sys.path.insert(0, str(SRC))
    from encwatt.synth import GROUND_TRUTH

    def unit(traced):
        return _crossval_unit(ctx, recipe, traced, GROUND_TRUTH)

    if ctx.trace:
        imports = traced_imports(ctx)
        reference = unit(False)
        units = timed_units(ctx.seconds, lambda i: unit(True))
        return {"units": units, "reference": reference, **imports}
    setup = setup_probes(ctx, lambda: version_probe(ctx), VERSION_PROBES)
    units = timed_units(ctx.seconds, lambda i: unit(False))
    return {"units": units, **setup}


# ── stopping-rule Monte Carlo ─────────────────────────────────────────────

def stopping_mc(ctx):
    if ctx.trace:
        setup = traced_imports(ctx)
    else:
        setup = setup_probes(ctx, lambda: version_probe(ctx), VERSION_PROBES)
    workdir = ctx.fresh("mc")
    argv = [PY, str(HERE / "mc_worker.py"), "--seed", str(ctx.seed),
            "--seconds", str(ctx.seconds)] + (["--trace"] if ctx.trace else [])
    proc = ctx.run(argv, workdir)
    blocks = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
    if proc.code != 0 or not blocks:
        ctx.note(f"mc_worker exited {proc.code}: {proc.stderr.strip()[-300:]}")
        setup["extra_attempted"] += 1
        setup["extra_failed"] += 1
        return {"units": [], **setup}
    reference = blocks.pop(0) if blocks[0].get("reference") else None
    # Coverage is pooled per sigma over the run's blocks: one check per sigma.
    pooled = {}
    for block in blocks:
        for sigma, (confident, covered) in block["coverage"].items():
            c = pooled.setdefault(sigma, [0, 0])
            c[0] += confident
            c[1] += covered
    bad = 0
    for sigma, (confident, covered) in pooled.items():
        coverage = covered / confident if confident else 0.0
        print(f"stopping_mc coverage sigma={float(sigma):.1%}: {coverage:.4f} "
              f"of {confident} confident", file=sys.stderr)
        if coverage < 0.97:
            bad += 1
            ctx.note(f"coverage {coverage:.4f} < 0.97 at sigma {sigma}")
    units = []
    for block in blocks:
        unit = {"wall_s": block["wall_s"], "cpu_s": block["cpu_s"],
                "overhead_ratio": block["rule_s"] / block["bare_s"],
                "peak_rss_mb": proc.peak_rss_mb, "attempted": 0, "failed": 0}
        if "layers" in block:
            unit["layers"] = block["layers"]
        units.append(unit)
    setup["extra_attempted"] += len(pooled)
    setup["extra_failed"] += bad
    return {"units": units, "reference": reference, **setup}


WORKLOADS = {
    "campaign_counter": campaign_counter,
    "campaign_replay": campaign_replay,
    "model_crossval": model_crossval,
    "stopping_mc": stopping_mc,
}


# ── reporting ─────────────────────────────────────────────────────────────

def machine():
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu, "cores": os.cpu_count(),
            "python": platform.python_version()}


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def median_of(units, key):
    values = [u[key] for u in units if u.get(key) is not None]
    return statistics.median(values) if values else None


def report(ctx, outcome):
    spec = load_spec()
    units = outcome["units"]
    reference = outcome.get("reference")
    checked = units + ([reference] if reference else [])
    attempted = sum(u["attempted"] for u in checked) + outcome.get("extra_attempted", 0)
    failed = sum(u["failed"] for u in checked) + outcome.get("extra_failed", 0)
    metrics = {}
    if ctx.trace:
        for u in units:
            if "layers" in u:
                u["layers"]["cli.import_s"] = statistics.median(
                    outcome.get("import_s", []) + u.get("import_s", []) or [0.0])
        for m in spec["per_layer"]:
            values = [u["layers"][m["name"]] for u in units if m["name"] in u.get("layers", {})]
            # a layer the workload never enters reads 0
            metrics[m["name"]] = statistics.median(values) if values else 0.0
        traced_wall = median_of(units, "wall_s")
        metrics["trace.overhead_pct"] = (
            (traced_wall / reference["wall_s"] - 1.0) * 100.0 if reference and traced_wall
            else 0.0)
        units_of = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = median_of(units, m["name"])
        units_of = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        # Printed and recorded, not gated: on a small shared machine their
        # run-to-run spread exceeds the largest bound the benchmark may set.
        for name in INFO_METRICS:
            metrics[name] = median_of(units, name)
        for name in ("setup_s", "setup_raw_s"):
            metrics[name] = statistics.median(outcome[name]) if outcome[name] else None
    missing = [name for name in units_of if metrics.get(name) is None]
    if missing:
        ctx.note(f"no value for {missing}")
        failed += len(missing)
        attempted += len(missing)
    attempted = max(attempted, 1)
    for name, unit in units_of.items():
        print(f"{ctx.workload} {name} {metrics.get(name)!r} {unit}")
    if not ctx.trace:
        for name, unit in INFO_METRICS.items():
            print(f"{ctx.workload} {name} {metrics.get(name)!r} {unit} (not gated)")
    print(f"{ctx.workload} fail_ratio {failed / attempted!r} ratio ({failed} of {attempted})")
    record = {
        "workload": ctx.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == ctx.workload),
        "seed": ctx.seed,
        "seconds": ctx.seconds, "trace": ctx.trace, "machine": machine(), "git_sha": git_sha(),
        "units": units, "reference": outcome.get("reference"), "metrics": metrics,
        "attempted": attempted, "failed": failed, "notes": ctx.notes,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics.get(name) or 0.0, "unit": unit}
                    for name, unit in units_of.items()},
    }))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="check the benchmark's own metric arithmetic and exit")
    args = ap.parse_args()
    if args.self_check:
        import selfcheck
        return selfcheck.main()
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "encwatt" / "cli.py").is_file():
        print(f"error: encwatt sources not found under {SRC}", file=sys.stderr)
        return 2
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"sha={git_sha()} machine={json.dumps(machine())}")
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        ctx.close()
    report(ctx, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
