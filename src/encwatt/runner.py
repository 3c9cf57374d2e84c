"""Run encoder processes over a campaign grid with concurrent power sampling.

The encoder is invoked through a command template with ``{input}``,
``{output}``, ``{preset}``, ``{crf}``, and ``{frames}`` placeholders, so
any encoder binary or stub script can drive the pipeline.  Measured jobs
run strictly one at a time; only the meter's sampler runs concurrently
with the encoder process.

Campaign manifests are JSON Lines: one object per line with keys
``sequence_id``, ``class`` (optional), ``input``, ``frames``, and either
scalar or list-valued ``preset``/``presets`` and ``crf``/``crfs``, which
are expanded as a grid.  ``extra_args`` (list of strings) is passed on
to each job.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import re
import shlex
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .dataset import Dataset, DatasetRow, DatasetWriter, load_dataset_csv
from .energy import (
    ConfidencePolicy,
    MeasurementRecord,
    PowerTrace,
    measure_until_confident,
    net_energy,
)
from .errors import (
    AcquisitionError,
    DatasetError,
    EncodeFailedError,
    InvalidMeasurementError,
    ManifestError,
    MeasurementRunError,
)
from .meter import Meter
from .models import PRESETS

logger = logging.getLogger(__name__)

__all__ = [
    "EncodeJob",
    "EncodeResult",
    "parse_avg_qp",
    "run_encode",
    "run_measured_encode",
    "run_campaign",
    "load_manifest",
    "ensure_ultrafast_closure",
]

# Matches the encoder's end-of-run summary lines, e.g.
# "x265 [info]: frame P:   62, Avg QP:27.43  kb/s: 189.21".  The last
# match in the log wins, which is the final cumulative average.
_AVG_QP = re.compile(r"Avg QP:\s*([0-9]+(?:\.[0-9]+)?)")

_PRESET_RANK = {name: i for i, name in enumerate(PRESETS)}


@dataclass(frozen=True)
class EncodeJob:
    """One sequence x preset x CRF encoding task."""

    sequence_id: str
    input_path: str
    frames: int
    preset: str
    crf: float
    class_label: str = ""
    extra_args: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.sequence_id:
            raise ValueError("sequence_id must be non-empty")
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        if self.preset not in PRESETS:
            raise ValueError(f"preset must be one of {PRESETS}, got {self.preset!r}")
        if not 0.0 <= self.crf <= 51.0:
            raise ValueError(f"crf must be in [0, 51], got {self.crf}")
        object.__setattr__(self, "extra_args", tuple(self.extra_args))

    def key(self) -> tuple[str, str, float]:
        return (self.sequence_id, self.preset, float(self.crf))

    def label(self) -> str:
        return f"{self.sequence_id}:{self.preset}:crf{self.crf:g}"


@dataclass(frozen=True)
class EncodeResult:
    """Observed outcome of one encoder invocation."""

    job: EncodeJob
    wall_time: float
    avg_qp: Optional[float]
    bitstream_bytes: int
    encoder_log: str


def parse_avg_qp(log: str) -> Optional[float]:
    """Extract the final average QP from an encoder log, or None."""
    matches = _AVG_QP.findall(log)
    if not matches:
        return None
    value = float(matches[-1])
    if not 0.0 <= value <= 51.0:
        logger.warning("parsed avg QP %.3f outside [0, 51]; marking absent", value)
        return None
    return value


def _substitute(template: str, mapping: dict[str, str]) -> list[str]:
    tokens = shlex.split(template)
    out = []
    for token in tokens:
        for key, value in mapping.items():
            token = token.replace("{" + key + "}", value)
        out.append(token)
    return out


def run_encode(
    job: EncodeJob,
    encoder_cmd: str,
    output_path: Optional[str | Path] = None,
) -> EncodeResult:
    """Run one encode and capture wall time, average QP, and bitstream size.

    The bitstream goes to ``output_path`` or to a temporary file that is
    removed after its size is recorded.  A nonzero encoder exit raises
    :class:`EncodeFailedError` carrying the log tail; an unparseable log
    only leaves ``avg_qp`` absent.
    """
    if not Path(job.input_path).is_file():
        raise EncodeFailedError(f"{job.label()}: input file {job.input_path!r} does not exist")
    temp_output = output_path is None
    if temp_output:
        fd, out_name = tempfile.mkstemp(prefix="encwatt_", suffix=".bin")
        os.close(fd)
    else:
        out_name = str(output_path)
    mapping = {
        "input": job.input_path,
        "output": out_name,
        "preset": job.preset,
        "crf": f"{job.crf:g}",
        "frames": str(job.frames),
    }
    argv = _substitute(encoder_cmd, mapping) + list(job.extra_args)
    try:
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True)
        except OSError as exc:
            raise EncodeFailedError(f"{job.label()}: cannot execute {argv[0]!r}: {exc}") from exc
        wall_time = time.perf_counter() - start
        log = proc.stdout + proc.stderr
        if proc.returncode != 0:
            tail = "\n".join(log.splitlines()[-20:])
            raise EncodeFailedError(
                f"{job.label()}: encoder exited with status {proc.returncode}", log_tail=tail
            )
        avg_qp = parse_avg_qp(log)
        if avg_qp is None:
            logger.warning("%s: no average QP found in encoder log", job.label())
        size = Path(out_name).stat().st_size if Path(out_name).exists() else 0
        return EncodeResult(
            job=job,
            wall_time=wall_time,
            avg_qp=avg_qp,
            bitstream_bytes=size,
            encoder_log=log,
        )
    finally:
        if temp_output:
            Path(out_name).unlink(missing_ok=True)


def run_measured_encode(
    job: EncodeJob,
    encoder_cmd: str,
    meter: Meter,
    policy: ConfidencePolicy,
    idle_trace: Optional[PowerTrace] = None,
) -> tuple[MeasurementRecord, EncodeResult]:
    """Measure one job's net energy, repeating until confident.

    Each repetition records power while the encoder runs, then, unless a
    shared ``idle_trace`` was supplied, captures a fresh idle baseline of
    the same duration immediately afterwards (the two consecutive
    measurements pattern).  Returns the stopping-rule record and the
    final repetition's encode result with ``wall_time`` set to the mean
    over the repetitions, the same ones ``mean_energy`` averages.
    """
    results: list[EncodeResult] = []

    def one_rep() -> float:
        total, result = meter.record(lambda: run_encode(job, encoder_cmd))
        idle = idle_trace if idle_trace is not None else meter.capture_idle(result.wall_time)
        results.append(result)
        return net_energy(total, idle, result.wall_time)

    record = measure_until_confident(one_rep, policy, job_id=job.label())
    # statistics.mean is exact, so equal wall times average to themselves
    mean_wall = statistics.mean(r.wall_time for r in results)
    return record, replace(results[-1], wall_time=mean_wall)


def ensure_ultrafast_closure(jobs: Sequence[EncodeJob]) -> list[EncodeJob]:
    """Add an ultrafast job for every (sequence, CRF) that lacks one."""
    have_uf = {(j.sequence_id, float(j.crf)) for j in jobs if j.preset == "ultrafast"}
    out = list(jobs)
    added: set[tuple[str, float]] = set()
    for job in jobs:
        key = (job.sequence_id, float(job.crf))
        if key not in have_uf and key not in added:
            out.append(replace(job, preset="ultrafast"))
            added.add(key)
    return out


def _campaign_order(jobs: Sequence[EncodeJob]) -> list[EncodeJob]:
    # Ultrafast first within each (sequence, crf) so the probe time is
    # known when the slower presets of that bitstream run.
    return sorted(jobs, key=lambda j: (j.sequence_id, j.crf, _PRESET_RANK[j.preset]))


def _drop_torn_last_line(path: Path) -> None:
    """Truncate an unterminated last line, as a campaign killed mid-write leaves.

    Every row the writer completes ends in a newline, so only the last
    line can be torn; appending after it would glue the next row onto it.
    """
    with path.open("rb+") as fh:
        data = fh.read()
        if data.endswith(b"\n") or not data:
            return
        keep = data.rfind(b"\n") + 1
        torn = data[keep:].decode(errors="replace")
        logger.warning("%s: dropping unterminated last line %r", path, torn)
        fh.truncate(keep)


def run_campaign(
    jobs: Sequence[EncodeJob],
    encoder_cmd: str,
    meter: Meter,
    policy: ConfidencePolicy,
    out_csv: Optional[str | Path] = None,
    idle_trace: Optional[PowerTrace] = None,
    resume: bool = False,
) -> Dataset:
    """Measure a whole campaign grid sequentially and build a dataset.

    Jobs run one at a time.  Rows are appended to ``out_csv`` as soon as
    they complete, so an interrupted campaign can be resumed: with
    ``resume=True`` previously completed rows are loaded and their jobs
    skipped; a torn last line is dropped.  Per-job failures are recorded
    on the returned dataset; only meter failures abort the campaign.
    """
    if not jobs:
        raise ValueError("job list is empty")
    expanded = ensure_ultrafast_closure(jobs)
    seen: set[tuple[str, str, float]] = set()
    for job in expanded:
        if job.key() in seen:
            raise ManifestError(f"duplicate job {job.label()}")
        seen.add(job.key())
    ordered = _campaign_order(expanded)

    rows: list[DatasetRow] = []
    completed: set[tuple[str, str, float]] = set()
    uf_times: dict[tuple[str, float], float] = {}
    if resume and out_csv is not None and Path(out_csv).exists():
        _drop_torn_last_line(Path(out_csv))
        previous = load_dataset_csv(out_csv, require_closure=False)
        rows.extend(previous.rows)
        for row in previous.rows:
            completed.add(row.key())
            if row.preset == "ultrafast":
                uf_times[(row.sequence_id, row.crf)] = row.t_enc
        logger.info("resuming campaign: %d rows already present", len(rows))

    failures: list[tuple[str, str]] = []
    with DatasetWriter(out_csv) if out_csv is not None else contextlib.nullcontext() as writer:
        for job in ordered:
            if job.key() in completed:
                continue
            try:
                record, result = run_measured_encode(
                    job, encoder_cmd, meter, policy, idle_trace=idle_trace
                )
            except AcquisitionError:
                raise
            except MeasurementRunError as exc:
                if isinstance(exc.__cause__, AcquisitionError):
                    raise exc.__cause__
                failures.append((job.label(), str(exc)))
                logger.error("%s failed: %s", job.label(), exc)
                continue
            except (EncodeFailedError, InvalidMeasurementError) as exc:
                failures.append((job.label(), str(exc)))
                logger.error("%s failed: %s", job.label(), exc)
                continue
            if job.preset == "ultrafast":
                uf_times[(job.sequence_id, float(job.crf))] = result.wall_time
            t_uf = uf_times.get((job.sequence_id, float(job.crf)))
            if t_uf is None:
                failures.append((job.label(), "ultrafast probe for this bitstream failed"))
                logger.error("%s: no ultrafast probe time available", job.label())
                continue
            try:
                row = DatasetRow(
                    sequence_id=job.sequence_id,
                    class_label=job.class_label,
                    preset=job.preset,
                    crf=float(job.crf),
                    frames=job.frames,
                    avg_qp=result.avg_qp,
                    t_enc=result.wall_time,
                    t_enc_uf=t_uf,
                    energy=record.mean_energy,
                    reps=record.reps,
                    confident=record.confident,
                )
            except DatasetError as exc:
                failures.append((job.label(), str(exc)))
                logger.error("%s produced an invalid row: %s", job.label(), exc)
                continue
            rows.append(row)
            completed.add(job.key())
            if writer is not None:
                writer.append(row)
            logger.info(
                "%s: %.2f J over %d rep(s), confident=%s",
                job.label(), record.mean_energy, record.reps, record.confident,
            )
    return Dataset(
        rows=tuple(rows),
        provenance=str(out_csv) if out_csv else "in-memory campaign",
        failures=tuple(failures),
    )


def _as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def load_manifest(path: str | Path) -> list[EncodeJob]:
    """Parse a JSON Lines campaign manifest into an expanded job list."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    jobs: list[EncodeJob] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}, line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(entry, dict):
            raise ManifestError(f"{path}, line {lineno}: expected an object")
        try:
            presets = _as_list(entry.get("presets", entry.get("preset", [])))
            crfs = _as_list(entry.get("crfs", entry.get("crf", [])))
            if not presets:
                raise KeyError("preset")
            if not crfs:
                raise KeyError("crf")
            for preset in presets:
                for crf in crfs:
                    jobs.append(
                        EncodeJob(
                            sequence_id=entry["sequence_id"],
                            class_label=entry.get("class", ""),
                            input_path=entry["input"],
                            frames=int(entry["frames"]),
                            preset=preset,
                            crf=float(crf),
                            extra_args=tuple(entry.get("extra_args", [])),
                        )
                    )
        except KeyError as exc:
            raise ManifestError(f"{path}, line {lineno}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"{path}, line {lineno}: {exc}") from exc
    if not jobs:
        raise ManifestError(f"{path}: manifest defines no jobs")
    keys = [j.key() for j in jobs]
    if len(set(keys)) != len(keys):
        dupes = {k for k in keys if keys.count(k) > 1}
        raise ManifestError(f"{path}: duplicate jobs {sorted(dupes)}")
    return jobs
