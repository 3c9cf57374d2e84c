"""Run encoder processes over a campaign grid with concurrent power sampling.

The encoder is invoked through a command template with ``{input}``,
``{output}``, ``{preset}``, ``{crf}``, and ``{frames}`` placeholders, so
any encoder binary or stub script can drive the pipeline.  Measured jobs
run strictly one at a time; only the meter's sampler runs concurrently
with the encoder process, and each idle baseline spans its encode's wall time.

Campaign manifests are JSON Lines: one object per line with keys
``sequence_id``, ``class`` (optional), ``input``, ``frames``, and one of
scalar ``preset`` or list ``presets`` and one of ``crf`` or ``crfs``,
which are expanded as a grid.  ``extra_args`` (list of strings) is passed on
to each job.  Lines may share a ``sequence_id`` only with one ``input``,
``frames`` and ``class``; their ``extra_args`` may differ.
"""

from __future__ import annotations

import logging
import os
import re
import shlex
import statistics
import subprocess
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

from .dataset import Dataset, DatasetRow, DatasetWriter, check_job_identity, probe_key
from .energy import ConfidencePolicy, MeasurementRecord, measure_until_confident, net_energy
from .errors import (
    AcquisitionError,
    DatasetError,
    EncodeFailedError,
    InvalidMeasurementError,
    ManifestError,
    MeasurementRunError,
)
from .meter import Meter
from .models import PRESETS, parse_json, read_json

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
        check_job_identity(self)
        object.__setattr__(self, "extra_args", tuple(self.extra_args))

    def key(self) -> tuple[str, str, float]:
        return (self.sequence_id, self.preset, float(self.crf))

    def label(self) -> str:
        return f"{self.sequence_id}:{self.preset}:crf{self.crf:g}"


@dataclass(frozen=True)
class EncodeResult:
    """Observed outcome of one encoder invocation."""

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
    """The argv of ``template``, each ``{key}`` of ``mapping`` replaced by its value.

    Each token is substituted in one pass, so a value that itself holds a
    placeholder (a path ``clip_{crf}.yuv``) reaches the encoder as given.
    """
    placeholder = re.compile(r"\{(" + "|".join(map(re.escape, mapping)) + r")\}")
    return [placeholder.sub(lambda m: mapping[m.group(1)], token)
            for token in shlex.split(template)]


def run_encode(job: EncodeJob, encoder_cmd: str, output_path: str | Path) -> EncodeResult:
    """Run one encode into ``output_path``; capture wall time, average QP and bitstream size.

    A nonzero encoder exit raises :class:`EncodeFailedError` carrying the
    log tail, whose last three lines end its message; an unparseable log
    only leaves ``avg_qp`` absent.  Failure messages leave naming the job
    to the caller.
    """
    if not Path(job.input_path).is_file():
        raise EncodeFailedError(f"input file {job.input_path!r} does not exist")
    mapping = {
        "input": job.input_path,
        "output": str(output_path),
        "preset": job.preset,
        "crf": f"{job.crf:g}",
        "frames": str(job.frames),
    }
    argv = _substitute(encoder_cmd, mapping) + list(job.extra_args)
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True)
    except OSError as exc:
        raise EncodeFailedError(f"cannot execute {argv[0]!r}: {exc}") from exc
    wall_time = time.perf_counter() - start
    log = proc.stdout + proc.stderr
    if proc.returncode != 0:
        lines = log.splitlines()
        last = " | ".join([line.strip() for line in lines if line.strip()][-3:])
        raise EncodeFailedError(
            f"encoder exited with status {proc.returncode}"
            + (f"; log ends: {last}" if last else ""),
            log_tail="\n".join(lines[-20:]),
        )
    avg_qp = parse_avg_qp(log)
    if avg_qp is None:
        logger.warning("%s: no average QP found in encoder log", job.label())
    size = Path(output_path).stat().st_size if Path(output_path).exists() else 0
    return EncodeResult(wall_time=wall_time, avg_qp=avg_qp, bitstream_bytes=size, encoder_log=log)


def run_measured_encode(
    job: EncodeJob,
    encoder_cmd: str,
    meter: Meter,
    policy: ConfidencePolicy,
) -> tuple[MeasurementRecord, EncodeResult]:
    """Measure one job's net energy, repeating until confident.

    Each repetition records energy while the encoder runs, then takes the
    meter's idle baseline over the encode's wall time, captured right
    afterwards unless the meter has a shared idle trace (the two
    consecutive measurements pattern).  Returns the stopping-rule record
    and the final repetition's encode result with ``wall_time`` set to the
    mean over the repetitions, the same ones ``mean_energy`` averages.  The
    repetitions share one temporary bitstream file, made before the
    first and removed after the last, so that no recording holds its
    creation or removal.
    """
    results: list[EncodeResult] = []
    fd, out_name = tempfile.mkstemp(prefix="encwatt_", suffix=".bin")
    os.close(fd)

    def one_rep() -> float:
        total, result = meter.record(lambda: run_encode(job, encoder_cmd, output_path=out_name))
        idle = meter.capture_idle(result.wall_time)
        results.append(result)
        return net_energy(total, idle)

    try:
        record = measure_until_confident(one_rep, policy, job_id=job.label())
    finally:
        Path(out_name).unlink(missing_ok=True)
    # statistics.mean is exact, so equal wall times average to themselves
    mean_wall = statistics.mean(r.wall_time for r in results)
    return record, replace(results[-1], wall_time=mean_wall)


def ensure_ultrafast_closure(jobs: Sequence[EncodeJob]) -> list[EncodeJob]:
    """Add an ultrafast job for every (sequence, CRF) that lacks one."""
    out = list(jobs)
    keys = {job.key() for job in jobs}
    for job in jobs:
        if probe_key(job) not in keys:
            out.append(replace(job, preset="ultrafast"))
            keys.add(probe_key(job))
    return out


def _campaign_order(jobs: Sequence[EncodeJob]) -> list[EncodeJob]:
    # Ultrafast first within each (sequence, crf) so the probe's row is
    # written before the slower presets of that bitstream run.
    return sorted(jobs, key=lambda j: (j.sequence_id, j.crf, _PRESET_RANK[j.preset]))


def run_campaign(
    jobs: Sequence[EncodeJob],
    encoder_cmd: str,
    meter: Meter,
    policy: ConfidencePolicy,
    out_csv: str | Path,
    resume: bool = False,
) -> Dataset:
    """Measure a whole campaign grid sequentially and build a dataset.

    Jobs run one at a time, each bitstream's ultrafast probe first.  Rows
    are appended to ``out_csv`` as they complete and are the campaign's
    only state: with ``resume=True`` the jobs of the rows already there are
    skipped, a row's ``t_enc_uf`` is its probe row's ``t_enc``, and a job
    whose probe has no row is recorded as failed without being encoded.
    A row whose class or frame count is not its sequence's in ``jobs`` is
    refused with :class:`DatasetError` before any encode.
    :class:`DatasetWriter` decides what an existing file may hold, and
    refuses it before any encode; an ``encoder_cmd`` that does not split
    into words is refused before the file is opened.  Per-job failures
    are recorded on the returned dataset.  A meter failure, an
    :class:`AcquisitionError` in any repetition (an unreadable or corrupt
    counter, a malformed trace, or a trace shorter than the encode),
    aborts the campaign at once.
    """
    if not jobs:
        raise ValueError("job list is empty")
    try:
        words = shlex.split(encoder_cmd)
    except ValueError as exc:
        raise ValueError(f"encoder command {encoder_cmd!r} cannot be split: {exc}") from exc
    if not words:
        raise ValueError(f"encoder command {encoder_cmd!r} holds no words")
    ordered = _campaign_order(ensure_ultrafast_closure(jobs))

    failures: list[tuple[str, str]] = []
    with DatasetWriter(out_csv, resume=resume) as writer:
        done = {row.key(): row for row in writer.rows}
        sequences = {job.sequence_id: (job.class_label, job.frames) for job in ordered}
        for row in writer.rows:
            given = sequences.get(row.sequence_id)
            if given is not None and given != (row.class_label, row.frames):
                raise DatasetError(
                    f"{out_csv}: sequence {row.sequence_id!r} was measured as class "
                    f"{row.class_label!r} with {row.frames} frames, but its jobs give class "
                    f"{given[0]!r} with {given[1]} frames"
                )
        if done:
            logger.info("resuming campaign: %d rows already present", len(done))
        for job in ordered:
            if job.key() in done:
                continue
            probe = done.get(probe_key(job))
            if probe is None and job.preset != "ultrafast":
                failures.append((job.label(), "ultrafast probe for this bitstream failed"))
                logger.error("%s: no ultrafast probe time available", job.label())
                continue
            try:
                record, result = run_measured_encode(job, encoder_cmd, meter, policy)
            except (MeasurementRunError, InvalidMeasurementError) as exc:
                if isinstance(exc.__cause__, AcquisitionError):
                    raise exc.__cause__
                failures.append((job.label(), str(exc)))
                logger.error("%s failed: %s", job.label(), exc)
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
                    t_enc_uf=result.wall_time if probe is None else probe.t_enc,
                    energy=record.mean_energy,
                    reps=record.reps,
                    confident=record.confident,
                )
            except DatasetError as exc:
                failures.append((job.label(), str(exc)))
                logger.error("%s produced an invalid row: %s", job.label(), exc)
                continue
            done[job.key()] = row
            writer.append(row)
            logger.info(
                "%s: %.2f J over %d rep(s), confident=%s",
                job.label(), record.mean_energy, record.reps, record.confident,
            )
    return Dataset(rows=tuple(done.values()), failures=tuple(failures))


# The JSON type of each manifest key; any other key is refused.
_MANIFEST_KEYS = {"sequence_id": str, "class": str, "input": str, "frames": int, "preset": str,
                  "presets": tuple[str, ...], "crf": float, "crfs": tuple[float, ...],
                  "extra_args": tuple[str, ...]}


def load_manifest(path: str | Path) -> list[EncodeJob]:
    """Parse a JSON Lines campaign manifest into an expanded job list.

    A sequence gets one ``input``, ``frames`` and ``class``: a line giving
    its id another raises :class:`ManifestError` naming both values.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    jobs: list[EncodeJob] = []
    sequences: dict[str, dict] = {}  # each sequence's first line
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            entry = parse_json(line)
        except ValueError as exc:
            raise ManifestError(f"{path}, line {lineno}: invalid JSON: {exc}") from exc
        try:
            entry = read_json(entry, _MANIFEST_KEYS, what="manifest")
            for scalar, plural in (("preset", "presets"), ("crf", "crfs")):
                if scalar in entry and plural in entry:
                    raise ValueError(f"give {scalar!r} or {plural!r}, not both")
            presets = entry["presets"] if "presets" in entry else [entry["preset"]]
            crfs = entry["crfs"] if "crfs" in entry else [entry["crf"]]
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
                            frames=entry["frames"],
                            preset=preset,
                            crf=crf,
                            extra_args=entry.get("extra_args", ()),
                        )
                    )
            first = sequences.setdefault(entry["sequence_id"], entry)
            for key in ("input", "frames", "class"):
                here, before = entry.get(key, ""), first.get(key, "")
                if here != before:
                    raise ValueError(f"sequence {entry['sequence_id']!r} has {key} {here!r} "
                                     f"here but {before!r} on an earlier line")
        except KeyError as exc:
            raise ManifestError(f"{path}, line {lineno}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"{path}, line {lineno}: {exc}") from exc
    if not jobs:
        raise ManifestError(f"{path}: manifest defines no jobs")
    dupes = sorted(key for key, n in Counter(j.key() for j in jobs).items() if n > 1)
    if dupes:
        raise ManifestError(f"{path}: duplicate jobs {dupes}")
    return jobs
