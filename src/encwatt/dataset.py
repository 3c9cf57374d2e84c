"""Measurement dataset: one row per (sequence, preset, CRF) encode.

Datasets are persisted as CSV with the column set below.  ``avg_qp`` may
be empty when the encoder log could not be parsed; every other field is
required.  Each (sequence, CRF) pair must also appear with the ultrafast
preset so the ultrafast-probe covariate is defined for all rows.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, Iterator, Optional

from .errors import DatasetError
from .models import PRESETS

__all__ = ["DATASET_COLUMNS", "DatasetRow", "Dataset", "DatasetWriter", "load_dataset_csv"]

logger = logging.getLogger(__name__)

# A text field holding one of these would split its row: the file could
# not be read back.
FORBIDDEN_TEXT_CHARS = ",\r\n"
_FORBIDDEN_TEXT = frozenset(FORBIDDEN_TEXT_CHARS)


def check_job_identity(job) -> None:
    """Refuse a job identity no encode can have, or a dataset CSV cannot hold.

    ``job`` is an encode job or a dataset row: both carry ``sequence_id``,
    ``class_label``, ``preset``, ``crf`` and ``frames``.
    """
    if not job.sequence_id:
        raise DatasetError("sequence_id must be non-empty")
    for name, text in (("sequence_id", job.sequence_id), ("class_label", job.class_label)):
        if not _FORBIDDEN_TEXT.isdisjoint(str(text)):
            raise DatasetError(
                f"{name} must not hold any of {', '.join(map(repr, FORBIDDEN_TEXT_CHARS))}, "
                f"got {text!r}"
            )
    if job.preset not in PRESETS:
        raise DatasetError(f"unknown preset {job.preset!r}")
    if not 0.0 <= job.crf <= 51.0:
        raise DatasetError(f"crf must be in [0, 51], got {job.crf}")
    if job.frames < 1:
        raise DatasetError(f"frames must be >= 1, got {job.frames}")


def probe_key(job) -> tuple[str, str, float]:
    """The key of the ultrafast probe row that a job's or a row's bitstream needs."""
    return (job.sequence_id, "ultrafast", float(job.crf))


def _read_bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(f"expected true/false, got {raw!r}")
    return raw == "true"


def _write_float(value: float) -> str:
    return repr(float(value))


# (column, read rule, write rule) per CSV column, in column order, which
# is also DatasetRow's field order.  A read rule raises ValueError on a
# field it cannot read.
_COLUMNS = (
    ("sequence_id", str, str),
    ("class", str, str),
    ("preset", str, str),
    ("crf", float, _write_float),
    ("frames", int, str),
    ("avg_qp", lambda raw: None if raw == "" else float(raw),
     lambda value: "" if value is None else _write_float(value)),
    ("t_enc_s", float, _write_float),
    ("t_enc_uf_s", float, _write_float),
    ("energy_j", float, _write_float),
    ("reps", int, str),
    ("confident", _read_bool, lambda value: "true" if value else "false"),
)
DATASET_COLUMNS = tuple(column for column, _, _ in _COLUMNS)
_HEADER = ",".join(DATASET_COLUMNS)


@dataclass(frozen=True)
class DatasetRow:
    sequence_id: str
    class_label: str
    preset: str
    crf: float
    frames: int
    avg_qp: Optional[float]
    t_enc: float
    t_enc_uf: float
    energy: float
    reps: int = 1
    confident: bool = True

    def __post_init__(self) -> None:
        check_job_identity(self)
        if not 0 < self.energy < math.inf:
            raise DatasetError(f"energy must be finite and > 0, got {self.energy}")
        if not 0 < self.t_enc < math.inf:
            raise DatasetError(f"t_enc must be finite and > 0, got {self.t_enc}")
        if not 0 < self.t_enc_uf < math.inf:
            raise DatasetError(f"t_enc_uf must be finite and > 0, got {self.t_enc_uf}")
        if self.avg_qp is not None and not 0.0 <= self.avg_qp <= 51.0:
            raise DatasetError(f"avg_qp must be empty or in [0, 51], got {self.avg_qp}")
        if self.reps < 1:
            raise DatasetError(f"reps must be >= 1, got {self.reps}")

    def key(self) -> tuple[str, str, float]:
        return (self.sequence_id, self.preset, self.crf)

    def to_csv_fields(self) -> tuple[str, ...]:
        return tuple([write(value) for (_, _, write), value in zip(_COLUMNS, _row_values(self))])


_row_values = operator.attrgetter(*(field.name for field in fields(DatasetRow)))


@dataclass(frozen=True)
class Dataset:
    """Rows plus a record of jobs that failed to produce one."""

    rows: tuple[DatasetRow, ...]
    failures: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "failures", tuple(self.failures))
        seen: set[tuple[str, str, float]] = set()
        for row in self.rows:
            key = row.key()
            if key in seen:
                raise DatasetError(f"duplicate row key {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[DatasetRow]:
        return iter(self.rows)

    def presets(self) -> tuple[str, ...]:
        present = {row.preset for row in self.rows}
        return tuple(p for p in PRESETS if p in present)

    def check_ultrafast_closure(self) -> None:
        """Every (sequence, CRF) must also have an ultrafast row."""
        keys = {row.key() for row in self.rows}
        for row in self.rows:
            if probe_key(row) not in keys:
                raise DatasetError(
                    f"no ultrafast row for sequence {row.sequence_id!r} at crf {row.crf}"
                )

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(_HEADER + "\n")
            for row in self.rows:
                fh.write(",".join(row.to_csv_fields()) + "\n")


class DatasetWriter:
    """Appends a campaign's rows to its dataset CSV, flushing each one.

    A missing or empty file is started with the header.  An existing file
    must begin with the header line and its line end, and, unless
    ``resume``, hold nothing below it; otherwise :class:`DatasetError` is
    raised and the file is left as it was.  With ``resume``, a torn last
    line is dropped and the rows already written are loaded into ``rows``.
    """

    def __init__(self, path: str | Path, resume: bool = False):
        self.path = Path(path)
        self.resume = resume
        self.rows: tuple[DatasetRow, ...] = ()
        self._fh: Optional[IO[str]] = None

    def __enter__(self) -> "DatasetWriter":
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        except OSError as exc:
            raise DatasetError(f"cannot read dataset {self.path}: {exc}") from exc
        if data:
            self._take_over(data)
        self._fh = self.path.open("a", encoding="utf-8", newline="\n")
        if not data:
            self._fh.write(_HEADER + "\n")
            self._fh.flush()
        return self

    def _take_over(self, data: bytes) -> None:
        header = _HEADER.encode()
        line_end = next((end for end in (b"\r\n", b"\n", b"\r")
                         if data.startswith(header + end)), None)
        if line_end is None:
            raise DatasetError(f"{self.path}: existing file does not begin with the "
                               f"dataset header line and its line end")
        if not self.resume:
            if len(data) > len(header) + len(line_end):
                raise DatasetError(
                    f"{self.path} already holds measured rows; pass --resume to continue "
                    f"that campaign, or write to a new file"
                )
            return
        if not data.endswith((b"\n", b"\r")):
            # Every row the writer completes ends in a line end, so only the
            # last line can be torn; appending would glue a row onto it.
            keep = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1
            logger.warning("%s: dropping unterminated last line %r",
                           self.path, data[keep:].decode(errors="replace"))
            with self.path.open("rb+") as fh:
                fh.truncate(keep)
        self.rows = load_dataset_csv(self.path, require_closure=False).rows

    def append(self, row: DatasetRow) -> None:
        assert self._fh is not None, "writer used outside its context"
        self._fh.write(",".join(row.to_csv_fields()) + "\n")
        self._fh.flush()

    def __exit__(self, *exc_info: object) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def load_dataset_csv(path: str | Path, require_closure: bool = True) -> Dataset:
    """Load and schema-check a dataset CSV.

    ``require_closure=False`` skips the ultrafast-closure check, which a
    partially written campaign file cannot yet satisfy.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DatasetError(f"{path}: empty file")
    header = tuple(lines[0].split(","))
    if header != DATASET_COLUMNS:
        missing = set(DATASET_COLUMNS) - set(header)
        extra = set(header) - set(DATASET_COLUMNS)
        raise DatasetError(
            f"{path}: bad header; missing columns {sorted(missing)}, unexpected {sorted(extra)}"
        )
    rows: list[DatasetRow] = []
    for lineno, line in enumerate(lines[1:], start=2):
        raw_fields = line.split(",")
        if len(raw_fields) != len(_COLUMNS):
            raise DatasetError(
                f"{path}, row {lineno}: expected {len(_COLUMNS)} columns, got {len(raw_fields)}"
            )
        values = []
        for (column, read, _), raw in zip(_COLUMNS, raw_fields):
            try:
                values.append(read(raw))
            except ValueError as exc:
                raise DatasetError(f"{path}, row {lineno}, column {column!r}: {exc}") from exc
        try:
            rows.append(DatasetRow(*values))
        except DatasetError as exc:
            raise DatasetError(f"{path}, row {lineno}: {exc}") from exc
    dataset = Dataset(rows=tuple(rows))
    if require_closure:
        dataset.check_ultrafast_closure()
    return dataset
