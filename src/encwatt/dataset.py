"""Measurement dataset: one row per (sequence, preset, CRF) encode.

Datasets are persisted as CSV with the column set below.  ``avg_qp`` may
be empty when the encoder log could not be parsed; every other field is
required.  Each (sequence, CRF) pair must also appear with the ultrafast
preset so the ultrafast-probe covariate is defined for all rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Optional

from .errors import DatasetError
from .models import PRESETS

__all__ = ["DATASET_COLUMNS", "DatasetRow", "Dataset", "DatasetWriter", "load_dataset_csv"]

DATASET_COLUMNS = (
    "sequence_id",
    "class",
    "preset",
    "crf",
    "frames",
    "avg_qp",
    "t_enc_s",
    "t_enc_uf_s",
    "energy_j",
    "reps",
    "confident",
)


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
        if self.preset not in PRESETS:
            raise DatasetError(f"unknown preset {self.preset!r}")
        if not 0 < self.energy < math.inf:
            raise DatasetError(f"energy must be finite and > 0, got {self.energy}")
        if not 0 < self.t_enc < math.inf:
            raise DatasetError(f"t_enc must be finite and > 0, got {self.t_enc}")
        if not 0 < self.t_enc_uf < math.inf:
            raise DatasetError(f"t_enc_uf must be finite and > 0, got {self.t_enc_uf}")
        if self.avg_qp is not None and not 0.0 <= self.avg_qp <= 51.0:
            raise DatasetError(f"avg_qp must be empty or in [0, 51], got {self.avg_qp}")
        if self.frames < 1:
            raise DatasetError(f"frames must be >= 1, got {self.frames}")

    def key(self) -> tuple[str, str, float]:
        return (self.sequence_id, self.preset, self.crf)

    def to_csv_fields(self) -> tuple[str, ...]:
        return (
            self.sequence_id,
            self.class_label,
            self.preset,
            repr(float(self.crf)),
            str(self.frames),
            "" if self.avg_qp is None else repr(float(self.avg_qp)),
            repr(float(self.t_enc)),
            repr(float(self.t_enc_uf)),
            repr(float(self.energy)),
            str(self.reps),
            "true" if self.confident else "false",
        )


@dataclass(frozen=True)
class Dataset:
    """Rows plus a record of jobs that failed to produce one."""

    rows: tuple[DatasetRow, ...]
    provenance: str = ""
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

    def rows_for_preset(self, preset: str) -> tuple[DatasetRow, ...]:
        return tuple(row for row in self.rows if row.preset == preset)

    def check_ultrafast_closure(self) -> None:
        """Every (sequence, CRF) must also have an ultrafast row."""
        have_uf = {
            (row.sequence_id, row.crf) for row in self.rows if row.preset == "ultrafast"
        }
        for row in self.rows:
            if (row.sequence_id, row.crf) not in have_uf:
                raise DatasetError(
                    f"no ultrafast row for sequence {row.sequence_id!r} at crf {row.crf}"
                )

    def write_csv(self, path: str | Path) -> None:
        path = Path(path)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(DATASET_COLUMNS) + "\n")
            for row in self.rows:
                fh.write(",".join(row.to_csv_fields()) + "\n")


class DatasetWriter:
    """Incremental CSV writer so partially completed campaigns persist.

    Appends to an existing file (validating its header) or starts a new
    one; every row is flushed as soon as it is written.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._fh: Optional[IO[str]] = None

    def __enter__(self) -> "DatasetWriter":
        header_needed = True
        if self.path.exists() and self.path.stat().st_size > 0:
            with self.path.open("r", encoding="utf-8") as fh:
                first = fh.readline().rstrip("\n")
            if first != ",".join(DATASET_COLUMNS):
                raise DatasetError(f"{self.path}: existing file has unexpected header {first!r}")
            header_needed = False
        self._fh = self.path.open("a", encoding="utf-8", newline="\n")
        if header_needed:
            self._fh.write(",".join(DATASET_COLUMNS) + "\n")
            self._fh.flush()
        return self

    def append(self, row: DatasetRow) -> None:
        assert self._fh is not None, "writer used outside its context"
        self._fh.write(",".join(row.to_csv_fields()) + "\n")
        self._fh.flush()

    def __exit__(self, *exc_info: object) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _parse_field(raw: str, column: str, lineno: int, origin: str):
    try:
        if column in ("crf", "t_enc_s", "t_enc_uf_s", "energy_j"):
            return float(raw)
        if column in ("frames", "reps"):
            return int(raw)
        if column == "avg_qp":
            return None if raw == "" else float(raw)
        if column == "confident":
            if raw not in ("true", "false"):
                raise ValueError(f"expected true/false, got {raw!r}")
            return raw == "true"
        return raw
    except ValueError as exc:
        raise DatasetError(f"{origin}, row {lineno}, column {column!r}: {exc}") from exc


def load_dataset_csv(path: str | Path, require_closure: bool = True) -> Dataset:
    """Load and schema-check a dataset CSV.

    ``require_closure=False`` skips the ultrafast-closure check, which a
    partially written campaign file cannot yet satisfy.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
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
        fields = line.split(",")
        if len(fields) != len(DATASET_COLUMNS):
            raise DatasetError(
                f"{path}, row {lineno}: expected {len(DATASET_COLUMNS)} columns, got {len(fields)}"
            )
        values = {
            col: _parse_field(raw, col, lineno, str(path))
            for col, raw in zip(DATASET_COLUMNS, fields)
        }
        try:
            rows.append(
                DatasetRow(
                    sequence_id=values["sequence_id"],
                    class_label=values["class"],
                    preset=values["preset"],
                    crf=values["crf"],
                    frames=values["frames"],
                    avg_qp=values["avg_qp"],
                    t_enc=values["t_enc_s"],
                    t_enc_uf=values["t_enc_uf_s"],
                    energy=values["energy_j"],
                    reps=values["reps"],
                    confident=values["confident"],
                )
            )
        except DatasetError as exc:
            raise DatasetError(f"{path}, row {lineno}: {exc}") from exc
    dataset = Dataset(rows=tuple(rows), provenance=str(path))
    if require_closure:
        dataset.check_ultrafast_closure()
    return dataset
