"""Measurement dataset: one row per (sequence, preset, CRF) encode.

Datasets are persisted as CSV with the column set below.  ``avg_qp`` may
be empty when the encoder log could not be parsed; every other field is
required.  Each (sequence, CRF) pair must also appear with the ultrafast
preset so the ultrafast-probe covariate is defined for all rows.

Two tables hold the rules.  ``_COLUMNS`` gives each column's read and
write rule; ``_ROW_CHECKS`` is the ordered list of (field, predicate,
message) checks a row must pass, of which the first few, the identity
checks, an :class:`~encwatt.runner.EncodeJob` passes too.  Constructing a
:class:`DatasetRow` applies the checks to that row.  ``load_dataset_csv``
reads the file in blocks of lines and converts each block column by
column, one read rule per column, into rows it does not check;
``check_rows`` then applies each predicate to its whole column, an
identity check once per distinct value.  That path only says whether a
file is good.  A file it does not take is read again by one strict
reader, one line at a time, which reads and checks each line in turn and
alone words the refusal, naming the first bad row.
"""

from __future__ import annotations

import io
import logging
import math
import os
import sys
from dataclasses import InitVar, dataclass
from itertools import islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple, Optional

from .errors import DatasetError
from .models import PRESETS

__all__ = ["DATASET_COLUMNS", "DatasetRow", "Dataset", "DatasetWriter", "load_dataset_csv"]

logger = logging.getLogger(__name__)

# A text field holding one of these would split its row: the file could
# not be read back.
FORBIDDEN_TEXT_CHARS = ",\r\n"
_FORBIDDEN_TEXT = frozenset(FORBIDDEN_TEXT_CHARS)
_FORBIDDEN_LIST = ", ".join(map(repr, FORBIDDEN_TEXT_CHARS))


def _whole_text(text) -> bool:
    return _FORBIDDEN_TEXT.isdisjoint(str(text))


def _in_0_to_51(value) -> bool:
    return 0.0 <= value <= 51.0


def _at_least_one(count) -> bool:
    return count >= 1


def _finite_positive(value) -> bool:
    return 0 < value < math.inf


# (field, predicate, message) per check, in the order the checks apply.
# A value the predicate refuses raises DatasetError with the message,
# formatted with the value.  The identity checks come first: a job and a
# row share them, so no job is encoded whose row the dataset would refuse.
_IDENTITY_CHECKS = (
    ("sequence_id", bool, "sequence_id must be non-empty"),
    ("sequence_id", _whole_text, f"sequence_id must not hold any of {_FORBIDDEN_LIST}, got {{!r}}"),
    ("class_label", _whole_text, f"class_label must not hold any of {_FORBIDDEN_LIST}, got {{!r}}"),
    ("preset", PRESETS.__contains__, "unknown preset {!r}"),
    ("crf", _in_0_to_51, "crf must be in [0, 51], got {}"),
    ("frames", _at_least_one, "frames must be >= 1, got {}"),
)
_ROW_CHECKS = _IDENTITY_CHECKS + (
    ("energy", _finite_positive, "energy must be finite and > 0, got {}"),
    ("t_enc", _finite_positive, "t_enc must be finite and > 0, got {}"),
    ("t_enc_uf", _finite_positive, "t_enc_uf must be finite and > 0, got {}"),
    ("avg_qp", lambda qp: qp is None or _in_0_to_51(qp),
     "avg_qp must be empty or in [0, 51], got {}"),
    ("reps", _at_least_one, "reps must be >= 1, got {}"),
)


def _check(item, checks) -> None:
    for field, ok, message in checks:
        value = getattr(item, field)
        if not ok(value):
            raise DatasetError(message.format(value))


def check_job_identity(job) -> None:
    """Refuse a job identity no encode can have, or a dataset CSV cannot hold.

    ``job`` is an encode job or a dataset row: both carry ``sequence_id``,
    ``class_label``, ``preset``, ``crf`` and ``frames``.
    """
    _check(job, _IDENTITY_CHECKS)


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
# field it cannot read.  Text is interned, so a load holds one string per
# distinct sequence, class and preset rather than one per row.
_COLUMNS = (
    ("sequence_id", sys.intern, str),
    ("class", sys.intern, str),
    ("preset", sys.intern, str),
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
_READS = tuple(read for _, read, _ in _COLUMNS)
# Lines a load converts column by column at once: enough to spread the
# cost of a call per column, few enough that a block's text stays small.
_BLOCK_LINES = 256
_HEADER = ",".join(DATASET_COLUMNS)


class _RowFields(NamedTuple):
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


class DatasetRow(_RowFields):
    """One measured encode; constructing one applies ``_ROW_CHECKS``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "DatasetRow":
        row = super().__new__(cls, *args, **kwargs)
        _check(row, _ROW_CHECKS)
        return row

    @classmethod
    def _make(cls, iterable: Iterable) -> "DatasetRow":
        # ``_replace`` builds through ``_make``: keep it checked too.
        return cls(*iterable)

    def key(self) -> tuple[str, str, float]:
        return (self.sequence_id, self.preset, self.crf)

    def to_csv_fields(self) -> tuple[str, ...]:
        return tuple([write(value) for (_, _, write), value in zip(_COLUMNS, self)])


def _column_checks(checks) -> tuple:
    """Per check: its predicate, the getter of its column, and whether that column may hold None."""
    return tuple((ok, itemgetter(DatasetRow._fields.index(field)), field == "avg_qp")
                 for field, ok, _ in checks)


# An identity value recurs across a dataset (each sequence, preset and CRF
# is shared by many rows), so its checks run once per distinct value, on
# one set per column (sequence_id has two checks).  A measured value is
# nearly always distinct: a set of them would cost memory and save no
# check.  Each measured check accepts an interval of numbers (and avg_qp
# also None), so a column with no NaN passes it if its least and greatest
# numbers do.
_IDENTITY_COLUMN_CHECKS = tuple(
    (itemgetter(DatasetRow._fields.index(field)),
     tuple(ok for checked, ok, _ in _IDENTITY_CHECKS if checked == field))
    for field in dict.fromkeys(field for field, _, _ in _IDENTITY_CHECKS))
_MEASURED_COLUMN_CHECKS = _column_checks(_ROW_CHECKS[len(_IDENTITY_CHECKS):])
# A row's key, as DatasetRow.key gives it, and its (sequence, CRF).
_KEY = itemgetter(0, 2, 3)
_BITSTREAM = itemgetter(0, 3)


@dataclass(frozen=True)
class Dataset:
    """Rows plus a record of jobs that failed to produce one.

    ``require_closure`` also requires an ultrafast row for every
    (sequence, CRF), checked on the key set the duplicate check builds.
    """

    rows: tuple[DatasetRow, ...]
    failures: tuple[tuple[str, str], ...] = ()
    require_closure: InitVar[bool] = False

    def __post_init__(self, require_closure: bool) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "failures", tuple(self.failures))
        keys = set(map(_KEY, self.rows))
        if len(keys) < len(self.rows):
            seen: set[tuple[str, str, float]] = set()
            for key in map(_KEY, self.rows):
                if key in seen:
                    raise DatasetError(f"duplicate row key {key}")
                seen.add(key)
        if require_closure:
            probed = {(sequence_id, crf) for sequence_id, preset, crf in keys
                      if preset == "ultrafast"}
            if not probed.issuperset(map(_BITSTREAM, self.rows)):
                row = next(row for row in self.rows if _BITSTREAM(row) not in probed)
                raise DatasetError(
                    f"no ultrafast row for sequence {row.sequence_id!r} at crf {row.crf}"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[DatasetRow]:
        return iter(self.rows)

    def presets(self) -> tuple[str, ...]:
        present = {row.preset for row in self.rows}
        return tuple(p for p in PRESETS if p in present)

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
            with self.path.open("rb") as fh:
                head = fh.read(len(_HEADER) + 2)  # the header and room for its line end
                size = fh.seek(0, os.SEEK_END)
                tail = _after_last_line_end(fh, size)
        except FileNotFoundError:
            size = 0
        except OSError as exc:
            raise DatasetError(f"cannot read dataset {self.path}: {exc}") from exc
        if size:
            self._take_over(head, size, tail)
        self._fh = self.path.open("a", encoding="utf-8", newline="\n")
        if not size:
            self._fh.write(_HEADER + "\n")
            self._fh.flush()
        return self

    def _take_over(self, head: bytes, size: int, tail: bytes) -> None:
        """Check an existing file of ``size`` bytes from its first bytes and its last line."""
        header = _HEADER.encode()
        line_end = next((end for end in (b"\r\n", b"\n", b"\r")
                         if head.startswith(header + end)), None)
        if line_end is None:
            raise DatasetError(f"{self.path}: existing file does not begin with the "
                               f"dataset header line and its line end")
        if not self.resume:
            if size > len(header) + len(line_end):
                raise DatasetError(
                    f"{self.path} already holds measured rows; pass --resume to continue "
                    f"that campaign, or write to a new file"
                )
            return
        if tail:
            # Every row the writer completes ends in a line end, so only the
            # last line can be torn; appending would glue a row onto it.
            logger.warning("%s: dropping unterminated last line %r",
                           self.path, tail.decode(errors="replace"))
            with self.path.open("rb+") as fh:
                fh.truncate(size - len(tail))
        self.rows = load_dataset_csv(self.path, require_closure=False).rows

    def append(self, row: DatasetRow) -> None:
        assert self._fh is not None, "writer used outside its context"
        self._fh.write(",".join(row.to_csv_fields()) + "\n")
        self._fh.flush()

    def __exit__(self, *exc_info: object) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _after_last_line_end(fh: IO[bytes], size: int) -> bytes:
    """The bytes after the last LF or CR of binary file ``fh``, ``size`` bytes long.

    The end of the file is read in growing blocks: a complete last line costs one.
    """
    tail, block = b"", 4096
    while len(tail) < size:
        fh.seek(max(0, size - block))
        tail = fh.read()
        cut = max(tail.rfind(b"\n"), tail.rfind(b"\r")) + 1
        if cut:
            return tail[cut:]
        block *= 2
    return tail


def load_dataset_csv(path: str | Path, require_closure: bool = True) -> Dataset:
    """Load and schema-check a dataset CSV.

    A file whose blocks all read and whose columns pass ``check_rows`` is
    taken as read; any other file is read again by :func:`_read_lines`,
    which alone words the refusal.  ``require_closure=False`` skips the
    ultrafast-closure check, which a partially written campaign file
    cannot yet satisfy.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as lines:
            rows = _read_blocks(lines)
    except OSError as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    except ValueError:  # DatasetError and UnicodeDecodeError included
        rows = None
    if rows is None or not check_rows(rows):
        rows = _read_lines(path)
    return Dataset(rows=tuple(rows), require_closure=require_closure)


def check_rows(rows: list[DatasetRow]) -> bool:
    """Whether rows built unchecked all pass ``_ROW_CHECKS``.

    Each predicate runs on its whole column: an identity check once per
    distinct value, a measurement check on the column's least and greatest
    numbers after a scan for NaN.  No row is named: a caller that must
    name the first bad row checks the rows one by one.
    """
    for column, predicates in _IDENTITY_COLUMN_CHECKS:
        values = set(map(column, rows))
        if not all(all(map(ok, values)) for ok in predicates):
            return False
    for ok, column, may_be_empty in _MEASURED_COLUMN_CHECKS:
        values = list(map(column, rows))
        if may_be_empty:
            values = [value for value in values if value is not None]
        if values and (any(map(math.isnan, values)) or not (ok(min(values)) and ok(max(values)))):
            return False
    return True


def _read_blocks(lines: IO[str]) -> list[DatasetRow]:
    """The unchecked rows of each block of lines, read column by column.

    ValueError if the header or any line does not read.
    """
    if next(lines, "").rstrip("\n") != _HEADER:
        raise ValueError("not the dataset header")
    rows: list[DatasetRow] = []
    while block := [line.rstrip("\n").split(",") for line in islice(lines, _BLOCK_LINES)]:
        if any(len(raw_fields) != len(_READS) for raw_fields in block):
            raise ValueError("a line of the wrong width")
        columns = [list(map(read, raw)) for read, raw in zip(_READS, zip(*block))]
        rows.extend(map(tuple.__new__, repeat(DatasetRow), zip(*columns)))
    return rows


def _read_lines(path: Path) -> list[DatasetRow]:
    """The rows of dataset CSV ``path``, read and checked one line at a time.

    The reference reader: it raises the first error in the file, for a
    file that is not UTF-8 before any row, and otherwise in line order.
    Lines end in LF, CRLF or CR, as in a file read in text mode.
    """
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DatasetError(f"cannot read dataset {path}: {exc}") from exc
    lines = io.StringIO(text, newline=None)
    first = next(lines, None)
    if first is None:
        raise DatasetError(f"{path}: empty file")
    header = tuple(first.rstrip("\n").split(","))
    if header != DATASET_COLUMNS:
        missing = set(DATASET_COLUMNS) - set(header)
        extra = set(header) - set(DATASET_COLUMNS)
        raise DatasetError(
            f"{path}: bad header; missing columns {sorted(missing)}, unexpected {sorted(extra)}"
        )
    rows: list[DatasetRow] = []
    for lineno, line in enumerate(lines, start=2):
        raw_fields = line.rstrip("\n").split(",")
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
    return rows
