"""Dataset schema, CSV round trips, and incremental writing."""

import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import encwatt.dataset as dataset_module
from encwatt.dataset import (
    _BLOCK_LINES,
    DATASET_COLUMNS,
    FORBIDDEN_TEXT_CHARS,
    Dataset,
    DatasetRow,
    DatasetWriter,
    load_dataset_csv,
)
from encwatt.errors import DatasetError
from encwatt.models import PRESETS
from encwatt.runner import EncodeJob

HEADER = ",".join(DATASET_COLUMNS)


def make_row(sequence_id="seq00", preset="medium", crf=23.0, **overrides):
    fields = dict(
        sequence_id=sequence_id,
        class_label="B",
        preset=preset,
        crf=crf,
        frames=100,
        avg_qp=crf + 2.0,
        t_enc=3.0,
        t_enc_uf=1.0,
        energy=350.0,
        reps=3,
        confident=True,
    )
    fields.update(overrides)
    return DatasetRow(**fields)


def test_row_validation():
    with pytest.raises(DatasetError):
        make_row(energy=0.0)
    with pytest.raises(DatasetError):
        make_row(t_enc=-1.0)
    with pytest.raises(DatasetError):
        make_row(t_enc_uf=0.0)
    with pytest.raises(DatasetError):
        make_row(preset="turbo")
    with pytest.raises(DatasetError):
        make_row(frames=0)


@pytest.mark.parametrize("field, value", [
    ("avg_qp", 60.0), ("avg_qp", -0.5), ("avg_qp", float("nan")),
    ("energy", float("nan")), ("energy", float("inf")),
    ("t_enc", float("inf")), ("t_enc", float("nan")), ("t_enc_uf", float("inf")),
    ("sequence_id", ""),
])
def test_row_rejects_values_no_encode_produces(field, value):
    with pytest.raises(DatasetError, match=field):
        make_row(**{field: value})


@pytest.mark.parametrize(("field", "value"), [
    ("preset", "turbo"), ("crf", 77.0), ("crf", float("nan")), ("frames", 0),
    ("sequence_id", ""), ("sequence_id", "a,b"),
])
def test_job_and_row_refuse_the_same_identities(field, value):
    # one rule for both: no job is encoded whose row the dataset would refuse
    job = dict(sequence_id="seq00", input_path="a.yuv", frames=100, preset="medium", crf=23.0)
    with pytest.raises(DatasetError) as job_error:
        EncodeJob(**{**job, field: value})
    with pytest.raises(DatasetError) as row_error:
        make_row(**{field: value})
    assert str(job_error.value) == str(row_error.value)
    assert isinstance(job_error.value, ValueError)


@pytest.mark.parametrize("crf", [float("nan"), 60.0, -1.0, float("inf"), -float("inf")])
def test_row_holds_crf_to_the_encoder_range(crf):
    # a NaN CRF used to write, then fail the ultrafast closure on load
    with pytest.raises(DatasetError, match="crf"):
        make_row(crf=crf, avg_qp=None)


def test_load_names_row_of_a_crf_outside_the_encoder_range(tmp_path):
    path = tmp_path / "bad.csv"
    Dataset(rows=(make_row(preset="ultrafast", t_enc=1.0), make_row())).write_csv(path)
    text = path.read_text().replace(",23.0,", ",nan,")
    path.write_text(text)
    with pytest.raises(DatasetError, match="row 2.*crf"):
        load_dataset_csv(path)


def test_row_accepts_qp_range_ends_and_missing_qp():
    for qp in (0.0, 51.0, None):
        assert make_row(avg_qp=qp).avg_qp == qp


@pytest.mark.parametrize("column, value", [
    ("avg_qp", "60.0"), ("avg_qp", "nan"), ("energy_j", "nan"), ("t_enc_s", "inf"),
    ("energy_j", "inf"), ("sequence_id", ""),
])
def test_load_names_row_of_out_of_range_value(tmp_path, column, value):
    path = tmp_path / "bad.csv"
    Dataset(rows=(make_row(preset="ultrafast", t_enc=1.0), make_row())).write_csv(path)
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[DATASET_COLUMNS.index(column)] = value
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match="row 3"):
        load_dataset_csv(path)


def test_dataset_rejects_duplicate_keys():
    with pytest.raises(DatasetError, match="duplicate"):
        Dataset(rows=(make_row(), make_row()))


def test_ultrafast_closure_check():
    rows = (make_row(), make_row(preset="ultrafast", t_enc=1.0))
    Dataset(rows=rows, require_closure=True)
    with pytest.raises(DatasetError, match="ultrafast"):
        Dataset(rows=(make_row(),), require_closure=True)


def test_csv_round_trip(tmp_path):
    rows = (
        make_row(preset="ultrafast", t_enc=1.0),
        make_row(),
        make_row(preset="slow", t_enc=8.5, avg_qp=None),
    )
    dataset = Dataset(rows=rows)
    path = tmp_path / "data.csv"
    dataset.write_csv(path)
    loaded = load_dataset_csv(path)
    assert loaded.rows == rows
    assert loaded.rows[2].avg_qp is None


def test_csv_header_line(tmp_path):
    Dataset(rows=(make_row(preset="ultrafast", t_enc=1.0),)).write_csv(tmp_path / "d.csv")
    first = (tmp_path / "d.csv").read_text().splitlines()[0]
    assert first == ",".join(DATASET_COLUMNS)
    assert first == "sequence_id,class,preset,crf,frames,avg_qp,t_enc_s,t_enc_uf_s,energy_j,reps,confident"


def test_load_rejects_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("sequence_id,preset,crf\nseq00,medium,23.0\n")
    with pytest.raises(DatasetError, match="class"):
        load_dataset_csv(path)


@pytest.mark.parametrize("reps", ["0", "-3"])
def test_load_names_row_of_fewer_than_one_repetition(tmp_path, reps):
    path = tmp_path / "bad.csv"
    Dataset(rows=(make_row(preset="ultrafast", t_enc=1.0), make_row())).write_csv(path)
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[DATASET_COLUMNS.index("reps")] = reps
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=f"row 3: reps must be >= 1, got {reps}"):
        load_dataset_csv(path)


def test_load_reports_row_and_column_of_bad_value(tmp_path):
    path = tmp_path / "bad.csv"
    good = Dataset(rows=(make_row(preset="ultrafast", t_enc=1.0),))
    good.write_csv(path)
    text = path.read_text().replace("350.0", "not-a-number")
    path.write_text(text)
    with pytest.raises(DatasetError, match=r"row 2.*energy_j"):
        load_dataset_csv(path)


def test_load_enforces_closure_unless_partial(tmp_path):
    path = tmp_path / "partial.csv"
    Dataset(rows=(make_row(),)).write_csv(path)
    with pytest.raises(DatasetError):
        load_dataset_csv(path)
    partial = load_dataset_csv(path, require_closure=False)
    assert len(partial) == 1


def test_writer_appends_and_resumes(tmp_path):
    path = tmp_path / "incremental.csv"
    with DatasetWriter(path) as writer:
        writer.append(make_row(preset="ultrafast", t_enc=1.0))
    with DatasetWriter(path, resume=True) as writer:
        writer.append(make_row())
    loaded = load_dataset_csv(path)
    assert len(loaded) == 2


def test_writer_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DatasetError, match="header"):
        DatasetWriter(path).__enter__()


@pytest.mark.parametrize("field", ["sequence_id", "class_label"])
@pytest.mark.parametrize("char", list(FORBIDDEN_TEXT_CHARS))
def test_row_rejects_text_that_would_split_it(field, char):
    with pytest.raises(DatasetError, match=field):
        make_row(**{field: f"a{char}b"})


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_ROW_FIELDS = st.fixed_dictionaries({
    "sequence_id": _TEXT,
    "class_label": _TEXT,
    "preset": st.sampled_from(PRESETS),
    "crf": st.floats(0.0, 51.0),
    "frames": st.integers(1, 10**9),
    "avg_qp": st.none() | st.floats(0.0, 51.0),
    "t_enc": _POSITIVE,
    "t_enc_uf": _POSITIVE,
    "energy": _POSITIVE,
    "reps": st.integers(1, 1000),
    "confident": st.booleans(),
})
_COMMA_ROW = dict(sequence_id="a,b", class_label="B", preset="medium", crf=23.0, frames=100,
                  avg_qp=None, t_enc=3.0, t_enc_uf=1.0, energy=350.0, reps=3, confident=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(_ROW_FIELDS, min_size=1, max_size=3,
                unique_by=lambda f: (f["sequence_id"], f["preset"], f["crf"])))
@example([_COMMA_ROW])
def test_every_valid_row_written_reads_back_equal(row_fields):
    try:
        rows = tuple(DatasetRow(**f) for f in row_fields)
    except DatasetError:
        return  # not a valid row
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        with DatasetWriter(path) as writer:
            for row in rows:
                writer.append(row)
        assert load_dataset_csv(path, require_closure=False).rows == rows


@pytest.mark.parametrize("resume", [False, True])
def test_writer_refuses_a_header_without_its_line_end(tmp_path, resume):
    path = tmp_path / "d.csv"
    path.write_text(HEADER)
    with pytest.raises(DatasetError, match="header"):
        DatasetWriter(path, resume=resume).__enter__()
    assert path.read_text() == HEADER


@pytest.mark.parametrize("below", ["\n", " \n", "seqA,B,fast"])
def test_writer_without_resume_refuses_anything_below_the_header(tmp_path, below):
    path = tmp_path / "d.csv"
    path.write_text(HEADER + "\n" + below)
    with pytest.raises(DatasetError, match="--resume"):
        DatasetWriter(path).__enter__()
    assert path.read_text() == HEADER + "\n" + below


def test_writer_resumes_a_crlf_file(tmp_path):
    path = tmp_path / "d.csv"
    first = make_row(preset="ultrafast", t_enc=1.0)
    path.write_bytes(f"{HEADER}\r\n{','.join(first.to_csv_fields())}\r\n".encode())
    with DatasetWriter(path, resume=True) as writer:
        assert writer.rows == (first,)
        writer.append(make_row())
    assert load_dataset_csv(path).rows == (first, make_row())


def test_writer_resume_drops_a_torn_last_line(tmp_path, caplog):
    path = tmp_path / "d.csv"
    complete = f"{HEADER}\n{','.join(make_row(preset='ultrafast', t_enc=1.0).to_csv_fields())}\n"
    path.write_text(complete + "seq00,B,med")
    with caplog.at_level("WARNING", logger="encwatt.dataset"):
        with DatasetWriter(path, resume=True) as writer:
            assert len(writer.rows) == 1
    assert path.read_text() == complete
    assert any("unterminated last line 'seq00,B,med'" in r.message for r in caplog.records)


@pytest.mark.parametrize("torn", ["seq00,B,med", "x" * 10_000], ids=["short", "long"])
@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_writer_resume_reads_only_the_ends_of_the_file(tmp_path, monkeypatch, torn, line_end):
    def refuse(self):
        raise AssertionError("the whole file was read")

    path = tmp_path / "d.csv"
    rows = [make_row(sequence_id=f"seq{i:03}", preset="ultrafast", t_enc=1.0) for i in range(200)]
    complete = "".join(line + line_end
                       for line in [HEADER] + [",".join(r.to_csv_fields()) for r in rows])
    path.write_bytes((complete + torn).encode())
    monkeypatch.setattr(Path, "read_bytes", refuse)
    with DatasetWriter(path, resume=True) as writer:
        assert writer.rows == tuple(rows)
    monkeypatch.undo()
    assert path.read_bytes() == complete.encode()


def test_writer_starts_a_missing_or_empty_file_with_the_header(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    for path in (tmp_path / "missing.csv", tmp_path / "empty.csv"):
        with DatasetWriter(path, resume=True) as writer:
            assert writer.rows == ()
        assert path.read_text() == HEADER + "\n"


# DatasetRow's fields, in column order.
_FIELD_NAMES = ("sequence_id", "class_label", "preset", "crf", "frames", "avg_qp", "t_enc",
                "t_enc_uf", "energy", "reps", "confident")
# A line the rules accept, and per column a mix of raw values the rules
# accept and values they refuse.  ``frames`` 1.5 and ``confident`` True
# cannot be read at all.
_GOOD_LINE = dict(zip(DATASET_COLUMNS, ["seq00", "B", "medium", "23.0", "100", "25.0", "3.0",
                                        "1.0", "350.0", "3", "true"]))
_RAW_FLOAT = (st.sampled_from(["0", "51", "51.5", "nan", "inf", "-inf", "23.0", "-1.5", "1e-300"])
              | st.floats().map(repr))
_RAW_COUNT = st.sampled_from(["0", "1", "-2", "1.5"]) | st.integers(-3, 10**6).map(str)
_RAW_VALUES = {
    "sequence_id": st.sampled_from(["seq00", "", "s 1"]),
    "class": st.sampled_from(["B", ""]),
    "preset": st.sampled_from(PRESETS + ("turbo", "Medium")),
    "crf": _RAW_FLOAT,
    "frames": _RAW_COUNT,
    "avg_qp": st.just("") | _RAW_FLOAT,
    "t_enc_s": _RAW_FLOAT,
    "t_enc_uf_s": _RAW_FLOAT,
    "energy_j": _RAW_FLOAT,
    "reps": _RAW_COUNT,
    "confident": st.sampled_from(["true", "false", "True"]),
}
# The good line with up to three of its fields drawn from those mixes.
_RAW_LINES = st.lists(st.sampled_from(DATASET_COLUMNS), max_size=3, unique=True).flatmap(
    lambda columns: st.fixed_dictionaries({c: _RAW_VALUES[c] for c in columns})
).map(lambda drawn: {**_GOOD_LINE, **drawn})


def _read_as_documented(column, raw):
    """A field's value as README's dataset section spells it; ValueError if it has none."""
    if column in ("crf", "t_enc_s", "t_enc_uf_s", "energy_j"):
        return float(raw)
    if column == "avg_qp":
        return None if raw == "" else float(raw)
    if column in ("frames", "reps"):
        return int(raw)
    if column == "confident":
        if raw not in ("true", "false"):
            raise ValueError(raw)
        return raw == "true"
    return raw


@settings(max_examples=300, deadline=None)
@given(_RAW_LINES, st.integers(0, 3), st.integers(0, 2))
@example({**_GOOD_LINE, "crf": "nan", "avg_qp": ""}, 2, 1)
def test_loader_and_constructor_enforce_one_rule_set(raw, before, after):
    good = [make_row(f"good{i}", preset="ultrafast") for i in range(before + after)]
    line = ",".join(raw[column] for column in DATASET_COLUMNS)
    lineno = 2 + before
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text("".join(f"{text}\n" for text in (
            HEADER, *(",".join(row.to_csv_fields()) for row in good[:before]), line,
            *(",".join(row.to_csv_fields()) for row in good[before:]))))
        values = {}
        for column, field in zip(DATASET_COLUMNS, _FIELD_NAMES):
            try:
                values[field] = _read_as_documented(column, raw[column])
            except ValueError:
                with pytest.raises(DatasetError) as load_error:
                    load_dataset_csv(path, require_closure=False)
                prefix = f"{path}, row {lineno}, column {column!r}: "
                assert str(load_error.value).startswith(prefix)
                return
        try:
            expected = DatasetRow(**values)
        except DatasetError as row_error:
            with pytest.raises(DatasetError) as load_error:
                load_dataset_csv(path, require_closure=False)
            assert str(load_error.value) == f"{path}, row {lineno}: {row_error}"
            return
        loaded = load_dataset_csv(path, require_closure=False).rows
    assert loaded == (*good[:before], expected, *good[before:])
    row = loaded[before]
    assert [type(row.crf), type(row.frames), type(row.reps), type(row.confident)] == [
        float, int, int, bool]
    assert (row.avg_qp is None) == (raw["avg_qp"] == "")
    assert row.avg_qp is None or type(row.avg_qp) is float


@pytest.fixture(scope="module")
def benchmark_csv(tmp_path_factory):
    """The 9,000-row set the benchmark's crossval workload loads (250 sequences, seed 1)."""
    from encwatt.synth import SynthDatasetRecipe, generate_dataset

    path = tmp_path_factory.mktemp("benchmark") / "d.csv"
    generate_dataset(SynthDatasetRecipe(n_sequences=250, seed=1)).write_csv(path)
    return path


def test_load_of_the_benchmark_set_peaks_below_5_mb(benchmark_csv):
    # The rows kept take about 2.5 MB; a load that also holds the whole
    # text and its list of lines peaks near 7 MB.
    tracemalloc.start()
    try:
        dataset = load_dataset_csv(benchmark_csv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 9000
    assert peak < 5e6


def test_synth_of_the_benchmark_set_keeps_2_2_mb_and_peaks_below_3_3_mb():
    # synth is the process of the benchmark's crossval workload whose RSS it
    # reports; its rows take about 2.1 MB.
    from encwatt.synth import SynthDatasetRecipe, generate_dataset

    recipe = SynthDatasetRecipe(n_sequences=250, seed=1)
    generate_dataset(recipe)  # warm-up: numpy's first-call allocations are not the rows'
    tracemalloc.start()
    try:
        dataset = generate_dataset(recipe)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dataset) == 9000
    assert kept <= 2.2e6
    assert peak < 3.3e6


# One bad value per column in the last of 9,000 rows.  No value of `class`
# that a CSV line can hold is refused: `,`, CR and LF split the line.
@pytest.mark.parametrize(("column", "value", "message"), [
    ("sequence_id", "", "row 9001: sequence_id must be non-empty"),
    ("preset", "turbo", "row 9001: unknown preset 'turbo'"),
    ("crf", "51.5", "row 9001: crf must be in [0, 51], got 51.5"),
    ("crf", "x", "row 9001, column 'crf': could not convert string to float: 'x'"),
    ("frames", "0", "row 9001: frames must be >= 1, got 0"),
    ("frames", "1.5",
     "row 9001, column 'frames': invalid literal for int() with base 10: '1.5'"),
    ("avg_qp", "nan", "row 9001: avg_qp must be empty or in [0, 51], got nan"),
    ("t_enc_s", "0", "row 9001: t_enc must be finite and > 0, got 0.0"),
    ("t_enc_uf_s", "inf", "row 9001: t_enc_uf must be finite and > 0, got inf"),
    ("energy_j", "-1", "row 9001: energy must be finite and > 0, got -1.0"),
    ("reps", "0", "row 9001: reps must be >= 1, got 0"),
    ("confident", "True", "row 9001, column 'confident': expected true/false, got 'True'"),
    # a bad value and a field that does not read on row 2 and at the edges of a block
    *[case for row in (2, _BLOCK_LINES + 1, _BLOCK_LINES + 2, 2 * _BLOCK_LINES + 1) for case in (
        ("reps", "0", f"row {row}: reps must be >= 1, got 0"),
        ("crf", "x", f"row {row}, column 'crf': could not convert string to float: 'x'"),
    )],
])
def test_load_names_the_last_row_and_its_column(benchmark_csv, tmp_path, column, value,
                                                message):
    lineno = int(message.split(":")[0].split(",")[0].removeprefix("row "))
    lines = benchmark_csv.read_text().splitlines()
    fields = lines[lineno - 1].split(",")
    fields[DATASET_COLUMNS.index(column)] = value
    lines[lineno - 1] = ",".join(fields)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError) as error:
        load_dataset_csv(path)
    assert str(error.value) == f"{path}, {message}"


def test_load_of_a_crlf_file_equals_its_lf_twin(benchmark_csv, tmp_path):
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(benchmark_csv.read_bytes().replace(b"\n", b"\r\n"))
    assert load_dataset_csv(crlf).rows == load_dataset_csv(benchmark_csv).rows


# Row 2 and the first and last lines of blocks, as well as a row mid-block.
@pytest.mark.parametrize("lineno", [2, _BLOCK_LINES + 1, _BLOCK_LINES + 2, 4001])
def test_load_refuses_a_blank_line_mid_file(benchmark_csv, tmp_path, lineno):
    lines = benchmark_csv.read_text().splitlines()
    path = tmp_path / "blank.csv"
    path.write_text("\n".join(lines[:lineno - 1] + [""] + lines[lineno - 1:]) + "\n")
    with pytest.raises(DatasetError) as error:
        load_dataset_csv(path)
    assert str(error.value) == f"{path}, row {lineno}: expected 11 columns, got 1"


def test_load_names_the_first_of_two_bad_rows(benchmark_csv, tmp_path):
    # a value check in row 3 comes before a line that cannot be read in row 9001
    lines = benchmark_csv.read_text().splitlines()
    first = lines[2].split(",")
    first[DATASET_COLUMNS.index("reps")] = "0"
    lines[2], lines[-1] = ",".join(first), "seq,B"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError) as error:
        load_dataset_csv(path)
    assert str(error.value) == f"{path}, row 3: reps must be >= 1, got 0"


def test_load_refuses_a_late_byte_that_is_not_utf8_before_any_row(benchmark_csv, tmp_path):
    data = benchmark_csv.read_bytes()
    head, tail = data[:1000], data[1000:]
    data = head.replace(b"\n", b"\n,", 1) + tail[:-10] + b"\xff" + tail[-10:]
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(DatasetError) as error:
        load_dataset_csv(path)
    assert str(error.value) == (f"cannot read dataset {path}: 'utf-8' codec can't decode byte "
                                f"0xff in position {len(data) - 11}: invalid start byte")


_HEADER_LINE = HEADER.encode()
_UF_LINE = b"seq00,B,ultrafast,23.0,100,25.0,1.0,1.0,110.0,3,true"
_MEDIUM_LINE = b"seq00,B,medium,23.0,100,25.0,3.0,1.0,350.0,3,true"


def _lines(*lines, end=b"\n"):
    return b"".join(line + end for line in lines)


def _check_in_block_1_before_unreadable_line_in_block_2():
    lines = [b"seq%03d,B,ultrafast,23.0,100,25.0,1.0,1.0,110.0,3,true" % i
             for i in range(_BLOCK_LINES + 1)]
    lines[1] = lines[1].replace(b",3,true", b",0,true")  # row 3
    lines[-1] = b"seq,B"  # row _BLOCK_LINES + 2, the first of block 2
    return _lines(_HEADER_LINE, *lines)


# Each case must load as the strict line reader alone reads it: to equal
# rows, or to the same exception type and message.  A case maps to its
# file and either the number of rows it loads to or its refusal, with
# ``{path}`` for the file.
DATASET_CORPUS = {
    "lf": (_lines(_HEADER_LINE, _UF_LINE, _MEDIUM_LINE), 2),
    "crlf": (_lines(_HEADER_LINE, _UF_LINE, _MEDIUM_LINE, end=b"\r\n"), 2),
    "lone_cr_line_ends": (_lines(_HEADER_LINE, _UF_LINE, _MEDIUM_LINE, end=b"\r"), 2),
    "no_final_newline": (_lines(_HEADER_LINE, _UF_LINE) + _MEDIUM_LINE, 2),
    "empty_avg_qp": (_lines(_HEADER_LINE, _UF_LINE, _MEDIUM_LINE.replace(b",25.0,", b",,")), 2),
    "header_only": (_lines(_HEADER_LINE), 0),
    "header_without_line_end": (_HEADER_LINE, 0),
    "lone_cr_in_a_field": (
        _lines(_HEADER_LINE, _UF_LINE.replace(b"ultra", b"ultra\r"), _MEDIUM_LINE),
        "{path}, row 2: expected 11 columns, got 3"),
    "utf8_bom": (
        b"\xef\xbb\xbf" + _lines(_HEADER_LINE, _UF_LINE, _MEDIUM_LINE),
        "{path}: bad header; missing columns ['sequence_id'], unexpected ['\\ufeffsequence_id']"),
    "empty_file": (b"", "{path}: empty file"),
    "wrong_width": (_lines(_HEADER_LINE, _UF_LINE, _MEDIUM_LINE + b",1"),
                    "{path}, row 3: expected 11 columns, got 12"),
    "blank_line_mid_file": (_lines(_HEADER_LINE, _UF_LINE, b"", _MEDIUM_LINE),
                            "{path}, row 3: expected 11 columns, got 1"),
    "confident_True": (
        _lines(_HEADER_LINE, _UF_LINE, _MEDIUM_LINE.replace(b"true", b"True")),
        "{path}, row 3, column 'confident': expected true/false, got 'True'"),
    "check_in_block_1_before_unreadable_line_in_block_2": (
        _check_in_block_1_before_unreadable_line_in_block_2(),
        "{path}, row 3: reps must be >= 1, got 0"),
    "late_byte_not_utf8": (
        _lines(_HEADER_LINE, _UF_LINE, _MEDIUM_LINE[:-4] + b"\xffrue"),
        "cannot read dataset {path}: 'utf-8' codec can't decode byte 0xff in position 184: "
        "invalid start byte"),
    "crlf_unreadable_field": (
        _lines(_HEADER_LINE, _UF_LINE, _MEDIUM_LINE.replace(b",3.0,", b",x,"), end=b"\r\n"),
        "{path}, row 3, column 't_enc_s': could not convert string to float: 'x'"),
}


def _load_outcome(read, path):
    try:
        return tuple(read(path))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(("data", "expected"), DATASET_CORPUS.values(),
                         ids=DATASET_CORPUS.keys())
def test_load_matches_the_line_reader(tmp_path, data, expected):
    path = tmp_path / "d.csv"
    path.write_bytes(data)
    loaded = _load_outcome(lambda p: load_dataset_csv(p, require_closure=False), path)
    assert loaded == _load_outcome(dataset_module._read_lines, path)
    if isinstance(expected, int):
        assert len(loaded) == expected and all(type(row) is DatasetRow for row in loaded)
    else:
        assert loaded == (DatasetError, expected.format(path=path))


def test_load_of_a_valid_file_does_not_need_the_line_reader(benchmark_csv, monkeypatch):
    def refuse(path):
        raise AssertionError(f"{path} was read line by line")

    monkeypatch.setattr(dataset_module, "_read_lines", refuse)
    assert len(load_dataset_csv(benchmark_csv)) == 9000
