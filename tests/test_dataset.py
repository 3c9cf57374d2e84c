"""Dataset schema, CSV round trips, and incremental writing."""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from encwatt.dataset import (
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
    Dataset(rows=rows).check_ultrafast_closure()
    with pytest.raises(DatasetError, match="ultrafast"):
        Dataset(rows=(make_row(),)).check_ultrafast_closure()


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


def test_writer_starts_a_missing_or_empty_file_with_the_header(tmp_path):
    (tmp_path / "empty.csv").write_text("")
    for path in (tmp_path / "missing.csv", tmp_path / "empty.csv"):
        with DatasetWriter(path, resume=True) as writer:
            assert writer.rows == ()
        assert path.read_text() == HEADER + "\n"
