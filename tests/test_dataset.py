"""Dataset schema, CSV round trips, and incremental writing."""

import pytest

from encwatt.dataset import (
    DATASET_COLUMNS,
    Dataset,
    DatasetRow,
    DatasetWriter,
    load_dataset_csv,
)
from encwatt.errors import DatasetError


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
])
def test_row_rejects_values_no_encode_produces(field, value):
    with pytest.raises(DatasetError, match=field):
        make_row(**{field: value})


def test_row_accepts_qp_range_ends_and_missing_qp():
    for qp in (0.0, 51.0, None):
        assert make_row(avg_qp=qp).avg_qp == qp


@pytest.mark.parametrize("column, value", [
    ("avg_qp", "60.0"), ("avg_qp", "nan"), ("energy_j", "nan"), ("t_enc_s", "inf"),
    ("energy_j", "inf"),
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
    with DatasetWriter(path) as writer:
        writer.append(make_row())
    loaded = load_dataset_csv(path)
    assert len(loaded) == 2


def test_writer_rejects_foreign_file(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DatasetError, match="header"):
        DatasetWriter(path).__enter__()
