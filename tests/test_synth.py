"""Synthetic dataset generator: shape, determinism, ground-truth laws."""

import hashlib
import json

import pytest

from encwatt.dataset import Dataset
from encwatt.synth import (
    GROUND_TRUTH,
    SynthDatasetRecipe,
    generate_dataset,
    load_dataset_recipe,
)


def test_default_recipe_grid_shape():
    ds = generate_dataset(SynthDatasetRecipe())
    # 25 sequences x 9 presets x 4 CRFs
    assert len(ds) == 900
    assert len(ds.presets()) == 9
    assert len({row.sequence_id for row in ds.rows}) == 25
    assert sorted({row.crf for row in ds.rows}) == [18.0, 23.0, 28.0, 33.0]
    Dataset(rows=ds.rows, require_closure=True)


def test_determinism_and_seed_sensitivity():
    a = generate_dataset(SynthDatasetRecipe(seed=4))
    b = generate_dataset(SynthDatasetRecipe(seed=4))
    c = generate_dataset(SynthDatasetRecipe(seed=5))
    assert a.rows == b.rows
    assert a.rows != c.rows
    # schema identical regardless of seed
    assert len(a) == len(c)
    assert {r.key() for r in a.rows} == {r.key() for r in c.rows}


def test_zero_noise_rows_lie_exactly_on_the_laws():
    ds = generate_dataset(SynthDatasetRecipe(noise=0.0, time_jitter=0.0, seed=2))
    for row in ds.rows:
        law = GROUND_TRUTH[row.preset]
        assert row.energy == pytest.approx(
            law.power_w * row.t_enc + law.offset_j, rel=1e-12
        )
        assert row.t_enc == pytest.approx(law.time_factor * row.t_enc_uf, rel=1e-12)


def test_ultrafast_rows_have_matching_probe_time():
    ds = generate_dataset(SynthDatasetRecipe(seed=1))
    for row in ds.rows:
        if row.preset == "ultrafast":
            assert row.t_enc == row.t_enc_uf


def test_energies_positive_and_qp_midrange():
    ds = generate_dataset(SynthDatasetRecipe(seed=6))
    assert all(row.energy > 0 for row in ds.rows)
    assert all(10.0 <= row.avg_qp <= 40.0 for row in ds.rows)


def test_recipe_from_json(tmp_path):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"n_sequences": 4, "noise": 0.0, "seed": 9, "crfs": [20, 30.5]}))
    recipe = load_dataset_recipe(path)
    assert recipe.n_sequences == 4
    assert recipe.noise == 0.0
    assert recipe.crfs == (20.0, 30.5)
    assert generate_dataset(recipe).rows[0].sequence_id == "seq00"


def test_recipe_rejects_unknown_keys(tmp_path):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"n_sequences": 4, "bogus": 1}))
    with pytest.raises(ValueError, match="bogus"):
        load_dataset_recipe(path)


def test_recipe_validation():
    with pytest.raises(ValueError):
        SynthDatasetRecipe(n_sequences=0)
    with pytest.raises(ValueError):
        SynthDatasetRecipe(noise=-0.1)
    with pytest.raises(ValueError):
        SynthDatasetRecipe(crfs=())


# The sha256 of each recipe's CSV, as written by the scalar-draw generator.
# A generator that draws or clips its noise differently changes them.
@pytest.mark.parametrize(("recipe", "sha256"), [
    (SynthDatasetRecipe(n_sequences=6, seed=0),
     "be0efb87af433bd6b0b5086e812a23c0056e9a67aec3ccf1db8dd1029606225c"),
    (SynthDatasetRecipe(n_sequences=6, seed=1),
     "1af37502fcfdc0ca66946fe2d1ba60157f5e0c3e377ab470647b7619d2ced3d3"),
    (SynthDatasetRecipe(n_sequences=6, crfs=(20.0, 30.0), noise=0.0, time_jitter=0.0, seed=3),
     "352f5d2ed2c444840de6a1b9b94a156ced85e85fad72d3dd03f24546c1fa4055"),
    (SynthDatasetRecipe(n_sequences=250, seed=1),
     "434189b0c563523303ea9e8632939473e1524a37ca5da047187a92bc0cae438f"),
    (SynthDatasetRecipe(n_sequences=7, crfs=(16.0, 20.5, 31.0, 40.0), noise=0.3,
                        time_jitter=0.25, seed=11),
     "2d411f77dc3290567e478ea4082431f383d84a1eef12733516b0eb9522c04dbe"),
], ids=["seed0", "seed1", "zero_noise", "benchmark_set", "off_grid_clipped"])
def test_generated_csv_is_pinned(tmp_path, recipe, sha256):
    path = tmp_path / "d.csv"
    generate_dataset(recipe).write_csv(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize(("entry", "message"), [
    ({"n_sequences": "250"}, "recipe key 'n_sequences' must be an integer, got '250'"),
    ({"n_sequences": 2.0}, "recipe key 'n_sequences' must be an integer, got 2.0"),
    ({"frames": 1.5}, "recipe key 'frames' must be an integer, got 1.5"),
    ({"seed": 1.5}, "recipe key 'seed' must be an integer, got 1.5"),
    ({"seed": True}, "recipe key 'seed' must be an integer, got True"),
    ({"noise": "0.1"}, "recipe key 'noise' must be a number, got '0.1'"),
    ({"time_jitter": False}, "recipe key 'time_jitter' must be a number, got False"),
    ({"crfs": 23}, "recipe key 'crfs' must be a list, got 23"),
    ({"crfs": [23, "28"]}, "recipe key 'crfs[1]' must be a number, got '28'"),
])
def test_recipe_refuses_a_wrongly_typed_value_naming_the_key(tmp_path, entry, message):
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"n_sequences": 2, **entry}))
    with pytest.raises(ValueError) as info:
        load_dataset_recipe(path)
    assert str(info.value) == message


def test_synth_command_exits_two_on_a_wrongly_typed_recipe(tmp_path, capsys):
    from encwatt.cli import main

    recipe, out = tmp_path / "recipe.json", tmp_path / "d.csv"
    recipe.write_text(json.dumps({"n_sequences": 2, "seed": True}))
    assert main(["synth", "--recipe", str(recipe), "--out", str(out)]) == 2
    assert "error: recipe key 'seed' must be an integer, got True" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(("given", "message"), [
    (["--noise", "nan"], "noise must be finite and >= 0, got nan"),
    (["--time-jitter", "inf"], "time_jitter must be finite and >= 0, got inf"),
    ({"noise": 1e999}, "noise must be finite and >= 0, got inf"),  # json reads 1e999 as inf
    ({"time_jitter": -0.5}, "time_jitter must be finite and >= 0, got -0.5"),
], ids=["noise-flag-nan", "jitter-flag-inf", "noise-key-inf", "jitter-key-negative"])
def test_synth_refuses_a_non_finite_spread_naming_it(tmp_path, capsys, given, message):
    # a NaN spread once passed the recipe's check and failed later on a row's energy
    from encwatt.cli import main

    recipe, out = tmp_path / "recipe.json", tmp_path / "d.csv"
    argv = ["synth", "--out", str(out)]
    if isinstance(given, dict):
        recipe.write_text(json.dumps({"n_sequences": 2, **given}))
        argv += ["--recipe", str(recipe)]
    else:
        argv += given
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("given", [["--seed", "-1"], {"seed": -1}], ids=["flag", "key"])
def test_synth_refuses_a_negative_seed_naming_it(tmp_path, capsys, given):
    # numpy's own refusal, "expected non-negative integer", named neither
    from encwatt.cli import main

    recipe, out = tmp_path / "recipe.json", tmp_path / "d.csv"
    argv = ["synth", "--out", str(out)]
    if isinstance(given, dict):
        recipe.write_text(json.dumps({"n_sequences": 2, **given}))
        argv += ["--recipe", str(recipe)]
    else:
        argv += given
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")
    assert not out.exists()


@pytest.mark.parametrize(("flag", "row", "energy"), [
    ("--noise", "('seq00', 'veryfast', 18.0)", "-2917.342530857258"),
    ("--time-jitter", "('seq00', 'superfast', 18.0)", "-1224.8788582514733"),
], ids=["noise", "time-jitter"])
def test_synth_names_the_first_row_it_cannot_build(tmp_path, capsys, flag, row, energy):
    # the error once gave the refused value alone, naming neither row nor recipe
    from encwatt.cli import main

    out = tmp_path / "d.csv"
    assert main(["synth", flag, "5", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: synth row {row}: energy must be finite and > 0, got {energy}\n")
    assert not out.exists()
