"""Synthetic measurement datasets with known per-preset affine ground truth.

The generator emulates a desk-scale measurement campaign: sequences in
five content classes, each encoded at every preset and CRF, with the net
energy drawn from a documented affine law in the encoding time.  Slopes
and time multipliers are modeled on published ultrafast-time fits (the
slope of the ultrafast-time law is the own-time slope times the preset's
time multiplier).  With zero noise the data interpolates the laws
exactly, which the fit tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .dataset import Dataset, DatasetRow, check_rows
from .errors import DatasetError
from .models import PRESETS, parse_json, read_json

__all__ = ["GROUND_TRUTH", "SynthDatasetRecipe", "generate_dataset", "load_dataset_recipe"]


@dataclass(frozen=True)
class PresetLaw:
    """Own-time affine energy law and wall-time multiplier for one preset."""

    time_factor: float  # encode time relative to the ultrafast probe
    power_w: float      # slope of energy vs own encoding time
    offset_j: float


# Time multipliers follow the published speed ratios; mean powers are
# chosen so the implied ultrafast-time slopes (power * factor) match the
# published slope magnitudes.
GROUND_TRUTH: dict[str, PresetLaw] = {
    "ultrafast": PresetLaw(1.0, 110.0, -5.0),
    "superfast": PresetLaw(1.4, 115.0, -10.0),
    "veryfast": PresetLaw(1.9, 131.0, -24.0),
    "faster": PresetLaw(2.0, 125.0, -20.0),
    "fast": PresetLaw(2.9, 130.0, -19.0),
    "medium": PresetLaw(3.2, 112.0, -25.0),
    "slow": PresetLaw(8.5, 134.0, -70.0),
    "slower": PresetLaw(40.0, 101.0, 230.0),
    "veryslow": PresetLaw(55.0, 123.0, 425.0),
}

_CLASS_BASE_TIME = {"A": 3.0, "B": 2.4, "C": 2.0, "D": 1.6, "E": 1.2}
_CRF_TIME_SCALE = {18.0: 1.3, 23.0: 1.0, 28.0: 0.85, 33.0: 0.72}


@dataclass(frozen=True)
class SynthDatasetRecipe:
    """Shape and noise of a generated campaign dataset."""

    n_sequences: int = 25
    crfs: tuple[float, ...] = (18.0, 23.0, 28.0, 33.0)
    frames: int = 100
    noise: float = 0.05       # multiplicative noise on energy
    time_jitter: float = 0.08  # per-row spread of encode time around factor * t_uf
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sequences < 1:
            raise ValueError("n_sequences must be >= 1")
        if not self.crfs:
            raise ValueError("need at least one CRF")
        for name in ("noise", "time_jitter"):  # a NaN fails every comparison
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "crfs", tuple(float(c) for c in self.crfs))


def _crf_scales(crfs: tuple[float, ...]) -> np.ndarray:
    # The grid's value at a grid CRF, linear between them, the nearest end's outside.
    return np.interp(crfs, *zip(*sorted(_CRF_TIME_SCALE.items())))


def generate_dataset(recipe: SynthDatasetRecipe) -> Dataset:
    """Deterministically generate a campaign dataset from the recipe.

    Each sequence draws two uniforms and then one block of normals, a time
    jitter (all but ultrafast), an energy noise and a QP shift per row,
    each clipped at 3 sigma so times and energies stay positive.  A
    sequence's rows are computed from its draws as arrays, in the order of
    operations of the one-row-at-a-time formulas, so every value is the
    same float.  A row the dataset rules refuse raises DatasetError
    naming its key.
    """
    rng = np.random.default_rng(recipe.seed)
    classes = sorted(_CLASS_BASE_TIME)
    # Each array holds one value per row of a sequence: CRF by CRF, and
    # within a CRF in PRESETS order.
    n_rows = len(recipe.crfs) * len(PRESETS)
    laws = [GROUND_TRUTH[preset] for preset in PRESETS] * len(recipe.crfs)
    time_factor = np.array([law.time_factor for law in laws])
    power_w = np.array([law.power_w for law in laws])
    offset_j = np.array([law.offset_j for law in laws])
    row_presets = PRESETS * len(recipe.crfs)
    row_crfs = [crf for crf in recipe.crfs for _ in PRESETS]
    crfs = np.array(row_crfs)
    crf_scales = np.repeat(_crf_scales(recipe.crfs), len(PRESETS))
    # Per row a (time, energy, QP) triple of draws.  Ultrafast, first in
    # PRESETS, draws no time jitter: its slot stays 0.
    draws = np.zeros((len(recipe.crfs), 3 * len(PRESETS)))
    rows: list[DatasetRow] = []
    for i in range(recipe.n_sequences):
        sequence_id = f"seq{i:02d}"
        class_label = classes[i % len(classes)]
        content_scale = rng.uniform(0.75, 1.35)   # within-class content complexity
        qp_offset = rng.uniform(-2.5, 2.5)        # sequence-dependent avg-QP shift
        draws[:, 1:] = np.clip(rng.normal(0.0, 1.0, (len(recipe.crfs), draws.shape[1] - 1)),
                               -3.0, 3.0)
        z_time, z_energy, z_qp = draws.reshape(n_rows, 3).T.copy()
        t_uf = _CLASS_BASE_TIME[class_label] * content_scale * crf_scales
        # The factor of ultrafast is 1 and its jitter 0: its t_enc is t_uf.
        t_enc = time_factor * t_uf * (1.0 + z_time * recipe.time_jitter)
        energy = (power_w * t_enc + offset_j) * (1.0 + z_energy * recipe.noise)
        avg_qp = np.clip(crfs + qp_offset + z_qp * 0.4, 0.0, 51.0)
        # One float per bitstream: its rows' t_enc_uf and its ultrafast t_enc.
        ufs = t_uf[::len(PRESETS)].tolist()
        t_encs = t_enc.tolist()
        t_encs[::len(PRESETS)] = ufs
        rows.extend(map(tuple.__new__, repeat(DatasetRow), zip(
            repeat(sequence_id), repeat(class_label), row_presets, row_crfs,
            repeat(recipe.frames), avg_qp.tolist(), t_encs,
            [uf for uf in ufs for _ in PRESETS], energy.tolist(), repeat(1), repeat(True))))
    if not check_rows(rows):
        for row in rows:
            try:
                DatasetRow(*row)
            except DatasetError as exc:
                raise DatasetError(f"synth row {row.key()}: {exc}") from exc
    return Dataset(rows=tuple(rows))


def load_dataset_recipe(path: str | Path) -> SynthDatasetRecipe:
    """Read a dataset recipe from JSON; an unknown, wrongly typed or repeated key is refused."""
    try:
        data = parse_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read recipe {path}: {exc}") from exc
    return read_json(data, SynthDatasetRecipe, what="recipe")
