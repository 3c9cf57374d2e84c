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
from pathlib import Path

import numpy as np

from .dataset import Dataset, DatasetRow
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


def _crf_scale(crf: float) -> float:
    # The grid's value at a grid CRF, linear between them, the nearest end's outside.
    return float(np.interp(crf, *zip(*sorted(_CRF_TIME_SCALE.items()))))


def _truncated_normals(rng: np.random.Generator, n: int) -> list[float]:
    # One block draw is the same stream as n scalar draws.  Clipped at 3
    # sigma so times and energies stay positive.
    return [min(max(z, -3.0), 3.0) for z in rng.normal(0.0, 1.0, n).tolist()]


def generate_dataset(recipe: SynthDatasetRecipe) -> Dataset:
    """Deterministically generate a campaign dataset from the recipe."""
    rng = np.random.default_rng(recipe.seed)
    classes = sorted(_CLASS_BASE_TIME)
    rows: list[DatasetRow] = []
    for i in range(recipe.n_sequences):
        sequence_id = f"seq{i:02d}"
        class_label = classes[i % len(classes)]
        content_scale = rng.uniform(0.75, 1.35)   # within-class content complexity
        qp_offset = rng.uniform(-2.5, 2.5)        # sequence-dependent avg-QP shift
        # per row: a time jitter (all but ultrafast), an energy noise, a QP shift
        z = iter(_truncated_normals(rng, len(recipe.crfs) * (3 * len(PRESETS) - 1)))
        for crf in recipe.crfs:
            t_uf = _CLASS_BASE_TIME[class_label] * content_scale * _crf_scale(crf)
            for preset in PRESETS:
                law = GROUND_TRUTH[preset]
                if preset == "ultrafast":
                    t_enc = t_uf
                else:
                    t_enc = law.time_factor * t_uf * (1.0 + next(z) * recipe.time_jitter)
                energy = (law.power_w * t_enc + law.offset_j) * (1.0 + next(z) * recipe.noise)
                avg_qp = min(max(crf + qp_offset + next(z) * 0.4, 0.0), 51.0)
                rows.append(
                    DatasetRow(
                        sequence_id=sequence_id,
                        class_label=class_label,
                        preset=preset,
                        crf=crf,
                        frames=recipe.frames,
                        avg_qp=avg_qp,
                        t_enc=t_enc,
                        t_enc_uf=t_uf,
                        energy=energy,
                        reps=1,
                        confident=True,
                    )
                )
    return Dataset(rows=tuple(rows))


def load_dataset_recipe(path: str | Path) -> SynthDatasetRecipe:
    """Read a dataset recipe from JSON; an unknown, wrongly typed or repeated key is refused."""
    try:
        data = parse_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read recipe {path}: {exc}") from exc
    return read_json(data, SynthDatasetRecipe, what="recipe")
