"""Acceptance suite: one test per release criterion.

Each test prints `ACCEPTANCE <n> [<title>]: PASS|FAIL` (visible with
``pytest -s`` or in failure output), so the suite doubles as a checklist.
Tolerances are fixed here and must not be loosened to make a run green.
"""

import math
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from encwatt.cli import main as cli_main
from encwatt.dataset import load_dataset_csv
from encwatt.energy import (
    ConfidencePolicy,
    PowerTrace,
    integrate_energy,
    measure_until_confident,
    net_energy,
    t_critical,
    trace_span,
)
from encwatt.fitting import (
    cross_validate,
    fit_report,
    kfold_split,
    relative_error,
)
from encwatt.meter import SyntheticMeter, SyntheticRecipe
from encwatt.models import load_default_params, predict_energy_linear
from encwatt.runner import EncodeJob, run_campaign
from encwatt.synth import GROUND_TRUTH, SynthDatasetRecipe, generate_dataset


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{title}]: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {num} [{title}]: PASS", flush=True)


# ── 1. bundled estimator fidelity ─────────────────────────────────────────

# Frozen published slope/offset table (watts, joules), kept independently
# of the package's bundled copy.
EXPECTED_UF_PARAMS = {
    "superfast": (160.36, -9.73),
    "veryfast": (251.67, -24.28),
    "faster": (252.48, -20.15),
    "fast": (378.68, -19.02),
    "medium": (358.21, -25.51),
    "slow": (1137.65, -70.20),
    "slower": (4025.44, 230.18),
    "veryslow": (6771.39, 425.15),
}


def test_criterion_1_default_estimator_fidelity(capsys):
    with criterion(1, "bundled estimator fidelity"):
        table = load_default_params()
        assert set(table) == set(EXPECTED_UF_PARAMS)
        t_uf = 2.0
        for preset, (p, e0) in EXPECTED_UF_PARAMS.items():
            expected = e0 + p * t_uf
            got = predict_energy_linear(table[preset], t_uf)
            assert got == pytest.approx(expected, rel=1e-9), preset
        assert predict_energy_linear(table["superfast"], 2.0) == pytest.approx(
            310.99, rel=1e-9
        )
        assert predict_energy_linear(table["veryslow"], 2.0) == pytest.approx(
            13967.93, rel=1e-9
        )
        # and through the CLI
        code = cli_main(["estimate", "--defaults", "--preset", "superfast", "--t-uf", "2.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(310.99, rel=1e-9)


# ── 2. energy integration ─────────────────────────────────────────────────

def test_criterion_2_energy_integration():
    with criterion(2, "piecewise-linear energy integration"):
        times = np.linspace(0.0, 10.0, 101)
        const = PowerTrace.from_arrays(times, np.full(101, 50.0))
        ramp = PowerTrace.from_arrays(times, 12.0 * times)
        tent = PowerTrace.from_arrays([0.0, 4.0, 10.0], [5.0, 85.0, 25.0])
        assert integrate_energy(const, 0.0, 10.0) == pytest.approx(500.0, rel=1e-9)
        assert integrate_energy(ramp, 0.0, 10.0) == pytest.approx(600.0, rel=1e-9)
        # trapezoid areas of the tent: (5+85)/2*4 + (85+25)/2*6
        assert integrate_energy(tent, 0.0, 10.0) == pytest.approx(510.0, rel=1e-9)
        idle = PowerTrace.from_arrays(times, np.full(101, 20.0))
        assert net_energy(trace_span(const, 10.0), trace_span(idle, 10.0)) == pytest.approx(300.0, rel=1e-9)


# ── 3. stopping-rule coverage ─────────────────────────────────────────────

def test_criterion_3_stopping_rule_coverage():
    with criterion(3, "stopping-rule coverage"):
        rng = np.random.default_rng(20260809)
        mu = 1000.0
        policy = ConfidencePolicy(alpha=0.99, beta=0.02, min_reps=2, max_reps=60)
        for rel_sigma in (0.005, 0.01, 0.02):
            sigma = rel_sigma * mu
            confident = 0
            covered = 0
            for _ in range(10_000):
                draws = iter(rng.normal(mu, sigma, policy.max_reps))
                record = measure_until_confident(lambda: next(draws), policy)
                if record.confident:
                    confident += 1
                    if abs(record.mean_energy - mu) <= policy.beta * mu:
                        covered += 1
            assert confident > 0
            coverage = covered / confident
            assert coverage >= 0.97, (rel_sigma, coverage)


# ── 4. t-critical accuracy ────────────────────────────────────────────────

def _t_pdf(x, dof):
    log_c = (
        math.lgamma((dof + 1) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
    )
    return math.exp(log_c - (dof + 1) / 2.0 * math.log1p(x * x / dof))


def _t_cdf_by_quadrature(t, dof):
    value, _ = quad(_t_pdf, 0.0, t, args=(dof,), epsabs=1e-13, epsrel=1e-12, limit=200)
    return 0.5 + value


def _t_quantile_oracle(alpha, dof):
    return brentq(
        lambda t: _t_cdf_by_quadrature(t, dof) - alpha,
        0.0, 400.0, xtol=1e-10, rtol=8.9e-16, maxiter=200,
    )


def test_criterion_4_t_critical_accuracy():
    with criterion(4, "t-critical accuracy vs quadrature oracle"):
        assert t_critical(0.99, 3) == pytest.approx(4.5407, abs=1e-4)
        for alpha in (0.9, 0.95, 0.99):
            for dof in range(1, 201):
                oracle = _t_quantile_oracle(alpha, dof)
                assert abs(t_critical(alpha, dof) - oracle) <= 1e-6, (alpha, dof)


# ── 5. fit recovery ───────────────────────────────────────────────────────

def own_and_probe_fits(ds):
    """Each preset's fit on its own time and on the ultrafast probe time.

    ``uf_linear`` has no ultrafast cell; on ultrafast rows the probe time
    is the own time (synth writes ``t_enc == t_enc_uf``), so there the
    probe fit is the own-time fit.
    """
    own = fit_report(ds, "time_linear").linear_params
    return own, {**own, **fit_report(ds, "uf_linear").linear_params}


def test_criterion_5_fit_recovery_and_error_band():
    with criterion(5, "fit recovery and cross-validated error band"):
        # exact recovery on the zero-noise bundled dataset
        clean = generate_dataset(SynthDatasetRecipe(noise=0.0, time_jitter=0.0, seed=0))
        own_fits, uf_fits = own_and_probe_fits(clean)
        for preset, law in GROUND_TRUTH.items():
            own = own_fits[preset]
            assert own.p == pytest.approx(law.power_w, rel=1e-9)
            assert own.e0 == pytest.approx(law.offset_j, rel=1e-9)
            uf = uf_fits[preset]
            assert uf.p == pytest.approx(law.power_w * law.time_factor, rel=1e-9)

        # slope recovery within 3% at 5% multiplicative noise (900 rows)
        noisy = generate_dataset(SynthDatasetRecipe(noise=0.05, time_jitter=0.0, seed=0))
        own_fits, uf_fits = own_and_probe_fits(noisy)
        for preset, law in GROUND_TRUTH.items():
            assert own_fits[preset].p == pytest.approx(law.power_w, rel=0.03), preset
            assert uf_fits[preset].p == pytest.approx(
                law.power_w * law.time_factor, rel=0.03
            ), preset
        bundled = generate_dataset(SynthDatasetRecipe(seed=0))
        own_fits = fit_report(bundled, "time_linear").linear_params
        for preset, law in GROUND_TRUTH.items():
            assert own_fits[preset].p == pytest.approx(law.power_w, rel=0.03), preset

        # cross-validated mean relative error stays in the frozen band
        # (band pre-computed by a 20-seed sweep of this generator)
        for seed in range(20):
            ds = generate_dataset(SynthDatasetRecipe(seed=seed))
            report = cross_validate(ds, "uf_linear", k=10, seed=seed)
            assert 0.03 <= report.overall_error <= 0.09, seed


# ── 6. model-quality ordering ─────────────────────────────────────────────

def test_criterion_6_model_error_ordering():
    with criterion(6, "cross-validated model error ordering"):
        ds = generate_dataset(SynthDatasetRecipe(seed=0))
        time_rep = cross_validate(ds, "time_linear", k=10, seed=0)
        uf_rep = cross_validate(ds, "uf_linear", k=10, seed=0)
        qp_rep = cross_validate(ds, "qp_cubic", k=10, seed=0)
        for preset in ds.presets():
            t_err = time_rep.per_preset_error[preset]
            q_err = qp_rep.per_preset_error[preset]
            if preset == "ultrafast":
                # the probe model has no ultrafast entry
                assert t_err < q_err, preset
                continue
            u_err = uf_rep.per_preset_error[preset]
            assert t_err <= u_err + 1e-12, preset
            assert u_err < q_err, preset
        assert time_rep.overall_error <= uf_rep.overall_error < qp_rep.overall_error


# ── 7. cross-validation structure ─────────────────────────────────────────

def test_criterion_7_cross_validation_structure():
    with criterion(7, "fold partition structure and leave-one-out"):
        folds = kfold_split(25, 10, seed=0)
        flat = [i for fold in folds for i in fold]
        assert sorted(flat) == list(range(25))
        assert max(len(f) for f in folds) - min(len(f) for f in folds) <= 1

        # leave-one-out equivalence on n=12
        from encwatt.dataset import Dataset, DatasetRow

        rng = np.random.default_rng(77)
        rows = []
        for i in range(12):
            t = float(rng.uniform(0.5, 5.0))
            e = float((220.0 * t + 15.0) * (1.0 + rng.normal(0.0, 0.08)))
            rows.append(DatasetRow(
                sequence_id=f"seq{i:02d}", class_label="B", preset="medium",
                crf=23.0, frames=100, avg_qp=25.0, t_enc=t, t_enc_uf=t,
                energy=e, reps=1, confident=True,
            ))
        ds = Dataset(rows=tuple(rows))
        report = cross_validate(ds, "time_linear", k=12, seed=0)
        direct = []
        ordered = sorted(rows, key=lambda r: (r.sequence_id, r.preset, r.crf))
        for i in range(12):
            train = Dataset(rows=tuple(r for j, r in enumerate(ordered) if j != i))
            fit = fit_report(train, "time_linear").linear_params["medium"]
            pred = fit.e0 + fit.p * ordered[i].t_enc
            direct.append(abs(relative_error(pred, ordered[i].energy)))
        assert report.per_preset_error["medium"] == pytest.approx(
            float(np.mean(direct)), rel=1e-12
        )


# ── 8. end-to-end with test doubles ───────────────────────────────────────

def test_criterion_8_end_to_end_with_doubles(tmp_path, stub_encoder, input_file):
    with criterion(8, "end-to-end campaign with stub encoder and synthetic meter"):
        period = 0.05
        active_w = 30.0
        meter = SyntheticMeter(
            SyntheticRecipe(base_power=20.0, active_power=active_w, noise_std=0.0, seed=0,
                            period=period)
        )
        jobs = []
        for seq in ("clipA", "clipB"):
            for preset in ("ultrafast", "superfast", "fast"):
                for crf in (23.0, 28.0):
                    jobs.append(EncodeJob(
                        sequence_id=seq, class_label="B", input_path=str(input_file),
                        frames=100, preset=preset, crf=crf,
                        extra_args=("--base-sleep", "0.3"),
                    ))
        policy = ConfidencePolicy(alpha=0.99, beta=0.5, min_reps=2, max_reps=2)
        encoder = (
            f"{sys.executable} {stub_encoder} --input {{input}} --output {{output}} "
            f"--preset {{preset}} --crf {{crf}} --frames {{frames}}"
        )
        out = tmp_path / "campaign.csv"
        dataset = run_campaign(jobs, encoder, meter, policy, out_csv=out)
        assert not dataset.failures
        assert len(dataset.rows) == 12

        # schema-valid on reload, ultrafast closure included
        loaded = load_dataset_csv(out)
        assert len(loaded) == 12

        # each row's net energy equals active power x wall time to within
        # one sampling interval's energy
        for row in loaded.rows:
            expected = active_w * row.t_enc
            assert abs(row.energy - expected) <= active_w * period, row.key()
