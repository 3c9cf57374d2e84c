"""Command-line interface.

Exit codes: 0 success, 2 configuration or schema problem, 3 meter
problem, 4 encoder problem, 128 + the signal number when interrupted.

This module imports no numpy: each command imports the modules it runs,
so ``--version``, ``--help``, ``estimate`` and ``report`` start without it.
``measure`` loads it only for a ``csv:`` or ``synth:`` meter or an
``--idle-trace``, when it first builds a trace; a ``counter:`` campaign
never does.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import signal
import sys
from pathlib import Path

from . import __version__
from .dataset import load_dataset_csv
from .errors import AcquisitionError, FitError, ManifestError
from .models import (
    MODEL_KINDS,
    OBJECTIVES,
    PRESETS,
    FitReport,
    load_default_params,
    predict_energy_linear,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_METER = 3
EXIT_ENCODER = 4

_TOOL = f"encwatt {__version__}"


# These three exist only for the benchmark's tracer (perfbench/tracer.py),
# which wraps them on this module; retargeting it deletes them.
# ``generate_dataset`` and ``cross_validate`` are what the commands call, so
# their spans fire.  ``parse_trace_csv`` is wrapped on ``meter`` too, and
# ``open_meter`` calls meter's, so each parse is one span.
# (``load_dataset_csv``, also wrapped here, is a real import.)

def parse_trace_csv(path):
    from .meter import parse_trace_csv
    return parse_trace_csv(path)


def generate_dataset(recipe):
    from .synth import generate_dataset
    return generate_dataset(recipe)


def cross_validate(*args, **kwargs):
    from .fitting import cross_validate
    return cross_validate(*args, **kwargs)


class _Interrupted(BaseException):
    """A signal that ends a campaign; its one argument is the signal number.

    Not an ``Exception``, so no per-job handler records it as a failure: it
    unwinds the campaign, and ``subprocess.run`` kills the running encoder.
    """


def _raise_interrupted(signum, frame):
    raise _Interrupted(signum)


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The options among ``names`` given on the command line; the rest keep their defaults."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_measure(args: argparse.Namespace) -> int:
    from .energy import ConfidencePolicy
    from .meter import open_meter
    from .runner import load_manifest, run_campaign

    jobs = load_manifest(args.manifest)
    policy = ConfidencePolicy(**_given(args, "alpha", "beta", "min_reps", "max_reps"))
    meter = open_meter(args.meter, args.idle_trace)
    signums = (signal.SIGTERM, signal.SIGHUP)
    previous = [signal.signal(signum, _raise_interrupted) for signum in signums]
    try:
        dataset = run_campaign(
            jobs,
            encoder_cmd=args.encoder_cmd,
            meter=meter,
            policy=policy,
            out_csv=args.out,
            resume=args.resume,
        )
    finally:
        for signum, handler in zip(signums, previous):
            signal.signal(signum, handler)
    print(f"# campaign: {len(dataset.rows)} row(s), {len(dataset.failures)} failure(s)")
    print("sequence_id preset crf energy_j reps confident")
    for row in dataset.rows:
        print(
            f"{row.sequence_id} {row.preset} {row.crf:g} "
            f"{row.energy:.3f} {row.reps} {str(row.confident).lower()}"
        )
    for label, message in dataset.failures:
        print(f"failed: {label}: {message}", file=sys.stderr)
    return EXIT_ENCODER if dataset.failures else EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    if args.defaults == (args.params is not None):
        raise ValueError("give exactly one of --defaults or --params")
    table = load_default_params() if args.defaults else _read_report(args.params).linear_params
    if table is None:
        raise ValueError(f"{args.params}: report holds no per-preset linear parameters; "
                         f"fit a uf_linear or time_linear model")
    if not (math.isfinite(args.t_uf) and args.t_uf > 0):
        raise ValueError(f"--t-uf must be finite and > 0, got {args.t_uf}")
    if args.preset is not None:
        if args.preset == "ultrafast" and args.defaults:
            raise ValueError("the bundled table has no ultrafast entry; the ultrafast "
                             "encode is the probe whose time you pass as --t-uf")
        if args.preset not in table:
            raise ValueError(f"{args.params}: no parameters for preset {args.preset!r}")
        _warn_if_not_probe_params(table, [args.preset])
        energy = predict_energy_linear(table[args.preset], args.t_uf)
        print(f"{args.preset} {energy!r} J ({energy / 1000.0:.6g} kJ)")
        return EXIT_OK
    presets = [p for p in PRESETS if p in table]
    _warn_if_not_probe_params(table, presets)
    print("preset estimate_j estimate_kj")
    for preset in presets:
        energy = predict_energy_linear(table[preset], args.t_uf)
        print(f"{preset} {energy!r} {energy / 1000.0:.6g}")
    return EXIT_OK


def _warn_if_not_probe_params(table, presets) -> None:
    odd = [p for p in presets if table[p].covariate_kind != "ultrafast_time"]
    if odd:
        print(
            f"warning: parameters for {', '.join(odd)} were fitted against "
            f"{table[odd[0]].covariate_kind}, not the ultrafast probe time; "
            f"--t-uf is being used as that covariate",
            file=sys.stderr,
        )


def _print_report(report: FitReport) -> None:
    print(f"# model: {report.model_kind}   validation: {report.validation}"
          f"   k: {report.k}   seed: {report.seed}   objective: {report.objective}")
    if report.linear_params is not None:
        print("preset p_w e0_j")
        for preset in report.presets():
            lp = report.linear_params[preset]
            print(f"{preset} {lp.p:.6g} {lp.e0:.6g}")
    if report.qp_params is not None:
        print("preset class kappa lam mu t0 p_avg")
        for preset in report.presets():
            for cls, qp in sorted(report.qp_params[preset].items()):
                print(
                    f"{preset} {cls or '-'} {qp.kappa:.6g} {qp.lam:.6g} "
                    f"{qp.mu:.6g} {qp.t0:.6g} {qp.p_avg:.6g}"
                )
    print("preset mean_abs_rel_error_pct")
    for preset in report.presets():
        print(f"{preset} {report.per_preset_error[preset] * 100.0:.2f}")
    print(f"average {report.overall_error * 100.0:.2f}")


def cmd_fit(args: argparse.Namespace) -> int:
    """``fit`` and ``crossval``: evaluate one model and write its report."""
    from .fitting import fit_report

    dataset = load_dataset_csv(args.dataset)
    if args.out and Path(args.out).exists() and Path(args.out).samefile(args.dataset):
        raise ValueError(f"--out {args.out} is the dataset: the report would overwrite it")
    if args.subcommand == "crossval":
        report = cross_validate(
            dataset, args.model, k=args.k, seed=args.seed,
            objective=args.objective, joint_folds=args.joint_folds,
            tool_version=_TOOL,
        )
    else:
        report = fit_report(dataset, args.model, objective=args.objective, tool_version=_TOOL)
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    _print_report(report)
    return EXIT_OK


def _read_report(path: str) -> FitReport:
    try:
        return FitReport.from_json(Path(path).read_text(encoding="utf-8"))
    except KeyError as exc:
        raise ValueError(f"cannot read report {path}: missing key {exc}") from exc
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read report {path}: {exc}") from exc


def cmd_report(args: argparse.Namespace) -> int:
    _print_report(_read_report(args.report))
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SynthDatasetRecipe, load_dataset_recipe

    recipe = load_dataset_recipe(args.recipe) if args.recipe else SynthDatasetRecipe()
    recipe = dataclasses.replace(recipe, **_given(args, "seed", "noise", "time_jitter"))
    dataset = generate_dataset(recipe)
    dataset.write_csv(args.out)
    print(f"wrote {len(dataset.rows)} rows to {args.out} (seed {recipe.seed})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="encwatt",
        description="Measure and model the energy demand of video-encoding runs.",
    )
    parser.add_argument("--version", action="version", version=_TOOL)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("measure", help="run a measured encoding campaign")
    p.add_argument("manifest", help="JSON Lines campaign manifest")
    p.add_argument("--meter", required=True,
                   help="csv:<path> | counter:<path> | synth:<recipe.json or k=v,...>")
    p.add_argument("--encoder-cmd", required=True,
                   help="command template with {input} {output} {preset} {crf} {frames}")
    p.add_argument("--out", required=True, help="dataset CSV to write")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--min-reps", type=int)
    p.add_argument("--max-reps", type=int)
    p.add_argument("--idle-trace", default=None,
                   help="shared idle baseline CSV (default: capture idle per repetition)")
    p.add_argument("--resume", action="store_true",
                   help="skip jobs already present in the output CSV")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("estimate", help="estimate energy from an ultrafast probe time")
    p.add_argument("--defaults", action="store_true", help="use the bundled parameter table")
    p.add_argument("--params", default=None,
                   help="report JSON written by fit/crossval --out for a linear model")
    p.add_argument("--preset", default=None, choices=PRESETS)
    p.add_argument("--t-uf", type=float, required=True, dest="t_uf",
                   help="ultrafast probe encoding time in seconds")
    p.set_defaults(func=cmd_estimate)

    for name in ("fit", "crossval"):
        p = sub.add_parser(name, help=f"{name} a model on a dataset CSV")
        p.add_argument("dataset", help="dataset CSV")
        p.add_argument("--model", required=True, choices=MODEL_KINDS)
        p.add_argument("--objective", choices=OBJECTIVES, default="squared_rel")
        p.add_argument("--out", default=None, help="write the report as JSON")
        if name == "crossval":
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--k", type=int, default=10, help="number of folds")
            p.add_argument("--joint-folds", action="store_true",
                           help="share one bitstream partition across all presets")
        p.set_defaults(func=cmd_fit)

    p = sub.add_parser("report", help="pretty-print a saved fit report")
    p.add_argument("report", help="report JSON written by fit/crossval")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic measurement dataset")
    p.add_argument("--out", required=True, help="dataset CSV to write")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--time-jitter", type=float, default=None)
    p.add_argument("--recipe", default=None, help="JSON recipe file")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, FitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AcquisitionError as exc:
        print(f"meter error: {exc}", file=sys.stderr)
        return EXIT_METER
    except (KeyboardInterrupt, _Interrupted) as exc:
        signum = exc.args[0] if isinstance(exc, _Interrupted) else signal.SIGINT
        print(f"interrupted by {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum


if __name__ == "__main__":
    sys.exit(main())
