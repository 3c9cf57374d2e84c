"""Command-line interface.

Exit codes: 0 success, 2 configuration or schema problem, 3 meter
problem, 4 encoder problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__
from .dataset import load_dataset_csv
from .energy import ConfidencePolicy
from .errors import (
    AcquisitionError,
    DatasetError,
    EncodeFailedError,
    FitError,
    MalformedTraceError,
    ManifestError,
    MeasurementRunError,
    TraceWindowError,
)
from .fitting import MODEL_KINDS, OBJECTIVES, FitReport, cross_validate, fit_report
from .meter import DEFAULT_POLL_PERIOD, open_meter, parse_trace_csv
from .models import (
    PRESETS,
    load_default_params,
    predict_energy_linear,
    read_params_file,
    write_params_file,
)
from .runner import load_manifest, run_campaign
from .synth import SynthDatasetRecipe, generate_dataset, load_dataset_recipe

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_METER = 3
EXIT_ENCODER = 4

_TOOL = f"encwatt {__version__}"


def _policy_from_args(args: argparse.Namespace) -> ConfidencePolicy:
    return ConfidencePolicy(
        alpha=args.alpha,
        beta=args.beta,
        min_reps=args.min_reps,
        max_reps=args.max_reps,
    )


def cmd_measure(args: argparse.Namespace) -> int:
    jobs = load_manifest(args.manifest)
    policy = _policy_from_args(args)
    meter = open_meter(args.meter, args.sample_period)
    idle_trace = parse_trace_csv(args.idle_trace) if args.idle_trace else None
    dataset = run_campaign(
        jobs,
        encoder_cmd=args.encoder_cmd,
        meter=meter,
        policy=policy,
        out_csv=args.out,
        idle_trace=idle_trace,
        resume=args.resume,
    )
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
        print("error: give exactly one of --defaults or --params", file=sys.stderr)
        return EXIT_CONFIG
    table = load_default_params() if args.defaults else read_params_file(args.params)
    if args.t_uf <= 0:
        print(f"error: --t-uf must be > 0, got {args.t_uf}", file=sys.stderr)
        return EXIT_CONFIG
    if args.preset is not None:
        if args.preset == "ultrafast" and args.defaults:
            print(
                "error: the bundled table has no ultrafast entry; the ultrafast "
                "encode is the probe whose time you pass as --t-uf",
                file=sys.stderr,
            )
            return EXIT_CONFIG
        if args.preset not in table:
            print(f"error: no parameters for preset {args.preset!r}", file=sys.stderr)
            return EXIT_CONFIG
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
            lp = report.linear_params.get(preset)
            if lp is not None:
                print(f"{preset} {lp.p:.6g} {lp.e0:.6g}")
    if report.qp_params is not None:
        print("preset class kappa lam mu t0 p_avg")
        for preset in report.presets():
            for cls, qp in sorted((report.qp_params.get(preset) or {}).items()):
                print(
                    f"{preset} {cls or '-'} {qp.kappa:.6g} {qp.lam:.6g} "
                    f"{qp.mu:.6g} {qp.t0:.6g} {qp.p_avg:.6g}"
                )
    print("preset mean_abs_rel_error_pct")
    for preset in report.presets():
        print(f"{preset} {report.per_preset_error[preset] * 100.0:.2f}")
    print(f"average {report.overall_error * 100.0:.2f}")


def _run_fit(args: argparse.Namespace, validate: bool) -> int:
    dataset = load_dataset_csv(args.dataset)
    if validate:
        report = cross_validate(
            dataset, args.model, k=args.k, seed=args.seed,
            objective=args.objective, joint_folds=args.joint_folds,
            tool_version=_TOOL,
        )
    else:
        report = fit_report(
            dataset, args.model, seed=args.seed,
            objective=args.objective, tool_version=_TOOL,
        )
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    if args.params_out and report.linear_params is not None:
        write_params_file(
            report.linear_params,
            args.params_out,
            metadata={"tool": _TOOL, "seed": report.seed, "objective": report.objective},
        )
    _print_report(report)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    return _run_fit(args, validate=False)


def cmd_crossval(args: argparse.Namespace) -> int:
    return _run_fit(args, validate=True)


def cmd_report(args: argparse.Namespace) -> int:
    try:
        report = FitReport.from_json(Path(args.report).read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read report {args.report}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _print_report(report)
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    if args.recipe:
        recipe = load_dataset_recipe(args.recipe)
        if args.seed is not None:
            recipe = dataclasses.replace(recipe, seed=args.seed)
    else:
        recipe = SynthDatasetRecipe(
            noise=args.noise,
            time_jitter=args.time_jitter,
            seed=args.seed if args.seed is not None else 0,
        )
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
    p.add_argument("--alpha", type=float, default=0.99)
    p.add_argument("--beta", type=float, default=0.02)
    p.add_argument("--min-reps", type=int, default=2)
    p.add_argument("--max-reps", type=int, default=50)
    p.add_argument("--sample-period", type=float, default=DEFAULT_POLL_PERIOD)
    p.add_argument("--idle-trace", default=None,
                   help="shared idle baseline CSV (default: capture idle per repetition)")
    p.add_argument("--resume", action="store_true",
                   help="skip jobs already present in the output CSV")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("estimate", help="estimate energy from an ultrafast probe time")
    p.add_argument("--defaults", action="store_true", help="use the bundled parameter table")
    p.add_argument("--params", default=None, help="parameter file from a fit")
    p.add_argument("--preset", default=None, choices=PRESETS)
    p.add_argument("--t-uf", type=float, required=True, dest="t_uf",
                   help="ultrafast probe encoding time in seconds")
    p.set_defaults(func=cmd_estimate)

    for name, func, with_k in (("fit", cmd_fit, False), ("crossval", cmd_crossval, True)):
        p = sub.add_parser(name, help=f"{name} a model on a dataset CSV")
        p.add_argument("dataset", help="dataset CSV")
        p.add_argument("--model", required=True, choices=MODEL_KINDS)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--objective", choices=OBJECTIVES, default="squared_rel")
        p.add_argument("--out", default=None, help="write the report as JSON")
        p.add_argument("--params-out", default=None,
                       help="write fitted per-preset parameters (linear models)")
        if with_k:
            p.add_argument("--k", type=int, default=10, help="number of folds")
            p.add_argument("--joint-folds", action="store_true",
                           help="share one bitstream partition across all presets")
        p.set_defaults(func=func)

    p = sub.add_parser("report", help="pretty-print a saved fit report")
    p.add_argument("report", help="report JSON written by fit/crossval")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic measurement dataset")
    p.add_argument("--out", required=True, help="dataset CSV to write")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--time-jitter", type=float, default=0.08)
    p.add_argument("--recipe", default=None, help="JSON recipe file")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ManifestError, DatasetError, FitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AcquisitionError, MalformedTraceError, TraceWindowError) as exc:
        print(f"meter error: {exc}", file=sys.stderr)
        return EXIT_METER
    except (EncodeFailedError, MeasurementRunError) as exc:
        print(f"encoder error: {exc}", file=sys.stderr)
        return EXIT_ENCODER


if __name__ == "__main__":
    sys.exit(main())
