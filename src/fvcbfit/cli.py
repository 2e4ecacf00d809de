"""Batch command line front-end.

    fvcbfit fit data.csv -o results.csv --preprocess --temp-type 2
    fvcbfit synth -o synthetic.csv --n-curves 10 --noise-sd 0.5 --seed 7
    fvcbfit preprocess raw.csv -o clean.csv

Exit codes: 0 success, 1 usage error, 2 data error, 3 fit divergence.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .data_io import (CurveKind, _rows, _tables, _write_csv, load_csv,
                      write_dataset, write_results)
from .errors import DivergenceError, FvcbError
# fit is not called here, but stays a name of this module: the benchmark's
# tracer (bench/spans.py) wraps fvcbfit.cli.fit
from .optimizer import fit, fit_groups  # noqa: F401
from .params import MAIN_FOUR, FitConfig, ParameterState
from .preprocess import PreprocessConfig, preprocess_dataset
from .synth import generate_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3

PROGRESS_EVERY = 500


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; this tool reserves 2 for
    # data errors, so remap.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_kind(text: str):
    cid, sep, kind = text.partition("=")
    kinds = {"co2": CurveKind.CO2Response, "light": CurveKind.LightResponse}
    if not sep or kind not in kinds:
        raise argparse.ArgumentTypeError(
            f"expected ID=co2 or ID=light, got {text!r}")
    try:
        return int(cid), kinds[kind]
    except ValueError:
        raise argparse.ArgumentTypeError(f"curve id {cid!r} is not an integer")


def _add_model_flags(p):
    p.add_argument("--light-type", type=int, choices=(0, 1, 2), default=0,
                   help="light response: 0 J=Jmax, 1 rectangular hyperbola, "
                        "2 non-rectangular hyperbola")
    p.add_argument("--temp-type", type=int, choices=(0, 1, 2), default=0,
                   help="temperature response: 0 none, 1 Arrhenius, 2 peaked")


# the preprocessing flags and the PreprocessConfig fields they set; a
# flag left out keeps the field's default
PREPROCESS_FLAGS = {"--window-len": "window_len",
                    "--smooth-ci-threshold": "smooth_ci_threshold",
                    "--jump-up": "jump_up", "--jump-down": "jump_down",
                    "--min-points-factor": "min_points_factor"}


def _add_preprocess_flags(p):
    g = p.add_argument_group("preprocessing")
    g.add_argument("--window-len", type=int,
                   help="smoothing window length (points)")
    g.add_argument("--smooth-ci-threshold", type=float,
                   help="smooth only points with Ci above this")
    g.add_argument("--jump-up", type=float,
                   help="rise in A between neighbouring points (absolute, "
                        "umol m-2 s-1) flagged as an end spike")
    g.add_argument("--jump-down", type=float,
                   help="drop in A between neighbouring points (absolute, "
                        "umol m-2 s-1, negative) flagged as an end spike")
    g.add_argument("--min-points-factor", type=int,
                   help="skip preprocessing below factor*window_len points")


def _preprocess_config(args) -> PreprocessConfig:
    given = {field: getattr(args, field)
             for field in PREPROCESS_FLAGS.values()}
    return PreprocessConfig(**{field: value for field, value in given.items()
                               if value is not None})


def _add_fit_flags(p):
    g = p.add_argument_group("fitting")
    g.add_argument("--lr", type=float, default=0.08,
                   help="Adam starting step size (shrunk after a stall)")
    g.add_argument("--max-iter", type=int, default=20000,
                   help="iteration budget")
    g.add_argument("--early-stop", action="store_true",
                   help="stop once the loss plateaus (relative change "
                        "< 1e-7 for 500 iterations)")
    g.add_argument("--onefit", action="store_true",
                   help="share Vcmax/Jmax/TPU/Rd across each fitting group")
    g.add_argument("--allow-negative-rd", action="store_true",
                   help="drop the non-negativity constraint on Rd25")
    g.add_argument("--no-tpu-penalty", action="store_true",
                   help="disable the TPU-transition penalty")
    g.add_argument("--r-penalty", action="store_true",
                   help="penalize weak Vcmax/Jmax correlation in groups "
                        "of 7 or more curves")
    g.add_argument("--fit-gm", action="store_true",
                   help="fit mesophyll conductance (substitutes "
                        "C = Ci - A/gm)")
    g.add_argument("--fit-kinetics", action="store_true",
                   help="fit Kc25, Ko25 and Gamma*25 as well")


def _fit_config(args) -> FitConfig:
    return FitConfig(light_type=args.light_type, temp_type=args.temp_type,
                     onefit=args.onefit, fit_gm=args.fit_gm,
                     fit_kinetics=args.fit_kinetics,
                     positive_rd=not args.allow_negative_rd,
                     tpu_penalty=not args.no_tpu_penalty,
                     r_penalty=args.r_penalty, lr=args.lr,
                     max_iter=args.max_iter, early_stop=args.early_stop)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fvcbfit",
                     description="Fit the biochemical assimilation model "
                                 "to gas-exchange response curves.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_fit = sub.add_parser("fit", parents=[], help="fit curves from a CSV")
    p_fit.add_argument("input", help="input CSV (CurveID, FittingGroup, "
                                     "Ci, A [, Qin, Tleaf])")
    p_fit.add_argument("-o", "--output", default=None,
                       help="write fitted parameters here (omit to only "
                            "print the summary)")
    p_fit.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format; json is machine mode and "
                            "silences progress output")
    p_fit.add_argument("--points", action="store_true",
                       help="also emit per-point predictions")
    p_fit.add_argument("--preprocess", action="store_true",
                       help="clean curves before fitting")
    p_fit.add_argument("--curve-kind", type=_parse_kind, action="append",
                       default=[], metavar="ID=co2|light",
                       help="override automatic curve classification")
    p_fit.add_argument("-q", "--quiet", action="store_true",
                       help="suppress progress and summary output")
    _add_model_flags(p_fit)
    _add_fit_flags(p_fit)
    _add_preprocess_flags(p_fit)

    p_syn = sub.add_parser("synth", help="generate synthetic curves")
    p_syn.add_argument("-o", "--output", required=True,
                       help="write the synthetic dataset here")
    p_syn.add_argument("--n-curves", type=int, default=1)
    p_syn.add_argument("--n-points", type=int, default=150,
                       help="points per curve")
    p_syn.add_argument("--ci-min", type=float, default=50.0)
    p_syn.add_argument("--ci-max", type=float, default=1800.0)
    p_syn.add_argument("--light-curve", action="store_true",
                       help="emit light-response curves (A vs Qin) instead "
                            "of CO2-response curves")
    p_syn.add_argument("--q-min", type=float, default=0.0)
    p_syn.add_argument("--q-max", type=float, default=2000.0)
    p_syn.add_argument("--ci-level", type=float, default=400.0,
                       help="fixed Ci for light-response curves")
    p_syn.add_argument("--qin", type=float, default=2000.0,
                       help="fixed Qin for CO2-response curves")
    p_syn.add_argument("--tleaf", type=float, default=25.0,
                       help="leaf temperature, deg C")
    p_syn.add_argument("--noise-sd", type=float, default=0.0,
                       help="Gaussian noise standard deviation")
    p_syn.add_argument("--jitter", action="store_true",
                       help="scale each true parameter by an independent "
                            "uniform factor per curve")
    p_syn.add_argument("--scale-jitter", type=float, default=0.10,
                       help="jitter half-width as a fraction")
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--group", type=int, default=0,
                       help="fitting group id for all generated curves")
    p_syn.add_argument("--truth", default=None, metavar="PATH",
                       help="also write the per-curve true parameters here")
    p_syn.add_argument("--vcmax25", type=float, default=None)
    p_syn.add_argument("--jmax25", type=float, default=None)
    p_syn.add_argument("--tpu25", type=float, default=None)
    p_syn.add_argument("--rd25", type=float, default=None)
    p_syn.add_argument("-q", "--quiet", action="store_true")
    _add_model_flags(p_syn)

    p_pre = sub.add_parser("preprocess", help="clean curves and write the "
                                              "surviving points")
    p_pre.add_argument("input")
    p_pre.add_argument("-o", "--output", required=True)
    p_pre.add_argument("--curve-kind", type=_parse_kind, action="append",
                       default=[], metavar="ID=co2|light")
    p_pre.add_argument("-q", "--quiet", action="store_true")
    _add_preprocess_flags(p_pre)

    for p in (p_fit, p_syn, p_pre):
        p.set_defaults(cmd_parser=p)
    return parser


def _check(args):
    """Builds the configurations the command's flags describe; a flag
    value they reject is a usage error of that command."""
    try:
        if args.cmd == "synth" and args.n_curves < 1:
            raise ValueError("--n-curves must be at least 1")
        if args.cmd == "fit":
            args.fit_config = _fit_config(args)
            for flag, field in PREPROCESS_FLAGS.items():
                if not args.preprocess and getattr(args, field) is not None:
                    raise ValueError(f"{flag} requires --preprocess")
        if args.cmd == "preprocess" or getattr(args, "preprocess", False):
            args.preprocess_config = _preprocess_config(args)
    except ValueError as e:
        args.cmd_parser.error(str(e))


def _run_fit(args) -> int:
    t0 = time.perf_counter()
    quiet = args.quiet or args.format == "json"
    dataset = load_csv(args.input, kind_overrides=dict(args.curve_kind))
    if args.preprocess:
        dataset = preprocess_dataset(dataset, args.preprocess_config)
    config = args.fit_config

    cb = None
    if not quiet:
        def cb(it, loss):
            if it % PROGRESS_EVERY == 0:
                print(f"  iter {it:>6d}  loss {loss:.6g}", flush=True)
    results = fit_groups(dataset, config, callback=cb)

    if args.output:
        write_results(results, args.output, format=args.format,
                      points=args.points)
    if not quiet:
        curves, _ = _tables(results)
        for r in _rows(curves):
            print(f"curve {r['curve_id']} (group {r['fitting_group']}): "
                  f"n={r['n_points']}  RMSE={r['rmse']:.3f}  "
                  f"R2={r['r2']:.3f}  "
                  f"TPU stage: {'yes' if r['tpu_stage'] else 'no'}")
        print(f"mean RMSE={float(np.mean(curves['rmse'])):.3f}  "
              f"mean R2={float(np.mean(curves['r2'])):.3f}")
        for res in results:
            gid = res.params.group_ids[0]
            print(f"group {gid}: loss {res.initial_loss:.6g} -> "
                  f"{res.final_loss:.6g} in {res.iterations_run} iterations")
        print(f"done in {time.perf_counter() - t0:.1f} s")
    return EXIT_OK


def _run_synth(args) -> int:
    overrides = {name: getattr(args, name) for name in MAIN_FOUR
                 if getattr(args, name) is not None}
    true_params = ParameterState.single(**overrides)
    config = FitConfig(light_type=args.light_type, temp_type=args.temp_type)
    if args.light_curve:
        grids = {"q_grid": np.linspace(args.q_min, args.q_max, args.n_points)}
    else:
        grids = {"ci_grid": np.linspace(args.ci_min, args.ci_max,
                                        args.n_points)}
    dataset, truths = generate_dataset(
        true_params, n_curves=args.n_curves, config=config,
        noise_sd=args.noise_sd, seed=args.seed, jitter=args.jitter,
        scale_jitter=args.scale_jitter, tleaf_c=args.tleaf,
        qin_level=args.qin, ci_level=args.ci_level,
        fitting_group=args.group, **grids)
    write_dataset(dataset, args.output)
    if args.truth:
        _write_csv(args.truth, ("curve_id", "fitting_group") + MAIN_FOUR, [{
            "curve_id": [c.curve_id for c in dataset.curves],
            "fitting_group": [c.fitting_group for c in dataset.curves],
            **{name: [getattr(tp, name)[0] for tp in truths]
               for name in MAIN_FOUR}}])
    if not args.quiet:
        kind = "light-response" if args.light_curve else "CO2-response"
        print(f"wrote {args.n_curves} {kind} curve(s) x {args.n_points} "
              f"points to {args.output}")
        if args.truth:
            print(f"wrote true parameters to {args.truth}")
    return EXIT_OK


def _run_preprocess(args) -> int:
    dataset = load_csv(args.input, kind_overrides=dict(args.curve_kind))
    cleaned = preprocess_dataset(dataset, args.preprocess_config)
    write_dataset(cleaned, args.output)
    if not args.quiet:
        before = {c.curve_id: c.n_points for c in dataset.curves}
        for c in cleaned.curves:
            dropped = before[c.curve_id] - c.n_points
            print(f"curve {c.curve_id}: kept {c.n_points} of "
                  f"{before[c.curve_id]} points ({dropped} removed)")
        print(f"wrote {args.output}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check(args)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.cmd == "fit":
            return _run_fit(args)
        if args.cmd == "synth":
            return _run_synth(args)
        return _run_preprocess(args)
    except DivergenceError as e:
        print(f"fvcbfit: fit diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except FvcbError as e:
        print(f"fvcbfit: {e}", file=sys.stderr)
        return EXIT_DATA
    except OSError as e:
        print(f"fvcbfit: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
