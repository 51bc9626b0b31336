"""Command-line interface.

Subcommands mirror the pipeline stages (synth, clean, h0-table,
preprocess, spectrum, train, predict, invert, evaluate, compare) plus
``run`` for the whole protocol driven by a JSON config. Exit codes:
0 success, 1 config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import evaluation, model_io, pipeline, preprocess, spectral
from .errors import ConfigError, DataError, NumericalError
from .series import SynthConfig, atomic_write, load_csv, output_dir
from .series import clean, generate_synthetic, write_csv  # noqa: F401 - perfbench/tracing.py wraps them here
from .solar import SiteSpec, h0_table


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are exit 1
        raise ConfigError(message)


def _parse_years(text: str) -> tuple[int, int]:
    try:
        return pipeline.year_span([int(year) for year in text.split(":")])
    except ValueError:
        raise ConfigError(f"expected a YEAR:YEAR span, first <= last, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="solarcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic daily irradiation CSV")
    p.add_argument("--years", type=int, required=True)
    p.add_argument("--lat", type=float, default=41.917)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--start-year", type=int, default=1971)
    p.add_argument("--k-mean", type=float, default=0.6)
    p.add_argument("--ar1", type=float, default=0.7)
    p.add_argument("--noise-std", type=float, default=0.2)
    p.add_argument("--amplitude", type=float, default=0.25)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("clean", help="replace atypical days by cross-year means")
    p.add_argument("--input", required=True)
    p.add_argument("--lat", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_clean)

    p = sub.add_parser("h0-table", help="dump daily extraterrestrial irradiation")
    p.add_argument("--lat", type=float, required=True)
    p.add_argument("--solar-constant", type=float, default=1367.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_h0_table)

    p = sub.add_parser("preprocess", help="fit seasonal factors and emit the corrected series")
    p.add_argument("--input", required=True)
    p.add_argument("--lat", type=float, required=True)
    p.add_argument("--train-years", type=_parse_years, default=None)
    p.add_argument("--corrected-out", required=True)
    p.add_argument("--factors-out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("spectrum", help="periodogram of a series CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("train", help="fit a forecaster on the training span")
    p.add_argument("--model", choices=pipeline.MODEL_NAMES, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--train-years", type=_parse_years, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--p", type=int, default=None, help="AR order / MLP input lags")
    p.add_argument("--q", type=int, default=None, help="MA order")
    p.add_argument("--order", type=int, default=None, help="Markov/Bayes order")
    p.add_argument("--n-classes", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--n-hidden", type=int, default=None)
    p.add_argument("--epochs", dest="max_epochs", metavar="EPOCHS", type=int, default=None)
    p.add_argument("--max-fail", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="one-step-ahead predictions over a day span")
    p.add_argument("--model-file", required=True)
    p.add_argument("--history", required=True, help="series CSV on the model's working scale")
    p.add_argument("--days", type=_parse_years, required=True)
    p.add_argument("--column", default=pipeline.GHI_PRED_COLUMN)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("invert", help="map corrected predictions back to Wh/m^2")
    p.add_argument("--input", required=True)
    p.add_argument("--factors", required=True)
    p.add_argument("--lat", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("evaluate", help="metrics for one or more prediction CSVs")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--measured", required=True)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="one nRMSE row per prediction CSV")
    p.add_argument("predictions", nargs="+")
    p.add_argument("--measured", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("run", help="full protocol from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--seed", type=int, default=None)
    pre = p.add_mutually_exclusive_group()
    pre.add_argument("--preprocess", dest="preprocess", action="store_true", default=None)
    pre.add_argument("--no-preprocess", dest="preprocess", action="store_false")
    p.add_argument("--input", default=None)
    p.set_defaults(func=cmd_run)

    return parser


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def cmd_synth(args) -> None:
    cfg = SynthConfig(
        n_years=args.years,
        latitude_deg=args.lat,
        clear_sky_fraction_mean=args.k_mean,
        cloud_ar1=args.ar1,
        cloud_std=args.noise_std,
        seasonal_amplitude=args.amplitude,
        start_year=args.start_year,
        seed=args.seed,
    )
    pipeline.stage_synth(cfg, args.out)


def cmd_clean(args) -> None:
    site = SiteSpec.from_degrees(args.lat)
    _, replaced = pipeline.stage_clean(load_csv(args.input), site, args.out, args.report)
    print(f"replaced {len(replaced)} atypical day(s)")


def cmd_h0_table(args) -> None:
    table = h0_table(SiteSpec.from_degrees(args.lat, args.solar_constant))
    with atomic_write(args.out) as fh:
        fh.write("day,h0_wh_m2\n")
        for day, value in enumerate(table, start=1):
            fh.write(f"{day},{value:.3f}\n")


def cmd_preprocess(args) -> None:
    pipeline.stage_preprocess(
        load_csv(args.input), SiteSpec.from_degrees(args.lat), args.train_years,
        args.factors_out, args.corrected_out,
    )


def cmd_spectrum(args) -> None:
    series = load_csv(args.input)
    pgram = spectral.periodogram(series.values)
    test = spectral.fisher_g_test(pgram)
    with atomic_write(args.out) as fh:
        fh.write("period_days,power\n")
        for k, power in enumerate(pgram.ordinates, start=1):
            fh.write(f"{pgram.n / k:.6g},{power:.6g}\n")
    print(
        f"peak period {test.peak_period:.6g} days; Fisher g {test.g:.6g} "
        f"(p-value {test.p_value:.6g})"
    )


def cmd_train(args) -> None:
    # every hyperparameter flag that was set, so one the model does not take is refused;
    # --seed is the run seed
    params = {key: getattr(args, key) for cls in model_io.FORECASTERS.values() for key in cls.params
              if key != "seed" and getattr(args, key) is not None}
    pipeline.stage_train(args.model, params, args.seed, load_csv(args.input), args.train_years, args.out)


def cmd_predict(args) -> None:
    model = model_io.load_forecaster(args.model_file)
    pipeline.stage_predict(model, load_csv(args.history), args.days, args.out, args.column)


def cmd_invert(args) -> None:
    h0 = h0_table(SiteSpec.from_degrees(args.lat))
    inverter = preprocess.Preprocessor(h0, *pipeline.read_factors_csv(args.factors))
    pipeline.stage_invert(inverter, load_csv(args.input), args.out)


def _load_runs(measured_path, prediction_paths) -> dict[str, evaluation.ForecastRun]:
    """One run per predictions file, named after its stem; two files of one stem are a ConfigError."""
    paths: dict[str, str] = {}
    for path in prediction_paths:
        stem = Path(path).stem
        if stem in paths:
            raise ConfigError(f"{paths[stem]} and {path} would both be named {stem!r}; rename one")
        paths[stem] = path
    measured = load_csv(measured_path)
    return pipeline.forecast_runs(measured, {stem: load_csv(path) for stem, path in paths.items()})


def cmd_evaluate(args) -> None:
    outdir = output_dir(args.outdir)
    runs = _load_runs(args.measured, args.predictions)
    pipeline.write_evaluation_csvs(runs, outdir)
    _write_table1(runs, outdir / "table1.csv")
    if len(runs) >= 2:
        summary = evaluation.confidence_interval([evaluation.metrics(run) for run in runs.values()])
        with atomic_write(outdir / "ci.csv") as fh:
            fh.write("metric,mean,half_width_95,n_runs\n")
            for name in evaluation.METRIC_NAMES:
                fh.write(
                    f"{name},{summary.means[name]:.6g},"
                    f"{summary.half_widths[name]:.6g},{summary.n_runs}\n"
                )


def _write_table1(runs, path) -> None:
    rows = evaluation.compare_models(runs)
    with atomic_write(path) as fh:
        fh.write("model,nrmse\n")
        for model_id, nrmse in rows:
            fh.write(f"{model_id},{nrmse:.6g}\n")


def cmd_compare(args) -> None:
    runs = _load_runs(args.measured, args.predictions)
    _write_table1(runs, args.out)


def cmd_run(args) -> None:
    overrides = {
        "outdir": args.outdir,
        "model": args.model,
        "seed": args.seed,
        "preprocess": args.preprocess,
        "input_csv": args.input,
    }
    cfg = pipeline.load_config(args.config, overrides)
    artifacts = pipeline.run_pipeline(cfg)
    for name, path in artifacts.items():
        print(f"{name}: {path}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
