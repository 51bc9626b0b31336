"""End-to-end protocol: clean, preprocess, train, forecast, invert, evaluate.

Every stage boundary is a plain file, so any suffix of the pipeline can
be rerun from saved artifacts and reproduce identical downstream
outputs. Each stage is one ``stage_*`` function that writes its
artifacts and returns what the next stage reads; run_pipeline calls them
in order and each CLI subcommand calls one. Physical-unit CSVs use the
3-decimal irradiation schema, so a stage returns the values rounded as
the file holds them (the parse of the text ``write_csv`` formatted, not
a reload). Dimensionless intermediates and model.txt are written at full
precision (repr floats) and reload to exactly the values in memory, so a
stage returns those in-memory values.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import io
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# preprocess, model_io and evaluation are imported in the functions that use
# them, so a CLI command loads only its own stage's modules
from .errors import ConfigError, DataError, NumericalError, SolarcastError, checked, integer, model_params
from .series import (
    DailySeries, SynthConfig, atomic_write, clean, generate_synthetic, load_csv,
    output_dir, read_text, write_csv,
)
from .solar import DAYS_PER_YEAR, SiteSpec

GHI_PRED_COLUMN = "ghi_pred_wh_m2"
CORRECTED_COLUMN = "s_corr"
CORRECTED_PRED_COLUMN = "s_corr_pred"

# model_io.FORECASTERS in its order, written out so that reading the names
# loads no model code
MODEL_NAMES = ("naive", "ar", "arma", "markov", "bayes", "knn", "mlp")


@dataclass(frozen=True)
class PipelineConfig:
    latitude_deg: float
    train_years: tuple[int, int]
    test_years: tuple[int, int]
    model: str = "mlp"
    model_params: dict = field(default_factory=dict)
    use_preprocessing: bool = True
    seed: int = 0
    outdir: Path = Path("out")
    input_csv: str | None = None
    synth: SynthConfig | None = None

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ConfigError(f"unknown model {self.model!r}; choose from {MODEL_NAMES}")
        a, b = self.train_years
        c, d = self.test_years
        if a > b or c > d:
            raise ConfigError("year spans must be (first, last) with first <= last")
        if not c > b:
            raise ConfigError("test span must follow the training span (disjoint)")
        if self.input_csv is None and self.synth is None:
            raise ConfigError("either input_csv or synth settings are required")
        object.__setattr__(self, "outdir", Path(self.outdir))


def year_span(value) -> tuple[int, int]:
    """``[first, last]`` as a pair of integer years within 1..9999 with
    first <= last, else a ValueError."""
    if not (
        isinstance(value, list) and len(value) == 2
        and all(isinstance(y, int) and not isinstance(y, bool) and 1 <= y <= 9999 for y in value)
        and value[0] <= value[1]
    ):
        raise ValueError(f"expected [first, last] years within 1..9999, first <= last, got {value!r}")
    return tuple(value)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _number(value) -> float:
    """A JSON number as a float; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _mapping(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {value!r}")
    return dict(value)


# each config key: the PipelineConfig field it sets and the check of its value
_CONFIG_KEYS = {
    "latitude_deg": ("latitude_deg", _number),
    "synth": ("synth", _mapping),
    "train_years": ("train_years", year_span),
    "test_years": ("test_years", year_span),
    "model": ("model", _text),
    "model_params": ("model_params", _mapping),
    "preprocess": ("use_preprocessing", _flag),
    "seed": ("seed", lambda value: integer("seed", value, 0)),
    "outdir": ("outdir", Path),
    "input_csv": ("input_csv", _text),
}
_REQUIRED_KEYS = ("latitude_deg", "train_years", "test_years")  # the fields without a default


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Read the declarative JSON config, applying flag overrides on top. A
    key that is not one of ``_CONFIG_KEYS`` is a ConfigError; a key that is
    absent or null leaves its ``PipelineConfig`` default."""
    import json

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {type(raw).__name__}")
    for key in raw:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}; the known keys are {list(_CONFIG_KEYS)}")
    if "SOLARCAST_OUTDIR" in os.environ:  # env beats the config file, not flags
        raw["outdir"] = os.environ["SOLARCAST_OUTDIR"]
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    given = {}
    for key, (name, convert) in _CONFIG_KEYS.items():
        if raw.get(key) is None:
            if key in _REQUIRED_KEYS:
                raise ConfigError(f"config missing required key {key!r}")
            continue
        try:
            given[name] = convert(raw[key])
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"config key {key!r}: {e}") from None
    if "synth" in given:
        if "latitude_deg" in given["synth"]:
            raise ConfigError("config key 'synth': set 'latitude_deg' once, at the top level, which also sets the site")
        try:
            given["synth"] = SynthConfig(latitude_deg=given["latitude_deg"], **given["synth"])
        except TypeError as e:
            raise ConfigError(f"bad synth settings: {e}") from e
    return PipelineConfig(**given)


@contextlib.contextmanager
def _float_errors_raise(what: str):
    """An overflow, invalid operation or division by zero inside the block
    (or the decorated function) is a NumericalError, not a warning."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as e:
        raise NumericalError(f"{what}: {e}") from None


@_float_errors_raise("fitting")
def fit_forecaster(name: str, params: dict, seed: int, train_series: DailySeries):
    """The registry forecaster ``name`` fitted on ``train_series``. Each key of
    ``params`` must name one of the class's ``params``; their values are checked
    against its least values, and the values it uses, set or defaulted, against
    its ``limits`` of ``train_series``. ``seed`` is the default of
    ``params["seed"]``, which only the MLP takes; it must be >= 0 for every model."""
    from . import model_io

    if name not in model_io.FORECASTERS:
        raise ConfigError(f"unknown model {name!r}")
    cls = model_io.FORECASTERS[name]
    for key in params:
        if key not in cls.params:
            raise ConfigError(f"model parameter {key!r}: {name} takes only {list(cls.params)}")
    model_params({"seed": seed}, {"seed": 0})
    if params.get("seed") is None:
        params = {**params, "seed": seed}
    model = cls(**model_params(params, cls.params))
    model_params({key: getattr(model, key) for key in cls.params}, cls.params, model.limits(train_series),
                 len(train_series))
    return model.fit(train_series)


def train_mlp_bundle(train_series: DailySeries, params: dict, seed: int) -> tuple:
    """The MLP that :func:`fit_forecaster` fits, and its ``TrainHistory``."""
    bundle = fit_forecaster("mlp", params, seed, train_series)
    return bundle, bundle.history


@_float_errors_raise("forecasting")
def forecast_one_step(model, working: DailySeries, test_days) -> np.ndarray:
    """Predict each test day from measured values strictly before it."""
    return model.predict_span(working.values, working.indices_of(test_days), test_days)


def _years(series: DailySeries, years: tuple[int, int] | None) -> DailySeries:
    return series if years is None else series.slice_years(*years)


# ---------------------------------------------------------------------------
# the protocol stages
# ---------------------------------------------------------------------------


def stage_synth(config: SynthConfig, path) -> DailySeries:
    """Write the synthetic series; returns it rounded to the 3 decimals the
    file holds, as ``write_csv`` returns it."""
    return write_csv(generate_synthetic(config), path)


def stage_clean(series: DailySeries, site: SiteSpec, path, report_path=None) -> tuple[DailySeries, tuple]:
    """Write the cleaned series (and its report if ``report_path`` is set);
    returns the series rounded to the 3 decimals the file holds, as
    ``write_csv`` returns it, and the replacements ``clean`` made."""
    cleaned, replaced = clean(series, site)
    cleaned = write_csv(cleaned, path)
    if report_path:
        write_cleaning_report(replaced, report_path)
    return cleaned, replaced


def stage_preprocess(
    cleaned: DailySeries, site: SiteSpec, train_years, factors_path, corrected_path
) -> tuple[preprocess.Preprocessor, DailySeries]:
    """Fit factors on ``train_years`` (all when None); write them and the
    corrected series."""
    from . import preprocess

    preprocessor = preprocess.fit(_years(cleaned, train_years), site)
    write_factors_csv(preprocessor.factors, preprocessor.n_years_used, factors_path)
    corrected = preprocessor.apply(cleaned)
    write_csv(corrected, corrected_path, value_column=CORRECTED_COLUMN, decimals=None)
    return preprocessor, corrected


def stage_train(name: str, params: dict, seed: int, series: DailySeries, train_years, path):
    """Fit ``name`` on ``train_years`` (all when None) and write model.txt."""
    from . import model_io

    model = fit_forecaster(name, params, seed, _years(series, train_years))
    model_io.save_forecaster(path, model)
    return model


def stage_predict(model, history: DailySeries, years, path, column=GHI_PRED_COLUMN) -> DailySeries:
    """Forecast the days of ``years`` in ``history`` one step ahead and write
    them; years not fully inside the history are a DataError."""
    first, last = years
    if dt.date(first, 1, 1) < history.start or dt.date(last, 12, 31) > history.end:
        span = f"{history.start}..{history.end}"
        raise DataError(f"test years {first}:{last} are not fully inside the history {span}")
    test = history.slice_years(*years)
    return write_forecast(test.start, forecast_one_step(model, history, test.dates()), path, column)


@_float_errors_raise("inverting")
def stage_invert(preprocessor: preprocess.Preprocessor, corrected: DailySeries, path) -> DailySeries:
    """Map corrected forecasts back to Wh/m^2 and write them."""
    return write_forecast(corrected.start, preprocessor.invert(corrected.values, corrected.dates()), path)


def forecast_runs(measured: DailySeries, predictions: dict) -> dict[str, evaluation.ForecastRun]:
    """Pair each forecast series (model id -> DailySeries) with the
    measured values of its days."""
    from . import evaluation

    return {
        model_id: evaluation.ForecastRun(
            days=pred.dates(), measured=measured.slice_dates(pred.start, pred.end).values,
            predicted=pred.values, model_id=model_id,
        )
        for model_id, pred in predictions.items()
    }


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except SolarcastError as exc:
        raise type(exc)(f"[stage {name}] {exc}") from exc


# Table 1 is one run_pipeline per model on one input, so the last run's input
# stages (input, clean, preprocess) are held here, and a run with the same key
# writes their files from these texts and trains from these results:
# (key, {artifact name: text}, (cleaned, preprocessor, working)), or None.
# A run reads it once and replaces it whole, so no thread sees half of it.
# A run_table that runs the input stages once for all models (ROADMAP item
# 15) deletes it.
_last_input = None


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run the five protocol steps; returns the artifact path map.

    Artifacts: cleaned.csv, cleaning_report.csv, factors.csv,
    corrected.csv, model.txt, predictions.csv (plus
    predictions_corrected.csv when preprocessing is on), metrics.csv,
    seasonal.csv, monthly.csv.
    """
    global _last_input
    outdir = output_dir(cfg.outdir)
    site = SiteSpec.from_degrees(cfg.latitude_deg)
    artifacts: dict[str, Path] = {}

    def artifact(name: str, filename: str = "") -> Path:
        artifacts[name] = outdir / (filename or f"{name}.csv")
        return artifacts[name]

    with _stage("input"):
        text = None if cfg.input_csv is None else read_text(cfg.input_csv)
    # the input's text or settings (repr tells -0.0 from 0.0), and the latitude's bits
    key = (text, repr(cfg.synth) if text is None else None, float(cfg.latitude_deg).hex(),
           cfg.train_years, cfg.use_preprocessing)
    last = _last_input
    if last is not None and last[0] == key:
        _, files, (cleaned, preprocessor, working) = last
        with _stage("input"):
            for name, file_text in files.items():
                with atomic_write(artifact(name)) as fh:
                    fh.write(file_text)
    else:
        with _stage("input"):
            series = stage_synth(cfg.synth, artifact("synthetic")) if text is None else load_csv(io.StringIO(text))

        with _stage("clean"):
            cleaned, _ = stage_clean(series, site, artifact("cleaned"), artifact("cleaning_report"))

        preprocessor, working = None, cleaned
        if cfg.use_preprocessing:
            with _stage("preprocess"):
                preprocessor, working = stage_preprocess(
                    cleaned, site, cfg.train_years, artifact("factors"), artifact("corrected")
                )
        with _stage("input"):
            files = {name: read_text(path) for name, path in artifacts.items()}
        _last_input = (key, files, (cleaned, preprocessor, working))

    with _stage("train"):
        model = stage_train(
            cfg.model, cfg.model_params, cfg.seed, working, cfg.train_years,
            artifact("model", "model.txt"),
        )

    with _stage("predict"):
        if preprocessor is None:
            predictions = stage_predict(model, working, cfg.test_years, artifact("predictions"))
        else:
            corrected = stage_predict(
                model, working, cfg.test_years, artifact("predictions_corrected"), CORRECTED_PRED_COLUMN
            )
            predictions = stage_invert(preprocessor, corrected, artifact("predictions"))

    with _stage("evaluate"):
        runs = forecast_runs(cleaned, {cfg.model: predictions})
        artifacts.update(write_evaluation_csvs(runs, outdir))

    return artifacts


# ---------------------------------------------------------------------------
# artifact writers/readers shared with the CLI
# ---------------------------------------------------------------------------


def write_forecast(start, values, path, column: str = GHI_PRED_COLUMN) -> DailySeries:
    """Write daily forecasts from ``start``, floored at zero (the inversion's
    factors are positive, so a floored corrected forecast inverts to the
    floored irradiation); returns them as the file holds them, as ``write_csv``
    does. ``GHI_PRED_COLUMN`` is written to 3 decimals, corrected forecasts exactly."""
    floored = DailySeries(start, np.maximum(values, 0.0))
    return write_csv(floored, path, value_column=column, decimals=3 if column == GHI_PRED_COLUMN else None)


def write_factors_csv(factors: np.ndarray, n_years_used: np.ndarray, path) -> None:
    rows = enumerate(zip(np.asarray(factors, np.float64).tolist(), np.asarray(n_years_used, np.int64).tolist()), 1)
    with atomic_write(path) as fh:
        fh.write("day,y_star,n_years\n" + "".join(f"{day},{y!r},{n:d}\n" for day, (y, n) in rows))


def read_factors_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The factors and per-day year counts that ``write_factors_csv`` wrote."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {path}: {e}") from e
    if not lines or lines[0].strip() != "day,y_star,n_years":
        raise DataError(f"{path}: expected header 'day,y_star,n_years'")
    final = np.empty(len(lines) - 1)
    n_years = np.empty(len(lines) - 1, dtype=np.int64)
    for i, line in enumerate(lines[1:]):
        try:
            day, y_star, n = line.split(",")
            day, final[i], n_years[i] = int(day), float(y_star), int(n)
        except (ValueError, OverflowError):
            raise DataError(f"{path}:{i + 2}: malformed factors row {line!r}") from None
        if day != i + 1:
            raise DataError(f"{path}: factors must be listed for days 1..365 in order")
    final = checked(f"{path}: y_star", final, (DAYS_PER_YEAR,), low=0, strict=True)
    checked(f"{path}: n_years", n_years, (DAYS_PER_YEAR,), low=0)
    return final, n_years


def write_cleaning_report(replaced: tuple, path) -> None:
    with atomic_write(path) as fh:
        fh.write("date,old_value,new_value\n")
        for day, old, new in replaced:
            old_text = "" if old is None else f"{old:.3f}"
            fh.write(f"{day.isoformat()},{old_text},{new:.3f}\n")


def write_evaluation_csvs(runs: dict[str, evaluation.ForecastRun], outdir: Path) -> dict:
    """metrics.csv, seasonal.csv, monthly.csv with 6 significant digits,
    rows grouped by run in the order of ``runs`` (model id -> run)."""
    from . import evaluation


    def scores(rep: evaluation.MetricsReport) -> str:
        return f"{rep.rmse:.6g},{rep.nrmse:.6g},{rep.mbe:.6g},{rep.r_squared:.6g},{rep.n}"

    rows = {
        "metrics": ["model,rmse,nrmse,mbe,r_squared,n"],
        "seasonal": ["model,season,rmse,nrmse,mbe,r_squared,n"],
        "monthly": ["model,month,aggregate_error_pct"],
    }
    for model_id, run in runs.items():
        rows["metrics"].append(f"{model_id},{scores(evaluation.metrics(run))}")
        for season, rep in evaluation.seasonal_breakdown(run).items():
            rows["seasonal"].append(f"{model_id},{season},{scores(rep)}")
        table = evaluation.monthly_errors(run)
        for (year, month), pct in sorted(table.items()):
            rows["monthly"].append(f"{model_id},{year}-{month:02d},{pct:.6g}")
        rows["monthly"].append(f"{model_id},mean,{evaluation.monthly_aggregate_error(table):.6g}")
    out: dict[str, Path] = {}
    for name, lines in rows.items():
        out[name] = outdir / f"{name}.csv"
        with atomic_write(out[name]) as fh:
            fh.write("\n".join(lines) + "\n")
    return out
