"""End-to-end protocol: clean, preprocess, train, forecast, invert, evaluate.

Every stage boundary is a plain file, so any suffix of the pipeline can
be rerun from saved artifacts and reproduce identical downstream
outputs: each stage writes its artifact and reloads it before the next
stage consumes it. Dimensionless intermediates are written at full
precision; physical-unit CSVs use the 3-decimal irradiation schema.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, model_io, mlp as mlp_mod, preprocess
from .errors import ConfigError, DataError, SolarcastError
from .series import (
    CleaningReport, DailySeries, SynthConfig, clean, generate_synthetic, load_csv, write_csv,
)
from .solar import SiteSpec

GHI_PRED_COLUMN = "ghi_pred_wh_m2"
CORRECTED_COLUMN = "s_corr"
CORRECTED_PRED_COLUMN = "s_corr_pred"

MODEL_NAMES = tuple(model_io.FORECASTERS)


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


def load_config(path, overrides: dict | None = None) -> PipelineConfig:
    """Read the declarative JSON config, applying flag overrides on top."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if "SOLARCAST_OUTDIR" in os.environ:  # env beats the config file, not flags
        raw["outdir"] = os.environ["SOLARCAST_OUTDIR"]
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    synth = None
    if raw.get("synth") is not None:
        synth_args = dict(raw["synth"])
        synth_args.setdefault("latitude_deg", raw.get("latitude_deg", 41.917))
        try:
            synth = SynthConfig(**synth_args)
        except TypeError as e:
            raise ConfigError(f"bad synth settings: {e}") from e
    try:
        return PipelineConfig(
            latitude_deg=float(raw["latitude_deg"]),
            train_years=tuple(raw["train_years"]),
            test_years=tuple(raw["test_years"]),
            model=raw.get("model", "mlp"),
            model_params=dict(raw.get("model_params", {})),
            use_preprocessing=bool(raw.get("preprocess", True)),
            seed=int(raw.get("seed", 0)),
            outdir=Path(raw.get("outdir", "out")),
            input_csv=raw.get("input_csv"),
            synth=synth,
        )
    except KeyError as e:
        raise ConfigError(f"config missing required key {e}") from e


def _int_params(params: dict, **fields: str) -> dict:
    """Keyword arguments ``field=int(params[key])`` for the keys set in
    ``params``; absent or None ones keep the constructor's default."""
    return {name: int(params[key]) for name, key in fields.items() if params.get(key) is not None}


def build_model(name: str, params: dict, seed: int):
    """Instantiate an unfitted baseline forecaster from the registry."""
    if name not in model_io.FORECASTERS:
        raise ConfigError(f"unknown model {name!r}")
    cls = model_io.FORECASTERS[name]
    return cls(**_int_params(params, **{key: key for key in cls.params}))


def train_mlp_bundle(train_series: DailySeries, params: dict, seed: int) -> tuple:
    """Windows -> scaler -> LM training; returns (bundle, history)."""
    layout = mlp_mod.MlpLayout(**_int_params(params, n_inputs="p", n_hidden="n_hidden"))
    cfg = mlp_mod.LmConfig(**_int_params(params, max_epochs="max_epochs", max_fail="max_fail"))
    windows = mlp_mod.make_windows(train_series, p=layout.n_inputs)
    scaler = mlp_mod.fit_scaler(windows.inputs, windows.targets)
    scaled = mlp_mod.scale_windows(scaler, windows)
    net = mlp_mod.init_mlp(layout, seed=int(params.get("seed", seed)))
    trained, history = mlp_mod.train_lm(net, scaled, cfg)
    return model_io.MlpBundle(mlp=trained, scaler=scaler), history


def fit_forecaster(name: str, params: dict, seed: int, train_series: DailySeries):
    if name == "mlp":
        bundle, _ = train_mlp_bundle(train_series, params, seed)
        return bundle
    return build_model(name, params, seed).fit(train_series)


def forecast_one_step(model, working: DailySeries, test_days) -> np.ndarray:
    """Predict each test day from measured values strictly before it."""
    values = working.values
    out = np.empty(len(test_days))
    for j, day in enumerate(test_days):
        i = working.index_of(day)
        out[j] = model.predict_next(values[:i], day)
    return out


def _stage(name: str):
    class _StageContext:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc is not None and isinstance(exc, SolarcastError):
                raise type(exc)(f"[stage {name}] {exc}") from exc
            return False

    return _StageContext()


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Run the five protocol steps; returns the artifact path map.

    Artifacts: cleaned.csv, cleaning_report.csv, factors.csv,
    corrected.csv, model.txt, predictions.csv (plus
    predictions_corrected.csv when preprocessing is on), metrics.csv,
    seasonal.csv, monthly.csv.
    """
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    site = SiteSpec.from_degrees(cfg.latitude_deg)
    artifacts: dict[str, Path] = {}

    with _stage("input"):
        if cfg.input_csv is not None:
            series = load_csv(cfg.input_csv)
        else:
            series = generate_synthetic(cfg.synth)
            path = outdir / "synthetic.csv"
            write_csv(series, path)
            series = load_csv(path)
            artifacts["synthetic"] = path

    with _stage("clean"):
        cleaned, report = clean(series, site)
        path = outdir / "cleaned.csv"
        write_csv(cleaned, path)
        artifacts["cleaned"] = path
        cleaned = load_csv(path)
        report_path = outdir / "cleaning_report.csv"
        write_cleaning_report(report, report_path)
        artifacts["cleaning_report"] = report_path

    preprocessor = None
    working = cleaned
    if cfg.use_preprocessing:
        with _stage("preprocess"):
            train_slice = cleaned.slice_years(*cfg.train_years)
            preprocessor = preprocess.fit(train_slice, site)
            factors_path = outdir / "factors.csv"
            write_factors_csv(preprocessor.factors, factors_path)
            artifacts["factors"] = factors_path
            corrected_path = outdir / "corrected.csv"
            write_csv(
                preprocessor.apply(cleaned), corrected_path,
                value_column=CORRECTED_COLUMN, decimals=None,
            )
            artifacts["corrected"] = corrected_path
            working = load_csv(corrected_path)

    with _stage("train"):
        train_series = working.slice_years(*cfg.train_years)
        model = fit_forecaster(cfg.model, cfg.model_params, cfg.seed, train_series)
        model_path = outdir / "model.txt"
        model_io.save_forecaster(model_path, model)
        artifacts["model"] = model_path
        model = model_io.load_forecaster(model_path)

    with _stage("predict"):
        test_slice = working.slice_years(*cfg.test_years)
        test_days = test_slice.dates()
        preds = forecast_one_step(model, working, test_days)
        if cfg.use_preprocessing:
            corr_path = outdir / "predictions_corrected.csv"
            write_csv(
                DailySeries(test_days[0], preds), corr_path,
                value_column=CORRECTED_PRED_COLUMN, decimals=None,
            )
            artifacts["predictions_corrected"] = corr_path
            preds = preprocessor.invert(load_csv(corr_path).values, test_days)
        preds = np.maximum(preds, 0.0)
        pred_path = outdir / "predictions.csv"
        write_csv(DailySeries(test_days[0], preds), pred_path, value_column=GHI_PRED_COLUMN)
        artifacts["predictions"] = pred_path

    with _stage("evaluate"):
        predicted = load_csv(pred_path).values
        measured = cleaned.slice_years(*cfg.test_years).values
        run = evaluation.ForecastRun(
            days=tuple(test_days), measured=measured, predicted=predicted,
            model_id=cfg.model, seed=cfg.seed,
        )
        artifacts.update(write_evaluation_csvs({cfg.model: run}, outdir))

    return artifacts


# ---------------------------------------------------------------------------
# artifact writers/readers shared with the CLI
# ---------------------------------------------------------------------------


def write_factors_csv(factors: preprocess.SeasonalFactors, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("day,y_star,n_years\n")
        for day in range(factors.final.size):
            fh.write(f"{day + 1},{float(factors.final[day])!r},{int(factors.n_years_used[day])}\n")


def read_factors_csv(path) -> tuple[np.ndarray, np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
    return final, n_years


def preprocessor_from_factors(site: SiteSpec, final: np.ndarray, n_years: np.ndarray) -> preprocess.Preprocessor:
    """Rebuild the invertible state from factors.csv (raw factors rescaled)."""
    from .solar import h0_table

    factors = preprocess.SeasonalFactors(
        raw=final.copy(), grand_mean=1.0, final=final, m=preprocess.DEFAULT_WINDOW_HALF_WIDTH,
        n_years_used=n_years,
    )
    return preprocess.Preprocessor(site=site, h0=h0_table(site), factors=factors)


def write_cleaning_report(report: CleaningReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,old_value,new_value\n")
        for day, old, new in report.replaced:
            old_text = "" if old is None else f"{old:.3f}"
            fh.write(f"{day.to_date().isoformat()},{old_text},{new:.3f}\n")


def write_evaluation_csvs(runs: dict[str, evaluation.ForecastRun], outdir: Path) -> dict:
    """metrics.csv, seasonal.csv, monthly.csv with 6 significant digits,
    rows grouped by run in the order of ``runs`` (model id -> run)."""

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
        rows["monthly"].append(f"{model_id},mean,{np.mean(list(table.values())):.6g}")
    out: dict[str, Path] = {}
    for name, lines in rows.items():
        out[name] = outdir / f"{name}.csv"
        out[name].write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    return out
