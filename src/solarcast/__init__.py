"""Daily solar irradiation forecasting.

Seasonal preprocessing (clearness index + moving-average-ratio factors),
a Levenberg-Marquardt-trained perceptron, six classical baselines, and a
verification harness, wired together by a file-mediated CLI pipeline.

Each public name is imported from its submodule on first use (PEP 562),
so ``import solarcast`` loads no submodule and a CLI process loads only
the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "baselines": "ArmaModel ArModel BayesClassifierModel KnnModel MarkovChainModel NaiveModel",
    "errors": "ConfigError DataError NumericalError SolarcastError",
    "evaluation": "CiSummary ForecastRun MetricsReport compare_models confidence_interval metrics "
                  "monthly_aggregate_error seasonal_breakdown",
    "kernels": "backend_name",
    "mlp": "Scaler TrainHistory fit_scaler init_mlp jacobian make_windows train_lm",
    "preprocess": "Preprocessor clearness_index fit moving_average_ratio seasonal_factors",
    "series": "DailySeries SynthConfig clean generate_synthetic load_csv write_csv",
    "solar": "SiteSpec daily_extraterrestrial declination h0_table",
    "spectral": "FisherTestResult Periodogram dominant_period fisher_g_test periodogram",
}.items() for name in names.split()}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
