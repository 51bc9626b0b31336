"""Daily solar irradiation forecasting.

Seasonal preprocessing (clearness index + moving-average-ratio factors),
a Levenberg-Marquardt-trained perceptron, six classical baselines, and a
verification harness, wired together by a file-mediated CLI pipeline.
"""

from .baselines import (
    ArmaModel,
    ArModel,
    BayesClassifierModel,
    KnnModel,
    MarkovChainModel,
    NaiveModel,
)
from .errors import ConfigError, DataError, NumericalError, SolarcastError
from .evaluation import (
    CiSummary,
    ForecastRun,
    MetricsReport,
    compare_models,
    confidence_interval,
    metrics,
    monthly_aggregate_error,
    seasonal_breakdown,
)
from .kernels import backend_name
from .mlp import (
    Scaler,
    TrainHistory,
    fit_scaler,
    init_mlp,
    jacobian,
    make_windows,
    train_lm,
)
from .preprocess import (
    Preprocessor,
    clearness_index,
    fit,
    moving_average_ratio,
    seasonal_factors,
)
from .series import (
    DailySeries,
    SynthConfig,
    clean,
    generate_synthetic,
    load_csv,
    write_csv,
)
from .solar import SiteSpec, daily_extraterrestrial, declination, h0_table
from .spectral import FisherTestResult, Periodogram, dominant_period, fisher_g_test, periodogram

__version__ = "0.1.0"
