"""Forecast verification: error metrics, breakdowns, confidence intervals.

RMSE, nRMSE (normalized by the root mean square of measured values),
MBE, and R^2 as the squared Pearson correlation, plus meteorological-
season and calendar-month aggregates and Student-t confidence intervals
over repeated runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .series import calendar

SEASON_ORDER = ("winter", "spring", "summer", "autumn")  # month % 12 // 3 indexes this
METRIC_NAMES = ("rmse", "nrmse", "mbe", "r_squared")


@dataclass(frozen=True)
class ForecastRun:
    """Aligned measured/predicted pairs over distinct ``datetime64[D]`` days."""

    days: np.ndarray
    measured: np.ndarray
    predicted: np.ndarray
    model_id: str = ""
    seed: int | None = None

    def __post_init__(self):
        days = np.asarray(self.days, dtype="datetime64[D]")
        measured = np.asarray(self.measured, dtype=np.float64)
        predicted = np.asarray(self.predicted, dtype=np.float64)
        if not (days.size == measured.size == predicted.size):
            raise DataError("days, measured, and predicted must have equal length")
        if measured.size == 0:
            raise DataError("empty forecast run")
        # the counts form, as a plain np.unique imports numpy.ma (numpy 2.4);
        # two NaT days count as a duplicate either way
        if (np.unique(days, return_counts=True)[1] > 1).any():
            raise DataError("duplicate days in forecast run")
        if not np.all(np.isfinite(measured)) or np.any(measured < 0):
            raise DataError("measured values must be finite and >= 0")
        if not np.all(np.isfinite(predicted)):
            raise DataError("predicted values must be finite")
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "measured", measured)
        object.__setattr__(self, "predicted", predicted)

    def __len__(self) -> int:
        return self.days.size


@dataclass(frozen=True)
class MetricsReport:
    rmse: float
    nrmse: float
    mbe: float
    r_squared: float
    n: int


def metrics(run: ForecastRun) -> MetricsReport:
    """RMSE, nRMSE, MBE over (predicted - measured), R^2 = corr(C, M)^2.

    R^2 is NaN when either side is constant (correlation undefined).
    """
    c, m = run.predicted, run.measured
    err = c - m
    rmse = float(np.sqrt(np.mean(err**2)))
    mbe = float(np.mean(err))
    denom = float(np.sqrt(np.mean(m**2)))
    if denom == 0.0:
        raise DataError("nRMSE undefined: all measured values are zero")
    nrmse = rmse / denom
    if len(run) >= 2 and np.std(c) > 0 and np.std(m) > 0:
        r_squared = float(np.corrcoef(c, m)[0, 1] ** 2)
    else:
        r_squared = float("nan")
    return MetricsReport(rmse=rmse, nrmse=nrmse, mbe=mbe, r_squared=r_squared, n=len(run))


def seasonal_breakdown(run: ForecastRun) -> dict[str, MetricsReport]:
    """Metrics per meteorological season (DJF/MAM/JJA/SON); empty seasons absent."""
    seasons = calendar(run.days)[1] % 12 // 3
    masks = ((season, seasons == i) for i, season in enumerate(SEASON_ORDER))
    return {season: metrics(ForecastRun(run.days[m], run.measured[m], run.predicted[m]))
            for season, m in masks if m.any()}


def monthly_errors(run: ForecastRun) -> dict[tuple[int, int], float]:
    """|sum(C) - sum(M)| / sum(M) per calendar month, as a percentage.

    Months whose measured total is zero are skipped with a warning.
    """
    years, months, _ = calendar(run.days)
    keys, month_of_day = np.unique(years * 12 + (months - 1), return_inverse=True)
    out: dict[tuple[int, int], float] = {}
    for i, key in enumerate(keys):
        mask = month_of_day == i
        total_m = float(np.sum(run.measured[mask]))
        year, month = int(key // 12), int(key % 12) + 1
        if total_m == 0.0:
            warnings.warn(f"month {year}-{month:02d} has zero measured total; skipped")
            continue
        total_c = float(np.sum(run.predicted[mask]))
        out[(year, month)] = 100.0 * abs(total_c - total_m) / total_m
    return out


def monthly_aggregate_error(table: dict[tuple[int, int], float]) -> float:
    """Mean over months of the absolute aggregate error, in percent, from
    the table of :func:`monthly_errors`."""
    if not table:
        raise DataError("no month with nonzero measured total")
    return float(np.mean(list(table.values())))


@dataclass(frozen=True)
class CiSummary:
    """Per-metric mean and 95% Student-t half-width over repeated runs."""

    means: dict
    half_widths: dict
    n_runs: int


def _t_critical(df: int) -> float:
    """Two-sided 95% Student-t critical value t_{0.975, df}."""
    from scipy.special import stdtrit  # only the CI needs scipy, so only a CI loads it

    return float(stdtrit(df, 0.975))


def confidence_interval(reports: list[MetricsReport]) -> CiSummary:
    """mean +- t_{0.975, n-1} * s / sqrt(n) for each metric over the runs."""
    n = len(reports)
    if n < 2:
        raise DataError("confidence interval needs at least 2 runs")
    t_crit = _t_critical(n - 1)
    means: dict[str, float] = {}
    half_widths: dict[str, float] = {}
    for name in METRIC_NAMES:
        values = np.array([getattr(r, name) for r in reports], dtype=np.float64)
        means[name] = float(values.mean())
        half_widths[name] = t_crit * float(values.std(ddof=1)) / np.sqrt(n)
    return CiSummary(means=means, half_widths=half_widths, n_runs=n)


def compare_models(runs: dict[str, ForecastRun]) -> list[tuple[str, float]]:
    """One (model_id, nRMSE) row per model; all runs must cover the same days."""
    if not runs:
        raise DataError("no runs to compare")
    first, *rest = (np.sort(r.days) for r in runs.values())  # a run's days are distinct
    if any(not np.array_equal(first, days) for days in rest):
        raise DataError("model runs cover different day sets")
    return [(model_id, metrics(run).nrmse) for model_id, run in runs.items()]
