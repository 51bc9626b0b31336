"""Stationarization of daily irradiation and its exact inverse.

The chain: divide by daily extraterrestrial irradiation (clearness
index), divide by a centered 365-day moving average (ratio series),
average the ratios per day-of-year into 365 seasonal factors normalized
to unit mean, then divide the clearness series by its day's factor. The
corrected series keeps only the stochastic part; multiplying back by the
factor and H0 restores physical units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, checked
from .series import DailySeries, calendar
from .solar import DAYS_PER_YEAR, SiteSpec, h0_table

WINDOW_HALF_WIDTH = 182  # a centered 2 * 182 + 1 = 365-day window


def clearness_index(series: DailySeries, h0: np.ndarray) -> DailySeries:
    """Divide each day's value by its day-of-year extraterrestrial total."""
    sd = series.seasonal_days()
    day_h0 = h0[sd - 1]
    present = np.isfinite(series.values)
    bad = present & (day_h0 <= 0.0)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise DataError(
            f"H0 is zero on {series.date_at(i).isoformat()}; clearness index undefined"
        )
    return series.with_values(series.values / day_h0)


def moving_average_ratio(s: DailySeries) -> DailySeries:
    """Ratio of each value to its centered 365-day mean.

    The window runs over the flat time axis, across year boundaries; the
    first and last WINDOW_HALF_WIDTH slots have no full window and are NaN.
    """
    v = s.values
    n = v.size
    m = WINDOW_HALF_WIDTH
    if n < 2 * m + 1:
        raise DataError(f"series length {n} shorter than one full window ({2 * m + 1})")
    if not np.all(np.isfinite(v)):
        raise DataError("moving-average ratio requires a gap-free series")

    window_means = np.convolve(v, np.ones(2 * m + 1), mode="valid") / (2 * m + 1)
    if np.any(window_means <= 0.0):
        raise NumericalError("non-positive centered window mean")
    out = np.full(n, np.nan)
    out[m : n - m] = v[m : n - m] / window_means
    return s.with_values(out)


def seasonal_factors(ratios: DailySeries) -> tuple[np.ndarray, np.ndarray]:
    """Average defined ratio values per day-of-year and normalize to mean 1.

    Returns the 365 factors and the per-day count of contributing years:
    the two columns of factors.csv.
    """
    sd = ratios.seasonal_days()
    defined = np.isfinite(ratios.values)
    counts = np.bincount(sd[defined] - 1, minlength=DAYS_PER_YEAR)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0]) + 1
        raise DataError(f"no defined ratio for day-of-year {missing}")
    sums = np.bincount(sd[defined] - 1, weights=ratios.values[defined], minlength=DAYS_PER_YEAR)
    raw = sums / counts
    grand_mean = float(raw.mean())
    if grand_mean <= 0.0:
        raise NumericalError("non-positive grand mean of seasonal coefficients")
    final = checked("seasonal factors", raw / grand_mean, (DAYS_PER_YEAR,), low=0, strict=True)
    return final, counts


@dataclass(frozen=True)
class Preprocessor:
    """Fitted stationarization state: the site's H0 table, the 365 seasonal
    factors and the per-day count of years that contributed to each."""

    h0: np.ndarray
    factors: np.ndarray
    n_years_used: np.ndarray

    def apply(self, series: DailySeries) -> DailySeries:
        """Corrected series: value / (H0(d) * factor(d))."""
        sd = series.seasonal_days()
        scale = self.h0[sd - 1] * self.factors[sd - 1]
        if np.any(np.isfinite(series.values) & (scale <= 0.0)):
            raise DataError("zero H0 inside the series span")
        return series.with_values(series.values / scale)

    def invert(self, values, days) -> np.ndarray:
        """Back to Wh/m^2: corrected value * factor(d) * H0(d), one date per value."""
        values = np.asarray(values, dtype=np.float64)
        if len(days) != values.size:
            raise DataError("invert needs one date per corrected value")
        sd = calendar(days)[2]
        return values * self.factors[sd - 1] * self.h0[sd - 1]


def fit(series: DailySeries, site: SiteSpec) -> Preprocessor:
    """Fit the full chain on a cleaned multi-year series.

    Factors come only from the series passed here; fit on the training
    span and reuse the frozen state on later data.
    """
    if not np.all(np.isfinite(series.values)):
        raise DataError("fit requires a cleaned, gap-free series")
    h0 = h0_table(site)
    s = clearness_index(series, h0)
    factors, n_years_used = seasonal_factors(moving_average_ratio(s))
    return Preprocessor(h0=h0, factors=factors, n_years_used=n_years_used)
