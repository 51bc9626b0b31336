import datetime as dt

import numpy as np
import pytest

from solarcast.errors import DataError, NumericalError
from solarcast.preprocess import (
    SeasonalFactors,
    clearness_index,
    fit,
    moving_average_ratio,
    seasonal_factors,
)
from solarcast.series import DailySeries, SynthConfig, generate_synthetic
from solarcast.solar import SiteSpec, h0_table
from solarcast.spectral import dominant_period, periodogram


def flat_series(values, start=dt.date(1973, 1, 1)):
    return DailySeries(start, np.asarray(values, dtype=float))


def unit_factors():
    ones = np.ones(365)
    return SeasonalFactors(final=ones.copy(), n_years_used=np.full(365, 3))


# ---------------------------------------------------------------------------
# clearness index
# ---------------------------------------------------------------------------


def test_clearness_direct_ratio(site):
    h0 = np.full(365, 10000.0)
    s = flat_series([5000.0, 0.0])
    out = clearness_index(s, h0)
    assert out.values[0] == 0.5
    assert out.values[1] == 0.0


def test_clearness_noise_free_synthetic_is_constant(site, synth_noise_free):
    out = clearness_index(synth_noise_free, h0_table(site))
    np.testing.assert_allclose(out.values, 0.6, rtol=1e-14)


def test_clearness_zero_h0_error():
    h0 = np.full(365, 10000.0)
    h0[0] = 0.0
    with pytest.raises(DataError, match="1973-01-01"):
        clearness_index(flat_series([1.0, 2.0]), h0)


# ---------------------------------------------------------------------------
# moving-average ratio
# ---------------------------------------------------------------------------


def test_ratio_of_constant_series_is_one():
    s = flat_series(np.full(365 * 2, 0.7))
    out = moving_average_ratio(s)
    defined = np.isfinite(out.values)
    assert defined.sum() == 365 * 2 - 364
    np.testing.assert_allclose(out.values[defined], 1.0, rtol=1e-12)
    assert np.all(~np.isfinite(out.values[:182])) and np.all(~np.isfinite(out.values[-182:]))


def test_ratio_too_short_series_errors():
    with pytest.raises(DataError, match="shorter"):
        moving_average_ratio(flat_series(np.full(364, 1.0)))


def test_ratio_single_spike_matches_hand_arithmetic():
    c = 0.4
    values = np.full(365, c)
    values[182] = 2 * c
    out = moving_average_ratio(flat_series(values))
    expected = 2.0 / (1.0 + 1.0 / 365.0)  # 2c / ((364c + 2c) / 365)
    assert out.values[182] == pytest.approx(expected, rel=1e-12)


def test_ratio_rejects_gaps_and_zero_windows():
    values = np.full(800, 1.0)
    values[10] = np.nan
    with pytest.raises(DataError, match="gap-free"):
        moving_average_ratio(flat_series(values))
    with pytest.raises(NumericalError):
        moving_average_ratio(flat_series(np.zeros(800)))


def test_ratio_variance_reduction_on_seasonal_sinusoid():
    n = 365 * 4
    t = np.arange(n)
    values = 2.0 + 0.6 * np.sin(2 * np.pi * t / 365.0)
    out = moving_average_ratio(flat_series(values))
    defined = out.values[np.isfinite(out.values)]
    assert np.var(defined) < np.var(values)


# ---------------------------------------------------------------------------
# seasonal factors
# ---------------------------------------------------------------------------


def test_factors_identity_when_all_ratios_one():
    s = flat_series(np.full(365 * 3, 1.0))
    ratios = moving_average_ratio(s)
    f = seasonal_factors(ratios)
    np.testing.assert_allclose(f.final, 1.0, rtol=1e-12)
    assert abs(f.final.mean() - 1.0) < 1e-12


def test_factors_scale_invariance():
    values = np.full(365 * 3, np.nan)
    values[:] = 2.0
    ratios = flat_series(values)  # constant ratio 2 everywhere
    f = seasonal_factors(ratios)
    np.testing.assert_allclose(f.final, 1.0, rtol=1e-12)


def test_factor_counts_match_direct_window_tally(site, synth_19y):
    """Count defined windows per day-of-year with an explicit scan."""
    f = fit(synth_19y, site).factors
    m = 182
    n = len(synth_19y)
    sd = synth_19y.seasonal_days()
    expected = np.zeros(365, dtype=int)
    for t in range(n):
        if t - m >= 0 and t + m <= n - 1:
            expected[sd[t] - 1] += 1
    np.testing.assert_array_equal(f.n_years_used, expected)
    # 19 data years leave 18 full-window years for nearly every day; the day
    # exactly m days after the start keeps all 19, and slot 59 collects the
    # extra Feb 29 samples (leap days share it by design).
    assert expected.min() == 18
    boundary_doy = sd[m]
    assert expected[boundary_doy - 1] == 19
    leap_years_inside = 5  # 1972, 1976, 1980, 1984, 1988
    assert expected[58] == 18 + leap_years_inside


def test_factors_error_names_missing_day():
    values = np.full(500, np.nan)
    values[200:220] = 1.0
    with pytest.raises(DataError, match="day-of-year"):
        seasonal_factors(flat_series(values))


# ---------------------------------------------------------------------------
# fit / apply / invert
# ---------------------------------------------------------------------------


def test_fit_happy_path_and_short_series(site, synth_19y):
    p = fit(synth_19y, site)
    assert p.factors.final.shape == (365,)
    assert np.all(np.isfinite(p.factors.final))
    one_year = synth_19y.slice_years(1971, 1971)
    with pytest.raises(DataError):
        fit(one_year, site)


def test_fit_has_no_lookahead(site):
    full = generate_synthetic(SynthConfig(n_years=19, latitude_deg=41.917, seed=5))
    short = generate_synthetic(SynthConfig(n_years=17, latitude_deg=41.917, seed=5))
    a = fit(full.slice_years(1971, 1987), site)
    b = fit(short, site)
    np.testing.assert_array_equal(a.factors.final, b.factors.final)
    np.testing.assert_array_equal(a.factors.n_years_used, b.factors.n_years_used)


def test_apply_invert_roundtrip(site, synth_19y):
    p = fit(synth_19y, site)
    corrected = p.apply(synth_19y)
    back = corrected.with_values(p.invert(corrected.values, corrected.dates()))
    rel = np.abs(back.values - synth_19y.values) / synth_19y.values
    assert rel.max() < 1e-9


def test_invert_direct_product_and_zero(site):
    f = unit_factors()
    f.final[:] = 1.2
    from solarcast.preprocess import Preprocessor

    h0 = np.full(365, 10000.0)
    p = Preprocessor(h0=h0, factors=f)
    out = p.invert(np.array([0.5, 0.0]), [dt.date(1973, 1, 1), dt.date(1973, 1, 2)])
    assert out[0] == pytest.approx(6000.0)
    assert out[1] == 0.0
    with pytest.raises(DataError):
        p.invert(np.array([1.0, 2.0]), [dt.date(1973, 1, 1)])


def test_scale_equivariance(site, synth_19y):
    scaled = synth_19y.with_values(synth_19y.values * 3.0)
    a = fit(synth_19y, site)
    b = fit(scaled, site)
    np.testing.assert_allclose(a.factors.final, b.factors.final, rtol=1e-12)
    ca = a.apply(synth_19y)
    cb = b.apply(scaled)
    np.testing.assert_allclose(cb.values, 3.0 * ca.values, rtol=1e-12)


def test_spectral_flattening(site, synth_19y):
    p = fit(synth_19y, site)
    clearness = clearness_index(synth_19y, p.h0)
    corrected = p.apply(synth_19y)
    pg_clear = periodogram(clearness.values)
    pg_corr = periodogram(corrected.values)
    k = round(pg_clear.n / 365)
    assert pg_corr.ordinates[k - 1] < 0.10 * pg_clear.ordinates[k - 1]
    assert dominant_period(pg_corr) != pytest.approx(365.0, abs=2.0)


def test_fit_requires_cleaned_series(site):
    values = np.full(900, 1000.0)
    values[5] = np.nan
    with pytest.raises(DataError, match="cleaned"):
        fit(flat_series(values), site)


def test_apply_fuses_clearness_and_factor_division(site):
    from solarcast.preprocess import Preprocessor

    f = unit_factors()
    f.final[:2] = 1.25
    p = Preprocessor(h0=np.full(365, 10000.0), factors=f)
    out = p.apply(flat_series([5000.0, 0.0]))
    assert out.values[0] == pytest.approx(0.4)  # 5000 / (10000 * 1.25)
    assert out.values[1] == 0.0
