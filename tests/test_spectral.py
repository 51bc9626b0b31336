import math

import numpy as np
import pytest

from solarcast.errors import DataError, NumericalError
from solarcast.spectral import (
    Periodogram,
    _fisher_p_value,
    dominant_period,
    fisher_g_test,
    periodogram,
)

from oracles import dft_direct_ordinates, fisher_null_g_samples, mpmath_binomial_fisher_p_value


def test_pure_annual_tone_peaks_at_k10():
    n = 3650
    t = np.arange(n)
    x = np.sin(2 * np.pi * t / 365.0)
    p = periodogram(x)
    assert int(np.argmax(p.ordinates)) + 1 == 10
    assert dominant_period(p) == pytest.approx(365.0)


def test_constant_series_all_zero_ordinates():
    p = periodogram(np.full(64, 3.3))
    assert np.all(p.ordinates == 0.0)
    with pytest.raises(NumericalError, match="peak"):
        dominant_period(p)


def test_fft_matches_direct_dft_definition():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(512)
    p = periodogram(x)
    direct = dft_direct_ordinates(x)
    np.testing.assert_allclose(p.ordinates, direct, rtol=1e-6, atol=1e-9)


def test_seeded_white_noise_concentration():
    rng = np.random.default_rng(2024)
    x = rng.standard_normal(4096)
    p = periodogram(x)
    assert p.ordinates.max() / p.ordinates.sum() < 0.02


def test_parseval_accounting():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1001)  # odd: every ordinate counts twice
    p = periodogram(x)
    variance = np.mean((x - x.mean()) ** 2)
    assert 2.0 * p.ordinates.sum() / p.n == pytest.approx(variance, rel=1e-6)
    y = rng.standard_normal(1000)  # even: Nyquist bin counts once
    q = periodogram(y)
    total = 2.0 * q.ordinates[:-1].sum() + q.ordinates[-1]
    assert total / q.n == pytest.approx(np.mean((y - y.mean()) ** 2), rel=1e-6)


def test_dominant_period_tie_breaks_to_longer_period():
    p = Periodogram(
        frequencies=np.arange(1, 9) / 16.0,
        ordinates=np.array([0.0, 5.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0]),
        n=16,
    )
    assert dominant_period(p) == 16 / 2  # k=2 wins over k=4


def test_periodogram_preconditions_and_imputation():
    with pytest.raises(DataError):
        periodogram(np.ones(15))
    x = np.array([np.nan] * 8 + [np.nan] * 8)
    with pytest.raises(DataError):
        periodogram(x)
    y = np.sin(np.arange(64) / 3.0)
    y[5] = np.nan  # mean-imputed, not an error
    periodogram(y)


def test_fisher_single_tone():
    t = np.arange(3650)
    x = np.sin(2 * np.pi * t / 365.0)
    result = fisher_g_test(periodogram(x))
    assert result.g > 0.99
    assert result.p_value < 1e-12
    assert result.peak_period == pytest.approx(365.0)


def test_fisher_uniform_power_gives_p_one():
    p = Periodogram(frequencies=np.arange(1, 11) / 20.0, ordinates=np.full(10, 2.5), n=20)
    result = fisher_g_test(p)
    assert result.g == pytest.approx(0.1)
    assert result.p_value == pytest.approx(1.0, abs=1e-9)


def test_fisher_white_noise_against_monte_carlo():
    rng = np.random.default_rng(99)
    x = rng.standard_normal(1024)  # q = 512 ordinates
    result = fisher_g_test(periodogram(x))
    assert result.p_value > 0.05
    samples = fisher_null_g_samples(n=1024, replicates=10_000, seed=1)
    mc_p = float(np.mean(samples >= result.g))
    mc_se = np.sqrt(mc_p * (1 - mc_p) / samples.size)
    assert abs(result.p_value - mc_p) < 4 * mc_se + 0.005


def _fisher_cases():
    """(g, q) pairs with q in 8..3500 and at most 200 terms: the pipeline's
    corrected training series, the 19-year corrected series, the corners, and
    200 draws with q and 1/g log-uniform (g >= 1/q holds for any real g)."""
    rng = np.random.default_rng(1929)
    cases = [(0.005737, 3104), (0.009563441795682, 3470), (1.0 / 200.5, 3500),
             (0.1, 10), (1.0 / 8, 8), (0.999, 3500)]
    for _ in range(200):
        q = int(math.exp(rng.uniform(math.log(8), math.log(3500.99))))
        inv_g = math.exp(rng.uniform(0.0, math.log(min(q, 200.99))))
        cases.append((1.0 / inv_g, q))
    return cases


def test_fisher_p_value_equals_mpmath_binomial_oracle():
    cases = _fisher_cases()
    assert len(cases) >= 200
    for g, q in cases:
        assert int(1.0 / g) <= 200
        assert _fisher_p_value(g, q) == mpmath_binomial_fisher_p_value(g, q), (g, q)


def test_overflowing_ordinate_is_a_numerical_error():
    x = np.ones(400)
    x[17] = 1e200
    with pytest.raises(NumericalError, match="overflow"):
        periodogram(x)  # a leaked RuntimeWarning fails the test (pyproject filterwarnings)


def test_fisher_g_scale_invariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(256)
    g1 = fisher_g_test(periodogram(x)).g
    g2 = fisher_g_test(periodogram(1000.0 * x)).g
    assert g1 == pytest.approx(g2, rel=1e-12)


def test_fisher_preconditions():
    with pytest.raises(DataError):
        fisher_g_test(Periodogram(np.arange(1, 5) / 8, np.ones(4), 8))
    with pytest.raises(NumericalError):
        fisher_g_test(Periodogram(np.arange(1, 9) / 16, np.zeros(8), 16))
