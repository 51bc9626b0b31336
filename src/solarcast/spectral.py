"""Periodogram, dominant-period detection, and Fisher's g-test.

Used to verify that deseasonalization removed the annual cycle: the
365-day peak of the raw/clearness spectrum should be gone from the
corrected series, and Fisher's g (share of total power in the largest
ordinate) should drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError

MIN_SAMPLES = 16
MIN_ORDINATES = 8


@dataclass(frozen=True)
class Periodogram:
    """One-sided periodogram: ordinate k is |DFT(x - mean)_k|^2 / n.

    ``ordinates[k-1]`` is at frequency ``k / n`` cycles per day for
    k = 1..floor(n/2); the corresponding period is ``n / k`` days. With
    even n the last ordinate is the Nyquist bin, which a variance
    (Parseval) accounting counts once while all other ordinates count twice:
    variance = (2 * sum(ordinates) - (I_nyquist if n even)) / n.
    """

    ordinates: np.ndarray
    n: int


def periodogram(values) -> Periodogram:
    """Periodogram of a series; NaN slots are mean-imputed first.

    Values so large that an ordinate overflows raise NumericalError.
    """
    x = np.asarray(values, dtype=np.float64).copy()
    n = x.size
    if n < MIN_SAMPLES:
        raise DataError(f"periodogram needs at least {MIN_SAMPLES} samples, got {n}")
    finite = np.isfinite(x)
    if not np.any(finite):
        raise DataError("periodogram input has no finite values")
    k = n // 2
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.all(finite):
            x[~finite] = x[finite].mean()
        x = x - x.mean()
        spectrum = np.fft.rfft(x)
        ordinates = (spectrum.real**2 + spectrum.imag**2)[1 : k + 1] / n
    if not np.all(np.isfinite(ordinates)):
        raise NumericalError("periodogram ordinate overflows float64")
    return Periodogram(ordinates=ordinates, n=n)


def dominant_period(p: Periodogram) -> float:
    """Period (days) of the largest ordinate; ties pick the longer period."""
    if not np.any(p.ordinates > 0.0):
        raise NumericalError("all-zero periodogram has no peak")
    k = int(np.argmax(p.ordinates)) + 1  # argmax returns the first (lowest k) max
    return p.n / k


@dataclass(frozen=True)
class FisherTestResult:
    """Fisher's g statistic, its exact null p-value, and the peak period."""

    g: float
    p_value: float
    peak_period: float


def fisher_g_test(p: Periodogram) -> FisherTestResult:
    """Test the largest ordinate against a white-noise null.

    g = max(I) / sum(I). The null distribution is the exact alternating
    series P(G > g) = sum_{j=1..floor(1/g)} (-1)^(j-1) C(q,j) (1-jg)^(q-1)
    over q ordinates, evaluated in arbitrary precision because the terms
    cancel catastrophically in float64.
    """
    q = p.ordinates.size
    if q < MIN_ORDINATES:
        raise DataError(f"Fisher test needs at least {MIN_ORDINATES} ordinates, got {q}")
    total = float(np.sum(p.ordinates))
    if total <= 0.0:
        raise NumericalError("zero total power")
    g = float(np.max(p.ordinates)) / total
    return FisherTestResult(g=g, p_value=_fisher_p_value(g, q), peak_period=dominant_period(p))


def _fisher_p_value(g: float, q: int) -> float:
    import mpmath  # only the Fisher test needs it, so only the test loads it

    j_max = min(int(1.0 / g), q)
    # Precision must absorb the largest binomial-weighted term.
    j_peak = min(j_max, q // 2)
    max_ln_term = math.lgamma(q + 1) - math.lgamma(j_peak + 1) - math.lgamma(q - j_peak + 1)
    dps = int(max_ln_term / math.log(10.0)) + 25
    with mpmath.workdps(max(dps, 25)):
        gg = mpmath.mpf(g)
        acc = mpmath.mpf(0)
        c = 1  # C(q, j) as an exact integer, updated term by term
        for j in range(1, j_max + 1):
            c = c * (q - j + 1) // j
            term = c * (1 - j * gg) ** (q - 1)
            acc += term if j % 2 == 1 else -term
        p_value = float(acc)
    return min(max(p_value, 0.0), 1.0)
