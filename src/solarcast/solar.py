"""Daily extraterrestrial irradiation on a horizontal plane.

The top-of-atmosphere daily total is the deterministic, cloud-free upper
envelope of measured global irradiation and serves as the denominator of
the clearness index. Formulas are the standard daily integration of
instantaneous extraterrestrial irradiance with a single-sinusoid solar
declination and a one-term eccentricity correction; the year is treated
as exactly 365 days (leap days share the seasonal slot of Feb 28).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

DAYS_PER_YEAR = 365
DEFAULT_SOLAR_CONSTANT = 1367.0  # W/m^2


@dataclass(frozen=True)
class SiteSpec:
    """Site latitude (radians) and the solar constant in W/m^2."""

    latitude: float
    solar_constant: float = DEFAULT_SOLAR_CONSTANT

    def __post_init__(self):
        if not abs(self.latitude) < math.pi / 2:
            raise ConfigError(f"latitude {math.degrees(self.latitude):.12g} deg not in (-90, 90)")
        if not 1300.0 <= self.solar_constant <= 1400.0:
            raise ConfigError(
                f"solar constant {self.solar_constant} W/m^2 not in [1300, 1400]"
            )

    @classmethod
    def from_degrees(cls, latitude_deg: float, solar_constant: float = DEFAULT_SOLAR_CONSTANT) -> "SiteSpec":
        return cls(math.radians(latitude_deg), solar_constant)


def _check_day(day_of_year) -> np.ndarray:
    d = np.asarray(day_of_year)
    if d.size == 0 or np.any(d < 1) or np.any(d > DAYS_PER_YEAR):
        raise DataError(f"day of year must lie in [1, {DAYS_PER_YEAR}]")
    return d


def declination(day_of_year):
    """Solar declination in radians, delta = 0.409 sin(2*pi*(d+284)/365)."""
    d = _check_day(day_of_year)
    out = 0.409 * np.sin(2.0 * math.pi * (d + 284) / DAYS_PER_YEAR)
    return float(out) if np.isscalar(day_of_year) else out


def eccentricity_correction(day_of_year):
    """Sun-earth distance correction E0 = 1 + 0.033 cos(2*pi*d/365)."""
    d = _check_day(day_of_year)
    out = 1.0 + 0.033 * np.cos(2.0 * math.pi * d / DAYS_PER_YEAR)
    return float(out) if np.isscalar(day_of_year) else out


def daily_extraterrestrial(site: SiteSpec, day_of_year):
    """Daily extraterrestrial irradiation in Wh/m^2 for a horizontal plane.

    H0 = (24/pi) * Gsc * E0 * (cos(phi) cos(delta) sin(ws) + ws sin(phi) sin(delta))
    with the sunset hour angle ws = arccos(clamp(-tan(phi) tan(delta), -1, 1)).
    Polar night (clamp at +1, ws = 0) yields exactly 0.
    """
    delta = declination(day_of_year)
    e0 = eccentricity_correction(day_of_year)
    phi = site.latitude
    ws = np.arccos(np.clip(-math.tan(phi) * np.tan(delta), -1.0, 1.0))
    h0 = (
        (24.0 / math.pi)
        * site.solar_constant
        * e0
        * (math.cos(phi) * np.cos(delta) * np.sin(ws) + ws * math.sin(phi) * np.sin(delta))
    )
    return float(h0) if np.isscalar(day_of_year) else h0


def h0_table(site: SiteSpec) -> np.ndarray:
    """Daily extraterrestrial irradiation for day-of-year 1..365, Wh/m^2.

    Index i holds day i + 1.
    """
    return daily_extraterrestrial(site, np.arange(1, DAYS_PER_YEAR + 1))
