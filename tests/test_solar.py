import math

import numpy as np
import pytest

from solarcast.errors import ConfigError, DataError
from solarcast.solar import SiteSpec, daily_extraterrestrial, declination, h0_table

from oracles import h0_minute_integration, inline_daily_extraterrestrial


def test_declination_near_zero_at_march_equinox():
    assert abs(declination(81)) < 0.02


def test_declination_extremes_at_solstices():
    assert declination(172) == pytest.approx(0.409, abs=1e-3)
    assert declination(355) == pytest.approx(-0.409, abs=1e-3)


def test_declination_range_and_errors():
    days = np.arange(1, 366)
    values = declination(days)
    assert np.all(np.abs(values) <= 0.4093)
    for bad in (0, 366, -3):
        with pytest.raises(DataError):
            declination(bad)


def test_polar_night_is_exactly_zero():
    site = SiteSpec.from_degrees(80.0)
    assert daily_extraterrestrial(site, 355) == 0.0


def test_equator_equinox_magnitude():
    # (24/pi) * 1367 * E0(81) ~ 10.5 kWh/m^2; the integration oracle is binding
    site = SiteSpec.from_degrees(0.0)
    h0 = daily_extraterrestrial(site, 81)
    assert 10300.0 < h0 < 10600.0
    reference = h0_minute_integration(0.0, 81)
    assert abs(h0 - reference) / reference < 0.005


def test_midlatitude_summer_solstice_magnitude(site):
    h0 = daily_extraterrestrial(site, 172)
    assert 11300.0 < h0 < 11700.0
    reference = h0_minute_integration(site.latitude, 172)
    assert abs(h0 - reference) / reference < 0.005


def test_integration_oracle_agreement_sampled():
    rng = np.random.default_rng(42)
    for _ in range(25):
        lat_deg = rng.uniform(-60.0, 60.0)
        day = int(rng.integers(1, 366))
        site = SiteSpec.from_degrees(lat_deg)
        h0 = daily_extraterrestrial(site, day)
        reference = h0_minute_integration(site.latitude, day)
        if h0 > 100.0:
            assert abs(h0 - reference) / reference < 0.005


@pytest.mark.parametrize("latitude_deg", [-80.0, -41.917, 0.0, 23.4, 41.917, 66.0, 89.0])
def test_h0_bitwise_equals_inline_formula(latitude_deg):
    site = SiteSpec.from_degrees(latitude_deg)
    days = np.arange(1, 366)
    expected = inline_daily_extraterrestrial(site.latitude, days)
    assert h0_table(site).tobytes() == expected.tobytes()
    scalars = [daily_extraterrestrial(site, int(d)) for d in days]
    assert np.array(scalars).tobytes() == expected.tobytes()


def test_h0_table_solstice_placement(site):
    table = h0_table(site)
    assert table.shape == (365,)
    assert 160 <= int(np.argmax(table)) + 1 <= 185
    day_min = int(np.argmin(table)) + 1
    assert day_min >= 340 or day_min <= 20
    assert np.all(table > 0)


def test_equatorial_annual_variation_is_small():
    table = h0_table(SiteSpec.from_degrees(0.0))
    assert table.max() / table.min() < 1.2


def test_hemisphere_antisymmetry():
    # Eccentricity (E0 differs ~6.8% between solstices) breaks raw symmetry;
    # after dividing it out the mirrored totals agree to well under 1%.
    from solarcast.solar import eccentricity_correction

    north = daily_extraterrestrial(SiteSpec.from_degrees(45.0), 172)
    south = daily_extraterrestrial(SiteSpec.from_degrees(-45.0), 355)
    assert abs(north - south) / north < 0.07
    north_norm = north / eccentricity_correction(172)
    south_norm = south / eccentricity_correction(355)
    assert abs(north_norm - south_norm) / north_norm < 0.01


def test_monotone_in_latitude_at_june_solstice():
    # Daily June-solstice totals rise with latitude up to ~43 deg (day length
    # wins), then dip slightly; monotonicity holds on [0, 40].
    values = [daily_extraterrestrial(SiteSpec.from_degrees(lat), 172) for lat in range(0, 41, 5)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_site_spec_validation():
    with pytest.raises(ConfigError):
        SiteSpec(latitude=math.pi / 2)
    with pytest.raises(ConfigError):
        SiteSpec(latitude=0.0, solar_constant=1500.0)
