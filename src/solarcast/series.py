"""Calendar-indexed daily series: container, CSV io, cleaning, synthesis.

A :class:`DailySeries` holds one value per calendar day, contiguous from
a start date, with NaN marking missing days. All seasonal machinery runs
on a 365-slot day-of-year axis; Feb 29 shares slot 59 with Feb 28.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import io
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .solar import DAYS_PER_YEAR, SiteSpec, h0_table

GHI_COLUMN = "ghi_wh_m2"
# write_csv and model_io.save_model_file format this many rows at a time, so
# the per-row objects of a long array never all live at once (they would
# raise peak memory).
CSV_CHUNK_ROWS = 512


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


@dataclass(frozen=True, order=True)
class DayIndex:
    """A calendar day as (year, day-of-year), ordered like calendar time."""

    year: int
    day_of_year: int

    def __post_init__(self):
        limit = 366 if _is_leap(self.year) else 365
        if not 1 <= self.day_of_year <= limit:
            raise DataError(
                f"day_of_year {self.day_of_year} out of range [1, {limit}] for year {self.year}"
            )

    @classmethod
    def from_date(cls, d: dt.date) -> "DayIndex":
        return cls(d.year, d.timetuple().tm_yday)

    def to_date(self) -> dt.date:
        return dt.date(self.year, 1, 1) + dt.timedelta(days=self.day_of_year - 1)

    @property
    def seasonal_day(self) -> int:
        """365-slot day-of-year; Feb 29 maps onto slot 59 (Feb 28)."""
        if _is_leap(self.year) and self.day_of_year >= 60:
            return self.day_of_year - 1
        return self.day_of_year


@dataclass(frozen=True)
class DailySeries:
    """Contiguous daily values from ``start``; NaN marks a missing day."""

    start: dt.date
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise DataError("series needs at least one day of values")
        present = np.isfinite(v)
        if np.any(v[present] < 0):
            raise DataError("series values must be >= 0")
        if np.any(np.isinf(v)):
            raise DataError("series values must be finite or NaN")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> dt.date:
        return self.start + dt.timedelta(days=len(self) - 1)

    def date_at(self, i: int) -> dt.date:
        return self.start + dt.timedelta(days=int(i))

    def index_of(self, d: dt.date) -> int:
        i = (d - self.start).days
        if not 0 <= i < len(self):
            raise DataError(f"date {d.isoformat()} outside series span")
        return i

    def indices_of(self, days) -> list[int]:
        return [self.index_of(d) for d in days]

    def dates(self) -> list[dt.date]:
        return [self.start + dt.timedelta(days=i) for i in range(len(self))]

    def seasonal_days(self) -> np.ndarray:
        """365-slot day-of-year per slot (Feb 29 shares slot 59)."""
        return _seasonal_days(self.start, len(self))

    def year_numbers(self) -> np.ndarray:
        """Calendar year per slot."""
        out = np.empty(len(self), dtype=np.int64)
        d = self.start
        i = 0
        while i < len(self):
            year_end = dt.date(d.year, 12, 31)
            j = min((year_end - self.start).days + 1, len(self))
            out[i:j] = d.year
            i = j
            d = dt.date(d.year + 1, 1, 1)
        return out

    def slice_dates(self, first: dt.date, last: dt.date) -> "DailySeries":
        """Sub-series covering [first, last], both inclusive."""
        i, j = self.index_of(first), self.index_of(last)
        if j < i:
            raise DataError("empty date slice")
        return DailySeries(first, self.values[i : j + 1], self.label)

    def slice_years(self, first_year: int, last_year: int) -> "DailySeries":
        a = max(dt.date(first_year, 1, 1), self.start)
        b = min(dt.date(last_year, 12, 31), self.end)
        if b < a:
            raise DataError(f"years {first_year}..{last_year} outside series span")
        return self.slice_dates(a, b)

    def with_values(self, values: np.ndarray, label: str | None = None) -> "DailySeries":
        return DailySeries(self.start, values, self.label if label is None else label)


def _seasonal_days(start: dt.date, n: int) -> np.ndarray:
    out = np.empty(n, dtype=np.int64)
    d = start
    i = 0
    while i < n:
        doy = d.timetuple().tm_yday
        year_len = 366 if _is_leap(d.year) else 365
        j = min(i + year_len - doy + 1, n)
        chunk = np.arange(doy, doy + (j - i))
        if _is_leap(d.year):
            chunk = np.where(chunk >= 60, chunk - 1, chunk)
        out[i:j] = chunk
        i = j
        d = dt.date(d.year + 1, 1, 1)
    return out


def seasonal_days_of(days) -> np.ndarray:
    """The 365-slot day-of-year of each date in ``days`` (Feb 29 shares slot
    59), as one gather from the slot table of the span the dates cover."""
    ordinals = np.fromiter((d.toordinal() for d in days), np.int64, len(days))
    if not ordinals.size:
        return ordinals
    first = int(ordinals.min())
    return _seasonal_days(dt.date.fromordinal(first), int(ordinals.max()) - first + 1)[ordinals - first]


# ---------------------------------------------------------------------------
# CSV io
# ---------------------------------------------------------------------------


def load_csv(source, value_column: str | None = None, label: str = "") -> DailySeries:
    """Read a two-column ``date,<value>`` CSV into a DailySeries.

    Dates must be ISO-8601 and unique; gaps become NaN slots; an empty
    value field marks a missing day. When ``value_column`` is given the
    header's second column must match it.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                return load_csv(fh, value_column=value_column, label=label or str(source))
        except (OSError, UnicodeDecodeError) as e:
            raise DataError(f"cannot read {source}: {e}") from e
    if isinstance(source, bytes):
        return load_csv(io.StringIO(source.decode("utf-8")), value_column, label)

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty CSV: no header row") from None
    if len(header) != 2 or header[0].strip().lower() != "date":
        raise DataError(f"expected header 'date,<value>', got {header!r}")
    if value_column is not None and header[1].strip() != value_column:
        raise DataError(f"expected value column {value_column!r}, got {header[1]!r}")

    rows: dict[int, float] = {}  # date ordinal -> value
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"line {lineno}: expected 2 fields, got {len(row)}")
        try:
            day = dt.date.fromisoformat(row[0].strip()).toordinal()
        except ValueError:
            raise DataError(f"line {lineno}: malformed date {row[0]!r}") from None
        raw = row[1].strip()
        if raw == "":
            value = float("nan")
        else:
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"line {lineno}: malformed value {row[1]!r}") from None
            if not math.isfinite(value):
                raise DataError(f"line {lineno}: non-finite value {raw!r}")
            if value < 0:
                raise DataError(f"line {lineno}: negative irradiation {raw!r}")
        if day in rows:
            raise DataError(f"line {lineno}: duplicate date {dt.date.fromordinal(day).isoformat()}")
        rows[day] = value

    if not rows:
        raise DataError("empty CSV: no data rows")
    first = min(rows)
    values = np.full(max(rows) - first + 1, np.nan)
    values[np.fromiter(rows, np.int64, len(rows)) - first] = np.fromiter(rows.values(), np.float64, len(rows))
    return DailySeries(dt.date.fromordinal(first), values, label)


@contextlib.contextmanager
def atomic_write(path):
    """Open ``path`` for UTF-8 text writing through a temporary name in the
    same directory, moved into place by ``os.replace`` only when the block
    completes: a crash leaves the previous file intact and no partial one.
    An I/O failure is raised as DataError naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as e:
        tmp.unlink(missing_ok=True)
        if isinstance(e, OSError):
            raise DataError(f"cannot write {path}: {e.strerror or e}") from e
        raise


def write_csv(
    series: DailySeries, dest, value_column: str = GHI_COLUMN, decimals: int | None = 3
) -> DailySeries:
    """Write ``date,<value>`` rows; missing days become empty fields.

    ``decimals`` rounds values for output (the irradiation schema uses 3
    decimal places); ``None`` writes full-precision reprs. Returns the
    series :func:`load_csv` reads back from the written text: at
    ``decimals`` the parse of each formatted value, and with ``None``
    ``series`` itself, since ``float(repr(v)) == v``.
    """
    if isinstance(dest, (str, Path)):
        with atomic_write(dest) as fh:
            return write_csv(series, fh, value_column=value_column, decimals=decimals)
    csv.writer(dest, lineterminator="\n").writerow(["date", value_column])  # quotes odd names
    fmt = repr if decimals is None else f"{{:.{decimals}f}}".format
    parsed = None if decimals is None else np.empty(len(series))
    first = np.datetime64(series.start, "D")
    for lo in range(0, len(series), CSV_CHUNK_ROWS):
        chunk = series.values[lo : lo + CSV_CHUNK_ROWS]
        days = np.arange(first + lo, first + lo + chunk.size).astype(str).tolist()  # ISO dates
        texts = ["" if v != v else fmt(v) for v in chunk.tolist()]
        dest.write("".join(f"{day},{text}\n" for day, text in zip(days, texts)))
        if parsed is not None:
            parsed[lo : lo + chunk.size] = [float(text) if text else math.nan for text in texts]
    return series if parsed is None else series.with_values(parsed)


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CleaningReport:
    """Replacements applied by :func:`clean`: (day, old value or None, new value)."""

    replaced: tuple
    rule: str

    def __len__(self) -> int:
        return len(self.replaced)


CLEANING_RULE = (
    "missing, negative, or above the clear-sky ceiling; replaced by the mean of "
    "valid values on the same day-of-year in other years"
)


def clean(series: DailySeries, site: SiteSpec) -> tuple[DailySeries, CleaningReport]:
    """Repair atypical days: missing, negative, or above that day's H0.

    Each flagged slot is replaced by the mean of valid values at the same
    365-slot day-of-year in the other years. Requires at least two years
    of data; a day-of-year with no valid value anywhere is unrecoverable.
    """
    n = len(series)
    years = series.year_numbers()
    if n < 2 * DAYS_PER_YEAR or np.unique(years).size < 2:
        raise DataError("cleaning needs a series spanning at least 2 whole years")

    h0 = h0_table(site)
    sd = series.seasonal_days()
    v = series.values
    present = np.isfinite(v)
    valid = present & (v >= 0) & (v <= h0[sd - 1])
    flagged = ~valid
    if not np.any(flagged):
        return series, CleaningReport(replaced=(), rule=CLEANING_RULE)

    # Per day-of-year sums/counts of valid values, total and per year, so a
    # slot's replacement can exclude its own year (Feb 28/29 share a slot).
    year_ids = {y: i for i, y in enumerate(np.unique(years))}
    yidx = np.vectorize(year_ids.get)(years)
    n_years = len(year_ids)
    key = (sd - 1) * n_years + yidx

    sums = np.bincount(sd[valid] - 1, weights=v[valid], minlength=DAYS_PER_YEAR)
    counts = np.bincount(sd[valid] - 1, minlength=DAYS_PER_YEAR)
    sums_dy = np.bincount(key[valid], weights=v[valid], minlength=DAYS_PER_YEAR * n_years)
    counts_dy = np.bincount(key[valid], minlength=DAYS_PER_YEAR * n_years)

    out = v.copy()
    replaced = []
    for i in np.flatnonzero(flagged):
        d = sd[i] - 1
        cnt = counts[d] - counts_dy[key[i]]
        if cnt == 0:
            raise DataError(
                f"unrecoverable gap: no valid value anywhere for day-of-year {d + 1}"
            )
        new = (sums[d] - sums_dy[key[i]]) / cnt
        old = float(v[i]) if present[i] else None
        replaced.append((DayIndex.from_date(series.date_at(i)), old, float(new)))
        out[i] = new

    report = CleaningReport(replaced=tuple(replaced), rule=CLEANING_RULE)
    return series.with_values(out), report


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic daily-irradiation generator settings.

    The generated value is ``H0(d) * clamp(k_mean * modulation(d) * (1 + e_t),
    0.03, 1.0)`` where ``modulation`` is a fixed 365-day sinusoid of the
    given amplitude and ``e_t`` is a seeded AR(1) process. Latitudes are
    limited to |lat| <= 66 degrees so every day has positive H0.
    """

    n_years: int
    latitude_deg: float
    clear_sky_fraction_mean: float = 0.6
    cloud_ar1: float = 0.5
    cloud_std: float = 0.15
    seasonal_amplitude: float = 0.3
    start_year: int = 1971
    seed: int = 0

    def __post_init__(self):
        integers = (self.n_years, self.start_year, self.seed)
        if not all(isinstance(v, numbers.Integral) for v in integers):
            raise ConfigError("n_years, start_year and seed must be integers")
        for name in ("latitude_deg", "clear_sky_fraction_mean", "cloud_ar1", "cloud_std",
                     "seasonal_amplitude"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
        if self.n_years < 2:
            raise ConfigError("n_years must be >= 2")
        if not 1 <= self.start_year <= 10_000 - self.n_years or self.seed < 0:
            raise ConfigError("years must lie within 1..9999 and seed must be >= 0")
        if not abs(self.latitude_deg) <= 66.0:
            raise ConfigError("latitude_deg must satisfy |lat| <= 66")
        if not 0.0 < self.clear_sky_fraction_mean <= 1.0:
            raise ConfigError("clear_sky_fraction_mean must be in (0, 1]")
        if not 0.0 <= self.cloud_ar1 < 1.0:
            raise ConfigError("cloud_ar1 must be in [0, 1)")
        if self.cloud_std < 0.0:
            raise ConfigError("cloud_std must be >= 0")
        if not 0.0 <= self.seasonal_amplitude <= 0.3:
            raise ConfigError("seasonal_amplitude must be in [0, 0.3]")


K_FLOOR = 0.03
K_CEIL = 1.0

# Fixed band-limited climate shape: slow annual sweep plus sub-monthly
# structure (station climatologies are not single cosines); harmonics are
# (cycles/year, phase day, weight) with each band normalized to unit peak.
_MOD_LOW_BAND = ((1, 172.0, 1.0), (2, 30.0, 0.5), (3, 110.0, 0.35))
_MOD_HIGH_BAND = ((17, 40.0, 1.0), (23, 130.0, 1.0), (29, 260.0, 1.0))
_MOD_HIGH_SHARE = 0.5


def _band(days: np.ndarray, harmonics) -> np.ndarray:
    out = np.zeros_like(days, dtype=np.float64)
    for cycles, phase, weight in harmonics:
        out += weight * np.cos(2.0 * np.pi * cycles * (days - phase) / DAYS_PER_YEAR)
    return out / np.max(np.abs(out))


def _modulation_shape() -> np.ndarray:
    days = np.arange(1, DAYS_PER_YEAR + 1, dtype=np.float64)
    mix = (1.0 - _MOD_HIGH_SHARE) * _band(days, _MOD_LOW_BAND)
    mix += _MOD_HIGH_SHARE * _band(days, _MOD_HIGH_BAND)
    return mix / np.max(np.abs(mix))


_MOD_SHAPE = _modulation_shape()  # unit-peak deviation per day-of-year


def seasonal_modulation(seasonal_day, amplitude: float):
    """Fixed smooth 365-day periodic clearness modulation.

    ``amplitude`` is the peak deviation from the unit level (<= 0.3).
    """
    sd = np.asarray(seasonal_day, dtype=np.int64)
    return 1.0 + amplitude * _MOD_SHAPE[sd - 1]


def ar1_noise(shocks: np.ndarray, ar1: float, std: float) -> np.ndarray:
    """AR(1) process e_t = std * z_t + ar1 * e_{t-1} from e_{-1} = 0."""
    noise = np.empty(shocks.size)
    prev = 0.0
    for t, z in enumerate(shocks.tolist()):
        prev = std * z + ar1 * prev
        noise[t] = prev
    return noise


def generate_synthetic(config: SynthConfig) -> DailySeries:
    """Deterministic synthetic daily irradiation series (Wh/m^2)."""
    start = dt.date(config.start_year, 1, 1)
    end = dt.date(config.start_year + config.n_years - 1, 12, 31)
    n = (end - start).days + 1
    sd = _seasonal_days(start, n)

    site = SiteSpec.from_degrees(config.latitude_deg)
    h0 = h0_table(site)[sd - 1]
    modulation = seasonal_modulation(sd, config.seasonal_amplitude)

    shocks = np.random.default_rng(config.seed).standard_normal(n)
    noise = ar1_noise(shocks, config.cloud_ar1, config.cloud_std)

    k = np.clip(
        config.clear_sky_fraction_mean * modulation * (1.0 + noise), K_FLOOR, K_CEIL
    )
    return DailySeries(start, h0 * k, label=f"synthetic(seed={config.seed})")
