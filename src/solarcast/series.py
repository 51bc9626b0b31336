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

from .errors import ConfigError, DataError, NumericalError
from .solar import DAYS_PER_YEAR, SiteSpec, h0_table

GHI_COLUMN = "ghi_wh_m2"
# write_csv and model_io.save_model_file format, and load_csv parses, this
# many rows at a time, so the per-row objects of a long array never all live
# at once (they would raise peak memory).
CSV_CHUNK_ROWS = 512


def calendar(days) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Year, month (1..12) and 365-slot day-of-year of each day, as int64
    arrays; Feb 29 shares slot 59 with Feb 28.

    ``days`` is anything numpy converts to ``datetime64[D]``.
    """
    days = np.asarray(days, dtype="datetime64[D]")
    years = days.astype("datetime64[Y]")
    year = years.view(np.int64) + 1970
    month = (days.astype("datetime64[M]") - years).view(np.int64) + 1
    day_of_year = (days - years).view(np.int64) + 1
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    return year, month, day_of_year - (leap & (day_of_year >= 60))


@dataclass(frozen=True)
class DailySeries:
    """Contiguous daily values from ``start``; NaN marks a missing day."""

    start: dt.date
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise DataError("series needs at least one day of values")
        if np.any(np.isinf(v)):
            raise DataError("series values must be finite or NaN")
        # a copy over immutable bytes, which no caller can make writable again:
        # pipeline.run_pipeline hands one cleaned and one working series to
        # every run on the same input
        object.__setattr__(self, "values", np.frombuffer(v.tobytes()))

    def __len__(self) -> int:
        return self.values.size

    @property
    def end(self) -> dt.date:
        return self.start + dt.timedelta(days=len(self) - 1)

    def date_at(self, i: int) -> dt.date:
        return self.start + dt.timedelta(days=int(i))

    def index_of(self, d: dt.date) -> int:
        return int(self.indices_of([d])[0])

    def indices_of(self, days) -> np.ndarray:
        """Each day's index; the first day outside the series is a DataError."""
        days = np.asarray(days, dtype="datetime64[D]")
        idx = (days - np.datetime64(self.start, "D")).astype(np.int64)
        outside = (idx < 0) | (idx >= len(self))
        if outside.any():
            raise DataError(f"date {days[np.argmax(outside)]} outside series span")
        return idx

    def dates(self) -> np.ndarray:
        """The ``datetime64[D]`` day of each slot."""
        return np.datetime64(self.start, "D") + np.arange(len(self))

    def seasonal_days(self) -> np.ndarray:
        """365-slot day-of-year per slot (Feb 29 shares slot 59)."""
        return calendar(self.dates())[2]

    def slice_dates(self, first: dt.date, last: dt.date) -> "DailySeries":
        """Sub-series covering [first, last], both inclusive."""
        i, j = self.index_of(first), self.index_of(last)
        if j < i:
            raise DataError("empty date slice")
        return DailySeries(first, self.values[i : j + 1])

    def slice_years(self, first_year: int, last_year: int) -> "DailySeries":
        a = max(dt.date(first_year, 1, 1), self.start)
        b = min(dt.date(last_year, 12, 31), self.end)
        if b < a:
            raise DataError(f"years {first_year}..{last_year} outside series span")
        return self.slice_dates(a, b)

    def with_values(self, values: np.ndarray) -> "DailySeries":
        return DailySeries(self.start, values)


# ---------------------------------------------------------------------------
# CSV io
# ---------------------------------------------------------------------------


def load_csv(source) -> DailySeries:
    """Read a two-column ``date,<value>`` CSV (a path or a text stream) into
    a DailySeries.

    Dates must be ISO-8601 and unique; gaps become NaN slots; an empty
    value field marks a missing day. A plain file of contiguous days is
    parsed a chunk of rows at a time (:func:`_contiguous_rows`); every other
    file goes through the row loop below, which gives each error.
    """
    text = read_text(source) if isinstance(source, (str, Path)) else source.read()
    series = _contiguous_rows(text)
    if series is not None:
        return series

    records = _numbered_records(text)
    try:
        _, header = next(records)
    except StopIteration:
        raise DataError("empty CSV: no header row") from None
    if len(header) != 2 or header[0].strip().lower() != "date":
        raise DataError(f"expected header 'date,<value>', got {header!r}")

    rows: dict[dt.date, float] = {}
    for lineno, row in records:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"line {lineno}: expected 2 fields, got {len(row)}")
        try:
            day = dt.date.fromisoformat(row[0].strip())
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
        if day in rows:
            raise DataError(f"line {lineno}: duplicate date {day.isoformat()}")
        rows[day] = value

    if not rows:
        raise DataError("empty CSV: no data rows")
    first = min(rows)
    values = np.full((max(rows) - first).days + 1, np.nan)
    values[[(day - first).days for day in rows]] = np.fromiter(rows.values(), np.float64, len(rows))
    return DailySeries(first, values)


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``, newlines as written; a file
    that cannot be read or decoded is a DataError naming it."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {path}: {e}") from e


def _numbered_records(text: str):
    """Each csv record of ``text`` numbered from 1; one the csv module
    refuses (a field over its size limit) is a DataError naming it."""
    lineno = 0
    try:
        for lineno, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
            yield lineno, row
    except csv.Error as e:
        raise DataError(f"line {lineno + 1}: {e}") from None


def _contiguous_rows(text: str) -> DailySeries | None:
    """The series of ``text`` when it is a plain ``date,<name>`` header then
    one ``date,value`` line per day from the first date on, each date
    written as :func:`_iso_days` writes it and each value empty or a finite
    float; otherwise None, and the row loop reads ``text``.

    A plain file has no quote and no carriage return, so its fields are the
    texts between commas and newlines. With a comma put before each newline
    and split on commas, each chunk of rows must give the expected
    newline-led dates as its odd fields: as many as the chunk has rows, so
    with the file's newlines, one per row, no value field holds one.
    """
    start = text.find("\n")  # the header's newline; each row follows one
    header = text[:start]
    if start < 0 or not header.startswith("date,") or "," in header[5:] or '"' in text or "\r" in text:
        return None
    stop = len(text) - text.endswith("\n")
    n = text.count("\n", start, stop)
    try:
        first = dt.date.fromisoformat(text[start + 1 : start + 11])
    except ValueError:
        return None
    if n - 1 > (dt.date.max - first).days:
        return None
    day0 = np.datetime64(first, "D")
    values = np.empty(n)
    empty = 0
    pos = start
    for lo in range(0, n, CSV_CHUNK_ROWS):
        size = min(CSV_CHUNK_ROWS, n - lo)
        last = lo + size == n
        days = _iso_days(day0 + lo, size + (not last), lead="\n")
        end = stop if last else text.find(days.pop() + ",", pos + 1)  # the next chunk's first row
        fields = text[pos:end].replace("\n", ",\n").split(",")
        if end < 0 or len(fields) != 2 * size + 1 or fields[1::2] != days:
            return None
        texts = fields[2::2]
        try:
            values[lo : lo + size] = [float(text) if text else math.nan for text in texts]
        except ValueError:
            return None
        empty += texts.count("")
        pos = end
    if np.count_nonzero(np.isnan(values)) != empty:
        return None  # a "nan" text
    try:
        return DailySeries(first, values)
    except DataError:  # an infinite value
        return None


_DAY_OF_MONTH_TEXTS = ("",) + tuple(f"-{d:02d}" for d in range(1, 32))


def _iso_days(first: np.datetime64, n: int, lead: str = "") -> list[str]:
    """ISO-8601 texts of the ``n`` days from ``first`` (``datetime64[D]``),
    each after ``lead``: numpy formats each month's ``YYYY-MM`` once, one
    join puts it before each ``-DD`` suffix, and one split on the comma (no
    date holds one) cuts the days apart."""
    months = np.arange(first.astype("datetime64[M]"), (first + (n - 1)).astype("datetime64[M]") + 1)
    month_days = ((months + 1).astype("datetime64[D]") - months.astype("datetime64[D]")).astype(np.int64)
    text = "".join([("," + lead + month).join(_DAY_OF_MONTH_TEXTS[: length + 1])
                    for month, length in zip(months.astype(str).tolist(), month_days.tolist())])
    skip = int((first - months[0]).astype(np.int64))
    return text.split(",")[1 + skip : 1 + skip + n]


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
        with contextlib.suppress(OSError):  # e.g. the parent is a file: report the write's own error
            tmp.unlink()
        if isinstance(e, OSError):
            raise DataError(f"cannot write {path}: {e.strerror or e}") from e
        raise


def output_dir(path) -> Path:
    """``path`` as a directory, made with its parents if missing, else a DataError naming it."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot make output directory {path}: {e.strerror or e}") from e
    return path


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
        texts = ["" if v != v else fmt(v) for v in chunk.tolist()]
        dest.write("\n".join(map(",".join, zip(_iso_days(first + lo, chunk.size), texts))) + "\n")
        if parsed is not None:
            parsed[lo : lo + chunk.size] = [float(text) if text else math.nan for text in texts]
    return series if parsed is None else series.with_values(parsed)


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------


def clean(series: DailySeries, site: SiteSpec) -> tuple[DailySeries, tuple]:
    """Repair atypical days: missing, negative, or above that day's H0.

    Each flagged slot is replaced by the mean of valid values at the same
    365-slot day-of-year in the other years. Requires at least two years
    of data; a day-of-year with no valid value anywhere is unrecoverable.
    Returns the repaired series and the replacements, a tuple of
    ``(date, old value or None, new value)``.
    """
    n = len(series)
    years, _, sd = calendar(series.dates())
    year_values, yidx = np.unique(years, return_inverse=True)
    n_years = year_values.size
    if n < 2 * DAYS_PER_YEAR or n_years < 2:
        raise DataError("cleaning needs a series spanning at least 2 whole years")

    h0 = h0_table(site)
    v = series.values
    present = np.isfinite(v)
    valid = present & (v >= 0) & (v <= h0[sd - 1])
    flagged = ~valid
    if not np.any(flagged):
        return series, ()

    # Per day-of-year sums/counts of valid values, total and per year, so a
    # slot's replacement can exclude its own year (Feb 28/29 share a slot).
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
            why = (f"H0 is zero on day-of-year {d + 1} at latitude {math.degrees(site.latitude):.12g} deg"
                   " (polar night), so only a reading of 0 is valid there, and no other year has one"
                   if h0[d] == 0 else f"no valid value anywhere for day-of-year {d + 1}")
            raise DataError(f"unrecoverable gap: {why}")
        new = (sums[d] - sums_dy[key[i]]) / cnt
        old = float(v[i]) if present[i] else None
        replaced.append((series.date_at(i), old, float(new)))
        out[i] = new

    return series.with_values(out), tuple(replaced)


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
        for name in ("n_years", "start_year", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("latitude_deg", "clear_sky_fraction_mean", "cloud_ar1", "cloud_std",
                     "seasonal_amplitude"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"{name} does not fit in a float") from None
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
        if not (math.isfinite(self.cloud_std) and self.cloud_std >= 0.0):
            raise ConfigError(f"cloud_std must be finite and >= 0, got {self.cloud_std!r}")
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
    n = (dt.date(config.start_year + config.n_years - 1, 12, 31) - start).days + 1
    sd = calendar(np.datetime64(start, "D") + np.arange(n))[2]

    site = SiteSpec.from_degrees(config.latitude_deg)
    h0 = h0_table(site)[sd - 1]
    modulation = seasonal_modulation(sd, config.seasonal_amplitude)

    shocks = np.random.default_rng(config.seed).standard_normal(n)
    noise = ar1_noise(shocks, config.cloud_ar1, config.cloud_std)
    if not np.all(np.isfinite(noise)):
        raise NumericalError(f"cloud noise overflows at cloud_std={config.cloud_std!r}")

    k = np.clip(
        config.clear_sky_fraction_mean * modulation * (1.0 + noise), K_FLOOR, K_CEIL
    )
    return DailySeries(start, h0 * k)
