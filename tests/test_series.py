import datetime as dt
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarcast import evaluation, pipeline, series as series_mod
from solarcast.errors import ConfigError, DataError
from solarcast.model_io import save_model_file
from solarcast.series import (
    DailySeries,
    SynthConfig,
    ar1_noise,
    calendar,
    clean,
    generate_synthetic,
    load_csv,
    write_csv,
)
from solarcast.solar import SiteSpec, h0_table
from solarcast.spectral import dominant_period, periodogram

from oracles import csv_writer_write_csv, lfilter_synthetic_values, row_loop_load_csv, seasonal_day_of


def csv_of(rows, header="date,ghi_wh_m2"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# calendar / seasonal slots
# ---------------------------------------------------------------------------


def test_leap_day_shares_slot_59():
    assert calendar([dt.date(1972, 2, 28)])[2][0] == 59
    assert calendar([dt.date(1972, 2, 29)])[2][0] == 59
    assert calendar([dt.date(1972, 3, 1)])[2][0] == 60
    assert calendar([dt.date(1972, 12, 31)])[2][0] == 365
    assert calendar([dt.date(1971, 12, 31)])[2][0] == 365


def check_calendar_span(first_year: int, last_year: int):
    """Slots, years and months of every day from ``first_year`` through
    ``last_year`` equal those of each date on its own."""
    first = dt.date(first_year, 1, 1)
    days = [first + dt.timedelta(days=i) for i in range((dt.date(last_year, 12, 31) - first).days + 1)]
    expected = [seasonal_day_of(d) for d in days]
    assert calendar(days)[2].tolist() == expected
    assert calendar(days[::-37])[2].tolist() == expected[::-37]  # unordered, spread out
    assert DailySeries(first, np.zeros(len(days))).seasonal_days().tolist() == expected
    years, months, _ = calendar(days)
    assert years.tolist() == [d.year for d in days]
    assert months.tolist() == [d.month for d in days]


def test_seasonal_slots_match_seasonal_day_of_1900_to_2100():
    check_calendar_span(1900, 2100)
    assert calendar([])[2].shape == (0,)


@pytest.mark.parametrize("first_year, last_year", [(1, 400), (9600, 9999)])
def test_seasonal_slots_match_seasonal_day_of_at_range_ends(first_year, last_year):
    """Each span is one 400-year leap cycle ending at a bound of the date range."""
    check_calendar_span(first_year, last_year)


def test_series_seasonal_days_across_years():
    s = DailySeries(dt.date(1971, 12, 30), np.arange(5, dtype=float))
    assert list(s.seasonal_days()) == [364, 365, 1, 2, 3]
    assert calendar(s.dates())[0].tolist() == [1971, 1971, 1972, 1972, 1972]


# ---------------------------------------------------------------------------
# CSV io
# ---------------------------------------------------------------------------


def test_load_csv_two_rows():
    s = load_csv(csv_of(["1971-01-01,1520", "1971-01-02,1710"]))
    assert len(s) == 2
    assert list(s.values) == [1520.0, 1710.0]
    assert s.start == dt.date(1971, 1, 1)


def test_load_csv_gap_insertion():
    s = load_csv(csv_of(["1971-01-01,100", "1971-01-03,300"]))
    assert len(s) == 3
    assert np.isnan(s.values[1])


def test_load_csv_rejects_negative_value():
    with pytest.raises(DataError, match="line 2.*negative"):
        load_csv(csv_of(["1971-01-01,-5"]))


def test_load_csv_row_level_errors_carry_line_numbers():
    with pytest.raises(DataError, match="line 3"):
        load_csv(csv_of(["1971-01-01,100", "not-a-date,5"]))
    with pytest.raises(DataError, match="line 3.*malformed value"):
        load_csv(csv_of(["1971-01-01,100", "1971-01-02,abc"]))


def test_load_csv_field_over_the_csv_limit_is_a_data_error():
    """A field past the csv module's 131,072-character limit, in a file with
    a gap (so the row loop reads it) or in the header, names its line."""
    long = "1" * 200_000
    with pytest.raises(DataError, match=r"^line 3: field larger than field limit \(131072\)$"):
        load_csv(csv_of(["1971-01-01,100", f"1971-01-03,{long}"]))
    with pytest.raises(DataError, match=r"^line 1: field larger than field limit"):
        load_csv(csv_of(["1971-01-01,100", "1971-01-03,5"], header=f"date,{long}"))


def test_load_csv_rejects_duplicates_and_empty():
    with pytest.raises(DataError, match="duplicate"):
        load_csv(csv_of(["1971-01-01,100", "1971-01-01,200"]))
    with pytest.raises(DataError, match="empty"):
        load_csv(io.StringIO(""))
    with pytest.raises(DataError, match="no data rows"):
        load_csv(csv_of([]))


def test_load_csv_unsorted_rows_and_crlf_and_missing_field():
    text = "date,ghi_wh_m2\r\n1971-01-03,300\r\n1971-01-01,100\r\n1971-01-02,\r\n"
    s = load_csv(io.StringIO(text))
    assert len(s) == 3
    assert s.values[0] == 100.0 and np.isnan(s.values[1]) and s.values[2] == 300.0


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.one_of(st.none(), st.integers(0, 20000).map(lambda v: v / 8.0)),
        min_size=1,
        max_size=40,
    ),
    st.dates(min_value=dt.date(1950, 1, 1), max_value=dt.date(2020, 1, 1)),
)
def test_write_then_load_is_identity_on_3dp_values(values, start):
    arr = np.array([np.nan if v is None else v for v in values])
    series = DailySeries(start, arr)
    buf = io.StringIO()
    write_csv(series, buf)
    again = load_csv(io.StringIO(buf.getvalue()))
    assert again.start == series.start
    np.testing.assert_array_equal(np.isnan(again.values), np.isnan(series.values))
    mask = ~np.isnan(arr)
    np.testing.assert_allclose(again.values[mask], series.values[mask], rtol=0, atol=0)


@pytest.mark.parametrize("decimals", [3, None])
@pytest.mark.parametrize("column", ["ghi_wh_m2", "s,corr", 'say "x"'])
def test_write_csv_bytes_equal_the_csv_writer_loop(decimals, column, synth_19y):
    values = synth_19y.values / 1000.0
    values[[0, 17, 18, 4000, values.size - 1]] = np.nan
    values[5] = 0.0
    whole_chunks = DailySeries(dt.date(2000, 1, 1), np.arange(2.0 * series_mod.CSV_CHUNK_ROWS))
    short = DailySeries(dt.date(1999, 12, 30), [1.0, np.nan])
    for series in (synth_19y.with_values(values), whole_chunks, short):
        expected, got = io.StringIO(), io.StringIO()
        csv_writer_write_csv(series, expected, column, decimals)
        write_csv(series, got, value_column=column, decimals=decimals)
        assert got.getvalue() == expected.getvalue()


def _set_field(lines, i, col, text):
    fields = lines[i].split(",")
    fields[col] = text
    return lines[:i] + [",".join(fields)] + lines[i + 1 :]


def _relabel(lines, first: str):
    """The rows dated as the contiguous days from ``first``, numpy's ISO texts
    (which run past 9999-12-31 to ``10000-01-01``)."""
    day = np.datetime64(first, "D")
    return lines[:1] + [f"{day + i},{line.split(',')[1]}" for i, line in enumerate(lines[1:])]


# Each case maps the lines of a written file to the lines of the file read,
# or to its whole text.
CSV_MUTATIONS = {
    "bad-date": lambda lines: _set_field(lines, 5, 0, "1971-02-30"),
    "three-fields": lambda lines: lines[:5] + [lines[5] + ",1"] + lines[6:],
    "one-field": lambda lines: lines[:5] + [lines[5].split(",")[0]] + lines[6:],
    "nan": lambda lines: _set_field(lines, 5, 1, "nan"),
    "inf": lambda lines: _set_field(lines, 5, 1, " inf"),
    "minus-one": lambda lines: _set_field(lines, 5, 1, "-1"),
    "minus-zero": lambda lines: _set_field(lines, 5, 1, "-0.0"),
    "duplicate-date": lambda lines: _set_field(lines, 6, 0, lines[5].split(",")[0]),
    "blank-lines": lambda lines: lines[:3] + ["", "   "] + lines[3:] + [""],
    "comma-only-row": lambda lines: lines[:3] + [","] + lines[3:],
    "crlf": lambda lines: [line + "\r" for line in lines],
    "quoted-fields": lambda lines: lines[:5] + ['"{}","{}"'.format(*lines[5].split(","))] + lines[6:],
    "gap": lambda lines: lines[:5] + lines[9:],
    "first-and-last-gone": lambda lines: lines[:1] + lines[2:-1],
    "header-case-and-space": lambda lines: [" DATE , ghi_wh_m2 "] + lines[1:],
    "header-only": lambda lines: lines[:1],
    "empty": lambda lines: [],
    "unsorted": lambda lines: lines[:1] + lines[:0:-1],
    "space-around-value": lambda lines: _set_field(lines, 7, 1, " 12.5 "),
    "byte-order-mark": lambda lines: ["\ufeff" + lines[0]] + lines[1:],
    "no-final-newline": lambda lines: "\n".join(lines),
    "quoted-column-name": lambda lines: ['date,"s,corr"'] + lines[1:],
    "three-field-header": lambda lines: [lines[0] + ",extra"] + lines[1:],
    "open-quote-in-header": lambda lines: ['date,"ghi'] + lines[1:],
    "carriage-return-in-row": lambda lines: _set_field(lines, 5, 1, "\r" + lines[5].split(",")[1]),
    "across-1900-02-28": lambda lines: _relabel(lines, "1900-02-20"),
    "across-2000-02-29": lambda lines: _relabel(lines, "2000-02-20"),
    "across-a-31st": lambda lines: _relabel(lines, "1999-12-20"),
    "1900-02-29": lambda lines: _set_field(_relabel(lines, "1900-02-20"), 10, 0, "1900-02-29"),
    "past-9999-12-31": lambda lines: _relabel(lines, "9999-12-20"),
    "date-padded": lambda lines: _set_field(lines, 5, 0, lines[5].split(",")[0] + " "),
}


@pytest.mark.parametrize("name", CSV_MUTATIONS)
def test_load_csv_matches_the_row_loop_on_mutated_files(name, tmp_path):
    """Each mutation of a written file is refused with the row loop's exact
    message, or read to bitwise the row loop's values, start and length."""
    values = np.linspace(0.0, 9000.0, 40)
    values[[2, 12, 13]] = np.nan
    path = tmp_path / "s.csv"
    write_csv(DailySeries(dt.date(1972, 2, 20), values), path)
    mutated = CSV_MUTATIONS[name](path.read_text().splitlines())
    text = mutated if isinstance(mutated, str) else "".join(line + "\n" for line in mutated)
    path.write_text(text, newline="")
    try:
        expected = row_loop_load_csv(path)
    except DataError as e:
        with pytest.raises(DataError) as got:
            load_csv(path)
        assert str(got.value) == str(e)
        return
    got = load_csv(path)
    assert (got.start, len(got)) == (expected.start, len(expected))
    assert got.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("decimals", [3, None])
@pytest.mark.parametrize("offset", [-1, 0, 1, series_mod.CSV_CHUNK_ROWS])
def test_written_files_are_read_without_the_row_loop(offset, decimals, tmp_path, monkeypatch):
    """A file write_csv wrote, with NaN runs at its ends and across a chunk
    boundary, is read by the contiguous-rows path to bitwise what write_csv
    returned, from 0001-01-01 and up to 9999-12-31."""
    n = series_mod.CSV_CHUNK_ROWS + offset
    values = np.linspace(0.0, 9000.0, n) / 7.0
    values[[0, -1]] = np.nan
    values[n // 3 : n // 3 + 5] = np.nan
    values[series_mod.CSV_CHUNK_ROWS - 2 : series_mod.CSV_CHUNK_ROWS + 2] = np.nan
    monkeypatch.setattr(series_mod.csv, "reader", lambda *a, **k: pytest.fail("the row loop ran"))
    for start in (dt.date(1, 1, 1), dt.date(1999, 2, 27), dt.date(9999, 12, 31) - dt.timedelta(days=n - 1)):
        path = tmp_path / "s.csv"
        written = write_csv(DailySeries(start, values), path, decimals=decimals)
        got = load_csv(path)
        assert (got.start, len(got)) == (start, n)
        assert got.values.tobytes() == written.values.tobytes()


@pytest.mark.parametrize("start, n", [
    (dt.date(1, 1, 1), 800),
    (dt.date(9999, 12, 31) - dt.timedelta(days=799), 800),
    (dt.date(9999, 12, 31), 1),
    (dt.date(1971, 1, 31), 70),
    (dt.date(1900, 2, 1), 60),
    (dt.date(2000, 2, 1), 60),
    (dt.date(2004, 2, 1), 60),
])
def test_iso_days_equal_isoformat(start, n):
    """The date texts at the ends of the calendar, from a 31st, and across
    the 1900, 2000 and 2004 Februaries."""
    expected = [(start + dt.timedelta(days=i)).isoformat() for i in range(n)]
    assert series_mod._iso_days(np.datetime64(start, "D"), n) == expected
    assert series_mod._iso_days(np.datetime64(start, "D"), n, lead="\n") == ["\n" + d for d in expected]


_CSV_VALUES = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0]),
    st.integers(0, 10**7).map(lambda k: k / 1000.0 + 0.0005),  # x.xxx5 ties
    st.floats(1e-9, 1e15),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(_CSV_VALUES, st.integers(1, 4)), min_size=1, max_size=30),
    st.dates(min_value=dt.date(1900, 1, 1), max_value=dt.date(2100, 1, 1)),
    st.sampled_from([3, None]),
)
def test_write_csv_returns_what_load_csv_reads(runs, start, decimals):
    """``write_csv``'s return is bitwise ``load_csv`` of the text it wrote
    (and the row loop's), for NaN runs, -0.0, ties and 1e-9..1e15."""
    values = np.array([np.nan if v is None else v for v, n in runs for _ in range(n)])
    series = DailySeries(start, values)
    buf = io.StringIO()
    returned = write_csv(series, buf, decimals=decimals)
    again, oracle = load_csv(io.StringIO(buf.getvalue())), row_loop_load_csv(io.StringIO(buf.getvalue()))
    if decimals is None:
        assert returned is series
    for other in (again, oracle):
        assert (returned.start, len(returned)) == (other.start, len(other))
        assert returned.values.tobytes() == other.values.tobytes()


def _with_slot(values, i, v):
    values = values.copy()
    values[i] = v
    return values


# Each near miss maps (start, values, decimals) of a written series to those
# of a second series whose bytes differ: a false hit on the first writes them.
_BASE_VALUES = np.array([1.5, 0.0625, 0.0, 2.0, np.nan, 7.25])
WRITE_NEAR_MISSES = {
    "one-ulp": lambda s, v, d: (s, _with_slot(v, 1, np.nextafter(v[1], np.inf)), d),
    "minus-zero": lambda s, v, d: (s, _with_slot(v, 2, -0.0), d),
    "nan-slot": lambda s, v, d: (s, _with_slot(v, 3, np.nan), d),
    "start-plus-a-day": lambda s, v, d: (s + dt.timedelta(days=1), v, d),
    "other-decimals": lambda s, v, d: (s, v, None if d == 3 else 3),
}


@pytest.mark.parametrize("decimals", [3, None])
@pytest.mark.parametrize("name", WRITE_NEAR_MISSES)
def test_write_cache_tells_near_misses_apart(name, decimals):
    """A series written after a near miss of it gets its own bytes, as the
    per-row writer formats them; a repeat of it hits and returns an equal
    series that shares no memory with the cache."""
    start = dt.date(2000, 2, 27)
    miss_start, miss_values, miss_decimals = WRITE_NEAR_MISSES[name](start, _BASE_VALUES, decimals)
    first, near_miss = DailySeries(start, _BASE_VALUES), DailySeries(miss_start, miss_values)
    series_mod._csv_body.cache_clear()
    texts = []
    for series, d in ((first, decimals), (near_miss, miss_decimals)):
        expected, got = io.StringIO(), io.StringIO()
        csv_writer_write_csv(series, expected, "ghi_wh_m2", d)
        returned = write_csv(series, got, decimals=d)
        assert got.getvalue() == expected.getvalue()
        texts.append(got.getvalue())
    assert texts[0] != texts[1]  # so a false hit would show
    assert series_mod._csv_body.cache_info().hits == 0
    again = io.StringIO()
    hit = write_csv(near_miss, again, decimals=miss_decimals)
    assert series_mod._csv_body.cache_info().hits == 1
    assert again.getvalue() == texts[1]
    assert (hit.start, hit.values.tobytes()) == (returned.start, returned.values.tobytes())
    _, cached = series_mod._csv_body(miss_start, near_miss.values.tobytes(), miss_decimals)
    if cached is not None:
        assert not cached.flags.writeable
        assert not np.shares_memory(hit.values, cached)
        assert not np.shares_memory(returned.values, cached)


def test_parse_cache_returns_one_read_only_series():
    text = "date,ghi_wh_m2\n2000-02-28,1.500\n2000-02-29,\n2000-03-01,2.250\n"
    series_mod._contiguous_rows.cache_clear()
    first, again = load_csv(io.StringIO(text)), load_csv(io.StringIO(text))
    info = series_mod._contiguous_rows.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert (first.start, first.values.tobytes()) == (again.start, again.values.tobytes())
    assert not first.values.flags.writeable and not again.values.flags.writeable
    with pytest.raises(ValueError):
        again.values[0] = 0.0
    with pytest.raises(ValueError):
        first.values.setflags(write=True)
    assert load_csv(io.StringIO(text)) is again


def test_caches_hold_at_most_their_bound():
    for i in range(10):
        buf = io.StringIO()
        write_csv(DailySeries(dt.date(2000, 1, 1), [float(i), 1.0]), buf, decimals=[3, None][i % 2])
        load_csv(io.StringIO(buf.getvalue()))
    for cached in (series_mod._csv_body, series_mod._contiguous_rows):
        info = cached.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


class _FailsMidWrite:
    """A text file whose write stores half its text, then fails like a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        raise OSError("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _run(value):
    days = tuple(dt.date(2001, 1, 1) + dt.timedelta(days=i) for i in range(60))
    return evaluation.ForecastRun(days=days, measured=np.full(60, 2.0), predicted=np.full(60, value))


ARTIFACT_WRITERS = {
    "write_csv": ("s.csv", lambda d, v: write_csv(DailySeries(dt.date(2000, 1, 1), [v, 2.0]), d / "s.csv")),
    "save_model_file": ("model.txt", lambda d, v: save_model_file(d / "model.txt", "naive", {}, {"m": [v]})),
    "write_factors_csv": ("factors.csv", lambda d, v: pipeline.write_factors_csv(
        np.full(365, v), np.full(365, 3), d / "factors.csv")),
    "write_cleaning_report": ("report.csv", lambda d, v: pipeline.write_cleaning_report(
        ((dt.date(2000, 1, 1), None, v),), d / "report.csv")),
    "write_evaluation_csvs": ("metrics.csv", lambda d, v: pipeline.write_evaluation_csvs({"m": _run(v)}, d)),
}


@pytest.mark.parametrize("name", ARTIFACT_WRITERS)
def test_failed_write_keeps_the_old_artifact(name, tmp_path, monkeypatch):
    filename, write = ARTIFACT_WRITERS[name]
    write(tmp_path, 1.0)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_open = open
    monkeypatch.setattr(series_mod, "open", lambda *a, **k: _FailsMidWrite(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(DataError, match=f"cannot write .*{filename}: no space left"):
        write(tmp_path, 2.0)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # no temporary left
    monkeypatch.undo()
    write(tmp_path, 2.0)
    assert (tmp_path / filename).read_bytes() != before[filename]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)


def test_series_validation():
    with pytest.raises(DataError):
        DailySeries(dt.date(1971, 1, 1), np.array([]))
    with pytest.raises(DataError):
        DailySeries(dt.date(1971, 1, 1), np.array([-1.0]))
    with pytest.raises(DataError):
        DailySeries(dt.date(1971, 1, 1), np.array([np.inf]))


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------


def three_year_series(site, fill=0.5):
    table = h0_table(site)
    start = dt.date(1973, 1, 1)  # no leap year in 1973-1975
    n = 365 * 3
    s = DailySeries(start, np.tile(table, 3) * fill)
    return s, table


def test_clean_missing_day_replaced_by_cross_year_mean(site):
    s, table = three_year_series(site)
    values = s.values.copy()
    jan15 = 14
    values[jan15] = np.nan
    values[jan15 + 365] = 900.0
    values[jan15 + 730] = 1100.0
    cleaned, replaced = clean(DailySeries(s.start, values), site)
    assert cleaned.values[jan15] == pytest.approx(1000.0)
    assert len(replaced) == 1
    day, old, new = replaced[0]
    assert old is None and new == pytest.approx(1000.0)
    assert day == dt.date(1973, 1, 15)


def test_clean_identity_on_valid_series(site):
    s, _ = three_year_series(site)
    cleaned, replaced = clean(s, site)
    assert len(replaced) == 0
    np.testing.assert_array_equal(cleaned.values, s.values)


def test_clean_flags_value_above_h0(site):
    # 20000 Wh/m2 on a winter day exceeds that day's clear-sky ceiling
    s, table = three_year_series(site)
    winter_doy = 15
    assert table[winter_doy - 1] < 20000.0  # oracle: H0 bound for the day
    values = s.values.copy()
    values[winter_doy - 1] = 20000.0
    cleaned, replaced = clean(DailySeries(s.start, values), site)
    other_years_mean = (values[winter_doy - 1 + 365] + values[winter_doy - 1 + 730]) / 2
    assert cleaned.values[winter_doy - 1] == pytest.approx(other_years_mean)
    assert len(replaced) == 1


def test_clean_is_idempotent_and_conservative(site, synth_19y):
    values = synth_19y.values.copy()
    rng = np.random.default_rng(0)
    idx = rng.choice(len(values), size=40, replace=False)
    values[idx[:20]] = np.nan
    values[idx[20:]] = 30000.0  # above any daily ceiling
    corrupted = DailySeries(synth_19y.start, values)
    cleaned, replaced = clean(corrupted, site)
    assert len(replaced) == 40
    again, replaced2 = clean(cleaned, site)
    assert len(replaced2) == 0
    np.testing.assert_array_equal(again.values, cleaned.values)
    untouched = np.setdiff1d(np.arange(len(values)), idx)
    np.testing.assert_array_equal(cleaned.values[untouched], synth_19y.values[untouched])


def test_clean_requires_two_years(site):
    short = DailySeries(dt.date(1971, 1, 1), np.full(400, 100.0))
    with pytest.raises(DataError, match="2 whole years"):
        clean(short, site)


def test_clean_unrecoverable_gap(site):
    s, _ = three_year_series(site)
    values = s.values.copy()
    doy = 100
    for y in range(3):
        values[doy - 1 + 365 * y] = np.nan
    with pytest.raises(DataError, match="unrecoverable"):
        clean(DailySeries(s.start, values), site)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def test_noise_free_limit_is_exactly_kmean_times_h0(synth_noise_free):
    site = SiteSpec.from_degrees(41.917)
    table = h0_table(site)
    sd = synth_noise_free.seasonal_days()
    np.testing.assert_allclose(synth_noise_free.values, 0.6 * table[sd - 1], rtol=1e-15)


def test_same_seed_is_bitwise_identical():
    cfg = SynthConfig(n_years=3, latitude_deg=41.917, seed=123)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert a.start == b.start
    np.testing.assert_array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "settings",
    [
        dict(n_years=19, seed=7),  # SynthConfig defaults (ar1 0.5, std 0.15)
        dict(n_years=8, seed=3, cloud_ar1=0.7, cloud_std=0.2, seasonal_amplitude=0.25),  # CLI
        dict(n_years=2, seed=0, cloud_ar1=0.0, cloud_std=0.1),
        dict(n_years=20, seed=11, cloud_ar1=0.95, cloud_std=0.3),
        dict(n_years=5, seed=42, cloud_ar1=0.3, cloud_std=0.0),
    ],
)
def test_synthetic_noise_equals_lfilter(settings):
    from scipy.signal import lfilter

    cfg = SynthConfig(latitude_deg=41.917, **settings)
    values = generate_synthetic(cfg).values
    shocks = np.random.default_rng(cfg.seed).standard_normal(values.size)
    expected = lfilter([cfg.cloud_std], [1.0, -cfg.cloud_ar1], shocks)
    noise = ar1_noise(shocks, cfg.cloud_ar1, cfg.cloud_std)
    assert np.array_equal(noise.view(np.int64), expected.view(np.int64))
    assert np.array_equal(values.view(np.int64), lfilter_synthetic_values(cfg).view(np.int64))


def test_periodogram_peak_at_one_year(synth_19y):
    peak = dominant_period(periodogram(synth_19y.values))
    assert abs(peak - 365.0) <= 1.0


def test_synthetic_within_physical_bounds(synth_19y):
    site = SiteSpec.from_degrees(41.917)
    table = h0_table(site)
    sd = synth_19y.seasonal_days()
    assert np.all(synth_19y.values > 0)
    assert np.all(synth_19y.values <= table[sd - 1] * (1 + 1e-12))


def test_synth_config_validation():
    good = dict(n_years=2, latitude_deg=40.0)
    SynthConfig(**good)
    for bad in (
        dict(good, n_years=1),
        dict(good, latitude_deg=80.0),
        dict(good, clear_sky_fraction_mean=0.0),
        dict(good, cloud_ar1=1.0),
        dict(good, cloud_std=-0.1),
        dict(good, seasonal_amplitude=0.4),
    ):
        with pytest.raises(ConfigError):
            SynthConfig(**bad)
