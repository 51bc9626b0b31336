"""The per-process caches: each is keyed so that a hit is an exact match,
holds read-only results, and has a bound named by a module constant."""

import ast
import datetime as dt
from pathlib import Path

import numpy as np
import pytest

from solarcast import pipeline, preprocess
from solarcast import series as series_mod
from solarcast.series import DailySeries, SynthConfig, calendar, clean, generate_synthetic
from solarcast.solar import SiteSpec

SRC = Path(__file__).resolve().parents[1] / "src" / "solarcast"
SITE = SiteSpec.from_degrees(41.917)
FIRST = np.datetime64("1971-12-30")
CALENDAR_INPUTS = {
    "contiguous": FIRST + np.arange(800),
    "one day": FIRST + np.arange(1),
    "reversed": (FIRST + np.arange(5))[::-1],
    "duplicated": FIRST + np.array([0, 0, 2]),
    "gapped": FIRST + np.array([0, 1, 3, 4]),
    "empty": FIRST + np.arange(0),
    "0-d": np.datetime64("1972-02-29"),
    "dates": [dt.date(1972, 2, 28), dt.date(1972, 2, 29), dt.date(1972, 3, 1)],
}
RUNS = ("contiguous", "one day", "dates")  # the inputs that are one ascending run of days


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.shape(g) == np.shape(w) and np.array_equal(g, w)


@pytest.mark.parametrize("name", CALENDAR_INPUTS)
def test_calendar_equals_the_uncached_computation(name):
    """Only a contiguous ascending run is looked up in the cache."""
    days = CALENDAR_INPUTS[name]
    series_mod._calendar_run.cache_clear()
    want = series_mod._calendar(np.asarray(days, dtype="datetime64[D]"))
    for _ in range(2):
        assert_same_arrays(calendar(days), want)
    info = series_mod._calendar_run.cache_info()
    assert (info.misses, info.hits) == ((1, 1) if name in RUNS else (0, 0))


def test_calendar_cache_tells_near_misses_apart():
    """A run a day later or a day longer is computed anew."""
    series_mod._calendar_run.cache_clear()
    for first, n in ((0, 800), (1, 800), (0, 801), (0, 800)):
        days = FIRST + first + np.arange(n)
        assert_same_arrays(calendar(days), series_mod._calendar(days))
    info = series_mod._calendar_run.cache_info()
    assert (info.misses, info.hits) == (3, 1)


def memo_input(memo: str) -> DailySeries:
    """Three synthetic years with a zero at slot 40 (so -0.0 is a near miss)
    and, for ``clean``, a missing day at slot 100 that it replaces."""
    values = generate_synthetic(SynthConfig(n_years=3, latitude_deg=41.917, seed=2)).values.copy()
    values[40] = 0.0
    if memo == "clean":
        values[100] = np.nan
    return DailySeries(dt.date(1971, 1, 1), values)


def with_value(series: DailySeries, value: float) -> DailySeries:
    values = series.values.copy()
    values[40] = value
    return series.with_values(values)


MEMOS = {"clean": (clean, series_mod._clean), "fit": (preprocess.fit, preprocess._fit)}
NEAR_MISSES = {
    "one ulp": lambda s: (with_value(s, np.nextafter(0.0, 1.0)), SITE),
    "minus zero": lambda s: (with_value(s, -0.0), SITE),
    "start + 1 day": lambda s: (DailySeries(s.start + dt.timedelta(days=1), s.values), SITE),
    "latitude": lambda s: (s, SiteSpec(np.nextafter(SITE.latitude, 1.0))),
    "solar constant": lambda s: (s, SiteSpec(SITE.latitude, 1366.0)),
}


def result_bytes(result) -> list:
    """What a clean or fit result holds, with -0.0 told from 0.0."""
    if isinstance(result, preprocess.Preprocessor):
        return [a.tobytes() for a in (result.h0, result.factors, result.n_years_used)]
    cleaned, replaced = result
    return [cleaned.start, cleaned.values.tobytes(), repr(replaced)]


@pytest.mark.parametrize("near", NEAR_MISSES)
@pytest.mark.parametrize("memo", MEMOS)
def test_clean_and_fit_tell_near_misses_apart(memo, near):
    """After a call on one input, a call on a near miss of it is computed
    anew and equals the uncached computation; a repeat of it hits."""
    public, cached = MEMOS[memo]
    first = memo_input(memo)
    series, site = NEAR_MISSES[near](first)
    cached.cache_clear()
    public(first, SITE)
    got = public(series, site)
    assert (cached.cache_info().misses, cached.cache_info().hits) == (2, 0)
    assert result_bytes(got) == result_bytes(cached.__wrapped__(series.start, series.values.tobytes(), site))
    assert public(series, site) is got
    assert cached.cache_info().hits == 1


def test_cached_arrays_are_read_only():
    """A hit hands every caller the same arrays, so none may be written,
    nor made writable again."""
    cleaned, _ = clean(memo_input("clean"), SITE)
    fitted = preprocess.fit(memo_input("fit"), SITE)
    arrays = (cleaned.values, fitted.h0, fitted.factors, fitted.n_years_used, *calendar(cleaned.dates()))
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1
        with pytest.raises(ValueError):
            a.setflags(write=True)


def test_factors_text_tells_near_misses_apart(tmp_path):
    """factors.csv after a near miss of the factors or counts has the bytes
    of the uncached formatting; a repeat hits."""
    factors, counts = np.full(365, 1.0), np.full(365, 3)
    factors[7] = 0.0
    near = {"one ulp": (np.nextafter(factors, 2.0), counts), "minus zero": (np.where(factors, factors, -0.0), counts),
            "one count": (factors, counts + np.eye(365, dtype=np.int64)[7])}
    for name, (f, n) in near.items():
        pipeline._factors_text.cache_clear()
        pipeline.write_factors_csv(factors, counts, tmp_path / "first.csv")
        pipeline.write_factors_csv(f, n, tmp_path / "near.csv")
        text = (tmp_path / "near.csv").read_text(encoding="utf-8")
        assert text == pipeline._factors_text.__wrapped__(f.tobytes(), n.tobytes()), name
        assert text != (tmp_path / "first.csv").read_text(encoding="utf-8"), name
        pipeline.write_factors_csv(f, n, tmp_path / "near.csv")
        info = pipeline._factors_text.cache_info()
        assert (info.misses, info.hits) == (2, 1), name


def unbounded_caches(source: str) -> list[str]:
    """Each ``functools.lru_cache`` or ``functools.cache`` of ``source``
    whose bound is not a module constant holding a positive integer."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools" for alias in node.names}
    constants = {target.id: node.value.value for node in tree.body
                 if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                 for target in node.targets if isinstance(target, ast.Name)}

    def cache_kind(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            name = node.attr
        elif isinstance(node, ast.Name):
            name = imported.get(node.id)
        else:
            return None
        return name if name in ("cache", "lru_cache") else None

    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and cache_kind(node.func) == "lru_cache":
            size = node.args[0] if node.args else next((kw.value for kw in node.keywords if kw.arg == "maxsize"), None)
            value = constants.get(size.id) if isinstance(size, ast.Name) else None
            if type(value) is int and value > 0:
                bounded.add(id(node.func))
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if cache_kind(node) and id(node) not in bounded]


def test_every_cache_is_bounded_by_a_module_constant():
    """A cache without a bound grows for the life of the process, and peak
    memory would show it; each bound is a module constant, beside the
    reason for its size."""
    found = {path.name: unbounded_caches(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert not any(found.values()), found
    assert unbounded_caches("import functools\nSIZE = 2\n@functools.lru_cache(maxsize=SIZE)\ndef f(x): pass\n") == []
    for unbounded in (
        "import functools\n@functools.lru_cache\ndef f(x): pass\n",
        "import functools\n@functools.lru_cache(maxsize=None)\ndef f(x): pass\n",
        "import functools\n@functools.lru_cache(8)\ndef f(x): pass\n",
        "import functools\n@functools.cache\ndef f(x): pass\n",
        "from functools import lru_cache as memo\nSIZE = None\n@memo(SIZE)\ndef f(x): pass\n",
        "import functools\ndef f(x): pass\nf = functools.lru_cache(maxsize=SIZE)(f)\n",
    ):
        assert unbounded_caches(unbounded), unbounded
