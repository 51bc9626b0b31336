"""The one state that lasts across calls, ``pipeline.run_pipeline``'s memo
of its input stages: a run gets the bytes it would get alone, and a Table-1
pass cleans and fits once. Also the checks that outlive the per-process
caches it replaced: calendar and the writers against per-day oracles, clean
and fit holding no state between calls, and a bound for any later cache."""

import ast
import datetime as dt
from pathlib import Path

import numpy as np
import pytest

from solarcast import pipeline, preprocess
from solarcast.errors import ConfigError, DataError
from solarcast.series import DailySeries, SynthConfig, calendar, clean, generate_synthetic, write_csv
from solarcast.solar import SiteSpec

from oracles import seasonal_day_of

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


def per_day_calendar(days) -> tuple:
    """calendar's three arrays, one ``dt.date`` at a time."""
    days = np.asarray(days, dtype="datetime64[D]")
    dates = [d.item() for d in days.ravel()]
    columns = ([d.year for d in dates], [d.month for d in dates], [seasonal_day_of(d) for d in dates])
    return tuple(np.array(c, dtype=np.int64).reshape(days.shape) for c in columns)


def assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and np.shape(g) == np.shape(w) and np.array_equal(g, w)


@pytest.mark.parametrize("name", CALENDAR_INPUTS)
def test_calendar_equals_the_uncached_computation(name):
    """Each input form gives the per-day year, month and slot, call after call."""
    days = CALENDAR_INPUTS[name]
    for _ in range(2):
        assert_same_arrays(calendar(days), per_day_calendar(days))


def test_calendar_cache_tells_near_misses_apart():
    """A run a day later or a day longer than the last one gets its own days."""
    for first, n in ((0, 800), (1, 800), (0, 801), (0, 800)):
        days = FIRST + first + np.arange(n)
        assert_same_arrays(calendar(days), per_day_calendar(days))


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


MEMOS = {"clean": clean, "fit": preprocess.fit}
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
    """clean and fit hold nothing between calls: a near miss computed right
    after its first input equals it computed first, and a repeat equals both."""
    compute = MEMOS[memo]
    first = memo_input(memo)
    series, site = NEAR_MISSES[near](first)
    alone = result_bytes(compute(series, site))
    compute(first, SITE)
    assert result_bytes(compute(series, site)) == alone
    assert result_bytes(compute(series, site)) == alone


def test_cached_arrays_are_read_only(tmp_path, monkeypatch):
    """The memo hands every run on one input the same cleaned and working
    series, so their values may not be written, nor made writable again."""
    monkeypatch.setattr(pipeline, "_last_input", None)
    pipeline.run_pipeline(config(tmp_path / "a"))
    cleaned, _, working = pipeline._last_input[2]
    for a in (cleaned.values, working.values):
        with pytest.raises(ValueError):
            a[0] = 1
        with pytest.raises(ValueError):
            a.setflags(write=True)


def test_factors_text_tells_near_misses_apart(tmp_path):
    """factors.csv after a near miss of the factors or counts has its own
    text, each row as one row's repr formats it, -0.0 included."""
    factors, counts = np.full(365, 1.0), np.full(365, 3)
    factors[7] = 0.0
    near = {"one ulp": (np.nextafter(factors, 2.0), counts), "minus zero": (np.where(factors, factors, -0.0), counts),
            "one count": (factors, counts + np.eye(365, dtype=np.int64)[7])}
    for name, (f, n) in near.items():
        pipeline.write_factors_csv(factors, counts, tmp_path / "first.csv")
        pipeline.write_factors_csv(f, n, tmp_path / "near.csv")
        text = (tmp_path / "near.csv").read_text(encoding="utf-8")
        assert text != (tmp_path / "first.csv").read_text(encoding="utf-8"), name
        rows = [f"{day},{float(y)!r},{int(c)}\n" for day, (y, c) in enumerate(zip(f, n), 1)]
        assert text == "day,y_star,n_years\n" + "".join(rows), name


# ---------------------------------------------------------------------------
# run_pipeline's memo of its input stages
# ---------------------------------------------------------------------------

SYNTH = SynthConfig(n_years=5, latitude_deg=41.917, seed=5)
BASE = dict(latitude_deg=41.917, train_years=(1971, 1974), test_years=(1975, 1975), model="naive")


@pytest.fixture(scope="module")
def input_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("memo") / "input.csv"
    write_csv(generate_synthetic(SYNTH), path)
    return path


def config(outdir, **changes) -> pipeline.PipelineConfig:
    fields = {**BASE, "synth": SYNTH, **changes}
    return pipeline.PipelineConfig(outdir=outdir, **fields)


def one_byte_off(path: Path) -> Path:
    """A copy of the input CSV with the last digit of one training-year value changed."""
    text = path.read_text(encoding="utf-8")
    i = text.index("\n", text.index("1972-06-01")) - 1
    near = path.with_name("near.csv")
    near.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :], encoding="utf-8")
    return near


# Each near miss: the settings of the first run and of its near miss, which
# differ in exactly one of the memo key's parts.
MEMO_NEAR_MISSES = {
    "one input byte": lambda csv: ({"input_csv": str(csv)}, {"input_csv": str(one_byte_off(csv))}),
    "latitude one ulp": lambda csv: ({"input_csv": str(csv)},
                                     {"input_csv": str(csv), "latitude_deg": np.nextafter(41.917, 90.0)}),
    "minus zero latitude": lambda csv: ({"input_csv": str(csv), "latitude_deg": 0.0},
                                        {"input_csv": str(csv), "latitude_deg": -0.0}),
    "int latitude": lambda csv: ({"input_csv": str(csv), "latitude_deg": 42.0},
                                 {"input_csv": str(csv), "latitude_deg": 42}),
    "train years": lambda csv: ({"input_csv": str(csv)}, {"input_csv": str(csv), "train_years": (1971, 1973)}),
    "preprocessing off": lambda csv: ({"input_csv": str(csv)}, {"input_csv": str(csv), "use_preprocessing": False}),
    "synth seed": lambda csv: ({}, {"synth": SynthConfig(n_years=5, latitude_deg=41.917, seed=6)}),
}


def artifact_bytes(artifacts: dict) -> list:
    """The artifact map's names, file names and bytes, in its order."""
    return [(name, path.name, path.read_bytes()) for name, path in artifacts.items()]


@pytest.mark.parametrize("near", MEMO_NEAR_MISSES)
def test_memo_tells_near_misses_apart(near, input_csv, tmp_path, monkeypatch):
    """A run right after a near miss of it writes the bytes, in the artifact
    map's order, of the same run made with an empty memo; an exact repeat of
    a run is a hit, which leaves the memo as it was, and writes its bytes."""
    first, changed = MEMO_NEAR_MISSES[near](input_csv)
    monkeypatch.setattr(pipeline, "_last_input", None)
    alone = artifact_bytes(pipeline.run_pipeline(config(tmp_path / "alone", **changed)))
    monkeypatch.setattr(pipeline, "_last_input", None)
    pipeline.run_pipeline(config(tmp_path / "first", **first))
    memo = pipeline._last_input
    assert artifact_bytes(pipeline.run_pipeline(config(tmp_path / "near", **changed))) == alone
    assert (pipeline._last_input is memo) == (near == "int latitude")  # 42 and 42.0 are one latitude
    memo = pipeline._last_input
    assert artifact_bytes(pipeline.run_pipeline(config(tmp_path / "repeat", **changed))) == alone
    assert pipeline._last_input is memo


def counting(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` to record each call; returns the record."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_a_failed_run_leaves_the_memo_and_a_second_input_evicts_the_first(input_csv, tmp_path, monkeypatch):
    """A run that fails in training, or in an input stage, leaves the memo
    as it was, so the next run on the first input cleans nothing; a run on
    a second input replaces it, so the memo holds one input at most."""
    monkeypatch.setattr(pipeline, "_last_input", None)
    cleans = counting(monkeypatch, pipeline, "clean")
    pipeline.run_pipeline(config(tmp_path / "a", input_csv=str(input_csv)))
    memo = pipeline._last_input
    with pytest.raises(ConfigError, match="'k'"):
        pipeline.run_pipeline(config(tmp_path / "bad", input_csv=str(input_csv), model="knn", model_params={"k": 0}))
    short = tmp_path / "short.csv"
    write_csv(generate_synthetic(SynthConfig(n_years=2, latitude_deg=41.917)).slice_years(1971, 1971), short)
    with pytest.raises(DataError, match=r"\[stage clean\]"):
        pipeline.run_pipeline(config(tmp_path / "short", input_csv=str(short)))
    assert pipeline._last_input is memo and len(cleans) == 2
    pipeline.run_pipeline(config(tmp_path / "b", input_csv=str(input_csv)))
    assert pipeline._last_input is memo and len(cleans) == 2
    pipeline.run_pipeline(config(tmp_path / "synth"))
    pipeline.run_pipeline(config(tmp_path / "c", input_csv=str(input_csv)))
    assert len(cleans) == 4 and pipeline._last_input[0][0] == input_csv.read_text(encoding="utf-8")


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
