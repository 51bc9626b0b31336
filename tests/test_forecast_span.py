"""``forecast_one_step`` (one ``predict_span`` call) against the per-day loop
it replaced: bitwise-equal forecasts and the same errors."""

import datetime as dt
import re

import numpy as np
import pytest

from solarcast import baselines, pipeline, preprocess
from solarcast.baselines import (
    ArmaModel, ArModel, BayesClassifierModel, KnnModel, MarkovChainModel, NaiveModel, OneStepModel,
)
from solarcast.errors import DataError
from solarcast.model_io import FORECASTERS
from solarcast.series import SynthConfig, clean, generate_synthetic

from conftest import SITE_LAT
from oracles import per_day_forecast

TRAIN_YEARS = (1971, 1973)
TEST_SPAN = (dt.date(1974, 1, 1), dt.date(1974, 5, 31))

LINEAR_ORDERS = {
    "ar0": lambda: ArModel(p=0),
    "arma13": lambda: ArmaModel(p=1, q=3),
    "arma31": lambda: ArmaModel(p=3, q=1),
    "arma20": lambda: ArmaModel(p=2, q=0),
}


@pytest.fixture(scope="module")
def working_series(site):
    """The cleaned series and its preprocessed (corrected) counterpart."""
    raw = generate_synthetic(SynthConfig(n_years=4, latitude_deg=SITE_LAT, seed=11))
    cleaned, _ = clean(raw, site)
    corrected = preprocess.fit(cleaned.slice_years(*TRAIN_YEARS), site).apply(cleaned)
    return {"raw": cleaned, "preprocessed": corrected}


def assert_span_matches_per_day(model, working, test_days=None) -> np.ndarray:
    if test_days is None:
        test_days = working.slice_dates(*TEST_SPAN).dates()
    expected = per_day_forecast(model, working, test_days)
    got = pipeline.forecast_one_step(model, working, test_days)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
    return got


def assert_raises_like_per_day(model, working, test_days) -> str:
    with pytest.raises(DataError) as per_day:
        per_day_forecast(model, working, test_days)
    with pytest.raises(DataError) as span:
        pipeline.forecast_one_step(model, working, test_days)
    assert str(span.value) == str(per_day.value)
    return str(span.value)


def test_one_forecast_method_per_model():
    """``predict_next`` is only ``OneStepModel``'s one-index span; every
    registered forecaster forecasts through its own ``predict_span`` (AR and
    ARMA through the one they share, Markov and Bayes through theirs)."""
    for cls in FORECASTERS.values():
        assert [k for k in cls.__mro__ if "predict_next" in vars(k)] == [OneStepModel], cls
        owner = next(k for k in cls.__mro__ if "predict_span" in vars(k))
        assert owner in (cls, baselines._LinearForecaster, baselines._DiscreteForecaster), cls


def holders(obj, name: str, path="model") -> list[str]:
    """The path of each stored attribute ``name`` of ``obj`` and, depth
    first, of every object its attributes hold."""
    found = [f"{path}.{name}"] if name in vars(obj) else []
    for attr, value in vars(obj).items():
        if hasattr(value, "__dict__"):
            found += holders(value, name, f"{path}.{attr}")
    return found


def test_each_hyperparameter_is_held_once(working_series):
    """A model that ``fit_forecaster`` fitted stores each of its ``params``
    once, on itself: no object it holds (a network, a discretizer) stores
    one again."""
    train = working_series["raw"].slice_years(*TRAIN_YEARS)
    for name, cls in FORECASTERS.items():
        model = pipeline.fit_forecaster(name, {"max_epochs": 2} if name == "mlp" else {}, 0, train)
        for key in cls.params:
            assert holders(model, key) == [f"model.{key}"], (name, holders(model, key))


@pytest.mark.parametrize("scale", ["raw", "preprocessed"])
@pytest.mark.parametrize("kind", pipeline.MODEL_NAMES)
def test_span_matches_per_day_loop(kind, scale, working_series):
    working = working_series[scale]
    train = working.slice_years(*TRAIN_YEARS)
    model = pipeline.fit_forecaster(kind, {"max_epochs": 10} if kind == "mlp" else {}, 3, train)
    assert_span_matches_per_day(model, working)


MANY_CLASSES = {"markov700": lambda: MarkovChainModel(n_classes=700),
                "bayes700": lambda: BayesClassifierModel(n_classes=700)}


@pytest.mark.parametrize("make", MANY_CLASSES.values(), ids=MANY_CLASSES)
def test_many_classes_span_in_blocks_matches_per_day_loop(make, working_series):
    """With 700 classes a span is forecast in blocks of 93 rows."""
    for working in working_series.values():
        model = make().fit(working.slice_years(*TRAIN_YEARS))
        assert baselines._TABLE_CELLS // 700 < len(working.slice_dates(*TEST_SPAN))
        assert_span_matches_per_day(model, working)


@pytest.mark.parametrize("make", LINEAR_ORDERS.values(), ids=LINEAR_ORDERS)
def test_linear_orders_match_per_day_loop(make, working_series):
    for working in working_series.values():
        model = make().fit(working.slice_years(*TRAIN_YEARS))
        assert_span_matches_per_day(model, working)


GAP_TOLERANT = {"ar0": LINEAR_ORDERS["ar0"], "naive": NaiveModel, "bayes0": lambda: BayesClassifierModel(order=0)}
# a forecast that reads a missing value (a lag, a residual, a k-NN query or successor) is refused
GAP_REFUSED = {**{key: make for key, make in LINEAR_ORDERS.items() if key != "ar0"},
               "ar8": ArModel, "arma22": ArmaModel, "knn": KnnModel}
DISCRETE = {"markov": MarkovChainModel, "bayes": BayesClassifierModel}  # a missing lag has no class
GAPPY = {**GAP_TOLERANT, **GAP_REFUSED, **DISCRETE}


@pytest.mark.parametrize("make", GAPPY.values(), ids=GAPPY)
def test_nan_gaps_propagate_like_per_day_loop(make, working_series):
    working = working_series["raw"]
    model = make().fit(working.slice_years(*TRAIN_YEARS))
    values = working.values.copy()
    first_test = working.index_of(TEST_SPAN[0])
    values[first_test - 40 : first_test - 37] = np.nan  # a gap before the test span
    values[first_test + 100] = np.nan  # and one inside it
    gappy = working.with_values(values)
    test_days = gappy.slice_dates(*TEST_SPAN).dates()
    if make in DISCRETE.values():
        assert assert_raises_like_per_day(model, gappy, test_days) == "a missing value has no class"
    elif make in GAP_REFUSED.values():
        reads_gap = np.isnan(per_day_forecast(model, gappy, test_days))
        if isinstance(model, KnnModel):
            reads_gap |= [np.isnan(values[i - model.window : i]).any() for i in gappy.indices_of(test_days)]
        day = test_days[int(np.argmax(reads_gap))].isoformat()
        with pytest.raises(DataError, match=f"^missing value in the history before {day}$"):
            pipeline.forecast_one_step(model, gappy, test_days)
    else:
        assert_span_matches_per_day(model, gappy)


@pytest.mark.parametrize("make,first_valid", [
    (lambda: ArmaModel(p=2, q=3), 3),  # max(p, q)
    (lambda: ArmaModel(p=4, q=1), 4),
    (lambda: KnnModel(k=2, window=5), 7),  # window + 2
    pytest.param(lambda: MarkovChainModel(order=3), 3, id="markov3"),  # order
    pytest.param(lambda: BayesClassifierModel(order=4), 4, id="bayes4"),
])
def test_too_short_history_raises_like_per_day_loop(make, first_valid, working_series):
    working = working_series["raw"]
    model = make().fit(working.slice_years(*TRAIN_YEARS))
    for i in range(first_valid + 3):
        days = working.dates()[i : i + 4]
        if i < first_valid:
            with pytest.raises(DataError) as per_day:
                per_day_forecast(model, working, days)
            with pytest.raises(DataError, match=re.escape(str(per_day.value))):
                pipeline.forecast_one_step(model, working, days)
        else:
            assert_span_matches_per_day(model, working, days)


@pytest.mark.parametrize("make", DISCRETE.values(), ids=DISCRETE)
@pytest.mark.parametrize("first,expected", [  # a NaN at index 2, order 3
    (1, "need 3 recent values, got 1"),  # index 1 lacks history before index 3 meets the gap
    (3, "a missing value has no class"),  # no day lacks history; index 3 holds the gap
])
def test_discrete_history_and_gap_failures_report_the_earliest_day(make, first, expected, working_series):
    working = working_series["raw"]
    model = make().fit(working.slice_years(*TRAIN_YEARS))
    values = working.values.copy()
    values[2] = np.nan
    gappy = working.with_values(values)
    assert assert_raises_like_per_day(model, gappy, gappy.dates()[first : first + 10]) == expected


def test_naive_names_the_first_day_without_a_training_slot(working_series):
    """Trained on ten days, the naive model has slots for Jan 1-10 only; a
    span from Jan 6 first fails on Jan 11, not on its first day."""
    working = working_series["raw"]
    model = NaiveModel().fit(working.slice_dates(dt.date(1971, 1, 1), dt.date(1971, 1, 10)))
    days = working.dates()[5:15]
    message = assert_raises_like_per_day(model, working, days)
    assert message == "no training value for day-of-year of 1971-01-11"


def test_days_outside_the_series_are_a_data_error(working_series):
    working = working_series["raw"]
    model = NaiveModel().fit(working.slice_years(*TRAIN_YEARS))
    days = [working.end, working.end + dt.timedelta(days=1)]
    with pytest.raises(DataError, match=f"date {days[1].isoformat()} outside series span"):
        pipeline.forecast_one_step(model, working, days)
    assert pipeline.forecast_one_step(model, working, []).shape == (0,)


@pytest.fixture(scope="module")
def mlp_raw(working_series):
    """An MLP with the default 8 lags, fitted on the raw training years."""
    working = working_series["raw"]
    return pipeline.fit_forecaster("mlp", {"max_epochs": 10}, 3, working.slice_years(*TRAIN_YEARS))


def test_mlp_too_short_history_raises_like_per_day_loop(mlp_raw, working_series):
    working = working_series["raw"]
    p = mlp_raw.p
    for i in range(p + 3):
        days = working.dates()[i : i + 4]
        if i < p:
            message = assert_raises_like_per_day(mlp_raw, working, days)
            assert message == f"not enough history before {days[0].isoformat()} for {p} lags"
        else:
            assert_span_matches_per_day(mlp_raw, working, days)


@pytest.mark.parametrize("gap", [-5, 100])  # before the test span and inside it
def test_mlp_nan_in_lag_window_raises_like_per_day_loop(gap, mlp_raw, working_series):
    working = working_series["raw"]
    values = working.values.copy()
    first_test = working.index_of(TEST_SPAN[0])
    values[first_test + gap] = np.nan
    test_days = working.slice_dates(*TEST_SPAN).dates()
    message = assert_raises_like_per_day(mlp_raw, working.with_values(values), test_days)
    failing_day = working.date_at(max(first_test, first_test + gap + 1))
    assert message == f"missing value inside the lag window before {failing_day.isoformat()}"


@pytest.mark.parametrize("nan_at,first,expected", [  # indices into the series, p = 8
    (2, 5, "not enough history"),  # index 5 both lacks lags and has the gap in its window
    (9, 6, "not enough history"),  # indices 6-7 lack lags; the gap fails later days
    (9, 8, "missing value"),  # no day lacks lags; index 10 is the first with the gap
    (2, 8, "missing value"),  # index 8 has its 8 lags, and the gap among them
])
def test_mlp_history_and_gap_failures_report_the_earliest_day(
    nan_at, first, expected, mlp_raw, working_series
):
    working = working_series["raw"]
    values = working.values.copy()
    values[nan_at] = np.nan
    gappy = working.with_values(values)
    message = assert_raises_like_per_day(mlp_raw, gappy, gappy.dates()[first : first + 15])
    assert message.startswith(expected)


def test_mlp_empty_span(mlp_raw, working_series):
    assert pipeline.forecast_one_step(mlp_raw, working_series["raw"], []).shape == (0,)
