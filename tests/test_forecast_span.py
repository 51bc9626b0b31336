"""``forecast_one_step`` (one ``predict_span`` call) against the per-day loop
it replaced: bitwise-equal forecasts and the same errors."""

import datetime as dt
import re

import numpy as np
import pytest

from solarcast import baselines, evaluation, pipeline, preprocess
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
    once, on itself: no object it holds (the MLP's scaler and history)
    stores one again."""
    train = working_series["raw"].slice_years(*TRAIN_YEARS)
    for name, cls in FORECASTERS.items():
        model = pipeline.fit_forecaster(name, {"max_epochs": 2} if name == "mlp" else {}, 0, train)
        for key in cls.params:
            assert holders(model, key) == [f"model.{key}"], (name, holders(model, key))


def holds_solarcast_object(value) -> bool:
    """Whether ``value``, or an entry of a tuple, list or dict it is, is an
    object of a class defined in ``solarcast``."""
    if isinstance(value, (tuple, list)):
        return any(holds_solarcast_object(entry) for entry in value)
    if isinstance(value, dict):
        return any(holds_solarcast_object(entry) for entry in value.values())
    return type(value).__module__.split(".")[0] == "solarcast"


def test_fitted_models_hold_no_solarcast_records(working_series, site):
    """A model that ``fit_forecaster`` fitted holds its fitted arrays itself:
    none of its attributes holds an object of a class defined in
    ``solarcast``, but the MLP's ``scaler`` and ``history``; its weights are
    one packed array, ``theta``. A fitted ``Preprocessor`` holds only arrays,
    and ``clean`` returns its replacements as a plain tuple."""
    train = working_series["raw"].slice_years(*TRAIN_YEARS)
    fitted = {name: pipeline.fit_forecaster(name, {"max_epochs": 2} if name == "mlp" else {}, 0, train)
              for name in FORECASTERS}
    fitted["preprocessor"] = preprocess.fit(train, site)
    for name, model in fitted.items():
        held = {attr for attr, value in vars(model).items() if holds_solarcast_object(value)}
        assert held == ({"scaler", "history"} if name == "mlp" else set()), (name, held)
    values = train.values.copy()
    values[40] = np.nan
    _, replaced = clean(train.with_values(values), site)
    assert type(replaced) is tuple and len(replaced) == 1 and not holds_solarcast_object(replaced)


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
DISCRETE = {"markov": MarkovChainModel, "bayes": BayesClassifierModel}  # refused before a lag is classed
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
    if make in DISCRETE.values():  # the day after the gap inside the span is the first to read it
        day = gappy.date_at(first_test + 101).isoformat()
        assert assert_raises_like_per_day(model, gappy, test_days) == f"missing value in the history before {day}"
    elif make in GAP_REFUSED.values():
        reads_gap = np.isnan(per_day_forecast(model, gappy, test_days))
        if isinstance(model, KnnModel):
            reads_gap |= [np.isnan(values[i - model.window : i]).any() for i in gappy.indices_of(test_days)]
        day = test_days[int(np.argmax(reads_gap))].item().isoformat()
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
    (1, "need 3 values of history before 1971-01-02"),  # index 1 lacks history before index 3 meets the gap
    (3, "missing value in the history before 1971-01-04"),  # no day lacks history; index 3 reads the gap
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
            assert message == f"need {p} values of history before {days[0].item().isoformat()}"
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
    assert message == f"missing value in the history before {failing_day.isoformat()}"


@pytest.mark.parametrize("nan_at,first,expected", [  # indices into the series, p = 8
    (2, 5, "need 8 values of history"),  # index 5 both lacks lags and has the gap in its window
    (9, 6, "need 8 values of history"),  # indices 6-7 lack lags; the gap fails later days
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


def _day_forms(days: np.ndarray) -> dict:
    """A run of days as ``dates()`` gives it, as a tuple of it (the form the
    benchmark's seed sweep passes to ``ForecastRun``) and as ``dt.date``s."""
    return {"array": days, "tuple": tuple(days), "dt.date list": days.tolist()}


def _outcome(call) -> bytes | str:
    """The bytes of what ``call()`` returns, or its DataError's text."""
    try:
        return np.asarray(call()).tobytes()
    except DataError as e:
        return f"DataError: {e}"


def _same_outcome_per_form(call, days):
    outcomes = {form: _outcome(lambda: call(d)) for form, d in _day_forms(days).items()}
    assert len(set(outcomes.values())) == 1, outcomes
    return outcomes["array"]


@pytest.mark.parametrize("kind", [*FORECASTERS, "naive-10-days"])
def test_each_day_form_gives_the_same_bytes_and_errors(kind, working_series, site):
    """``dates()`` is a ``datetime64[D]`` array; it, a tuple of it and a
    list of ``dt.date`` forecast, invert and score to the same bytes, and
    fail with the same message naming the same day."""
    working = working_series["preprocessed"]
    assert working.dates().dtype == np.dtype("datetime64[D]")
    if kind == "naive-10-days":  # no slot for the days after Jan 10
        model = NaiveModel().fit(working.slice_dates(dt.date(1971, 1, 1), dt.date(1971, 1, 10)))
    else:
        params = {"max_epochs": 5} if kind == "mlp" else {}
        model = pipeline.fit_forecaster(kind, params, 0, working.slice_years(*TRAIN_YEARS))
    values = working.values.copy()
    values[working.index_of(TEST_SPAN[0]) + 30] = np.nan
    gappy = working.with_values(values)
    span = working.slice_dates(*TEST_SPAN).dates()
    past_end = working.dates()[-3:] + 2
    for history, days in [(working, span), (working, working.dates()[:12]), (gappy, span)]:
        _same_outcome_per_form(lambda d: pipeline.forecast_one_step(model, history, d), days)
    assert _same_outcome_per_form(lambda d: pipeline.forecast_one_step(model, working, d), past_end) == (
        f"DataError: date {working.end + dt.timedelta(days=1)} outside series span")

    inverter = preprocess.fit(working_series["raw"].slice_years(*TRAIN_YEARS), site)
    corrected = working.values[: span.size]
    _same_outcome_per_form(lambda d: inverter.invert(corrected, d), span)
    _same_outcome_per_form(lambda d: inverter.invert(corrected, d), span[1:])  # one date short

    measured = working_series["raw"].slice_dates(*TEST_SPAN).values

    def scores(d):
        run = evaluation.ForecastRun(days=d, measured=measured, predicted=measured * 1.1 + 3.0)
        return repr((run.days, evaluation.metrics(run), evaluation.seasonal_breakdown(run),
                     evaluation.monthly_errors(run), evaluation.compare_models({"a": run})))

    _same_outcome_per_form(scores, span)
    _same_outcome_per_form(scores, np.concatenate([span[:-1], span[:1]]))  # a duplicate day
