import ast
import datetime as dt
import time
from pathlib import Path

import numpy as np
import pytest

from solarcast import baselines, kernels, pipeline
from solarcast.baselines import (
    ArmaModel,
    ArModel,
    BayesClassifierModel,
    KnnModel,
    MarkovChainModel,
    NaiveModel,
    fit_discretizer,
)
from solarcast.errors import DataError
from solarcast.series import DailySeries
from solarcast.solar import SiteSpec, h0_table

import oracles
from oracles import ar1_series, arma11_series, brute_force_knn, signed_series, stable_argsort_knn

SRC = Path(__file__).resolve().parents[1] / "src" / "solarcast"
START = dt.date(2000, 1, 1)


def daily(values) -> DailySeries:
    """``values`` as a training span from ``START``: what every class fits on."""
    return DailySeries(START, values)


# ---------------------------------------------------------------------------
# naive predictor
# ---------------------------------------------------------------------------


def naive_forecast(model, target):
    """A one-day span; the naive model reads the calendar, not the values."""
    return model.predict_span(np.empty(0), [0], [target])[0]


def test_naive_two_year_mean():
    values = np.full(365 * 2, 500.0)
    values[9] = 800.0
    values[9 + 365] = 1200.0
    history = DailySeries(dt.date(1973, 1, 1), values)
    model = NaiveModel().fit(history)
    assert naive_forecast(model, dt.date(1975, 1, 10)) == pytest.approx(1000.0)


def test_naive_single_year_returns_that_value():
    history = DailySeries(dt.date(1973, 1, 1), np.arange(1.0, 366.0))
    assert naive_forecast(NaiveModel().fit(history), dt.date(1975, 2, 1)) == 32.0


def test_naive_on_noise_free_synthetic_is_exact(synth_noise_free, site):
    model = NaiveModel().fit(synth_noise_free)
    target = dt.date(1973, 7, 1)
    truth = synth_noise_free.values[synth_noise_free.index_of(target)]
    assert naive_forecast(model, target) == pytest.approx(truth, rel=1e-12)


def test_naive_missing_day_errors():
    history = DailySeries(dt.date(1973, 1, 1), np.full(10, 1.0))
    model = NaiveModel().fit(history)
    with pytest.raises(DataError, match="1975-12-01"):
        naive_forecast(model, dt.date(1975, 12, 1))


# ---------------------------------------------------------------------------
# AR / ARMA
# ---------------------------------------------------------------------------


def linear_forecast(model, values, i):
    """The one-index span of ``values[i]`` from ``values[:i]``."""
    return model.predict_span(values, [i], [dt.date(2000, 1, 1)])[0]


def test_fit_ar_recovers_ar1_coefficient():
    x = ar1_series(5000, 0.8, seed=11)
    model = ArModel(1).fit(signed_series(x))
    assert model.ar[0] == pytest.approx(0.8, abs=0.03)


def test_fit_ar_constant_series_intercept_only():
    model = ArModel(8).fit(daily(np.full(200, 7.5)))
    assert model.intercept == pytest.approx(7.5)
    np.testing.assert_allclose(model.ar, 0.0, atol=1e-9)


def test_fit_ar_order_zero_predicts_mean():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    model = ArModel(0).fit(daily(x))
    assert model.intercept == pytest.approx(2.5)
    assert linear_forecast(model, x, 4) == pytest.approx(2.5)


def test_fit_ar_length_guard():
    with pytest.raises(DataError):
        ArModel(8).fit(daily(np.ones(50)))


def test_ar_and_arma_limits_admit_exactly_the_orders_the_fit_takes():
    """Every order within ``limits`` fits, and every one beyond it meets the
    fit's length guards, for series of 2..60 values (ARMA's long-AR stage
    binds below 25)."""
    values = np.random.default_rng(5).random(60) * 100.0
    for n in range(2, 61):
        train = daily(values[:n])
        models = [ArModel(p) for p in range(7)] + [ArmaModel(p, q) for p in range(7) for q in range(7)]
        for model in models:
            limits = model.limits(train)
            admitted = all(getattr(model, name) <= high for name, (high, _) in limits.items())
            if admitted:
                model.fit(train)
            else:
                with pytest.raises(DataError, match="too short"):
                    model.fit(train)


def test_fit_arma_recovers_arma11():
    x = arma11_series(10_000, 0.6, 0.3, seed=21)
    model = ArmaModel(1, 1).fit(signed_series(x))
    assert model.ar[0] == pytest.approx(0.6, abs=0.05)
    assert model.ma[0] == pytest.approx(0.3, abs=0.07)


def test_fit_arma_q0_equals_fit_ar():
    x = ar1_series(2000, 0.5, seed=3)
    a = ArModel(3).fit(signed_series(x))
    b = ArmaModel(3, 0).fit(signed_series(x))
    np.testing.assert_allclose(a.ar, b.ar, atol=1e-9)
    assert a.intercept == pytest.approx(b.intercept, abs=1e-9)


def test_fit_arma_white_noise_fits_nothing():
    # On white noise the residual proxies are nearly collinear with the value
    # lags, so individual AR/MA coefficients trade off against each other;
    # the identified combinations (their sums) and the achieved fit are what
    # a seeded run pins down.
    rng = np.random.default_rng(17)
    x = rng.standard_normal(8000)
    model = ArmaModel(2, 2).fit(signed_series(x))
    np.testing.assert_allclose(model.ar + model.ma, 0.0, atol=0.05)
    resid = model.residuals(x)[25:]
    assert np.mean(resid**2) > 0.98 * np.var(x)


def test_arma_in_sample_mse_not_worse_than_ar():
    x = arma11_series(6000, 0.5, 0.4, seed=9)
    arma = ArmaModel(2, 2).fit(signed_series(x))
    ar = ArModel(2).fit(signed_series(x))
    mse_arma = np.mean(arma.residuals(x)[25:] ** 2)
    mse_ar = np.mean(ar.residuals(x)[25:] ** 2)
    assert mse_arma <= mse_ar * 1.05


def test_predict_linear_direct_evaluations():
    m = ArModel(p=1)._hold(0.0, np.array([0.5]))
    assert linear_forecast(m, [2.0], 1) == pytest.approx(1.0)
    m2 = ArmaModel(p=3, q=2)._hold(4.2, np.zeros(5))
    assert linear_forecast(m2, [3, 2, 1], 3) == pytest.approx(4.2)
    m3 = ArmaModel(p=1, q=1)._hold(0.0, np.array([0.6, 0.3]))
    # lag 1.0 and residual e_1 = 1.0 - 0.6 * (5 / 6) = 0.5
    assert linear_forecast(m3, [5 / 6, 1.0], 2) == pytest.approx(0.75)
    with pytest.raises(DataError):
        linear_forecast(m3, [1.0], 0)


# ---------------------------------------------------------------------------
# discretizer
# ---------------------------------------------------------------------------


def test_discretizer_equal_width_edges():
    d = fit_discretizer(np.array([0.0, 1.0]), 50)
    np.testing.assert_allclose(d.edges, np.arange(51) / 50.0, atol=1e-15)
    assert d.classes_of([0.501])[0] == 25
    assert d.classes_of([1.0])[0] == 49
    assert d.classes_of([-0.3])[0] == 0
    assert d.classes_of([7.0])[0] == 49
    assert d.centers[0] == pytest.approx(0.01)


LIBRARY_FITS = {  # each fit and where it says the first missing value is
    "fit_discretizer": (lambda x: fit_discretizer(x, 50), "at index 100"),
    "ar": (lambda x: ArModel(2).fit(daily(x)), "on 2000-04-10"),
    "arma": (lambda x: ArmaModel(2, 1).fit(daily(x)), "on 2000-04-10"),
    "markov": (lambda x: MarkovChainModel(3, 50).fit(daily(x)), "on 2000-04-10"),
    "bayes": (lambda x: BayesClassifierModel(3, 50).fit(daily(x)), "on 2000-04-10"),
}


@pytest.mark.parametrize("fit, where", LIBRARY_FITS.values(), ids=LIBRARY_FITS)
def test_library_fit_names_the_first_missing_value(fit, where):
    values = 1.0 + np.sin(np.arange(400) / 7.0)
    values[[100, 250]] = np.nan
    with pytest.raises(DataError, match=f"^missing value in the training span {where}$"):
        fit(values)


def test_discretizer_constant_errors():
    with pytest.raises(DataError):
        fit_discretizer(np.full(10, 2.0), 50)


def test_discretizer_clamps_extremes_and_rejects_missing_values():
    d = fit_discretizer(np.array([0.0, 1.0]), 50)
    assert list(d.classes_of([-1e308, 1e308, 0.501])) == [0, 49, 25]
    with pytest.raises(DataError, match="missing value"):
        d.classes_of([0.5, np.nan])


# ---------------------------------------------------------------------------
# Markov chain
# ---------------------------------------------------------------------------


def cycle_values(reps):
    # three well-separated levels cycling deterministically
    return np.tile(np.array([0.1, 0.5, 0.9]), reps)


def test_markov_deterministic_cycle_prediction():
    values = cycle_values(4000)
    model = MarkovChainModel(3, 50).fit(daily(values))
    d = model.discretizer
    pred = model.predict_rows(np.array([[0.1, 0.5, 0.9]]))[0]
    target_class = d.classes_of([0.1])[0]
    # Closed form: context seen n times, always followed by target_class.
    n = oracles.loop_next_counts(model, d.classes_of(np.array([0.1, 0.5, 0.9]))).sum()
    probs = np.full(50, 1.0)
    probs[target_class] += n
    probs /= probs.sum()
    expected = float(probs @ d.centers)
    assert pred == pytest.approx(expected, rel=1e-12)
    assert abs(pred - d.centers[target_class]) / d.centers[target_class] < 0.05


def test_markov_fallback_chain():
    values = cycle_values(100)
    model = MarkovChainModel(3, 50).fit(daily(values))
    d = model.discretizer
    # (49, 49, 49) was never seen as an order-3 or order-2 context, but class
    # 49 alone was: the chain falls back to the order-1 table.
    pred = model.predict_rows(np.array([[0.9, 0.9, 0.9]]))[0]
    table = oracles.loop_next_counts(model, [49])
    probs = (table + 1.0) / (table.sum() + 50.0)
    assert pred == pytest.approx(float(probs @ d.centers), rel=1e-12)
    # a class never observed anywhere drops through to the marginal
    unseen = np.array([0.3, 0.3, 0.3])
    assert oracles.loop_next_counts(model, [d.classes_of([0.3])[0]]) is None
    pred2 = model.predict_rows(unseen[None])[0]
    marginal = (model.marginal + 1.0) / (model.marginal.sum() + 50.0)
    assert pred2 == pytest.approx(float(marginal @ d.centers), rel=1e-12)


@pytest.mark.parametrize("n_classes", [2, 7, 50, 200])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_markov_rows_and_predictions_equal_dict_oracle(order, n_classes, synth_19y):
    """Transition rows equal the dict-of-contexts counts written as rows,
    and predictions (seen, shorter and unseen contexts) are bitwise equal."""
    values = synth_19y.values[:3000]
    d = fit_discretizer(values, n_classes)  # what the fit builds, for the oracle
    model = MarkovChainModel(order, n_classes).fit(daily(values))
    counts, marginal = oracles.dict_fit_markov(values, d, order)
    assert len(model.transitions) == order
    for k, rows in enumerate(model.transitions, start=1):
        expected = oracles.dict_transition_rows(counts[k], k)
        assert rows.dtype == expected.dtype and np.array_equal(rows, expected), k
    assert np.array_equal(model.marginal, marginal)
    rng = np.random.default_rng(order * 1000 + n_classes)
    queries = [synth_19y.values[i - order : i] for i in range(3000, 3400, 3)]
    queries += [rng.uniform(values.min(), values.max(), order) for _ in range(60)]
    each = []
    for recent in queries:
        expected = oracles.dict_predict_markov(counts, marginal, d, order, recent)
        assert model.predict_rows(recent[None])[0] == expected
        each.append(expected)
    assert model.predict_rows(np.array(queries)).tolist() == each  # all rows in one call


def test_markov_context_keys_must_fit_int64():
    values = daily(np.linspace(0.0, 1.0, 50))
    assert len(MarkovChainModel(3, 100_000).fit(values).transitions) == 3  # 1e15 contexts fit
    with pytest.raises(DataError, match="exceed int64"):
        MarkovChainModel(4, 100_000).fit(values)
    longer = daily(np.linspace(0.0, 1.0, 3000))
    start = time.perf_counter()
    with pytest.raises(DataError, match="exceed int64"):
        MarkovChainModel(1500, 50).fit(longer)
    assert time.perf_counter() - start < 2.0  # refused before 1500 context tables are counted


def test_markov_single_class_within_smoothing_tolerance():
    values = np.full(500, 0.5)
    values[0] = 0.0
    values[1] = 1.0  # give the discretizer a range
    model = MarkovChainModel(3, 50).fit(daily(values))
    d = model.discretizer
    pred = model.predict_rows(np.array([[0.5, 0.5, 0.5]]))[0]
    target = d.centers[d.classes_of([0.5])[0]]
    assert abs(pred - target) / target < 0.05


def test_markov_prediction_within_center_range():
    rng = np.random.default_rng(4)
    values = rng.uniform(0, 1, 600)
    model = MarkovChainModel(3, 50).fit(daily(values))
    d = model.discretizer
    for _ in range(20):
        recent = rng.uniform(0, 1, 3)
        pred = model.predict_rows(recent[None])[0]
        assert d.centers[0] <= pred <= d.centers[-1]


@pytest.mark.parametrize("kind", [MarkovChainModel, BayesClassifierModel])
def test_discrete_row_narrower_than_the_order_is_refused(kind):
    model = kind(3, 50).fit(daily(np.linspace(0.0, 1.0, 100)))
    with pytest.raises(DataError, match="^need 3 recent values, got 2$"):
        model.predict_rows(np.full((4, 2), 0.5))


# ---------------------------------------------------------------------------
# naive Bayes
# ---------------------------------------------------------------------------


def test_bayes_uninformative_likelihood_returns_prior_mean():
    from solarcast.baselines import Discretizer

    edges = np.linspace(0.0, 1.0, 51)
    d = Discretizer(edges=edges, centers=(edges[:-1] + edges[1:]) / 2)
    prior = np.zeros(50)
    prior[10] = 30.0
    prior[40] = 10.0
    # conditionals proportional to the class counts: P(lag | class) is the
    # same for every class, so the lags carry no information
    cond = np.broadcast_to(prior[:, None] / 50.0, (50, 50)).copy()[None].repeat(3, axis=0)
    model = BayesClassifierModel(order=3, n_classes=50)._hold(d, prior, cond)
    pred = model.predict_rows(np.array([[0.2, 0.8, 0.5]]))[0]
    smoothed = (prior + 1.0) / (prior.sum() + 50.0)
    assert pred == pytest.approx(float(smoothed @ d.centers), rel=1e-12)


def test_bayes_posterior_concentrates_under_perfect_copying():
    # Closed-form smoothed counts for "next class always equals lag 1's
    # class": posterior mass on the lag class approaches 1 as counts grow.
    from solarcast.baselines import Discretizer

    edges = np.linspace(0.0, 1.0, 51)
    d = Discretizer(edges=edges, centers=(edges[:-1] + edges[1:]) / 2)

    def model_with(n_per_class):
        prior = np.full(50, float(n_per_class))
        cond = (np.eye(50) * n_per_class)[None]
        return BayesClassifierModel(order=1, n_classes=50)._hold(d, prior, cond)

    lag = 0.65
    target = d.centers[d.classes_of([lag])[0]]
    small = model_with(20).predict_rows(np.array([[lag]]))[0]
    large = model_with(20_000).predict_rows(np.array([[lag]]))[0]
    assert abs(large - target) < abs(small - target)
    assert large == pytest.approx(target, abs=1e-3)


def test_bayes_learns_copy_structure_from_data():
    rng = np.random.default_rng(12)
    # long runs: ~90% of transitions copy the previous value's class
    levels = rng.choice([0.05, 0.35, 0.65, 0.95], size=400)
    values = np.repeat(levels, 10)
    model = BayesClassifierModel(1, 50).fit(daily(values))
    pred = model.predict_rows(np.array([[0.65]]))[0]
    assert abs(pred - 0.65) < 0.08


def test_bayes_order_zero_is_prior_mean():
    values = np.concatenate([np.zeros(5), np.ones(5), np.full(90, 0.5)])
    model = BayesClassifierModel(0, 50).fit(daily(values))
    d = model.discretizer
    pred = model.predict_rows(np.empty((1, 0)))[0]
    prior = (model.prior_counts + 1.0) / (model.prior_counts.sum() + 50.0)
    assert pred == pytest.approx(float(prior @ d.centers), rel=1e-12)


@pytest.mark.parametrize("n_classes", [2, 50, 300])
@pytest.mark.parametrize("order", [0, 1, 3, 6])
def test_bayes_counts_equal_the_loop(order, n_classes, synth_19y):
    values = synth_19y.values[:3000]
    d = fit_discretizer(values, n_classes)  # what the fit builds, for the oracle
    model = BayesClassifierModel(order, n_classes).fit(daily(values))
    prior, cond = oracles.loop_bayes_counts(values, d, order)
    assert np.array_equal(model.prior_counts, prior) and model.prior_counts.dtype == prior.dtype
    assert np.array_equal(model.cond_counts, cond) and model.cond_counts.dtype == cond.dtype


# ---------------------------------------------------------------------------
# k-NN
# ---------------------------------------------------------------------------


def knn_next(history, query, k: int) -> float:
    """The k-NN forecast of the day after ``history`` whose query is ``query``,
    the last values of the history: a one-index span."""
    history = np.asarray(history, dtype=np.float64)
    assert np.array_equal(history[history.size - len(query) :], query, equal_nan=True)
    model = KnnModel(k=k, window=len(query))
    return float(model.predict_span(history, [history.size], [START])[0])


def test_knn_exact_match_returns_successor():
    query = [0.3, 0.7, 0.2, 0.9, 0.4]
    v = 0.123
    history = np.array(query + [v] + [0.5] * 10 + query)
    pred = knn_next(history, query, 1)
    assert pred == pytest.approx(v)


def test_knn_all_candidates_is_global_mean_of_successors():
    rng = np.random.default_rng(6)
    history = rng.uniform(0, 1, 50)
    w = 4
    pred = knn_next(history, history[-w:], 50 - w)
    assert pred == pytest.approx(history[w:].mean())


def test_knn_matches_brute_force_oracle_and_beats_noise():
    rng = np.random.default_rng(44)
    t = np.arange(4000)
    noise_std = 0.05
    series = np.sin(2 * np.pi * t / 50.0) + rng.normal(0, noise_std, t.size)
    k, window = 10, 10
    pred = knn_next(series[:-1], series[-1 - window : -1], k)
    brute = brute_force_knn(series[:-1], series[-1 - window : -1], window, k)
    assert pred == pytest.approx(brute, rel=1e-12)
    assert abs(pred - series[-1]) < noise_std * 3


def test_knn_tie_break_prefers_earlier_window():
    # two zero-distance matches with different successors: both enter k=2 mean;
    # with k=1 the earlier one wins
    q = [0.5, 0.5]
    history = np.array(q + [1.0] + q + [3.0] + [9.9, 9.8] + q)
    assert knn_next(history, q, 1) == pytest.approx(1.0)
    assert knn_next(history, q, 2) == pytest.approx(2.0)


def test_knn_partition_matches_stable_argsort_on_ties_and_nans():
    """Integer values with period 7: every window recurs, so many candidates
    tie at the k-th distance; NaN gaps add windows whose distance is NaN."""
    periodic = np.tile([0.0, 1.0, 3.0, 1.0, 2.0, 0.0, 4.0], 12)
    bumped = periodic + np.random.default_rng(5).integers(0, 2, periodic.size)
    gappy = bumped.copy()
    gappy[[9, 30, 31, 55]] = np.nan
    n_tied = 0
    for history in (periodic, bumped, gappy):
        for window in (3, 5):
            query = history[-window:]
            dists = np.sort(np.sum((np.lib.stride_tricks.sliding_window_view(
                history, window)[: history.size - window] - query) ** 2, axis=1))
            for k in range(1, history.size - window + 1):
                expected = stable_argsort_knn(history, query, k)
                if np.isnan(expected):  # a chosen window's successor is missing
                    with pytest.raises(DataError, match="^missing value in the history"):
                        knn_next(history, query, k)
                else:
                    np.testing.assert_array_equal(knn_next(history, query, k), expected)
                n_tied += k < dists.size and dists[k - 1] == dists[k]
    assert n_tied > 100  # the k-th distance is shared by a later window


def assert_knn_span_equals_per_query(values, k: int, window: int) -> None:
    """``KnnModel.predict_span`` of every index with ``max(k, 2)`` candidate
    windows (the first with exactly k when k >= 2) equals the stable-argsort
    oracle of each query bit for bit, where neither the query nor a chosen
    successor is missing; the span of all of them refuses the first such
    index."""
    idx = np.arange(window + max(k, 2), values.size + 1)
    days = [dt.date(2000, 1, 1) + dt.timedelta(days=int(i)) for i in idx]
    expected = np.array([stable_argsort_knn(values[:i], values[i - window : i], k) for i in idx])
    bad = np.isnan(expected) | np.array([np.isnan(values[i - window : i]).any() for i in idx])
    model = KnnModel(k=k, window=window)
    got = model.predict_span(values, idx[~bad], [day for day, b in zip(days, bad) if not b])
    assert got.tobytes() == expected[~bad].tobytes(), (k, window)
    if bad.any():
        with pytest.raises(DataError, match=f"^missing value in the history before {days[np.argmax(bad)]}$"):
            model.predict_span(values, idx, days)


def knn_span_series() -> dict:
    """Series whose k-th distance is often tied or nearly tied: the period-7
    integers of the partition test (exact ties; the gappy one has gaps in
    the history and in queries), values on a 0.1 grid offset by 1e4 (ties
    that rounding splits by far less than the estimate's error, so a margin
    too small changes forecasts) and that grid scaled by 1e150."""
    rng = np.random.default_rng(5)
    periodic = np.tile([0.0, 1.0, 3.0, 1.0, 2.0, 0.0, 4.0], 12)
    bumped = periodic + rng.integers(0, 2, periodic.size)
    gappy = bumped.copy()
    gappy[[9, 30, 31, 55]] = np.nan
    grid = 0.1 * rng.integers(0, 4, 310)
    return {"periodic": periodic, "bumped": bumped, "gappy": gappy,
            "offset_grid": 1e4 + grid, "scaled_grid": 1e150 * (1.0 + grid)}


@pytest.mark.parametrize("name", knn_span_series())
def test_knn_span_equals_per_query_on_near_ties_and_gaps(name):
    values = knn_span_series()[name]
    for window in (3, 5):
        for k in (1, 3, 10, 60):
            assert_knn_span_equals_per_query(values, k, window)


def overflow_values() -> np.ndarray:
    """Values near 1e154, where a window's squared norm overflows but its
    squared distance to a query does not."""
    return 1e154 * (1.0 + 1e-3 * np.random.default_rng(3).integers(0, 4, 200))


def test_knn_span_forecasts_when_norms_overflow():
    """The estimate cannot prune these queries; they are ranked by their
    exact distances under the floating-point checks of ``forecast_one_step``."""
    values = overflow_values()
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(values[:5] ** 2)) and np.isfinite(5 * np.ptp(values) ** 2)
    series = DailySeries(dt.date(2000, 1, 1), values)
    got = pipeline.forecast_one_step(KnnModel(k=3, window=5), series, series.dates()[10:])
    expected = [stable_argsort_knn(values[:i], values[i - 5 : i], 3) for i in range(10, values.size)]
    assert got.tobytes() == np.array(expected).tobytes()


def test_knn_span_has_one_path(monkeypatch):
    """No k-NN forecast reaches the one-query distance kernel or a per-query
    forecaster: with ``window_sq_distances`` raising, every span of the
    near-tie, gap and overflow series gives the same bytes and messages."""

    def outcomes():
        got = []
        for values in [*knn_span_series().values(), overflow_values()]:
            for window in (3, 5):
                for k in (1, 3, 10, 60):
                    idx = np.arange(window + max(k, 2), values.size + 1)
                    days = [START + dt.timedelta(days=int(i)) for i in idx]
                    try:
                        got.append(KnnModel(k=k, window=window).predict_span(values, idx, days).tobytes())
                    except DataError as e:
                        got.append(str(e))
        return got

    expected = outcomes()
    assert any(isinstance(o, str) for o in expected) and any(isinstance(o, bytes) for o in expected)

    def refuse(*args):
        raise AssertionError("window_sq_distances called by a forecast")

    monkeypatch.setattr(kernels, "window_sq_distances", refuse)
    assert outcomes() == expected
    assert not hasattr(baselines, "knn_predict")


# ---------------------------------------------------------------------------
# uniform wrappers
# ---------------------------------------------------------------------------


def test_wrappers_fit_and_predict(synth_19y):
    train = synth_19y.slice_years(1971, 1987)
    history = synth_19y.values[: synth_19y.index_of(dt.date(1988, 1, 1))]
    target = dt.date(1988, 1, 1)
    for model in (
        NaiveModel(),
        ArModel(p=8),
        ArmaModel(p=2, q=2),
        MarkovChainModel(),
        BayesClassifierModel(),
        KnnModel(),
    ):
        model.fit(train)
        value = model.predict_next(history, target)
        assert np.isfinite(value)
        again = model.predict_next(history, target)
        assert value == again  # deterministic


def test_bayes_prediction_within_center_range():
    rng = np.random.default_rng(15)
    values = rng.uniform(0, 1, 600)
    model = BayesClassifierModel(3, 50).fit(daily(values))
    d = model.discretizer
    for _ in range(20):
        pred = model.predict_rows(rng.uniform(0, 1, (1, 3)))[0]
        assert d.centers[0] <= pred <= d.centers[-1]


def test_forecasters_fit_one_way_on_one_input_form():
    """A forecaster is fitted only by its registry class on a DailySeries:
    ``baselines`` defines no module-level ``fit_*`` but ``fit_discretizer``,
    and nothing in ``src/`` branches on whether an input is a DailySeries or
    a WindowDataset."""
    tree = ast.parse((SRC / "baselines.py").read_text(encoding="utf-8"))
    fits = {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("fit_")}
    assert fits == {"fit_discretizer"}, fits
    branches = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.args[1])}
                branches += [f"{path.name}:{node.lineno}"] if named & {"DailySeries", "WindowDataset"} else []
    assert not branches, branches
