import datetime as dt
import math

import numpy as np
import pytest

from solarcast import evaluation
from solarcast.errors import DataError
from solarcast.evaluation import (
    CiSummary,
    ForecastRun,
    MetricsReport,
    compare_models,
    confidence_interval,
    metrics,
    monthly_aggregate_error,
    monthly_errors,
    seasonal_breakdown,
)
from solarcast.series import calendar


def make_run(measured, predicted, start=dt.date(1988, 1, 1), model_id="m"):
    days = tuple(start + dt.timedelta(days=i) for i in range(len(measured)))
    return ForecastRun(days=days, measured=np.asarray(measured, float),
                       predicted=np.asarray(predicted, float), model_id=model_id)


def year_run(predicted_offset=0.0, year=1988, noise=None):
    start = dt.date(year, 1, 1)
    n = 366 if year % 4 == 0 else 365
    rng = np.random.default_rng(0)
    measured = 5000.0 + 1000.0 * rng.standard_normal(n).cumsum() * 0 + 1000.0 * rng.uniform(size=n)
    predicted = measured + predicted_offset
    if noise is not None:
        predicted = measured + noise
    return make_run(measured, predicted, start=start)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_perfect_forecast():
    rng = np.random.default_rng(1)
    m = rng.uniform(100, 200, 50)
    rep = metrics(make_run(m, m))
    assert rep.rmse == 0.0 and rep.nrmse == 0.0 and rep.mbe == 0.0
    assert rep.r_squared == pytest.approx(1.0)
    assert rep.n == 50


def test_constant_bias():
    rng = np.random.default_rng(2)
    m = rng.uniform(100, 200, 80)
    rep = metrics(make_run(m, m + 10.0))
    assert rep.mbe == pytest.approx(10.0)
    assert rep.rmse == pytest.approx(10.0)
    assert rep.r_squared == pytest.approx(1.0)


def test_hand_computed_case():
    rep = metrics(make_run([1.0, 1.0], [3.0, 5.0]))
    assert rep.mbe == pytest.approx(3.0, abs=1e-12)
    assert rep.rmse == pytest.approx(math.sqrt(10.0), abs=1e-12)
    assert rep.nrmse == pytest.approx(math.sqrt(10.0), abs=1e-12)
    assert math.isnan(rep.r_squared)  # measured side constant


def test_bias_variance_identity():
    rng = np.random.default_rng(3)
    m = rng.uniform(100, 200, 300)
    c = m + rng.normal(5, 20, 300)
    rep = metrics(make_run(m, c))
    residual_var = np.var(c - m)
    assert rep.rmse**2 == pytest.approx(rep.mbe**2 + residual_var, rel=1e-9)


def test_nrmse_scale_invariance():
    rng = np.random.default_rng(4)
    m = rng.uniform(100, 200, 60)
    c = m + rng.normal(0, 15, 60)
    a = metrics(make_run(m, c)).nrmse
    b = metrics(make_run(7.5 * m, 7.5 * c)).nrmse
    assert a == pytest.approx(b, rel=1e-12)
    assert metrics(make_run(m, c)).rmse >= abs(metrics(make_run(m, c)).mbe)


def test_nrmse_zero_measured_errors():
    with pytest.raises(DataError):
        metrics(make_run([0.0, 0.0], [1.0, 2.0]))


def test_run_validation():
    with pytest.raises(DataError):
        make_run([1.0], [1.0, 2.0])
    day = np.datetime64("1988-01-01")
    duplicates = (
        (dt.date(1988, 1, 1), dt.date(1988, 1, 1)),
        np.array(["NaT", "NaT"], dtype="datetime64[D]"),
        day + np.array([2, 0, 2, 1]),  # unsorted, one day repeated
    )
    for days in duplicates:
        with pytest.raises(DataError, match="duplicate"):
            ForecastRun(days=days, measured=np.ones(len(days)), predicted=np.ones(len(days)))
    assert len(ForecastRun(days=day + np.arange(5)[::-1], measured=np.ones(5), predicted=np.ones(5))) == 5
    with pytest.raises(DataError):
        make_run([-1.0], [1.0])


# ---------------------------------------------------------------------------
# seasonal breakdown
# ---------------------------------------------------------------------------


def test_seasonal_partition_only_summer():
    run = make_run(np.ones(31) * 100, np.ones(31) * 110, start=dt.date(1988, 7, 1))
    out = seasonal_breakdown(run)
    assert set(out) == {"summer"}
    assert out["summer"].n == 31


def test_seasonal_uniform_error_same_rmse_everywhere():
    run = year_run(predicted_offset=25.0)
    out = seasonal_breakdown(run)
    assert set(out) == {"winter", "spring", "summer", "autumn"}
    for rep in out.values():
        assert rep.rmse == pytest.approx(25.0)
    assert sum(rep.n for rep in out.values()) == len(run)


def test_seasons_are_djf_mam_jja_son():
    """Each month lands in its meteorological season: December with the
    January and February of the same run, and March in spring."""
    out = seasonal_breakdown(year_run(predicted_offset=25.0))  # 1988, a leap year
    assert {season: rep.n for season, rep in out.items()} == {
        "winter": 31 + 29 + 31, "spring": 31 + 30 + 31, "summer": 30 + 31 + 31, "autumn": 30 + 31 + 30,
    }


def test_seasonal_detects_spring_noise_scaling():
    start = dt.date(1988, 1, 1)
    n = 366
    rng = np.random.default_rng(9)
    measured = np.full(n, 4000.0)
    noise = rng.standard_normal(n) * 100.0
    months = np.array([(start + dt.timedelta(days=i)).month for i in range(n)])
    spring = np.isin(months, (3, 4, 5))
    noise[spring] *= 2.0
    run = make_run(measured, measured + noise, start=start)
    out = seasonal_breakdown(run)
    ratio = out["spring"].rmse / np.mean(
        [out["winter"].rmse, out["summer"].rmse, out["autumn"].rmse]
    )
    assert ratio == pytest.approx(2.0, abs=0.35)


# ---------------------------------------------------------------------------
# monthly aggregate error
# ---------------------------------------------------------------------------


def test_monthly_perfect_forecast_is_zero():
    run = year_run(predicted_offset=0.0)
    assert monthly_aggregate_error(monthly_errors(run)) == 0.0


def test_monthly_constant_relative_bias():
    run = year_run()
    biased = make_run(run.measured, 1.04 * run.measured, start=run.days[0])
    assert monthly_aggregate_error(monthly_errors(biased)) == pytest.approx(4.0, rel=1e-9)


def test_monthly_cancellation_within_months():
    start = dt.date(1988, 1, 1)
    n = 366
    measured = np.full(n, 4000.0)
    signs = np.resize([1.0, -1.0], n)
    # each month has an even day count in 1988 except those with 31 days;
    # use paired +-100 within each month to cancel exactly
    offsets = np.zeros(n)
    months = np.array([(start + dt.timedelta(days=i)).month for i in range(n)])
    for mo in range(1, 13):
        idx = np.flatnonzero(months == mo)
        half = len(idx) // 2
        offsets[idx[:half]] = 100.0
        offsets[idx[half : 2 * half]] = -100.0
    run = make_run(measured, measured + offsets, start=start)
    assert monthly_aggregate_error(monthly_errors(run)) == pytest.approx(0.0, abs=1e-9)
    assert metrics(run).rmse > 0


def test_monthly_errors_of_an_unsorted_run_sum_each_month_in_run_order():
    """Each month's totals have the bits of summing its days in the order the
    run lists them, as a mask per ``np.unique`` key gives."""
    rng = np.random.default_rng(5)
    measured = rng.uniform(100.0, 9000.0, 731)
    ordered = make_run(measured, measured * rng.uniform(0.5, 1.5, 731), start=dt.date(1988, 1, 1))
    order = rng.permutation(len(ordered))
    run = ForecastRun(ordered.days[order], ordered.measured[order], ordered.predicted[order])
    years, months, _ = calendar(run.days)
    keys = years * 12 + (months - 1)
    expected = {}
    for key in np.unique(keys):
        total_m = float(np.sum(run.measured[keys == key]))
        total_c = float(np.sum(run.predicted[keys == key]))
        expected[(int(key // 12), int(key % 12) + 1)] = (100.0 * abs(total_c - total_m) / total_m).hex()
    assert {month: pct.hex() for month, pct in monthly_errors(run).items()} == expected
    assert len(expected) == 24


def test_monthly_skips_zero_measured_month():
    start = dt.date(1988, 1, 1)
    measured = np.concatenate([np.zeros(31), np.full(29, 100.0)])
    predicted = measured + 1.0
    run = make_run(measured, predicted, start=start)
    with pytest.warns(UserWarning, match="zero measured total"):
        table = monthly_errors(run)
    assert (1988, 1) not in table and (1988, 2) in table


# ---------------------------------------------------------------------------
# confidence intervals
# ---------------------------------------------------------------------------


def report(**kw):
    base = dict(rmse=1.0, nrmse=0.2, mbe=0.0, r_squared=0.8, n=100)
    base.update(kw)
    return MetricsReport(**base)


def test_ci_identical_runs_zero_half_width():
    out = confidence_interval([report(), report(), report()])
    assert out.half_widths["nrmse"] == pytest.approx(0.0, abs=1e-15)
    assert out.means["nrmse"] == pytest.approx(0.2)
    exact = confidence_interval([report(nrmse=0.25), report(nrmse=0.25)])
    assert exact.half_widths["nrmse"] == 0.0


def test_ci_two_runs_hand_computed():
    out = confidence_interval([report(nrmse=0.20), report(nrmse=0.22)])
    # s = 0.014142, t_{0.975,1} = 12.7062, hw = 12.7062 * s / sqrt(2) = 0.12706
    assert out.means["nrmse"] == pytest.approx(0.21)
    assert out.half_widths["nrmse"] == pytest.approx(0.12706, abs=1e-4)


def test_ci_ten_runs_uses_t_975_9():
    values = np.linspace(0.19, 0.21, 10)
    out = confidence_interval([report(nrmse=v) for v in values])
    s = np.std(values, ddof=1)
    assert out.half_widths["nrmse"] == pytest.approx(2.2622 * s / math.sqrt(10), abs=1e-4)
    assert out.n_runs == 10


def test_ci_t_critical_equals_scipy_stats_t_ppf(monkeypatch):
    from scipy.stats import t

    used = []
    t_critical = evaluation._t_critical

    def recording_t_critical(df):
        used.append(t_critical(df))
        return used[-1]

    monkeypatch.setattr(evaluation, "_t_critical", recording_t_critical)
    rng = np.random.default_rng(5)
    for df in range(1, 201):
        values = rng.uniform(0.1, 0.3, df + 1)
        out = confidence_interval([report(nrmse=v) for v in values])
        t_ppf = float(t.ppf(0.975, df))
        assert used[-1] == t_ppf, df
        # the half-width formula is unchanged, so the CI is bitwise the same
        assert out.half_widths["nrmse"] == t_ppf * float(values.std(ddof=1)) / np.sqrt(df + 1), df


def test_ci_requires_two_runs():
    with pytest.raises(DataError):
        confidence_interval([report()])


# ---------------------------------------------------------------------------
# model comparison
# ---------------------------------------------------------------------------


def test_compare_single_model():
    run = year_run(predicted_offset=10.0)
    rows = compare_models({"only": run})
    assert len(rows) == 1 and rows[0][0] == "only"


def test_compare_monotone_in_per_day_error():
    base = year_run()
    better = make_run(base.measured, base.measured + 5.0, start=base.days[0], model_id="a")
    worse = make_run(base.measured, base.measured + 50.0, start=base.days[0], model_id="b")
    rows = dict(compare_models({"a": better, "b": worse}))
    assert rows["a"] < rows["b"]


def test_compare_rejects_mismatched_days():
    a = year_run(year=1988)
    b = year_run(year=1989)
    with pytest.raises(DataError, match="day sets"):
        compare_models({"a": a, "b": b})


def test_compare_matches_day_sets_not_sizes_or_order():
    a = year_run(predicted_offset=10.0, year=1989)
    shifted = make_run(a.measured, a.predicted, start=dt.date(1990, 1, 1))  # 365 days as well
    with pytest.raises(DataError, match="day sets"):
        compare_models({"a": a, "b": shifted})
    reversed_run = ForecastRun(days=a.days[::-1], measured=a.measured[::-1], predicted=a.predicted[::-1])
    assert [model_id for model_id, _ in compare_models({"a": a, "r": reversed_run})] == ["a", "r"]
    one_day_off = ForecastRun(days=np.append(a.days[:0:-1], np.datetime64("1990-01-01")),
                              measured=a.measured, predicted=a.predicted)
    with pytest.raises(DataError, match="day sets"):
        compare_models({"r": reversed_run, "o": one_day_off})


def test_pooled_metrics_combine_by_counts():
    a = year_run(predicted_offset=20.0, year=1988)
    b = make_run(np.full(200, 3000.0), np.full(200, 3050.0), start=dt.date(1989, 1, 1))
    merged = make_run(
        np.concatenate([a.measured, b.measured]),
        np.concatenate([a.predicted, b.predicted]),
        start=a.days[0],
    )
    ra, rb, rm = metrics(a), metrics(b), metrics(merged)
    pooled_rmse = math.sqrt((ra.n * ra.rmse**2 + rb.n * rb.rmse**2) / (ra.n + rb.n))
    pooled_mbe = (ra.n * ra.mbe + rb.n * rb.mbe) / (ra.n + rb.n)
    assert rm.rmse == pytest.approx(pooled_rmse, rel=1e-12)
    assert rm.mbe == pytest.approx(pooled_mbe, rel=1e-12)
