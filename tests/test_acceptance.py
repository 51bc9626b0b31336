"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Tolerances and runtime bounds are asserted, not advisory.
"""

import datetime as dt
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from solarcast import baselines, evaluation, preprocess
from solarcast.evaluation import ForecastRun, MetricsReport, confidence_interval, metrics
from solarcast.mlp import (
    init_mlp,
    jacobian,
    train_lm,
)
from solarcast.pipeline import forecast_one_step, train_mlp_bundle
from solarcast.series import DailySeries, SynthConfig, clean, generate_synthetic
from solarcast.solar import SiteSpec, daily_extraterrestrial
from solarcast.spectral import fisher_g_test, periodogram

from oracles import ar1_series, arma11_series, finite_difference_jacobian, h0_minute_integration, signed_series

SITE_LAT = 41.917


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:>2}: {description}")
        raise
    print(f"PASS  criterion {number:>2}: {description}")


def fresh_synth(seed, n_years=19):
    return generate_synthetic(SynthConfig(n_years=n_years, latitude_deg=SITE_LAT, seed=seed))


def test_criterion_01_roundtrip():
    with criterion(1, "preprocessing round-trip < 1e-9 relative, < 1 s"):
        series = fresh_synth(7)
        site = SiteSpec.from_degrees(SITE_LAT)
        p = preprocess.fit(series, site)
        t0 = time.monotonic()
        corrected = p.apply(series)
        back = corrected.with_values(p.invert(corrected.values, corrected.dates()))
        elapsed = time.monotonic() - t0
        rel = np.abs(back.values - series.values) / series.values
        assert rel.max() < 1e-9
        assert elapsed < 1.0


def test_criterion_02_factor_normalization():
    with criterion(2, "mean of final seasonal factors = 1 within 1e-12 on every fit"):
        site = SiteSpec.from_degrees(SITE_LAT)
        for seed in (0, 1, 2):
            p = preprocess.fit(fresh_synth(seed), site)
            assert abs(p.factors.final.mean() - 1.0) < 1e-12
        for lat, years in ((25.0, 5), (55.0, 9)):
            series = generate_synthetic(SynthConfig(n_years=years, latitude_deg=lat, seed=3))
            p = preprocess.fit(series, SiteSpec.from_degrees(lat))
            assert abs(p.factors.final.mean() - 1.0) < 1e-12


def test_criterion_03_spectral_flattening():
    with criterion(3, "365-day ordinate < 10% after correction, Fisher g decreases, < 5 s"):
        t0 = time.monotonic()
        series = fresh_synth(7)
        site = SiteSpec.from_degrees(SITE_LAT)
        p = preprocess.fit(series, site)
        clearness = preprocess.clearness_index(series, p.h0)
        corrected = p.apply(series)
        pg_clear = periodogram(clearness.values)
        pg_corr = periodogram(corrected.values)
        k = round(pg_clear.n / 365)
        assert pg_corr.ordinates[k - 1] < 0.10 * pg_clear.ordinates[k - 1]
        assert fisher_g_test(pg_corr).g < fisher_g_test(pg_clear).g
        assert time.monotonic() - t0 < 5.0


def test_criterion_04_solar_geometry():
    with criterion(4, "H0 within 0.5% of 1-minute integration (100 samples); polar night = 0"):
        rng = np.random.default_rng(2026)
        checked = 0
        for _ in range(100):
            lat = rng.uniform(-60.0, 60.0)
            day = int(rng.integers(1, 366))
            site = SiteSpec.from_degrees(lat)
            h0 = daily_extraterrestrial(site, day)
            reference = h0_minute_integration(site.latitude, day)
            if h0 > 100.0:
                assert abs(h0 - reference) / reference < 0.005
                checked += 1
        assert checked >= 90
        assert daily_extraterrestrial(SiteSpec.from_degrees(80.0), 355) == 0.0
        assert daily_extraterrestrial(SiteSpec.from_degrees(-80.0), 172) == 0.0


def test_criterion_05_jacobian():
    with criterion(5, "analytic Jacobian vs central differences < 1e-5 (20 seeds x 10), < 10 s"):
        t0 = time.monotonic()
        worst = 0.0
        for seed in range(20):
            theta = init_mlp(8, 3, seed=seed)
            rng = np.random.default_rng(1000 + seed)
            x = rng.uniform(0.0, 1.0, (10, 8))
            deviation = np.max(np.abs(jacobian(theta, 3, x) - finite_difference_jacobian(theta, 3, x)))
            worst = max(worst, deviation)
        assert worst < 1e-5
        assert time.monotonic() - t0 < 10.0


def test_criterion_06_lm_contract():
    with criterion(6, "LM: monotone accepted steps; linear target MSE < 1e-6; max_fail stop"):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (500, 8))
        y = 0.3 * x[:, 0] + 0.1
        trained, history = train_lm(
            init_mlp(8, 3, seed=0), 3,
            x, y,
            max_epochs=200, max_fail=5,
        )
        assert history.train_mse[-1] < 1e-6
        assert len(history.train_mse) <= 200
        assert np.all(np.diff(history.train_mse) <= 0)

        noisy = y.copy()
        noisy[-100:] = rng.uniform(0, 1, 100)
        _, noisy_history = train_lm(
            init_mlp(8, 3, seed=0), 3,
            x, noisy,
            max_epochs=1000, max_fail=5,
        )
        assert noisy_history.stop_reason == "max_fail"
        best = min(noisy_history.val_mse)
        assert all(v >= best for v in noisy_history.val_mse[-5:])


def test_criterion_07_estimator_consistency():
    with criterion(7, "AR(1) phi=0.8 +- 0.03; ARMA(1,1) (0.6 +- 0.05, 0.3 +- 0.07), < 30 s"):
        t0 = time.monotonic()
        ar_model = baselines.ArModel(1).fit(signed_series(ar1_series(5000, 0.8, seed=11)))
        assert abs(ar_model.ar[0] - 0.8) <= 0.03
        arma_model = baselines.ArmaModel(1, 1).fit(signed_series(arma11_series(10_000, 0.6, 0.3, seed=21)))
        assert abs(arma_model.ar[0] - 0.6) <= 0.05
        assert abs(arma_model.ma[0] - 0.3) <= 0.07
        assert time.monotonic() - t0 < 30.0


def test_criterion_08_metrics_oracle():
    with criterion(8, "metrics match hand-computed cases to 1e-12; bias-variance identity"):
        def run_of(measured, predicted):
            days = tuple(dt.date(1988, 1, 1) + dt.timedelta(days=i) for i in range(len(measured)))
            return ForecastRun(days=days, measured=np.array(measured, float),
                               predicted=np.array(predicted, float))

        cases = [
            (run_of([1.0, 2.0], [1.0, 2.0]), (0.0, 0.0, 0.0, 1.0)),
            (run_of([1.0, 2.0], [11.0, 12.0]), (10.0, 10.0 / math.sqrt(2.5), 10.0, 1.0)),
            (run_of([1.0, 1.0], [3.0, 5.0]), (math.sqrt(10.0), math.sqrt(10.0), 3.0, None)),
            (run_of([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]),
             (math.sqrt(14.0 / 3.0), 1.0, 2.0, 1.0)),
            (run_of([1.0, 2.0, 1.0, 2.0], [2.0, 1.0, 2.0, 1.0]),
             (1.0, 1.0 / math.sqrt(2.5), 0.0, 1.0)),
        ]
        for run, (rmse, nrmse, mbe, r2) in cases:
            rep = metrics(run)
            assert abs(rep.rmse - rmse) < 1e-12
            assert abs(rep.nrmse - nrmse) < 1e-12
            assert abs(rep.mbe - mbe) < 1e-12
            if r2 is None:
                assert math.isnan(rep.r_squared)
            else:
                assert abs(rep.r_squared - r2) < 1e-12

        rng = np.random.default_rng(5)
        m = rng.uniform(100, 200, 400)
        c = m + rng.normal(3, 12, 400)
        rep = metrics(run_of(m, c))
        identity = rep.mbe**2 + np.var(c - m)
        assert abs(rep.rmse**2 - identity) / identity < 1e-9


def test_criterion_09_table1_ordering():
    with criterion(9, "nRMSE ordering pre <= nopre and pre < naive for >= 8/10 seeds, < 10 min"):
        t0 = time.monotonic()
        site = SiteSpec.from_degrees(SITE_LAT)
        pre_vs_nopre = 0
        pre_vs_naive = 0
        for i in range(10):
            seed = 100 + i
            cleaned, _ = clean(fresh_synth(seed), site)
            train = cleaned.slice_years(1971, 1987)
            test = cleaned.slice_years(1988, 1989)
            days = test.dates()
            measured = test.values

            naive = baselines.NaiveModel().fit(train)
            pred_naive = forecast_one_step(naive, cleaned, days)

            p = preprocess.fit(train, site)
            corrected = p.apply(cleaned)
            bundle, _ = train_mlp_bundle(corrected.slice_years(1971, 1987), {"seed": seed}, seed)
            pred_pre = np.maximum(p.invert(forecast_one_step(bundle, corrected, days), days), 0.0)

            bundle_raw, _ = train_mlp_bundle(train, {"seed": seed}, seed)
            pred_raw = np.maximum(forecast_one_step(bundle_raw, cleaned, days), 0.0)

            def nrmse(pred):
                run = ForecastRun(days=tuple(days), measured=measured, predicted=pred)
                return metrics(run).nrmse

            n_pre, n_raw, n_naive = nrmse(pred_pre), nrmse(pred_raw), nrmse(pred_naive)
            pre_vs_nopre += n_pre <= n_raw
            pre_vs_naive += n_pre < n_naive
        assert pre_vs_nopre >= 8, f"pre <= nopre held for only {pre_vs_nopre}/10 seeds"
        assert pre_vs_naive >= 8, f"pre < naive held for only {pre_vs_naive}/10 seeds"
        assert time.monotonic() - t0 < 600.0


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "pipeline predictions.csv bitwise-identical across runs and thread counts"):
        cfg = {
            "latitude_deg": SITE_LAT,
            "synth": {"n_years": 8, "seed": 4},
            "train_years": [1971, 1976],
            "test_years": [1977, 1978],
            "model": "mlp",
            "model_params": {"max_epochs": 80},
            "preprocess": True,
            "seed": 9,
        }

        def run(outdir, threads):
            config = dict(cfg, outdir=str(tmp_path / outdir))
            path = tmp_path / f"{outdir}.json"
            path.write_text(json.dumps(config))
            env = dict(os.environ)
            env["OMP_NUM_THREADS"] = str(threads)
            env["OPENBLAS_NUM_THREADS"] = str(threads)
            result = subprocess.run(
                [sys.executable, "-m", "solarcast.cli", "run", "--config", str(path)],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
            return (tmp_path / outdir / "predictions.csv").read_bytes()

        first = run("a", 1)
        second = run("b", 1)
        third = run("c", 4)
        assert first == second
        assert first == third


def test_criterion_11_confidence_intervals():
    with criterion(11, "Student-t confidence intervals match hand values to 1e-4"):
        def rep(nrmse):
            return MetricsReport(rmse=1.0, nrmse=nrmse, mbe=0.0, r_squared=0.8, n=10)

        two = confidence_interval([rep(0.20), rep(0.22)])
        assert abs(two.means["nrmse"] - 0.21) < 1e-12
        assert abs(two.half_widths["nrmse"] - 0.12706) < 1e-4

        values = np.linspace(0.19, 0.21, 10)
        ten = confidence_interval([rep(v) for v in values])
        s = float(np.std(values, ddof=1))
        expected = 2.2622 * s / math.sqrt(10)
        assert abs(ten.half_widths["nrmse"] - expected) < 1e-4
        assert ten.n_runs == 10
