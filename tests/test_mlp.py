import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarcast.cli import main as cli_main
from solarcast.errors import ConfigError, DataError, NumericalError
from solarcast.mlp import (
    LmConfig,
    Mlp,
    MlpBundle,
    MlpLayout,
    Scaler,
    WindowDataset,
    fit_scaler,
    forward,
    init_mlp,
    jacobian,
    make_windows,
    pack_params,
    scale_windows,
    train_lm,
    unpack_params,
)
from solarcast.model_io import save_forecaster
from solarcast.pipeline import fit_forecaster, forecast_one_step
from solarcast.preprocess import fit as fit_preprocessor
from solarcast.series import DailySeries, load_csv, write_csv

from oracles import bundle_of, finite_difference_jacobian, train_mlp_parts


# ---------------------------------------------------------------------------
# windows + scaler
# ---------------------------------------------------------------------------


def test_make_windows_p8():
    data = make_windows(np.arange(1.0, 11.0), p=8)
    assert len(data) == 2
    np.testing.assert_array_equal(data.inputs[0], np.arange(1.0, 9.0))
    assert data.targets[0] == 9.0


def test_make_windows_p1():
    data = make_windows(np.array([5.0, 6.0, 7.0]), p=1)
    np.testing.assert_array_equal(data.inputs.ravel(), [5.0, 6.0])
    np.testing.assert_array_equal(data.targets, [6.0, 7.0])


def test_make_windows_row_count_and_first_row():
    series = DailySeries(dt.date(1980, 1, 1), np.arange(1.0, 21.0))
    data = make_windows(series, p=8)
    assert len(data) == len(series) - 8
    assert data.inputs[0].tolist() == list(np.arange(1.0, 9.0)) and data.targets[0] == 9.0


def test_make_windows_drops_rows_touching_gaps():
    values = np.arange(1.0, 21.0)
    values[10] = np.nan
    data = make_windows(values, p=3)
    assert len(data) == 20 - 3 - 4  # rows whose lags or target hit index 10
    assert np.all(np.isfinite(data.inputs)) and np.all(np.isfinite(data.targets))


def test_make_windows_too_short():
    with pytest.raises(DataError):
        make_windows(np.arange(5.0), p=8)


def test_scaler_basics():
    scaler = Scaler(mins=np.array([0.0, 0.0]), maxs=np.array([2.0, 2.0]))
    assert scaler.scale_inputs(np.array([[1.0]]))[0, 0] == 0.5
    assert scaler.scale_target(0.0) == 0.0
    assert scaler.scale_target(2.0) == 1.0
    assert scaler.scale_target(3.0) == 1.5  # outside the range, no clamping


def test_scaler_constant_channel_errors():
    with pytest.raises(DataError):
        fit_scaler(np.array([[1.0], [1.0]]), np.array([0.0, 1.0]))


@settings(max_examples=30, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e6))
def test_scaler_roundtrip(lo, width):
    scaler = Scaler(mins=np.array([lo]), maxs=np.array([lo + width]))
    y = lo + width * 0.37
    assert scaler.unscale_target(scaler.scale_target(y)) == pytest.approx(y, rel=1e-12, abs=1e-9)


# ---------------------------------------------------------------------------
# forward + jacobian
# ---------------------------------------------------------------------------


def test_forward_zero_weights_closed_form():
    layout = MlpLayout(n_inputs=8, n_hidden=3)
    net = Mlp(layout=layout, w1=np.zeros((3, 8)), b1=np.zeros(3), w2=np.full(3, 0.25), b2=1.5)
    # every hidden unit outputs exp(0) = 1
    assert forward(net, np.full(8, 0.3)) == pytest.approx(1.5 + 3 * 0.25)


def test_gaussian_activation_values():
    layout = MlpLayout(n_inputs=1, n_hidden=1)
    for a, expected in ((0.0, 1.0), (1.0, math.exp(-1.0))):
        net = Mlp(layout=layout, w1=np.array([[1.0]]), b1=np.array([a]),
                  w2=np.array([1.0]), b2=0.0)
        assert forward(net, np.array([0.0])) == pytest.approx(expected, rel=1e-15)


def test_forward_matches_scalar_reimplementation():
    net = init_mlp(MlpLayout(), seed=77)
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 8)
    expected = net.b2
    for j in range(3):
        a = net.b1[j] + sum(net.w1[j, k] * x[k] for k in range(8))
        expected += net.w2[j] * math.exp(-a * a)
    assert forward(net, x) == pytest.approx(expected, rel=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for seed in (0, 1, 2):
        net = init_mlp(MlpLayout(), seed=seed)
        x = rng.uniform(0, 1, (10, 8))
        analytic = jacobian(net, x)
        numeric = finite_difference_jacobian(net, x)
        assert np.max(np.abs(analytic - numeric)) < 1e-5


def test_jacobian_output_bias_column_is_one():
    layout = MlpLayout()
    net = Mlp(layout=layout, w1=np.zeros((3, 8)), b1=np.zeros(3), w2=np.zeros(3), b2=0.0)
    jac = jacobian(net, np.ones((4, 8)))
    np.testing.assert_array_equal(jac[:, -1], 1.0)


def test_jacobian_duplicate_rows_duplicate():
    net = init_mlp(MlpLayout(), seed=9)
    row = np.linspace(0, 1, 8)
    jac = jacobian(net, np.stack([row, row]))
    np.testing.assert_array_equal(jac[0], jac[1])


def test_pack_unpack_roundtrip():
    net = init_mlp(MlpLayout(n_inputs=5, n_hidden=4), seed=3)
    again = unpack_params(net.layout, pack_params(net), net.seed)
    np.testing.assert_array_equal(net.w1, again.w1)
    np.testing.assert_array_equal(net.b1, again.b1)
    np.testing.assert_array_equal(net.w2, again.w2)
    assert net.b2 == again.b2


def test_layout_validation():
    with pytest.raises(ConfigError):
        MlpLayout(n_inputs=0)
    assert MlpLayout(n_inputs=8, n_hidden=3).n_params == 31


# ---------------------------------------------------------------------------
# Levenberg-Marquardt training
# ---------------------------------------------------------------------------


def linear_dataset(n=500, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 8))
    y = 0.3 * x[:, 0] + 0.1
    return WindowDataset(inputs=x, targets=y)


def test_lm_solves_noise_free_linear_target():
    data = linear_dataset()
    net = init_mlp(MlpLayout(), seed=0)
    trained, history = train_lm(net, data, LmConfig(max_epochs=200))
    assert history.train_mse[-1] < 1e-6


def test_lm_accepted_steps_never_increase_train_mse():
    data = linear_dataset(seed=8)
    net = init_mlp(MlpLayout(), seed=4)
    _, history = train_lm(net, data, LmConfig(max_epochs=100))
    diffs = np.diff(history.train_mse)
    assert np.all(diffs <= 0)
    assert all(1e-12 <= lam <= 1e12 for lam in history.lam)


def test_lm_zero_epochs_returns_initial_weights():
    data = linear_dataset()
    net = init_mlp(MlpLayout(), seed=1)
    trained, history = train_lm(net, data, LmConfig(max_epochs=0))
    np.testing.assert_array_equal(pack_params(trained), pack_params(net))
    assert history.train_mse == []
    assert history.stop_reason == "max_epochs"


def test_lm_is_deterministic():
    data = linear_dataset(seed=6)
    a, _ = train_lm(init_mlp(MlpLayout(), seed=2), data, LmConfig(max_epochs=50))
    b, _ = train_lm(init_mlp(MlpLayout(), seed=2), data, LmConfig(max_epochs=50))
    np.testing.assert_array_equal(pack_params(a), pack_params(b))


def test_lm_early_stopping_on_noisy_validation():
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, (500, 8))
    y = 0.3 * x[:, 0] + 0.1
    y[-100:] = rng.uniform(0, 1, 100)  # validation tail is pure noise
    data = WindowDataset(inputs=x, targets=y)
    net = init_mlp(MlpLayout(), seed=0)
    trained, history = train_lm(net, data, LmConfig(max_epochs=1000, max_fail=5))
    assert history.stop_reason == "max_fail"
    best = min(history.val_mse)
    assert all(v >= best for v in history.val_mse[-5:])
    assert history.val_mse[history.best_epoch] == best
    # the returned weights are the best-validation snapshot, not the last step
    n_val = 100
    val_pred = forward(trained, x[-n_val:])
    assert np.mean((val_pred - y[-n_val:]) ** 2) == pytest.approx(best, rel=1e-12)


def test_lm_aborts_on_nonfinite_loss():
    data = WindowDataset(inputs=np.full((20, 8), 1e300), targets=np.full(20, 1e300))
    net = init_mlp(MlpLayout(), seed=0)
    with pytest.raises(NumericalError, match="non-finite training loss"):
        train_lm(net, data, LmConfig(max_epochs=5))


def with_gaps(series):
    values = series.values.copy()
    values[[30, 31, 32, 400, 777]] = np.nan  # a three-day gap and two single days
    return series.with_values(values)


@pytest.mark.parametrize("gaps", [False, True])
@pytest.mark.parametrize("seed", [2, 5])
def test_mlp_bundle_fit_matches_its_former_training_path(seed, gaps, synth_19y):
    """``MlpBundle.fit`` trains the network the MLP's own path did before it
    fitted through the registry: bitwise the same weights, scaler and history."""
    train = synth_19y.slice_years(1971, 1976)
    train = with_gaps(train) if gaps else train
    params = {"n_hidden": 4, "max_epochs": 40}
    net, scaler, history = train_mlp_parts(train, params, seed)
    bundle = MlpBundle(**params, seed=seed).fit(train)
    for name in ("w1", "b1", "w2"):
        np.testing.assert_array_equal(getattr(bundle.mlp, name), getattr(net, name), err_msg=name)
    assert bundle.mlp.b2 == net.b2 and bundle.mlp.seed == net.seed == seed
    np.testing.assert_array_equal(bundle.scaler.mins, scaler.mins)
    np.testing.assert_array_equal(bundle.scaler.maxs, scaler.maxs)
    assert bundle.history == history and len(history.train_mse) > 1


@pytest.mark.parametrize("gaps", [False, True])
def test_n_hidden_bound_counts_windows_left_after_gaps(gaps, synth_19y):
    """``n_hidden`` may equal the training windows that touch no missing
    value; one more is a config error naming that count."""
    train = synth_19y.slice_years(1971, 1973)
    train = with_gaps(train) if gaps else train
    bound = len(make_windows(train, p=8))
    assert bound == len(train) - 8 - (11 + 9 + 9 if gaps else 0)  # d missing days in a row hold 8 + d windows
    model = fit_forecaster("mlp", {"n_hidden": bound, "max_epochs": 0}, 0, train)
    assert model.mlp.layout.n_hidden == bound
    with pytest.raises(ConfigError, match=f"'n_hidden': {bound + 1} exceeds the {bound} training windows$"):
        fit_forecaster("mlp", {"n_hidden": bound + 1, "max_epochs": 0}, 0, train)


# ---------------------------------------------------------------------------
# one-step prediction over a test span
# ---------------------------------------------------------------------------


def identity_scaler(n_channels=9):
    return Scaler(mins=np.zeros(n_channels), maxs=np.ones(n_channels))


def predict_wh(bundle, preprocessor, history, test_days):
    """The library's forecast path: corrected lags, one-step forecasts,
    then back to Wh/m^2 when a preprocessor is given."""
    working = preprocessor.apply(history) if preprocessor is not None else history
    preds = forecast_one_step(bundle, working, test_days)
    if preprocessor is not None:
        preds = preprocessor.invert(preds, test_days)
    return preds


def test_predict_series_alignment_uses_last_lags():
    values = np.linspace(100.0, 500.0, 30)
    history = DailySeries(dt.date(1980, 1, 1), values)
    net = init_mlp(MlpLayout(), seed=12)
    scaler = fit_scaler(*(lambda d: (d.inputs, d.targets))(make_windows(history, 8)))
    target = dt.date(1980, 1, 21)
    out = predict_wh(bundle_of(net, scaler), None, history, [target])
    i = history.index_of(target)
    lags = values[i - 8 : i]
    expected = scaler.unscale_target(forward(net, scaler.scale_inputs(lags)))
    assert out[0] == pytest.approx(expected)


def test_predict_series_oracle_weights_on_noise_free_synthetic(site, synth_noise_free):
    # Constant-output network tuned to the constant corrected level predicts
    # the measured series exactly after inversion.
    p = fit_preprocessor(synth_noise_free, site)
    corrected = p.apply(synth_noise_free)
    level = float(corrected.values[0])
    layout = MlpLayout()
    net = Mlp(layout=layout, w1=np.zeros((3, 8)), b1=np.zeros(3), w2=np.zeros(3), b2=level)
    days = [dt.date(1972, 3, 1) + dt.timedelta(days=k) for k in range(50)]
    bundle = bundle_of(net, identity_scaler())
    out = predict_wh(bundle, p, synth_noise_free, days)
    measured = np.array([synth_noise_free.values[synth_noise_free.index_of(d)] for d in days])
    np.testing.assert_allclose(out, measured, rtol=1e-6)


def test_predict_series_no_lookahead(site, synth_19y):
    p = fit_preprocessor(synth_19y.slice_years(1971, 1987), site)
    bundle = bundle_of(init_mlp(MlpLayout(), seed=5), identity_scaler())
    day = dt.date(1988, 6, 1)
    base = predict_wh(bundle, p, synth_19y, [day])
    tampered = synth_19y.values.copy()
    i = synth_19y.index_of(day)
    tampered[i:] = tampered[i:] * 0.5  # change the target day and beyond
    perturbed = DailySeries(synth_19y.start, tampered)
    after = predict_wh(bundle, p, perturbed, [day])
    assert after[0] == base[0]


def test_predict_series_clamps_negative_to_zero(tmp_path):
    # The network always outputs -5 Wh/m^2; `solarcast predict` writes 0.
    history = tmp_path / "history.csv"
    write_csv(DailySeries(dt.date(1979, 1, 1), np.linspace(100.0, 200.0, 731)), history)
    layout = MlpLayout()
    net = Mlp(layout=layout, w1=np.zeros((3, 8)), b1=np.zeros(3), w2=np.zeros(3), b2=-5.0)
    model = tmp_path / "model.txt"
    save_forecaster(model, bundle_of(net, identity_scaler()))
    out = tmp_path / "pred.csv"
    assert cli_main(["predict", "--model-file", str(model), "--history", str(history),
                     "--days", "1980:1980", "--out", str(out)]) == 0
    preds = load_csv(out).values
    assert preds.size == 366
    assert np.all(preds == 0.0)
    assert out.read_text().splitlines()[1] == "1980-01-01,0.000"


def test_predict_series_errors_name_the_day():
    values = np.linspace(100.0, 200.0, 10)
    history = DailySeries(dt.date(1980, 1, 1), values)
    bundle = bundle_of(init_mlp(MlpLayout(), seed=0), identity_scaler())
    with pytest.raises(DataError, match="1980-01-05"):
        predict_wh(bundle, None, history, [dt.date(1980, 1, 5)])
