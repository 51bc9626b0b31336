import ast
import datetime as dt
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solarcast import kernels, mlp
from solarcast.cli import main as cli_main
from solarcast.errors import ConfigError, DataError, NumericalError
from solarcast.mlp import (
    VAL_FRACTION,
    MlpBundle,
    Scaler,
    fit_scaler,
    init_mlp,
    jacobian,
    make_windows,
    train_lm,
)
from solarcast.model_io import save_forecaster
from solarcast.pipeline import fit_forecaster, forecast_one_step
from solarcast.preprocess import fit as fit_preprocessor
from solarcast.series import DailySeries, load_csv, write_csv

from oracles import bundle_of, finite_difference_jacobian, fresh_jacobian_train_lm, net_forward, train_mlp_parts

SRC = Path(__file__).resolve().parents[1] / "src" / "solarcast"


# ---------------------------------------------------------------------------
# windows + scaler
# ---------------------------------------------------------------------------


def test_make_windows_p8():
    inputs, targets = make_windows(np.arange(1.0, 11.0), p=8)
    assert len(targets) == 2
    np.testing.assert_array_equal(inputs[0], np.arange(1.0, 9.0))
    assert targets[0] == 9.0


def test_make_windows_p1():
    inputs, targets = make_windows(np.array([5.0, 6.0, 7.0]), p=1)
    np.testing.assert_array_equal(inputs.ravel(), [5.0, 6.0])
    np.testing.assert_array_equal(targets, [6.0, 7.0])


def test_make_windows_row_count_and_first_row():
    values = np.arange(1.0, 21.0)
    inputs, targets = make_windows(values, p=8)
    assert len(targets) == values.size - 8
    assert inputs[0].tolist() == list(np.arange(1.0, 9.0)) and targets[0] == 9.0


def test_make_windows_drops_rows_touching_gaps():
    values = np.arange(1.0, 21.0)
    values[10] = np.nan
    inputs, targets = make_windows(values, p=3)
    assert len(targets) == 20 - 3 - 4  # rows whose lags or target hit index 10
    assert np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))


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


def packed(w1, b1, w2, b2) -> np.ndarray:
    """The weights of each layer in the packed order ``[w1 row-major, b1, w2, b2]``."""
    return np.concatenate([np.ravel(w1), b1, w2, [b2]])


def test_forward_zero_weights_closed_form():
    theta = packed(np.zeros((3, 8)), np.zeros(3), np.full(3, 0.25), 1.5)
    # every hidden unit outputs exp(0) = 1
    assert net_forward(theta, 3, np.full(8, 0.3)) == pytest.approx(1.5 + 3 * 0.25)


def test_gaussian_activation_values():
    for a, expected in ((0.0, 1.0), (1.0, math.exp(-1.0))):
        theta = packed([[1.0]], [a], [1.0], 0.0)
        assert net_forward(theta, 1, np.array([0.0])) == pytest.approx(expected, rel=1e-15)


def test_forward_matches_scalar_reimplementation():
    """The forward pass reads the packed weights in the order w1 row-major
    (w1[j, k] at j * 8 + k), b1, w2, b2."""
    theta = init_mlp(8, 3, seed=77)
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 8)
    expected = theta[30]
    for j in range(3):
        a = theta[24 + j] + sum(theta[j * 8 + k] * x[k] for k in range(8))
        expected += theta[27 + j] * math.exp(-a * a)
    assert net_forward(theta, 3, x) == pytest.approx(expected, rel=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    for seed in (0, 1, 2):
        theta = init_mlp(8, 3, seed=seed)
        x = rng.uniform(0, 1, (10, 8))
        analytic = jacobian(theta, 3, x)
        numeric = finite_difference_jacobian(theta, 3, x)
        assert np.max(np.abs(analytic - numeric)) < 1e-5


def test_jacobian_output_bias_column_is_one():
    jac = jacobian(np.zeros(31), 3, np.ones((4, 8)))
    np.testing.assert_array_equal(jac[:, -1], 1.0)


def test_jacobian_duplicate_rows_duplicate():
    theta = init_mlp(8, 3, seed=9)
    row = np.linspace(0, 1, 8)
    jac = jacobian(theta, 3, np.stack([row, row]))
    np.testing.assert_array_equal(jac[0], jac[1])


def test_jacobian_overflow_is_no_warning_and_a_non_finite_one_an_error():
    """Huge inputs overflow a^2 inside the kernel, yet every hidden unit is
    exp(-inf) = 0 and the Jacobian is finite: no warning leaks (the suite
    turns a RuntimeWarning into an error). An infinite input makes it
    non-finite, which is a NumericalError."""
    theta = init_mlp(8, 3, seed=0)
    assert np.isfinite(jacobian(theta, 3, np.full((2, 8), 1e200))).all()
    rows = np.full((2, 8), 0.5)
    rows[1, 3] = np.inf
    with pytest.raises(NumericalError, match="^the Jacobian is not finite$"):
        jacobian(theta, 3, rows)


def test_layers_view_the_packed_weights():
    """``_layers`` reads ``[w1 row-major, b1, w2, b2]`` without copying, and
    refuses a vector of another size than n_hidden * (p + 2) + 1."""
    theta = init_mlp(5, 4, seed=3)
    w1, b1, w2, b2 = mlp._layers(theta, 4, 5)
    np.testing.assert_array_equal(packed(w1, b1, w2, b2), theta)
    assert w1.shape == (4, 5) and w1.flags.c_contiguous and all(np.shares_memory(v, theta) for v in (w1, b1, w2))
    assert isinstance(b2, float)
    for m, p in ((4, 4), (3, 5)):
        with pytest.raises(DataError, match=f"expected {m * (p + 2) + 1} weights for {m} hidden units of {p} inputs"):
            mlp._layers(theta, m, p)
    with pytest.raises(DataError, match="expected 29 weights for 4 hidden units of 5 inputs, got 20"):
        jacobian(theta[:20], 4, np.ones((2, 5)))
    with pytest.raises(DataError, match="expected 25 weights for 4 hidden units of 4 inputs, got 29"):
        train_lm(theta, 4, np.ones((5, 4)), np.ones(5), max_epochs=0, max_fail=5)


def packed_weight_readers() -> set[str]:
    """``<module>.<qualified function>`` of each place in ``src/solarcast``
    that subscripts a name or attribute called ``theta`` or ``*_theta``."""
    owners = set()

    def visit(node, module: str, scope: tuple):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Subscript):
                named = getattr(child.value, "id", None) or getattr(child.value, "attr", None) or ""
                if named == "theta" or named.endswith("_theta"):
                    owners.add(".".join((module, *scope)))
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, module, scope + (child.name,) if defines else scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return owners


def test_packed_weights_are_read_in_one_place():
    """Only ``mlp._layers`` subscripts the packed MLP weights; every other
    reader takes its views. ``kernels.arma_residuals`` subscripts its MA
    coefficients, which ARMA notation calls theta."""
    owners = packed_weight_readers()
    assert "mlp._layers" in owners
    assert owners <= {"mlp._layers", "kernels.arma_residuals"}, owners


def test_layout_validation():
    with pytest.raises(ConfigError):
        init_mlp(0, 3, seed=0)
    assert init_mlp(8, 3, seed=0).size == 31


# ---------------------------------------------------------------------------
# Levenberg-Marquardt training
# ---------------------------------------------------------------------------


def linear_dataset(n=500, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 8))
    y = 0.3 * x[:, 0] + 0.1
    return x, y


def test_lm_solves_noise_free_linear_target():
    x, y = linear_dataset()
    theta = init_mlp(8, 3, seed=0)
    trained, history = train_lm(theta, 3, x, y, max_epochs=200, max_fail=5)
    assert history.train_mse[-1] < 1e-6


def test_lm_accepted_steps_never_increase_train_mse():
    x, y = linear_dataset(seed=8)
    theta = init_mlp(8, 3, seed=4)
    _, history = train_lm(theta, 3, x, y, max_epochs=100, max_fail=5)
    diffs = np.diff(history.train_mse)
    assert np.all(diffs <= 0)
    assert all(1e-12 <= lam <= 1e12 for lam in history.lam)


def test_lm_zero_epochs_returns_initial_weights():
    x, y = linear_dataset()
    theta = init_mlp(8, 3, seed=1)
    trained, history = train_lm(theta, 3, x, y, max_epochs=0, max_fail=5)
    np.testing.assert_array_equal(trained, theta)
    assert history.train_mse == []
    assert history.stop_reason == "max_epochs"
    assert history.best_epoch == -1


def test_lm_is_deterministic():
    x, y = linear_dataset(seed=6)
    a, _ = train_lm(init_mlp(8, 3, seed=2), 3, x, y, max_epochs=50, max_fail=5)
    b, _ = train_lm(init_mlp(8, 3, seed=2), 3, x, y, max_epochs=50, max_fail=5)
    np.testing.assert_array_equal(a, b)


def test_lm_early_stopping_on_noisy_validation():
    rng = np.random.default_rng(10)
    x = rng.uniform(0, 1, (500, 8))
    y = 0.3 * x[:, 0] + 0.1
    y[-100:] = rng.uniform(0, 1, 100)  # validation tail is pure noise
    theta = init_mlp(8, 3, seed=0)
    trained, history = train_lm(theta, 3, x, y, max_epochs=1000, max_fail=5)
    assert history.stop_reason == "max_fail"
    best = min(history.val_mse)
    assert all(v >= best for v in history.val_mse[-5:])
    assert history.val_mse[history.best_epoch] == best
    # the returned weights are the best-validation snapshot, not the last step
    n_val = 100
    val_pred = net_forward(trained, 3, x[-n_val:])
    assert np.mean((val_pred - y[-n_val:]) ** 2) == pytest.approx(best, rel=1e-12)


def test_lm_aborts_on_nonfinite_loss():
    theta = init_mlp(8, 3, seed=0)
    with pytest.raises(NumericalError, match="non-finite training loss"):
        train_lm(theta, 3, np.full((20, 8), 1e300), np.full(20, 1e300), max_epochs=5, max_fail=5)


def lm_cases(synth_19y):
    """(name, packed weights, hidden units, scaled (inputs, targets),
    max_epochs, max_fail) of runs that stop every way the LM stops, at
    several seeds and hidden sizes."""
    train = synth_19y.slice_years(1971, 1976)
    inputs, targets = make_windows(train.values, p=8)
    scaler = fit_scaler(inputs, targets)
    scaled = scaler.scale_inputs(inputs), scaler.scale_target(targets)
    rng = np.random.default_rng(12)
    noise = rng.uniform(0, 1, (300, 8)), rng.uniform(0, 1, 300)
    four = scaled[0][:4], scaled[1][:4]  # int(4 * 0.2) = 0 validate
    cases = [(f"seed{seed}-h{m}", init_mlp(8, m, seed), m, scaled, 60, 5) for seed in (0, 3) for m in (1, 3, 7)]
    cases += [("noise-h1", init_mlp(8, 1, 1), 1, noise, 200, 1000), ("no-val-h3", init_mlp(8, 3, 2), 3, four, 50, 5),
              ("linear-h3", init_mlp(8, 3, 0), 3, linear_dataset(), 100, 5)]
    return cases


def test_lm_on_per_fit_buffers_equals_a_fresh_jacobian_every_epoch(synth_19y, monkeypatch):
    """``train_lm`` refills one set of Jacobian buffers per fit; its weights and
    history equal, bit for bit, the former loop that built a fresh row-major
    Jacobian every epoch. The cases reject steps, run without validation rows
    and stop at max_fail, at max_epochs and at the damping ceiling."""
    trials = []
    forward = kernels.mlp_forward
    monkeypatch.setattr(kernels, "mlp_forward", lambda *a: trials.append(a[4].shape[0]) or forward(*a))
    stops, rejected = set(), set()
    for name, theta, m, (x, y), max_epochs, max_fail in lm_cases(synth_19y):
        trials.clear()
        got, history = train_lm(theta, m, x, y, max_epochs=max_epochs, max_fail=max_fail)
        n_tr = len(y) - int(len(y) * VAL_FRACTION)
        if trials.count(n_tr) > len(history.train_mse):
            rejected.add(name)
        expected, expected_history = fresh_jacobian_train_lm(theta, m, x, y, max_epochs=max_epochs,
                                                             max_fail=max_fail)
        assert got.tobytes() == expected.tobytes(), name
        assert history == expected_history, name
        stops.add(history.stop_reason)
    assert {"max_fail", "max_epochs", "lambda_ceiling"} <= stops, stops
    assert rejected, "no case rejected a step"


def test_lm_kernel_calls_are_what_the_benchmark_tracer_counts(synth_19y, monkeypatch):
    """One ``mlp_forward_jacobian`` per epoch, with the training rows as its
    fifth argument, and one ``mlp_forward`` per trial step (each solved
    damped system) plus one per validation: the counts behind ``mlp.epochs``
    and ``mlp.lm_accept_ratio``."""
    calls = []
    for owner, name in ((kernels, "mlp_forward"), (kernels, "mlp_forward_jacobian"), (np.linalg, "solve")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _f=original, _n=name: calls.append((_n, a)) or _f(*a))
    for name, theta, m, (x, y), max_epochs, max_fail in lm_cases(synth_19y):
        calls.clear()
        _, history = train_lm(theta, m, x, y, max_epochs=max_epochs, max_fail=max_fail)
        n_tr = len(y) - int(len(y) * VAL_FRACTION)
        epochs = len(history.train_mse)
        rows = {kernel: [a[4].shape[0] for k, a in calls if k == kernel]
                for kernel in ("mlp_forward", "mlp_forward_jacobian")}
        ended_in_epoch = history.stop_reason in ("min_gradient", "lambda_ceiling")
        assert rows["mlp_forward_jacobian"] == [n_tr] * (epochs + ended_in_epoch), name
        trials = sum(k == "solve" for k, _ in calls)
        validations = epochs if n_tr < len(y) else 0
        assert sorted(rows["mlp_forward"]) == sorted([n_tr] * trials + [len(y) - n_tr] * validations), name


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
    theta, scaler, history = train_mlp_parts(train, params, seed)
    bundle = MlpBundle(**params, seed=seed).fit(train)
    np.testing.assert_array_equal(bundle.theta, theta)
    assert bundle.seed == seed
    np.testing.assert_array_equal(bundle.scaler.mins, scaler.mins)
    np.testing.assert_array_equal(bundle.scaler.maxs, scaler.maxs)
    assert bundle.history == history and len(history.train_mse) > 1


@pytest.mark.parametrize("gaps", [False, True])
def test_n_hidden_bound_counts_windows_left_after_gaps(gaps, synth_19y):
    """``n_hidden``'s n_hidden * 10 + 1 weights (8 lags) may be as many as the
    LM training rows: the windows that touch no missing value, less the
    trailing validation share. One unit more is a config error naming both
    counts."""
    train = synth_19y.slice_years(1971, 1973)
    train = with_gaps(train) if gaps else train
    windows = len(make_windows(train.values, p=8)[1])
    assert windows == len(train) - 8 - (11 + 9 + 9 if gaps else 0)  # d missing days in a row hold 8 + d windows
    n_tr = windows - int(windows * VAL_FRACTION)
    bound = (n_tr - 1) // 10
    assert (windows, n_tr, bound) == ((1059, 848, 84) if gaps else (1088, 871, 87))
    model = fit_forecaster("mlp", {"n_hidden": bound, "max_epochs": 1}, 0, train)
    assert model.n_hidden == bound and model.theta.size == bound * 10 + 1 and len(model.history.train_mse) == 1
    message = (f"'n_hidden': {bound + 1} exceeds the {bound} hidden units whose 10*n_hidden + 1 weights fit"
               f" the {n_tr} LM training rows of the {windows} training windows")
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
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
    theta = init_mlp(8, 3, seed=12)
    scaler = fit_scaler(*make_windows(values, 8))
    target = dt.date(1980, 1, 21)
    out = predict_wh(bundle_of(theta, 3, scaler), None, history, [target])
    i = history.index_of(target)
    lags = values[i - 8 : i]
    expected = scaler.unscale_target(net_forward(theta, 3, scaler.scale_inputs(lags)))
    assert out[0] == pytest.approx(expected)


def test_predict_series_oracle_weights_on_noise_free_synthetic(site, synth_noise_free):
    # Constant-output network tuned to the constant corrected level predicts
    # the measured series exactly after inversion.
    p = fit_preprocessor(synth_noise_free, site)
    corrected = p.apply(synth_noise_free)
    level = float(corrected.values[0])
    theta = packed(np.zeros((3, 8)), np.zeros(3), np.zeros(3), level)
    days = [dt.date(1972, 3, 1) + dt.timedelta(days=k) for k in range(50)]
    bundle = bundle_of(theta, 3, identity_scaler())
    out = predict_wh(bundle, p, synth_noise_free, days)
    measured = np.array([synth_noise_free.values[synth_noise_free.index_of(d)] for d in days])
    np.testing.assert_allclose(out, measured, rtol=1e-6)


def test_predict_series_no_lookahead(site, synth_19y):
    p = fit_preprocessor(synth_19y.slice_years(1971, 1987), site)
    bundle = bundle_of(init_mlp(8, 3, seed=5), 3, identity_scaler())
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
    theta = packed(np.zeros((3, 8)), np.zeros(3), np.zeros(3), -5.0)
    model = tmp_path / "model.txt"
    save_forecaster(model, bundle_of(theta, 3, identity_scaler()))
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
    bundle = bundle_of(init_mlp(8, 3, seed=0), 3, identity_scaler())
    with pytest.raises(DataError, match="1980-01-05"):
        predict_wh(bundle, None, history, [dt.date(1980, 1, 5)])
