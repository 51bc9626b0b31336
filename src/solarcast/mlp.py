"""Single-hidden-layer perceptron trained by Levenberg-Marquardt.

Architecture: p scaled lag inputs, a hidden layer of Gaussian units
g(a) = exp(-a^2), one linear output. Training solves the damped
Gauss-Newton step (J^T J + lambda I) d = -J^T r each epoch, accepting
the step only when the training MSE drops, with chronological 80/20
train/validation split and early stopping after ``max_fail`` epochs
without a new validation best.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, NumericalError
from .series import DailySeries

WEIGHT_INIT_HALF_RANGE = 0.5


@dataclass(frozen=True)
class MlpLayout:
    """Network sizes: n_inputs lag inputs, n_hidden Gaussian units, 1 output."""

    n_inputs: int = 8
    n_hidden: int = 3

    def __post_init__(self):
        if self.n_inputs < 1 or self.n_hidden < 1:
            raise ConfigError("layer sizes must be >= 1")

    @property
    def n_params(self) -> int:
        return self.n_hidden * self.n_inputs + 2 * self.n_hidden + 1


@dataclass(frozen=True)
class Mlp:
    """Weights of the two-layer network plus the seed that initialized them."""

    layout: MlpLayout
    w1: np.ndarray  # (n_hidden, n_inputs)
    b1: np.ndarray  # (n_hidden,)
    w2: np.ndarray  # (n_hidden,)
    b2: float
    seed: int = 0

    def __post_init__(self):
        m, p = self.layout.n_hidden, self.layout.n_inputs
        if self.w1.shape != (m, p) or self.b1.shape != (m,) or self.w2.shape != (m,):
            raise ConfigError("weight shapes do not match the layout")
        if not (
            np.all(np.isfinite(self.w1))
            and np.all(np.isfinite(self.b1))
            and np.all(np.isfinite(self.w2))
            and np.isfinite(self.b2)
        ):
            raise NumericalError("non-finite weights")


def init_mlp(layout: MlpLayout, seed: int = 0) -> Mlp:
    """Weights drawn uniformly from [-0.5, 0.5], reproducible from the seed."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-WEIGHT_INIT_HALF_RANGE, WEIGHT_INIT_HALF_RANGE, layout.n_params)
    return unpack_params(layout, theta, seed)


def pack_params(mlp: Mlp) -> np.ndarray:
    """Flatten to [w1 row-major, b1, w2, b2] (the Jacobian column order)."""
    return np.concatenate([mlp.w1.ravel(), mlp.b1, mlp.w2, [mlp.b2]])


def unpack_params(layout: MlpLayout, theta: np.ndarray, seed: int = 0) -> Mlp:
    m, p = layout.n_hidden, layout.n_inputs
    if theta.size != layout.n_params:
        raise ConfigError(f"expected {layout.n_params} parameters, got {theta.size}")
    w1 = theta[: m * p].reshape(m, p).copy()
    b1 = theta[m * p : m * p + m].copy()
    w2 = theta[m * p + m : m * p + 2 * m].copy()
    b2 = float(theta[-1])
    return Mlp(layout=layout, w1=w1, b1=b1, w2=w2, b2=b2, seed=seed)


def forward(mlp: Mlp, inputs) -> float | np.ndarray:
    """Network output for one input vector or a batch of rows."""
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != mlp.layout.n_inputs:
        raise DataError(f"expected {mlp.layout.n_inputs} inputs, got {x.shape[1]}")
    y = kernels.mlp_forward(mlp.w1, mlp.b1, mlp.w2, mlp.b2, x)
    return float(y[0]) if single else y


def jacobian(mlp: Mlp, batch) -> np.ndarray:
    """d(output)/d(theta) per sample; equals d(residual)/d(theta).

    Analytic differentiation of the forward pass with the Gaussian
    derivative g'(a) = -2 a exp(-a^2).
    """
    x = batch.inputs if isinstance(batch, WindowDataset) else np.asarray(batch)
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("jacobian needs a nonempty batch of input rows")
    if x.shape[1] != mlp.layout.n_inputs:
        raise DataError(f"expected {mlp.layout.n_inputs} inputs, got {x.shape[1]}")
    _, jac = kernels.mlp_forward_jacobian(mlp.w1, mlp.b1, mlp.w2, mlp.b2, x)
    return jac


# ---------------------------------------------------------------------------
# sliding windows + min-max scaling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowDataset:
    """Lag rows (oldest lag first) with the next value as target.

    ``days`` tags each target with its calendar date when the source had
    one, for inverting predictions later.
    """

    inputs: np.ndarray
    targets: np.ndarray
    days: tuple = ()

    def __len__(self) -> int:
        return self.targets.size


def make_windows(source, p: int = 8) -> WindowDataset:
    """Sliding windows: row t = (x_{t-p} .. x_{t-1}) -> x_t.

    Accepts a DailySeries (keeping day tags) or a plain sequence. Rows
    touching a missing value are dropped.
    """
    if isinstance(source, DailySeries):
        values = source.values
        all_days = source.dates()
    else:
        values = np.asarray(source, dtype=np.float64)
        all_days = None
    n = values.size
    if n <= p:
        raise DataError(f"need more than p={p} values, got {n}")
    inputs = np.lib.stride_tricks.sliding_window_view(values, p)[: n - p].copy()
    targets = values[p:].copy()
    keep = np.all(np.isfinite(inputs), axis=1) & np.isfinite(targets)
    days = ()
    if all_days is not None:
        days = tuple(d for d, k in zip(all_days[p:], keep) if k)
    return WindowDataset(inputs=inputs[keep], targets=targets[keep], days=days)


@dataclass(frozen=True)
class Scaler:
    """Per-channel min-max maps onto [0, 1]; the last channel is the target.

    Values outside the fitted range map linearly outside [0, 1].
    """

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if np.any(self.maxs <= self.mins):
            raise DataError("each channel needs max > min")

    def scale_inputs(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mins[:-1]) / (self.maxs[:-1] - self.mins[:-1])

    def scale_target(self, y):
        return (y - self.mins[-1]) / (self.maxs[-1] - self.mins[-1])

    def unscale_target(self, y):
        return y * (self.maxs[-1] - self.mins[-1]) + self.mins[-1]


def fit_scaler(inputs: np.ndarray, targets: np.ndarray) -> Scaler:
    """Channel-wise min/max over the training rows (p inputs + target)."""
    mins = np.concatenate([inputs.min(axis=0), [targets.min()]])
    maxs = np.concatenate([inputs.max(axis=0), [targets.max()]])
    return Scaler(mins=mins, maxs=maxs)


def scale_windows(scaler: Scaler, data: WindowDataset) -> WindowDataset:
    return WindowDataset(
        inputs=scaler.scale_inputs(data.inputs),
        targets=scaler.scale_target(data.targets),
        days=data.days,
    )


# ---------------------------------------------------------------------------
# Levenberg-Marquardt training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LmConfig:
    lambda0: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 10.0
    max_epochs: int = 1000
    max_fail: int = 5
    min_gradient: float = 1e-10
    val_fraction: float = 0.2
    lambda_min: float = 1e-12
    lambda_max: float = 1e12
    max_inflations: int = 20

    def __post_init__(self):
        if self.lambda0 <= 0 or self.lambda_up <= 1 or self.lambda_down <= 1:
            raise ConfigError("damping factors must be > 1 with lambda0 > 0")
        if self.max_fail < 1 or self.max_epochs < 0:
            raise ConfigError("max_fail >= 1 and max_epochs >= 0 required")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in [0, 1)")


@dataclass
class TrainHistory:
    """Per accepted epoch: training MSE, validation MSE, damping used."""

    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    stop_reason: str = ""
    best_epoch: int = -1


def _mse(theta, layout, x, y) -> float:
    m, p = layout.n_hidden, layout.n_inputs
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite loss is handled by callers
        pred = kernels.mlp_forward(
            np.ascontiguousarray(theta[: m * p].reshape(m, p)),
            theta[m * p : m * p + m],
            theta[m * p + m : m * p + 2 * m],
            float(theta[-1]),
            x,
        )
        r = pred - y
        return float(np.mean(r * r))


def train_lm(mlp: Mlp, data: WindowDataset, cfg: LmConfig = LmConfig()) -> tuple[Mlp, TrainHistory]:
    """Train on scaled windows; returns the best-validation-epoch weights.

    The first (1 - val_fraction) rows train, the trailing rows validate
    (chronological split). Gradient is measured as ||2 J^T r / n||_2 on
    the training rows.
    """
    layout = mlp.layout
    x = np.ascontiguousarray(data.inputs, dtype=np.float64)
    y = np.ascontiguousarray(data.targets, dtype=np.float64)
    if x.shape[0] < 2:
        raise DataError("need at least 2 window rows to train")
    n_val = int(x.shape[0] * cfg.val_fraction)
    n_tr = x.shape[0] - n_val
    if n_tr < 1:
        raise DataError("validation split leaves no training rows")
    x_tr, y_tr = x[:n_tr], y[:n_tr]
    x_val, y_val = x[n_tr:], y[n_tr:]

    theta = pack_params(mlp)
    history = TrainHistory()
    best_theta = theta.copy()
    best_val = np.inf
    fails = 0
    lam = cfg.lambda0
    identity = np.eye(layout.n_params)
    m, p = layout.n_hidden, layout.n_inputs

    if cfg.max_epochs == 0:
        history.stop_reason = "max_epochs"
        return unpack_params(layout, theta, mlp.seed), history

    stop = ""
    for epoch in range(cfg.max_epochs):
        w1 = np.ascontiguousarray(theta[: m * p].reshape(m, p))
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
            pred, jac = kernels.mlp_forward_jacobian(
                w1, theta[m * p : m * p + m], theta[m * p + m : m * p + 2 * m], float(theta[-1]),
                x_tr,
            )
            r = pred - y_tr
            mse = float(np.mean(r * r))
        if not np.isfinite(mse):
            raise NumericalError(f"non-finite training loss at epoch {epoch}")
        jtj, jtr = kernels.gauss_newton_matrices(jac, r)
        grad_norm = 2.0 * float(np.linalg.norm(jtr)) / n_tr
        if grad_norm < cfg.min_gradient:
            stop = "min_gradient"
            break

        accepted = False
        lam_try = lam
        for _ in range(cfg.max_inflations + 1):
            try:
                delta = np.linalg.solve(jtj + lam_try * identity, -jtr)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None:
                trial = theta + delta
                trial_mse = _mse(trial, layout, x_tr, y_tr)
                if np.isfinite(trial_mse) and trial_mse < mse:
                    theta = trial
                    mse = trial_mse
                    lam = max(lam_try / cfg.lambda_down, cfg.lambda_min)
                    accepted = True
                    break
            lam_try *= cfg.lambda_up
            if lam_try > cfg.lambda_max:
                break
        if not accepted:
            stop = "lambda_ceiling"
            break

        val = _mse(theta, layout, x_val, y_val) if n_val else np.nan
        history.train_mse.append(mse)
        history.val_mse.append(val)
        history.lam.append(lam_try)

        if n_val:
            if val < best_val:
                best_val = val
                best_theta = theta.copy()
                history.best_epoch = epoch
                fails = 0
            else:
                fails += 1
                if fails >= cfg.max_fail:
                    stop = "max_fail"
                    break
        else:
            best_theta = theta.copy()
            history.best_epoch = epoch

    history.stop_reason = stop or "max_epochs"
    return unpack_params(layout, best_theta, mlp.seed), history


# ---------------------------------------------------------------------------
# one-step-ahead prediction over a test span
# ---------------------------------------------------------------------------


def predict_series(
    mlp: Mlp,
    scaler: Scaler,
    preprocessor,
    history: DailySeries,
    test_days,
) -> np.ndarray:
    """One-step-ahead Wh/m^2 predictions for each requested day.

    Lags come from measured history only (day t uses corrected measured
    values through t-1); predictions are unscaled, multiplied back to
    physical units when a preprocessor is given, and floored at 0.
    """
    p = mlp.layout.n_inputs
    working = preprocessor.apply(history) if preprocessor is not None else history
    values = working.values
    out = np.empty(len(test_days))
    for j, day in enumerate(test_days):
        i = history.index_of(day)
        if i < p:
            raise DataError(f"not enough history before {day.isoformat()} for {p} lags")
        lags = values[i - p : i]
        if not np.all(np.isfinite(lags)):
            raise DataError(f"missing value inside the lag window before {day.isoformat()}")
        yhat = forward(mlp, scaler.scale_inputs(lags))
        yhat = float(scaler.unscale_target(yhat))
        if preprocessor is not None:
            yhat = float(preprocessor.invert(np.asarray([yhat]), [day])[0])
        out[j] = max(yhat, 0.0)
    return out
