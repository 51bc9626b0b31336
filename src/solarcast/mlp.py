"""Single-hidden-layer perceptron trained by Levenberg-Marquardt.

Architecture: p scaled lag inputs, a hidden layer of Gaussian units
g(a) = exp(-a^2), one linear output. Training solves the damped
Gauss-Newton step (J^T J + lambda I) d = -J^T r each epoch, accepting
the step only when the training MSE drops, with chronological 80/20
train/validation split and early stopping after ``max_fail`` epochs
without a new validation best.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import baselines, kernels
from .errors import ConfigError, DataError, NumericalError, checked, model_params
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
    """Lag rows (oldest lag first) with the next value as target."""

    inputs: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return self.targets.size


def make_windows(source, p: int = 8) -> WindowDataset:
    """Sliding windows: row t = (x_{t-p} .. x_{t-1}) -> x_t.

    Accepts a DailySeries or a plain sequence. Rows touching a missing
    value are dropped.
    """
    values = source.values if isinstance(source, DailySeries) else np.asarray(source, dtype=np.float64)
    n = values.size
    if n <= p:
        raise DataError(f"need more than p={p} values, got {n}")
    inputs = np.lib.stride_tricks.sliding_window_view(values, p)[: n - p].copy()
    targets = values[p:].copy()
    keep = np.all(np.isfinite(inputs), axis=1) & np.isfinite(targets)
    return WindowDataset(inputs=inputs[keep], targets=targets[keep])


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
    )


# ---------------------------------------------------------------------------
# Levenberg-Marquardt training
# ---------------------------------------------------------------------------


LAMBDA0 = 1e-3  # initial damping
LAMBDA_UP = 10.0  # damping inflation after a rejected step
LAMBDA_DOWN = 10.0  # damping deflation after an accepted step
LAMBDA_MIN = 1e-12
LAMBDA_MAX = 1e12
MAX_INFLATIONS = 20  # rejected steps per epoch before giving up
MIN_GRADIENT = 1e-10
VAL_FRACTION = 0.2  # trailing share of the windows held out for early stopping


@dataclass(frozen=True)
class LmConfig:
    max_epochs: int = 1000
    max_fail: int = 5


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

    The first (1 - VAL_FRACTION) rows train, the trailing rows validate
    (chronological split). Gradient is measured as ||2 J^T r / n||_2 on
    the training rows.
    """
    layout = mlp.layout
    x = np.ascontiguousarray(data.inputs, dtype=np.float64)
    y = np.ascontiguousarray(data.targets, dtype=np.float64)
    if x.shape[0] < 2:
        raise DataError("need at least 2 window rows to train")
    n_val = int(x.shape[0] * VAL_FRACTION)
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
    lam = LAMBDA0
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
        if grad_norm < MIN_GRADIENT:
            stop = "min_gradient"
            break

        accepted = False
        lam_try = lam
        for _ in range(MAX_INFLATIONS + 1):
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
                    lam = max(lam_try / LAMBDA_DOWN, LAMBDA_MIN)
                    accepted = True
                    break
            lam_try *= LAMBDA_UP
            if lam_try > LAMBDA_MAX:
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
# the registry forecaster
# ---------------------------------------------------------------------------


class MlpBundle(baselines.OneStepModel):
    """The trained network plus the scaler fitted alongside it.

    ``params`` are the training hyperparameters (``p`` = lag inputs), with
    the defaults of ``MlpLayout`` and ``LmConfig``. ``limits`` counts the
    training windows left once rows that touch a missing value are dropped.
    ``fit`` keeps the ``TrainHistory`` of its LM run as ``history``.
    """

    name = "mlp"
    params = {"p": 1, "n_hidden": 1, "max_epochs": 0, "max_fail": 1, "seed": 0}

    def __init__(
        self, p: int = MlpLayout.n_inputs, n_hidden: int = MlpLayout.n_hidden,
        max_epochs: int = LmConfig.max_epochs, max_fail: int = LmConfig.max_fail, seed: int = 0,
    ):
        self.p = p
        self.n_hidden = n_hidden
        self.max_epochs = max_epochs
        self.max_fail = max_fail
        self.seed = seed
        self.mlp = self.scaler = self.history = None

    def limits(self, train: DailySeries) -> dict:
        return {"n_hidden": (len(make_windows(train, p=self.p)), "training windows")}

    def fit(self, train: DailySeries) -> "MlpBundle":
        """Windows -> scaler -> LM training from ``init_mlp`` weights of ``seed``."""
        layout = MlpLayout(n_inputs=self.p, n_hidden=self.n_hidden)
        windows = make_windows(train, p=self.p)
        self.scaler = fit_scaler(windows.inputs, windows.targets)
        net = init_mlp(layout, seed=self.seed)
        cfg = LmConfig(max_epochs=self.max_epochs, max_fail=self.max_fail)
        self.mlp, self.history = train_lm(net, scale_windows(self.scaler, windows), cfg)
        return self

    def predict_span(self, values: np.ndarray, indices, days) -> np.ndarray:
        """All lag rows in one gather and one row-wise forward; the first
        day (in ``indices`` order) without ``p`` finite lags is a DataError."""
        net, p = self.mlp, self.mlp.layout.n_inputs
        idx = np.asarray(indices, dtype=np.int64)
        lags = baselines._lag_rows(values, idx, p)
        bad = ~np.all(np.isfinite(lags), axis=1)  # a row short of history holds NaN padding
        if bad.any():
            j = int(np.argmax(bad))
            day = days[j].isoformat()
            if idx[j] < p:
                raise DataError(f"not enough history before {day} for {p} lags")
            raise DataError(f"missing value inside the lag window before {day}")
        x = self.scaler.scale_inputs(lags)
        return self.scaler.unscale_target(kernels.mlp_forward_rows(net.w1, net.b1, net.w2, net.b2, x))

    def to_model_file(self):
        net = self.mlp
        meta = {"n_inputs": net.layout.n_inputs, "n_hidden": net.layout.n_hidden, "seed": net.seed}
        blocks = {
            "w1": net.w1, "b1": net.b1, "w2": net.w2, "b2": np.array([net.b2]),
            "scaler_mins": self.scaler.mins, "scaler_maxs": self.scaler.maxs,
        }
        return meta, blocks

    @classmethod
    def from_model_file(cls, meta, blocks):
        given = {"p": meta["n_inputs"], "n_hidden": meta["n_hidden"], "seed": meta["seed"]}
        model = cls(**model_params(given, cls.params))
        h, p = model.n_hidden, model.p
        model.mlp = Mlp(
            layout=MlpLayout(n_inputs=p, n_hidden=h), w1=checked("w1", blocks["w1"], (h, p)),
            b1=checked("b1", blocks["b1"], (h,)), w2=checked("w2", blocks["w2"], (h,)),
            b2=float(checked("b2", blocks["b2"], (1,))[0]), seed=model.seed,
        )
        mins, maxs = (checked(name, blocks[name], (p + 1,)) for name in ("scaler_mins", "scaler_maxs"))
        model.scaler = Scaler(mins=mins, maxs=maxs)
        return model
