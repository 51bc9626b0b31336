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


def _n_weights(m: int, p: int) -> int:
    """The weight count of ``m`` hidden units on ``p`` inputs."""
    return m * (p + 2) + 1


def _max_hidden(n_weights: int, p: int) -> int:
    """The most hidden units on ``p`` inputs whose weights number at most
    ``n_weights``: the inverse of ``_n_weights``."""
    return (n_weights - 1) // (p + 2)


def _layers(theta: np.ndarray, m: int, p: int) -> tuple:
    """Views of ``(w1, b1, w2)`` and the float ``b2`` in the packed weights
    ``[w1 row-major, b1, w2, b2]`` (the Jacobian column order) of ``m`` hidden
    units and ``p`` inputs, w1 C-contiguous as the kernels take it; a vector
    of another size is a DataError."""
    n = _n_weights(m, p)
    if theta.size != n:
        raise DataError(f"expected {n} weights for {m} hidden units of {p} inputs, got {theta.size}")
    w1 = np.ascontiguousarray(theta[: m * p].reshape(m, p))
    return w1, theta[m * p : m * p + m], theta[m * p + m : m * p + 2 * m], float(theta[-1])


def init_mlp(p: int, n_hidden: int, seed: int) -> np.ndarray:
    """Packed weights for p inputs and n_hidden units drawn uniformly from
    [-0.5, 0.5], reproducible from the seed."""
    if p < 1 or n_hidden < 1:
        raise ConfigError("layer sizes must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.uniform(-WEIGHT_INIT_HALF_RANGE, WEIGHT_INIT_HALF_RANGE, _n_weights(n_hidden, p))


def jacobian(theta: np.ndarray, n_hidden: int, rows) -> np.ndarray:
    """d(output)/d(theta) per input row; equals d(residual)/d(theta).

    Analytic differentiation of the forward pass with the Gaussian
    derivative g'(a) = -2 a exp(-a^2). An overflow inside the kernel is
    no error while the Jacobian stays finite (a huge preactivation gives
    a zero unit); a non-finite Jacobian is a NumericalError. Each call
    fills fresh kernel buffers, so the array returned is the caller's own.
    """
    x = np.ascontiguousarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("jacobian needs a nonempty batch of input rows")
    layers = _layers(theta, n_hidden, x.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        _, jac = kernels.mlp_forward_jacobian(*layers, x, kernels.jacobian_buffers(x, theta.size))
    if not np.isfinite(jac).all():
        raise NumericalError("the Jacobian is not finite")
    return jac


# ---------------------------------------------------------------------------
# sliding windows + min-max scaling
# ---------------------------------------------------------------------------


def _kept_targets(values: np.ndarray, p: int) -> np.ndarray:
    """The indices t >= p of the windows that touch no missing value: the
    lags x_{t-p} .. x_{t-1} and the target x_t are all finite, read from a
    running count of the non-finite values."""
    n = values.size
    if n <= p:
        raise DataError(f"need more than p={p} values, got {n}")
    missing = np.concatenate([[0], np.cumsum(~np.isfinite(values))])
    t = np.arange(p, n)
    return t[missing[t + 1] == missing[t - p]]


def make_windows(values, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Sliding windows of a value array as ``(inputs, targets)``: input row t
    holds the lags (x_{t-p} .. x_{t-1}), oldest first, of the target x_t.

    Rows touching a missing value are dropped.
    """
    values = np.asarray(values, dtype=np.float64)
    kept = _kept_targets(values, p)
    return baselines._lag_rows(values, kept, p), values[kept]


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


@dataclass
class TrainHistory:
    """Per accepted epoch: training MSE, validation MSE, damping used."""

    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    stop_reason: str = ""
    best_epoch: int = -1


def training_rows(n_rows: int) -> int:
    """The leading windows of ``n_rows`` that ``train_lm`` trains on: all but
    the trailing ``VAL_FRACTION``."""
    return n_rows - int(n_rows * VAL_FRACTION)


def _forward_mse(theta, m: int, p: int, x, y, out=None) -> tuple[np.ndarray, float]:
    """The outputs on ``x`` and their MSE against ``y``; ``out`` is
    ``kernels.mlp_forward``'s."""
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite loss is handled by callers
        pred = kernels.mlp_forward(*_layers(theta, m, p), x, out)
        r = pred - y
        return pred, float(np.mean(r * r))


def _mse(theta, m: int, p: int, x, y) -> float:
    return _forward_mse(theta, m, p, x, y)[1]


def train_lm(theta: np.ndarray, n_hidden: int, inputs, targets, *, max_epochs: int,
             max_fail: int) -> tuple[np.ndarray, TrainHistory]:
    """Train the packed weights ``theta`` of ``n_hidden`` units on scaled
    windows for at most ``max_epochs`` epochs, stopping early after
    ``max_fail`` epochs without a new validation best; returns the
    best-validation-epoch weights, a new vector.

    The first (1 - VAL_FRACTION) rows train, the trailing rows validate
    (chronological split). Gradient is measured as ||2 J^T r / n||_2 on
    the training rows. The Jacobian buffers are made once per fit and
    refilled every epoch. Each trial step's forward pass writes into the
    buffers' hidden rows, and the next epoch's Jacobian builds on the
    accepted one's; a rejected trial only overwrites them, since
    acceptance ends the trials.
    """
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    y = np.ascontiguousarray(targets, dtype=np.float64)
    if x.shape[0] < 2:
        raise DataError("need at least 2 window rows to train")
    n_tr = training_rows(x.shape[0])
    n_val = x.shape[0] - n_tr
    x_tr, y_tr = x[:n_tr], y[:n_tr]
    x_val, y_val = x[n_tr:], y[n_tr:]

    m, p = n_hidden, x.shape[1]
    _layers(theta, m, p)  # a vector that does not fit is refused before the first epoch
    history = TrainHistory()
    best_theta = theta.copy()
    best_val = np.inf
    fails = 0
    lam = LAMBDA0
    identity = np.eye(theta.size)
    buffers = kernels.jacobian_buffers(x_tr, theta.size)
    hidden = kernels.hidden_rows(buffers, m)
    pred = None  # the outputs of the forward pass in ``hidden``, once there is one

    stop = ""
    for epoch in range(max_epochs):
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss raises below
            pred, jac = kernels.mlp_forward_jacobian(*_layers(theta, m, p), x_tr, buffers, pred)
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
                trial_pred, trial_mse = _forward_mse(trial, m, p, x_tr, y_tr, hidden)
                if np.isfinite(trial_mse) and trial_mse < mse:
                    theta, pred = trial, trial_pred
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

        val = _mse(theta, m, p, x_val, y_val) if n_val else np.nan
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
                if fails >= max_fail:
                    stop = "max_fail"
                    break
        else:
            best_theta = theta.copy()
            history.best_epoch = epoch

    history.stop_reason = stop or "max_epochs"
    return best_theta, history


# ---------------------------------------------------------------------------
# the registry forecaster
# ---------------------------------------------------------------------------


class MlpBundle(baselines.OneStepModel):
    """The trained network as one packed weight vector ``theta`` (laid out as
    ``_layers`` reads it), plus the scaler fitted alongside it.

    ``params`` are the training hyperparameters (``p`` = lag inputs), whose
    defaults live only in ``__init__``. ``limits`` counts the training windows
    left once rows that touch a missing value are dropped, and the LM
    training rows among them. ``fit`` keeps the ``TrainHistory`` of its LM
    run as ``history``.
    """

    name = "mlp"
    params = {"p": 1, "n_hidden": 1, "max_epochs": 0, "max_fail": 1, "seed": 0}

    def __init__(self, p: int = 8, n_hidden: int = 3, max_epochs: int = 1000, max_fail: int = 5, seed: int = 0):
        self.p = p
        self.n_hidden = n_hidden
        self.max_epochs = max_epochs
        self.max_fail = max_fail
        self.seed = seed
        self.theta = self.scaler = self.history = None

    def limits(self, train: DailySeries) -> dict:
        """The network's weights are at most the LM's training rows: no more
        unknowns than equations, and a cap on the fit's two weights-by-rows
        Jacobian buffers."""
        n = _kept_targets(train.values, self.p).size
        n_tr = training_rows(n)
        what = (f"hidden units whose {self.p + 2}*n_hidden + 1 weights fit the {n_tr} LM training rows"
                f" of the {n} training windows")
        return {"n_hidden": (_max_hidden(n_tr, self.p), what)}

    def fit(self, train: DailySeries) -> "MlpBundle":
        """Windows -> scaler -> LM training from ``init_mlp`` weights of ``seed``."""
        inputs, targets = make_windows(train.values, p=self.p)
        self.scaler = fit_scaler(inputs, targets)
        self.theta, self.history = train_lm(
            init_mlp(self.p, self.n_hidden, self.seed), self.n_hidden, self.scaler.scale_inputs(inputs),
            self.scaler.scale_target(targets), max_epochs=self.max_epochs, max_fail=self.max_fail,
        )
        return self

    def predict_span(self, values: np.ndarray, indices, days) -> np.ndarray:
        """All lag rows in one gather and one row-wise forward; the first
        day (in ``indices`` order) without ``p`` finite lags is a DataError:
        too little history, or a missing value in the history before it."""
        p = self.p
        idx = np.asarray(indices, dtype=np.int64)
        lags = baselines._lag_rows(values, idx, p)
        baselines._check_history(idx, days, p, ~np.all(np.isfinite(lags), axis=1))
        x = self.scaler.scale_inputs(lags)
        return self.scaler.unscale_target(kernels.mlp_forward_rows(*_layers(self.theta, self.n_hidden, p), x))

    def to_model_file(self):
        w1, b1, w2, b2 = _layers(self.theta, self.n_hidden, self.p)
        meta = {"n_inputs": self.p, "n_hidden": self.n_hidden, "seed": self.seed}
        blocks = {
            "w1": w1, "b1": b1, "w2": w2, "b2": np.array([b2]),
            "scaler_mins": self.scaler.mins, "scaler_maxs": self.scaler.maxs,
        }
        return meta, blocks

    @classmethod
    def from_model_file(cls, meta, blocks):
        given = {"p": meta["n_inputs"], "n_hidden": meta["n_hidden"], "seed": meta["seed"]}
        model = cls(**model_params(given, cls.params))
        h, p = model.n_hidden, model.p
        model.theta = np.concatenate([
            checked("w1", blocks["w1"], (h, p)).ravel(), checked("b1", blocks["b1"], (h,)),
            checked("w2", blocks["w2"], (h,)), checked("b2", blocks["b2"], (1,)),
        ])
        mins, maxs = (checked(name, blocks[name], (p + 1,)) for name in ("scaler_mins", "scaler_maxs"))
        model.scaler = Scaler(mins=mins, maxs=maxs)
        return model
