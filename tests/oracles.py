"""Independent reference implementations used to freeze expected values.

Each oracle computes the same quantity as the production code by a
different route (direct definitions, numerical integration, brute-force
scans, Monte Carlo) and stays deliberately naive.
"""

import csv
import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from solarcast import baselines, kernels, mlp
from solarcast.errors import DataError
from solarcast.mlp import MlpBundle
from solarcast.model_io import load_model_file, save_model_file
from solarcast.series import DailySeries, SynthConfig, seasonal_modulation
from solarcast.solar import SiteSpec, h0_table


def dft_direct_ordinates(x: np.ndarray) -> np.ndarray:
    """One-sided periodogram from the O(n^2) transform definition."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    xc = x - x.mean()
    t = np.arange(n)
    out = np.empty(n // 2)
    for k in range(1, n // 2 + 1):
        angle = -2.0 * np.pi * k * t / n
        re = float(np.sum(xc * np.cos(angle)))
        im = float(np.sum(xc * np.sin(angle)))
        out[k - 1] = (re * re + im * im) / n
    return out


def h0_minute_integration(latitude_rad: float, day_of_year: int, solar_constant: float = 1367.0) -> float:
    """Daily horizontal extraterrestrial total by 1-minute midpoint sums.

    Instantaneous irradiance Gsc * E0 * max(0, cos(zenith)) with the same
    declination/eccentricity models as production, integrated in Wh/m^2.
    """
    delta = 0.409 * math.sin(2.0 * math.pi * (day_of_year + 284) / 365.0)
    e0 = 1.0 + 0.033 * math.cos(2.0 * math.pi * day_of_year / 365.0)
    minutes = (np.arange(1440) + 0.5) / 60.0  # hours since midnight
    omega = math.pi * (minutes - 12.0) / 12.0
    cos_zenith = (
        math.sin(latitude_rad) * math.sin(delta)
        + math.cos(latitude_rad) * math.cos(delta) * np.cos(omega)
    )
    irradiance = solar_constant * e0 * np.maximum(cos_zenith, 0.0)
    return float(np.sum(irradiance) / 60.0)


def inline_daily_extraterrestrial(latitude_rad: float, day_of_year) -> np.ndarray:
    """H0 with the declination and eccentricity expressions written inline,
    the reference for ``solar.daily_extraterrestrial``."""
    d = np.asarray(day_of_year)
    delta = 0.409 * np.sin(2.0 * math.pi * (d + 284) / 365)
    e0 = 1.0 + 0.033 * np.cos(2.0 * math.pi * d / 365)
    ws = np.arccos(np.clip(-math.tan(latitude_rad) * np.tan(delta), -1.0, 1.0))
    return (
        (24.0 / math.pi) * 1367.0 * e0
        * (math.cos(latitude_rad) * np.cos(delta) * np.sin(ws)
           + ws * math.sin(latitude_rad) * np.sin(delta))
    )


def net_forward(theta, n_hidden: int, inputs):
    """The output of the packed weights ``theta`` of ``n_hidden`` units through
    ``kernels.mlp_forward``: a float for one input vector, an array for a
    batch of rows."""
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    y = kernels.mlp_forward(*mlp._layers(theta, n_hidden, x.shape[-1]), np.atleast_2d(x))
    return float(y[0]) if x.ndim == 1 else y


def finite_difference_jacobian(theta, n_hidden: int, inputs: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central differences of the forward pass with respect to each packed weight."""
    inputs = np.asarray(inputs, dtype=np.float64)
    out = np.empty((inputs.shape[0], theta.size))
    for j in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[j] += step
        minus[j] -= step
        f_plus = net_forward(plus, n_hidden, inputs)
        f_minus = net_forward(minus, n_hidden, inputs)
        out[:, j] = (np.atleast_1d(f_plus) - np.atleast_1d(f_minus)) / (2.0 * step)
    return out


def brute_force_knn(history, query, window: int, k: int) -> float:
    """Nearest-analog mean successor by an explicit double loop."""
    history = list(map(float, history))
    query = list(map(float, query))
    scored = []
    for i in range(len(history) - window):  # windows with a successor
        dist = sum((history[i + j] - query[j]) ** 2 for j in range(window))
        scored.append((dist, i))
    scored.sort()
    return sum(history[i + window] for _, i in scored[:k]) / k


def stable_argsort_knn(history, query, k: int) -> float:
    """The ``KnnModel`` forecast of the day after ``history``, with the k
    nearest taken from a full stable argsort (ties by index, NaN last)."""
    h = np.ascontiguousarray(history, dtype=np.float64)
    q = np.ascontiguousarray(query, dtype=np.float64)
    window = q.size
    if h.size < window + 2:
        raise DataError("history must be longer than window + 1")
    n_candidates = h.size - window
    if k > n_candidates:
        raise DataError(f"k={k} exceeds the {n_candidates} candidate windows")
    dists = kernels.window_sq_distances(h, q, n_candidates)
    order = np.argsort(dists, kind="stable")[:k]
    return float(h[order + window].mean())


def lag_matrix(x: np.ndarray, k: int) -> np.ndarray:
    """Rows t = k..n-1 holding [x_{t-1}, ..., x_{t-k}]: the sliding view the
    AR and long-AR fits regressed on before ``baselines._lag_rows``."""
    windows = np.lib.stride_tricks.sliding_window_view(x, k)[: x.size - k]
    return windows[:, ::-1]


def lag_matrix_ar_coefs(values, p: int) -> tuple[float, np.ndarray]:
    """``baselines._ar_coefs`` on the rows of ``lag_matrix``."""
    x = np.asarray(values, dtype=np.float64)
    return baselines._ridge_ols(lag_matrix(x, p), x[p:])


def column_loop_arma_coefs(values, p: int, q: int) -> tuple[float, np.ndarray]:
    """``baselines._arma_coefs`` (q > 0) with the long-AR rows of
    ``lag_matrix`` built twice and the stage-2 matrix filled column by column."""
    x = np.asarray(values, dtype=np.float64)
    long_order = max(20, 2 * (p + q))
    c0, phi0 = baselines._ridge_ols(lag_matrix(x, long_order), x[long_order:])
    resid = x[long_order:] - (c0 + lag_matrix(x, long_order) @ phi0)
    # row t: target x[t], value lags x[t-1..t-p], proxy lags for times t-1..t-q
    # (resid[i] belongs to x[long_order + i])
    t0 = long_order + q
    targets = x[t0:]
    n_rows = targets.size
    cols = np.empty((n_rows, p + q))
    for i in range(p):
        cols[:, i] = x[t0 - 1 - i : t0 - 1 - i + n_rows]
    for j in range(q):
        cols[:, p + j] = resid[q - 1 - j : q - 1 - j + n_rows]
    return baselines._ridge_ols(cols, targets)


def sliding_view_make_windows(values, p: int) -> tuple:
    """``mlp.make_windows`` of a value sequence through its own sliding view:
    ``(inputs, targets)``."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    inputs = np.lib.stride_tricks.sliding_window_view(values, p)[: n - p].copy()
    targets = values[p:].copy()
    keep = np.all(np.isfinite(inputs), axis=1) & np.isfinite(targets)
    return inputs[keep], targets[keep]


def need_history(history, n: int, target) -> None:
    """Refuse a per-day forecast whose history holds fewer than ``n`` values."""
    if history.size < n:
        raise DataError(f"need {n} values of history before {target.isoformat()}")


def predict_next_linear(model, history, target) -> float:
    """One-step AR/ARMA forecast that filters the whole history for its
    residuals, as the per-day path did before residuals were shared."""
    x = np.asarray(history, dtype=np.float64)
    need_history(x, max(model.p, model.q), target)
    out = model.intercept
    if model.p:
        out += float(model.ar @ x[::-1][: model.p])
    if model.q:
        resid = kernels.arma_residuals(x, model.ar, model.ma, model.intercept)
        out += float(model.ma @ resid[::-1][: model.q])
    return float(out)


def seasonal_day_of(d: dt.date) -> int:
    """365-slot day-of-year of a date from its own day-of-year; Feb 29
    shares slot 59."""
    doy = d.timetuple().tm_yday
    leap = d.year % 4 == 0 and (d.year % 100 != 0 or d.year % 400 == 0)
    return doy - 1 if leap and doy >= 60 else doy


def naive_predict_next(model: baselines.NaiveModel, target) -> float:
    """The training mean of ``target``'s day-of-year slot, looked up alone."""
    value = model.day_means[seasonal_day_of(target) - 1]
    if np.isnan(value):
        raise DataError(f"no training value for day-of-year of {target.isoformat()}")
    return float(value)


@dataclass(frozen=True)
class Discretizer:
    """Equal-width classes over the fitted value range, as the record that
    Markov and Bayes once held: the reference for the ``edges``, ``centers``
    and ``classes_of`` they now hold themselves.

    Out-of-range values clamp to the edge classes; the maximum maps into
    the last class.
    """

    edges: np.ndarray
    centers: np.ndarray

    @classmethod
    def from_edges(cls, edges) -> "Discretizer":
        edges = np.asarray(edges, dtype=np.float64)
        return cls(edges=edges, centers=(edges[:-1] + edges[1:]) / 2.0)

    @property
    def n_classes(self) -> int:
        return self.centers.size

    def classes_of(self, values) -> np.ndarray:
        x = np.asarray(values, dtype=np.float64)
        if np.isnan(x).any():
            raise DataError("a missing value has no class")
        lo, hi = self.edges[0], self.edges[-1]
        width = (hi - lo) / self.n_classes
        idx = np.floor((np.clip(x, lo, hi) - lo) / width).astype(np.int64)
        return np.minimum(idx, self.n_classes - 1)


def fit_discretizer(values, n_classes: int) -> Discretizer:
    """The value-array fit of the classes Markov and Bayes forecast with."""
    x = np.asarray(values, dtype=np.float64)
    missing = np.isnan(x)
    if missing.any():
        raise DataError(f"missing value in the training span at index {int(np.argmax(missing))}")
    if x.size < 2:
        raise DataError("need at least 2 values to fit a discretizer")
    lo, hi = float(np.min(x)), float(np.max(x))
    if lo == hi:
        raise DataError("cannot discretize a constant series")
    return Discretizer.from_edges(np.linspace(lo, hi, n_classes + 1))


def discretizer_path(kind: str, order: int, n_classes: int, train_values):
    """The Markov or Bayes fit through a ``Discretizer``: ``fit_discretizer``
    of the training values, then the dict (Markov) or per-position loop
    (Bayes) counts over its classes. Returns the discretizer, model.txt's
    (meta, blocks) and the forecast of one window of recent values."""
    disc = fit_discretizer(train_values, n_classes)
    meta = {"order": order, "n_classes": n_classes, "smoothing": 1.0}
    if kind == "markov":
        counts, marginal = dict_fit_markov(train_values, disc, order)
        blocks = {"edges": disc.edges, "marginal": marginal,
                  **{f"transitions_{k}": dict_transition_rows(counts[k], k) for k in counts}}
        return disc, meta, blocks, lambda recent: dict_predict_markov(counts, marginal, disc, order, recent)
    prior, cond = loop_bayes_counts(train_values, disc, order)
    blocks = {"edges": disc.edges, "priors": prior, **{f"cond_lag_{j}": t for j, t in enumerate(cond, start=1)}}
    fitted = SimpleNamespace(order=order, n_classes=n_classes, smoothing=1.0, prior_counts=prior,
                             cond_counts=cond, classes_of=disc.classes_of, centers=disc.centers)
    return disc, meta, blocks, lambda recent: loop_predict_bayes(fitted, recent)


def loop_next_counts(model: baselines.MarkovChainModel, context):
    """``MarkovChainModel.next_counts`` of a single context, found by its own pair
    of searchsorted calls: the dense count vector, or None when training
    never saw the context."""
    context = np.asarray(context, dtype=np.int64)
    k, n = context.size, model.n_classes
    rows = model.transitions[k - 1]
    keys = baselines._context_keys(rows[:, :k].astype(np.int64), n)
    key = baselines._context_keys(context, n)
    lo, hi = np.searchsorted(keys, key, "left"), np.searchsorted(keys, key, "right")
    if lo == hi:
        return None
    table = np.zeros(n)
    table[rows[lo:hi, k].astype(np.int64)] = rows[lo:hi, k + 1]
    return table


def loop_predict_markov(model: baselines.MarkovChainModel, recent) -> float:
    """``MarkovChainModel.predict_rows`` of one 1-D window: the longest seen context's
    smoothed distribution, dotted with the class centers."""
    classes = model.classes_of(np.asarray(recent, dtype=np.float64))
    table = model.marginal
    for k in range(model.order, 0, -1):
        seen = loop_next_counts(model, classes[-k:])
        if seen is not None:
            table = seen
            break
    alpha = model.smoothing
    probs = (table + alpha) / (table.sum() + alpha * model.n_classes)
    return float(probs @ model.centers)


def loop_bayes_counts(values, discretizer: Discretizer, order: int):
    """``BayesClassifierModel._counts`` as the per-position loop it was written
    as: one prior count and one count per lag for each next class."""
    classes = discretizer.classes_of(np.asarray(values, dtype=np.float64))
    n = discretizer.n_classes
    prior = np.zeros(n)
    cond = np.zeros((max(order, 1), n, n))
    for t in range(max(order - 1, 0), classes.size - 1):
        nxt = classes[t + 1]
        prior[nxt] += 1.0
        for j in range(1, order + 1):
            cond[j - 1, nxt, classes[t + 1 - j]] += 1.0
    return prior, cond


def loop_predict_bayes(model: baselines.BayesClassifierModel, recent) -> float:
    """``BayesClassifierModel.predict_rows`` of one 1-D window, adding one log term per lag."""
    n = model.n_classes
    alpha = model.smoothing
    prior = (model.prior_counts + alpha) / (model.prior_counts.sum() + alpha * n)
    log_post = np.log(prior)
    if model.order > 0:
        classes = model.classes_of(np.asarray(recent, dtype=np.float64))
        denom = model.prior_counts + alpha * n
        for j in range(1, model.order + 1):
            lag_class = classes[-j]
            log_post += np.log((model.cond_counts[j - 1, :, lag_class] + alpha) / denom)
    log_post -= log_post.max()
    post = np.exp(log_post)
    post /= post.sum()
    return float(post @ model.centers)


def per_day_predictor(model):
    """The single-day predictor of each forecaster, ``(history, target) ->
    forecast``, as it was before every model forecast its span at once."""
    if isinstance(model, (baselines.ArModel, baselines.ArmaModel)):
        return lambda history, target: predict_next_linear(model, history, target)
    if isinstance(model, baselines.KnnModel):
        return lambda history, target: knn_predict_next(model, history, target)
    if isinstance(model, MlpBundle):
        return lambda history, target: mlp_predict_next(model, history, target)
    if isinstance(model, baselines.NaiveModel):
        return lambda history, target: naive_predict_next(model, target)
    if isinstance(model, baselines.MarkovChainModel):
        return lambda history, target: discrete_predict_next(loop_predict_markov, model, history, target)
    if isinstance(model, baselines.BayesClassifierModel):
        return lambda history, target: discrete_predict_next(loop_predict_bayes, model, history, target)
    raise TypeError(f"no per-day oracle for {type(model).__name__}")


def knn_predict_next(model, history, target) -> float:
    """``stable_argsort_knn`` of the last ``window`` values, refusing a
    history shorter than the query plus ``max(k, 2)`` candidate windows."""
    need_history(history, model.window + max(model.k, 2), target)
    return stable_argsort_knn(history, history[-model.window :], model.k)


def discrete_predict_next(predict, model, history, target) -> float:
    """``predict(model, recent)`` of the last ``order`` values of the history;
    fewer than ``order`` values, or a missing one among them, is refused
    naming ``target``."""
    need_history(history, model.order, target)
    recent = history[history.size - model.order :]
    if np.isnan(recent).any():
        raise DataError(f"missing value in the history before {target.isoformat()}")
    return predict(model, recent)


def mlp_predict_next(bundle, history, target) -> float:
    """``MlpBundle.predict_next`` before ``predict_span``: the last p values
    scaled as one vector through ``net_forward``."""
    p = bundle.p
    need_history(history, p, target)
    lags = history[-p:]
    if not np.all(np.isfinite(lags)):
        raise DataError(f"missing value in the history before {target.isoformat()}")
    yhat = net_forward(bundle.theta, bundle.n_hidden, bundle.scaler.scale_inputs(lags))
    return float(bundle.scaler.unscale_target(yhat))


def bundle_of(theta, n_hidden: int, scaler, seed: int = 0) -> MlpBundle:
    """An MlpBundle of ``seed`` holding the packed weights ``theta`` of
    ``n_hidden`` units and ``scaler`` (whose channels are the p inputs and
    the target), built as ``from_model_file`` builds one."""
    bundle = MlpBundle(p=scaler.mins.size - 1, n_hidden=n_hidden, seed=seed)
    bundle.theta, bundle.scaler = theta, scaler
    return bundle


def train_mlp_parts(train_series, params: dict, seed: int):
    """The MLP's own training path before it fitted through the registry:
    the sizes and stopping values given, else 8 lags, 3 hidden units, 1000
    epochs and 5 failures, then windows -> scaler -> LM training. ``seed`` is
    the default of ``params["seed"]``; returns (packed weights, scaler, history)."""
    if params.get("seed") is None:
        params = {**params, "seed": seed}
    values = {"p": 8, "n_hidden": 3, "max_epochs": 1000, "max_fail": 5, **params}
    inputs, targets = mlp.make_windows(train_series.values, p=values["p"])
    scaler = mlp.fit_scaler(inputs, targets)
    theta = mlp.init_mlp(values["p"], values["n_hidden"], values["seed"])
    trained, history = mlp.train_lm(theta, values["n_hidden"], scaler.scale_inputs(inputs),
                                    scaler.scale_target(targets), max_epochs=values["max_epochs"],
                                    max_fail=values["max_fail"])
    return trained, scaler, history


def per_day_forecast(model, working, test_days) -> np.ndarray:
    """One prediction per test day from the values strictly before it: the
    loop ``pipeline.forecast_one_step`` ran before ``predict_span``."""
    predict = per_day_predictor(model)
    values = working.values
    out = np.empty(len(test_days))
    for j, day in enumerate(np.asarray(test_days, dtype="datetime64[D]").tolist()):  # as dt.date
        i = working.index_of(day)
        out[j] = predict(values[:i], day)
    return out


def csv_writer_write_csv(series, dest, value_column: str, decimals) -> None:
    """``date,<value>`` rows through one ``csv.writer.writerow`` per day."""
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(["date", value_column])
    day = series.start
    for v in series.values:
        if np.isnan(v):
            text = ""
        elif decimals is None:
            text = repr(float(v))
        else:
            text = f"{v:.{decimals}f}"
        writer.writerow([day.isoformat(), text])
        day += dt.timedelta(days=1)


def row_join_model_text(kind: str, meta: dict, blocks: dict) -> str:
    """model.txt's text with one ``",".join(map(repr, row))`` per block row,
    as ``save_model_file`` formatted it before its rows were formatted a
    chunk at a time."""
    lines = ["solarcast-model 1", f"kind={kind}"]
    lines += [f"{key}={repr(float(value)) if isinstance(value, float) else value}" for key, value in meta.items()]
    for name, array in blocks.items():
        arr = np.atleast_2d(np.asarray(array, dtype=np.float64))
        lines.append(f"@block {name} {arr.shape[0]} {arr.shape[1]}")
        lines += [",".join(map(repr, row)) for row in arr.tolist()]
        lines.append("@end")
    return "\n".join(lines) + "\n"


def row_loop_load_csv(source) -> DailySeries:
    """``load_csv`` with the row loop it had before rows were keyed by date
    ordinal: a ``dt.date``-keyed dict, the scalar ``np.isfinite`` and one
    numpy setitem per day. Kept as the reference for every message and
    value the loop produces."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8", newline="") as fh:
                return row_loop_load_csv(fh)
        except OSError as e:
            raise DataError(f"cannot read {source}: {e}") from e

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty CSV: no header row") from None
    if len(header) != 2 or header[0].strip().lower() != "date":
        raise DataError(f"expected header 'date,<value>', got {header!r}")

    rows: dict[dt.date, float] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"line {lineno}: expected 2 fields, got {len(row)}")
        try:
            day = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise DataError(f"line {lineno}: malformed date {row[0]!r}") from None
        raw = row[1].strip()
        if raw == "":
            value = float("nan")
        else:
            try:
                value = float(raw)
            except ValueError:
                raise DataError(f"line {lineno}: malformed value {row[1]!r}") from None
            if not np.isfinite(value):
                raise DataError(f"line {lineno}: non-finite value {raw!r}")
            if value < 0:
                raise DataError(f"line {lineno}: negative irradiation {raw!r}")
        if day in rows:
            raise DataError(f"line {lineno}: duplicate date {day.isoformat()}")
        rows[day] = value

    if not rows:
        raise DataError("empty CSV: no data rows")
    first, last = min(rows), max(rows)
    n = (last - first).days + 1
    values = np.full(n, np.nan)
    for day, value in rows.items():
        values[(day - first).days] = value
    return DailySeries(first, values)


def loop_mlp_forward(w1, b1, w2, b2, x) -> np.ndarray:
    """Forward pass of ``kernels.mlp_forward`` by explicit loops."""
    n, p = x.shape
    m = w1.shape[0]
    y = np.empty(n)
    for i in range(n):
        acc = b2
        for j in range(m):
            a = b1[j]
            for k in range(p):
                a += w1[j, k] * x[i, k]
            acc += w2[j] * np.exp(-a * a)
        y[i] = acc
    return y


def loop_mlp_forward_jacobian(w1, b1, w2, b2, x):
    """Outputs and parameter Jacobian rows of ``kernels.mlp_forward_jacobian``
    by explicit loops, in the ``[w1.ravel(), b1, w2, b2]`` column order."""
    n, p = x.shape
    m = w1.shape[0]
    nparams = m * p + 2 * m + 1
    y = np.empty(n)
    jac = np.empty((n, nparams))
    for i in range(n):
        acc = b2
        for j in range(m):
            a = b1[j]
            for k in range(p):
                a += w1[j, k] * x[i, k]
            h = np.exp(-a * a)
            d = -2.0 * a * h * w2[j]
            for k in range(p):
                jac[i, j * p + k] = d * x[i, k]
            jac[i, m * p + j] = d
            jac[i, m * p + m + j] = h
            acc += w2[j] * h
        jac[i, nparams - 1] = 1.0
        y[i] = acc
    return y, jac


def rowmajor_mlp_forward_jacobian(w1, b1, w2, b2, x):
    """``kernels.mlp_forward_jacobian`` as it built a fresh Jacobian a row at a
    time, the w1 columns from one (n, m, 1) x (1, 1, p) broadcast."""
    n, p = x.shape
    m = w1.shape[0]
    a = x @ w1.T + b1
    h = np.exp(-a * a)
    y = h @ w2 + b2
    d = -2.0 * a * h * w2
    jac = np.empty((n, m * p + 2 * m + 1))
    jac[:, : m * p] = (d[:, :, None] * x[:, None, :]).reshape(n, m * p)
    jac[:, m * p : m * p + m] = d
    jac[:, m * p + m : m * p + 2 * m] = h
    jac[:, -1] = 1.0
    return y, jac


def fresh_jacobian_train_lm(theta, n_hidden: int, inputs, targets, *, max_epochs: int, max_fail: int):
    """``mlp.train_lm`` as it was before the per-fit Jacobian buffers: the
    same LM loop with ``rowmajor_mlp_forward_jacobian`` every epoch."""
    x = np.ascontiguousarray(inputs, dtype=np.float64)
    y = np.ascontiguousarray(targets, dtype=np.float64)
    n_val = int(x.shape[0] * mlp.VAL_FRACTION)
    n_tr = x.shape[0] - n_val
    x_tr, y_tr = x[:n_tr], y[:n_tr]
    x_val, y_val = x[n_tr:], y[n_tr:]
    history = mlp.TrainHistory()
    best_theta, best_val, fails, lam = theta.copy(), np.inf, 0, mlp.LAMBDA0
    identity = np.eye(theta.size)
    m, p = n_hidden, x.shape[1]
    stop = ""
    for epoch in range(max_epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            pred, jac = rowmajor_mlp_forward_jacobian(*mlp._layers(theta, m, p), x_tr)
            r = pred - y_tr
            mse = float(np.mean(r * r))
        jtj, jtr = kernels.gauss_newton_matrices(jac, r)
        if 2.0 * float(np.linalg.norm(jtr)) / n_tr < mlp.MIN_GRADIENT:
            stop = "min_gradient"
            break
        accepted = False
        lam_try = lam
        for _ in range(mlp.MAX_INFLATIONS + 1):
            try:
                delta = np.linalg.solve(jtj + lam_try * identity, -jtr)
            except np.linalg.LinAlgError:
                delta = None
            if delta is not None:
                trial = theta + delta
                trial_mse = mlp._mse(trial, m, p, x_tr, y_tr)
                if np.isfinite(trial_mse) and trial_mse < mse:
                    theta, mse = trial, trial_mse
                    lam = max(lam_try / mlp.LAMBDA_DOWN, mlp.LAMBDA_MIN)
                    accepted = True
                    break
            lam_try *= mlp.LAMBDA_UP
            if lam_try > mlp.LAMBDA_MAX:
                break
        if not accepted:
            stop = "lambda_ceiling"
            break
        val = mlp._mse(theta, m, p, x_val, y_val) if n_val else np.nan
        history.train_mse.append(mse)
        history.val_mse.append(val)
        history.lam.append(lam_try)
        if n_val:
            if val < best_val:
                best_val, best_theta, history.best_epoch, fails = val, theta.copy(), epoch, 0
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


def loop_gauss_newton_matrices(jac, r):
    """J^T J (upper triangle accumulated, then mirrored) and J^T r by loops."""
    n, m = jac.shape
    jtj = np.zeros((m, m))
    jtr = np.zeros(m)
    for i in range(n):
        for a in range(m):
            v = jac[i, a]
            jtr[a] += v * r[i]
            for b in range(a, m):
                jtj[a, b] += v * jac[i, b]
    for a in range(m):
        for b in range(a + 1, m):
            jtj[b, a] = jtj[a, b]
    return jtj, jtr


def loop_window_sq_distances(history, query, n_candidates) -> np.ndarray:
    """Squared distance of each candidate window to the query by loops."""
    w = query.shape[0]
    out = np.empty(n_candidates)
    for i in range(n_candidates):
        s = 0.0
        for j in range(w):
            d = history[i + j] - query[j]
            s += d * d
        out[i] = s
    return out


def loop_arma_residuals(x, phi, theta, intercept) -> np.ndarray:
    """ARMA one-step residuals by the recursion's definition; zero before
    index max(p, q)."""
    p, q = phi.shape[0], theta.shape[0]
    n = x.shape[0]
    e = np.zeros(n)
    for t in range(max(p, q), n):
        pred = intercept
        for i in range(p):
            pred += phi[i] * x[t - 1 - i]
        for j in range(q):
            pred += theta[j] * e[t - 1 - j]
        e[t] = x[t] - pred
    return e


def lfilter_synthetic_values(config: SynthConfig) -> np.ndarray:
    """``generate_synthetic`` values with the AR(1) cloud noise from
    ``scipy.signal.lfilter`` (the filter the generator was written with)."""
    from scipy.signal import lfilter

    start = dt.date(config.start_year, 1, 1)
    n = (dt.date(config.start_year + config.n_years - 1, 12, 31) - start).days + 1
    sd = DailySeries(start, np.zeros(n)).seasonal_days()
    h0 = h0_table(SiteSpec.from_degrees(config.latitude_deg))[sd - 1]
    shocks = np.random.default_rng(config.seed).standard_normal(n)
    noise = lfilter([config.cloud_std], [1.0, -config.cloud_ar1], shocks)
    modulation = seasonal_modulation(sd, config.seasonal_amplitude)
    return h0 * np.clip(config.clear_sky_fraction_mean * modulation * (1.0 + noise), 0.03, 1.0)


def fisher_null_g_samples(n: int, replicates: int, seed: int) -> np.ndarray:
    """Monte-Carlo draws of Fisher's g under the white-noise null."""
    rng = np.random.default_rng(seed)
    out = np.empty(replicates)
    for r in range(replicates):
        x = rng.standard_normal(n)
        x = x - x.mean()
        spec = np.fft.rfft(x)
        ordinates = (spec.real**2 + spec.imag**2)[1 : n // 2 + 1] / n
        out[r] = ordinates.max() / ordinates.sum()
    return out


def mpmath_binomial_fisher_p_value(g: float, q: int) -> float:
    """Fisher's g-test null P(G > g) with every C(q, j) from mpmath.binomial."""
    import mpmath

    j_max = min(int(1.0 / g), q)
    # Precision must absorb the largest binomial-weighted term.
    j_peak = min(j_max, q // 2)
    max_ln_term = math.lgamma(q + 1) - math.lgamma(j_peak + 1) - math.lgamma(q - j_peak + 1)
    dps = int(max_ln_term / math.log(10.0)) + 25
    with mpmath.workdps(max(dps, 25)):
        gg = mpmath.mpf(g)
        acc = mpmath.mpf(0)
        for j in range(1, j_max + 1):
            term = mpmath.binomial(q, j) * (1 - j * gg) ** (q - 1)
            acc += term if j % 2 == 1 else -term
        p_value = float(acc)
    return min(max(p_value, 0.0), 1.0)


def ar1_series(n: int, phi: float, seed: int, sigma: float = 1.0) -> np.ndarray:
    """Seeded AR(1) simulation by explicit recursion."""
    rng = np.random.default_rng(seed)
    shocks = rng.standard_normal(n) * sigma
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + shocks[t]
    return x


def arma11_series(n: int, phi: float, theta: float, seed: int) -> np.ndarray:
    """Seeded ARMA(1,1) simulation by explicit recursion (burn-in dropped)."""
    rng = np.random.default_rng(seed)
    burn = 200
    shocks = rng.standard_normal(n + burn)
    x = np.zeros(n + burn)
    for t in range(1, n + burn):
        x[t] = phi * x[t - 1] + shocks[t] + theta * shocks[t - 1]
    return x[burn:]


def signed_series(values, start: dt.date = dt.date(2000, 1, 1)) -> DailySeries:
    """``values`` as a DailySeries from ``start``, bit for bit, negative ones
    included. The simulated processes above have mean zero, and a DailySeries
    (irradiation and its ratios) refuses a negative value; the AR and ARMA
    fits read only its values and dates, so their class fits are checked on
    these values as they are."""
    series = object.__new__(DailySeries)
    object.__setattr__(series, "start", start)
    object.__setattr__(series, "values", np.asarray(values, dtype=np.float64))
    return series


def dict_fit_markov(values, discretizer: Discretizer, order: int):
    """Markov counts as a dict per context length: context tuple (oldest
    class first) -> dense next-class count vector, plus the marginal; the
    reference for the transition rows of ``MarkovChainModel.fit``, whose
    classes are those of ``discretizer`` when ``fit_discretizer`` of the
    training values builds it."""
    classes = discretizer.classes_of(np.asarray(values, dtype=np.float64))
    n = discretizer.n_classes
    counts: dict[int, dict[tuple, np.ndarray]] = {k: {} for k in range(1, order + 1)}
    marginal = np.zeros(n)
    for t in range(classes.size - 1):
        nxt = classes[t + 1]
        marginal[nxt] += 1.0
        for k in range(1, order + 1):
            if t - k + 1 < 0:
                continue
            ctx = tuple(classes[t - k + 1 : t + 1])
            table = counts[k].setdefault(ctx, np.zeros(n))
            table[nxt] += 1.0
    return counts, marginal


def dict_predict_markov(counts, marginal, discretizer, order, recent, smoothing=1.0) -> float:
    """Smoothed expected next value, longest seen context first, then the marginal."""
    classes = discretizer.classes_of(np.asarray(recent, dtype=np.float64))
    n = discretizer.n_classes
    for k in range(order, 0, -1):
        table = counts[k].get(tuple(classes[-k:]))
        if table is not None:
            probs = (table + smoothing) / (table.sum() + smoothing * n)
            return float(probs @ discretizer.centers)
    probs = (marginal + smoothing) / (marginal.sum() + smoothing * n)
    return float(probs @ discretizer.centers)


def dict_transition_rows(counts: dict, k: int) -> np.ndarray:
    """[context..., next, count] rows of one context length, sorted by
    context then next class (the model.txt ``transitions_k`` block)."""
    rows = []
    for ctx in sorted(counts):
        table = counts[ctx]
        for nxt in np.flatnonzero(table):
            rows.append(list(ctx) + [nxt, table[nxt]])
    return np.asarray(rows, dtype=np.float64) if rows else np.empty((0, k + 2))


def dict_counts_from_rows(blocks, n: int) -> dict:
    """The dict of ``dict_fit_markov`` rebuilt from transition blocks 1..order."""
    counts: dict[int, dict] = {}
    for k, block in enumerate(blocks, start=1):
        counts[k] = {}
        for row in block:
            ctx = tuple(int(v) for v in row[:k])
            table = counts[k].setdefault(ctx, np.zeros(n))
            table[int(row[k])] = row[k + 1]
    return counts


def switch_save_forecaster(path, model) -> None:
    """model.txt writer as one if/elif per model kind, the reference for the
    per-class ``to_model_file`` methods."""
    if isinstance(model, baselines.NaiveModel):
        save_model_file(path, "naive", {}, {"day_means": model.day_means})
    elif isinstance(model, baselines.ArModel):
        save_model_file(
            path, "ar", {"p": model.ar.size},
            {"ar": model.ar, "intercept": np.array([model.intercept])},
        )
    elif isinstance(model, baselines.ArmaModel):
        save_model_file(
            path, "arma", {"p": model.ar.size, "q": model.ma.size},
            {"ar": model.ar, "ma": model.ma, "intercept": np.array([model.intercept])},
        )
    elif isinstance(model, baselines.MarkovChainModel):
        m = model
        n = m.n_classes
        blocks = {
            "edges": m.edges,
            "marginal": m.marginal,
        }
        for k, counts in dict_counts_from_rows(m.transitions, n).items():
            blocks[f"transitions_{k}"] = dict_transition_rows(counts, k)
        save_model_file(
            path, "markov",
            {"order": m.order, "n_classes": n, "smoothing": m.smoothing},
            blocks,
        )
    elif isinstance(model, baselines.BayesClassifierModel):
        m = model
        blocks = {"edges": m.edges, "priors": m.prior_counts}
        for j in range(m.cond_counts.shape[0]):
            blocks[f"cond_lag_{j + 1}"] = m.cond_counts[j]
        save_model_file(
            path, "bayes",
            {"order": m.order, "n_classes": m.n_classes, "smoothing": m.smoothing},
            blocks,
        )
    elif isinstance(model, baselines.KnnModel):
        save_model_file(
            path, "knn", {"k": model.k, "window": model.window}, {}
        )
    elif isinstance(model, MlpBundle):
        m, p, theta = model.n_hidden, model.p, model.theta
        save_model_file(
            path, "mlp",
            {
                "n_inputs": p,
                "n_hidden": m,
                "seed": model.seed,
            },
            {
                "w1": theta[: m * p].reshape(m, p),
                "b1": theta[m * p : m * p + m],
                "w2": theta[m * p + m : m * p + 2 * m],
                "b2": theta[-1:],
                "scaler_mins": model.scaler.mins,
                "scaler_maxs": model.scaler.maxs,
            },
        )
    else:
        raise DataError(f"cannot serialize model of type {type(model).__name__}")


def switch_load_forecaster(path):
    """model.txt reader as one branch per model kind, the reference for the
    per-class ``from_model_file`` methods."""
    kind, meta, blocks = load_model_file(path)
    if kind == "naive":
        model = baselines.NaiveModel()
        model.day_means = blocks["day_means"].ravel()
        return model
    if kind == "ar":
        model = baselines.ArModel(p=int(meta["p"]))
        model.ar, model.ma = blocks["ar"].ravel(), np.empty(0)
        model.intercept = float(blocks["intercept"].ravel()[0])
        return model
    if kind == "arma":
        model = baselines.ArmaModel(p=int(meta["p"]), q=int(meta["q"]))
        model.ar, model.ma = blocks["ar"].ravel(), blocks["ma"].ravel()
        model.intercept = float(blocks["intercept"].ravel()[0])
        return model
    if kind == "markov":
        order = int(meta["order"])
        edges = blocks["edges"].ravel()
        n = edges.size - 1
        rows = [blocks[f"transitions_{k}"] for k in range(1, order + 1)]
        counts = dict_counts_from_rows(rows, n)
        model = baselines.MarkovChainModel(order=order, n_classes=n)._set_edges(edges, float(meta["smoothing"]))
        return model._hold(tuple(dict_transition_rows(counts[k], k) for k in counts), blocks["marginal"].ravel())
    if kind == "bayes":
        order = int(meta["order"])
        edges = blocks["edges"].ravel()
        n = edges.size - 1
        cond = np.stack(
            [blocks[f"cond_lag_{j + 1}"] for j in range(max(order, 1))]
        )
        model = baselines.BayesClassifierModel(order=order, n_classes=n)._set_edges(edges, float(meta["smoothing"]))
        return model._hold(blocks["priors"].ravel(), cond)
    if kind == "knn":
        return baselines.KnnModel(k=int(meta["k"]), window=int(meta["window"]))
    if kind == "mlp":
        theta = np.concatenate([blocks[name].ravel() for name in ("w1", "b1", "w2", "b2")])
        scaler = mlp.Scaler(
            mins=blocks["scaler_mins"].ravel(), maxs=blocks["scaler_maxs"].ravel()
        )
        return bundle_of(theta, int(meta["n_hidden"]), scaler, int(meta["seed"]))
    raise DataError(f"unknown model kind {kind!r}")
