"""Classical one-day-ahead forecasters.

Six reference predictors with a shared contract: fit once on the
training span, then predict each test day from measured history without
refitting. Value models (AR, ARMA, Markov, Bayes, k-NN) work on a plain
value sequence (raw Wh/m^2 or the corrected dimensionless series); the
naive predictor works on the calendar (per-day-of-year training mean).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DataError, NumericalError, checked, model_params
from .series import DailySeries, seasonal_day_of
from .solar import DAYS_PER_YEAR

RIDGE = 1e-9


# ---------------------------------------------------------------------------
# naive day-of-year mean
# ---------------------------------------------------------------------------


def naive_day_means(history: DailySeries) -> np.ndarray:
    """Mean of present values per day-of-year slot; NaN where no data."""
    sd = history.seasonal_days()
    present = np.isfinite(history.values)
    counts = np.bincount(sd[present] - 1, minlength=DAYS_PER_YEAR)
    sums = np.bincount(sd[present] - 1, weights=history.values[present], minlength=DAYS_PER_YEAR)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return means


# ---------------------------------------------------------------------------
# linear models (AR / ARMA by two-stage least squares)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearModel:
    """AR/MA coefficients, most-recent lag first, plus an intercept."""

    ar: np.ndarray
    ma: np.ndarray
    intercept: float

    @property
    def p(self) -> int:
        return self.ar.size

    @property
    def q(self) -> int:
        return self.ma.size


def _lag_matrix(x: np.ndarray, k: int) -> np.ndarray:
    """Rows t = k..n-1 holding [x_{t-1}, ..., x_{t-k}]."""
    windows = np.lib.stride_tricks.sliding_window_view(x, k)[: x.size - k]
    return windows[:, ::-1]


def _ridge_ols(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Least squares with an unpenalized intercept and a tiny ridge on slopes.

    Centering makes the intercept exact for degenerate inputs (constant
    series fit as intercept-only) while the ridge keeps the normal
    equations nonsingular.
    """
    if x.shape[1] == 0:
        return float(y.mean()), np.empty(0)
    xm = x.mean(axis=0)
    ym = y.mean()
    xc = x - xm
    yc = y - ym
    a = xc.T @ xc + RIDGE * np.eye(x.shape[1])
    try:
        beta = np.linalg.solve(a, xc.T @ yc)
    except np.linalg.LinAlgError as e:  # pragma: no cover - ridge prevents this
        raise NumericalError("singular normal equations") from e
    return float(ym - xm @ beta), beta


def fit_ar(values, p: int) -> LinearModel:
    """Autoregression of order p by ordinary least squares."""
    x = np.asarray(values, dtype=np.float64)
    if x.size <= 10 * p or x.size < 2:
        raise DataError(f"series too short ({x.size}) for AR({p})")
    if p == 0:
        return LinearModel(ar=np.empty(0), ma=np.empty(0), intercept=float(x.mean()))
    intercept, phi = _ridge_ols(_lag_matrix(x, p), x[p:])
    return LinearModel(ar=phi, ma=np.empty(0), intercept=intercept)


def fit_arma(values, p: int, q: int) -> LinearModel:
    """ARMA(p, q) by the two-stage regression on residual proxies.

    Stage 1 fits a long AR (order max(20, 2(p+q))) whose one-step errors
    stand in for the unobserved innovations; stage 2 regresses the value
    on p value lags and q proxy lags.
    """
    x = np.asarray(values, dtype=np.float64)
    if q == 0:
        if x.size <= 10 * p:
            raise DataError(f"series too short ({x.size}) for ARMA({p},0)")
        return fit_ar(x, p)
    if x.size <= 10 * (p + q):
        raise DataError(f"series too short ({x.size}) for ARMA({p},{q})")

    long_order = max(20, 2 * (p + q))
    if x.size <= long_order + q + max(p, 1):
        raise DataError("series too short for the long-AR residual stage")
    c0, phi0 = _ridge_ols(_lag_matrix(x, long_order), x[long_order:])
    resid = x[long_order:] - (c0 + _lag_matrix(x, long_order) @ phi0)

    # Row t in the stage-2 regression: target x[t], value lags x[t-1..t-p],
    # proxy lags resid for times t-1..t-q (resid[i] belongs to x[long_order+i]).
    t0 = long_order + q
    targets = x[t0:]
    n_rows = targets.size
    cols = np.empty((n_rows, p + q))
    for i in range(p):
        cols[:, i] = x[t0 - 1 - i : t0 - 1 - i + n_rows]
    for j in range(q):
        cols[:, p + j] = resid[q - 1 - j : q - 1 - j + n_rows]
    intercept, beta = _ridge_ols(cols, targets)
    return LinearModel(ar=beta[:p], ma=beta[p:], intercept=intercept)


def predict_linear(model: LinearModel, lags, residuals=()) -> float:
    """intercept + sum(ar_i * lag_i) + sum(ma_j * residual_j).

    ``lags`` and ``residuals`` are most-recent-first.
    """
    lags = np.asarray(lags, dtype=np.float64)
    residuals = np.asarray(residuals, dtype=np.float64)
    if lags.size < model.p:
        raise DataError(f"need {model.p} lags, got {lags.size}")
    if residuals.size < model.q:
        raise DataError(f"need {model.q} residuals, got {residuals.size}")
    out = model.intercept
    if model.p:
        out += float(model.ar @ lags[: model.p])
    if model.q:
        out += float(model.ma @ residuals[: model.q])
    return float(out)


def one_step_residuals(model: LinearModel, values) -> np.ndarray:
    """Filter the series through the model; residuals start at max(p, q)."""
    x = np.ascontiguousarray(values, dtype=np.float64)
    return kernels.arma_residuals(x, model.ar, model.ma, model.intercept)


def predict_linear_span(model: LinearModel, values, indices) -> np.ndarray:
    """One-step forecast of ``values[i]`` from ``values[:i]`` for each i in ``indices``.

    The residuals are filtered once over the whole array: e_t depends only
    on x_0..x_t, so they equal those of filtering each prefix separately.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and indices.min() < max(model.p, model.q):
        raise DataError("history shorter than the model order")
    resid = one_step_residuals(model, x) if model.q else x[:0]
    out = np.empty(indices.size)
    for j, i in enumerate(indices):
        out[j] = predict_linear(model, x[i - model.p : i][::-1], resid[i - model.q : i][::-1])
    return out


# ---------------------------------------------------------------------------
# discretizer + Markov chain + naive Bayes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Discretizer:
    """Equal-width classes over the fitted value range.

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

    def class_of(self, value: float) -> int:
        return int(self.classes_of(np.asarray([value]))[0])


def fit_discretizer(values, n_classes: int = 50) -> Discretizer:
    x = np.asarray(values, dtype=np.float64)
    if x.size < 2:
        raise DataError("need at least 2 values to fit a discretizer")
    lo, hi = float(np.min(x)), float(np.max(x))
    if lo == hi:
        raise DataError("cannot discretize a constant series")
    return Discretizer.from_edges(np.linspace(lo, hi, n_classes + 1))


def _context_keys(contexts: np.ndarray, n: int) -> np.ndarray:
    """Each context's classes read as one base-n integer, oldest class first."""
    return contexts @ n ** np.arange(contexts.shape[-1] - 1, -1, -1, dtype=np.int64)


@dataclass
class MarkovModel:
    """Class-transition counts for context lengths 1..order plus marginals.

    ``transitions[k - 1]`` holds one row ``[c_1, ..., c_k, next, count]``
    per transition seen: the k context classes oldest first, the class that
    followed them and how often it did, sorted by context and then by next
    class. These are the rows of model.txt's ``transitions_k`` block.
    ``marginal[c]`` counts how often class c followed any day.
    """

    order: int
    discretizer: Discretizer
    transitions: tuple
    marginal: np.ndarray
    smoothing: float = 1.0
    _keys: tuple = field(init=False, repr=False)

    def __post_init__(self):
        n = self.discretizer.n_classes
        if n ** self.order > 2**63:
            raise DataError(f"{n} classes to the power of order {self.order} exceed int64 keys")
        blocks = enumerate(self.transitions, start=1)
        self._keys = tuple(_context_keys(rows[:, :k].astype(np.int64), n) for k, rows in blocks)

    def next_counts(self, context) -> np.ndarray | None:
        """Dense next-class counts after ``context`` (classes, oldest
        first), or None when training never saw that context."""
        context = np.asarray(context, dtype=np.int64)
        k, n = context.size, self.discretizer.n_classes
        keys, rows = self._keys[k - 1], self.transitions[k - 1]
        key = _context_keys(context, n)
        lo, hi = np.searchsorted(keys, key, "left"), np.searchsorted(keys, key, "right")
        if lo == hi:
            return None
        table = np.zeros(n)
        table[rows[lo:hi, k].astype(np.int64)] = rows[lo:hi, k + 1]
        return table


def fit_markov(values, discretizer: Discretizer, order: int = 3) -> MarkovModel:
    x = np.asarray(values, dtype=np.float64)
    if x.size <= order:
        raise DataError("series shorter than the Markov order")
    classes = discretizer.classes_of(x)
    transitions = []
    for k in range(1, order + 1):
        windows = np.lib.stride_tricks.sliding_window_view(classes, k + 1)
        seen, counts = np.unique(windows, axis=0, return_counts=True)
        transitions.append(np.column_stack([seen, counts]).astype(np.float64))
    marginal = np.bincount(classes[1:], minlength=discretizer.n_classes).astype(np.float64)
    return MarkovModel(
        order=order, discretizer=discretizer, transitions=tuple(transitions), marginal=marginal
    )


def predict_markov(model: MarkovModel, recent) -> float:
    """Expected next value under the smoothed conditional distribution.

    Contexts never seen in training fall back to shorter contexts and
    finally to the marginal next-class distribution.
    """
    recent = np.asarray(recent, dtype=np.float64)
    if recent.size < model.order:
        raise DataError(f"need {model.order} recent values, got {recent.size}")
    classes = model.discretizer.classes_of(recent)
    table = model.marginal
    for k in range(model.order, 0, -1):
        seen = model.next_counts(classes[-k:])
        if seen is not None:
            table = seen
            break
    alpha = model.smoothing
    probs = (table + alpha) / (table.sum() + alpha * model.discretizer.n_classes)
    return float(probs @ model.discretizer.centers)


@dataclass
class BayesModel:
    """Naive-Bayes counts: class priors and per-lag conditional tables.

    ``cond_counts[j - 1]`` is the (next class, lag-j class) table for
    lags 1..max(order, 1), model.txt's ``cond_lag_j`` block.
    """

    order: int
    discretizer: Discretizer
    prior_counts: np.ndarray
    cond_counts: np.ndarray  # (max(order, 1), n_classes next, n_classes lag)
    smoothing: float = 1.0


def fit_bayes(values, discretizer: Discretizer, order: int = 3) -> BayesModel:
    x = np.asarray(values, dtype=np.float64)
    if x.size <= order:
        raise DataError("series shorter than the Bayes order")
    classes = discretizer.classes_of(x)
    n = discretizer.n_classes
    prior = np.zeros(n)
    cond = np.zeros((max(order, 1), n, n))
    for t in range(max(order - 1, 0), classes.size - 1):
        nxt = classes[t + 1]
        prior[nxt] += 1.0
        for j in range(1, order + 1):
            cond[j - 1, nxt, classes[t + 1 - j]] += 1.0
    return BayesModel(
        order=order, discretizer=discretizer, prior_counts=prior, cond_counts=cond
    )


def predict_bayes(model: BayesModel, recent) -> float:
    """Posterior-weighted mean of class centers given the lag classes."""
    n = model.discretizer.n_classes
    alpha = model.smoothing
    prior = (model.prior_counts + alpha) / (model.prior_counts.sum() + alpha * n)
    log_post = np.log(prior)
    if model.order > 0:
        recent = np.asarray(recent, dtype=np.float64)
        if recent.size < model.order:
            raise DataError(f"need {model.order} recent values, got {recent.size}")
        classes = model.discretizer.classes_of(recent)
        denom = model.prior_counts + alpha * n
        for j in range(1, model.order + 1):
            lag_class = classes[-j]
            log_post += np.log((model.cond_counts[j - 1, :, lag_class] + alpha) / denom)
    log_post -= log_post.max()
    post = np.exp(log_post)
    post /= post.sum()
    return float(post @ model.discretizer.centers)


# ---------------------------------------------------------------------------
# k-nearest-neighbor analogs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnnConfig:
    k: int = 10
    window: int = 10


def knn_predict(history, query, cfg: KnnConfig) -> float:
    """Mean successor of the k history windows closest to the query.

    Candidate windows are those with a successor inside the history (the
    trailing window, which is the query itself in one-step use, has
    none). Distance ties resolve toward the earlier window.
    """
    h = np.ascontiguousarray(history, dtype=np.float64)
    q = np.ascontiguousarray(query, dtype=np.float64)
    if q.size != cfg.window:
        raise DataError(f"query length {q.size} != window {cfg.window}")
    if h.size < cfg.window + 2:
        raise DataError("history must be longer than window + 1")
    n_candidates = h.size - cfg.window
    if cfg.k > n_candidates:
        raise DataError(f"k={cfg.k} exceeds the {n_candidates} candidate windows")
    dists = kernels.window_sq_distances(h, q, n_candidates)
    # The first k of a stable argsort (ties by index, NaN last) without
    # sorting every candidate: sort only those not beyond the k-th distance.
    kth = np.partition(dists, cfg.k - 1)[cfg.k - 1]
    kept = np.flatnonzero(~(dists > kth))
    order = kept[np.lexsort((kept, dists[kept]))][: cfg.k]
    successors = h[order + cfg.window]
    return float(successors.mean())


# ---------------------------------------------------------------------------
# uniform fit/predict wrappers used by the evaluation harness
# ---------------------------------------------------------------------------


class OneStepModel:
    """fit(train) once, then predict_next(history values, target date).

    ``predict_span(values, indices, days)`` forecasts ``values[i]`` from
    ``values[:i]`` for each index; its default calls ``predict_next`` per
    day, and a model overrides it only for a batched path.

    ``params`` maps each constructor hyperparameter a config or CLI flag
    may set to its least value; the defaults live only in ``__init__``.
    ``limits(n)`` maps those that ``n`` training values bound to (largest
    value, what bounds it); ``errors.model_params`` checks both. ``to_model_file()``
    returns the (meta, blocks) of model.txt and the classmethod
    ``from_model_file(meta, blocks)`` rebuilds the fitted model from them.
    """

    name = "base"
    params: dict[str, int] = {}

    def limits(self, n: int) -> dict:
        return {}

    def fit(self, train: DailySeries) -> "OneStepModel":
        raise NotImplementedError

    def predict_next(self, history: np.ndarray, target: dt.date) -> float:
        raise NotImplementedError

    def predict_span(self, values: np.ndarray, indices, days) -> np.ndarray:
        return np.array(
            [self.predict_next(values[:i], day) for i, day in zip(indices, days)], dtype=np.float64
        )

    @classmethod
    def _from_meta(cls, meta: dict):
        return cls(**model_params({key: meta[key] for key in cls.params}, cls.params))


class NaiveModel(OneStepModel):
    name = "naive"

    def __init__(self):
        self.day_means = None

    def fit(self, train: DailySeries) -> "NaiveModel":
        self.day_means = naive_day_means(train)
        return self

    def predict_next(self, history: np.ndarray, target: dt.date) -> float:
        value = self.day_means[seasonal_day_of(target) - 1]
        if np.isnan(value):
            raise DataError(f"no training value for day-of-year of {target.isoformat()}")
        return float(value)

    def to_model_file(self):
        return {}, {"day_means": self.day_means}

    @classmethod
    def from_model_file(cls, meta, blocks):
        model = cls()
        model.day_means = checked("day_means", blocks["day_means"], (DAYS_PER_YEAR,), low=0, nan_ok=True)
        return model


class _LinearForecaster:
    """What AR and ARMA share: prediction and the model.txt layout (orders
    as metadata, one block per coefficient vector in ``coef_blocks``, then
    the intercept). Block ``coef_blocks[i]`` holds as many coefficients as
    the order ``params[i]``. Each class keeps its own fit."""

    coef_blocks: tuple[str, ...] = ()

    def predict_next(self, history: np.ndarray, target: dt.date) -> float:
        return float(predict_linear_span(self.model, history, [len(history)])[0])

    def predict_span(self, values: np.ndarray, indices, days) -> np.ndarray:
        return predict_linear_span(self.model, values, indices)

    def to_model_file(self):
        lm = self.model
        blocks = {name: getattr(lm, name) for name in self.coef_blocks}
        blocks["intercept"] = np.array([lm.intercept])
        return {key: getattr(lm, key) for key in self.params}, blocks

    @classmethod
    def from_model_file(cls, meta, blocks):
        model = cls._from_meta(meta)
        coefs = {name: checked(name, blocks[name], (getattr(model, order),))
                 for name, order in zip(cls.coef_blocks, cls.params)}
        model.model = LinearModel(
            ar=coefs["ar"], ma=coefs.get("ma", np.empty(0)),
            intercept=float(checked("intercept", blocks["intercept"], (1,))[0]),
        )
        return model


class ArModel(_LinearForecaster, OneStepModel):
    name = "ar"
    params = {"p": 0}
    coef_blocks = ("ar",)

    def __init__(self, p: int = 8):
        self.p = p
        self.model = None

    def fit(self, train: DailySeries) -> "ArModel":
        self.model = fit_ar(train.values, self.p)
        return self


class ArmaModel(_LinearForecaster, OneStepModel):
    name = "arma"
    params = {"p": 0, "q": 0}
    coef_blocks = ("ar", "ma")

    def __init__(self, p: int = 2, q: int = 2):
        self.p = p
        self.q = q
        self.model = None

    def fit(self, train: DailySeries) -> "ArmaModel":
        self.model = fit_arma(train.values, self.p, self.q)
        return self


def _discrete_meta(m) -> dict:
    """model.txt metadata shared by the Markov and Bayes inner models."""
    return {"order": m.order, "n_classes": m.discretizer.n_classes, "smoothing": m.smoothing}


def _discrete_from_file(cls, meta, blocks):
    """The Markov or Bayes wrapper of a model.txt with its Discretizer and smoothing:
    n_classes + 1 strictly increasing edges, smoothing > 0."""
    model = cls._from_meta(meta)
    edges = checked("edges", blocks["edges"], (model.n_classes + 1,))
    if not np.all(np.diff(edges) > 0):
        raise DataError("edges: values must be strictly increasing")
    smoothing = checked("smoothing", float(meta["smoothing"]), (1,), low=0, strict=True)
    return model, Discretizer.from_edges(edges), float(smoothing[0])


def _transition_rows(blocks, k: int, n: int) -> np.ndarray:
    """Block ``transitions_k``: rows [c_1, ..., c_k, next, count] of integer
    classes below n and positive counts, strictly increasing by (context, next)."""
    name = f"transitions_{k}"
    rows = checked(name, blocks[name], (None, k + 2), low=0)
    checked(f"{name} counts", rows[:, -1], (None,), low=0, strict=True)
    if not np.all((rows[:, :-1] < n) & (rows[:, :-1] % 1 == 0)):
        raise DataError(f"{name}: classes must be integers in 0..{n - 1}")
    step, next_step = np.diff(_context_keys(rows[:, :k].astype(np.int64), n)), np.diff(rows[:, k])
    if np.any((step < 0) | ((step == 0) & (next_step <= 0))):
        raise DataError(f"{name}: rows must be strictly increasing by (context, next)")
    return rows


class MarkovChainModel(OneStepModel):
    name = "markov"
    params = {"order": 1, "n_classes": 2}

    def __init__(self, order: int = 3, n_classes: int = 50):
        self.order = order
        self.n_classes = n_classes
        self.model = None

    def fit(self, train: DailySeries) -> "MarkovChainModel":
        d = fit_discretizer(train.values, self.n_classes)
        self.model = fit_markov(train.values, d, self.order)
        return self

    def limits(self, n: int) -> dict:
        return {"n_classes": (n, "training values")}

    def predict_next(self, history: np.ndarray, target: dt.date) -> float:
        return predict_markov(self.model, history[-self.order :])

    def to_model_file(self):
        m = self.model
        blocks = {"edges": m.discretizer.edges, "marginal": m.marginal}
        for k, rows in enumerate(m.transitions, start=1):
            blocks[f"transitions_{k}"] = rows
        return _discrete_meta(m), blocks

    @classmethod
    def from_model_file(cls, meta, blocks):
        model, d, smoothing = _discrete_from_file(cls, meta, blocks)
        n = model.n_classes
        model.model = MarkovModel(
            order=model.order, discretizer=d,
            transitions=tuple(_transition_rows(blocks, k, n) for k in range(1, model.order + 1)),
            marginal=checked("marginal", blocks["marginal"], (n,), low=0), smoothing=smoothing,
        )
        return model


class BayesClassifierModel(OneStepModel):
    name = "bayes"
    params = {"order": 0, "n_classes": 2}

    def __init__(self, order: int = 3, n_classes: int = 50):
        self.order = order
        self.n_classes = n_classes
        self.model = None

    def fit(self, train: DailySeries) -> "BayesClassifierModel":
        d = fit_discretizer(train.values, self.n_classes)
        self.model = fit_bayes(train.values, d, self.order)
        return self

    def limits(self, n: int) -> dict:
        return {"n_classes": (n, "training values")}

    def predict_next(self, history: np.ndarray, target: dt.date) -> float:
        recent = history[-self.order :] if self.order else history[:0]
        return predict_bayes(self.model, recent)

    def to_model_file(self):
        m = self.model
        blocks = {"edges": m.discretizer.edges, "priors": m.prior_counts}
        for j in range(m.cond_counts.shape[0]):
            blocks[f"cond_lag_{j + 1}"] = m.cond_counts[j]
        return _discrete_meta(m), blocks

    @classmethod
    def from_model_file(cls, meta, blocks):
        model, d, smoothing = _discrete_from_file(cls, meta, blocks)
        n = model.n_classes
        cond = [checked(f"cond_lag_{j}", blocks[f"cond_lag_{j}"], (n, n), low=0)
                for j in range(1, max(model.order, 1) + 1)]
        model.model = BayesModel(
            order=model.order, discretizer=d, prior_counts=checked("priors", blocks["priors"], (n,), low=0),
            cond_counts=np.stack(cond), smoothing=smoothing,
        )
        return model


class KnnModel(OneStepModel):
    name = "knn"
    params = {"k": 1, "window": 1}

    def __init__(self, k: int = 10, window: int = 10):
        self.cfg = KnnConfig(k=k, window=window)

    @property
    def k(self) -> int:
        return self.cfg.k

    @property
    def window(self) -> int:
        return self.cfg.window

    def limits(self, n: int) -> dict:  # the query and one candidate window fit in n values
        return {"window": (n - 2, "values a training window may span"),
                "k": (n - self.cfg.window, "candidate windows")}

    def fit(self, train: DailySeries) -> "KnnModel":
        return self  # lazy learner: history arrives at prediction time

    def predict_next(self, history: np.ndarray, target: dt.date) -> float:
        return knn_predict(history, history[-self.cfg.window :], self.cfg)

    def to_model_file(self):
        return {"k": self.cfg.k, "window": self.cfg.window}, {}

    @classmethod
    def from_model_file(cls, meta, blocks):
        return cls._from_meta(meta)
