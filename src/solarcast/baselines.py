"""Classical one-day-ahead forecasters.

Six reference predictors with a shared contract: each registry class
fits once on the training span, a DailySeries, then predicts each test day
from measured history without refitting. Value models (AR, ARMA, Markov,
Bayes, k-NN) read the series' values (raw Wh/m^2 or the corrected
dimensionless series); the naive predictor reads its calendar
(per-day-of-year training mean).
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DataError, NumericalError, checked, model_params
from .series import DailySeries, calendar
from .solar import DAYS_PER_YEAR

RIDGE = 1e-9
# Markov and Bayes forecast a span in blocks of rows whose (rows, n_classes)
# tables hold about this many cells, so many classes do not raise peak memory;
# k-NN sizes its (queries, candidates) blocks the same way for a long history.
_TABLE_CELLS = 2**16
# The most cells Bayes' (max(order, 1), n_classes, n_classes) count tables
# may hold: 128 MB of float64, which bounds the fit's memory and model.txt.
_BAYES_CELLS = 2**24


# ---------------------------------------------------------------------------
# linear models (AR / ARMA by two-stage least squares)
# ---------------------------------------------------------------------------


def _lag_rows(values, indices, order: int) -> np.ndarray:
    """Row j holds ``values[indices[j] - order : indices[j]]``, oldest first,
    padded with NaN where that window starts before the series. Every fit
    and forecast that reads past values builds its lag rows here."""
    padded = np.concatenate([np.full(order, np.nan), values])
    return np.lib.stride_tricks.sliding_window_view(padded, order)[indices]


def _gapless(train: DailySeries) -> np.ndarray:
    """The values of ``train``; a missing one is a DataError naming its date."""
    missing = np.isnan(train.values)
    if missing.any():
        day = train.date_at(int(np.argmax(missing))).isoformat()
        raise DataError(f"missing value in the training span on {day}")
    return train.values


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


def _ar_coefs(values, p: int) -> tuple[float, np.ndarray]:
    """Intercept and AR(p) coefficients by ordinary least squares."""
    x = np.asarray(values, dtype=np.float64)
    if x.size <= 10 * p or x.size < 2:
        raise DataError(f"series too short ({x.size}) for AR({p})")
    return _ridge_ols(_lag_rows(x, np.arange(p, x.size), p)[:, ::-1], x[p:])


def _arma_coefs(values, p: int, q: int) -> tuple[float, np.ndarray]:
    """Intercept and the p AR then q MA coefficients of ARMA(p, q) by the
    two-stage regression on residual proxies.

    Stage 1 fits a long AR (order max(20, 2(p+q))) whose one-step errors
    stand in for the unobserved innovations; stage 2 regresses the value
    on p value lags and q proxy lags.
    """
    x = np.asarray(values, dtype=np.float64)
    if q == 0:
        if x.size <= 10 * p:
            raise DataError(f"series too short ({x.size}) for ARMA({p},0)")
        return _ar_coefs(x, p)
    if x.size <= 10 * (p + q):
        raise DataError(f"series too short ({x.size}) for ARMA({p},{q})")

    long_order = max(20, 2 * (p + q))
    if x.size <= long_order + q + max(p, 1):
        raise DataError("series too short for the long-AR residual stage")
    lags = _lag_rows(x, np.arange(long_order, x.size), long_order)[:, ::-1]
    c0, phi0 = _ridge_ols(lags, x[long_order:])
    resid = np.concatenate([np.full(long_order, np.nan), x[long_order:] - (c0 + lags @ phi0)])
    # Row t in the stage-2 regression: target x[t], value lags x[t-1..t-p]
    # and proxy lags resid[t-1..t-q], the long AR's one-step errors.
    rows = np.arange(long_order + q, x.size)
    return _ridge_ols(np.hstack([_lag_rows(x, rows, p)[:, ::-1], _lag_rows(resid, rows, q)[:, ::-1]]), x[rows])


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


def fit_discretizer(values, n_classes: int) -> Discretizer:
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


def _context_keys(contexts: np.ndarray, n: int) -> np.ndarray:
    """Each context's classes read as one base-n integer, oldest class first."""
    return contexts @ n ** np.arange(contexts.shape[-1] - 1, -1, -1, dtype=np.int64)


def _check_context_keys(n: int, order: int) -> None:
    """Contexts of ``order`` classes out of ``n`` must fit int64 keys; an n >= 2
    exceeds 2**63 from order 64 on, so the power never grows past that."""
    if n ** min(order, 64) > 2**63:
        raise DataError(f"{n} classes to the power of order {order} exceed int64 keys")


# ---------------------------------------------------------------------------
# the registry forecasters: fit on the training span, forecast a span
# ---------------------------------------------------------------------------


def _check_history(indices, days, need: int, missing=False) -> None:
    """Raise for the first of ``indices`` with fewer than ``need`` values
    before it, or flagged in ``missing`` (its forecast reads a missing
    value), naming the matching day of ``days``."""
    short = np.asarray(indices) < need
    bad = short | missing
    if bad.any():
        j = int(np.argmax(bad))
        what = f"need {need} values of history" if short[j] else "missing value in the history"
        raise DataError(f"{what} before {days[j].isoformat()}")


class OneStepModel:
    """fit(train) once, then ``predict_span(values, indices, days)``: the
    forecast of ``values[i]`` from ``values[:i]`` for each index, whose
    date is the matching entry of ``days``.

    ``params`` maps each constructor hyperparameter a config or CLI flag
    may set to its least value; the defaults live only in ``__init__``.
    ``limits(train)`` maps those that the training series bounds to (largest
    value, what bounds it); ``errors.model_params`` checks both. ``to_model_file()``
    returns the (meta, blocks) of model.txt and the classmethod
    ``from_model_file(meta, blocks)`` rebuilds the fitted model from them.
    """

    name = "base"
    params: dict[str, int] = {}

    def limits(self, train: DailySeries) -> dict:
        return {}

    def fit(self, train: DailySeries) -> "OneStepModel":
        raise NotImplementedError

    def predict_span(self, values: np.ndarray, indices, days) -> np.ndarray:
        raise NotImplementedError

    def predict_next(self, history: np.ndarray, target: dt.date) -> float:
        """``predict_span`` of the one day ``target`` right after ``history``."""
        return float(self.predict_span(history, [len(history)], [target])[0])

    @classmethod
    def _from_meta(cls, meta: dict):
        return cls(**model_params({key: meta[key] for key in cls.params}, cls.params))


class NaiveModel(OneStepModel):
    """The training mean of each day-of-year slot (NaN where no value)."""

    name = "naive"

    def __init__(self):
        self.day_means = None

    def fit(self, train: DailySeries) -> "NaiveModel":
        sd = train.seasonal_days()
        present = np.isfinite(train.values)
        counts = np.bincount(sd[present] - 1, minlength=DAYS_PER_YEAR)
        sums = np.bincount(sd[present] - 1, weights=train.values[present], minlength=DAYS_PER_YEAR)
        with np.errstate(invalid="ignore"):
            self.day_means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        return self

    def predict_span(self, values: np.ndarray, indices, days) -> np.ndarray:
        out = self.day_means[calendar(days)[2] - 1]
        if np.isnan(out).any():
            day = days[int(np.argmax(np.isnan(out)))].isoformat()
            raise DataError(f"no training value for day-of-year of {day}")
        return out

    def to_model_file(self):
        return {}, {"day_means": self.day_means}

    @classmethod
    def from_model_file(cls, meta, blocks):
        model = cls()
        model.day_means = checked("day_means", blocks["day_means"], (DAYS_PER_YEAR,), low=0, nan_ok=True)
        return model


class _LinearForecaster:
    """What AR and ARMA share: the fitted ``ar`` and ``ma`` coefficients
    (most recent lag first) and ``intercept``, prediction, and the model.txt
    layout (orders as metadata, one block per coefficient vector in
    ``coef_blocks``, then the intercept). Block ``coef_blocks[i]`` holds as
    many coefficients as the order ``params[i]``. Each class keeps its own fit."""

    q = 0  # AR has no moving-average part
    coef_blocks: tuple[str, ...] = ()

    def _hold(self, intercept: float, beta: np.ndarray):
        """Keep ``intercept`` and ``beta``'s first ``p`` values as ``ar``, the rest as ``ma``."""
        self.intercept, self.ar, self.ma = intercept, beta[: self.p], beta[self.p :]
        return self

    def residuals(self, values) -> np.ndarray:
        """Filter the series through the model; residuals start at max(p, q)."""
        x = np.ascontiguousarray(values, dtype=np.float64)
        return kernels.arma_residuals(x, self.ar, self.ma, self.intercept)

    def predict_span(self, values: np.ndarray, indices, days) -> np.ndarray:
        """intercept + sum(ar_i * lag_i) + sum(ma_j * residual_j) for each
        index, lags most-recent-first.

        The residuals are filtered once over the whole array: e_t depends only
        on x_0..x_t, so they equal those of filtering each prefix separately.
        Each row's products are stacked ``(n, 1, k)`` ones, which keep the bits
        of one dot product per day. A missing value makes the forecasts that
        read it NaN (through the residuals, every later one); the first such
        day, or one with fewer than max(p, q) values before it, is refused.
        """
        x = np.ascontiguousarray(values, dtype=np.float64)
        indices = np.asarray(indices, dtype=np.int64)
        out = np.full(indices.size, self.intercept)
        if self.p:
            out += (_lag_rows(x, indices, self.p)[:, None, ::-1] @ self.ar)[:, 0]
        if self.q:
            out += (_lag_rows(self.residuals(x), indices, self.q)[:, None, ::-1] @ self.ma)[:, 0]
        _check_history(indices, days, max(self.p, self.q), np.isnan(out))
        return out

    def to_model_file(self):
        blocks = {name: getattr(self, name) for name in self.coef_blocks}
        blocks["intercept"] = np.array([self.intercept])
        return {key: getattr(self, key) for key in self.params}, blocks

    @classmethod
    def from_model_file(cls, meta, blocks):
        model = cls._from_meta(meta)
        coefs = [checked(name, blocks[name], (getattr(model, order),))
                 for name, order in zip(cls.coef_blocks, cls.params)]
        return model._hold(float(checked("intercept", blocks["intercept"], (1,))[0]), np.concatenate(coefs))


class ArModel(_LinearForecaster, OneStepModel):
    name = "ar"
    params = {"p": 0}
    coef_blocks = ("ar",)

    def __init__(self, p: int = 8):
        self.p = p
        self.ar = self.ma = self.intercept = None

    def limits(self, train: DailySeries) -> dict:
        """``_ar_coefs``'s guard: more than 10 training values per lag."""
        n = len(train)
        return {"p": ((n - 1) // 10, f"lags that {n} training values fit at more than 10 values per lag")}

    def fit(self, train: DailySeries) -> "ArModel":
        return self._hold(*_ar_coefs(_gapless(train), self.p))


class ArmaModel(_LinearForecaster, OneStepModel):
    name = "arma"
    params = {"p": 0, "q": 0}
    coef_blocks = ("ar", "ma")

    def __init__(self, p: int = 2, q: int = 2):
        self.p = p
        self.q = q
        self.ar = self.ma = self.intercept = None

    def limits(self, train: DailySeries) -> dict:
        """``_arma_coefs``'s guards: more than 10 training values per
        coefficient and, when q > 0, more than the long AR's order
        max(20, 2(p+q)) plus q + max(p, 1); where 2(p+q) > 20, the first is
        the tighter. ``p`` is bounded as if q were 0, ``q`` by what the ``p``
        in use leaves."""
        n = len(train)
        q_max = min((n - 1) // 10 - self.p, n - 21 - max(self.p, 1))
        return {"p": ((n - 1) // 10, f"lags that {n} training values fit at more than 10 values per lag"),
                "q": (max(q_max, 0), f"MA lags that {n} training values fit with p={self.p}")}

    def fit(self, train: DailySeries) -> "ArmaModel":
        return self._hold(*_arma_coefs(_gapless(train), self.p, self.q))


class _DiscreteForecaster(OneStepModel):
    """What Markov and Bayes share: the ``order`` values before a day, each
    classed by an equal-width ``discretizer`` of ``n_classes`` classes, and
    count tables with additive ``smoothing``. Each class counts its tables
    over the training values in ``_counts``, keeps them (with the discretizer
    and smoothing) in ``_hold``, forecasts a block of lag rows (classed by
    ``_row_classes``) in ``predict_rows``, and names its count blocks of
    model.txt in ``_count_blocks`` and ``_read_counts``."""

    def __init__(self, order: int = 3, n_classes: int = 50):
        self.order = order
        self.n_classes = n_classes
        self.discretizer = self.smoothing = None

    def limits(self, train: DailySeries) -> dict:
        return {"n_classes": (len(train), "training values")}

    def fit(self, train: DailySeries) -> "_DiscreteForecaster":
        values = _gapless(train)
        d = fit_discretizer(values, self.n_classes)
        return self._hold(d, *self._counts(values, d))

    def predict_span(self, values: np.ndarray, indices, days) -> np.ndarray:
        """``predict_rows`` of the ``order`` values before each index, a block
        of rows at a time. The first row with a NaN decides the error: too
        little history, or a missing value in the history before its day."""
        idx = np.asarray(indices, dtype=np.int64)
        rows = _lag_rows(values, idx, self.order)
        _check_history(idx, days, self.order, np.isnan(rows).any(axis=1))
        step = max(1, _TABLE_CELLS // self.n_classes)
        return np.concatenate([self.predict_rows(block) for block in np.split(rows, range(step, len(rows), step))])

    def _row_classes(self, recent) -> np.ndarray:
        """The classes of ``recent``, rows of at least ``order`` values."""
        recent = np.asarray(recent, dtype=np.float64)
        if recent.shape[1] < self.order:
            raise DataError(f"need {self.order} recent values, got {recent.shape[1]}")
        return self.discretizer.classes_of(recent)

    def to_model_file(self):
        meta = {"order": self.order, "n_classes": self.n_classes, "smoothing": self.smoothing}
        return meta, {"edges": self.discretizer.edges, **self._count_blocks()}

    @classmethod
    def from_model_file(cls, meta, blocks):
        """The model of a model.txt: n_classes + 1 strictly increasing edges,
        smoothing > 0, then the count blocks that ``_read_counts`` checks."""
        model = cls._from_meta(meta)
        edges = checked("edges", blocks["edges"], (model.n_classes + 1,))
        if not np.all(np.diff(edges) > 0):
            raise DataError("edges: values must be strictly increasing")
        smoothing = checked("smoothing", float(meta["smoothing"]), (1,), low=0, strict=True)
        return model._hold(Discretizer.from_edges(edges), *model._read_counts(blocks), float(smoothing[0]))


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


class MarkovChainModel(_DiscreteForecaster):
    """Class-transition counts for context lengths 1..order plus marginals.

    ``transitions[k - 1]`` holds one row ``[c_1, ..., c_k, next, count]``
    per transition seen: the k context classes oldest first, the class that
    followed them and how often it did, sorted by context and then by next
    class. These are the rows of model.txt's ``transitions_k`` block.
    ``marginal[c]`` counts how often class c followed any day.
    """

    name = "markov"
    params = {"order": 1, "n_classes": 2}

    def _counts(self, values, discretizer: Discretizer) -> tuple[list, np.ndarray]:
        """The ``transitions`` blocks and ``marginal`` counted over ``values``."""
        if values.size <= self.order:
            raise DataError("series shorter than the Markov order")
        _check_context_keys(discretizer.n_classes, self.order)
        classes = discretizer.classes_of(values)
        transitions = []
        for k in range(1, self.order + 1):
            windows = np.lib.stride_tricks.sliding_window_view(classes, k + 1)
            seen, counts = np.unique(windows, axis=0, return_counts=True)
            transitions.append(np.column_stack([seen, counts]).astype(np.float64))
        marginal = np.bincount(classes[1:], minlength=discretizer.n_classes).astype(np.float64)
        return transitions, marginal

    def _hold(self, discretizer: Discretizer, transitions, marginal: np.ndarray, smoothing: float = 1.0):
        """Keep the fitted tables and each ``transitions`` block's context keys."""
        self.discretizer, self.marginal, self.smoothing = discretizer, marginal, smoothing
        self.transitions = tuple(transitions)
        blocks = enumerate(self.transitions, start=1)
        n = discretizer.n_classes
        self._keys = tuple(_context_keys(rows[:, :k].astype(np.int64), n) for k, rows in blocks)
        return self

    def next_counts(self, contexts) -> tuple[np.ndarray, np.ndarray]:
        """Dense next-class counts after each row of ``contexts`` (m, k classes,
        oldest first) as one (m, n) array, and which ones training saw."""
        contexts = np.asarray(contexts, dtype=np.int64)
        m, k = contexts.shape
        keys, rows = self._keys[k - 1], self.transitions[k - 1]
        key = _context_keys(contexts, self.n_classes)
        lo = np.searchsorted(keys, key, "left")
        counts = np.searchsorted(keys, key, "right") - lo
        # the block rows of context r are lo[r] .. lo[r] + counts[r] - 1
        at = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        tables = np.zeros((m, self.n_classes))
        tables[np.repeat(np.arange(m), counts), rows[at, k].astype(np.int64)] = rows[at, k + 1]
        return tables, counts > 0

    def predict_rows(self, recent) -> np.ndarray:
        """Expected next value after each row of ``recent`` under the smoothed conditional distribution.

        Contexts never seen in training fall back to shorter contexts and
        finally to the marginal next-class distribution.
        """
        classes = self._row_classes(recent)
        tables = np.tile(self.marginal, (classes.shape[0], 1))
        for k in range(1, self.order + 1):  # a longer seen context replaces a shorter one
            seen_tables, seen = self.next_counts(classes[:, -k:])
            tables[seen] = seen_tables[seen]
        alpha = self.smoothing
        probs = (tables + alpha) / (tables.sum(axis=1, keepdims=True) + alpha * self.discretizer.n_classes)
        return (probs[:, None, :] @ self.discretizer.centers)[:, 0]

    def _count_blocks(self) -> dict:
        return {"marginal": self.marginal,
                **{f"transitions_{k}": rows for k, rows in enumerate(self.transitions, start=1)}}

    def _read_counts(self, blocks) -> tuple[list, np.ndarray]:
        n = self.n_classes
        _check_context_keys(n, self.order)
        transitions = [_transition_rows(blocks, k, n) for k in range(1, self.order + 1)]
        return transitions, checked("marginal", blocks["marginal"], (n,), low=0)


class BayesClassifierModel(_DiscreteForecaster):
    """Naive-Bayes counts: class priors and per-lag conditional tables.

    ``cond_counts[j - 1]`` is the (next class, lag-j class) table for
    lags 1..max(order, 1), model.txt's ``cond_lag_j`` block.
    """

    name = "bayes"
    params = {"order": 0, "n_classes": 2}

    def limits(self, train: DailySeries) -> dict:
        """``n_classes`` is at most the training values, and its squared
        counts in each of the max(order, 1) tables fit ``_BAYES_CELLS``."""
        tables = max(self.order, 1)
        fits = math.isqrt(_BAYES_CELLS // tables)
        if fits < len(train):
            return {"n_classes": (fits, f"classes whose {tables} count tables fit in {_BAYES_CELLS} cells")}
        return super().limits(train)

    def _counts(self, values, discretizer: Discretizer) -> tuple[np.ndarray, np.ndarray]:
        """The ``prior_counts`` and ``cond_counts`` counted over ``values``."""
        if values.size <= self.order:
            raise DataError("series shorter than the Bayes order")
        classes = discretizer.classes_of(values)
        n = discretizer.n_classes
        first = max(self.order, 1)  # the first position with a next class and all its lags
        nxt = classes[first:]
        prior = np.bincount(nxt, minlength=n).astype(np.float64)
        cond = np.zeros((first, n, n))
        for j in range(1, self.order + 1):
            np.add.at(cond[j - 1], (nxt, classes[first - j : classes.size - j]), 1.0)
        return prior, cond

    def _hold(self, discretizer: Discretizer, prior_counts, cond_counts, smoothing: float = 1.0):
        """Keep the fitted tables; ``cond_counts`` is (max(order, 1), next class, lag class)."""
        self.discretizer, self.prior_counts, self.cond_counts = discretizer, prior_counts, cond_counts
        self.smoothing = smoothing
        return self

    def predict_rows(self, recent) -> np.ndarray:
        """Posterior-weighted mean of class centers given each row's lag classes."""
        n = self.discretizer.n_classes
        alpha = self.smoothing
        classes = self._row_classes(recent)
        prior = (self.prior_counts + alpha) / (self.prior_counts.sum() + alpha * n)
        log_post = np.tile(np.log(prior), (classes.shape[0], 1))
        denom = self.prior_counts + alpha * n
        for j in range(1, self.order + 1):  # row r: next-class counts given its lag-j class
            log_post += np.log((self.cond_counts[j - 1].T[classes[:, -j]] + alpha) / denom)
        log_post -= log_post.max(axis=1, keepdims=True)
        post = np.exp(log_post)
        post /= post.sum(axis=1, keepdims=True)
        return (post[:, None, :] @ self.discretizer.centers)[:, 0]

    def _count_blocks(self) -> dict:
        return {"priors": self.prior_counts,
                **{f"cond_lag_{j}": table for j, table in enumerate(self.cond_counts, start=1)}}

    def _read_counts(self, blocks) -> tuple[np.ndarray, np.ndarray]:
        n = self.n_classes
        cond = [checked(f"cond_lag_{j}", blocks[f"cond_lag_{j}"], (n, n), low=0)
                for j in range(1, max(self.order, 1) + 1)]
        return checked("priors", blocks["priors"], (n,), low=0), np.stack(cond)


class KnnModel(OneStepModel):
    """k-nearest-neighbour analogs: a day's forecast is the mean successor
    of the k in-history windows closest to its query, the ``window``
    values before it. A candidate window has its successor inside the
    history. Windows rank by squared distance to the query, NaN (a gap)
    last and ties toward the earlier window: a stable argsort's first k.
    """

    name = "knn"
    params = {"k": 1, "window": 1}

    def __init__(self, k: int = 10, window: int = 10):
        self.k = k
        self.window = window

    def limits(self, train: DailySeries) -> dict:  # the query and one candidate window fit in train
        n = len(train)
        return {"window": (n - 2, "values a training window may span"),
                "k": (n - self.window, "candidate windows")}

    def fit(self, train: DailySeries) -> "KnnModel":
        return self  # lazy learner: history arrives at prediction time

    def predict_span(self, values: np.ndarray, indices, days) -> np.ndarray:
        """The forecast of each index from the values before it, a block of
        queries at a time (see ``_nearest_block``); a row's bits do not
        depend on its block. A day with too few values for the query and
        max(k, 2) candidate windows is refused before any query runs, then
        the first whose query holds a missing value or whose chosen windows
        have one as a successor."""
        x = np.asarray(values, dtype=np.float64)
        idx = np.asarray(indices, dtype=np.int64)
        need = self.window + max(self.k, 2)
        _check_history(idx, days, need)
        queries = _lag_rows(x, idx, self.window)
        out = np.empty(idx.size)
        if idx.size:
            # candidate j is the window x[j : j + window]; x[j + window] follows it
            cands = _lag_rows(x, np.arange(self.window, idx.max()), self.window)
            with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm is ranked exactly
                cands_norms = np.column_stack([-2.0 * cands, kernels.row_sq_distances(cands, 0.0)])
            step = max(1, _TABLE_CELLS // len(cands))
            for block in np.split(np.arange(idx.size), range(step, idx.size, step)):
                out[block] = self._nearest_block(x, idx[block], queries[block], cands, cands_norms)
        _check_history(idx, days, need, np.isnan(out) | np.isnan(queries).any(axis=1))
        return out

    def _nearest_block(self, x, idx, queries, cands, cands_norms) -> np.ndarray:
        """The forecast of each query of a block, pruned by an estimate (the
        lower-bound pruning of Rakthanmanon et al., KDD 2012) and decided
        by the exact distances. ``cands_norms`` holds the rows
        [-2c, ||c||^2] of the candidate windows c.

        One gemm of them with the rows [q, 1] estimates each distance less
        the query's own ||q||^2, which does not change the ranking of a
        row. Against the true distance, the estimate plus ||q||^2 is off by
        at most 3 gamma_{w+2} (||c||^2 + ||q||^2) and the exact
        ``kernels.row_sq_distances`` by at most 2 gamma_{w+2} (||c||^2 +
        ||q||^2) (Higham, *Accuracy and Stability of Numerical Algorithms*,
        2nd ed., §3.1), so the margin m below bounds |estimate - exact|
        with room to spare. The k windows with the least estimates, up to
        the k-th e_k, have exact distances of at most e_k + m; so every
        window as near as the exact k-th, ties included, has an estimate of
        at most e_k + 2m. Only those are ranked, by exact distance and then
        index, which picks the windows of the class's rule. A row cannot
        be pruned if its query is not finite, its norms come near overflow
        or it has fewer than k finite candidates (gaps in the history): it
        keeps every candidate of its history for that same exact ranking.
        """
        k, w = self.k, self.window
        n_cands = idx - w  # query r may use candidates 0 .. n_cands[r] - 1
        n = n_cands.max()
        u = np.finfo(float).eps / 2  # the unit roundoff
        gamma = (w + 2) * u / (1 - (w + 2) * u)
        with np.errstate(over="ignore", invalid="ignore"):
            est = np.column_stack([queries, np.ones(len(idx))]) @ cands_norms[:n].T
            lo = n_cands.min()  # candidates past a query's history never count
            est[:, lo:][np.arange(lo, n) >= n_cands[:, None]] = np.inf
            e_k = np.partition(est, k - 1, axis=1)[:, k - 1]
            # fmax skips the NaN norm of a window with a gap, which is never chosen
            scale = np.fmax.reduce(cands_norms[:n, -1]) + kernels.row_sq_distances(queries, 0.0)
            limit = e_k + 2 * (8 * gamma * scale + w * np.finfo(float).tiny)
        exact = ~((scale <= np.finfo(float).max / 4) & np.isfinite(e_k))
        # an unprunable row keeps each candidate of its history (-inf) and no other (NaN)
        est[exact] = np.where(np.arange(n) < n_cands[exact, None], -np.inf, np.nan)
        limit[exact] = np.inf
        rows, cols = np.divmod(np.flatnonzero(est <= limit[:, None]), n)
        dist = kernels.row_sq_distances(cands[cols], queries[rows])
        ranked = cols[np.lexsort((cols, dist, rows))]
        first = np.searchsorted(rows, np.arange(len(idx)))  # rows ascend, in the ranking too
        return x[ranked[first[:, None] + np.arange(k)] + w].mean(axis=1)

    def to_model_file(self):
        return {"k": self.k, "window": self.window}, {}

    @classmethod
    def from_model_file(cls, meta, blocks):
        return cls._from_meta(meta)
