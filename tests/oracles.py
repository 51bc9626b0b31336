"""Independent reference implementations used to freeze expected values.

Each oracle computes the same quantity as the production code by a
different route (direct definitions, numerical integration, brute-force
scans, Monte Carlo) and stays deliberately naive.
"""

import math

import numpy as np

from solarcast import baselines, mlp
from solarcast.errors import DataError
from solarcast.mlp import forward, pack_params, unpack_params
from solarcast.model_io import MlpBundle, load_model_file, save_model_file


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


def finite_difference_jacobian(net, inputs: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central differences of the forward pass with respect to each parameter."""
    theta0 = pack_params(net)
    inputs = np.asarray(inputs, dtype=np.float64)
    out = np.empty((inputs.shape[0], theta0.size))
    for j in range(theta0.size):
        plus, minus = theta0.copy(), theta0.copy()
        plus[j] += step
        minus[j] -= step
        f_plus = forward(unpack_params(net.layout, plus), inputs)
        f_minus = forward(unpack_params(net.layout, minus), inputs)
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


def switch_save_forecaster(path, model) -> None:
    """model.txt writer as one if/elif per model kind, the reference for the
    per-class ``to_model_file`` methods."""
    if isinstance(model, baselines.NaiveModel):
        save_model_file(path, "naive", {}, {"day_means": model.day_means})
    elif isinstance(model, baselines.ArModel):
        lm = model.model
        save_model_file(
            path, "ar", {"p": lm.p},
            {"ar": lm.ar, "intercept": np.array([lm.intercept])},
        )
    elif isinstance(model, baselines.ArmaModel):
        lm = model.model
        save_model_file(
            path, "arma", {"p": lm.p, "q": lm.q},
            {"ar": lm.ar, "ma": lm.ma, "intercept": np.array([lm.intercept])},
        )
    elif isinstance(model, baselines.MarkovChainModel):
        m = model.model
        blocks = {
            "edges": m.discretizer.edges,
            "marginal": m.marginal,
        }
        for k in range(1, m.order + 1):
            rows = []
            for ctx in sorted(m.counts[k]):
                table = m.counts[k][ctx]
                for nxt in np.flatnonzero(table):
                    rows.append(list(ctx) + [nxt, table[nxt]])
            blocks[f"transitions_{k}"] = (
                np.asarray(rows, dtype=np.float64) if rows else np.empty((0, k + 2))
            )
        save_model_file(
            path, "markov",
            {"order": m.order, "n_classes": m.discretizer.n_classes, "smoothing": m.smoothing},
            blocks,
        )
    elif isinstance(model, baselines.BayesClassifierModel):
        m = model.model
        blocks = {"edges": m.discretizer.edges, "priors": m.prior_counts}
        for j in range(m.cond_counts.shape[0]):
            blocks[f"cond_lag_{j + 1}"] = m.cond_counts[j]
        save_model_file(
            path, "bayes",
            {"order": m.order, "n_classes": m.discretizer.n_classes, "smoothing": m.smoothing},
            blocks,
        )
    elif isinstance(model, baselines.KnnModel):
        save_model_file(
            path, "knn", {"k": model.cfg.k, "window": model.cfg.window}, {}
        )
    elif isinstance(model, MlpBundle):
        save_model_file(
            path, "mlp",
            {
                "n_inputs": model.mlp.layout.n_inputs,
                "n_hidden": model.mlp.layout.n_hidden,
                "seed": model.mlp.seed,
            },
            {
                "w1": model.mlp.w1,
                "b1": model.mlp.b1,
                "w2": model.mlp.w2,
                "b2": np.array([model.mlp.b2]),
                "scaler_mins": model.scaler.mins,
                "scaler_maxs": model.scaler.maxs,
            },
        )
    else:
        raise DataError(f"cannot serialize model of type {type(model).__name__}")


def switch_load_forecaster(path):
    """model.txt reader as one branch per model kind, the reference for the
    per-class ``from_model_file`` methods."""
    mf = load_model_file(path)
    if mf.kind == "naive":
        model = baselines.NaiveModel()
        model.day_means = mf.blocks["day_means"].ravel()
        return model
    if mf.kind == "ar":
        model = baselines.ArModel(p=int(mf.meta["p"]))
        model.model = baselines.LinearModel(
            ar=mf.blocks["ar"].ravel(), ma=np.empty(0),
            intercept=float(mf.blocks["intercept"].ravel()[0]),
        )
        return model
    if mf.kind == "arma":
        model = baselines.ArmaModel(p=int(mf.meta["p"]), q=int(mf.meta["q"]))
        model.model = baselines.LinearModel(
            ar=mf.blocks["ar"].ravel(), ma=mf.blocks["ma"].ravel(),
            intercept=float(mf.blocks["intercept"].ravel()[0]),
        )
        return model
    if mf.kind == "markov":
        order = int(mf.meta["order"])
        edges = mf.blocks["edges"].ravel()
        centers = (edges[:-1] + edges[1:]) / 2.0
        disc = baselines.Discretizer(edges=edges, centers=centers)
        n = disc.n_classes
        counts: dict[int, dict] = {k: {} for k in range(1, order + 1)}
        for k in range(1, order + 1):
            for row in mf.blocks[f"transitions_{k}"]:
                ctx = tuple(int(v) for v in row[:k])
                table = counts[k].setdefault(ctx, np.zeros(n))
                table[int(row[k])] = row[k + 1]
        inner = baselines.MarkovModel(
            order=order, discretizer=disc, counts=counts,
            marginal=mf.blocks["marginal"].ravel(),
            smoothing=float(mf.meta["smoothing"]),
        )
        model = baselines.MarkovChainModel(order=order, n_classes=n)
        model.model = inner
        return model
    if mf.kind == "bayes":
        order = int(mf.meta["order"])
        edges = mf.blocks["edges"].ravel()
        centers = (edges[:-1] + edges[1:]) / 2.0
        disc = baselines.Discretizer(edges=edges, centers=centers)
        n = disc.n_classes
        cond = np.stack(
            [mf.blocks[f"cond_lag_{j + 1}"] for j in range(max(order, 1))]
        )
        inner = baselines.BayesModel(
            order=order, discretizer=disc,
            prior_counts=mf.blocks["priors"].ravel(),
            cond_counts=cond, smoothing=float(mf.meta["smoothing"]),
        )
        model = baselines.BayesClassifierModel(order=order, n_classes=n)
        model.model = inner
        return model
    if mf.kind == "knn":
        return baselines.KnnModel(k=int(mf.meta["k"]), window=int(mf.meta["window"]))
    if mf.kind == "mlp":
        layout = mlp.MlpLayout(
            n_inputs=int(mf.meta["n_inputs"]), n_hidden=int(mf.meta["n_hidden"])
        )
        net = mlp.Mlp(
            layout=layout,
            w1=mf.blocks["w1"],
            b1=mf.blocks["b1"].ravel(),
            w2=mf.blocks["w2"].ravel(),
            b2=float(mf.blocks["b2"].ravel()[0]),
            seed=int(mf.meta["seed"]),
        )
        scaler = mlp.Scaler(
            mins=mf.blocks["scaler_mins"].ravel(), maxs=mf.blocks["scaler_maxs"].ravel()
        )
        return MlpBundle(mlp=net, scaler=scaler)
    raise DataError(f"unknown model kind {mf.kind!r}")
