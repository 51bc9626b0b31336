"""In-memory span tracing of solarcast, installed from outside the package.

Each public function is wrapped at the name its caller looks up:
``pipeline`` and ``cli`` bind ``write_csv``/``load_csv``/``clean``/
``generate_synthetic`` by name, so those names are wrapped in both
modules; ``baselines`` and ``mlp`` call ``kernels.*`` through module
attributes, so the attributes of ``kernels`` are wrapped. Methods are
wrapped on their classes. Nothing in ``src/`` changes.

A span is a dict with ``id``, ``name``, ``start``, ``end``, ``parent``,
``run`` and ``attrs`` (counts measured at the boundary). Spans stay in
memory until :meth:`Tracer.dump`. Times come from ``time.perf_counter``,
which on Linux is CLOCK_MONOTONIC and so comparable across processes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

MODEL_CLASSES = {
    "naive": "NaiveModel",
    "ar": "ArModel",
    "arma": "ArmaModel",
    "markov": "MarkovChainModel",
    "bayes": "BayesClassifierModel",
    "knn": "KnnModel",
}
KERNELS = (
    "mlp_forward",
    "mlp_forward_jacobian",
    "gauss_newton_matrices",
    "window_sq_distances",
    "arma_residuals",
)
CLI_COMMANDS = ("synth", "clean", "preprocess", "spectrum", "train", "predict", "invert", "evaluate")
MODELS = (*MODEL_CLASSES, "mlp")


class Tracer:
    def __init__(self, run_id: str, parent: str | None = None):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack = [parent]
        self._prefix = f"{os.getpid()}-"
        self._next_id = 0
        self._patches: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        self._next_id += 1
        rec = {
            "id": f"{self._prefix}{self._next_id}", "name": name, "start": time.perf_counter(),
            "end": None, "parent": self._stack[-1], "run": self.run_id, "attrs": {},
        }
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper; ``measure`` maps
        (args, kwargs, result) to span attrs, outside the timed interval."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                result = original(*args, **kwargs)
            if measure is not None:
                rec["attrs"].update(measure(args, kwargs, result))
            return result

        own = attr in vars(owner)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original if own else None))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans}), encoding="utf-8")


# ---------------------------------------------------------------------------
# boundary counts (computed from argument shapes, not measured in hardware)
# ---------------------------------------------------------------------------


def _mlp_forward_counts(args, kwargs, result):
    w1, x = args[0], args[4]
    n, p = x.shape
    m = w1.shape[0]
    return {
        "elements": n,
        "flops": n * m * (2 * p + 6) + n,
        "bytes": 8 * (n * p + m * p + 2 * m + 1 + n),
    }


def _mlp_jacobian_counts(args, kwargs, result):
    w1, x = args[0], args[4]
    n, p = x.shape
    m = w1.shape[0]
    k = m * p + 2 * m + 1
    return {
        "elements": n,
        "flops": n * m * (3 * p + 9) + n,
        "bytes": 8 * (n * p + k + n + n * k),
    }


def _gauss_newton_counts(args, kwargs, result):
    n, k = args[0].shape
    return {"elements": n, "flops": 2 * n * k * k + 2 * n * k, "bytes": 8 * (n * k + n + k * k + k)}


def _window_counts(args, kwargs, result):
    w = args[1].shape[0]
    n = int(args[2])
    return {"elements": n, "flops": 3 * n * w, "bytes": 8 * (2 * n + 2 * w - 1)}


def _arma_counts(args, kwargs, result):
    x, phi, theta = args[0], args[1], args[2]
    n, p, q = x.shape[0], phi.shape[0], theta.shape[0]
    return {
        "elements": n,
        "flops": max(n - max(p, q), 0) * (2 * (p + q) + 1),
        "bytes": 8 * (2 * n + p + q),
    }


KERNEL_COUNTS = {
    "mlp_forward": _mlp_forward_counts,
    "mlp_forward_jacobian": _mlp_jacobian_counts,
    "gauss_newton_matrices": _gauss_newton_counts,
    "window_sq_distances": _window_counts,
    "arma_residuals": _arma_counts,
}


def _dest_bytes(args, kwargs, result):
    dest = args[1] if len(args) > 1 else kwargs.get("dest")
    return {"bytes": os.path.getsize(dest)} if isinstance(dest, (str, os.PathLike)) else {}


def _replaced(args, kwargs, result):
    return {"replaced": len(result[1])}


def _saved_model(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "kind": args[1].name}


def _fisher_terms(args, kwargs, result):
    return {"terms": min(int(1.0 / result.g), args[0].ordinates.size)}


def _epochs(args, kwargs, result):
    return {"epochs": len(result[1].train_mse)}


def _knn_kept(args, kwargs, result):
    return {"kept": args[0].cfg.k}


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of solarcast; undo with ``tracer.unwrap()``."""
    from solarcast import baselines, cli, evaluation, kernels, mlp, model_io, pipeline, preprocess, series, spectral

    for owner in (series, pipeline, cli):
        tracer.wrap(owner, "generate_synthetic", "series.generate_synthetic")
        tracer.wrap(owner, "clean", "series.clean", _replaced)
    for owner in (pipeline, cli):
        tracer.wrap(owner, "write_csv", "series.write_csv", _dest_bytes)
        tracer.wrap(owner, "load_csv", "series.load_csv")
    tracer.wrap(preprocess, "fit", "preprocess.fit")
    tracer.wrap(preprocess.Preprocessor, "apply", "preprocess.apply")
    tracer.wrap(preprocess.Preprocessor, "invert", "preprocess.invert")
    tracer.wrap(spectral, "periodogram", "spectral.periodogram")
    tracer.wrap(spectral, "fisher_g_test", "spectral.fisher_g_test", _fisher_terms)
    for model, cls_name in MODEL_CLASSES.items():
        cls = getattr(baselines, cls_name)
        tracer.wrap(cls, "fit", f"baselines.{model}.fit")
        tracer.wrap(cls, "predict_next", f"baselines.{model}.predict",
                    _knn_kept if model == "knn" else None)
    for name in KERNELS:
        tracer.wrap(kernels, name, f"kernels.{name}", KERNEL_COUNTS[name])
    tracer.wrap(mlp, "train_lm", "mlp.train_lm", _epochs)
    tracer.wrap(model_io.MlpBundle, "predict_next", "mlp.predict")
    tracer.wrap(model_io, "save_forecaster", "model_io.save", _saved_model)
    tracer.wrap(model_io, "load_forecaster", "model_io.load")
    for name in ("metrics", "seasonal_breakdown", "monthly_errors", "confidence_interval"):
        tracer.wrap(evaluation, name, f"evaluation.{name}")


# ---------------------------------------------------------------------------
# per-layer metrics derived from spans
# ---------------------------------------------------------------------------


class SpanIndex:
    def __init__(self, spans: list[dict]):
        self.spans = spans
        by_id = {s["id"]: s for s in spans}
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for s in spans:
            self.children[s["parent"]].append(s)
            self.by_name[s["name"]].append(s)
        self.ancestor_names: dict[str, frozenset] = {}
        for s in spans:
            names, parent = [], by_id.get(s["parent"])
            while parent is not None:
                names.append(parent["name"])
                parent = by_id.get(parent["parent"])
            self.ancestor_names[s["id"]] = frozenset(names)

    def select(self, name: str, under: str | None = None, not_under: tuple = ()):
        """Spans called ``name``, skipping those nested in a span of the
        same name (recursion) or of a name in ``not_under``, and keeping
        only those with an ancestor called ``under`` if given."""
        out = []
        for s in self.by_name.get(name, ()):
            names = self.ancestor_names[s["id"]]
            if name in names or names.intersection(not_under):
                continue
            if under is not None and under not in names:
                continue
            out.append(s)
        return out

    def seconds(self, name: str, **kw) -> float:
        return sum(s["end"] - s["start"] for s in self.select(name, **kw))

    def attr_sum(self, name: str, attr: str, **kw) -> float:
        return sum(s["attrs"].get(attr, 0) for s in self.select(name, **kw))

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the time its direct children cover."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered = sum(c["end"] - c["start"] for c in self.children[s["id"]])
            out[s["name"]] += (s["end"] - s["start"]) - covered
        return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(ix: SpanIndex, pass_wall_s: float) -> dict[str, float]:
    """Per-layer values for one traced set-up plus one traced pass.

    Layers the workload never reaches read 0.
    """
    out: dict[str, float] = {}
    for layer in ("series.generate_synthetic", "series.clean", "series.write_csv", "series.load_csv",
                  "preprocess.fit", "preprocess.apply", "preprocess.invert",
                  "spectral.periodogram", "spectral.fisher_g_test",
                  "mlp.train_lm", "mlp.predict", "model_io.save", "model_io.load",
                  "evaluation.confidence_interval"):
        out[f"{layer}_s"] = ix.seconds(layer)
    out["series.clean.replaced"] = ix.attr_sum("series.clean", "replaced")
    out["series.csv_bytes"] = ix.attr_sum("series.write_csv", "bytes")
    out["spectral.fisher_terms"] = ix.attr_sum("spectral.fisher_g_test", "terms")
    out["evaluation.metrics_s"] = ix.seconds(
        "evaluation.metrics", not_under=("evaluation.seasonal_breakdown",))
    out["evaluation.breakdowns_s"] = (
        ix.seconds("evaluation.seasonal_breakdown") + ix.seconds("evaluation.monthly_errors"))

    for model in MODEL_CLASSES:
        out[f"baselines.{model}.fit_s"] = ix.seconds(f"baselines.{model}.fit")
        out[f"baselines.{model}.predict_s"] = ix.seconds(f"baselines.{model}.predict")
    for name in KERNELS:
        chosen = ix.select(f"kernels.{name}")
        out[f"kernels.{name}.calls"] = len(chosen)
        out[f"kernels.{name}.s"] = sum(s["end"] - s["start"] for s in chosen)
        for attr in ("elements", "flops", "bytes"):
            key = f"kernels.{name}.{attr}" + ("" if attr == "elements" else "_computed")
            out[key] = sum(s["attrs"].get(attr, 0) for s in chosen)

    arma_forecasts = len(ix.select("baselines.arma.predict"))
    out["kernels.arma_residuals.elements_per_forecast"] = _ratio(
        ix.attr_sum("kernels.arma_residuals", "elements", under="baselines.arma.predict"), arma_forecasts)
    out["baselines.knn.sorted_per_kept"] = _ratio(
        ix.attr_sum("kernels.window_sq_distances", "elements", under="baselines.knn.predict"),
        ix.attr_sum("baselines.knn.predict", "kept"))

    epochs = ix.attr_sum("mlp.train_lm", "epochs")
    trial_evals = len(ix.select("kernels.mlp_forward", under="mlp.train_lm")) - epochs
    out["mlp.epochs"] = epochs
    out["mlp.s_per_epoch"] = _ratio(out["mlp.train_lm_s"], epochs)
    out["mlp.lm_accept_ratio"] = _ratio(epochs, trial_evals)

    for span in ix.select("model_io.save"):
        out[f"model_io.bytes.{span['attrs']['kind']}"] = span["attrs"]["bytes"]
    for model in MODELS:
        out.setdefault(f"model_io.bytes.{model}", 0)
        out[f"run_s.{model}"] = ix.seconds(f"run.{model}")
    cli_total = 0.0
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = ix.seconds(f"cli.{command}")
        cli_total += out[f"cli.{command}_s"]
    out["cli.span_share"] = _ratio(cli_total, pass_wall_s)
    out["baselines.arma.predict_share"] = _ratio(out["baselines.arma.predict_s"], out["run_s.arma"])

    selfs = ix.self_seconds()
    out["baselines.arma.predict.self_s"] = selfs.get("baselines.arma.predict", 0.0)
    out["mlp.train_lm.self_s"] = selfs.get("mlp.train_lm", 0.0)
    return out
