"""Versioned text serialization for fitted models.

Format (UTF-8, line oriented, no binary):

    solarcast-model 1
    kind=<model kind>
    <key>=<value>            scalar metadata, floats written as repr
    @block <name> <rows> <cols>
    <comma-separated repr floats, one row per line>
    @end

Floats round-trip exactly (repr -> float is the identity), so a loaded
model predicts bit-for-bit like the saved one.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, kernels, mlp as mlp_mod
from .errors import ConfigError, DataError, checked, model_params
from .series import CSV_CHUNK_ROWS, atomic_write

FORMAT_LINE = "solarcast-model 1"


@dataclass
class ModelFile:
    kind: str
    meta: dict
    blocks: dict


def _format_scalar(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def save_model_file(path, kind: str, meta: dict, blocks: dict) -> None:
    lines = [FORMAT_LINE, f"kind={kind}"]
    for key, value in meta.items():
        lines.append(f"{key}={_format_scalar(value)}")
    for name, array in blocks.items():
        arr = np.atleast_2d(np.asarray(array, dtype=np.float64))
        lines.append(f"@block {name} {arr.shape[0]} {arr.shape[1]}")
        for lo in range(0, arr.shape[0], CSV_CHUNK_ROWS):
            lines.extend(",".join(map(repr, row)) for row in arr[lo : lo + CSV_CHUNK_ROWS].tolist())
        lines.append("@end")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_row(path, lineno: int, text: str, cols: int) -> list[float]:
    fields = text.split(",") if cols else []
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise DataError(f"{path}:{lineno}: non-numeric value in block row") from None
    if len(values) != cols:
        raise DataError(f"{path}:{lineno}: expected {cols} values, got {len(values)}")
    return values


def load_model_file(path) -> ModelFile:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read {path}: {e}") from e
    if not lines or lines[0].strip() != FORMAT_LINE:
        raise DataError(f"{path}: not a solarcast model file")
    meta: dict[str, str] = {}
    blocks: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line.startswith("@block"):
            parts = line.split()
            if len(parts) != 4 or not (parts[2].isdigit() and parts[3].isdigit()):
                raise DataError(f"{path}: malformed block header {line!r}")
            name, rows, cols = parts[1], int(parts[2]), int(parts[3])
            if i + rows >= len(lines) or lines[i + rows].strip() != "@end":
                raise DataError(f"{path}: block {name} is cut short or misses @end")
            data = [_parse_row(path, i + r + 1, lines[i + r], cols) for r in range(rows)]
            blocks[name] = np.array(data, dtype=np.float64).reshape(rows, cols)
            i += rows + 1
        elif "=" in line:
            key, value = line.split("=", 1)
            meta[key.strip()] = value.strip()
        else:
            raise DataError(f"{path}: unparseable line {line!r}")
    if "kind" not in meta:
        raise DataError(f"{path}: missing kind")
    return ModelFile(kind=meta.pop("kind"), meta=meta, blocks=blocks)


# ---------------------------------------------------------------------------
# the forecaster registry
# ---------------------------------------------------------------------------


@dataclass
class MlpBundle(baselines.OneStepModel):
    """Trained network plus the scaler fitted alongside it.

    ``params`` are training hyperparameters (``p`` = lag inputs) whose
    defaults live in ``MlpLayout``, ``LmConfig`` and ``init_mlp``; ``limits``
    takes the number of training windows.
    """

    mlp: mlp_mod.Mlp
    scaler: mlp_mod.Scaler

    name = "mlp"
    params = {"p": 1, "n_hidden": 1, "max_epochs": 0, "max_fail": 1, "seed": 0}

    @staticmethod
    def limits(n: int) -> dict:
        return {"n_hidden": (n, "training windows")}

    def predict_next(self, history: np.ndarray, target: dt.date) -> float:
        return float(self.predict_span(history, [len(history)], [target])[0])

    def predict_span(self, values: np.ndarray, indices, days) -> np.ndarray:
        """All lag rows in one gather and one row-wise forward; the first
        day (in ``indices`` order) without ``p`` finite lags is a DataError."""
        net, p = self.mlp, self.mlp.layout.n_inputs
        idx = np.asarray(indices, dtype=np.int64)
        padded = np.concatenate([np.full(p, np.nan), values])  # row i holds values[i - p : i]
        lags = np.lib.stride_tricks.sliding_window_view(padded, p)[idx]
        short = idx < p
        bad = short | ~np.all(np.isfinite(lags), axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            day = days[j].isoformat()
            if short[j]:
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
        v = model_params(given, cls.params)
        layout = mlp_mod.MlpLayout(n_inputs=v["p"], n_hidden=v["n_hidden"])
        h, p = layout.n_hidden, layout.n_inputs
        net = mlp_mod.Mlp(
            layout=layout, w1=checked("w1", blocks["w1"], (h, p)), b1=checked("b1", blocks["b1"], (h,)),
            w2=checked("w2", blocks["w2"], (h,)), b2=float(checked("b2", blocks["b2"], (1,))[0]),
            seed=v["seed"],
        )
        mins, maxs = (checked(name, blocks[name], (p + 1,)) for name in ("scaler_mins", "scaler_maxs"))
        return cls(mlp=net, scaler=mlp_mod.Scaler(mins=mins, maxs=maxs))


FORECASTERS = {
    cls.name: cls
    for cls in (
        baselines.NaiveModel,
        baselines.ArModel,
        baselines.ArmaModel,
        baselines.MarkovChainModel,
        baselines.BayesClassifierModel,
        baselines.KnnModel,
        MlpBundle,
    )
}


def save_forecaster(path, model) -> None:
    """Serialize a fitted forecaster of :data:`FORECASTERS` that :func:`load_forecaster` reads back."""
    if not isinstance(model, tuple(FORECASTERS.values())):
        raise DataError(f"cannot serialize model of type {type(model).__name__}")
    meta, blocks = model.to_model_file()
    _from_model_file(path, model.name, meta, blocks)
    save_model_file(path, model.name, meta, blocks)


def load_forecaster(path):
    """Reconstruct the model saved by :func:`save_forecaster`."""
    mf = load_model_file(path)
    return _from_model_file(path, mf.kind, mf.meta, mf.blocks)


def _from_model_file(path, kind: str, meta: dict, blocks: dict):
    if kind not in FORECASTERS:
        raise DataError(f"{path}: unknown model kind {kind!r}")
    try:
        return FORECASTERS[kind].from_model_file(meta, blocks)
    except (KeyError, IndexError, ValueError, ConfigError, DataError) as e:
        raise DataError(f"{path}: malformed {kind} model ({type(e).__name__}: {e})") from e
