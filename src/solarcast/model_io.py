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

from . import baselines, mlp as mlp_mod
from .errors import ConfigError, DataError

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
        for row in arr:
            lines.append(",".join(repr(float(v)) for v in row))
        lines.append("@end")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
class MlpBundle:
    """Trained network plus the scaler fitted alongside it.

    ``params`` are training hyperparameters (``p`` = lag inputs) whose
    defaults live in ``MlpLayout``, ``LmConfig`` and ``init_mlp``.
    """

    mlp: mlp_mod.Mlp
    scaler: mlp_mod.Scaler

    name = "mlp"
    params = ("p", "n_hidden", "max_epochs", "max_fail", "seed")

    def predict_next(self, history: np.ndarray, target: dt.date) -> float:
        p = self.mlp.layout.n_inputs
        if history.size < p:
            raise DataError(f"not enough history before {target.isoformat()} for {p} lags")
        lags = history[-p:]
        if not np.all(np.isfinite(lags)):
            raise DataError(f"missing value inside the lag window before {target.isoformat()}")
        yhat = mlp_mod.forward(self.mlp, self.scaler.scale_inputs(lags))
        return float(self.scaler.unscale_target(yhat))

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
        layout = mlp_mod.MlpLayout(n_inputs=int(meta["n_inputs"]), n_hidden=int(meta["n_hidden"]))
        net = mlp_mod.Mlp(
            layout=layout, w1=blocks["w1"], b1=blocks["b1"].ravel(), w2=blocks["w2"].ravel(),
            b2=float(blocks["b2"].ravel()[0]), seed=int(meta["seed"]),
        )
        mins, maxs = blocks["scaler_mins"].ravel(), blocks["scaler_maxs"].ravel()
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
    """Serialize any fitted forecaster registered in :data:`FORECASTERS`."""
    if not isinstance(model, tuple(FORECASTERS.values())):
        raise DataError(f"cannot serialize model of type {type(model).__name__}")
    save_model_file(path, model.name, *model.to_model_file())


def load_forecaster(path):
    """Reconstruct the model saved by :func:`save_forecaster`."""
    mf = load_model_file(path)
    if mf.kind not in FORECASTERS:
        raise DataError(f"unknown model kind {mf.kind!r}")
    try:
        return FORECASTERS[mf.kind].from_model_file(mf.meta, mf.blocks)
    except (KeyError, IndexError, ValueError, ConfigError) as e:
        raise DataError(f"{path}: malformed {mf.kind} model ({type(e).__name__}: {e})") from e
