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

from pathlib import Path

import numpy as np

from . import baselines
from .errors import ConfigError, DataError
from .mlp import MlpBundle
from .series import CSV_CHUNK_ROWS, atomic_write

FORMAT_LINE = "solarcast-model 1"


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
        row = ",".join(["%r"] * arr.shape[1])  # %r of a float is its repr
        for lo in range(0, arr.shape[0], CSV_CHUNK_ROWS):
            chunk = arr[lo : lo + CSV_CHUNK_ROWS]
            lines.append("\n".join([row] * len(chunk)) % tuple(chunk.ravel().tolist()))
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


def load_model_file(path) -> tuple[str, dict, dict]:
    """``(kind, meta, blocks)``, the arguments ``save_model_file`` wrote
    ``path`` from; meta values are the strings the file holds."""
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
    return meta.pop("kind"), meta, blocks


# ---------------------------------------------------------------------------
# the forecaster registry
# ---------------------------------------------------------------------------


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
    return _from_model_file(path, *load_model_file(path))


def _from_model_file(path, kind: str, meta: dict, blocks: dict):
    if kind not in FORECASTERS:
        raise DataError(f"{path}: unknown model kind {kind!r}")
    try:
        return FORECASTERS[kind].from_model_file(meta, blocks)
    except (KeyError, IndexError, ValueError, ConfigError, DataError) as e:
        raise DataError(f"{path}: malformed {kind} model ({type(e).__name__}: {e})") from e
