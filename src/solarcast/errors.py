"""Exception types shared across the package, and the check every stored array is read through.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericalError -> 3.
"""

import numpy as np


class SolarcastError(Exception):
    """Base class for all package errors."""


class ConfigError(SolarcastError):
    """Invalid configuration, arguments, or parameter ranges."""


class DataError(SolarcastError):
    """Malformed, inconsistent, or insufficient input data."""


class NumericalError(SolarcastError):
    """Numerical failure during fitting or prediction."""


def checked(name, values, shape, *, low=-np.inf, strict=False, nan_ok=False) -> np.ndarray:
    """``values`` as a float array of ``shape``: a 1-tuple flattens it and
    None matches any length. A DataError naming ``name`` says which shape
    was expected, or that a value is not finite and >= ``low`` (> ``low``
    when ``strict``); NaN passes only where ``nan_ok``."""
    arr = np.asarray(values, dtype=np.float64)
    arr = arr.ravel() if len(shape) == 1 else arr
    if arr.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise DataError(f"{name}: expected shape {str(tuple(shape)).replace('None', 'any')}, got {arr.shape}")
    ok = np.isfinite(arr) & ((arr > low) if strict else (arr >= low))
    if not np.all(ok | (nan_ok & np.isnan(arr))):
        rule = "" if low == -np.inf else f" and {'>' if strict else '>='} {low:g}"
        raise DataError(f"{name}: values must be finite{rule}")
    return arr
