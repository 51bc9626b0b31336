"""Exception types shared across the package, and the checks every stored array, every
model hyperparameter and the run seed are read through.

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


def integer(name: str, value, low: int) -> int:
    """``value`` as an int of at least ``low``; a ValueError says that it is not an integer (a
    bool, a fractional float or a string that is not one) or names ``name`` when it is too small."""
    try:
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise TypeError
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"expected an integer, got {value!r}") from None
    if number < low:
        raise ValueError(f"{name} must be >= {low}, got {number}")
    return number


def model_params(given: dict, least: dict, most: dict | None = None) -> dict:
    """``given``'s values for the names of ``least`` ({name: least value}) as ints, leaving out
    absent and None ones; a ConfigError names a value that fails :func:`integer` or exceeds its
    largest in ``most`` ({name: (largest, what bounds it)})."""
    out = {}
    for name, low in least.items():
        if given.get(name) is None:
            continue
        try:
            out[name] = integer(name, given[name], low)
        except ValueError as e:
            raise ConfigError(f"model parameter {name!r}: {e}") from None
    for name, (high, what) in (most or {}).items():
        if out.get(name, high) > high:
            raise ConfigError(f"model parameter {name!r}: {out[name]} exceeds the {high} {what}")
    return out
