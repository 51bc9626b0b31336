"""``baselines._lag_rows`` is the one builder of lag rows: the AR and ARMA
fits and the MLP's training windows read it with the bits of the builders
it replaced, and no second builder appears in ``src/``."""

import ast
from pathlib import Path

import numpy as np
import pytest

from solarcast import preprocess
from solarcast.baselines import _ar_coefs, _arma_coefs
from solarcast.mlp import make_windows
from solarcast.series import SynthConfig, clean, generate_synthetic

import oracles
from conftest import SITE_LAT

SRC = Path(__file__).resolve().parents[1] / "src" / "solarcast"
LINEAR_ORDERS = [(1, 0), (2, 0), (8, 0), (0, 2), (1, 1), (2, 2), (3, 1), (5, 5)]  # (p, q)


@pytest.fixture(scope="module")
def lag_series(site):
    """Per seed 3, 7 and 11: the cleaned 4-year series, its preprocessed
    counterpart and the cleaned one with three missing days."""
    out = {}
    for seed in (3, 7, 11):
        cleaned, _ = clean(generate_synthetic(SynthConfig(n_years=4, latitude_deg=SITE_LAT, seed=seed)), site)
        corrected = preprocess.fit(cleaned.slice_years(1971, 1973), site).apply(cleaned)
        gappy = cleaned.values.copy()
        gappy[400:403] = np.nan
        out.update({f"raw{seed}": cleaned.values, f"corrected{seed}": corrected.values, f"gap{seed}": gappy})
    return out


def same_fit(got, expected) -> bool:
    """Equal intercepts and coefficients, bit for bit (NaN equal to NaN)."""
    return (np.array_equal([got[0]], [expected[0]], equal_nan=True)
            and np.array_equal(got[1], expected[1], equal_nan=True))


@pytest.mark.parametrize("p,q", LINEAR_ORDERS)
def test_linear_fits_equal_the_sliding_view_and_column_loops(p, q, lag_series):
    for name, values in lag_series.items():
        assert same_fit(_ar_coefs(values, p), oracles.lag_matrix_ar_coefs(values, p)), name
        if q:
            assert same_fit(_arma_coefs(values, p, q), oracles.column_loop_arma_coefs(values, p, q)), name


@pytest.mark.parametrize("p", [1, 3, 8])
def test_make_windows_equals_the_sliding_view(p, lag_series):
    for name, values in lag_series.items():
        (inputs, targets), expected = make_windows(values, p), oracles.sliding_view_make_windows(values, p)
        assert np.array_equal(inputs, expected[0]) and np.array_equal(targets, expected[1]), name


def sliding_view_owners() -> set[str]:
    """``<module>.<qualified function>`` of each place in ``src/solarcast``
    that names ``sliding_window_view`` (an attribute, a name or an import)."""
    owners = set()

    def visit(node, module: str, scope: tuple):
        for child in ast.iter_child_nodes(node):
            named = (getattr(child, "attr", None) or getattr(child, "id", None)
                     or (child.name.rsplit(".", 1)[-1] if isinstance(child, ast.alias) else None))
            if named == "sliding_window_view":
                owners.add(".".join((module, *scope)))
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, module, scope + (child.name,) if defines else scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return owners


def test_lag_rows_are_built_in_one_place():
    """A sliding view appears only in the lag-row builder, the Markov
    transition counts and the k-NN distance kernel."""
    owners = sliding_view_owners()
    assert "baselines._lag_rows" in owners
    allowed = {"baselines._lag_rows", "baselines.MarkovChainModel._counts", "kernels.window_sq_distances"}
    assert owners <= allowed, owners
