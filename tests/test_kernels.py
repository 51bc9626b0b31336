"""Each numpy kernel must compute what its plain-loop reference computes."""

import numpy as np
import pytest

from solarcast import kernels
from solarcast.mlp import _n_weights

from oracles import (
    loop_arma_residuals,
    loop_gauss_newton_matrices,
    loop_mlp_forward,
    loop_mlp_forward_jacobian,
    loop_window_sq_distances,
    rowmajor_mlp_forward_jacobian,
)


@pytest.fixture(scope="module")
def net_params():
    rng = np.random.default_rng(0)
    w1 = rng.uniform(-0.5, 0.5, (3, 8))
    b1 = rng.uniform(-0.5, 0.5, 3)
    w2 = rng.uniform(-0.5, 0.5, 3)
    b2 = float(rng.uniform(-0.5, 0.5))
    x = rng.uniform(0, 1, (200, 8))
    return w1, b1, w2, b2, x


def test_forward_matches_loop(net_params):
    w1, b1, w2, b2, x = net_params
    a = loop_mlp_forward(w1, b1, w2, b2, x)
    b = kernels.mlp_forward(w1, b1, w2, b2, x)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_forward_rows_equals_one_row_forward(net_params):
    w1, b1, w2, b2, x = net_params
    rows = kernels.mlp_forward_rows(w1, b1, w2, b2, x)
    one_row = [kernels.mlp_forward(w1, b1, w2, b2, x[i : i + 1])[0] for i in range(x.shape[0])]
    assert rows.shape == (x.shape[0],)
    assert all(rows == np.array(one_row))
    np.testing.assert_allclose(rows, loop_mlp_forward(w1, b1, w2, b2, x), rtol=1e-12)


def test_jacobian_matches_loop(net_params):
    w1, b1, w2, b2, x = net_params
    ya, ja = loop_mlp_forward_jacobian(w1, b1, w2, b2, x)
    yb, jb = kernels.mlp_forward_jacobian(w1, b1, w2, b2, x, kernels.jacobian_buffers(x, _n_weights(3, 8)))
    np.testing.assert_allclose(ya, yb, rtol=1e-12)
    np.testing.assert_allclose(ja, jb, rtol=1e-11, atol=1e-14)


def random_net(rng, m, p):
    return (rng.uniform(-0.5, 0.5, (m, p)), rng.uniform(-0.5, 0.5, m), rng.uniform(-0.5, 0.5, m),
            float(rng.uniform(-0.5, 0.5)))


@pytest.mark.parametrize("m,p,n", [(1, 8, 200), (3, 8, 4961), (7, 8, 50), (2, 1, 1), (4, 3, 17)])
def test_jacobian_on_reused_buffers_equals_a_fresh_row_major_build(m, p, n):
    """Two calls on one set of buffers, with different weights, each give
    the outputs and C-ordered Jacobian of a fresh build, bit for bit, be it
    the kernel on fresh buffers or the former row-at-a-time kernel."""
    rng = np.random.default_rng(m * 100 + p)
    x = np.ascontiguousarray(rng.uniform(0, 1, (n, p)))
    buffers = kernels.jacobian_buffers(x, _n_weights(m, p))
    for _ in range(2):
        net = random_net(rng, m, p)
        y, jac = kernels.mlp_forward_jacobian(*net, x, buffers)
        y_fresh, jac_fresh = kernels.mlp_forward_jacobian(*net, x, kernels.jacobian_buffers(x, _n_weights(m, p)))
        y_row, jac_row = rowmajor_mlp_forward_jacobian(*net, x)
        assert jac is buffers[2] and jac.flags.c_contiguous and jac.shape == (n, m * (p + 2) + 1)
        for got in ((y_fresh, jac_fresh), (y_row, jac_row)):
            assert y.tobytes() == got[0].tobytes() and jac.tobytes() == got[1].tobytes()


def test_gauss_newton_matches_loop(net_params):
    w1, b1, w2, b2, x = net_params
    _, jac = kernels.mlp_forward_jacobian(w1, b1, w2, b2, x, kernels.jacobian_buffers(x, _n_weights(3, 8)))
    r = np.linspace(-1, 1, x.shape[0])
    jtj_a, jtr_a = loop_gauss_newton_matrices(jac, r)
    jtj_b, jtr_b = kernels.gauss_newton_matrices(jac, r)
    np.testing.assert_allclose(jtj_a, jtj_b, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(jtr_a, jtr_b, rtol=1e-10, atol=1e-12)


def test_window_distance_matches_loop():
    rng = np.random.default_rng(1)
    history = rng.uniform(0, 1, 500)
    query = rng.uniform(0, 1, 10)
    n_candidates = history.size - 10
    a = loop_window_sq_distances(history, query, n_candidates)
    b = kernels.window_sq_distances(history, query, n_candidates)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)
    # rows paired with their own queries keep the bits of one query at a time
    rows = rng.integers(0, n_candidates, 50)
    queries = rng.uniform(0, 1, (50, 10))
    paired = kernels.row_sq_distances(history[rows[:, None] + np.arange(10)], queries)
    alone = [kernels.window_sq_distances(history, q, n_candidates)[r] for r, q in zip(rows, queries)]
    assert paired.tobytes() == np.array(alone).tobytes()


def test_arma_residuals_match_loop():
    """Bit for bit, for every order up to 4 and every length from 0 to past
    max(p, q), with a missing value at a random slot and at magnitudes that
    overflow (1e150, squared by the lags) or sit near underflow (1e-300)."""
    rng = np.random.default_rng(2)
    for p in range(5):
        for q in range(5):
            for n in range(max(p, q) + 3):
                for scale in (1.0, 1e150, 1e-300):
                    x = rng.standard_normal(n) * scale
                    if n:
                        x[rng.integers(n)] = np.nan
                    phi, theta = rng.standard_normal(p), rng.standard_normal(q) * scale
                    with np.errstate(all="ignore"):
                        a = loop_arma_residuals(x, phi, theta, 0.1 * scale)
                        b = kernels.arma_residuals(x, phi, theta, 0.1 * scale)
                    assert b.tobytes() == a.tobytes(), (p, q, n, scale)
    x = rng.standard_normal(400)
    phi, theta = np.array([0.5, -0.2]), np.array([0.3, 0.1])
    assert kernels.arma_residuals(x, phi, theta, 0.1).tobytes() == loop_arma_residuals(x, phi, theta, 0.1).tobytes()


def test_arma_residuals_raise_where_the_loop_does():
    """Python float arithmetic raises nothing, so an overflow in the MA
    recursion must still raise under ``np.errstate``, as the loop's does."""
    x = np.random.default_rng(3).standard_normal(50) * 1e300
    phi, theta = np.array([1.0]), np.array([1e10, 1e10])
    for residuals in (loop_arma_residuals, kernels.arma_residuals):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            residuals(x, phi, theta, 0.0)
