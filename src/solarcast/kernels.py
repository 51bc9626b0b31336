"""Hot numeric kernels in numpy.

``mlp_forward``, ``mlp_forward_rows``, ``mlp_forward_jacobian`` (into the
buffers of ``jacobian_buffers``), ``gauss_newton_matrices``,
``row_sq_distances`` (which ``window_sq_distances`` calls) and
``arma_residuals`` are the only code paths for these computations;
``tests/oracles.py`` holds plain-loop references that the kernel tests
compare against.
No forecaster calls ``window_sq_distances``; it stays as the one-query
form that the tests' stable-argsort k-NN oracle calls and the benchmark
tracer wraps.

The perceptron's weights are packed as ``mlp._layers`` reads them; the
Jacobian columns follow the same order. The forward pass builds its hidden
layer parameter-major, (m, n) for m units on n rows: the rows that
``mlp_forward_jacobian`` keeps in its (P, n) buffer (``hidden_rows``), so
LM training runs each trial step's forward pass there once and the next
epoch's Jacobian builds on the accepted step's.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """The kernel backend a run used; numpy is the only one."""
    return "numpy"


def mlp_forward(w1, b1, w2, b2, x, out=None):
    """Batch forward pass: hidden units exp(-a^2), linear output.

    ``out``, a (2, m, n) array, receives the preactivations and the hidden
    units of the n rows of ``x``; by default they are temporaries. The
    preactivations are ``w1 @ x.T`` on the view: OpenBLAS runs it two to
    four times faster than the narrow ``x @ w1.T``, with the same bits,
    while at m = 1, a gemv whose rounding follows the operand layout, a
    C-ordered copy of ``x.T`` rounds differently.
    """
    a, h = (None, None) if out is None else out
    a = np.matmul(w1, x.T, out=a)
    a += b1[:, None]
    h = np.multiply(a, a, out=h)
    np.negative(h, out=h)  # -(a * a) has the bits of (-a) * a
    np.exp(h, out=h)
    return h.T.copy() @ w2 + b2  # the row-major gemv: w2 @ h rounds differently


# the kernels' own forward passes: the benchmark tracer wraps the public
# name, and counts only a caller's
_forward = mlp_forward


def mlp_forward_rows(w1, b1, w2, b2, x):
    """``mlp_forward`` of each row of ``x`` as if it were passed alone.

    Forecasting uses this, training keeps ``mlp_forward``: one gemm over
    the whole batch rounds differently from a (1, p) product (it changed
    6,357 of 29,240 one-step forecasts, 40 seeds x 731 days), while the
    stacked (n, 1, p) product makes the one-row path's BLAS call per row
    and keeps its bits.
    """
    a = (x[:, None, :] @ w1.T)[:, 0, :] + b1
    h = np.exp(-a * a)
    return (h[:, None, :] @ w2)[:, 0] + b2


def jacobian_buffers(x, n_weights: int) -> tuple:
    """What ``mlp_forward_jacobian`` fills for a network of ``n_weights``
    packed weights on the rows of ``x``: the inputs transposed, and the
    Jacobian parameter-major (P, n) and row-major (n, P), P = n_weights."""
    n = x.shape[0]
    return np.ascontiguousarray(x.T), np.empty((n_weights, n)), np.empty((n, n_weights))


def hidden_rows(buffers, n_hidden: int):
    """The (2, m, n) rows of the (P, n) buffer in ``buffers`` that hold the
    Jacobian's b1 and w2 columns, m = ``n_hidden``: scratch once the
    Jacobian is copied out, and the ``out`` of the forward pass whose
    preactivations and hidden units ``mlp_forward_jacobian`` builds on."""
    xt, jt, _ = buffers
    mp = n_hidden * xt.shape[0]
    return jt[mp : mp + 2 * n_hidden].reshape(2, n_hidden, -1)


def mlp_forward_jacobian(w1, b1, w2, b2, x, buffers, y=None):
    """Forward pass plus d(output)/d(theta) rows, one per sample.

    ``buffers`` are ``jacobian_buffers(x, n_weights)``. Given ``y``, the
    outputs of ``mlp_forward(w1, b1, w2, b2, x, hidden_rows(buffers, m))``,
    that forward pass is not run again. The Jacobian is built a parameter at
    a time in the (P, n) buffer, each row a copy or one product per sample,
    then copied into the (n, P) buffer it returns, so every entry has the
    bits of a row-at-a-time build. The next call on the same buffers
    overwrites both.
    """
    xt, jt, jac = buffers
    m, p = w1.shape
    hidden = hidden_rows(buffers, m)
    if y is None:
        y = _forward(w1, b1, w2, b2, x, hidden)
    d, h = hidden  # the w2 rows are h; the b1 rows become d output / d preactivation
    d *= -2.0  # ((-2 a) h) w2, the product order of a row-at-a-time build
    d *= h
    d *= w2[:, None]
    jt[-1] = 1.0
    # row j * p + k, the w1[j, k] parameter: the d row of unit j times input k
    np.multiply(d[:, None, :], xt, out=jt[: m * p].reshape(m, p, -1))
    np.copyto(jac, jt.T)
    return y, jac


def gauss_newton_matrices(jac, r):
    """Normal-equation pieces J^T J and J^T r."""
    return jac.T @ jac, jac.T @ r


def row_sq_distances(rows, queries):
    """Squared Euclidean distance of each row to its query: the matching row
    of ``queries``, or one query broadcast to every row. Every exact k-NN
    distance is this expression, so each has the same bits whichever rows
    are computed together."""
    diff = rows - queries
    return np.einsum("ij,ij->i", diff, diff)


def window_sq_distances(history, query, n_candidates):
    """Squared Euclidean distance of each candidate window to the query."""
    w = query.shape[0]
    return row_sq_distances(np.lib.stride_tricks.sliding_window_view(history, w)[:n_candidates], query)


def arma_residuals(x, phi, theta, intercept):
    """One-step residuals e_t = x_t - x̂_t of a fitted ARMA recursion.

    Residuals before index max(p, q) are zero. The AR sums are whole-array
    products added in the loop's order; the sequential MA part runs over
    Python floats, which raise nothing, then is summed again over arrays,
    so the bits and any ``np.errstate`` error are a scalar loop's.
    """
    p, q = phi.shape[0], theta.shape[0]
    n = x.shape[0]
    t0 = min(max(p, q), n)
    pred = np.full(n - t0, intercept, dtype=np.float64)
    for i in range(p):
        pred += phi[i] * x[t0 - 1 - i : n - 1 - i]
    e = [0.0] * t0
    coefs = theta.tolist()
    for x_t, pred_t in zip(x[t0:].tolist(), pred.tolist()):
        for j in range(q):
            pred_t += coefs[j] * e[-1 - j]
        e.append(x_t - pred_t)
    e = np.array(e)
    for j in range(q):
        pred += theta[j] * e[t0 - 1 - j : n - 1 - j]
    e[t0:] = x[t0:] - pred
    return e
