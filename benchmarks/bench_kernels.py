#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy fallbacks.

Sizes mirror the real workload: a 17-year training span of daily windows
for the network kernels, and a full-history scan per forecast day for
the k-NN kernel. Run directly:

    python benchmarks/bench_kernels.py [--repeats N]

Performance claims quote the end-to-end benchmark declared in
BENCHMARK.json (perfbench/); these kernel micro-timings are informational.
"""

import argparse
import time

import numpy as np

from solarcast import kernels
from solarcast._accel import HAVE_NUMBA


def timeit(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()

    if not HAVE_NUMBA:
        print("numba not importable: only the numpy path can run")

    rng = np.random.default_rng(0)
    w1 = rng.uniform(-0.5, 0.5, (3, 8))
    b1 = rng.uniform(-0.5, 0.5, 3)
    w2 = rng.uniform(-0.5, 0.5, 3)
    b2 = 0.1
    x = rng.uniform(0, 1, (6200, 8))  # one training span of windows
    r = rng.standard_normal(6200)
    history = rng.uniform(0, 1, 6900)
    query = history[-10:].copy()
    series = rng.standard_normal(6900)
    phi = np.array([0.6, -0.1])
    theta = np.array([0.3, 0.05])

    _, jac = kernels.mlp_forward_jacobian_np(w1, b1, w2, b2, x)
    jobs = [
        ("mlp_forward (6200x8)",
         lambda: kernels.mlp_forward_np(w1, b1, w2, b2, x),
         (lambda: kernels.mlp_forward_jit(w1, b1, w2, b2, x)) if HAVE_NUMBA else None),
        ("mlp_forward_jacobian (6200x31)",
         lambda: kernels.mlp_forward_jacobian_np(w1, b1, w2, b2, x),
         (lambda: kernels.mlp_forward_jacobian_jit(w1, b1, w2, b2, x)) if HAVE_NUMBA else None),
        ("gauss_newton_matrices (6200x31)",
         lambda: kernels.gauss_newton_matrices_np(jac, r),
         (lambda: kernels.gauss_newton_matrices_jit(jac, r)) if HAVE_NUMBA else None),
        ("window_sq_distances (6890x10)",
         lambda: kernels.window_sq_distances_np(history, query, history.size - 10),
         (lambda: kernels.window_sq_distances_jit(history, query, history.size - 10))
         if HAVE_NUMBA else None),
        ("arma_residuals (6900, p=q=2)",
         lambda: kernels.arma_residuals_np(series, phi, theta, 0.02),
         (lambda: kernels.arma_residuals_jit(series, phi, theta, 0.02)) if HAVE_NUMBA else None),
    ]

    print(f"{'kernel':34} {'numpy':>10} {'numba':>10} {'speedup':>8}")
    for name, numpy_fn, numba_fn in jobs:
        t_np = timeit(numpy_fn, args.repeats)
        if numba_fn is None:
            print(f"{name:34} {t_np * 1e3:9.3f}ms {'-':>10} {'-':>8}")
            continue
        numba_fn()  # compile before timing
        t_nb = timeit(numba_fn, args.repeats)
        print(f"{name:34} {t_np * 1e3:9.3f}ms {t_nb * 1e3:9.3f}ms {t_np / t_nb:7.1f}x")


if __name__ == "__main__":
    main()
