import math

import numpy as np
import pytest

from duorec import autodiff as ad


def finite_difference_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, rtol: float = 1e-4):
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
    err = np.abs(analytic - numeric).max() / scale
    assert err < rtol, f"gradient mismatch: max relative error {err:.3e}"


def nce_regularizer_bruteforce(reps: np.ndarray, collision_mask: np.ndarray,
                               tau: float) -> float:
    """Loop-level reference for ``contrastive.nce_regularizer`` (no autodiff)."""
    two_b = reps.shape[0]
    b = two_b // 2
    total = 0.0
    for a in range(two_b):
        p = a ^ 1
        pos = math.exp(float(np.dot(reps[a], reps[p])) / tau)
        denom = pos
        for j in range(two_b):
            if j == a or j == p:
                continue
            if collision_mask[a, j]:
                denom += math.exp(float(np.dot(reps[a], reps[j])) / tau)
        total += -math.log(pos / denom)
    return total / b


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
