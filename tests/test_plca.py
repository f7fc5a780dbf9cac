import numpy as np
import pytest

from dnmf.core import EPS, is_divergence, normalize_columns
from dnmf.plca import (
    fit_static_plca,
    is_nmf_update_h,
    is_nmf_update_w,
)


def _random_instance(rng, k=8, i=3, t=12):
    w = normalize_columns(rng.uniform(0.1, 1.0, size=(k, i)))
    h = rng.uniform(0.1, 1.0, size=(i, t))
    x = np.maximum(w @ h + 0.05 * rng.uniform(size=(k, t)), EPS)
    return x, w, h


def test_is_updates_decrease_divergence():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x, w, h = _random_instance(rng)
        before = is_divergence(x, np.maximum(w @ h, EPS))
        h2 = is_nmf_update_h(x, w, h)
        mid = is_divergence(x, np.maximum(w @ h2, EPS))
        assert mid <= before + 1e-9
        w2 = is_nmf_update_w(x, w, h2)
        after = is_divergence(x, np.maximum(w2 @ h2, EPS))
        assert after <= mid + 1e-9


def test_is_update_fixed_point_at_exact_factorization():
    rng = np.random.default_rng(5)
    w = normalize_columns(rng.uniform(0.2, 1.0, size=(6, 2)))
    h = rng.uniform(0.2, 1.0, size=(2, 9))
    x = w @ h
    h2 = is_nmf_update_h(x, w, h)
    np.testing.assert_allclose(h2, h, rtol=1e-10)


def test_fit_static_plca_outputs_are_stochastic():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 1.0, size=(12, 20))
    w, h = fit_static_plca(x, 3, iters=30, seed=1)
    assert w.shape == (12, 3)
    assert h.shape == (3, 20)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(h.sum(axis=0), 1.0, atol=1e-10)


def test_fit_static_plca_deterministic():
    rng = np.random.default_rng(10)
    x = rng.uniform(0.0, 1.0, size=(9, 14))
    w1, h1 = fit_static_plca(x, 2, iters=15, seed=4)
    w2, h2 = fit_static_plca(x, 2, iters=15, seed=4)
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(h1, h2)


def test_fit_static_plca_improves_fit():
    rng = np.random.default_rng(12)
    w_true = normalize_columns(rng.uniform(0.1, 1.0, size=(10, 2)))
    h_true = normalize_columns(rng.uniform(0.1, 1.0, size=(2, 25)))
    mass = rng.uniform(1.0, 3.0, size=25)
    x = (w_true @ h_true) * mass
    w1, h1 = fit_static_plca(x, 2, iters=1, seed=0)
    w50, h50 = fit_static_plca(x, 2, iters=50, seed=0)
    err1 = np.abs((w1 @ h1) * mass - x).sum()
    err50 = np.abs((w50 @ h50) * mass - x).sum()
    assert err50 < err1


def test_fit_static_plca_rejects_bad_rank():
    with pytest.raises(ValueError):
        fit_static_plca(np.ones((4, 5)), 0)
