import numpy as np
import pytest

from dnmf.core import EPS, is_divergence, normalize_columns
from dnmf.plca import is_nmf_update_w
from dnmf.statespace import TrainConfig, train


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
        w2 = is_nmf_update_w(x, w, h)
        after = is_divergence(x, np.maximum(w2 @ h, EPS))
        assert after <= before + 1e-9


def test_is_update_fixed_point_at_exact_factorization():
    rng = np.random.default_rng(5)
    w = normalize_columns(rng.uniform(0.2, 1.0, size=(6, 2)))
    h = rng.uniform(0.2, 1.0, size=(2, 9))
    x = w @ h
    w2 = is_nmf_update_w(x, w, h)
    np.testing.assert_allclose(w2, w, rtol=1e-10)


# The static multinomial mixture (PLCA) is ``train`` at order 0.


def test_fit_static_plca_outputs_are_stochastic():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 1.0, size=(12, 20))
    model, h = train(x, 3, 0, TrainConfig(iters=30, prior_start=0, seed=1))
    assert (model.basis.shape, h.shape, model.lags) == ((12, 3), (3, 20), [])
    np.testing.assert_allclose(model.basis.sum(axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(h.sum(axis=0), 1.0, atol=1e-10)


def test_fit_static_plca_deterministic():
    rng = np.random.default_rng(10)
    x = rng.uniform(0.0, 1.0, size=(9, 14))
    cfg = TrainConfig(iters=15, prior_start=0, seed=4)
    (m1, h1), (m2, h2) = train(x, 2, 0, cfg), train(x, 2, 0, cfg)
    np.testing.assert_array_equal(m1.basis, m2.basis)
    np.testing.assert_array_equal(h1, h2)


def test_fit_static_plca_improves_fit():
    rng = np.random.default_rng(12)
    w_true = normalize_columns(rng.uniform(0.1, 1.0, size=(10, 2)))
    h_true = normalize_columns(rng.uniform(0.1, 1.0, size=(2, 25)))
    mass = rng.uniform(1.0, 3.0, size=25)
    x = (w_true @ h_true) * mass
    errs = []
    for iters in (1, 50):
        model, h = train(x, 2, 0, TrainConfig(iters=iters, prior_start=0))
        errs.append(np.abs((model.basis @ h) * mass - x).sum())
    assert errs[1] < errs[0]


def test_fit_static_plca_rejects_bad_rank():
    with pytest.raises(ValueError):
        train(np.ones((4, 5)), 0, 0)
