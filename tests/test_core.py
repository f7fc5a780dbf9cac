import numpy as np
import pytest

from dnmf.core import (
    EPS,
    is_divergence,
    nonneg_matrix,
    normalize_columns,
    stochastic_matrix,
)


def test_nonneg_matrix_accepts_lists():
    arr = nonneg_matrix([[1.0, 2.0], [0.0, 3.0]])
    assert arr.dtype == np.float64
    assert arr.shape == (2, 2)


def test_nonneg_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError):
        nonneg_matrix(np.ones(3))
    with pytest.raises(ValueError):
        nonneg_matrix(np.empty((0, 4)))
    with pytest.raises(ValueError):
        nonneg_matrix([[1.0, -0.5]])
    with pytest.raises(ValueError):
        nonneg_matrix([[np.nan, 1.0]])
    with pytest.raises(ValueError):
        nonneg_matrix([[np.inf, 1.0]])


def test_stochastic_matrix_checks_column_sums():
    good = np.array([[0.25, 0.5], [0.75, 0.5]])
    np.testing.assert_array_equal(stochastic_matrix(good), good)
    with pytest.raises(ValueError):
        stochastic_matrix(np.array([[0.25, 0.5], [0.70, 0.5]]))


def test_normalize_columns_hand_case():
    out = normalize_columns(np.array([[1.0, 3.0], [3.0, 1.0]]))
    np.testing.assert_allclose(out, [[0.25, 0.75], [0.75, 0.25]])
    np.testing.assert_allclose(out.sum(axis=0), 1.0)


def test_normalize_columns_rejects_zero_column():
    with pytest.raises(ValueError):
        normalize_columns(np.array([[0.0, 1.0], [0.0, 1.0]]))


def test_is_divergence_hand_value():
    # ratio 2: 2 - log(2) - 1 = 0.30685281944005466
    assert is_divergence(np.array([2.0]), np.array([1.0])) == pytest.approx(
        0.30685281944005466, abs=1e-15
    )


def test_is_divergence_zero_iff_equal():
    x = np.array([0.5, 1.0, 2.5])
    assert is_divergence(x, x) == 0.0
    assert is_divergence(x, x * 1.01) > 0.0


def test_is_divergence_scale_invariant():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.1, 2.0, size=(5, 7))
    y = rng.uniform(0.1, 2.0, size=(5, 7))
    d1 = is_divergence(x, y)
    d2 = is_divergence(10.0 * x, 10.0 * y)
    assert d1 == pytest.approx(d2, rel=1e-12)


def test_is_divergence_validation():
    with pytest.raises(ValueError):
        is_divergence(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        is_divergence(np.ones(3), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        is_divergence(np.array([-1.0]), np.array([1.0]))


def test_eps_is_tiny_but_positive():
    assert 0.0 < EPS < 1e-6
