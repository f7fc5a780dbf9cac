"""Dense nonnegative-matrix utilities shared across the package.

Everything operates on plain float64 numpy arrays.  The helpers below validate
scalars and shape/sign invariants once at the boundary; the iterative code
paths then stay branch-light and trust their inputs.
"""
from __future__ import annotations

import numbers

import numpy as np

Array = np.ndarray

# Floor applied by callers to any quantity entering a logarithm or a
# denominator.  Small enough to be negligible mass, large enough to keep
# reciprocals finite in float64.
EPS = 1e-12

# Largest column-sum error that stochastic_matrix accepts.
_STOCHASTIC_TOL = 1e-6

__all__ = [
    "EPS",
    "nonneg_matrix",
    "stochastic_matrix",
    "normalize_columns",
    "is_divergence",
]


def _checked_int(value, name: str, minimum: int = 0) -> int:
    """``int(value)`` for an integer (not a ``bool``) >= ``minimum``; else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} {value!r} must be an integer of at least {minimum}")
    return int(value)


def _checked_exponent(value, name: str = "anneal") -> float:
    """``float(value)`` for a real number (not a ``bool``) in (0, 1]; else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0.0 < value <= 1.0:
        raise ValueError(f"{name} {value!r} must lie in (0, 1]")
    return float(value)


def nonneg_matrix(data, name: str = "matrix") -> Array:
    """Validate and return a 2-D float64 array with finite, nonnegative entries.

    Parameters
    ----------
    data : array_like
        Anything convertible to a 2-D numeric array.
    name : str
        Label used in error messages.

    Returns
    -------
    np.ndarray
        C-contiguous float64 array of shape (rows, cols).
    """
    arr = np.ascontiguousarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(arr < 0.0):
        raise ValueError(f"{name} contains negative entries")
    return arr


def stochastic_matrix(data, name: str = "matrix") -> Array:
    """Validate a column-stochastic matrix (nonnegative, columns sum to 1)."""
    arr = nonneg_matrix(data, name=name)
    sums = arr.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > _STOCHASTIC_TOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise ValueError(
            f"{name} is not column-stochastic (max column-sum error {worst:.3e})"
        )
    return arr


def normalize_columns(m: Array) -> Array:
    """Scale each column to sum to one.

    Raises
    ------
    ValueError
        If any column sums to zero; callers should floor first (see EPS).
    """
    m = np.asarray(m, dtype=np.float64)
    sums = m.sum(axis=0)
    if np.any(sums <= 0.0):
        bad = int(np.argmin(sums))
        raise ValueError(
            f"column {bad} has nonpositive sum {sums[bad]:.3e}; "
            "floor the matrix before normalizing"
        )
    return m / sums


def is_divergence(x: Array, xhat: Array) -> float:
    """Itakura-Saito divergence sum(x/xhat - log(x/xhat) - 1).

    Entries of ``x`` equal to zero yield +inf (the log term diverges), so
    callers are expected to floor ``x``.  ``xhat`` must be strictly positive.

    Parameters
    ----------
    x : np.ndarray
        Nonnegative data.
    xhat : np.ndarray
        Strictly positive approximation, same shape as ``x``.

    Returns
    -------
    float
        The divergence; zero iff ``x == xhat`` elementwise.
    """
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {xhat.shape}")
    if np.any(xhat <= 0.0):
        raise ValueError("approximation must be strictly positive")
    if np.any(x < 0.0):
        raise ValueError("data must be nonnegative")
    ratio = x / xhat
    with np.errstate(divide="ignore"):
        log_ratio = np.log(ratio)
    return float(np.sum(ratio - log_ratio - 1.0))
