"""Dense nonnegative-matrix utilities shared across the package.

Everything operates on plain float64 numpy arrays.  The private checks below
validate every scalar and array once at the public boundary (integers,
exponents, finite reals, non-empty tuples of them, nonnegative matrices, and
the finite same-shape arrays of the signal and score functions); the
iterative code paths trust their inputs.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

Array = np.ndarray

# Floor applied by callers to any quantity entering a logarithm or a
# denominator.  Small enough to be negligible mass, large enough to keep
# reciprocals finite in float64.
EPS = 1e-12

__all__ = [
    "EPS",
    "nonneg_matrix",
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


def _checked_real(value, name: str) -> float:
    """``float(value)`` for a finite real number (not a ``bool``); else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} {value!r} must be a finite real number")
    return float(value)


def _checked_tuple(values, name: str, check) -> tuple:
    """``values`` as a non-empty tuple, each entry passed through
    ``check(entry, f"{name} entry")``; else ``ValueError``."""
    try:
        entries = tuple(values)
    except TypeError:  # not iterable
        entries = ()
    if not entries:
        raise ValueError(f"{name} {values!r} must be a non-empty sequence")
    return tuple(check(v, f"{name} entry") for v in entries)


def _checked_matrix(a, name: str, rows: int | None = None, cols: int | None = None) -> Array:
    """``a`` as float64 once it is 2-D with ``rows`` rows and ``cols`` columns
    (where given) and every entry is finite and nonnegative; else ``ValueError``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or rows not in (None, a.shape[0]) or cols not in (None, a.shape[1]):
        want = f" with {rows} rows" if cols is None else f" with shape ({rows}, {cols})"
        raise ValueError(f"{name} must be 2-D{want if rows else ''}, got shape {a.shape}")
    # NaN fails both comparisons, -inf the first and +inf the second.
    if a.size and not (a.min() >= 0.0 and a.max() < math.inf):
        raise ValueError(f"{name} must be nonnegative and finite")
    return a


def _checked_arrays(**arrays) -> list[Array]:
    """Each argument as float64 once all share one shape and every entry is
    finite; else ``ValueError`` naming the argument."""
    out = [np.asarray(a, dtype=np.float64) for a in arrays.values()]
    for name, a in zip(arrays, out):
        if a.shape != out[0].shape:
            raise ValueError(
                f"{name} has shape {a.shape}, not {next(iter(arrays))}'s {out[0].shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
    return out


def nonneg_matrix(data, name: str = "matrix") -> Array:
    """``data`` as a C-contiguous float64 array once it is non-empty and 2-D with
    finite, nonnegative entries; else ``ValueError`` labelled ``name``."""
    arr = _checked_matrix(np.ascontiguousarray(data, dtype=np.float64), name)
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
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
        Finite, nonnegative data.
    xhat : np.ndarray
        Finite, strictly positive approximation, same shape as ``x``.

    Returns
    -------
    float
        The divergence; zero iff ``x == xhat`` elementwise.
    """
    x, xhat = _checked_arrays(x=x, xhat=xhat)
    if not (np.all(x >= 0.0) and np.all(xhat > 0.0)):
        raise ValueError("x must be nonnegative and xhat strictly positive")
    ratio = x / xhat
    with np.errstate(divide="ignore"):
        log_ratio = np.log(ratio)
    return float(np.sum(ratio - log_ratio - 1.0))
