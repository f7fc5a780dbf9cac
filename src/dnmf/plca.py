"""Probabilistic latent component analysis and Itakura-Saito NMF updates.

Two batch estimators live here:

* multiplicative updates that decrease the Itakura-Saito divergence
  ``d_IS(X || WH)``, used for fitting the autoregressive lag matrices;
* EM updates for the multinomial mixture view of NMF, where each frame
  ``x_t`` is modelled as ``sum(x_t) * W @ h_t`` with ``W`` column-stochastic
  and ``h_t`` on the simplex.
"""
from __future__ import annotations

import numpy as np

from .core import EPS, Array

__all__ = [
    "is_nmf_update_h",
    "is_nmf_update_w",
    "fit_static_plca",
]


def is_nmf_update_h(x: Array, w: Array, h: Array) -> Array:
    """One multiplicative update of the coefficients for IS-divergence NMF.

    h <- h * (W.T @ ((WH)^-2 * X)) / (W.T @ (WH)^-1)

    The product ``WH`` is floored at ``EPS`` before the reciprocal powers.
    The update never increases ``is_divergence(x, w @ h)``.
    """
    wh = np.maximum(w @ h, EPS)
    numer = w.T @ (x / (wh * wh))
    denom = np.maximum(w.T @ (1.0 / wh), EPS)
    return h * (numer / denom)


def is_nmf_update_w(x: Array, w: Array, h: Array) -> Array:
    """One multiplicative update of the basis for IS-divergence NMF.

    w <- w * (((WH)^-2 * X) @ H.T) / ((WH)^-1 @ H.T)

    No normalization is applied; columns keep their natural scale.
    """
    wh = np.maximum(w @ h, EPS)
    numer = (x / (wh * wh)) @ h.T
    denom = np.maximum((1.0 / wh) @ h.T, EPS)
    return w * (numer / denom)


def fit_static_plca(
    x: Array, rank: int, iters: int = 100, seed: int = 0
) -> tuple[Array, Array]:
    """Fit the static multinomial mixture model by EM.

    Runs the shared trainer with the autoregressive order set to zero, so the
    temporal prior never participates.  Deterministic for a fixed seed.

    Parameters
    ----------
    x : np.ndarray
        Nonnegative data, shape (K, T).  Zeros are floored internally.
    rank : int
        Number of latent components.
    iters : int
        Number of EM iterations.
    seed : int
        Seed for the basis/coefficient initialization.

    Returns
    -------
    (w, h) : tuple of np.ndarray
        Column-stochastic basis (K, rank) and simplex coefficients (rank, T).
    """
    from .statespace import TrainConfig, train

    # prior_start is irrelevant at order 0 but must satisfy the config's
    # bounds check for small iteration counts.
    cfg = TrainConfig(iters=iters, prior_start=0, seed=seed)
    model, h = train(x, rank, 0, cfg)
    return model.basis, h
