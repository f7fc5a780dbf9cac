"""The basis half of Itakura-Saito NMF, used for fitting the lag matrices.

The static multinomial mixture (PLCA) is :func:`dnmf.statespace.train` at
order 0.
"""
from __future__ import annotations

import numpy as np

from .core import EPS, Array

__all__ = ["is_nmf_update_w"]


def is_nmf_update_w(x: Array, w: Array, h: Array) -> Array:
    """One multiplicative update of the basis for IS-divergence NMF.

    w <- w * (((WH)^-2 * X) @ H.T) / ((WH)^-1 @ H.T)

    The product ``WH`` is floored at ``EPS`` before the reciprocal powers.
    No normalization is applied; columns keep their natural scale.
    """
    wh = np.maximum(w @ h, EPS)
    numer = (x / (wh * wh)) @ h.T
    denom = np.maximum((1.0 / wh) @ h.T, EPS)
    return w * (numer / denom)
