"""The lean hot path against frozen copies of the kernels it replaced.

``solve_beta``, ``_simplex_update``, ``filter_frame`` (which now holds the
E-step) and the dynamic loop of ``train`` were rewritten to make fewer numpy
calls per refinement: extremes read at ``argmin``/``argmax``, ``ndarray.dot``
for ``@``, a scalar reciprocal for the uniform prior, in-place floors and
divides.  None of that may move a bit.  The references below are the
kernels as they were before, kept verbatim (``@``, min reductions,
``np.add(1.0 / eta, beta)``), and every comparison is ``np.array_equal``.
``_simplex_update`` departs from its frozen copy only where a denominator
``1/eta[i] + beta`` is within ``solve_beta``'s bracket resolution of 0 (such
terms share by count what the others leave of 1), which these inputs do not
reach.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnmf.core import EPS, nonneg_matrix, normalize_columns
from dnmf.statespace import (
    _INIT_FLOOR,
    _stack_lags,
    ConvergenceError,
    DnmfModel,
    FilterState,
    TrainConfig,
    build_lag_matrix,
    estimate_nvar,
    filter_stream,
    solve_beta,
    train,
)

_sum, _min = np.add.reduce, np.minimum.reduce


def _frozen_solve_beta(c, eta):
    c = np.asarray(c, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    if c.shape != eta.shape or c.ndim != 1:
        raise ValueError("c and eta must be 1-D arrays of equal length")
    if c.size == 0:
        raise ValueError("counts must have positive total")
    total = float(_sum(c))
    k = eta.argmax()
    c_min, eta_min, eta_max = _min(c), _min(eta), eta[k]
    if not all(map(math.isfinite, (total, eta_min, eta_max))):
        raise ValueError("counts and prior means must be finite")
    if c_min < 0.0:
        raise ValueError("counts must be nonnegative")
    if eta_min <= 0.0:
        raise ValueError("prior means must be strictly positive")
    if total <= 0.0:
        raise ValueError("counts must have positive total")
    if eta_min == eta_max:
        return total - 1.0 / float(eta[0])
    if c_min > 0.0:
        cs, inv = c, 1.0 / eta
    else:
        support = c > 0.0
        cs, inv = c[support], 1.0 / eta[support]
        k = inv.argmin()
    pole = -float(inv[k])
    lo = pole + float(cs[k])
    hi = pole + total
    beta = min(max(total - 1.0, lo), hi)
    resolution = 8.0 * np.finfo(np.float64).eps
    for _ in range(200):
        d = inv + beta
        q = cs / d
        val = float(_sum(q))
        if abs(val - 1.0) <= 1e-12:
            return beta
        if val > 1.0:
            lo = beta
        else:
            hi = beta
        if hi - lo <= resolution * max(1.0, abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        cand = beta + val * (val - 1.0) / float(_sum(q / d))
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
        beta = cand
    raise ConvergenceError("frozen normalizer did not converge")


def _frozen_simplex_update(c, eta, out=None):
    beta = _frozen_solve_beta(c, eta)
    out = np.add(1.0 / eta, beta, out=out)
    np.divide(c, out, out=out)
    out /= _sum(out)
    return out


def _frozen_em_step(xf, w, eta, h):
    hs = np.maximum(h, EPS)
    wh = np.maximum(w @ hs, EPS)
    return _frozen_simplex_update(hs * (w.T @ (xf / wh)), eta)


def _frozen_filter_frame(state, x):
    model = state.model
    x = np.asarray(x, dtype=np.float64)
    if not (x.min() >= 0.0 and x.max() < math.inf):
        raise ValueError("frame must be nonnegative and finite")
    xf = np.maximum(x, EPS)
    xf = xf / xf.sum()
    if model.order >= 1:
        pred = state._lag_stack @ state.history.ravel()
        base = np.maximum(pred, EPS)
        h = np.maximum(pred, _INIT_FLOOR)
        h = h / h.sum()
    else:
        base = np.ones(model.n_components)
        h = base / base.sum()
    for r in range(1, state.inner_iters + 1):
        eta = base ** (state.anneal / r) if model.order >= 1 else base
        h = _frozen_em_step(xf, model.basis, eta, h)
    if model.order >= 1:
        state.history[:-1] = state.history[1:]
        state.history[-1] = h
    return h


def _frozen_train(x, rank, order, cfg):
    data = nonneg_matrix(x, name="data")
    nfeat, nframes = data.shape
    rng = np.random.default_rng(cfg.seed)
    xf = np.maximum(data, EPS)
    picks = rng.choice(nframes, size=rank, replace=nframes < rank)
    jitter = rng.uniform(0.05, 0.15, size=(nfeat, rank))
    w = normalize_columns(xf[:, picks] / xf[:, picks].mean(axis=0) + jitter)
    h = normalize_columns(rng.uniform(0.1, 1.1, size=(rank, nframes)))
    stacked = _stack_lags(rng.uniform(0.1, 1.1, size=(order, rank, rank))) if order else None
    ratio = np.empty_like(xf)
    for it in range(1, cfg.iters + 1):
        hs = np.maximum(h, EPS)
        np.matmul(w, hs, out=ratio)
        np.maximum(ratio, EPS, out=ratio)
        np.divide(xf, ratio, out=ratio)
        counts = w.T @ ratio
        counts *= hs
        w = normalize_columns(w * (ratio @ hs.T))
        if order == 0 or it <= cfg.prior_start:
            counts /= counts.sum(axis=0)
            h = counts
        else:
            hist = np.ones((order + nframes, rank))
            counts_t = np.ascontiguousarray(counts.T)
            for t in range(nframes):
                pred = stacked @ hist[t : t + order].ravel()
                np.maximum(pred, EPS, out=pred)
                pred **= cfg.anneal
                _frozen_simplex_update(counts_t[t], pred, out=hist[order + t])
            h = np.ascontiguousarray(hist[order:].T)
        if order > 0 and it >= cfg.prior_start:
            stacked = estimate_nvar(h, stacked, build_lag_matrix(h, order))
    lags = np.hsplit(stacked, order)[::-1] if order else []
    return w, h, lags


def _model(rng, k, i, order):
    basis = normalize_columns(rng.uniform(0.05, 1.0, size=(k, i)))
    return DnmfModel(basis=basis, lags=[rng.uniform(0.0, 0.4, size=(i, i)) for _ in range(order)])


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("inner_iters", [1, 50])
def test_filter_stream_matches_frozen_kernels(order, inner_iters):
    rng = np.random.default_rng(150 + order)
    for k, i in ((33, 6), (65, 65)):
        model = _model(rng, k, i, order)
        frames = rng.uniform(0.0, 1.0, size=(k, 24))
        frames[rng.uniform(size=frames.shape) < 0.1] = 0.0
        got = filter_stream(FilterState(model, anneal=0.25, inner_iters=inner_iters), frames)
        state = FilterState(model, anneal=0.25, inner_iters=inner_iters)
        want = np.stack([_frozen_filter_frame(state, f) for f in frames.T], axis=1)
        assert np.array_equal(got, want)


def test_filter_stream_identity_basis_matches_frozen_kernels():
    # The tracking experiment's static baseline: identity basis, 50 refinements.
    rng = np.random.default_rng(156)
    model = DnmfModel(basis=np.eye(65), lags=[])
    frames = np.abs(rng.standard_normal((65, 30)))
    got = filter_stream(FilterState(model, anneal=0.25, inner_iters=50), frames)
    state = FilterState(model, anneal=0.25, inner_iters=50)
    want = np.stack([_frozen_filter_frame(state, f) for f in frames.T], axis=1)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("order", [0, 2])
def test_train_matches_frozen_kernels(order):
    rng = np.random.default_rng(160 + order)
    for _ in range(6):
        iters = int(rng.integers(2, 12))
        cfg = TrainConfig(iters=iters, prior_start=int(rng.integers(0, iters)),
                          anneal=float(rng.choice([0.15, 1.0])), seed=int(rng.integers(1000)))
        x = rng.uniform(0.0, 2.0, size=(int(rng.integers(4, 40)), int(rng.integers(3, 60))))
        x[rng.uniform(size=x.shape) < 0.2] = 0.0
        rank = int(rng.integers(1, 9))
        model, h = train(x, rank, order, cfg)
        w_ref, h_ref, lags_ref = _frozen_train(x, rank, order, cfg)
        assert np.array_equal(model.basis, w_ref)
        assert np.array_equal(h, h_ref)
        assert len(model.lags) == len(lags_ref)
        assert all(np.array_equal(a, b) for a, b in zip(model.lags, lags_ref))


def _minmax_error(c, eta):
    """The message the min/max-reduction validation gave, or None for valid input."""
    total = float(c.sum())
    if not all(map(math.isfinite, (total, eta.min(), eta.max()))):
        return "counts and prior means must be finite"
    if c.min() < 0.0:
        return "counts must be nonnegative"
    if eta.min() <= 0.0:
        return "prior means must be strictly positive"
    if total <= 0.0:
        return "counts must have positive total"
    return None


_ENTRIES = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0])


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_ENTRIES, _ENTRIES), min_size=1, max_size=6))
def test_solve_beta_validation_matches_minmax_check(pairs):
    c, eta = (np.array(v) for v in zip(*pairs))
    # inf - inf in the total warns on both sides; only the message counts.
    with np.errstate(invalid="ignore"):
        want = _minmax_error(c, eta)
        if want is None:
            assert math.isfinite(solve_beta(c, eta))
        else:
            with pytest.raises(ValueError) as info:
                solve_beta(c, eta)
            assert str(info.value) == want
