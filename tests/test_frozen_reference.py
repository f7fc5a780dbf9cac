"""The lean hot path against frozen copies of the kernels it replaced.

``solve_beta``, ``filter_frame`` (which now holds the E-step and the one
simplex update call at every order) and the dynamic loop of ``train`` were
rewritten to make fewer numpy calls per refinement: extremes read at
``argmin``/``argmax``, ``ndarray.dot`` for ``@``, in-place floors and
divides, and the update written from the normalizer's last Newton
evaluation instead of a second pass.  None of that may move a bit.  The
references below are the kernels as they were before, kept verbatim (an
``update`` argument aside), and every comparison is ``np.array_equal``;
only the uniform-prior update departs from them, as set out below.

Two generations are frozen.  The first (``_frozen_*``: ``@``, min
reductions, ``np.add(1.0 / eta, beta)``) departs from ``solve_beta``'s
update only where a denominator ``1/eta[i] + beta`` is within the bracket
resolution of 0 (such terms share by count what the others leave of 1),
which the filter and training inputs here do not reach; it still checks its
inputs, while the kernels no longer do (``filter_stream``, ``train``,
``map_objective`` and ``lag_fit_divergence`` check them once), so only valid
inputs are compared.  The second (``_two_pass_*``) is the normalizer that
returned only the root and the update that recomputed every denominator
from it; it has the near-pole rule, so it is compared on extreme inputs too:
uniform priors, ties, zero counts and pole counts down to 1e-300.

One departure is deliberate.  Under a uniform prior every denominator is
``sum(c)``, and ``solve_beta`` writes the normalized counts ``c / sum(c)``
in one division, where both generations divided by ``1/eta + beta`` and
normalized again.  ``_uniform_as_counts`` routes only that case of a frozen
update to the one division; the exact comparisons run against it, and a
bound of ``_UNIFORM_ULPS`` units in the last place per update against the
frozen bits.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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

# The bound, in units in the last place, between the normalized counts and
# the frozen uniform-prior update: 6 at most in 200 000 random uniform-prior
# updates (1 to 65 entries, counts 1e-323..1e300 with zeros).  A stream of r
# refinements is held to r times the bound; 600 random order-0 streams read
# at most 4, 11 and 32 ulps at r = 1, 7 and 50.
_UNIFORM_ULPS = 8


def _uniform_as_counts(update):
    """``update(c, eta, ...)`` as ``solve_beta`` now runs it: under a uniform
    ``eta`` (the same test as ``solve_beta``'s) it writes ``c / sum(c)``."""
    def routed(c, eta, *args, out=None):
        if eta[eta.argmin()] == eta[eta.argmax()]:
            return np.divide(c, _sum(c, 0), out=out)
        return update(c, eta, *args, out=out)
    return routed


def _ulps(a, b):
    """The largest distance between nonnegative float64 arrays in units in
    the last place: the difference of their bit patterns as integers."""
    return int(np.max(np.abs(a.view(np.int64) - b.view(np.int64)), initial=0))


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


def _frozen_em_step(xf, w, eta, h, update=_frozen_simplex_update):
    hs = np.maximum(h, EPS)
    wh = np.maximum(w @ hs, EPS)
    return update(hs * (w.T @ (xf / wh)), eta)


def _frozen_filter_frame(state, x, update=_frozen_simplex_update):
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
        h = _frozen_em_step(xf, model.basis, eta, h, update)
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


_BETA_TOL = 1e-12
_BETA_MAX_ITER = 200
_BETA_RESOLUTION = 8.0 * np.finfo(np.float64).eps


def _two_pass_solve_beta(c, eta):
    total = float(_sum(c, 0))
    k = eta.argmax()
    if eta[eta.argmin()] == eta[k]:
        return total - 1.0 / float(eta[0])

    inv = 1.0 / eta
    if c[c.argmin()] == 0.0:
        inv[c == 0.0] = math.inf
        k = inv.argmin()
    pole = -float(inv[k])
    lo = pole + float(c[k])
    hi = pole + total
    right = math.nextafter(pole, math.inf)

    beta = max(min(max(total - 1.0, lo), hi), right)
    for _ in range(_BETA_MAX_ITER):
        d = inv + beta
        q = c / d
        val = float(_sum(q, 0))
        if abs(val - 1.0) <= _BETA_TOL:
            return beta
        if val > 1.0:
            lo = beta
        else:
            hi = beta
        if hi - lo <= _BETA_RESOLUTION * max(1.0, abs(lo), abs(hi)):
            return max(0.5 * (lo + hi), right)
        cand = beta + val * (val - 1.0) / float(_sum(q / d, 0))
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
        beta = cand
    raise ConvergenceError("two-pass normalizer did not converge")


def _two_pass_simplex_update(c, eta, out=None):
    return _update_at_root(c, eta, _two_pass_solve_beta(c, eta), out)


def _update_at_root(c, eta, beta, out=None):
    """The second pass: every denominator ``1/eta[i] + beta`` recomputed from
    the root, with the near-pole rule, then the normalized terms."""
    out = np.divide(1.0, eta, out=out)
    out += beta
    tol = _BETA_RESOLUTION * max(1.0, abs(beta))
    if out[out.argmin()] > tol:
        np.divide(c, out, out=out)
    else:
        near = out <= tol
        out[near] = math.inf
        np.divide(c, out, out=out)
        cn = c[near]
        out[near] = cn / (_sum(cn, 0) or 1.0) * max(1.0 - _sum(out, 0), 0.0)
    out /= _sum(out, 0)
    return out


def _log_floats(lo, hi):
    """Floats ``10**e`` with exponent ``e`` drawn from ``[lo, hi]``."""
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def _extreme_normalizer_inputs(draw):
    """Prior means in 1e-6..1e6 with ties and uniform cases; counts in
    1e-30..1e3 with zeros, those at the largest eta (the pole) down to 1e-300,
    and under a uniform prior in 1e-323..1e300, so that totals run from
    subnormal to about 1e301."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["free", "tie", "uniform"]))
    if kind == "uniform":
        eta = np.full(n, draw(_log_floats(-6, 6)))
    else:
        eta = np.array(draw(st.lists(_log_floats(-6, 6), min_size=n, max_size=n)))
    if kind == "tie":
        eta[draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))] = eta.max()
    pole = eta == eta.max()
    lo, hi = (-323, 300) if kind == "uniform" else (-300, 3)
    c = np.array([draw(st.one_of(st.just(0.0), _log_floats(lo if p else -30, hi))) for p in pole])
    if c.sum() <= 0.0:
        c[draw(st.integers(0, n - 1))] = draw(_log_floats(lo, hi))
    return c, eta


@settings(max_examples=1000, deadline=None)
@given(_extreme_normalizer_inputs())
# The uniform prior's old near-pole case: 1/eta + beta rounds to 0.
@example((np.array([1e-17]), np.array([1.0])))
# Totals at the ends of float64: subnormal, and about 1e301.
@example((np.array([5e-324, 0.0, 1e-323]), np.full(3, 1e6)))
@example((np.array([5e-324]), np.array([1e-6])))
@example((np.full(12, 1e300), np.full(12, 1e-6)))
def test_solve_beta_update_matches_two_pass_kernels(inputs):
    c, eta = inputs
    out = np.empty_like(c)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        beta = solve_beta(c, eta, out)
        want = _uniform_as_counts(_two_pass_simplex_update)(c, eta)
        frozen = _two_pass_simplex_update(c, eta)
    assert beta == _two_pass_solve_beta(c, eta)
    assert np.array_equal(out, want)
    # Zero counts keep +0.0, not -0.0.
    assert np.array_equal(np.signbit(out), np.signbit(want))
    assert _ulps(out, frozen) <= _UNIFORM_ULPS


def _frozen_streams(model, frames, inner_iters):
    """The frozen filter over ``frames``: with uniform-prior updates routed to
    the normalized counts, and fully frozen."""
    routed = _uniform_as_counts(_frozen_simplex_update)
    streams = []
    for update in (routed, _frozen_simplex_update):
        state = FilterState(model, anneal=0.25, inner_iters=inner_iters)
        streams.append(np.stack([_frozen_filter_frame(state, f, update) for f in frames.T], axis=1))
    return streams


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
        want, frozen = _frozen_streams(model, frames, inner_iters)
        assert np.array_equal(got, want)
        assert _ulps(got, frozen) <= _UNIFORM_ULPS * inner_iters


def test_filter_stream_identity_basis_matches_frozen_kernels():
    # The tracking experiment's static baseline: identity basis, 50 refinements.
    rng = np.random.default_rng(156)
    model = DnmfModel(basis=np.eye(65), lags=[])
    frames = np.abs(rng.standard_normal((65, 30)))
    got = filter_stream(FilterState(model, anneal=0.25, inner_iters=50), frames)
    want, frozen = _frozen_streams(model, frames, 50)
    assert np.array_equal(got, want)
    assert _ulps(got, frozen) <= _UNIFORM_ULPS * 50


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
