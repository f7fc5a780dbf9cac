"""Nonnegative state-space model over NMF coefficients.

The generative model treats each data frame ``x_t`` (a nonnegative vector,
e.g. one column of a magnitude spectrogram) as a multinomial draw whose cell
probabilities are ``W @ h_t``, with ``W`` a column-stochastic basis and
``h_t`` a point on the simplex.  The coefficients themselves evolve through a
vector-autoregressive prior with elementwise-exponential innovations:

    mean(h_t | past) = sum_j lags[j] @ h_{t-j},   j = 1..order

Training interleaves EM updates of the basis and coefficients with one
multiplicative sweep on the lag matrices per iteration.  Filtering estimates
``h_t`` causally, one frame at a time: predict the coefficient mean from the
stored history (all-ones at order 0, the padding for missing lags, so the
static start is uniform and its prior mean ones), start the EM refinement at
that prediction, and anneal the prior toward uniform when several refinements
are requested.

Training consumes frames at their natural scale, so energetic frames carry
proportionally more weight in the basis and lag fits.  Filtering instead
normalizes each incoming frame to unit mass: the count vector then sums to
one regardless of frame energy, which gives the exponential prior's
``1/eta`` term the same relative strength on every frame.  The frame is first
scaled by an exact power of two to a peak in [0.5, 1), so the ``EPS`` floor
sees the same frame at any loudness: the coefficients are bit-identical
wherever the scaled frame has no subnormal or infinite entry.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (EPS, Array, _checked_exponent, _checked_int, _checked_matrix, is_divergence,
                   nonneg_matrix, normalize_columns)
from .plca import is_nmf_update_w

__all__ = [
    "ConvergenceError",
    "DnmfModel",
    "TrainConfig",
    "FilterState",
    "train",
    "filter_stream",
    "map_objective",
    "lag_fit_divergence",
    "concat_models",
]


class ConvergenceError(RuntimeError):
    """Raised when an iterative numerical solve fails to reach tolerance."""


@dataclass
class DnmfModel:
    """A trained factorization with autoregressive coefficient dynamics.

    Attributes
    ----------
    basis : np.ndarray
        Column-stochastic to 1e-6, shape (n_features, n_components); columns
        whose sums drift beyond 1e-9 are renormalized with a ``UserWarning``.
    lags : list of np.ndarray
        One square nonnegative matrix per autoregressive lag, each of shape
        (n_components, n_components).  Deliberately unnormalized: row scale
        acts as an importance weight between lags.
    """

    basis: Array
    lags: list[Array] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.basis = nonneg_matrix(self.basis, name="basis")
        worst = float(np.max(np.abs(self.basis.sum(axis=0) - 1.0)))
        if worst > _STOCHASTIC_TOL:
            raise ValueError(f"basis is not column-stochastic (max column-sum error {worst:.3e})")
        if worst > 1e-9:
            warnings.warn(f"renormalizing basis columns (deviation {worst:.3e})", stacklevel=3)
            self.basis = normalize_columns(self.basis)
        i = self.n_components
        self.lags = [_checked_matrix(a, f"lag matrix {j + 1}", i, i)
                     for j, a in enumerate(self.lags)]

    @property
    def n_features(self) -> int:
        return self.basis.shape[0]

    @property
    def n_components(self) -> int:
        return self.basis.shape[1]

    @property
    def order(self) -> int:
        return len(self.lags)


@dataclass
class TrainConfig:
    """Knobs for :func:`train`.

    Lag matrices are re-estimated from EM iteration ``prior_start`` on, and
    coefficient updates use predictions one iteration later.  ``anneal``
    tempers predictions (``eta ** anneal``) so early dynamic iterations cannot
    lock the coefficients; at 1 no iteration lowers :func:`map_objective`
    unless a prediction sits on the ``EPS`` floor (measured, not proven).  At
    order 0 (static PLCA) ``prior_start`` has no effect but must still lie in
    ``[0, iters]``, so short static runs pass ``prior_start=0``.  A size or
    seed that is not an integer (``2.0`` and ``True`` are not), or is out of
    range, raises ``ValueError``, as does an ``anneal`` outside (0, 1].
    """

    iters: int = 100
    prior_start: int = 50
    anneal: float = 0.15
    seed: int = 0

    def __post_init__(self) -> None:
        self.iters = _checked_int(self.iters, "iters", 1)
        self.prior_start = _checked_int(self.prior_start, "prior_start")
        if self.prior_start > self.iters:
            raise ValueError(f"prior_start {self.prior_start} must lie in [0, iters={self.iters}]")
        self.seed = _checked_int(self.seed, "seed")
        self.anneal = _checked_exponent(self.anneal)


class FilterState:
    """Mutable state for causal, frame-by-frame coefficient estimation.

    Holds the model, the coefficient history, the number of EM refinements
    per frame, and the annealing exponent applied to predictions
    (``prediction ** (anneal / r)`` at inner iteration ``r``).  ``history``
    is an oldest-first ``(order, n_components)`` array that starts as all
    ones (the padding for missing lags).  The lags are stacked once, here,
    as ``[A_J ... A_1]``, so a prediction is one matvec with the raveled
    history, and later changes to ``model.lags`` do not reach the state.
    The basis is read once too: the state notes here whether it is the
    identity (square, ones on the diagonal, exact zeros elsewhere), whose
    E-step :func:`filter_frame` forms without the two basis products, and
    later edits of ``model.basis`` do not change that choice.
    Filtering is fully deterministic: identical state and identical frames
    produce bit-identical coefficient streams.  ``ValueError`` is raised for
    an ``anneal`` outside (0, 1] or an ``inner_iters`` that is not an integer
    of at least 1 (``True`` is not).
    """

    def __init__(self, model: DnmfModel, anneal: float = 0.15, inner_iters: int = 1):
        self.anneal = _checked_exponent(anneal)
        self.inner_iters = _checked_int(inner_iters, "inner_iters", 1)
        self.model = model
        self.history = np.ones((model.order, model.n_components))
        self._lag_stack = _stack_lags(model.lags) if model.order else None
        w = model.basis
        self._identity = w.shape[0] == w.shape[1] and np.array_equal(w, np.eye(w.shape[0]))


def _stack_lags(lags) -> Array:
    """The lag matrices side by side, oldest lag first: ``[A_J ... A_1]``."""
    return np.hstack(lags[::-1])


def _predict_all(lags: list[Array], h: Array) -> Array:
    """Unannealed prediction for every column of ``h`` at once, floored at EPS."""
    return np.maximum(_stack_lags(lags) @ build_lag_matrix(h, len(lags)), EPS)


# Convergence threshold on |g(beta) - 1| and step budget of solve_beta.
_BETA_TOL = 1e-12
_BETA_MAX_ITER = 200
# Relative bracket width at which solve_beta stops: a few ulps.
_BETA_RESOLUTION = 8.0 * np.finfo(np.float64).eps
_STOCHASTIC_TOL = 1e-6  # the largest column-sum error DnmfModel accepts in a basis

# The ufunc reduction behind ndarray.sum, without the method wrapper.
_sum = np.add.reduce


def solve_beta(c: Array, eta: Array, out: Array) -> float:
    """Maximize ``sum_i c[i]*log(h[i]) - h[i]/eta[i]`` over the simplex.

    Writes the maximizer ``h[i] = c[i] / (1/eta[i] + beta)``, normalized,
    into ``out`` (not ``c``) and returns ``beta``, the root of ``g(beta) =
    sum_i c[i] / (beta + 1/eta[i]) = 1`` right of the pole at
    ``-min(1/eta[i])``, where ``g`` falls from +inf to 0; a zero count's
    ``1/eta[i]`` is taken as +inf, so its term is 0.

    Under a uniform ``eta`` the update is ``c / sum(c)`` and the root
    ``sum(c) - 1/eta[0]``.  Otherwise the root lies in the bracket ``[pole +
    c_m, pole + sum(c)]``, with ``c_m`` the count at the smallest ``1/eta``;
    no iterate sits on the pole, even where ``pole + c_m`` rounds to it.  Newton's
    method runs on the equivalent ``1/g(beta) = 1``, which is exactly linear
    in ``beta`` under a uniform prior and nearly so when one term dominates,
    so it needs fewer steps than Newton on ``g`` (Bunch, Nielsen & Sorensen,
    Numer. Math. 1978).  It starts at ``sum(c) - 1``, clamped to the bracket,
    and falls back to bisection whenever a step would leave the shrinking
    bracket.  It stops once ``|g(beta) - 1| <= 1e-12``, and the terms of that
    evaluation are the update, or once the bracket is no wider than a few
    ulps of ``beta``.  Terms whose denominator is at most that resolution
    share by count the deficit the others leave of 1 (after Bunch et al.).

    Precondition, checked by the public entry points and not here: ``c`` and
    ``eta`` are 1-D float64 arrays of equal length, ``c`` finite and
    nonnegative with a positive total, ``eta`` finite and strictly positive.
    """
    total = float(_sum(c, 0))
    # The largest eta has the smallest 1/eta: on full support it is the pole.
    # Indexing at argmin/argmax reads the same extremes as a min reduction,
    # for a fraction of the dispatch.
    k = eta.argmax()
    if eta[eta.argmin()] == eta[k]:
        # Every denominator is sum(c): the update is the normalized counts.
        np.divide(c, total, out=out)
        return total - 1.0 / float(eta[0])
    else:
        inv = 1.0 / eta
        if c[c.argmin()] == 0.0:
            inv[c == 0.0] = math.inf
            k = inv.argmin()
        pole = -float(inv[k])
        # Closed-form bracket.  The term with the smallest 1/eta alone gives
        # g(lo) >= c_m / (lo - pole) = 1; every denominator at hi is at least
        # hi - pole = sum(c), so g(hi) <= 1.
        lo = pole + float(c[k])
        hi = pole + total
        # Where c_m is below half an ulp of the pole, lo rounds onto it, and
        # so may a start clamped to lo or a final midpoint; a denominator is
        # zero there, so both are held to the first float right of the pole.
        right = math.nextafter(pole, math.inf)
        # Every iterate stays inside [lo, hi], so it replaces one end outright.
        beta = max(min(max(total - 1.0, lo), hi), right)
        for _ in range(_BETA_MAX_ITER):
            d = inv + beta
            q = c / d
            val = float(_sum(q, 0))
            if abs(val - 1.0) <= _BETA_TOL:
                # beta - pole is the smallest denominator: both are fl(inv[k] + beta).
                if beta - pole > _BETA_RESOLUTION * max(1.0, abs(beta)):
                    np.divide(q, val, out=out)
                    return beta
                break
            if val > 1.0:
                lo = beta
            else:
                hi = beta
            if hi - lo <= _BETA_RESOLUTION * max(1.0, abs(lo), abs(hi)):
                # Where the root sits almost on the pole, g moves by more than
                # the tolerance across one ulp of beta, so the residual test
                # can never pass; the bracket is then the sharper certificate.
                beta = max(0.5 * (lo + hi), right)
                break
            # Newton on 1/g = 1 is the step on g, (g - 1) / -g', times g.
            cand = beta + val * (val - 1.0) / float(_sum(q / d, 0))
            beta = cand if lo < cand < hi else 0.5 * (lo + hi)
        else:
            raise ConvergenceError(f"normalizer did not reach |g(beta)-1| <= {_BETA_TOL:g} "
                                   f"in {_BETA_MAX_ITER} steps")

    # A bracket exit, or a denominator so close to 0 that it is mostly
    # rounding error; the other terms are accurate and sum to 1 at the root.
    # Rebuilt from 1/eta, the denominators put zero counts on or left of the
    # root in the near set; +inf zeroes the near terms, zero counts get +0.0.
    tol = _BETA_RESOLUTION * max(1.0, abs(beta))
    np.divide(1.0, eta, out=out)
    out += beta
    near = out <= tol
    out[near] = math.inf
    np.divide(c, out, out=out)
    cn = c[near]
    out[near] = cn / (_sum(cn, 0) or 1.0) * max(1.0 - _sum(out, 0), 0.0)
    out /= _sum(out, 0)
    return beta


def build_lag_matrix(h: Array, order: int) -> Array:
    """Stack lagged coefficient columns for autoregression fitting.

    Column ``t`` of the result is ``[h[:, t-order]; ...; h[:, t-1]]``, oldest
    lag first, the layout of the stacked lags ``[A_J ... A_1]`` throughout
    this module; lags before the first frame are all-ones.

    Precondition, checked by the public entry points and not here: ``h`` is a
    2-D float64 array of shape (I, T) and ``order >= 1``.  The result has
    shape (I * order, T).
    """
    ncomp, nframes = h.shape
    hist = np.vstack((np.ones((order, ncomp)), h.T))
    # Windows of the flat history, one frame (ncomp entries) apart.
    windows = sliding_window_view(hist.ravel(), order * ncomp)[::ncomp]
    return np.ascontiguousarray(windows[:nframes].T)


def estimate_nvar(h: Array, a: Array, v: Array) -> Array:
    """One multiplicative sweep fitting the lag matrices to observed dynamics.

    Minimizes the Itakura-Saito divergence ``d_IS(h || a @ v)`` in ``a`` with
    ``v`` held fixed, via the same update as :func:`plca.is_nmf_update_w`.
    The result is not normalized; entry scale carries the relative importance
    of each lag.

    Precondition, checked by the public entry points and not here: float64
    coefficients ``h`` (I, T), nonnegative stacked lags ``a`` = ``[A_J ...
    A_1]`` (I, I * order) and ``v`` = ``build_lag_matrix(h, order)``.  The
    updated stacked lags, of ``a``'s shape, are returned.
    """
    return is_nmf_update_w(h, a, v)


def train(
    x: Array, rank: int, order: int, config: TrainConfig | None = None
) -> tuple[DnmfModel, Array]:
    """Fit basis, coefficients, and lag matrices by generalized EM.

    Each iteration computes the responsibilities' weighted counts and the
    basis update once, in bulk, from the previous parameters.  It then (a)
    re-estimates the coefficients and, once ``config.prior_start`` is
    reached, (b) applies one multiplicative sweep to the lag matrices.
    Coefficient updates use uniform prior means until iteration
    ``prior_start``, which normalizes the counts in bulk; afterwards each
    frame's simplex update uses the annealed prediction built from the lag
    matrices and the already-updated coefficients of earlier frames, and
    this prediction-driven update is the only sequential step.  The lags
    stay stacked as ``[A_J ... A_1]`` for the whole run and are split into
    ``model.lags`` once, at the end.  At order 0 every update normalizes its
    counts, so ``x`` times a power of two that keeps every entry at least
    ``EPS`` and overflows no step trains bit for bit alike.  At order >= 1
    the fit depends on scale by design: the prior's weight is fixed, while
    the data term grows with the data's mass.

    Parameters
    ----------
    x : np.ndarray
        Nonnegative data, shape (K, T).  Zero entries are floored.
    rank : int
        Number of latent components.
    order : int
        Autoregressive order; 0 disables the temporal prior entirely.
    config : TrainConfig, optional
        Iteration counts, annealing, seed.

    Returns
    -------
    (model, h) : tuple
        The fitted :class:`DnmfModel` and the final simplex coefficients of
        shape (rank, T); :func:`lag_fit_divergence` scores their lag fit.

    Raises
    ------
    ValueError
        For data that is not a finite, nonnegative 2-D matrix, and for a
        ``rank`` or ``order`` that is not an integer (``1.5`` and ``True`` are
        not) of at least 1 or 0.
    FloatingPointError
        At the first float64 overflow, invalid operation or division by
        zero (finite entries near 1e308 overflow): the iterations run under
        ``np.errstate(over="raise", invalid="raise", divide="raise")``.
    """
    cfg = config if config is not None else TrainConfig()
    data = nonneg_matrix(x, name="data")
    rank, order = _checked_int(rank, "rank", 1), _checked_int(order, "order")
    nfeat, nframes = data.shape

    with np.errstate(over="raise", invalid="raise", divide="raise"):
        rng = np.random.default_rng(cfg.seed)
        xf = np.maximum(data, EPS)
        # Seed the basis with randomly chosen data frames (jittered so no two
        # columns coincide): every component then starts as a spectrum the data
        # actually contains, which spreads the dictionary over the signal's
        # states far more reliably than blind noise.
        picks = rng.choice(nframes, size=rank, replace=nframes < rank)
        jitter = rng.uniform(0.05, 0.15, size=(nfeat, rank))
        w = normalize_columns(xf[:, picks] / xf[:, picks].mean(axis=0) + jitter)
        h = normalize_columns(rng.uniform(0.1, 1.1, size=(rank, nframes)))
        # The lags side by side, [A_J ... A_1], until they are split at the end.
        stacked = _stack_lags(rng.uniform(0.1, 1.1, size=(order, rank, rank))) if order else None

        ratio = np.empty_like(xf)  # x / (W @ h), rewritten in place each iteration
        anneal = cfg.anneal
        for it in range(1, cfg.iters + 1):
            # E-step and basis update depend only on the previous iterate.
            hs = np.maximum(h, EPS)
            np.matmul(w, hs, out=ratio)
            np.maximum(ratio, EPS, out=ratio)
            np.divide(xf, ratio, out=ratio)
            counts = w.T @ ratio
            counts *= hs
            w = normalize_columns(w * (ratio @ hs.T))
            if order == 0 or it <= cfg.prior_start:
                # Uniform prior means: every frame decouples.
                counts /= counts.sum(axis=0)
                h = counts
            else:
                # Time-major history: ``order`` all-ones rows, then one row per
                # frame; rows t .. t + order - 1 are frame t's past, already
                # updated in this iteration, as [A_J ... A_1] expects them.
                hist = np.ones((order + nframes, rank))
                flat = hist.ravel()  # a view: frame t's past is one flat slice
                counts_t = np.ascontiguousarray(counts.T)
                for t in range(nframes):
                    pred = stacked.dot(flat[t * rank : (t + order) * rank])
                    np.maximum(pred, EPS, out=pred)
                    pred **= anneal
                    solve_beta(counts_t[t], pred, hist[order + t])
                h = np.ascontiguousarray(hist[order:].T)
            if order > 0 and it >= cfg.prior_start:
                stacked = estimate_nvar(h, stacked, build_lag_matrix(h, order))

        return DnmfModel(basis=w, lags=np.hsplit(stacked, order)[::-1] if order else []), h


# Floor applied to the prediction before it seeds the EM refinement.  The
# count update is multiplicative in the starting point, so a component whose
# prediction has decayed to ~1e-30 could never re-enter no matter how badly
# the frame needs it.  Flooring the start (and only the start -- the prior
# mean keeps the true prediction) lets one refinement resurrect a component
# whenever the frame is otherwise unexplained, while components that are
# merely redundant stay at the floor and normalize away.
_INIT_FLOOR = 1e-4


def filter_frame(state: FilterState, x: Array) -> Array:
    """Causally estimate one frame's coefficients and push them to history.

    The frame ``x`` comes prepared by :func:`filter_stream`: scaled by a power
    of two to a peak in [0.5, 1), floored at ``EPS`` and put at unit mass.
    The prediction from the stored history (all-ones for missing lags, and at
    order 0, whose start is therefore uniform and whose prior mean is ones)
    serves twice: floored at ``1e-4`` and put on the simplex, it is the
    starting point of the EM refinement; floored at ``EPS`` and kept at its
    natural scale, it is the annealing base ``b`` whose power ``b ** (anneal
    / r)`` is the prior mean at inner iteration ``r``.  Later iterations
    therefore approach the static (uniform-prior) update while early ones stay
    close to the prediction; with the default single refinement the prior
    mean is exactly ``b ** anneal``.  One loop runs the ``inner_iters``
    refinements: an E-step, whose responsibilities enter only through their
    weighted column sums, then :func:`solve_beta`'s simplex update (at order
    0: the normalized counts).  Under the identity basis that
    :class:`FilterState` found, the E-step's counts are ``(x / hs) * hs``
    with ``hs`` the floored coefficients: ``W @ hs`` is ``hs`` and ``r @ W``
    is ``r`` bit for bit, since every other term is an exact zero, and
    ``hs`` is floored at ``EPS`` already.  Every other basis runs both
    products and the ``EPS`` floor of ``W @ hs``.

    Precondition, met by :func:`filter_stream` and not checked here: ``x`` is
    such a frame, contiguous, of ``model.n_features`` float64 entries.  The
    estimate, on the simplex, is returned and shifted into the history.
    """
    model = state.model
    order, w, anneal, identity = model.order, model.basis, state.anneal, state._identity
    pred = state._lag_stack.dot(state.history.ravel()) if order else np.ones(model.n_components)
    base = np.maximum(pred, EPS)
    h = np.maximum(pred, _INIT_FLOOR, out=pred)
    h /= _sum(h, 0)
    for r in range(1, state.inner_iters + 1):
        hs = np.maximum(h, EPS)
        # ndarray.dot is the same BLAS gemv as ``@``, with less dispatch; the
        # second product is ``w.T @ ratio``.  Under the identity basis both
        # products and the floor change nothing (``hs`` is floored), so go.
        c = x / hs if identity else w.dot(hs)
        if not identity:
            np.maximum(c, EPS, out=c)
            np.divide(x, c, out=c)
            c = c.dot(w)
        c *= hs
        solve_beta(c, base ** (anneal / r) if order else base, hs)
        h = hs
    if order >= 1:
        state.history[:-1] = state.history[1:]
        state.history[-1] = h
    return h


def filter_stream(state: FilterState, frames: Array) -> Array:
    """Filter every column of ``frames`` in order with :func:`filter_frame`.

    The stream continues ``state``'s history, so filtering a stream in two
    calls gives the same coefficients as filtering it in one.  Each call
    prepares its frames at once, in one ``(n_frames, n_features)`` copy.

    Parameters
    ----------
    state : FilterState
        Model plus rolling history; mutated frame by frame.
    frames : np.ndarray
        Nonnegative observations, shape (model.n_features, n_frames).

    Returns
    -------
    np.ndarray
        Coefficients of shape (model.n_components, n_frames); each column
        lies on the simplex.

    Raises
    ------
    ValueError
        For ``frames`` that are not 2-D with ``model.n_features`` rows or
        that hold a negative, NaN or infinite entry, before any frame is
        filtered: ``state`` is left unchanged.
    FloatingPointError
        At the first float64 overflow, invalid operation or division by
        zero: the frames run under ``np.errstate(over="raise",
        invalid="raise", divide="raise")``.  The frames before the failing
        one stay in ``state``'s history; the failing frame leaves none.
    """
    frames = _checked_matrix(frames, "frames", state.model.n_features)
    h = np.empty((state.model.n_components, frames.shape[1]))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        # A contiguous row per frame sums pairwise as a 1-D frame does; an exact
        # power of two brings each peak to [0.5, 1), so loudness cannot move EPS.
        rows = np.ldexp(frames.T, -np.frexp(frames.max(axis=0))[1][:, None], order="C")
        np.maximum(rows, EPS, out=rows)
        rows /= rows.sum(axis=1, keepdims=True)
        for t, x in enumerate(rows):
            h[:, t] = filter_frame(state, x)
    return h


def map_objective(x: Array, model: DnmfModel, h: Array) -> float:
    """Joint log-score of data and coefficient dynamics (constants dropped).

    Returns ``sum_t sum_k x[k,t] * log((W @ h_t)[k])`` plus, when the model
    has dynamics, ``-sum_t sum_i (log(eta[i,t]) + h[i,t]/eta[i,t])`` with
    ``eta_t`` the unannealed prediction built from earlier columns of ``h``
    (all-ones padding for missing lags).  Terms depending only on the data
    are omitted.  Without annealing, a training iteration was seen to lower
    it only where a prediction sits on the ``EPS`` floor (before or after).
    Raises ``ValueError`` where ``x`` or ``h`` has the wrong shape or a
    negative, NaN or infinite entry.
    """
    data = nonneg_matrix(x, name="data")
    h = _checked_matrix(h, "coefficients", model.n_components, data.shape[1])
    if data.shape[0] != model.n_features:
        raise ValueError("data row count does not match model features")
    xf = np.maximum(data, EPS)
    p = np.maximum(model.basis @ h, EPS)
    val = float((xf * np.log(p)).sum())
    if model.order >= 1:
        eta = _predict_all(model.lags, h)
        val -= float((np.log(eta) + h / eta).sum())
    return val


def lag_fit_divergence(model: DnmfModel, h: Array) -> float:
    """How well the lags predict ``h`` (I, T): the ``dnmf train`` lag-fit figure.

    Returns ``d_IS(max(h, EPS) || max(sum_j A_j h_{t-j}, EPS))``, all-ones
    padding for missing lags.  Raises ``ValueError`` for an order-0 model
    or for ``h`` of the wrong shape or with a negative, NaN or infinite entry.
    """
    if model.order < 1:
        raise ValueError("model has no lag matrices (order 0)")
    h = _checked_matrix(h, "coefficients", model.n_components)
    return is_divergence(np.maximum(h, EPS), _predict_all(model.lags, h))


def concat_models(first: DnmfModel, second: DnmfModel) -> DnmfModel:
    """Join two models over the same feature space into one block model.

    Bases are concatenated column-wise; lag matrices combine block-diagonally
    so the two coefficient groups evolve independently.  Both models must
    share ``n_features`` and ``order``.
    """
    if first.n_features != second.n_features:
        raise ValueError(
            f"feature mismatch: {first.n_features} vs {second.n_features}"
        )
    if first.order != second.order:
        raise ValueError(f"order mismatch: {first.order} vs {second.order}")
    basis = np.hstack([first.basis, second.basis])
    na, nb = first.n_components, second.n_components
    lags = []
    for la, lb in zip(first.lags, second.lags):
        block = np.zeros((na + nb, na + nb))
        block[:na, :na] = la
        block[na:, na:] = lb
        lags.append(block)
    return DnmfModel(basis=basis, lags=lags)
