import functools
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnmf import statespace
from dnmf.core import EPS, is_divergence, normalize_columns
from dnmf.dsp import _check_hop, istft, mix_at_snr, output_snr, stft, wiener_reconstruct
from dnmf.experiments import TrackingScenario, run_tracking, tracking_mse
from dnmf.statespace import (
    _INIT_FLOOR,
    _predict_all,
    _stack_lags,
    DnmfModel,
    FilterState,
    TrainConfig,
    build_lag_matrix,
    concat_models,
    estimate_nvar,
    filter_stream,
    lag_fit_divergence,
    map_objective,
    solve_beta,
    train,
)
from test_frozen_reference import (_UNIFORM_ULPS, _extreme_normalizer_inputs, _ulps,
                                   _uniform_as_counts, _update_at_root)


def _solve(c, eta):
    """``solve_beta``'s root and the simplex update it writes, through the
    module attribute, so that a test patching the normalizer patches this."""
    out = np.empty_like(c)
    return statespace.solve_beta(c, eta, out), out


def _bisect_beta(c, eta, steps=200):
    """Plain bisection reference for the simplex normalizer."""
    support = c > 0.0
    cs = c[support]
    inv = 1.0 / eta[support]
    pole = float(-inv.min())

    def g(b):
        return float((cs / (b + inv)).sum())

    lo = pole + 1e-9 * max(1.0, abs(pole))
    while g(lo) <= 1.0:
        lo = pole + (lo - pole) * 0.125
    hi = max(1.0, float(c.sum()))
    while g(hi) >= 1.0:
        hi = 2.0 * hi + 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if g(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _past(h, t, order):
    """Frame ``t``'s past ``[h_{t-J}; ...; h_{t-1}]``, all-ones before frame 0."""
    return build_lag_matrix(h[:, : t + 1], order)[:, t].copy()


def _per_lag_prediction(lags, h):
    """``sum_j A_j h_{t-j}`` for every column, one matvec per lag and frame."""
    ones = np.ones(h.shape[0])
    pred = np.empty_like(h)
    for t in range(h.shape[1]):
        pred[:, t] = sum(
            a @ (h[:, t - j] if t >= j else ones) for j, a in enumerate(lags, start=1)
        )
    return pred


def _random_model(rng, k=6, i=3, order=1):
    basis = normalize_columns(rng.uniform(0.05, 1.0, size=(k, i)))
    lags = [rng.uniform(0.1, 0.9, size=(i, i)) for _ in range(order)]
    return DnmfModel(basis=basis, lags=lags)


# ---------------------------------------------------------------------------
# solve_beta


def test_solve_beta_closed_form_quadratic():
    # c = [1/2, 1/2], eta = [1, 2]:
    #   1/(2(b+1)) + 1/(2(b+1/2)) = 1  =>  b^2 + b/2 - 1/4 = 0
    # whose positive root is (sqrt(5) - 1) / 4.
    beta, _ = _solve(np.array([0.5, 0.5]), np.array([1.0, 2.0]))
    assert beta == pytest.approx((np.sqrt(5.0) - 1.0) / 4.0, abs=1e-12)


def test_solve_beta_uniform_eta_is_total_minus_one():
    c = np.array([1.0, 2.0, 3.0])
    beta, _ = _solve(c, np.ones(3))
    assert beta == pytest.approx(5.0, abs=1e-10)


def test_solve_beta_matches_bisection():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = rng.integers(1, 64, endpoint=True)
        c = rng.uniform(0.0, 1.0, size=n)
        c[rng.uniform(size=n) < 0.3] = 0.0
        if c.sum() <= 0.0:
            c[rng.integers(n)] = 0.5
        c *= rng.uniform(0.05, 20.0)
        eta = rng.uniform(1e-3, 1e3, size=n)
        beta, _ = _solve(c, eta)
        assert beta == pytest.approx(_bisect_beta(c, eta), abs=1e-8)
        h = c / (beta + 1.0 / eta)
        assert abs(h.sum() - 1.0) < 1e-8
        assert np.all(h >= 0.0)


@st.composite
def _normalizer_inputs(draw):
    """Counts and prior means with ties, single-entry support, uniform eta."""
    n = draw(st.integers(1, 12))
    c = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=n, max_size=n
    )))
    if c.sum() <= 0.0:
        c[draw(st.integers(0, n - 1))] = draw(st.floats(1e-3, 1e3))
    kind = draw(st.sampled_from(["free", "tie", "single", "uniform"]))
    if kind == "uniform":
        eta = np.full(n, draw(st.floats(1e-6, 1e6)))
    else:
        eta = np.array(draw(st.lists(st.floats(1e-6, 1e6), min_size=n, max_size=n)))
    support = np.flatnonzero(c > 0.0)
    if kind == "tie":
        # The first two supported entries share the smallest 1/eta.
        eta[support[:2]] = eta[support].max()
    elif kind == "single":
        keep = draw(st.sampled_from(list(support)))
        c[np.arange(n) != keep] = 0.0
    return c, eta


@settings(max_examples=300, deadline=None)
@given(_normalizer_inputs())
def test_solve_beta_bracket_and_oracle_property(inputs):
    c, eta = inputs
    beta, h = _solve(c, eta)
    support = c > 0.0
    inv = 1.0 / eta[support]
    pole = float(-inv.min())
    total = float(c.sum())
    c_m = float(c[support][np.argmin(inv)])
    # Tolerances are relative to the problem's scale: |pole| and sum(c).
    scale = max(1.0, abs(pole), total)
    slack = 1e-12 * scale
    assert pole + c_m - slack <= beta <= pole + total + slack
    assert abs(beta - _bisect_beta(c, eta)) <= 1e-8 * max(abs(beta), scale)
    if np.all(eta == eta[0]):
        assert beta == total - 1.0 / eta[0]
    assert np.all(h >= 0.0)
    assert abs(h.sum() - 1.0) <= 1e-12
    # h[i] = c[i] / (1/eta[i] + beta): entries with equal prior means get
    # equal h / c.
    for value in np.unique(eta[support]):
        tied = support & (eta == value)
        ratio = h[tied] / c[tied]
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)


def _newton_root(c, eta):
    """Reference normalizer: Newton on ``g(beta) = 1``, no closed-form uniform path."""
    c = np.asarray(c, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    total = float(c.sum())
    support = c > 0.0
    cs = c[support]
    inv = 1.0 / eta[support]
    pole = float(-inv.min())

    def g(b):
        return float((cs / (b + inv)).sum())

    lo = pole + float(cs[np.argmin(inv)])
    hi = pole + total
    resolution = 8.0 * np.finfo(np.float64).eps
    beta = min(max(total - 1.0, lo), hi)
    for _ in range(200):
        val = g(beta)
        if abs(val - 1.0) <= 1e-12:
            return float(beta)
        if val > 1.0:
            lo = max(lo, beta)
        else:
            hi = min(hi, beta)
        if hi - lo <= resolution * max(1.0, abs(lo), abs(hi)):
            return float(0.5 * (lo + hi))
        deriv = float(-(cs / (beta + inv) ** 2).sum())
        cand = beta - (val - 1.0) / deriv
        if not lo < cand < hi:
            cand = 0.5 * (lo + hi)
        beta = cand
    raise AssertionError("reference normalizer did not converge")


def _solve_beta_newton(c, eta, out, update=_uniform_as_counts(_update_at_root)):
    """``solve_beta`` rebuilt from references: the Newton root, then the frozen
    second pass (``1/eta + beta`` recomputed, near-pole rule) into ``out``, or
    under a uniform prior the normalized counts (``update=_update_at_root``
    keeps the frozen pass there too)."""
    beta = _newton_root(c, eta)
    update(c, eta, beta, out=out)
    return beta


def _assert_matches_newton_reference(c, eta):
    # Newton on 1/g takes other steps than the reference's Newton on g, so
    # the roots agree to the tolerance, and each carries the solver's own
    # certificate: a residual within _BETA_TOL, or a bracket of a few ulps.
    beta, want = _solve(c, eta)[0], _newton_root(c, eta)
    assert abs(beta - want) <= 1e-11 * abs(want)
    cs, inv = c[c > 0.0], 1.0 / eta[c > 0.0]

    def g(b):
        return float((cs / (b + inv)).sum())

    half = 0.5 * 8.0 * np.finfo(np.float64).eps * max(1.0, abs(beta))
    assert abs(g(beta) - 1.0) <= 1e-12 or g(beta - half) >= 1.0 >= g(beta + half)


def test_solve_beta_matches_newton_reference():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        c = rng.uniform(0.0, 2.0, size=n)
        c[rng.uniform(size=n) < 0.3] = 0.0
        c[rng.integers(n)] = 0.7
        eta = rng.uniform(1e-2, 1e2, size=n)
        _assert_matches_newton_reference(c, eta)


def _reciprocal_twins(rng, count):
    """Distinct floats ``x < y`` with ``1.0 / x == 1.0 / y``."""
    twins = []
    while len(twins) < count:
        # Just below a power of two, float64 is twice as fine as just above
        # the reciprocal's power of two, so neighbours share a reciprocal.
        y = np.nextafter(2.0 ** int(rng.integers(-6, 7)), 0.0)
        for _ in range(int(rng.integers(0, 64))):
            y = np.nextafter(y, 0.0)
        x = np.nextafter(y, 0.0)
        if 1.0 / x == 1.0 / y:
            twins.append((float(x), float(y)))
    return twins


def test_solve_beta_pole_ties_match_newton_reference():
    # The pole index comes from eta.argmax() on full support.  Exact ties in
    # eta, and distinct eta values whose reciprocals round equal, give the
    # same pole from another index, so another but equally valid bracket.
    rng = np.random.default_rng(23)
    for x, y in _reciprocal_twins(rng, 100):
        n = int(rng.integers(2, 30))
        eta = rng.uniform(1e-3, 0.9, size=n) * x
        slots = rng.choice(n, size=2, replace=False)
        kind = rng.choice(["tie", "twin", "twin-masked"])
        eta[slots] = (y, y) if kind == "tie" else (x, y)
        c = rng.uniform(0.01, 2.0, size=n)
        if kind == "twin-masked":
            c[slots[1]] = 0.0
        c *= rng.choice([1e-3, 1.0, 1e3])
        assert 1.0 / eta[slots[0]] == 1.0 / eta[slots[1]] == (1.0 / eta).min()
        _assert_matches_newton_reference(c, eta)


def test_solve_beta_count_below_an_ulp_of_the_pole_stays_off_the_pole():
    # pole + c_m rounds to the pole itself, where a denominator is zero.
    c, eta = np.array([1e-30, 0.5]), np.array([1e10, 1.0])
    with np.errstate(all="raise"):
        beta, h = _solve(c, eta)
    pole = -(1.0 / 1e10)
    # The root lies within one ulp of the pole: the first float right of it.
    assert beta == np.nextafter(pole, np.inf)
    assert np.all(1.0 / eta + beta > 0.0)
    assert np.all(h >= 0.0) and abs(h.sum() - 1.0) <= 1e-12


def test_solve_beta_converged_exit_next_to_the_pole_shares_the_deficit():
    # Newton meets |g(beta) - 1| <= 1e-12 one ulp right of the pole -0.5,
    # where the pole term's denominator is rounding error: the near-pole rule
    # gives it the deficit (0) instead of 1e-40 / 5.6e-17 = 1.8e-24.
    beta, h = _solve(np.array([1e-40, 0.5]), np.array([2.0, 1.0]))
    assert beta == -0.49999999999999994
    assert np.array_equal(h, [0.0, 1.0])


# ---------------------------------------------------------------------------
# single-frame EM update: the E-step's counts, then solve_beta's update


def _counts(xf, w, h):
    """The E-step of one refinement: coefficient ``h``'s weighted counts."""
    hs = np.maximum(h, EPS)
    return hs * (w.T @ (xf / np.maximum(w @ hs, EPS)))


def test_simplex_update_zero_count_on_the_root_is_zero():
    # Only the last entry has a count, so beta = 1/3 - 1/0.3 = -3 exactly,
    # and the zero-count entry with 1/eta = 3 sits on it: its denominator
    # 1/eta + beta is 0, and 0/0 must not make the whole update NaN.
    c = np.array([0.0, 0.0, 0.0, 1.0 / 3.0])
    eta = np.array([1.0, 0.5, 1.0 / 3.0, 0.3])
    beta, h = _solve(c, eta)
    assert beta == -3.0
    assert np.array_equal(h, [0.0, 0.0, 0.0, 1.0])
    assert not np.any(np.signbit(h))


def test_update_state_uniform_prior_is_normalized_counts():
    rng = np.random.default_rng(31)
    model = _random_model(rng, k=8, i=4, order=0)
    for _ in range(25):
        x = rng.uniform(0.0, 2.0, size=8)
        coeffs = rng.uniform(0.1, 1.0, size=4)
        xf = np.maximum(x, EPS)
        wh = np.maximum(model.basis @ coeffs, EPS)
        c = coeffs * (model.basis.T @ (xf / wh))
        got = _solve(c, np.ones(4))[1]
        assert np.array_equal(got, c / c.sum())


def test_update_state_maximizes_frame_objective():
    # Dense scan over the 2-simplex: the update must beat every grid point.
    rng = np.random.default_rng(32)
    model = _random_model(rng, k=7, i=2, order=0)
    x = rng.uniform(0.1, 1.5, size=7)
    eta = rng.uniform(0.3, 2.0, size=2)
    coeffs = rng.uniform(0.2, 1.0, size=2)
    xf = np.maximum(x, EPS)
    wh = np.maximum(model.basis @ coeffs, EPS)
    c = coeffs * (model.basis.T @ (xf / wh))
    got = _solve(c, eta)[1]

    def objective(h):
        return float(np.sum(c * np.log(h) - h / eta))

    p = np.linspace(1e-4, 1.0 - 1e-4, 9999)
    grid_best = max(objective(np.array([v, 1.0 - v])) for v in p)
    assert objective(got) >= grid_best - 1e-10
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


def _exact_simplex_update(c, eta, steps=400):
    """The simplex update in exact rational arithmetic: the root of
    ``sum_i c[i] / (beta + 1/eta[i]) = 1`` by bisection, then the terms."""
    cs = [Fraction(float(v)) for v in c]
    inv = [1 / Fraction(float(v)) for v in eta]
    support = [i for i, v in enumerate(cs) if v > 0]
    lo = -min(inv[i] for i in support)
    hi = lo + sum(cs)
    for _ in range(steps):
        mid = (lo + hi) / 2
        if sum(cs[i] / (mid + inv[i]) for i in support) > 1:
            lo = mid
        else:
            hi = mid
    beta = (lo + hi) / 2
    terms = [cs[i] / (beta + inv[i]) if i in support else Fraction(0) for i in range(len(cs))]
    return np.array([float(t / sum(terms)) for t in terms])


def test_simplex_update_root_on_the_pole_keeps_the_pole_term():
    # The pole is -3.9 and its count 1e-22; the other terms sum to 1 - 1e-4
    # there, so the root lies 1e-18 right of the pole, far inside one ulp,
    # and the pole term is 1e-4.  From the float denominator at beta that
    # term would read ~6e-8.
    inv = np.array([3.9, 4.5, 6.0, 9.0])
    c = np.concatenate([[1e-22], (1.0 - 1e-4) * np.array([0.5, 0.3, 0.2]) * (inv[1:] - 3.9)])
    h = _solve(c, 1.0 / inv)[1]
    want = _exact_simplex_update(c, 1.0 / inv)
    assert want[0] == pytest.approx(1e-4, rel=1e-9)
    assert np.max(np.abs(h - want)) <= 1e-12


def test_simplex_update_uniform_prior_on_the_pole_is_normalized_counts():
    # beta = 3e-10 - 1e6 rounds to within an ulp of the pole -1e6, so both
    # denominators are rounding error; the counts alone set the shares.
    h = _solve(np.array([1e-10, 2e-10]), np.full(2, 1e-6))[1]
    np.testing.assert_allclose(h, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-15)


def test_simplex_update_twin_poles_share_the_pole_mass():
    # Two entries share the pole -3.9, each with count 1e-22; the other terms
    # sum to 1 - 1e-4 there, so the twins split 1e-4 evenly.
    inv = np.array([3.9, 3.9, 4.5, 6.0, 9.0])
    c = np.concatenate([[1e-22, 1e-22], (1.0 - 1e-4) * np.array([0.5, 0.3, 0.2]) * (inv[2:] - 3.9)])
    h = _solve(c, 1.0 / inv)[1]
    want = _exact_simplex_update(c, 1.0 / inv)
    np.testing.assert_allclose(want[:2], [5e-5, 5e-5], rtol=1e-9)
    assert np.max(np.abs(h - want)) <= 1e-12


def test_simplex_update_denominator_rounding_to_zero_does_not_overflow():
    # beta = 1e-14 - 1e5 rounds to -1e5, so the only denominator is 0.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        h = _solve(np.array([1e-14]), np.array([1e-5]))[1]
    assert np.array_equal(h, [1.0])


@settings(max_examples=500, deadline=None)
@given(_extreme_normalizer_inputs())
def test_simplex_update_is_a_finite_simplex_point_without_float_errors(inputs):
    c, eta = inputs
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        h = _solve(c, eta)[1]
    assert np.all(np.isfinite(h)) and np.all(h >= 0.0)
    assert abs(h.sum() - 1.0) <= 1e-12


def test_zero_count_entries_leave_the_root_and_the_update_unchanged():
    rng = np.random.default_rng(24)
    for _ in range(300):
        n = int(rng.integers(1, 20))
        c = rng.uniform(0.01, 2.0, size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        eta = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
        if rng.uniform() < 0.2:
            eta[:] = eta[0]
        beta, h = _solve(c, eta)
        m = int(rng.integers(1, 6))
        eta_zero = 10.0 ** rng.uniform(-2.0, 2.0, size=m)
        if beta < 0.0:
            # Some inserted entries get 1/eta + beta <= 0: on the root or
            # left of it, past the pole.
            left = rng.uniform(size=m) < 0.5
            eta_zero[left] = 1.0 / (-beta * rng.uniform(0.1, 1.0, size=left.sum()))
            eta_zero[left & (rng.uniform(size=m) < 0.3)] = -1.0 / beta
        slots = np.sort(rng.integers(0, n + 1, size=m))
        c_pad, eta_pad = np.insert(c, slots, 0.0), np.insert(eta, slots, eta_zero)
        zero = np.insert(np.zeros(n, bool), slots, True)
        beta_pad, h_pad = _solve(c_pad, eta_pad)
        assert abs(beta_pad - beta) <= 1e-11 * max(1.0, abs(beta))
        assert np.all(h_pad[zero] == 0.0) and not np.any(np.signbit(h_pad[zero]))
        assert np.max(np.abs(h_pad[~zero] - h)) <= 1e-9


def test_train_near_pole_updates_match_exact_arithmetic(monkeypatch):
    # Two unannealed iterations on a sparse problem reach three solves whose
    # count at the pole is ~1e-22, at poles -3.9 to -4.3.
    calls = []

    def recorded(c, eta, out):
        args = (c.copy(), eta.copy())
        beta = solve_beta(c, eta, out)
        calls.append((*args, out.copy()))
        return beta

    monkeypatch.setattr(statespace, "solve_beta", recorded)
    x, rank, order = _sparse_problem(14)
    train(x, rank, order, TrainConfig(iters=2, prior_start=0, anneal=1.0, seed=14))
    near = [(c, eta, h) for c, eta, h in calls if c[eta.argmax()] < 1e-20]
    assert len(near) == 3
    for c, eta, h in near:
        assert np.max(np.abs(h - _exact_simplex_update(c, eta))) <= 1e-12


# ---------------------------------------------------------------------------
# prediction and lag handling


def test_predict_state_hand_values():
    lag = np.array([[0.5, 0.1], [0.2, 0.3]])
    h = np.array([[1.0, 0.3], [0.0, 0.7]])
    got = _stack_lags([lag]) @ build_lag_matrix(h, 1)
    # Frame 0 has no history yet: the missing lag is an all-ones vector.
    np.testing.assert_allclose(got[:, 0], [0.6, 0.5])
    np.testing.assert_allclose(got[:, 1], [0.5, 0.2])


def test_predict_state_two_lags_partial_history():
    a1 = np.array([[0.5, 0.0], [0.0, 0.5]])
    a2 = np.array([[0.0, 0.25], [0.25, 0.0]])
    h = np.array([[0.4, 0.1, 0.0], [0.6, 0.9, 0.0]])
    got = _stack_lags([a1, a2]) @ build_lag_matrix(h, 2)
    # Frame 0: both lags fall back to ones.
    np.testing.assert_allclose(got[:, 0], [0.75, 0.75])
    # Frame 1: lag 1 sees frame 0, lag 2 falls back to ones.
    np.testing.assert_allclose(got[:, 1], [0.5 * 0.4 + 0.25, 0.5 * 0.6 + 0.25])
    # Frame 2: lag 1 sees frame 1, lag 2 frame 0.
    np.testing.assert_allclose(got[:, 2], [0.05 + 0.25 * 0.6, 0.45 + 0.25 * 0.4])


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_predict_stacked_matches_per_lag_sum(order):
    # One matvec of the stacked lags with each column of the lag matrix, as
    # train and filter_frame predict, against one matvec per lag, summed;
    # frames before the order pad with ones.
    rng = np.random.default_rng(90 + order)
    for _ in range(20):
        i = int(rng.integers(1, 50))
        lags = [rng.uniform(0.0, 2.0, size=(i, i)) for _ in range(order)]
        h = rng.uniform(0.0, 1.0, size=(i, order + 3))
        v = build_lag_matrix(h, order)
        got = np.stack([_stack_lags(lags) @ v[:, t].copy() for t in range(v.shape[1])], axis=1)
        np.testing.assert_allclose(got, _per_lag_prediction(lags, h), rtol=1e-15, atol=0)


def test_build_lag_matrix_hand_case():
    h = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    v = build_lag_matrix(h, 1)
    np.testing.assert_array_equal(v, [[1.0, 1.0, 2.0], [1.0, 4.0, 5.0]])
    # Oldest lag first: rows 0-1 hold h_{t-2}, rows 2-3 hold h_{t-1}.
    v2 = build_lag_matrix(h, 2)
    assert v2.shape == (4, 3)
    np.testing.assert_array_equal(v2[2:], v)
    np.testing.assert_array_equal(v2[:2], [[1.0, 1.0, 1.0], [1.0, 1.0, 4.0]])


def test_estimate_nvar_decreases_divergence():
    rng = np.random.default_rng(41)
    h = rng.uniform(0.1, 1.0, size=(3, 30))
    v = build_lag_matrix(h, 1)
    a = rng.uniform(0.2, 1.0, size=(3, 3))
    d0 = is_divergence(h, np.maximum(a @ v, EPS))
    a1 = estimate_nvar(h, a, v)
    d1 = is_divergence(h, np.maximum(a1 @ v, EPS))
    a50 = a1
    for _ in range(49):
        a50 = estimate_nvar(h, a50, v)
    d50 = is_divergence(h, np.maximum(a50 @ v, EPS))
    assert d1 <= d0 + 1e-9
    assert d50 <= d1 + 1e-9


# ---------------------------------------------------------------------------
# model containers


def test_model_validates_lag_shapes():
    with pytest.raises(ValueError):
        DnmfModel(basis=np.eye(3), lags=[np.ones((2, 2))])
    with pytest.raises(ValueError):
        DnmfModel(basis=np.eye(2), lags=[-np.ones((2, 2))])
    with pytest.raises(ValueError):
        DnmfModel(basis=np.array([[0.5, 0.9], [0.4, 0.1]]), lags=[])


def test_model_properties():
    model = DnmfModel(basis=np.eye(4), lags=[np.ones((4, 4)), np.eye(4)])
    assert model.n_features == 4
    assert model.n_components == 4
    assert model.order == 2


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(iters=0)
    with pytest.raises(ValueError):
        TrainConfig(prior_start=200, iters=100)
    with pytest.raises(ValueError):
        TrainConfig(anneal=0.0)
    with pytest.raises(ValueError):
        TrainConfig(anneal=1.5)


def test_concat_models_block_structure():
    rng = np.random.default_rng(51)
    m1 = _random_model(rng, k=5, i=2, order=1)
    m2 = _random_model(rng, k=5, i=3, order=1)
    joint = concat_models(m1, m2)
    assert joint.n_components == 5
    np.testing.assert_array_equal(joint.basis[:, :2], m1.basis)
    np.testing.assert_array_equal(joint.basis[:, 2:], m2.basis)
    np.testing.assert_array_equal(joint.lags[0][:2, :2], m1.lags[0])
    np.testing.assert_array_equal(joint.lags[0][2:, 2:], m2.lags[0])
    assert np.all(joint.lags[0][:2, 2:] == 0.0)
    assert np.all(joint.lags[0][2:, :2] == 0.0)


def test_concat_models_mismatch_errors():
    rng = np.random.default_rng(52)
    with pytest.raises(ValueError):
        concat_models(_random_model(rng, k=4), _random_model(rng, k=5))
    with pytest.raises(ValueError):
        concat_models(
            _random_model(rng, k=4, order=1), _random_model(rng, k=4, order=2)
        )


# ---------------------------------------------------------------------------
# training


def test_train_output_shapes_and_normalization():
    rng = np.random.default_rng(61)
    x = rng.uniform(0.0, 1.0, size=(10, 24))
    model, h = train(x, 3, 1, TrainConfig(iters=20, prior_start=10, seed=2))
    assert model.basis.shape == (10, 3)
    assert h.shape == (3, 24)
    assert model.order == 1
    np.testing.assert_allclose(model.basis.sum(axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(h.sum(axis=0), 1.0, atol=1e-10)
    assert np.all(model.lags[0] >= 0.0)


def test_train_deterministic_per_seed():
    rng = np.random.default_rng(62)
    x = rng.uniform(0.0, 1.0, size=(8, 15))
    cfg = TrainConfig(iters=12, prior_start=6, seed=7)
    m1, h1 = train(x, 2, 1, cfg)
    m2, h2 = train(x, 2, 1, cfg)
    np.testing.assert_array_equal(m1.basis, m2.basis)
    np.testing.assert_array_equal(h1, h2)
    np.testing.assert_array_equal(m1.lags[0], m2.lags[0])
    m3, _ = train(x, 2, 1, TrainConfig(iters=12, prior_start=6, seed=8))
    assert not np.array_equal(m1.basis, m3.basis)


def test_train_is_scale_free_at_order_0_only():
    x = np.random.default_rng(64).uniform(0.5, 2.0, size=(20, 30))
    static = TrainConfig(iters=15, prior_start=0)
    model, h = train(x, 3, 0, static)
    for k in (-30, -1, 2, 900):
        scaled_model, scaled_h = train(np.ldexp(x, k), 3, 0, static)
        np.testing.assert_array_equal(scaled_model.basis, model.basis)
        np.testing.assert_array_equal(scaled_h, h)
    # Entries below EPS are floored; entries near 2 ** 1021 overflow.
    assert not np.array_equal(train(np.ldexp(x, -40), 3, 0, static)[1], h)
    with pytest.raises(FloatingPointError):
        train(np.ldexp(x, 1020), 3, 0, static)
    # With a temporal prior of fixed weight, louder data moves the fit.
    dynamic = TrainConfig(iters=15, prior_start=5)
    assert not np.array_equal(train(4.0 * x, 3, 1, dynamic)[1], train(x, 3, 1, dynamic)[1])


def test_train_improves_map_objective():
    rng = np.random.default_rng(63)
    x = rng.uniform(0.1, 1.0, size=(12, 30))
    short, h_short = train(x, 3, 1, TrainConfig(iters=2, prior_start=0, anneal=1.0, seed=3))
    full, h_full = train(x, 3, 1, TrainConfig(iters=40, prior_start=0, anneal=1.0, seed=3))
    assert map_objective(x, full, h_full) >= map_objective(x, short, h_short)


def _sparse_problem(seed):
    """A small sparse training problem: (data, rank, order)."""
    rng = np.random.default_rng(seed)
    k, rank, t, order = (int(rng.integers(*b)) for b in ((3, 25), (2, 8), (5, 60), (1, 4)))
    scale = 10 ** rng.uniform(-2, 3)
    x = scale * rng.gamma(1, 1, (k, t)) * (rng.uniform(size=(k, t)) < 0.3)
    return x, rank, order


def _objective_and_floor(x, rank, order, iters, seed):
    """``map_objective`` after ``iters`` unannealed iterations, and how many
    unannealed predictions sit on the ``EPS`` floor."""
    cfg = TrainConfig(iters=iters, prior_start=0, anneal=1.0, seed=seed)
    model, h = train(x, rank, order, cfg)
    return map_objective(x, model, h), int((_predict_all(model.lags, h) <= EPS).sum())


def test_train_is_monotone_off_the_prediction_floor():
    # Without annealing each iteration does not lower the MAP objective, as
    # long as no prediction sits on the EPS floor before or after it.
    checked = skipped = 0
    for seed in range(18):
        x, rank, order = _sparse_problem(seed)
        runs = [_objective_and_floor(x, rank, order, n, seed) for n in range(1, 9)]
        for (before, floor0), (after, floor1) in zip(runs, runs[1:]):
            if floor0 or floor1:
                skipped += 1
                continue
            checked += 1
            assert after >= before - 1e-7 * max(1.0, abs(before)), (seed, before, after)
    assert checked > 0 and skipped > 0


@pytest.mark.parametrize("seed, config", [
    (117, TrainConfig()),
    (108, TrainConfig(iters=2, prior_start=0, anneal=1.0)),
])
def test_train_survives_a_count_below_an_ulp_of_the_pole(seed, config):
    # Both reach a solve_beta whose count at the pole rounds away next to it.
    x, rank, order = _sparse_problem(seed)
    model, h = train(x, rank, order, config)
    assert np.all(np.isfinite(h)) and np.all(h >= 0.0)
    np.testing.assert_allclose(h.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)


def test_train_can_lower_the_objective_once_a_prediction_hits_the_floor():
    # A documented counterexample to monotonicity without that precondition:
    # from 8 to 9 iterations the predictions on the floor go from 6 to 14,
    # and the objective falls by more than half.
    x, rank, order = _sparse_problem(14)
    assert (x.shape, rank, order) == ((6, 40), 6, 2)
    before, floor0 = _objective_and_floor(x, rank, order, 8, 14)
    after, floor1 = _objective_and_floor(x, rank, order, 9, 14)
    assert (floor0, floor1) == (6, 14)
    assert before == pytest.approx(-960.32, abs=0.01)
    assert after == pytest.approx(-1553.39, abs=0.01)


def _train_per_frame(x, rank, order, cfg):
    """Reference ``train`` whose dynamic phase redoes the E/M step per frame."""
    rng = np.random.default_rng(cfg.seed)
    xf = np.maximum(np.asarray(x, dtype=np.float64), EPS)
    nfeat, nframes = xf.shape
    picks = rng.choice(nframes, size=rank, replace=nframes < rank)
    jitter = rng.uniform(0.05, 0.15, size=(nfeat, rank))
    w = normalize_columns(xf[:, picks] / xf[:, picks].mean(axis=0) + jitter)
    h = normalize_columns(rng.uniform(0.1, 1.1, size=(rank, nframes)))
    lags = [rng.uniform(0.1, 1.1, size=(rank, rank)) for _ in range(order)]
    for it in range(1, cfg.iters + 1):
        if order == 0 or it <= cfg.prior_start:
            ratio = xf / np.maximum(w @ h, EPS)
            w_new = normalize_columns(w * (ratio @ h.T))
            counts = h * (w.T @ ratio)
            h = counts / counts.sum(axis=0)
            w = w_new
        else:
            w_acc = np.zeros_like(w)
            h_new = np.empty_like(h)
            for t in range(nframes):
                h_old = np.maximum(h[:, t], EPS)
                ratio = xf[:, t] / np.maximum(w @ h_old, EPS)
                w_acc += np.outer(ratio, h_old)
                pred = np.maximum(_stack_lags(lags) @ _past(h_new, t, order), EPS)
                h_new[:, t] = _solve(h_old * (w.T @ ratio), pred ** cfg.anneal)[1]
            w = normalize_columns(w * w_acc)
            h = h_new
        if order > 0 and it >= cfg.prior_start:
            stacked = estimate_nvar(h, _stack_lags(lags), build_lag_matrix(h, order))
            lags = np.hsplit(stacked, order)[::-1]
    return w, h, lags


def test_train_matches_per_frame_reference():
    rng = np.random.default_rng(64)
    for _ in range(40):
        order = int(rng.integers(0, 4))
        iters = int(rng.integers(1, 9))
        cfg = TrainConfig(
            iters=iters,
            prior_start=int(rng.integers(0, iters + 1)),
            anneal=float(rng.choice([0.15, 1.0])),
            seed=int(rng.integers(1000)),
        )
        shape = (int(rng.integers(3, 9)), int(rng.integers(2, 13)))
        x = rng.uniform(0.0, 2.0, size=shape)
        x[rng.uniform(size=x.shape) < 0.2] = 0.0
        rank = int(rng.integers(1, 5))
        model, h = train(x, rank, order, cfg)
        w_ref, h_ref, lags_ref = _train_per_frame(x, rank, order, cfg)
        np.testing.assert_allclose(model.basis, w_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(h, h_ref, rtol=0, atol=1e-10)
        assert model.order == len(lags_ref)
        for a, a_ref in zip(model.lags, lags_ref):
            np.testing.assert_allclose(a, a_ref, rtol=0, atol=1e-10)


def _train_columnwise(x, rank, order, cfg):
    """Reference ``train`` whose dynamic phase updates h column by column."""
    rng = np.random.default_rng(cfg.seed)
    xf = np.maximum(np.asarray(x, dtype=np.float64), EPS)
    nfeat, nframes = xf.shape
    picks = rng.choice(nframes, size=rank, replace=nframes < rank)
    jitter = rng.uniform(0.05, 0.15, size=(nfeat, rank))
    w = normalize_columns(xf[:, picks] / xf[:, picks].mean(axis=0) + jitter)
    h = normalize_columns(rng.uniform(0.1, 1.1, size=(rank, nframes)))
    lags = [rng.uniform(0.1, 1.1, size=(rank, rank)) for _ in range(order)]
    for it in range(1, cfg.iters + 1):
        hs = np.maximum(h, EPS)
        ratio = xf / np.maximum(w @ hs, EPS)
        counts = hs * (w.T @ ratio)
        w = normalize_columns(w * (ratio @ hs.T))
        if order == 0 or it <= cfg.prior_start:
            h = counts / counts.sum(axis=0)
        else:
            for t in range(nframes):
                pred = np.maximum(_stack_lags(lags) @ _past(h, t, order), EPS)
                h[:, t] = _solve(counts[:, t], pred ** cfg.anneal)[1]
        if order > 0 and it >= cfg.prior_start:
            stacked = estimate_nvar(h, _stack_lags(lags), build_lag_matrix(h, order))
            lags = np.hsplit(stacked, order)[::-1]
    return w, h, lags


def test_train_time_major_history_matches_columnwise_reference(monkeypatch):
    # With one normalizer on both sides, the time-major history moves no bit.
    monkeypatch.setattr(statespace, "solve_beta", _solve_beta_newton)
    rng = np.random.default_rng(65)
    for _ in range(30):
        order = int(rng.integers(0, 4))
        iters = int(rng.integers(1, 9))
        cfg = TrainConfig(
            iters=iters,
            prior_start=int(rng.integers(0, iters + 1)),
            anneal=float(rng.choice([0.15, 1.0])),
            seed=int(rng.integers(1000)),
        )
        x = rng.uniform(0.0, 2.0, size=(int(rng.integers(3, 12)), int(rng.integers(2, 20))))
        x[rng.uniform(size=x.shape) < 0.2] = 0.0
        rank = int(rng.integers(1, 6))
        model, h = train(x, rank, order, cfg)
        w_ref, h_ref, lags_ref = _train_columnwise(x, rank, order, cfg)
        assert np.array_equal(model.basis, w_ref)
        assert np.array_equal(h, h_ref)
        assert len(model.lags) == len(lags_ref)
        assert all(np.array_equal(a, b) for a, b in zip(model.lags, lags_ref))


def test_train_validation():
    with pytest.raises(ValueError):
        train(np.ones((4, 6)), 0, 1)
    with pytest.raises(ValueError):
        train(np.ones((4, 6)), 2, -1)
    with pytest.raises(ValueError):
        train(-np.ones((4, 6)), 2, 1)


def test_train_overflow_raises_floating_point_error():
    # Finite data near 1e308 overflows float64 in the first E-step: the
    # error is raised there, with no RuntimeWarning first.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FloatingPointError):
            train(np.full((4, 6), 1e308), 2, 1, TrainConfig(iters=4, prior_start=2))
    assert caught == []


# ---------------------------------------------------------------------------
# filtering


def _filter_one(state, x):
    """Filter the single frame ``x`` as a one-column stream."""
    return filter_stream(state, x[:, None])[:, 0]


def test_filter_frame_returns_simplex_vector():
    rng = np.random.default_rng(71)
    model = _random_model(rng, k=6, i=3, order=1)
    state = FilterState(model, anneal=0.2, inner_iters=2)
    h = _filter_one(state, rng.uniform(0.0, 1.0, size=6))
    assert h.shape == (3,)
    assert h.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(h >= 0.0)


def test_filter_frame_deterministic_stream():
    rng = np.random.default_rng(72)
    model = _random_model(rng, k=6, i=3, order=2)
    frames = rng.uniform(0.0, 1.0, size=(6, 9))
    s1 = FilterState(model, anneal=0.1)
    s2 = FilterState(model, anneal=0.1)
    for t in range(9):
        np.testing.assert_array_equal(
            _filter_one(s1, frames[:, t]), _filter_one(s2, frames[:, t])
        )


def test_filter_frame_is_causal():
    # Estimates for the first frames cannot depend on later frames.
    rng = np.random.default_rng(73)
    model = _random_model(rng, k=5, i=2, order=2)
    frames = rng.uniform(0.0, 1.0, size=(5, 12))
    full_state = FilterState(model)
    full = [_filter_one(full_state, frames[:, t]) for t in range(12)]
    prefix_state = FilterState(model)
    prefix = [_filter_one(prefix_state, frames[:, t]) for t in range(7)]
    for t in range(7):
        np.testing.assert_array_equal(full[t], prefix[t])


def test_filter_frame_static_model_matches_single_update():
    rng = np.random.default_rng(74)
    model = _random_model(rng, k=6, i=3, order=0)
    state = FilterState(model, anneal=0.4, inner_iters=1)
    x = rng.uniform(0.5, 1.5, size=6)
    got = _filter_one(state, x)
    xn = np.maximum(x, EPS)
    xn = xn / xn.sum()
    want = _solve(_counts(xn, model.basis, np.full(3, 1.0 / 3.0)), np.ones(3))[1]
    np.testing.assert_array_equal(got, want)


def test_filter_frame_scale_invariant():
    # Frames are normalized on entry, so loudness does not move the estimate.
    rng = np.random.default_rng(75)
    model = _random_model(rng, k=6, i=3, order=1)
    frames = rng.uniform(0.1, 1.0, size=(6, 5))
    s1 = FilterState(model)
    s2 = FilterState(model)
    for t in range(5):
        a = _filter_one(s1, frames[:, t])
        b = _filter_one(s2, 250.0 * frames[:, t])
        np.testing.assert_allclose(a, b, atol=1e-13)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(2, 20),
    i=st.integers(1, 8),
    order=st.integers(0, 2),
    inner_iters=st.integers(1, 3),
    n_frames=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_filter_stream_is_exactly_independent_of_loudness(
    k, i, order, inner_iters, n_frames, seed, data
):
    """Every power of two ``s`` in 2**+-1000 for which ``s * frames`` has no
    subnormal or infinite entry leaves the coefficients bit for bit alone."""
    rng = np.random.default_rng(seed)
    model = _random_model(rng, k=k, i=i, order=order)
    frames = rng.uniform(0.0, 1.0, size=(k, n_frames)) * (rng.uniform(size=(k, n_frames)) < 0.6)
    frames *= 10.0 ** rng.uniform(-100.0, 100.0, size=n_frames)
    exponents = np.frexp(frames[frames > 0.0])[1]
    if exponents.size:
        # s * x = m * 2**(e + p) with m in [0.5, 1): normal while e + p >= -1021,
        # finite while e + p <= 1024.
        lo, hi = max(-1000, -1021 - exponents.min()), min(1000, 1024 - exponents.max())
    else:
        lo, hi = -1000, 1000
    power = data.draw(st.integers(lo, hi), label="power")
    scaled = np.ldexp(frames, power)
    assert np.array_equal(np.ldexp(scaled, -power), frames)
    want = filter_stream(FilterState(model, inner_iters=inner_iters), frames)
    got = filter_stream(FilterState(model, inner_iters=inner_iters), scaled)
    assert np.array_equal(got, want)


def _near_identity(i, overlap):
    """A column-stochastic basis: each column puts ``overlap`` on every other row."""
    return (1.0 - (i - 1) * overlap) * np.eye(i) + overlap * (1.0 - np.eye(i))


def test_decayed_component_returns_in_one_refinement_when_the_frame_needs_it():
    # Component 0's prediction decayed to 1e-30; the frame is its column.  The
    # floored start (1e-4) outweighs the other columns' overlap (2e-5) on that
    # row, so one refinement hands component 0 most of the frame; from a start
    # at the EPS floor it would stay below 1e-7.  A weak prior (anneal 0.01)
    # leaves the outcome to the start.
    model = DnmfModel(basis=_near_identity(3, 2e-5), lags=[np.eye(3)])
    state = FilterState(model, anneal=0.01)
    state.history[:] = [1e-30, 0.5, 0.5]
    h = _filter_one(state, np.array([1.0, 0.0, 0.0]))
    assert h[0] > 0.5


def test_redundant_decayed_component_stays_at_the_floor():
    # Components 0 and 1 share one column; 1 is predicted, 0 decayed to 1e-30.
    # Frame after frame, 0 ends no higher than the floor of its start (or the
    # E-step's EPS floor, if that is higher), however well its column fits.
    basis = _near_identity(3, 0.0)
    basis[:, :2] = [[0.5], [0.5], [0.0]]
    state = FilterState(DnmfModel(basis=basis, lags=[np.eye(3)]))
    state.history[:] = [1e-30, 0.5, 0.5]
    for _ in range(10):
        h = _filter_one(state, np.array([1.0, 1.0, 0.0]))
        assert h[0] <= max(_INIT_FLOOR, EPS)
        assert h[1] > 0.99


def test_filter_start_floors_the_prediction_at_1e_4():
    # One order-1 step from a prediction with one component below the 1e-4
    # start floor (5e-5) and one above it (5e-4), against a start built from
    # the literal 1e-4: a floor of 1e-3 would lift the second component, one
    # of 1e-5 would leave the first below 1e-4, and either changes the bits.
    model = DnmfModel(basis=_near_identity(3, 0.1), lags=[np.eye(3)])
    state = FilterState(model, anneal=0.5)
    pred = np.array([5e-5, 5e-4, 1.0 - 5.5e-4])  # the identity lag predicts the history
    state.history[:] = pred
    x = np.array([0.3, 0.5, 0.2])  # peak in [0.5, 1): no scaling, no EPS floor
    start = np.maximum(pred, 1e-4)
    want = _solve(_counts(x / x.sum(), model.basis, start / start.sum()),
                  np.maximum(pred, EPS) ** 0.5)[1]
    assert np.array_equal(_filter_one(state, x), want)


def test_filter_frame_history_ring_buffer():
    rng = np.random.default_rng(76)
    model = _random_model(rng, k=5, i=2, order=3)
    state = FilterState(model)
    assert np.array_equal(state.history, np.ones((3, 2)))
    outs = []
    for t in range(1, 7):
        outs.append(_filter_one(state, rng.uniform(0.1, 1.0, size=5)))
        n = min(t, 3)
        # Oldest first: the last n rows are the latest outputs, older rows ones.
        assert np.array_equal(state.history[3 - n :], outs[-n:])
        assert np.all(state.history[: 3 - n] == 1.0)


def test_filter_frame_validation():
    # filter_stream checks all of a call's frames before it filters any, so
    # a bad last frame keeps the good ones before it out of the history too.
    rng = np.random.default_rng(77)
    model = _random_model(rng, k=5, i=2, order=1)
    state = FilterState(model)
    with pytest.raises(ValueError):
        filter_stream(state, np.ones((4, 1)))
    with pytest.raises(ValueError):
        filter_stream(state, -np.ones((5, 1)))
    for bad in (-1.0, np.nan, np.inf, -np.inf):
        frames = np.ones((5, 3))
        frames[2, 2] = bad
        with pytest.raises(ValueError, match="nonnegative and finite"):
            filter_stream(state, frames)
        assert np.array_equal(state.history, np.ones((1, 2)))
    with pytest.raises(ValueError):
        FilterState(model, anneal=0.0)
    with pytest.raises(ValueError):
        FilterState(model, inner_iters=0)
    with pytest.raises(ValueError, match="inner_iters 1.5 "):
        FilterState(model, 0.2, 1.5)


def _filter_loop(state, frames):
    """Per-frame reference for filter_stream: one call per one-column stream."""
    return np.stack([_filter_one(state, frames[:, t]) for t in range(frames.shape[1])], axis=1)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("inner_iters", [1, 3])
def test_filter_stream_matches_frame_loop(order, inner_iters):
    rng = np.random.default_rng(78)
    model = _random_model(rng, k=6, i=3, order=order)
    frames = rng.uniform(0.0, 1.0, size=(6, 11))
    frames[2, 4] = 0.0
    got = filter_stream(FilterState(model, anneal=0.3, inner_iters=inner_iters), frames)
    want = _filter_loop(FilterState(model, anneal=0.3, inner_iters=inner_iters), frames)
    assert got.shape == (3, 11)
    assert np.array_equal(got, want)


def _filter_reference(model, frames, anneal, inner_iters):
    """Per-frame filtering written out: each frame scaled by the power of two
    that brings its peak to [0.5, 1), then each refinement is the E-step and
    ``solve_beta``'s update at every order (prior mean ones at order 0)."""
    order, rank = model.order, model.n_components
    history = np.ones((order, rank))
    out = np.empty((rank, frames.shape[1]))
    for t in range(frames.shape[1]):
        xf = np.maximum(frames[:, t] * 2.0 ** -np.frexp(frames[:, t].max())[1], EPS)
        xf = xf / xf.sum()
        base = np.ones(rank)
        h = base / base.sum()
        if order:
            pred = _stack_lags(model.lags) @ history.ravel()
            base = np.maximum(pred, EPS)
            h = np.maximum(pred, _INIT_FLOOR)
            h = h / h.sum()
        for r in range(1, inner_iters + 1):
            eta = base ** (anneal / r) if order else base
            h = _solve(_counts(xf, model.basis, h), eta)[1]
        if order:
            history = np.vstack((history[1:], h))
        out[:, t] = h
    return out


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(2, 40),
    i=st.integers(1, 12),
    order=st.integers(0, 3),
    inner_iters=st.integers(1, 6),
    anneal=st.floats(0.0, 1.0, exclude_min=True),
    n_frames=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_filter_stream_matches_per_frame_reference(
    k, i, order, inner_iters, anneal, n_frames, seed, data
):
    rng = np.random.default_rng(seed)
    basis = normalize_columns(rng.uniform(0.05, 1.0, size=(k, i)))
    lags = [rng.uniform(0.0, 0.9, size=(i, i)) * (rng.uniform(size=(i, i)) < 0.7)
            for _ in range(order)]
    model = DnmfModel(basis=basis, lags=lags)
    # Sparse frames (some all zero) at scales from 1e-100 to 1e100.
    frames = rng.uniform(0.0, 1.0, size=(k, n_frames)) * (rng.uniform(size=(k, n_frames)) < 0.6)
    frames[:, rng.uniform(size=n_frames) < 0.1] = 0.0
    frames *= 10.0 ** rng.uniform(-100.0, 100.0, size=n_frames)
    split = data.draw(st.integers(0, n_frames), label="split")
    state = FilterState(model, anneal=anneal, inner_iters=inner_iters)
    got = np.hstack([filter_stream(state, frames[:, :split]), filter_stream(state, frames[:, split:])])
    assert np.array_equal(got, _filter_reference(model, frames, anneal, inner_iters))
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
    np.testing.assert_allclose(got.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)


def _filter_static_reference(model, frames, anneal, inner_iters):
    """Order-0 filtering as it was: prior mean ones ** (anneal / r)."""
    ones = np.ones(model.n_components)
    out = np.empty((model.n_components, frames.shape[1]))
    for t in range(frames.shape[1]):
        xf = np.maximum(frames[:, t], EPS)
        xf = xf / xf.sum()
        h = ones / ones.sum()
        for r in range(1, inner_iters + 1):
            h = _solve(_counts(xf, model.basis, h), ones ** (anneal / r))[1]
        out[:, t] = h
    return out


@pytest.mark.parametrize("inner_iters", [1, 50])
def test_filter_stream_static_matches_newton_path(inner_iters, monkeypatch):
    rng = np.random.default_rng(82)
    model = _random_model(rng, k=9, i=5, order=0)
    frames = rng.uniform(0.0, 1.0, size=(9, 20))
    frames[3, 7] = 0.0
    got = filter_stream(FilterState(model, anneal=0.25, inner_iters=inner_iters), frames)
    monkeypatch.setattr(statespace, "solve_beta", _solve_beta_newton)
    want = _filter_static_reference(model, frames, 0.25, inner_iters)
    assert np.array_equal(got, want)
    monkeypatch.setattr(statespace, "solve_beta", functools.partial(_solve_beta_newton,
                                                                   update=_update_at_root))
    frozen = _filter_static_reference(model, frames, 0.25, inner_iters)
    assert _ulps(got, frozen) <= _UNIFORM_ULPS * inner_iters


def test_run_tracking_matches_newton_path(monkeypatch):
    sc = TrackingScenario(n_frames=60, peak_frame=30, snr_grid=(-10.0, 5.0), runs=2)
    got = [row.value for row in run_tracking(sc, seed=4).rows]
    monkeypatch.setattr(statespace, "solve_beta", _solve_beta_newton)
    want = [row.value for row in run_tracking(sc, seed=4).rows]
    assert len(got) == 8
    assert np.array_equal(got, want)


def test_filter_stream_continues_history_across_calls():
    rng = np.random.default_rng(79)
    model = _random_model(rng, k=5, i=3, order=2)
    frames = rng.uniform(0.0, 1.0, size=(5, 10))
    split = FilterState(model)
    first = filter_stream(split, frames[:, :4])
    second = filter_stream(split, frames[:, 4:])
    whole = filter_stream(FilterState(model), frames)
    assert np.array_equal(np.hstack([first, second]), whole)
    assert np.array_equal(whole, _filter_loop(FilterState(model), frames))


def test_filter_stream_empty_and_validation():
    rng = np.random.default_rng(80)
    model = _random_model(rng, k=5, i=3, order=1)
    state = FilterState(model)
    assert filter_stream(state, np.zeros((5, 0))).shape == (3, 0)
    assert np.array_equal(state.history, np.ones((1, 3)))
    with pytest.raises(ValueError):
        filter_stream(state, np.ones(5))
    with pytest.raises(ValueError):
        filter_stream(state, np.ones((4, 3)))


def test_filter_stream_overflow_raises_and_keeps_state():
    # Finite lag entries near 1e308 overflow the prediction of frame 2 (two
    # lags times simplex rows: about 2e308); frames 0 and 1 stay in the
    # history, and the failing frame leaves none.
    rng = np.random.default_rng(83)
    model = _random_model(rng, k=5, i=3, order=2)
    frames = rng.uniform(0.1, 1.0, size=(5, 4))
    state = FilterState(model)
    filter_stream(state, frames[:, :2])
    before = state.history.copy()
    state._lag_stack[:] = 1e308  # the state's own copy of the lags
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(FloatingPointError):
            filter_stream(state, frames[:, 2:])
    assert caught == []
    assert np.array_equal(state.history, before)


# ---------------------------------------------------------------------------
# objective


def test_map_objective_validation():
    rng = np.random.default_rng(81)
    model = _random_model(rng, k=5, i=2, order=1)
    with pytest.raises(ValueError):
        map_objective(np.ones((5, 4)), model, np.ones((3, 4)))
    with pytest.raises(ValueError):
        map_objective(np.ones((6, 4)), model, np.ones((2, 4)))
    for bad in (np.nan, np.inf, -1.0):
        h = np.full((2, 4), 0.5)
        h[1, 2] = bad
        with pytest.raises(ValueError, match="nonnegative and finite"):
            map_objective(np.ones((5, 4)), model, h)


def test_map_objective_prefers_better_reconstruction():
    rng = np.random.default_rng(82)
    basis = normalize_columns(rng.uniform(0.05, 1.0, size=(6, 2)))
    model = DnmfModel(basis=basis, lags=[])
    h_good = normalize_columns(rng.uniform(0.1, 1.0, size=(2, 8)))
    x = basis @ h_good
    h_bad = np.roll(h_good, 1, axis=1)
    assert map_objective(x, model, h_good) >= map_objective(x, model, h_bad)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_lag_fit_divergence_matches_per_lag_sum(order):
    rng = np.random.default_rng(95 + order)
    model = _random_model(rng, k=6, i=4, order=order)
    h = normalize_columns(rng.uniform(0.0, 1.0, size=(4, 12)))
    h[1, 3] = 0.0  # floored at EPS
    pred = _per_lag_prediction(model.lags, h)
    want = is_divergence(np.maximum(h, EPS), np.maximum(pred, EPS))
    assert lag_fit_divergence(model, h) == pytest.approx(want, rel=1e-12)


def test_lag_fit_divergence_validation():
    rng = np.random.default_rng(99)
    with pytest.raises(ValueError, match="order 0"):
        lag_fit_divergence(_random_model(rng, k=5, i=2, order=0), np.ones((2, 4)))
    model = _random_model(rng, k=5, i=2, order=1)
    with pytest.raises(ValueError):
        lag_fit_divergence(model, np.ones((3, 4)))
    with pytest.raises(ValueError):
        lag_fit_divergence(model, np.ones(2))
    for bad in (np.nan, np.inf, -1.0):
        h = np.full((2, 4), 0.5)
        h[1, 2] = bad
        with pytest.raises(ValueError, match="nonnegative and finite"):
            lag_fit_divergence(model, h)


# ---------------------------------------------------------------------------
# public boundary: the only place arrays are checked; the kernels trust them

_BAD_ENTRIES = st.sampled_from([np.nan, np.inf, -np.inf, -1.0, -5e-324])
_RESHAPES = {
    "1-D": np.ravel,
    "3-D": lambda a: a[None],
    "extra row": lambda a: np.vstack([a, a[:1]]),
    "extra column": lambda a: np.hstack([a, a[:, :1]]),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_public_boundary_rejects_bad_arrays_with_value_error(data):
    """A NaN, infinite or negative entry or a wrong shape in any array that
    ``DnmfModel``, ``train``, ``filter_stream``, ``map_objective`` or
    ``lag_fit_divergence`` takes raises ``ValueError`` and leaves a filter
    state's history as it was; the unbroken call returns finite numbers."""
    draw = data.draw
    k, i, t = draw(st.integers(2, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    order = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arrays = {
        "basis": normalize_columns(rng.uniform(0.05, 1.0, size=(k, i))),
        "lag": rng.uniform(0.0, 1.0, size=(i, i)),
        "x": rng.uniform(0.0, 2.0, size=(k, t)),
        "h": normalize_columns(rng.uniform(0.05, 1.0, size=(i, t))),
    }
    model = DnmfModel(basis=arrays["basis"], lags=[arrays["lag"]] * order)
    state = FilterState(model)
    filter_stream(state, arrays["x"])
    history = state.history.copy()
    calls = {  # entry point: (its call, the array broken, reshapes it rejects)
        "DnmfModel basis": (lambda a: DnmfModel(basis=a, lags=model.lags),
                            "basis", list(_RESHAPES)),
        "DnmfModel lag": (lambda a: DnmfModel(basis=model.basis, lags=[a] * order),
                          "lag", list(_RESHAPES)),
        "train": (lambda a: train(a, i, order, TrainConfig(iters=2, prior_start=1))[1],
                  "x", ["1-D", "3-D"]),
        "filter_stream": (lambda a: filter_stream(state, a), "x", ["1-D", "3-D", "extra row"]),
        "map_objective x": (lambda a: map_objective(a, model, arrays["h"]), "x", list(_RESHAPES)),
        "map_objective h": (lambda a: map_objective(arrays["x"], model, a), "h", list(_RESHAPES)),
        "lag_fit_divergence": (lambda a: lag_fit_divergence(model, a),
                               "h", ["1-D", "3-D", "extra row"]),
    }
    call, name, reshapes = calls[draw(st.sampled_from(sorted(calls)))]
    how = draw(st.sampled_from(["none", "entry"] + reshapes))
    a = arrays[name].copy()
    if how == "none":
        out = call(a)
        assert isinstance(out, DnmfModel) or np.all(np.isfinite(out))
        return
    if how == "entry":
        a.flat[draw(st.integers(0, a.size - 1))] = draw(_BAD_ENTRIES)
    else:
        a = _RESHAPES[how](a)
    with pytest.raises(ValueError):
        call(a)
    assert np.array_equal(state.history, history)


_SCORES = {  # function: (its call, argument names, lowest unit entry, largest |log10| magnitude)
    "output_snr": (output_snr, ("reference", "estimate"), -1.0, 200),
    "mix_at_snr": (lambda signal, noise: mix_at_snr(signal, noise, 6.0), ("signal", "noise"),
                   -1.0, 200),
    "wiener_reconstruct": (wiener_reconstruct, ("mix_mag", "est1", "est2"), 0.0, 200),
    "is_divergence": (is_divergence, ("x", "xhat"), 0.05, 200),
    # The MSE is quadratic in its entries, so 1e+-200 entries put it outside float64.
    "tracking_mse": (tracking_mse, ("estimates", "truths"), -1.0, 150),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_signal_and_score_functions_reject_bad_arrays_with_value_error(data):
    """A NaN or infinite entry or a mismatched shape in any array that
    ``output_snr``, ``mix_at_snr``, ``wiener_reconstruct``, ``is_divergence``
    or ``tracking_mse`` takes raises ``ValueError`` naming that argument; the
    unbroken call returns finite numbers, at magnitudes 1e+-200 included."""
    draw = data.draw
    call, names, low, top = _SCORES[draw(st.sampled_from(sorted(_SCORES)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = 10.0 ** draw(st.integers(-top, top))
    shape = draw(st.sampled_from([(1,), (5,), (3, 4)]))
    arrays = {name: magnitude * rng.uniform(low, 1.0, size=shape) for name in names}
    how = draw(st.sampled_from(["none", "entry", "extra entry", "extra axis"]))
    if how == "none":
        assert np.all(np.isfinite(call(**arrays)))
        return
    name = draw(st.sampled_from(names))
    a = arrays[name]
    if how == "entry":
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    else:
        arrays[name] = np.append(a, a.flat[0]) if how == "extra entry" else a[None]
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(**arrays)


# public boundary for scalars: every size, count, seed, hop and exponent is
# checked where it enters, by the one integer check and the one exponent check

_SCALARS = [2.5, 1.5, 2.0, True, False, -1, 0, 1, 2, np.int64(2), np.int64(0), np.nan,
            np.inf, 0.5, np.float64(0.5), 1.0, "0.5", "1", None]


def _scalar_accepted(value, minimum) -> bool:
    """Reference rule: an integer of at least ``minimum``, or for ``minimum``
    None an exponent in (0, 1]; ``bool`` and ``str`` are neither."""
    if minimum is None:
        return type(value) in (int, float, np.int64, np.float64) and 0 < value <= 1
    return type(value) in (int, np.int64) and value >= minimum


def _scalar_calls():
    """Entry point: (its call with the scalar, the scalar's name, its minimum)."""
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 2.0, size=(4, 5))
    model = DnmfModel(basis=normalize_columns(rng.uniform(0.05, 1.0, size=(4, 2))),
                      lags=[rng.uniform(0.0, 1.0, size=(2, 2))])
    signal = rng.standard_normal(64)
    frames = stft(signal, 16, 4)
    cfg = TrainConfig(iters=2, prior_start=1)
    return model, {
        "TrainConfig iters": (lambda v: TrainConfig(iters=v, prior_start=1), "iters", 1),
        "TrainConfig prior_start": (lambda v: TrainConfig(iters=2, prior_start=v),
                                    "prior_start", 0),
        "TrainConfig seed": (lambda v: TrainConfig(seed=v), "seed", 0),
        "TrainConfig anneal": (lambda v: TrainConfig(anneal=v), "anneal", None),
        "train rank": (lambda v: train(x, v, 1, cfg), "rank", 1),
        "train order": (lambda v: train(x, 2, v, cfg), "order", 0),
        "FilterState anneal": (lambda v: FilterState(model, anneal=v), "anneal", None),
        "FilterState inner_iters": (lambda v: FilterState(model, inner_iters=v),
                                    "inner_iters", 1),
        "TrackingScenario runs": (lambda v: TrackingScenario(runs=v), "runs", 1),
        "stft hop": (lambda v: stft(signal, 16, v), "hop", 1),
        "istft hop": (lambda v: istft(frames, v), "hop", 1),
        "_check_hop": (lambda v: _check_hop(16, v), "hop", 1),
    }


@settings(max_examples=250, deadline=None)
@given(entry=st.sampled_from(sorted(_scalar_calls()[1])), value=st.sampled_from(_SCALARS))
@example(entry="TrainConfig iters", value=2.5)
@example(entry="TrainConfig iters", value=True)
@example(entry="TrainConfig seed", value=1.5)
@example(entry="TrainConfig anneal", value="0.5")
@example(entry="train rank", value=1.5)
@example(entry="train rank", value=np.int64(2))
@example(entry="train order", value=1.5)
@example(entry="FilterState inner_iters", value=True)
@example(entry="FilterState inner_iters", value=np.int64(2))
@example(entry="stft hop", value=2.5)
def test_public_boundary_rejects_bad_scalars_with_value_error(entry, value):
    """A size, count, seed or hop that is not an integer of its minimum (a
    ``bool``, a float such as ``2.0``, NaN or a string included), or an
    exponent outside (0, 1], raises ``ValueError`` naming the value and
    leaves a filter state's history as it was; NumPy integers and floats in
    range are accepted like Python ones."""
    model, calls = _scalar_calls()
    state = FilterState(model)
    filter_stream(state, np.ones((4, 3)))
    history = state.history.copy()
    call, name, minimum = calls[entry]
    if _scalar_accepted(value, minimum):
        call(value)
        return
    with pytest.raises(ValueError, match=re.escape(f"{name} {value!r} ")):
        call(value)
    assert np.array_equal(state.history, history)
