"""End-to-end acceptance gate.

Each test checks one headline guarantee at full scale and prints a single
PASS/FAIL line with the measured numbers, so the suite output doubles as a
scoreboard.  Budgets are wall-clock seconds and generous; they exist to catch
pathological slowdowns, not to race the machine.
"""
import time

import numpy as np

from dnmf.cli import load_model, save_model
from dnmf.core import EPS, is_divergence, normalize_columns
from dnmf.dsp import istft, mix_at_snr, output_snr, stft, wiener_reconstruct
from dnmf.experiments import (
    SeparationScenario,
    TrackingScenario,
    run_separation,
    run_tracking,
)
from dnmf.plca import is_nmf_update_w
from dnmf.statespace import (
    FilterState,
    TrainConfig,
    build_lag_matrix,
    estimate_nvar,
    filter_stream,
    map_objective,
    solve_beta,
    train,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _plca_em_step(x, w, h):
    """One textbook static PLCA EM step (Smaragdis, Raj & Shashanka 2006)."""
    hs = np.maximum(h, EPS)
    r = np.maximum(x, EPS) / np.maximum(w @ hs, EPS)
    w_new = w * (r @ hs.T)
    h_new = hs * (w.T @ r)
    return w_new / w_new.sum(axis=0), h_new / h_new.sum(axis=0)


def test_static_reduction_identity():
    # Order 0 is static PLCA: iteration N + 1 of ``train`` must be one EM
    # step applied to iterate N, bit for bit, for N = 1..99.
    t0 = time.monotonic()
    rng = np.random.default_rng(100)
    x = rng.uniform(0.0, 1.0, size=(20, 40))
    fits = [train(x, 4, 0, TrainConfig(iters=n, prior_start=0, seed=5)) for n in range(1, 101)]
    same = True
    for (model, h), (model_next, h_next) in zip(fits, fits[1:]):
        w_step, h_step = _plca_em_step(x, model.basis, h)
        same &= (
            model.order == 0
            and np.array_equal(model_next.basis, w_step)
            and np.array_equal(h_next, h_step)
        )
    dt = time.monotonic() - t0
    ok = same and dt < 5.0
    _report(
        "static reduction identity",
        ok,
        f"bit-identical={same}, runtime {dt:.2f} s (budget 5 s)",
    )


def test_update_monotonicity():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst_is = -np.inf
    for _ in range(100):
        k = int(rng.integers(2, 17))
        i = int(rng.integers(1, 5))
        t = int(rng.integers(2, 31))
        w = rng.uniform(0.05, 1.0, size=(k, i))
        h = rng.uniform(0.05, 1.0, size=(i, t))
        x = np.maximum(
            w @ h * rng.uniform(0.5, 1.5, size=(k, t)), EPS
        )
        d0 = is_divergence(x, np.maximum(w @ h, EPS))
        w = is_nmf_update_w(x, w, h)
        d1 = is_divergence(x, np.maximum(w @ h, EPS))
        worst_is = max(worst_is, d1 - d0)

    # Full EM with the prediction prior active from the start and no
    # annealing: the joint objective must never decrease across iterations.
    worst_em = -np.inf
    for inst in range(100):
        k = int(rng.integers(3, 17))
        i = int(rng.integers(2, 5))
        t = int(rng.integers(5, 31))
        x = rng.uniform(0.05, 1.0, size=(k, t))
        prev = None
        for iters in range(1, 7):
            cfg = TrainConfig(iters=iters, prior_start=0, anneal=1.0, seed=inst)
            model, h = train(x, i, 1, cfg)
            obj = map_objective(x, model, h)
            if prev is not None:
                worst_em = max(
                    worst_em, (prev - obj) / max(1.0, abs(prev))
                )
            prev = obj
    dt = time.monotonic() - t0
    ok = worst_is <= 1e-9 and worst_em <= 1e-7 and dt < 60.0
    _report(
        "update-rule monotonicity",
        ok,
        f"worst IS increase {worst_is:.3e} (tol 1e-9), worst relative bound "
        f"decrease {worst_em:.3e} (tol 1e-7), runtime {dt:.1f} s (budget 60 s)",
    )


def test_normalizer_matches_bisection_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(102)
    worst_beta = 0.0
    worst_sum = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        c = rng.uniform(0.0, 1.0, size=n)
        c[rng.uniform(size=n) < 0.25] = 0.0
        if c.sum() <= 0.0:
            c[int(rng.integers(n))] = 0.3
        c *= rng.uniform(0.05, 30.0)
        eta = rng.uniform(1e-3, 1e3, size=n)
        beta = solve_beta(c, eta, np.empty(n))

        support = c > 0.0
        inv = 1.0 / eta[support]
        cs = c[support]
        pole = float(-inv.min())
        lo = pole + 1e-9 * max(1.0, abs(pole))
        while float((cs / (lo + inv)).sum()) <= 1.0:
            lo = pole + (lo - pole) * 0.125
        hi = max(1.0, float(c.sum()))
        while float((cs / (hi + inv)).sum()) >= 1.0:
            hi = 2.0 * hi + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float((cs / (mid + inv)).sum()) > 1.0:
                lo = mid
            else:
                hi = mid
        ref = 0.5 * (lo + hi)

        h = c / (beta + 1.0 / eta)
        assert np.all(h >= 0.0)
        worst_beta = max(worst_beta, abs(beta - ref))
        worst_sum = max(worst_sum, abs(h.sum() - 1.0))
    dt = time.monotonic() - t0
    ok = worst_beta <= 1e-8 and worst_sum <= 1e-8 and dt < 10.0
    _report(
        "normalizer oracle equivalence",
        ok,
        f"worst |beta error| {worst_beta:.3e}, worst |sum(h)-1| "
        f"{worst_sum:.3e} (tol 1e-8), runtime {dt:.1f} s (budget 10 s)",
    )


def test_uniform_prior_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(4, 33))
        i = int(rng.integers(2, 9))
        basis = normalize_columns(rng.uniform(0.05, 1.0, size=(k, i)))
        x = rng.uniform(0.0, 3.0, size=k)
        coeffs = rng.uniform(0.05, 1.0, size=i)
        xf = np.maximum(x, EPS)
        wh = np.maximum(basis @ coeffs, EPS)
        counts = coeffs * (basis.T @ (xf / wh))
        got = np.empty(i)
        solve_beta(counts, np.ones(i), got)
        worst = max(worst, float(np.max(np.abs(got - counts / counts.sum()))))
    ok = worst <= 1e-12
    _report(
        "uniform-prior identity",
        ok,
        f"worst |update - counts/mass| = {worst:.3e} (tol 1e-12)",
    )


def test_lag_fit_matches_grid_search_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(104)
    grid = np.arange(0.0, 2.0 + 1e-12, 0.05)
    worst = -np.inf
    for _ in range(10):
        # Independent positive samples keep the two lagged regressors
        # well-conditioned, so the fixed sweep budget reaches the optimum;
        # collinear designs only slow the multiplicative updates down.
        h = rng.uniform(0.2, 1.2, size=(2, 20))
        v = build_lag_matrix(h, 1)

        a_fit = rng.uniform(0.5, 1.5, size=(2, 2))
        for _ in range(200):
            a_fit = estimate_nvar(h, a_fit, v)
        d_fit = is_divergence(h, np.maximum(a_fit @ v, EPS))

        # The rows of A decouple in the divergence, so the 4-D grid search
        # reduces to two independent 2-D scans.
        d_grid = 0.0
        for row in range(2):
            recon = (
                grid[:, None, None] * v[0][None, None, :]
                + grid[None, :, None] * v[1][None, None, :]
            )
            ratio = h[row][None, None, :] / np.maximum(recon, EPS)
            d_row = (ratio - np.log(ratio) - 1.0).sum(axis=2)
            d_grid += float(d_row.min())
        worst = max(worst, d_fit - d_grid)
    dt = time.monotonic() - t0
    ok = worst <= 1e-3 and dt < 120.0
    _report(
        "lag-matrix grid-search oracle",
        ok,
        f"worst (fit - grid best) divergence {worst:.3e} (tol 1e-3), "
        f"runtime {dt:.1f} s (budget 120 s)",
    )


def test_tracking_beats_static_at_low_snr():
    t0 = time.monotonic()
    scenario = TrackingScenario(runs=10, snr_grid=(-10.0, -5.0, 0.0, 5.0))
    report = run_tracking(scenario, seed=0)
    mse = {
        (m, s): float(np.mean(report.values(method=m, input_snr_db=s)))
        for m in ("static", "dnmf")
        for s in scenario.snr_grid
    }
    dt = time.monotonic() - t0
    ok = (
        mse[("dnmf", -10.0)] < mse[("static", -10.0)]
        and mse[("dnmf", -5.0)] < mse[("static", -5.0)]
        and mse[("dnmf", 5.0)] < 0.05
        and mse[("static", 5.0)] < 0.05
        and dt < 600.0
    )
    _report(
        "tracking low-SNR advantage",
        ok,
        f"-10 dB: dynamic {mse[('dnmf', -10.0)]:.4f} vs static "
        f"{mse[('static', -10.0)]:.4f}; -5 dB: {mse[('dnmf', -5.0)]:.4f} vs "
        f"{mse[('static', -5.0)]:.4f}; +5 dB both < 0.05: "
        f"{mse[('dnmf', 5.0)]:.4f}/{mse[('static', 5.0)]:.4f}; "
        f"runtime {dt:.0f} s (budget 600 s)",
    )


def test_separation_gains_from_dynamics():
    t0 = time.monotonic()
    report = run_separation(SeparationScenario(), seed=0)
    mean_snr = {
        j: float(np.mean(report.values(order=j))) for j in (0, 1, 2, 3, 4, 5)
    }
    dyn = [mean_snr[j] for j in (1, 2, 3, 4, 5)]
    gap = mean_snr[2] - mean_snr[0]
    spread = max(dyn) - min(dyn)
    dt = time.monotonic() - t0
    ok = gap >= 8.0 and spread < 3.0 and dt < 900.0
    _report(
        "separation dynamics advantage",
        ok,
        "mean output SNR "
        + " ".join(f"J{j}={mean_snr[j]:+.2f}" for j in sorted(mean_snr))
        + f"; J2-J0 gap {gap:.2f} dB (need >= 8), spread {spread:.2f} dB "
        f"(need < 3), runtime {dt:.0f} s (budget 900 s)",
    )


def test_dsp_layer_guarantees():
    rng = np.random.default_rng(108)
    sig = rng.standard_normal(8192)
    rec = istft(stft(sig, 512, 128), 128)
    n = min(rec.shape[0], sig.shape[0])
    interior = slice(512, n - 512)
    round_trip = float(
        np.max(np.abs(rec[interior] - sig[interior]))
        / np.max(np.abs(sig[interior]))
    )

    mix = rng.uniform(0.0, 2.0, size=(257, 30))
    p1, p2 = wiener_reconstruct(
        mix,
        rng.uniform(0.0, 1.0, size=(257, 30)),
        rng.uniform(0.0, 1.0, size=(257, 30)),
    )
    mask_err = float(np.max(np.abs(p1 + p2 - mix)))

    noise = rng.standard_normal(8192)
    snr_err = max(
        abs(output_snr(sig, mix_at_snr(sig, noise, target)) - target)
        for target in (-20.0, -3.0, 0.0, 12.5)
    )
    ok = round_trip < 1e-6 and mask_err <= 1e-12 and snr_err <= 1e-9
    _report(
        "dsp layer",
        ok,
        f"round-trip rel err {round_trip:.2e} (tol 1e-6), mask sum err "
        f"{mask_err:.2e} (tol 1e-12), SNR err {snr_err:.2e} dB (tol 1e-9)",
    )


def test_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(109)
    x = rng.uniform(0.0, 1.0, size=(16, 40))
    model, _ = train(x, 3, 2, TrainConfig(iters=30, prior_start=15, seed=1))
    path = str(tmp_path / "model.json")
    save_model(model, path, train_q=0.15, metadata={"seed": "1"})
    loaded, _, _ = load_model(path)
    exact = np.array_equal(loaded.basis, model.basis) and all(
        np.array_equal(a, b) for a, b in zip(loaded.lags, model.lags)
    )

    frames = rng.uniform(0.0, 1.0, size=(16, 12))
    s_mem = FilterState(model, anneal=0.2)
    s_load = FilterState(loaded, anneal=0.2)
    streams_equal = all(
        np.array_equal(
            filter_stream(s_mem, frames[:, t : t + 1]),
            filter_stream(s_load, frames[:, t : t + 1]),
        )
        for t in range(12)
    )
    ok = exact and streams_equal
    _report(
        "persistence round trip",
        ok,
        f"matrices bit-exact={exact}, filtered streams identical={streams_equal}",
    )
