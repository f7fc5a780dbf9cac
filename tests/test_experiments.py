import numpy as np
import pytest

from dnmf.experiments import (
    CSV_HEADER,
    ExperimentReport,
    SeparationScenario,
    TrackingScenario,
    gen_chirp_pair,
    gen_swept_sinusoid,
    run_separation,
    run_tracking,
    separate_sources,
    track_frequency,
    tracking_mse,
    tracking_model,
)
from dnmf.dsp import mix_at_snr, stft, wiener_reconstruct
from dnmf.statespace import FilterState, TrainConfig, concat_models, filter_frame, train


def test_swept_sinusoid_shape_and_truth_anchors():
    sc = TrackingScenario()
    sig, truths = gen_swept_sinusoid(sc)
    assert sig.shape == (sc.n_frames * sc.hop,)
    assert truths.shape == (sc.n_frames,)
    assert truths[0] == pytest.approx(sc.freq_lo)
    assert truths[sc.peak_frame - 1] == pytest.approx(sc.freq_hi)
    assert truths[-1] == pytest.approx(sc.freq_lo)
    assert np.max(truths) == pytest.approx(sc.freq_hi)
    assert np.all(np.abs(sig) <= 1.0)


def test_track_frequency_hand_values():
    h = np.zeros(65)
    h[1] = 1.0
    assert track_frequency(h, 128) == pytest.approx(2.0 * np.pi / 128.0)
    h[8] = 2.0
    assert track_frequency(h, 128) == pytest.approx(16.0 * np.pi / 128.0)
    # Ties resolve to the lower bin.
    assert track_frequency(np.ones(65), 128) == 0.0


def test_track_frequency_columns_match_per_column_calls():
    rng = np.random.default_rng(12)
    # Small integer entries make ties common; column 0 is all ties.
    h = rng.integers(0, 3, size=(65, 40)).astype(np.float64)
    h[:, 0] = 1.0
    got = track_frequency(h, 128)
    want = np.array([track_frequency(h[:, t], 128) for t in range(40)])
    assert got.shape == (40,)
    assert got[0] == 0.0
    assert np.array_equal(got, want)


def test_tracking_mse_hand_value():
    est = np.array([1.0, 2.0])
    truth = np.array([1.5, 2.0])
    assert tracking_mse(est, truth) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        tracking_mse(np.ones(3), np.ones(4))


def test_tracking_model_structure():
    model = tracking_model(5)
    np.testing.assert_array_equal(model.basis, np.eye(5))
    lag = model.lags[0]
    np.testing.assert_allclose(np.diag(lag), 1.0 / 3.0)
    np.testing.assert_allclose(np.diag(lag, 1), 1.0 / 3.0)
    np.testing.assert_allclose(np.diag(lag, -1), 1.0 / 3.0)
    assert lag[0, 2] == 0.0


def test_chirp_pair_is_exact_time_reversal():
    sc = SeparationScenario(duration=0.25)
    s1, s2 = gen_chirp_pair(sc)
    assert s1.shape == (int(0.25 * sc.sample_rate),)
    np.testing.assert_array_equal(s2, s1[::-1])


def test_separate_sources_outputs_partition_mixture():
    sc = SeparationScenario(duration=0.3, rank=6)
    s1, s2 = gen_chirp_pair(sc)
    mix = mix_at_snr(s1, s2, 0.0)
    mag = np.abs(stft(mix, sc.fft_size, sc.hop))
    cfg = TrainConfig(iters=20, prior_start=10, seed=0)
    m1, _ = train(np.abs(stft(s1, sc.fft_size, sc.hop)), 6, 1, cfg)
    m2, _ = train(np.abs(stft(s2, sc.fft_size, sc.hop)), 6, 1, cfg)
    e1, e2 = separate_sources(mag, m1, m2)
    assert e1.shape == mag.shape
    np.testing.assert_allclose(e1 + e2, mag, rtol=0.0, atol=1e-12)
    assert np.all(e1 >= 0.0)
    assert np.all(e2 >= 0.0)


def _separate_per_frame(mag, model1, model2, anneal=0.1, inner_iters=1):
    """Per-frame reference for separate_sources: one Wiener split per frame."""
    state = FilterState(concat_models(model1, model2), anneal=anneal, inner_iters=inner_iters)
    n1 = model1.n_components
    est1 = np.empty_like(mag)
    est2 = np.empty_like(mag)
    for t in range(mag.shape[1]):
        h = filter_frame(state, mag[:, t])
        e1 = model1.basis @ h[:n1]
        e2 = model2.basis @ h[n1:]
        est1[:, t], est2[:, t] = wiener_reconstruct(mag[:, t], e1, e2)
    return est1, est2


@pytest.mark.parametrize("order, inner_iters", [(1, 1), (2, 3)])
def test_separate_sources_matches_per_frame_reference(order, inner_iters):
    sc = SeparationScenario(duration=0.3, rank=5)
    s1, s2 = gen_chirp_pair(sc)
    mag = np.abs(stft(mix_at_snr(s1, s2, 0.0), sc.fft_size, sc.hop))
    cfg = TrainConfig(iters=12, prior_start=6, seed=1)
    m1, _ = train(np.abs(stft(s1, sc.fft_size, sc.hop)), 5, order, cfg)
    m2, _ = train(np.abs(stft(s2, sc.fft_size, sc.hop)), 5, order, cfg)
    got = separate_sources(mag, m1, m2, 0.2, inner_iters)
    want = _separate_per_frame(mag, m1, m2, 0.2, inner_iters)
    # One matrix product per source rounds differently from per-column ones.
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12)


def test_run_tracking_report_layout():
    sc = TrackingScenario(n_frames=40, peak_frame=20, runs=2, snr_grid=(5.0,))
    report = run_tracking(sc, seed=0)
    assert len(report.rows) == 4  # 2 methods x 1 SNR x 2 runs
    static = report.values(method="static", input_snr_db=5.0)
    dnmf = report.values(method="dnmf", input_snr_db=5.0)
    assert len(static) == 2 and len(dnmf) == 2
    orders = {r.order for r in report.rows if r.method == "dnmf"}
    assert orders == {1}
    assert all(r.metric == "mse_rad2" for r in report.rows)


def test_run_tracking_deterministic():
    sc = TrackingScenario(n_frames=30, peak_frame=15, runs=1, snr_grid=(0.0,))
    r1 = run_tracking(sc, seed=3)
    r2 = run_tracking(sc, seed=3)
    assert [row.value for row in r1.rows] == [row.value for row in r2.rows]


def test_run_separation_report_layout():
    sc = SeparationScenario(duration=0.4, rank=5, orders=(0, 1))
    report = run_separation(sc, seed=0)
    assert len(report.rows) == 4  # 2 orders x 2 sources
    assert set(r.method for r in report.rows) == {"static", "dnmf"}
    for row in report.rows:
        expected = "static" if row.order == 0 else "dnmf"
        assert row.method == expected
        assert row.metric.startswith("output_snr_db_source")
        assert np.isfinite(row.value)


def test_report_csv_round_trip(tmp_path):
    report = ExperimentReport()
    report.add(
        scenario="tracking",
        method="dnmf",
        order=1,
        input_snr_db=-5.0,
        metric="mse_rad2",
        value=0.125,
        seed=42,
    )
    path = tmp_path / "report.csv"
    report.write_csv(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "tracking,dnmf,1,-5,mse_rad2,0.125,42"


def test_report_values_filters_on_every_field():
    report = ExperimentReport()
    for order in (0, 1):
        report.add(
            scenario="s",
            method="m",
            order=order,
            input_snr_db=0.0,
            metric="x",
            value=float(order),
            seed=0,
        )
    assert report.values(order=1) == [1.0]
    assert report.values(order=0, metric="x") == [0.0]
    assert report.values(metric="y") == []
