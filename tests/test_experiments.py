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
from dnmf.core import normalize_columns
from dnmf.dsp import istft, mix_at_snr, stft, wiener_reconstruct
from dnmf.statespace import (
    DnmfModel,
    FilterState,
    TrainConfig,
    concat_models,
    filter_frame,
    train,
)


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


def _unit_phase(spec):
    """``spec / |spec|``, and 1 where the magnitude is 0."""
    mag = np.abs(spec)
    return np.divide(spec, mag, out=np.ones_like(spec), where=mag > 0.0)


def test_separate_sources_outputs_partition_mixture():
    sc = SeparationScenario(duration=0.3, rank=6)
    s1, s2 = gen_chirp_pair(sc)
    mix = mix_at_snr(s1, s2, 0.0)
    spec = stft(mix, sc.fft_size, sc.hop)
    cfg = TrainConfig(iters=20, prior_start=10, seed=0)
    m1, _ = train(np.abs(stft(s1, sc.fft_size, sc.hop)), 6, 1, cfg)
    m2, _ = train(np.abs(stft(s2, sc.fft_size, sc.hop)), 6, 1, cfg)
    e1 = spec.copy()
    y1, y2 = separate_sources(e1, m1, m2, sc.hop)
    assert e1.shape == spec.shape
    # A real gain in [0, 1] keeps the mixture phase, so the magnitudes of the
    # first source and of the remainder partition the mixture's.
    np.testing.assert_allclose(np.abs(e1) + np.abs(spec - e1), np.abs(spec), rtol=0.0, atol=1e-12)
    # Source 1 is the inverse of the masked frames left in the consumed
    # spectrogram, and the two signals sum to the mixture's resynthesis.
    assert np.array_equal(y1, istft(e1, sc.hop))
    np.testing.assert_allclose(y1 + y2, istft(spec, sc.hop), rtol=0.0, atol=1e-12)
    only1, none = separate_sources(spec.copy(), m1, m2, sc.hop, both=False)
    assert none is None and np.array_equal(only1, y1)


def _separate_per_frame(mag, model1, model2, anneal=0.1, inner_iters=1):
    """Per-frame reference for the magnitude split: one Wiener split per frame."""
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
    spec = stft(mix_at_snr(s1, s2, 0.0), sc.fft_size, sc.hop)
    mag = np.abs(spec)
    cfg = TrainConfig(iters=12, prior_start=6, seed=1)
    m1, _ = train(np.abs(stft(s1, sc.fft_size, sc.hop)), 5, order, cfg)
    m2, _ = train(np.abs(stft(s2, sc.fft_size, sc.hop)), 5, order, cfg)
    phase = _unit_phase(spec)
    separate_sources(spec, m1, m2, sc.hop, 0.2, inner_iters)  # masks spec in place
    part1, _ = _separate_per_frame(mag, m1, m2, 0.2, inner_iters)
    # One matrix product per block rounds differently from per-column ones.
    np.testing.assert_allclose(spec, part1 * phase, rtol=0.0, atol=1e-12)


def _random_model(rng, k, i, order):
    basis = normalize_columns(rng.uniform(0.05, 1.0, size=(k, i)))
    return DnmfModel(basis=basis, lags=[rng.uniform(0.1, 0.9, (i, i)) for _ in range(order)])


@pytest.mark.parametrize("inner_iters", [1, 3])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("n_frames", [1, 127, 128, 129, 300])
def test_separate_sources_blocks_match_whole_array_split(n_frames, order, inner_iters):
    # Frame counts on both sides of the 128-frame block, against one Wiener
    # split per frame; a zero bin checks that silence stays silent.
    rng = np.random.default_rng(n_frames + 10 * order + 100 * inner_iters)
    spec = rng.standard_normal((17, n_frames)) + 1j * rng.standard_normal((17, n_frames))
    spec[3, 0] = 0.0
    m1, m2 = _random_model(rng, 17, 4, order), _random_model(rng, 17, 3, order)
    mag = np.abs(spec)
    part1, _ = _separate_per_frame(mag, m1, m2, 0.2, inner_iters)
    first = spec.copy()
    separate_sources(first, m1, m2, 8, 0.2, inner_iters)
    assert first.shape == spec.shape and first.dtype == np.complex128
    np.testing.assert_allclose(first, part1 * _unit_phase(spec), rtol=0.0, atol=1e-12 * mag.max())
    assert first[3, 0] == 0.0


@pytest.mark.parametrize("both", [True, False])
def test_separate_sources_rejects_an_empty_spectrogram(both):
    rng = np.random.default_rng(4)
    m1, m2 = _random_model(rng, 17, 4, 1), _random_model(rng, 17, 3, 1)
    with pytest.raises(ValueError, match="at least one frame"):
        separate_sources(np.zeros((17, 0), dtype=complex), m1, m2, 8, both=both)


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
