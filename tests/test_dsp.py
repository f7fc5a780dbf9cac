import numpy as np
import pytest

from dnmf.core import EPS
from dnmf.dsp import (
    _WINSUM_CUTOFF,
    _hann,
    input_snr,
    istft,
    mix_at_snr,
    output_snr,
    stft,
    wiener_reconstruct,
)


def test_stft_shapes_and_frame_count():
    sig = np.zeros(1000)
    spec = stft(sig, 256, 64)
    assert spec.shape == (129, (1000 - 256) // 64 + 1)
    assert spec.dtype == np.complex128


def test_stft_pure_tone_peaks_at_its_bin():
    # A sinusoid exactly on bin 8 of a length-128 DFT.
    n = np.arange(128 * 10)
    sig = np.sin(2.0 * np.pi * 8.0 * n / 128.0)
    mag = np.abs(stft(sig, 128, 128))
    np.testing.assert_array_equal(np.argmax(mag, axis=0), 8)


def _stft_per_frame(signal, fft_size, hop):
    """Frame-by-frame reference for stft."""
    window = _hann(fft_size)
    n_frames = (signal.shape[0] - fft_size) // hop + 1
    frames = np.empty((fft_size // 2 + 1, n_frames), dtype=np.complex128)
    for t in range(n_frames):
        start = t * hop
        frames[:, t] = np.fft.rfft(signal[start : start + fft_size] * window)
    return frames


@pytest.mark.parametrize(
    "n, fft_size, hop",
    [
        (1024, 1024, 256),  # n == fft_size: a single frame
        (3000, 128, 200),  # hop > fft_size: samples between frames are skipped
        (16100, 1024, 256),  # (n - fft_size) % hop != 0: trailing partial hop
        (5000, 128, 100),
        (8192, 512, 128),
        (40000, 128, 100),  # 399 frames: three full blocks and a partial one
    ],
)
def test_stft_matches_per_frame_reference(n, fft_size, hop):
    sig = np.random.default_rng(n).standard_normal(n)
    spec = stft(sig, fft_size, hop)
    assert np.array_equal(spec, _stft_per_frame(sig, fft_size, hop))


def _istft_per_frame(frames, hop):
    """Frame-by-frame reference for istft."""
    fft_size = 2 * (frames.shape[0] - 1)
    window = _hann(fft_size)
    length = fft_size + (frames.shape[1] - 1) * hop
    out = np.zeros(length)
    wsum = np.zeros(length)
    for t in range(frames.shape[1]):
        start = t * hop
        frame = np.fft.irfft(frames[:, t], n=fft_size)
        out[start : start + fft_size] += frame * window
        wsum[start : start + fft_size] += window * window
    good = wsum >= _WINSUM_CUTOFF
    out[good] /= wsum[good]
    out[~good] = 0.0
    return out


@pytest.mark.parametrize("hop", [1, 100, 128, 256, 300, 1024, 2048])
@pytest.mark.parametrize("fft_size", [2, 4, 128, 1024])
def test_istft_matches_per_frame_reference(fft_size, hop):
    rng = np.random.default_rng(fft_size + hop)
    bins = fft_size // 2 + 1
    # One frame, fewer than one block, and more than two blocks with a
    # partial last block (the block is 128 frames); then frame counts on both
    # sides of n_slabs, where istft stops summing the squared window over the
    # whole stream and divides by a head, one interior row and a tail, and of
    # 2 * n_slabs - 1, where the interior first spans a whole window.
    n_slabs = -(-fft_size // hop)
    edges = {n for k in (n_slabs, 2 * n_slabs - 1) for n in (k - 1, k, k + 1) if n >= 1}
    for n_frames in (1, 5, 300, *sorted(edges)):
        frames = rng.standard_normal((bins, n_frames)) + 1j * rng.standard_normal(
            (bins, n_frames)
        )
        ref = _istft_per_frame(frames, hop)
        for layout in (frames, np.asfortranarray(frames)):
            assert np.array_equal(istft(layout, hop), ref)


def test_stft_validation():
    with pytest.raises(ValueError):
        stft(np.zeros(500), 100, 25)  # not a power of two
    with pytest.raises(ValueError):
        stft(np.zeros(64), 128, 32)  # too short
    with pytest.raises(ValueError):
        stft(np.zeros((2, 500)), 128, 32)
    with pytest.raises(ValueError):
        stft(np.zeros(500), 128, 0)


def test_istft_validation():
    good = np.zeros((129, 4), dtype=complex)
    with pytest.raises(ValueError, match="bin count 100"):
        istft(np.zeros((100, 4), dtype=complex), 64)  # 99 is not a power of two
    with pytest.raises(ValueError, match="bin count 1 "):
        istft(np.zeros((1, 4), dtype=complex), 64)  # no FFT size fits one bin
    with pytest.raises(ValueError, match="2-D"):
        istft(good[:, 0], 64)
    with pytest.raises(ValueError, match="hop"):
        istft(good, 0)
    with pytest.raises(ValueError, match="at least one frame"):
        istft(good[:, :0], 64)
    assert istft(good, 64).shape == (256 + 3 * 64,)


def test_stft_istft_round_trip_interior():
    rng = np.random.default_rng(17)
    sig = rng.standard_normal(4096)
    rec = istft(stft(sig, 256, 64), 64)
    n = min(rec.shape[0], sig.shape[0])
    # The first and last windows are partially covered; compare the interior.
    a = sig[256 : n - 256]
    b = rec[256 : n - 256]
    rel = np.max(np.abs(a - b)) / np.max(np.abs(a))
    assert rel < 1e-6


def test_istft_output_length():
    spec = stft(np.zeros(2048), 512, 128)
    out = istft(spec, 128)
    assert out.shape[0] == 512 + (spec.shape[1] - 1) * 128


def test_wiener_hand_values():
    part1, part2 = wiener_reconstruct(
        np.array([3.0]), np.array([2.0]), np.array([1.0])
    )
    np.testing.assert_allclose(part1, [2.0])
    np.testing.assert_allclose(part2, [1.0])


def test_wiener_parts_sum_to_mixture():
    rng = np.random.default_rng(19)
    mix = rng.uniform(0.0, 2.0, size=(65, 40))
    e1 = rng.uniform(0.0, 1.0, size=(65, 40))
    e2 = rng.uniform(0.0, 1.0, size=(65, 40))
    p1, p2 = wiener_reconstruct(mix, e1, e2)
    np.testing.assert_allclose(p1 + p2, mix, rtol=0.0, atol=1e-12)
    assert np.all(p1 >= 0.0)
    assert np.all(p2 >= 0.0)


def test_wiener_zero_estimates_give_all_mass_to_remainder():
    mix = np.array([5.0])
    p1, p2 = wiener_reconstruct(mix, np.array([0.0]), np.array([0.0]))
    np.testing.assert_allclose(p1, [0.0])
    np.testing.assert_allclose(p2, [5.0])


@pytest.mark.parametrize("shape", [(7,), (65, 40), (513, 300)])
def test_wiener_matches_temporary_expression(shape):
    rng = np.random.default_rng(len(shape) + shape[0])
    mix = rng.uniform(0.0, 2.0, size=shape)
    e1 = rng.uniform(0.0, 1.0, size=shape)
    e2 = rng.uniform(0.0, 1.0, size=shape)
    # Zero estimates exercise the EPS floor of the denominator.
    e1.flat[::5] = 0.0
    e2.flat[::10] = 0.0
    mask = e1 / np.maximum(e1 + e2, EPS)
    ref1 = mask * mix
    p1, p2 = wiener_reconstruct(mix, e1, e2)
    assert np.array_equal(p1, ref1)
    assert np.array_equal(p2, mix - ref1)


def test_wiener_validation():
    with pytest.raises(ValueError):
        wiener_reconstruct(np.ones(3), np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        wiener_reconstruct(np.ones(3), -np.ones(3), np.ones(3))
    for position in range(3):
        args = [np.ones(3), np.ones(3), np.ones(3)]
        args[position][1] = np.nan
        with pytest.raises(ValueError, match="nonnegative"):
            wiener_reconstruct(*args)
    p1, p2 = wiener_reconstruct(np.ones(0), np.ones(0), np.ones(0))
    assert p1.shape == p2.shape == (0,)


def test_input_snr_hand_value():
    clean = np.array([1.0, 1.0, 1.0, 1.0])
    noisy = clean + np.array([0.1, -0.1, 0.1, -0.1])
    # 10 log10(4 / 0.04) = 20 dB
    assert input_snr(clean, noisy) == pytest.approx(20.0, abs=1e-12)


def test_output_snr_perfect_estimate_is_infinite():
    ref = np.array([0.3, -0.2, 0.7])
    assert output_snr(ref, ref.copy()) == float("inf")


def test_snr_validation():
    with pytest.raises(ValueError):
        input_snr(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        output_snr(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        input_snr(np.ones(4), np.ones(4))  # zero noise => infinite
    with pytest.raises(ValueError):
        output_snr(np.ones(4), np.ones(5))


def test_mix_at_snr_hits_target_exactly():
    rng = np.random.default_rng(23)
    sig = np.sin(np.linspace(0.0, 40.0, 2000))
    noise = rng.standard_normal(2000)
    for target in (-10.0, 0.0, 7.5, 30.0):
        mixed = mix_at_snr(sig, noise, target)
        assert input_snr(sig, mixed) == pytest.approx(target, abs=1e-9)


def test_mix_at_snr_validation():
    sig = np.ones(10)
    with pytest.raises(ValueError):
        mix_at_snr(sig, np.zeros(10), 0.0)
    with pytest.raises(ValueError):
        mix_at_snr(np.zeros(10), sig, 0.0)
    with pytest.raises(ValueError):
        mix_at_snr(sig, np.ones(9), 0.0)
    with pytest.raises(ValueError):
        mix_at_snr(sig, sig, float("inf"))
