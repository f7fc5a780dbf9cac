import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from dnmf.core import EPS
from dnmf.dsp import (
    _WINSUM_CUTOFF,
    _check_hop,
    _energy,
    _hann,
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
        args[position][1] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            wiener_reconstruct(*args)
    for position, name in enumerate(("mix_mag", "est1", "est2")):
        for bad in (np.nan, np.inf, -np.inf):
            args = [np.ones(3), np.ones(3), np.ones(3)]
            args[position][1] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                wiener_reconstruct(*args)
    p1, p2 = wiener_reconstruct(np.ones(0), np.ones(0), np.ones(0))
    assert p1.shape == p2.shape == (0,)


def test_output_snr_hand_value():
    clean = np.array([1.0, 1.0, 1.0, 1.0])
    noisy = clean + np.array([0.1, -0.1, 0.1, -0.1])
    # 10 log10(4 / 0.04) = 20 dB, also where sum(a * a) overflows (1e200)
    # or underflows to 0 (1e-170).
    for scale in (1.0, 1e200, 1e-170):
        assert output_snr(scale * clean, scale * noisy) == pytest.approx(20.0, abs=1e-12)


def test_output_snr_of_a_difference_that_overflows():
    # estimate - reference is -2e308 in every entry: the error carries four
    # times the reference energy, -6.02 dB, with no float64 warning.
    assert output_snr(np.full(4, 1e308), np.full(4, -1e308)) == pytest.approx(
        10.0 * np.log10(0.25), abs=1e-12)
    # One overflowing entry among ordinary ones: the error is -2e308 there.
    reference, estimate = np.array([1e308, 1.0, 0.0]), np.array([-1e308, 1.0, 3.0])
    assert output_snr(reference, estimate) == pytest.approx(10.0 * np.log10(0.25), abs=1e-12)


def test_output_snr_of_a_ratio_outside_float64():
    # er / ee is 1e320 (3200 dB) and about 1.3e-616 (-6159 dB): both lie
    # outside float64, the SNRs do not.
    assert output_snr(np.array([1e150, 0.0]), np.array([1e150, 1e-10])) == pytest.approx(
        3200.0, abs=1e-9)
    want = 20.0 * (np.log10(1.5e-154) - np.log10(1.3e154 - 1.5e-154))
    assert output_snr(np.array([1.5e-154]), np.array([1.3e154])) == pytest.approx(want, abs=1e-9)
    # A subnormal reference against an error whose energy overflows: pr / pe
    # underflows to 0, and the SNR is about -12630 dB.
    assert output_snr(np.array([5e-324]), np.array([1e308])) == pytest.approx(
        20.0 * (np.log10(5e-324) - 308.0), abs=1e-9)


def test_output_snr_keeps_an_error_far_below_the_peak():
    # Errors more than 2 ** 1022 below the peak still score (12000 dB and
    # 2146 * 10 log10(2) dB), where scaling both arrays to a peak below 1
    # would round them to zero or to a neighbouring subnormal.
    assert output_snr(np.array([1e300, 1e-300]), np.array([1e300, 2e-300])) == pytest.approx(
        12000.0, abs=1e-9)
    assert output_snr(np.array([1.0, 1.5e-323]), np.array([1.0, 5e-324])) == pytest.approx(
        2146 * 10.0 * np.log10(2.0), abs=1e-9)


def test_output_snr_keeps_the_plain_formula_bits():
    rng = np.random.default_rng(31)
    reference = rng.standard_normal(500)
    estimate = reference + 0.3 * rng.standard_normal(500)
    plain = 10.0 * np.log10(np.sum(reference * reference)
                            / np.sum((estimate - reference) ** 2))
    assert output_snr(reference, estimate) == plain


def test_output_snr_perfect_estimate_is_infinite():
    ref = np.array([0.3, -0.2, 0.7])
    assert output_snr(ref, ref.copy()) == float("inf")


def test_snr_validation():
    with pytest.raises(ValueError):
        output_snr(np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        output_snr(np.ones(4), np.ones(5))


def test_mix_at_snr_hits_target_exactly():
    rng = np.random.default_rng(23)
    sig = np.sin(np.linspace(0.0, 40.0, 2000))
    noise = rng.standard_normal(2000)
    for target in (-10.0, 0.0, 7.5, 30.0):
        mixed = mix_at_snr(sig, noise, target)
        assert output_snr(sig, mixed) == pytest.approx(target, abs=1e-9)


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
    # 10 ** (snr / 10) overflows (or underflows to 0), so the noise scale is 0
    # or inf in float64.
    for target in (3100.0, -3400.0, 1e308, -1e308):
        with pytest.raises(ValueError, match="SNR"):
            mix_at_snr(sig, sig, target)
    # A normal scale (1e308) whose mixture overflows raises instead of
    # returning inf.
    with pytest.raises(ValueError, match="mixture outside float64"):
        mix_at_snr(np.full(4, 1e306), np.full(4, 10.0), -60.0)


def test_mix_at_snr_names_a_non_finite_argument():
    sig = np.ones(10)
    for bad in (np.nan, np.inf, -np.inf):
        broken = sig.copy()
        broken[3] = bad
        with pytest.raises(ValueError, match="^signal must be finite$"):
            mix_at_snr(broken, sig, 0.0)
        with pytest.raises(ValueError, match="^noise must be finite$"):
            mix_at_snr(sig, broken, 0.0)


def test_mix_at_snr_extremes_inside_float64_still_mix():
    sig = np.sin(np.linspace(0.0, 40.0, 200))
    noise = np.random.default_rng(6).standard_normal(200)
    for target in (3000.0, 5e-324, -0.0, -3000.0):
        assert np.all(np.isfinite(mix_at_snr(sig, noise, target)))


def test_mix_at_snr_energies_outside_float64_still_mix():
    # sum(a * a) overflows for entries near 1e200 and underflows to 0 for
    # entries near 1e-170; the energies are formed from arguments divided by
    # their peaks, so both mixtures come out right.
    np.testing.assert_allclose(mix_at_snr(np.full(4, 1e200), np.ones(4), 0.0),
                               np.full(4, 2e200), rtol=1e-12)
    np.testing.assert_allclose(mix_at_snr(np.ones(4), np.full(4, 1e-170), 0.0),
                               np.full(4, 2.0), rtol=1e-12)
    alternating = np.array([1.0, -1.0, 1.0, -1.0])
    np.testing.assert_allclose(mix_at_snr(np.ones(4), 1e-170 * alternating, 10.0),
                               1.0 + alternating / np.sqrt(10.0), rtol=1e-12)
    np.testing.assert_allclose(mix_at_snr(1e-200 * alternating, np.full(4, 3e-190), -20.0),
                               1e-200 * (alternating + 10.0), rtol=1e-12)
    # es / en underflows (about 1e-450) or overflows (about 1e480), but the
    # noise scales, about 1e-225 and 1e240, are normal floats.
    for signal, noise in ((1e-118 * alternating, np.full(4, 1e107)),
                          (np.full(4, 1e120), 1e-120 * alternating)):
        assert abs(output_snr(signal, mix_at_snr(signal, noise, 0.0))) <= 1e-9
    # Where the plain energies are finite and positive, the bits stay those
    # of the plain formula.
    sig = np.sin(np.linspace(0.0, 40.0, 200))
    noise = np.random.default_rng(7).standard_normal(200)
    plain = np.sqrt(np.sum(sig * sig) / (np.sum(noise * noise) * np.float64(10.0) ** 0.75))
    assert np.array_equal(mix_at_snr(sig, noise, 7.5), sig + plain * noise)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mix_at_snr_round_trip_at_any_float64_scale(data):
    """Signal and noise peaks anywhere in 1e+-250 and a target within +-60 dB
    whose noise scale lies inside 1e+-300: the mixture scores the target."""
    draw = data.draw
    unit = st.lists(st.floats(-1.0, 1.0), min_size=(n := draw(st.integers(1, 8))), max_size=n)
    signal, noise = np.array(draw(unit)), np.array(draw(unit))
    assume(signal.any() and noise.any())
    signal = signal / np.abs(signal).max() * 10.0 ** draw(st.floats(-250.0, 250.0))
    noise = noise / np.abs(noise).max() * 10.0 ** draw(st.floats(-250.0, 250.0))
    target = draw(st.floats(-60.0, 60.0))
    ps, pn = np.abs(signal).max(), np.abs(noise).max()
    log_scale = (np.log10(ps) - np.log10(pn) - target / 20.0
                 + 0.5 * np.log10(np.sum((signal / ps) ** 2) / np.sum((noise / pn) ** 2)))
    assume(abs(log_scale) <= 300.0)
    assert abs(output_snr(signal, mix_at_snr(signal, noise, target)) - target) <= 1e-9


_NORMAL = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False)


def _exponents(a):
    """``frexp`` exponents of the nonzero entries of ``a``."""
    return np.frexp(a[a != 0.0])[1]


def _draw_shift(draw, exponents):
    """A power ``k`` in [-1000, 1000] under which a float64 of each ``frexp``
    exponent in ``exponents`` is normal and finite both as it is and scaled by
    ``2 ** k``."""
    lo = max(-1000, -1021 - exponents.min(initial=0))
    hi = min(1000, 1024 - exponents.max(initial=0))
    assume(lo <= 0 <= hi)
    return draw(st.integers(lo, hi))


def _draw_arrays(draw, count):
    n = draw(st.integers(1, 8))
    return [np.array(draw(st.lists(_NORMAL, min_size=n, max_size=n))) for _ in range(count)]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_output_snr_is_loudness_independent(data):
    """Both arrays times any power of two that keeps every entry normal: the same bits."""
    reference, estimate = _draw_arrays(data.draw, 2)
    assume(reference.any())
    k = _draw_shift(data.draw, _exponents(np.concatenate([reference, estimate])))
    assert output_snr(np.ldexp(reference, k), np.ldexp(estimate, k)) == output_snr(reference, estimate)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mix_at_snr_is_loudness_independent(data):
    """Signal and noise times any power of two that keeps every entry of them, of
    the scaled noise and of the mixture normal: the mixture times that power."""
    signal, noise = _draw_arrays(data.draw, 2)
    assume(signal.any() and noise.any())
    target = data.draw(st.floats(-100.0, 100.0))
    try:
        mixture = mix_at_snr(signal, noise, target)
    except ValueError:
        reject()
    # The scaled noise's binary exponents, from the peak-scaled energies, with a margin of two.
    ps, pn = np.abs(signal).max(), np.abs(noise).max()
    log2_scale = (np.log2(ps) - np.log2(pn) - target / 20.0 * np.log2(10.0)
                  + 0.5 * np.log2(np.sum((signal / ps) ** 2) / np.sum((noise / pn) ** 2)))
    scaled_noise = _exponents(noise) + int(np.round(log2_scale))
    k = _draw_shift(data.draw, np.concatenate([
        _exponents(np.concatenate([signal, noise, mixture])), scaled_noise - 2, scaled_noise + 2]))
    assert np.array_equal(mix_at_snr(np.ldexp(signal, k), np.ldexp(noise, k), target),
                          np.ldexp(mixture, k))


_ENTRY = st.one_of(st.just(0.0), st.floats(2.0**-500, 2.0**500), st.floats(-(2.0**500), -(2.0**-500)))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRY, min_size=1, max_size=40))
def test_energy_keeps_the_plain_sum_bits(values):
    """Where ``sum(a * a)`` and every nonzero square are normal, the scaled energy
    times ``4 ** x`` is that sum bit for bit."""
    a = np.array(values)
    assume(a.any())
    x, e = _energy(a)
    assert 0.25 <= e <= a.size
    assert np.ldexp(e, 2 * x) == np.sum(a * a)


@pytest.mark.parametrize("fft_size, largest", [(1024, 1018), (512, 509), (128, 127), (16, 15)])
def test_gap_free_hop_limit(fft_size, largest):
    _check_hop(fft_size, largest)
    for hop in (largest + 1, fft_size, fft_size + 1, 10**18):
        with pytest.raises(ValueError, match="gaps"):
            _check_hop(fft_size, hop)
    for hop in (0, -1):
        with pytest.raises(ValueError, match=f"hop {hop} must be an integer of at least 1"):
            _check_hop(fft_size, hop)


@pytest.mark.parametrize("fft_size", [16, 64, 256])
def test_check_hop_agrees_with_istft_zeroing(fft_size):
    # Interior samples of a long stream come out nonzero exactly at the hops
    # the check accepts (every frame is nonzero near its window's edges).
    rng = np.random.default_rng(7)
    for hop in range(1, fft_size + 2):
        n_frames = 2 * (fft_size // hop + 2)
        frames = np.fft.rfft(rng.uniform(0.5, 1.0, size=(n_frames, fft_size)), axis=1).T
        out = istft(frames, hop)
        interior = out[fft_size : (n_frames - 1) * hop]
        try:
            _check_hop(fft_size, hop)
        except ValueError:
            assert np.any(interior == 0.0), hop
        else:
            assert np.all(interior != 0.0), hop
