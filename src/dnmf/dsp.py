"""Short-time Fourier analysis, mask-based reconstruction, and SNR helpers."""
from __future__ import annotations

import math

import numpy as np

from .core import EPS, Array, _checked_arrays, _checked_int

__all__ = [
    "stft",
    "istft",
    "wiener_reconstruct",
    "output_snr",
    "mix_at_snr",
]

_WINSUM_CUTOFF = 1e-8
# Frames per bulk FFT in stft and istft.
_BLOCK = 128
_TINY = float(np.finfo(np.float64).tiny)


def _hann(n: int) -> Array:
    # Periodic variant: 0.5 - 0.5*cos(2*pi*k/n), zero at k = 0.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _check_fft_size(fft_size) -> int:
    """``int(fft_size)`` for a power of two of at least 2; else ``ValueError``."""
    fft_size = _checked_int(fft_size, "fft_size", 2)
    if fft_size & (fft_size - 1):
        raise ValueError(f"fft_size {fft_size} must be a power of two")
    return fft_size


def _check_hop(fft_size: int, hop: int) -> None:
    """Raise ``ValueError`` unless :func:`istft` keeps every interior sample:
    offset ``r`` of each hop sums the squared window at ``r, r + hop, ...``,
    and a sum below the cutoff would zero that offset in every hop."""
    _checked_int(hop, "hop", 1)
    if hop < fft_size:
        wsq = np.zeros(-(-fft_size // hop) * hop)  # rows of the view: window slabs
        wsq[:fft_size] = _hann(fft_size) ** 2
        if wsq.reshape(-1, hop).sum(axis=0).min() >= _WINSUM_CUTOFF:
            return
    raise ValueError(f"hop {hop} leaves gaps between fft-{fft_size} frames; use a smaller hop")


def stft(signal: Array, fft_size: int, hop: int) -> Array:
    """Hann-windowed short-time Fourier transform, half spectrum kept.

    Frames start at multiples of ``hop``; there is no padding, so the number
    of frames is ``(len(signal) - fft_size) // hop + 1``.  Frames are
    windowed and transformed 128 at a time into one preallocated output,
    bit-identical to transforming them one by one.

    Parameters
    ----------
    signal : np.ndarray
        Real 1-D signal, at least ``fft_size`` samples long.
    fft_size : int
        Window/FFT length, a power of two of at least 2.
    hop : int
        Frame advance in samples, at least 1.

    Returns
    -------
    np.ndarray
        Complex frames of shape (fft_size // 2 + 1, n_frames).
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError("signal must be 1-D")
    _check_fft_size(fft_size)
    _checked_int(hop, "hop", 1)
    if signal.shape[0] < fft_size:
        raise ValueError(
            f"signal length {signal.shape[0]} shorter than fft_size {fft_size}"
        )
    segments = np.lib.stride_tricks.sliding_window_view(signal, fft_size)[::hop]
    window = _hann(fft_size)
    out = np.empty((segments.shape[0], fft_size // 2 + 1), dtype=np.complex128)
    for b in range(0, segments.shape[0], _BLOCK):
        out[b : b + _BLOCK] = np.fft.rfft(segments[b : b + _BLOCK] * window, axis=1)
    return out.T


def istft(frames: Array, hop: int) -> Array:
    """Overlap-add inverse with a matching Hann synthesis window.

    ``frames`` is a complex (n_bins, n_frames) half spectrum as returned by
    :func:`stft`; the FFT size is ``2 * (n_bins - 1)``, which must be a power
    of two.  Each inverse frame is windowed again, accumulated at its original
    offset, and the result is divided samplewise by the summed squared window.
    Every sample whose summed squared window falls below 1e-8 is set to zero.
    The periodic Hann window is zero at its first sample and tiny near both
    ends, so at any hop this zeroes the first and last samples of the output
    (samples 0-3 and the last three at ``fft_size`` 1024, sample 0 alone at
    256 or less), and at hops near ``fft_size`` also frame edges inside it.
    Output length is ``fft_size + (n_frames - 1) * hop``.  The inverse is
    linear in ``frames``: inverting a sum of spectrograms gives the sum of
    their inverses, up to rounding.

    The inverse transforms run in blocks of 128 frames, and each block is
    added as ``ceil(fft_size / hop)`` hop-wide slabs, last slab first, so
    that every sample sums its frames in frame order.  The squared-window sum
    repeats with period ``hop`` away from both ends, so it is built for a
    stream of at most ``n_slabs`` frames in the same slab order, and its one
    full row divides every interior row of the output.  The output is
    therefore bit-identical to a loop that inverts and adds one frame at a
    time, while no temporary larger than one block is made.
    """
    frames = np.asarray(frames)
    if frames.ndim != 2:
        raise ValueError("frames must be 2-D (bins x frames)")
    half = frames.shape[0] - 1
    if half < 1 or half & (half - 1):
        raise ValueError(
            f"bin count {frames.shape[0]} is not a power of two plus one"
        )
    if frames.shape[1] < 1:
        raise ValueError("frames must hold at least one frame")
    _checked_int(hop, "hop", 1)
    fft_size = 2 * half
    n_frames = frames.shape[1]
    window = _hann(fft_size)
    wsq = window * window
    # Row r of the (rows, hop) views holds samples r*hop .. r*hop + hop - 1,
    # and slab k (frame samples k*hop onwards) of frame t lands in row t + k.
    n_slabs = -(-fft_size // hop)
    slabs = [
        (k, k * hop, min(hop, fft_size - k * hop)) for k in reversed(range(n_slabs))
    ]
    rows = n_frames - 1 + n_slabs
    out = np.zeros(rows * hop)
    out_rows = out.reshape(rows, hop)
    for b in range(0, n_frames, _BLOCK):
        block = np.fft.irfft(frames[:, b : b + _BLOCK], n=fft_size, axis=0).T
        block *= window
        for k, lo, width in slabs:
            dest = out_rows[b + k : b + k + block.shape[0], :width]
            dest += block[:, lo : lo + width]
    # Every slab reaches rows n_slabs - 1 .. n_frames - 1 alike, so the
    # squared-window sum of the first min(n_frames, n_slabs) frames holds
    # every distinct row: the head, one full row (if any) and the tail.
    short = min(n_frames, n_slabs)
    wsum_rows = np.zeros((short - 1 + n_slabs, hop))
    for k, lo, width in slabs:
        wsum_rows[k : k + short, :width] += wsq[lo : lo + width]
    edge = min(n_slabs - 1, n_frames)
    spans = (
        (out_rows[:edge], wsum_rows[:edge]),
        (out_rows[edge:n_frames], wsum_rows[edge]),
        (out_rows[n_frames:], wsum_rows[short:]),
    )
    for span, wsum in spans:
        good = wsum >= _WINSUM_CUTOFF
        np.divide(span, wsum, out=span, where=good)
        np.copyto(span, 0.0, where=~good)
    return out[: fft_size + (n_frames - 1) * hop]


def _soft_mask(est1: Array, est2: Array) -> Array:
    """The Wiener gain of source 1, ``est1 / max(est1 + est2, EPS)``, in a new array."""
    mask = np.add(est1, est2)
    np.maximum(mask, EPS, out=mask)
    return np.divide(est1, mask, out=mask)


def wiener_reconstruct(mix_mag: Array, est1: Array, est2: Array) -> tuple[Array, Array]:
    """Split a mixture magnitude between two source estimates by soft masking.

    The first output is ``mix_mag`` times :func:`_soft_mask`'s gain ``est1 /
    max(est1 + est2, EPS)``, the one Wiener gain that ``separate_sources``
    applies too; the second is the remainder ``mix_mag - first``, so the two
    sum back to the mixture to within one float64 rounding step.  The mask is
    built in the first output's buffer, with no other temporary.

    Parameters
    ----------
    mix_mag, est1, est2 : np.ndarray
        Nonnegative arrays of identical shape (vectors or full spectrograms);
        a negative, NaN or infinite entry raises ``ValueError``.

    Returns
    -------
    (part1, part2) : tuple of np.ndarray
        Nonnegative splits of ``mix_mag``.
    """
    mix_mag, est1, est2 = _checked_arrays(mix_mag=mix_mag, est1=est1, est2=est2)
    if mix_mag.size and not all(x.min() >= 0.0 for x in (mix_mag, est1, est2)):
        raise ValueError("magnitudes must be nonnegative")
    part1 = _soft_mask(est1, est2)
    part1 *= mix_mag
    return part1, mix_mag - part1


def _energy(a: Array) -> tuple[int, float]:
    """``(x, e)``: ``x`` the binary exponent of ``max|a|``, ``e`` in [0.25, a.size] the
    energy of the exactly scaled ``a * 2 ** -x``; ``4 ** x * e`` is ``sum(a * a)`` bit for
    bit where that sum and every square are normal; ``(0, 0.0)`` for all-zero ``a``."""
    x = math.frexp(max(a.max(initial=0.0), -a.min(initial=0.0)))[1]
    s = np.ldexp(a, -x)
    s *= s
    return x, float(np.sum(s))


def output_snr(reference: Array, estimate: Array) -> float:
    """SNR in dB of an estimate against its reference; +inf for exact match.
    A non-finite entry or a shape mismatch raises ``ValueError`` naming the
    argument.  Energies keep their binary exponents apart (both arrays halved
    where a peak reaches 2 ** 1023), so the result has the plain formula's bits
    where its ratio is normal, stays put when both arrays are scaled by a power
    of two that keeps every entry normal, and is finite unless the match is
    exact: within +-12632 dB plus ``10 log10`` of the length."""
    reference, estimate = _checked_arrays(reference=reference, estimate=estimate)
    xr, er = _energy(reference)
    if er == 0.0:
        raise ValueError("reference signal has zero energy")
    pe = max(estimate.max(initial=0.0), -estimate.min(initial=0.0))
    x = max(xr, math.frexp(pe)[1], 1023) - 1023
    xe, ee = _energy(np.ldexp(estimate, -x) - np.ldexp(reference, -x))
    if ee == 0.0:
        return float("inf")
    q, d = er / ee, 2 * (xr - xe - x)  # the plain ratio is q * 2 ** d
    if -1021 <= math.frexp(q)[1] + d <= 1024:  # a normal float64
        return 10.0 * np.log10(np.ldexp(q, d))
    return 10.0 * np.log10(q) + 10.0 * d * np.log10(2.0)


def mix_at_snr(signal: Array, noise: Array, target_snr_db: float) -> Array:
    """Scale ``noise`` and add it to ``signal`` to hit an exact SNR.

    Parameters
    ----------
    signal : np.ndarray
        Finite reference signal, not all zero; any float64 magnitude.
    noise : np.ndarray
        Finite interference, not all zero, of the same shape.
    target_snr_db : float
        Desired ``output_snr(signal, mixture)`` in dB; finite, and from about
        -3200 to 3080 dB, so that ``10 ** (target_snr_db / 10)`` is positive.

    Returns
    -------
    np.ndarray
        ``signal + scale * noise`` with the scale chosen so the realized SNR
        matches the target to well under 1e-9 dB (the plain formula's bits where
        its energies are normal, exactly scaled with the arguments).  ``ValueError``
        where the scale is not normal or the mixture is not finite.
    """
    signal, noise = _checked_arrays(signal=signal, noise=noise)
    (ps, es), (pn, en) = _energy(signal), _energy(noise)
    for name, e in (("signal", es), ("noise", en)):
        if e == 0.0:
            raise ValueError(f"{name} has zero energy")
    # 2 ** (ps - pn) * sqrt(es / (en * gain)) on significands, powers of two apart.
    with np.errstate(all="ignore"):  # float64 0, inf or nan: no Python error
        gain = np.float64(10.0) ** (target_snr_db / 10.0)
        (ms, mn, mg), (xs, xn, xg) = np.frexp([es, en, gain])
        x = xs - xn - xg
        scale = np.ldexp(np.sqrt(ms * 2.0 ** (x % 2) / (mn * mg)), ps - pn + x // 2)
        mixture = scale * noise  # += signal: the same bits, one temporary fewer
        mixture += signal
    if not (_TINY <= scale and -math.inf < mixture.min() and mixture.max() < math.inf):
        raise ValueError(
            f"target SNR {target_snr_db:g} dB needs a noise scale or a mixture outside float64")
    return mixture
