"""Short-time Fourier analysis, mask-based reconstruction, and SNR helpers."""
from __future__ import annotations

import numpy as np

from .core import EPS, Array, _checked_int

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


def wiener_reconstruct(mix_mag: Array, est1: Array, est2: Array) -> tuple[Array, Array]:
    """Split a mixture magnitude between two source estimates by soft masking.

    The first output is ``mix_mag * est1 / (est1 + est2)`` (denominator
    floored at ``EPS``); the second is the remainder ``mix_mag - first``, so
    the two sum back to the mixture to within one float64 rounding step.
    The mask is built in the first output's buffer, with no other temporary.

    Parameters
    ----------
    mix_mag, est1, est2 : np.ndarray
        Nonnegative arrays of identical shape (vectors or full spectrograms);
        a negative or NaN entry raises ``ValueError``.

    Returns
    -------
    (part1, part2) : tuple of np.ndarray
        Nonnegative splits of ``mix_mag``.
    """
    mix_mag = np.asarray(mix_mag, dtype=np.float64)
    est1 = np.asarray(est1, dtype=np.float64)
    est2 = np.asarray(est2, dtype=np.float64)
    if not (mix_mag.shape == est1.shape == est2.shape):
        raise ValueError("all inputs must share one shape")
    # The minimum of an array holding NaN is NaN, which fails ``>= 0``.
    if mix_mag.size and not all(x.min() >= 0.0 for x in (mix_mag, est1, est2)):
        raise ValueError("magnitudes must be nonnegative")
    part1 = np.add(est1, est2)
    np.maximum(part1, EPS, out=part1)
    np.divide(est1, part1, out=part1)
    part1 *= mix_mag
    return part1, mix_mag - part1


def output_snr(reference: Array, estimate: Array) -> float:
    """SNR in dB of an estimate against its reference; +inf for exact match."""
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape:
        raise ValueError("signals must share one shape")
    num = float(np.sum(reference * reference))
    if num <= 0.0:
        raise ValueError("reference signal has zero energy")
    error = estimate - reference
    den = float(np.sum(error * error))
    if den <= 0.0:
        return float("inf")
    return 10.0 * np.log10(num / den)


def mix_at_snr(signal: Array, noise: Array, target_snr_db: float) -> Array:
    """Scale ``noise`` and add it to ``signal`` to hit an exact SNR.

    Parameters
    ----------
    signal : np.ndarray
        Finite reference signal, not all zero; any float64 magnitude.
    noise : np.ndarray
        Finite interference, not all zero, of the same shape.
    target_snr_db : float
        Desired ``output_snr(signal, mixture)`` in dB; finite, and within
        about +-3000 dB, so that the noise scale is a positive float64.

    Returns
    -------
    np.ndarray
        ``signal + scale * noise`` with the scale chosen so the realized SNR
        matches the target to well under 1e-9 dB.
    """
    signal = np.asarray(signal, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if signal.shape != noise.shape:
        raise ValueError("signal and noise must share one shape")
    if not np.isfinite(target_snr_db):
        raise ValueError("target SNR must be finite")
    for name, a in (("signal", signal), ("noise", noise)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
        if not a.any():
            raise ValueError(f"{name} has zero energy")
    with np.errstate(all="ignore"):  # float64: 0 or inf, no Python OverflowError
        es, en, ps, pn = np.sum(signal * signal), np.sum(noise * noise), 1.0, 1.0
        if not (0.0 < es < np.inf and 0.0 < en < np.inf):
            # An energy outside float64: form both from the arguments over their peaks.
            ps, pn = np.max(np.abs(signal)), np.max(np.abs(noise))
            es, en = np.sum((signal / ps) ** 2), np.sum((noise / pn) ** 2)
        scale = ps / pn * np.sqrt(es / (en * np.float64(10.0) ** (target_snr_db / 10.0)))
    if not (np.isfinite(scale) and scale > 0.0):
        raise ValueError(f"target SNR {target_snr_db:g} dB needs a noise scale outside float64")
    return signal + scale * noise
