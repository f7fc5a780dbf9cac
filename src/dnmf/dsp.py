"""Short-time Fourier analysis, mask-based reconstruction, and SNR helpers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EPS, Array

__all__ = [
    "Spectrogram",
    "stft",
    "istft",
    "wiener_reconstruct",
    "input_snr",
    "output_snr",
    "mix_at_snr",
]

_WINSUM_CUTOFF = 1e-8


def _hann(n: int) -> Array:
    # Periodic variant: 0.5 - 0.5*cos(2*pi*k/n), zero at k = 0.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass
class Spectrogram:
    """Complex half-spectrum frames plus the parameters that produced them.

    ``frames`` has shape (n_bins, n_frames) with
    ``n_bins == fft_size // 2 + 1``.
    """

    frames: Array
    fft_size: int
    hop: int
    sample_rate: int

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames)
        if self.frames.ndim != 2:
            raise ValueError("frames must be 2-D (bins x frames)")
        if self.frames.shape[0] != self.fft_size // 2 + 1:
            raise ValueError(
                f"bin count {self.frames.shape[0]} does not match "
                f"fft_size {self.fft_size} (expected {self.fft_size // 2 + 1})"
            )
        if self.hop < 1:
            raise ValueError("hop must be positive")

    @property
    def n_bins(self) -> int:
        return self.frames.shape[0]

    @property
    def n_frames(self) -> int:
        return self.frames.shape[1]

    @property
    def magnitude(self) -> Array:
        return np.abs(self.frames)

    @property
    def phase(self) -> Array:
        return np.angle(self.frames)


def stft(signal: Array, fft_size: int, hop: int, sample_rate: int) -> Spectrogram:
    """Hann-windowed short-time Fourier transform, half spectrum kept.

    Frames start at multiples of ``hop``; there is no padding, so the number
    of frames is ``(len(signal) - fft_size) // hop + 1``.

    Parameters
    ----------
    signal : np.ndarray
        Real 1-D signal, at least ``fft_size`` samples long.
    fft_size : int
        Window/FFT length, a power of two.
    hop : int
        Frame advance in samples.
    sample_rate : int
        Carried through for bookkeeping.

    Returns
    -------
    Spectrogram
        Complex frames of shape (fft_size // 2 + 1, n_frames).
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError("signal must be 1-D")
    if fft_size < 2 or fft_size & (fft_size - 1):
        raise ValueError("fft_size must be a power of two")
    if hop < 1:
        raise ValueError("hop must be positive")
    if signal.shape[0] < fft_size:
        raise ValueError(
            f"signal length {signal.shape[0]} shorter than fft_size {fft_size}"
        )
    segments = np.lib.stride_tricks.sliding_window_view(signal, fft_size)[::hop]
    frames = np.fft.rfft(segments * _hann(fft_size), axis=1)
    return Spectrogram(frames.T, fft_size, hop, sample_rate)


def istft(spec: Spectrogram) -> Array:
    """Overlap-add inverse with a matching Hann synthesis window.

    Each inverse frame is windowed again, accumulated at its original offset,
    and the result is divided samplewise by the summed squared window.
    Every sample whose summed squared window falls below 1e-8 is set to zero.
    The periodic Hann window is zero at its first sample and tiny near both
    ends, so at any hop this zeroes the first and last samples of the output
    (samples 0-3 and the last three at ``fft_size`` 1024, sample 0 alone at
    256 or less), and at hops near ``fft_size`` also frame edges inside it.
    Output length is ``fft_size + (n_frames - 1) * hop``.
    """
    window = _hann(spec.fft_size)
    length = spec.fft_size + (spec.n_frames - 1) * spec.hop
    out = np.zeros(length)
    wsum = np.zeros(length)
    for t in range(spec.n_frames):
        start = t * spec.hop
        frame = np.fft.irfft(spec.frames[:, t], n=spec.fft_size)
        out[start : start + spec.fft_size] += frame * window
        wsum[start : start + spec.fft_size] += window * window
    good = wsum >= _WINSUM_CUTOFF
    out[good] /= wsum[good]
    out[~good] = 0.0
    return out


def wiener_reconstruct(mix_mag: Array, est1: Array, est2: Array) -> tuple[Array, Array]:
    """Split a mixture magnitude between two source estimates by soft masking.

    The first output is ``mix_mag * est1 / (est1 + est2)`` (denominator
    floored at ``EPS``); the second is the remainder ``mix_mag - first``, so
    the two sum back to the mixture to within one float64 rounding step.

    Parameters
    ----------
    mix_mag, est1, est2 : np.ndarray
        Nonnegative arrays of identical shape (vectors or full spectrograms).

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
    if np.any(est1 < 0.0) or np.any(est2 < 0.0) or np.any(mix_mag < 0.0):
        raise ValueError("magnitudes must be nonnegative")
    mask = est1 / np.maximum(est1 + est2, EPS)
    part1 = mask * mix_mag
    return part1, mix_mag - part1


def _energy_ratio_db(reference: Array, error: Array) -> float:
    num = float(np.sum(reference * reference))
    den = float(np.sum(error * error))
    if den <= 0.0:
        return float("inf")
    return 10.0 * np.log10(num / den)


def input_snr(clean: Array, noisy: Array) -> float:
    """SNR in dB of ``noisy`` relative to ``clean``: 10*log10(|x|^2/|y-x|^2)."""
    clean = np.asarray(clean, dtype=np.float64)
    noisy = np.asarray(noisy, dtype=np.float64)
    if clean.shape != noisy.shape:
        raise ValueError("signals must share one shape")
    if float(np.sum(clean * clean)) <= 0.0:
        raise ValueError("clean signal has zero energy")
    value = _energy_ratio_db(clean, noisy - clean)
    if value == float("inf"):
        raise ValueError("noise component has zero energy; SNR is infinite")
    return value


def output_snr(reference: Array, estimate: Array) -> float:
    """SNR in dB of an estimate against its reference; +inf for exact match."""
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape:
        raise ValueError("signals must share one shape")
    if float(np.sum(reference * reference)) <= 0.0:
        raise ValueError("reference signal has zero energy")
    return _energy_ratio_db(reference, estimate - reference)


def mix_at_snr(signal: Array, noise: Array, target_snr_db: float) -> Array:
    """Scale ``noise`` and add it to ``signal`` to hit an exact SNR.

    Parameters
    ----------
    signal : np.ndarray
        Reference signal with positive energy.
    noise : np.ndarray
        Interference with positive energy, same shape.
    target_snr_db : float
        Desired ``input_snr(signal, mixture)`` in dB; must be finite.

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
    es = float(np.sum(signal * signal))
    en = float(np.sum(noise * noise))
    if es <= 0.0:
        raise ValueError("signal has zero energy")
    if en <= 0.0:
        raise ValueError("noise has zero energy")
    scale = np.sqrt(es / (en * 10.0 ** (target_snr_db / 10.0)))
    return signal + scale * noise
