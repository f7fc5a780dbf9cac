"""Minimal mono 16-bit PCM WAV reading and writing via the stdlib."""
from __future__ import annotations

import wave

import numpy as np

from .core import Array

__all__ = ["read_wav", "write_wav", "SUPPORTED_RATES"]

SUPPORTED_RATES = (8000, 16000)


def read_wav(path: str) -> tuple[Array, int]:
    """Load a mono 16-bit PCM WAV file as float64 samples in [-1, 1).

    Raises ValueError naming the file for a malformed header and for
    unsupported encodings (bit depth other than 16, more than one channel,
    sample rate outside SUPPORTED_RATES).
    """
    try:
        fh = wave.open(path, "rb")
    except (EOFError, RuntimeError, wave.Error) as exc:
        # How the stdlib reader reports an empty, truncated or non-WAVE file.
        raise ValueError(f"{path}: malformed WAV file ({exc!r})") from None
    with fh:
        if fh.getcomptype() != "NONE":
            raise ValueError(f"{path}: compressed WAV not supported")
        if fh.getsampwidth() != 2:
            raise ValueError(
                f"{path}: only 16-bit PCM is supported, "
                f"got {8 * fh.getsampwidth()}-bit"
            )
        if fh.getnchannels() != 1:
            raise ValueError(f"{path}: only mono is supported")
        rate = fh.getframerate()
        if rate not in SUPPORTED_RATES:
            raise ValueError(
                f"{path}: sample rate {rate} not in {SUPPORTED_RATES}"
            )
        raw = fh.readframes(fh.getnframes())
    if len(raw) % 2:
        raise ValueError(f"{path}: data chunk ends inside a sample")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= 32768.0
    return samples, rate


def write_wav(path: str, samples: Array, rate: int) -> None:
    """Write float samples (clipped to [-1, 1], +-inf too) as mono 16-bit PCM.

    The scale matches :func:`read_wav` (full scale = 32768), so a write/read
    round trip moves every in-range sample by at most half a quantization
    step.  A NaN sample raises ``ValueError`` naming ``path``.
    """
    if rate not in SUPPORTED_RATES:
        raise ValueError(f"sample rate {rate} not in {SUPPORTED_RATES}")
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError("samples must be 1-D (mono)")
    if np.isnan(samples).any():
        raise ValueError(f"{path}: samples hold NaN, which has no PCM value")
    scaled = np.multiply(samples, 32768.0)
    np.round(scaled, out=scaled)
    np.clip(scaled, -32768, 32767, out=scaled)
    pcm = scaled.astype("<i2")
    # wave.open(path) on an unopenable path leaves a writer whose __del__ raises.
    with open(path, "wb") as raw, wave.open(raw, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())
