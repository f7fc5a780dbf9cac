import re
import wave

import numpy as np
import pytest

from dnmf.wav import SUPPORTED_RATES, read_wav, write_wav


def test_round_trip_within_quantization(tmp_path):
    rng = np.random.default_rng(1)
    samples = rng.uniform(-0.9, 0.9, size=4000)
    path = str(tmp_path / "x.wav")
    write_wav(path, samples, 16000)
    loaded, rate = read_wav(path)
    assert rate == 16000
    assert loaded.shape == samples.shape
    assert np.max(np.abs(loaded - samples)) <= 0.5 / 32768.0 + 1e-12


def test_write_clips_out_of_range(tmp_path):
    path = str(tmp_path / "clip.wav")
    write_wav(path, np.array([2.0, -2.0, 0.0]), 8000)
    loaded, _ = read_wav(path)
    assert loaded[0] == pytest.approx(32767.0 / 32768.0)
    assert loaded[1] == pytest.approx(-1.0)
    assert loaded[2] == 0.0


def test_write_bytes_match_clip_of_rounded_scale(tmp_path):
    # Full scale on both sides, clipping beyond it, and .5 ties (rounded
    # half to even) at the edges and in between.
    samples = np.array([1.0, -1.0, 1.5, -1.5, 32767.5 / 32768.0, -32768.5 / 32768.0,
                        0.5 / 32768.0, 1.5 / 32768.0, -2.5 / 32768.0, 100.5 / 32768.0,
                        0.0, -0.0, 0.25, -0.7, 1e-9])
    path = str(tmp_path / "ties.wav")
    write_wav(path, samples, 8000)
    with wave.open(path, "rb") as fh:
        data = fh.readframes(fh.getnframes())
    want = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    assert data == want.tobytes()
    assert np.frombuffer(data, dtype="<i2")[:10].tolist() == [
        32767, -32768, 32767, -32768, 32767, -32768, 0, 2, -2, 100]
    loaded, _ = read_wav(path)
    np.testing.assert_array_equal(loaded, want / 32768.0)


def test_write_rejects_bad_inputs(tmp_path):
    path = str(tmp_path / "bad.wav")
    with pytest.raises(ValueError):
        write_wav(path, np.zeros(10), 44100)
    with pytest.raises(ValueError):
        write_wav(path, np.zeros((2, 10)), 8000)


def test_write_rejects_nan_and_clips_infinities(tmp_path):
    # NaN has no PCM value: it is an error naming the file, which is not
    # created, rather than silence.
    path = tmp_path / "nan.wav"
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*NaN"):
        write_wav(str(path), np.array([0.1, np.nan, np.inf, -np.inf, 0.2]), 8000)
    assert not path.exists()
    # +-inf clip to full scale, as any out-of-range sample does.
    path = str(tmp_path / "inf.wav")
    write_wav(path, np.array([0.1, np.inf, -np.inf, 0.2]), 8000)
    with wave.open(path, "rb") as fh:
        data = fh.readframes(fh.getnframes())
    assert np.frombuffer(data, dtype="<i2").tolist() == [3277, 32767, -32768, 6554]


def test_read_rejects_stereo(tmp_path):
    path = str(tmp_path / "stereo.wav")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(b"\x00\x00" * 200)
    with pytest.raises(ValueError):
        read_wav(path)


def test_read_rejects_wrong_width(tmp_path):
    path = str(tmp_path / "w8.wav")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(16000)
        fh.writeframes(b"\x00" * 100)
    with pytest.raises(ValueError):
        read_wav(path)


def test_read_rejects_unsupported_rate(tmp_path):
    path = str(tmp_path / "r44.wav")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(44100)
        fh.writeframes(b"\x00\x00" * 100)
    with pytest.raises(ValueError):
        read_wav(path)


def test_supported_rates_cover_both_scenarios():
    assert 8000 in SUPPORTED_RATES
    assert 16000 in SUPPORTED_RATES
