import contextlib
import dataclasses
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnmf.cli
import dnmf.experiments
from dnmf.cli import load_model, main, save_model
from dnmf.core import normalize_columns
from dnmf.dsp import istft, mix_at_snr, stft
from dnmf.experiments import (ExperimentReport, SeparationScenario, TrackingScenario,
                              gen_chirp_pair)
from dnmf.statespace import FilterState, TrainConfig, filter_stream, train
from dnmf.wav import read_wav, write_wav
from test_statespace import _sparse_problem


def _small_model(rng, k=9, i=3, order=1):
    basis = normalize_columns(rng.uniform(0.05, 1.0, size=(k, i)))
    lags = [rng.uniform(0.1, 0.9, size=(i, i)) for _ in range(order)]
    from dnmf.statespace import DnmfModel

    return DnmfModel(basis=basis, lags=lags)


def test_save_load_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    model = _small_model(rng)
    path = str(tmp_path / "m.json")
    save_model(model, path, train_q=0.15, metadata={"note": "round trip"})
    loaded, q, meta = load_model(path)
    assert q == 0.15
    assert meta == {"note": "round trip"}
    np.testing.assert_array_equal(loaded.basis, model.basis)
    np.testing.assert_array_equal(loaded.lags[0], model.lags[0])


def test_loaded_model_filters_identically(tmp_path):
    rng = np.random.default_rng(3)
    model = _small_model(rng)
    path = str(tmp_path / "m.json")
    save_model(model, path, train_q=0.1)
    loaded, _, _ = load_model(path)
    frames = rng.uniform(0.0, 1.0, size=(9, 8))
    s1 = FilterState(model, anneal=0.1)
    s2 = FilterState(loaded, anneal=0.1)
    for t in range(8):
        np.testing.assert_array_equal(
            filter_stream(s1, frames[:, t : t + 1]),
            filter_stream(s2, frames[:, t : t + 1]),
        )


def test_load_model_rejects_bad_documents(tmp_path):
    rng = np.random.default_rng(4)
    model = _small_model(rng)
    path = str(tmp_path / "m.json")
    save_model(model, path, train_q=0.15)
    doc = json.loads(Path(path).read_text())

    bad = dict(doc, format_version=99)
    p = tmp_path / "v.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_model(str(p))

    bad = dict(doc, K=5)
    p = tmp_path / "k.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_model(str(p))

    bad = dict(doc, J=2)
    p = tmp_path / "j.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_model(str(p))

    w = np.asarray(doc["W"])
    w[0][0] += 1e-3
    bad = dict(doc, W=w.tolist())
    p = tmp_path / "w.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(ValueError):
        load_model(str(p))

    no_basis = {k: v for k, v in doc.items() if k != "W"}
    for name, bad in (("nw", no_basis), ("a", dict(doc, A=5)), ("list", [doc])):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=re.escape(str(p))):
            load_model(str(p))
    # Bytes that are not JSON, and bytes that are not UTF-8.
    for name, raw in (("trunc", b'{"format_version": 1, "K'), ("latin1", b'{"\xe9": 1}')):
        p = tmp_path / f"{name}.json"
        p.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(str(p))):
            load_model(str(p))

    # Through the CLI the same documents are input errors: exit code 2.
    mix = str(tmp_path / "mix.wav")
    write_wav(mix, np.zeros(4096), 16000)
    code = main(
        [
            "separate",
            "--mixture",
            mix,
            "--model1",
            str(tmp_path / "nw.json"),
            "--model2",
            path,
            "--out1",
            str(tmp_path / "x1.wav"),
            "--out2",
            str(tmp_path / "x2.wav"),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "field, value",
    [("format_version", True), ("K", 9.0), ("I", 3.0), ("J", 1.0), ("J", True),
     ("train_q", "0.5"), ("train_q", False), ("train_q", 10 ** 400)],
    ids=["version-true", "K-float", "I-float", "J-float", "J-true", "q-str", "q-false",
         "q-huge-int"],
)
def test_type_confused_model_fields_exit_2(tmp_path, capsys, field, value):
    # Each value compares equal to, or converts to, what the field should hold.
    args = _separate_args(tmp_path, np.random.default_rng(19), 800)
    doc = json.loads(Path(args[4]).read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(doc, **{field: value})))
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        load_model(str(bad))
    outs = [tmp_path / "o1.wav", tmp_path / "o2.wav"]
    argv = args[:4] + [str(bad)] + args[5:] + ["--out1", str(outs[0]), "--out2", str(outs[1])]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: ")
    assert not any(p.exists() for p in outs)


def test_train_q_outside_the_anneal_range_is_rejected(tmp_path):
    # train_q is the annealing exponent the model was trained with: (0, 1].
    model = _small_model(np.random.default_rng(4))
    path = tmp_path / "m.json"
    with pytest.raises(ValueError, match=re.escape("train_q 2.0 must lie in (0, 1]")):
        save_model(model, str(path), train_q=2.0)
    assert not path.exists()
    save_model(model, str(path), train_q=0.15)
    doc = json.loads(path.read_text())
    for q in (0, 2.0, -0.5):
        path.write_text(json.dumps(dict(doc, train_q=q)))
        with pytest.raises(ValueError, match=re.escape(f"{path}: train_q {q!r} must lie in")):
            load_model(str(path))


def test_load_model_renormalizes_small_drift(tmp_path):
    rng = np.random.default_rng(5)
    model = _small_model(rng)
    path = str(tmp_path / "m.json")
    save_model(model, path, train_q=0.15)
    doc = json.loads(Path(path).read_text())
    w = np.asarray(doc["W"])
    w[0][0] += 5e-8
    (tmp_path / "drift.json").write_text(json.dumps(dict(doc, W=w.tolist())))
    with pytest.warns(UserWarning):
        loaded, _, _ = load_model(str(tmp_path / "drift.json"))
    np.testing.assert_allclose(loaded.basis.sum(axis=0), 1.0, atol=1e-12)


def test_train_command_on_csv(tmp_path, capsys):
    rng = np.random.default_rng(6)
    mat = rng.uniform(0.0, 1.0, size=(12, 30))
    csv = tmp_path / "data.csv"
    np.savetxt(csv, mat, delimiter=",")
    out = tmp_path / "model.json"
    code = main(
        [
            "train",
            str(csv),
            "--rank",
            "3",
            "--order",
            "1",
            "--iters",
            "10",
            "--m",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "objective:" in capsys.readouterr().out
    loaded, q, _ = load_model(str(out))
    assert q == 0.15
    assert loaded.basis.shape == (12, 3)
    assert loaded.order == 1

    # The CLI is a thin wrapper: same config through the API, same matrices.
    want, _ = train(
        np.loadtxt(csv, delimiter=",", ndmin=2),
        3,
        1,
        TrainConfig(iters=10, prior_start=5, seed=0),
    )
    np.testing.assert_array_equal(loaded.basis, want.basis)
    np.testing.assert_array_equal(loaded.lags[0], want.lags[0])


def test_train_command_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(7)
    csv = tmp_path / "d.csv"
    np.savetxt(csv, rng.uniform(0.0, 1.0, size=(8, 16)), delimiter=",")
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    args = ["train", str(csv), "--rank", "2", "--iters", "6", "--m", "3"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_train_command_bytes_repeat_across_processes(tmp_path):
    # The stated contract: the same numpy/BLAS build and BLAS thread count
    # write the same model bytes, in fresh processes with different hash seeds.
    rng = np.random.default_rng(9)
    csv = tmp_path / "d.csv"
    np.savetxt(csv, rng.uniform(0.0, 1.0, size=(16, 40)), delimiter=",")
    src = str(Path(dnmf.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for hash_seed in ("1", "2"):
        outs.append(tmp_path / f"m{hash_seed}.json")
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed,
                   OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "dnmf.cli", "train", str(csv), "--rank", "3", "--order", "2",
             "--iters", "6", "--m", "3", "--out", str(outs[-1])],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_train_command_bytes_independent_of_input_directory(tmp_path):
    rng = np.random.default_rng(8)
    samples = 0.3 * rng.standard_normal(4000)
    outs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        wav = str(tmp_path / name / "clip.wav")
        write_wav(wav, samples, 8000)
        outs.append(tmp_path / name / "m.json")
        args = ["train", wav, "--rank", "2", "--order", "1", "--iters", "4", "--m", "2"]
        assert main(args + ["--fft", "128", "--hop", "64", "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert load_model(str(outs[0]))[2]["source"] == "clip.wav"


def _write_separation_fixture(tmp_path):
    """Mixture WAV plus two trained model files on a short chirp pair."""
    sc = SeparationScenario(duration=0.6, rank=6)
    s1, s2 = gen_chirp_pair(sc)
    s1 = 0.4 * s1
    s2 = 0.4 * s2
    mix = mix_at_snr(s1, s2, 0.0)
    mix_path = str(tmp_path / "mix.wav")
    write_wav(mix_path, mix, sc.sample_rate)
    cfg = TrainConfig(iters=25, prior_start=15, seed=0)
    paths = []
    for name, sig in (("a", s1), ("b", s2)):
        mag = np.abs(stft(sig, sc.fft_size, sc.hop))
        model, _ = train(mag, sc.rank, 1, cfg)
        path = str(tmp_path / f"{name}.json")
        save_model(model, path, train_q=0.1)
        paths.append(path)
    return mix_path, paths[0], paths[1], sc


def test_separate_command_outputs_partition_mixture(tmp_path):
    mix_path, model_a, model_b, sc = _write_separation_fixture(tmp_path)
    out1 = str(tmp_path / "out1.wav")
    out2 = str(tmp_path / "out2.wav")
    code = main(
        [
            "separate",
            "--mixture",
            mix_path,
            "--model1",
            model_a,
            "--model2",
            model_b,
            "--out1",
            out1,
            "--out2",
            out2,
        ]
    )
    assert code == 0

    # The two estimates must rebuild the mixture-magnitude resynthesis.
    mix, _ = read_wav(mix_path)
    spec = stft(mix, sc.fft_size, sc.hop)
    ref = istft(np.abs(spec) * np.exp(1j * np.angle(spec)), sc.hop)
    y1, _ = read_wav(out1)
    y2, _ = read_wav(out2)
    total = y1 + y2
    n = min(total.shape[0], ref.shape[0])
    lo, hi = sc.fft_size, n - sc.fft_size
    err = np.max(np.abs(total[lo:hi] - ref[lo:hi]))
    assert err / np.max(np.abs(ref[lo:hi])) < 1e-4


def test_denoise_command_writes_primary_estimate(tmp_path):
    mix_path, model_a, model_b, _ = _write_separation_fixture(tmp_path)
    out = str(tmp_path / "clean.wav")
    code = main(
        [
            "denoise",
            "--input",
            mix_path,
            "--speech-model",
            model_a,
            "--noise-model",
            model_b,
            "--out",
            out,
        ]
    )
    assert code == 0
    y, rate = read_wav(out)
    assert rate == 16000
    assert y.shape[0] > 0


def test_separate_outputs_sum_to_mixture_resynthesis(tmp_path, monkeypatch):
    # The second source is the mixture's resynthesis minus the first, so
    # before 16-bit quantization the two sum to istft(mixture frames).
    _, model_a, model_b, sc = _write_separation_fixture(tmp_path)
    rng = np.random.default_rng(9)
    mix_path = str(tmp_path / "odd.wav")
    write_wav(mix_path, rng.uniform(-0.3, 0.3, size=16100), sc.sample_rate)
    written = {}

    def capture(path, samples, rate):
        written[path] = np.array(samples)
        write_wav(path, samples, rate)

    monkeypatch.setattr(dnmf.cli, "write_wav", capture)
    out1, out2, out3 = (str(tmp_path / f"o{i}.wav") for i in range(3))
    models = ["--model1", model_a, "--model2", model_b]
    assert main(["separate", "--mixture", mix_path, *models, "--q", "0.3",
                 "--out1", out1, "--out2", out2]) == 0
    mix, _ = read_wav(mix_path)
    padded = np.pad(mix, (0, (sc.fft_size - mix.shape[0]) % sc.hop))
    ref = istft(stft(padded, sc.fft_size, sc.hop), sc.hop)[: mix.shape[0]]
    np.testing.assert_allclose(written[out1] + written[out2], ref, rtol=0.0, atol=1e-12)
    # denoise inverts the same first source at the same annealing exponent.
    assert main(["denoise", "--input", mix_path, "--speech-model", model_a,
                 "--noise-model", model_b, "--out", out3]) == 0
    assert np.array_equal(written[out3], written[out1])
    assert Path(out3).read_bytes() == Path(out1).read_bytes()


def test_separate_and_denoise_keep_every_input_sample(tmp_path):
    # 16100 - 1024 is not a multiple of the 256-sample hop, so the last
    # frame must be zero-padded rather than dropped with the tail.
    _, model_a, model_b, sc = _write_separation_fixture(tmp_path)
    rng = np.random.default_rng(9)
    mix_path = str(tmp_path / "odd.wav")
    write_wav(mix_path, rng.uniform(-0.3, 0.3, size=16100), sc.sample_rate)
    out1, out2, out3 = (str(tmp_path / f"o{i}.wav") for i in range(3))
    models = ["--model1", model_a, "--model2", model_b]
    assert main(["separate", "--mixture", mix_path, *models,
                 "--out1", out1, "--out2", out2]) == 0
    assert main(["denoise", "--input", mix_path, "--speech-model", model_a,
                 "--noise-model", model_b, "--out", out3]) == 0
    for path in (out1, out2, out3):
        y, _ = read_wav(path)
        assert y.shape[0] == 16100
        assert np.any(y[-100:] != 0.0)


@pytest.mark.xfail(
    strict=True,
    reason="istft zeroes samples 0-3 at fft 1024, where the squared periodic "
    "Hann window sums below its 1e-8 cutoff; the fix changes the frame count",
)
def test_separate_outputs_rebuild_first_samples(tmp_path):
    _, model_a, model_b, sc = _write_separation_fixture(tmp_path)
    rng = np.random.default_rng(9)
    mix_path = str(tmp_path / "noise.wav")
    write_wav(mix_path, rng.uniform(-0.3, 0.3, size=16100), sc.sample_rate)
    out1, out2 = str(tmp_path / "o1.wav"), str(tmp_path / "o2.wav")
    assert main(["separate", "--mixture", mix_path, "--model1", model_a,
                 "--model2", model_b, "--out1", out1, "--out2", out2]) == 0
    mix, _ = read_wav(mix_path)
    y1, _ = read_wav(out1)
    y2, _ = read_wav(out2)
    # Each output is quantized to 16 bits, so the sum is within two steps.
    assert np.max(np.abs(y1[:4] + y2[:4] - mix[:4])) <= 2.0 / 32768.0


def test_separate_rejects_mismatched_models(tmp_path):
    mix_path, model_a, _, _ = _write_separation_fixture(tmp_path)
    rng = np.random.default_rng(8)
    other = _small_model(rng, k=9, i=3, order=1)
    other_path = str(tmp_path / "other.json")
    save_model(other, other_path, train_q=0.1)
    code = main(
        [
            "separate",
            "--mixture",
            mix_path,
            "--model1",
            model_a,
            "--model2",
            other_path,
            "--out1",
            str(tmp_path / "x1.wav"),
            "--out2",
            str(tmp_path / "x2.wav"),
        ]
    )
    assert code == 2


def test_track_command_row_count(tmp_path):
    n = 4000  # half a second at 8 kHz
    t = np.arange(n)
    sig = 0.5 * np.sin(0.3 * t)
    wav = str(tmp_path / "tone.wav")
    write_wav(wav, sig, 8000)
    out = tmp_path / "track.csv"
    code = main(["track", wav, "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "frame,omega_rad_per_sample"
    assert len(lines) - 1 == (n - 128) // 128 + 1
    assert [line.split(",")[0] for line in lines[1:]] == [str(t) for t in range(len(lines) - 1)]


def test_track_command_rejects_wrong_rate(tmp_path):
    wav = str(tmp_path / "wide.wav")
    write_wav(wav, np.zeros(32000), 16000)
    code = main(["track", wav, "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_experiment_command_tracking_csv(tmp_path):
    out = tmp_path / "exp.csv"
    code = main(
        [
            "experiment",
            "--scenario",
            "tracking",
            "--runs",
            "1",
            "--snr",
            "5",
            "--csv",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scenario,method,J,input_snr_db,metric,value,seed"
    assert len(lines) == 3  # header + static + dnmf


def test_experiment_command_rejects_nonpositive_runs(tmp_path, capsys):
    # The scenario is built with the parsed --runs, so its own check reports it.
    out = tmp_path / "exp.csv"
    for runs in ("0", "-3"):
        args = ["experiment", "--scenario", "tracking", "--runs", runs]
        assert main(args + ["--snr", "5", "--csv", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: runs {runs} must be an integer of at least 1"]
        assert not out.exists()


@pytest.mark.parametrize("flags", [["--snr", "0,5,10"], ["--runs", "7"]])
def test_experiment_separation_rejects_tracking_flags(tmp_path, capsys, flags):
    out = tmp_path / "exp.csv"
    assert main(["experiment", "--scenario", "separation", *flags, "--csv", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and flags[0] in err[0]
    assert not out.exists()


@pytest.mark.parametrize("scenario, snr", [
    ("tracking", "3100"), ("tracking", "-1e308"), ("separation", "1e308"),
])
def test_snr_beyond_float64_is_one_error_line(tmp_path, capsys, scenario, snr):
    # The noise scale 10 ** (-snr / 20) is 0 or inf in float64.
    out = tmp_path / "exp.csv"
    runs = ["--runs", "1"] if scenario == "tracking" else []
    assert main(["experiment", "--scenario", scenario, *runs, f"--snr={snr}",
                 "--csv", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_missing_input_exits_with_usage_error(tmp_path, capsys):
    code = main(
        [
            "train",
            str(tmp_path / "nope.csv"),
            "--rank",
            "2",
            "--out",
            str(tmp_path / "m.json"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


_RIFF = b"RIFF" + struct.pack("<I", 100)
_FMT = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)  # 8 kHz mono PCM16


@pytest.mark.parametrize(
    "raw",
    [
        b"",  # zero bytes
        _RIFF + b"WAVEfmt " + struct.pack("<I", 16) + b"\x01\x00",  # truncated fmt chunk
        _RIFF + b"AVI LIST",  # RIFF, but not WAVE
        _RIFF + b"WAVE" + b"\xff" * 16,  # RIFF header followed by junk
        # A 16-byte data chunk cut off one byte into its second sample.
        _RIFF + b"WAVE" + _FMT + b"data" + struct.pack("<I", 16) + b"\x00" * 3,
    ],
    ids=["empty", "truncated-fmt", "not-wave", "junk", "odd-data"],
)
def test_train_rejects_malformed_wav(tmp_path, capsys, raw):
    wav = tmp_path / "bad.wav"
    wav.write_bytes(raw)
    code = main(["train", str(wav), "--rank", "2", "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and str(wav) in err[0]


def _separate_args(tmp_path, rng, n_samples, k=9, rate=8000):
    """`separate` args without outputs: one random model file (fft size
    2 * (k - 1)) for both sources and a noise mixture."""
    model = str(tmp_path / "m.json")
    save_model(_small_model(rng, k=k, i=min(3, k - 1)), model, train_q=0.1)
    mix = str(tmp_path / "mix.wav")
    write_wav(mix, 0.1 * rng.standard_normal(n_samples), rate)
    return ["separate", "--mixture", mix, "--model1", model, "--model2", model]


def _model_command(tmp_path, command, rng, k=9, n_samples=100, rate=8000):
    """Args of a whole `separate` or `denoise` run, without the hop, and the
    output paths it writes."""
    args = _separate_args(tmp_path, rng, n_samples, k, rate)
    out = [str(tmp_path / f"o{i}.wav") for i in range(2)]
    if command == "separate":
        return args + ["--out1", out[0], "--out2", out[1]], out
    mix, model = args[2], args[4]
    return ["denoise", "--input", mix, "--speech-model", model,
            "--noise-model", model, "--out", out[0]], out[:1]


@pytest.mark.parametrize("command", ["separate", "denoise"])
def test_zero_hop_is_a_usage_error(tmp_path, capsys, command):
    args, _ = _model_command(tmp_path, command, np.random.default_rng(10))  # fft size 16
    assert main(args + ["--hop", "0"]) == 2
    assert "hop 0 must be an integer of at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["separate", "denoise"])
def test_default_hop_of_a_two_bin_model_is_one(tmp_path, command):
    # fft_size // 4 is 0 at fft 2; the default hop must still be usable.
    rng = np.random.default_rng(11)
    args, written = _model_command(tmp_path, command, rng, k=2, n_samples=800)  # fft size 2
    assert main(args) == 0
    for path in written:
        y, rate = read_wav(path)
        assert rate == 8000 and y.shape[0] == 800


@pytest.mark.parametrize("command", ["separate", "denoise"])
def test_hop_that_leaves_gaps_is_one_error_line(tmp_path, capsys, command):
    # At fft 1024 the squared Hann windows of frames 1019 or more samples
    # apart sum below istft's cutoff between them: those samples would be
    # written as silence.
    rng = np.random.default_rng(12)
    args, written = _model_command(tmp_path, command, rng, k=513, n_samples=16000, rate=16000)
    for hop in ("1019", "1024", "100000"):
        assert main(args + ["--hop", hop]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "gaps" in err[0]
        assert not any(Path(p).exists() for p in written)
    assert main(args + ["--hop", "1018"]) == 0


def test_train_hop_above_fft_is_one_error_line(tmp_path, capsys):
    wav = str(tmp_path / "clip.wav")
    write_wav(wav, 0.1 * np.random.default_rng(13).standard_normal(600), 8000)
    out = tmp_path / "m.json"
    args = ["train", wav, "--rank", "1", "--iters", "2", "--m", "1", "--fft", "128"]
    assert main(args + ["--hop", "129", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "--hop" in err[0]
    assert not out.exists()
    assert main(args + ["--hop", "128", "--out", str(out)]) == 0


@pytest.mark.parametrize("fft, why", [("0", "fft_size 0 must be an integer of at least 2"),
                                      ("-4", "fft_size -4 must be an integer of at least 2"),
                                      ("100", "fft_size 100 must be a power of two")],
                         ids=["zero", "negative", "not-a-power-of-two"])
def test_train_bad_fft_is_reported_before_the_hop(tmp_path, capsys, fft, why):
    # The default --hop 256 lies above each of these sizes; the FFT size is
    # the error, not the hop.
    wav = str(tmp_path / "clip.wav")
    write_wav(wav, 0.1 * np.random.default_rng(13).standard_normal(600), 8000)
    out = tmp_path / "m.json"
    assert main(["train", wav, "--rank", "1", "--fft", fft, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {why}"]
    assert not out.exists()


def test_separate_pipeline_peak_memory(tmp_path):
    # A whole `dnmf separate` or `dnmf denoise` must hold no more than one
    # complex spectrogram, three signal-length arrays and two 128-frame
    # complex blocks at any moment.
    rng = np.random.default_rng(12)
    paths = []
    for name in ("a", "b"):
        path = str(tmp_path / f"{name}.json")
        save_model(_small_model(rng, k=513, i=30, order=2), path, train_q=0.1)
        paths.append(path)
    n, fft_size, hop = 160000, 1024, 256
    mix = str(tmp_path / "mix.wav")
    write_wav(mix, 0.1 * rng.standard_normal(n), 16000)
    n_frames = -(-(n - fft_size) // hop) + 1
    real = (fft_size // 2 + 1) * n_frames * 8
    signal = (fft_size + (n_frames - 1) * hop) * 8
    block = 2 * (fft_size // 2 + 1) * 128 * 8
    budget = 2 * real + 3 * signal + 2 * block
    outs = [str(tmp_path / f"o{i}.wav") for i in range(3)]
    for argv in (
        ["separate", "--mixture", mix, "--model1", paths[0], "--model2", paths[1],
         "--out1", outs[0], "--out2", outs[1]],
        ["denoise", "--input", mix, "--speech-model", paths[0],
         "--noise-model", paths[1], "--out", outs[2]],
    ):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mib = peak / 2**20, budget / 2**20
        assert peak <= budget, f"{argv[0]}: peak {mib[0]:.2f} MiB, budget {mib[1]:.2f}"
    for path in outs:
        assert read_wav(path)[0].shape == (n,)




def test_separate_to_unopenable_path_is_one_error_line(tmp_path, capsys):
    args = _separate_args(tmp_path, np.random.default_rng(13), 800)
    out2 = str(tmp_path / "nodir" / "x.wav")
    assert main(args + ["--out1", str(tmp_path / "o1.wav"), "--out2", out2]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and out2 in err[0]


def test_failed_separate_leaves_no_first_output(tmp_path):
    args = _separate_args(tmp_path, np.random.default_rng(14), 800)
    out1 = tmp_path / "o1.wav"
    out2 = str(tmp_path / "nodir" / "x.wav")
    assert main(args + ["--out1", str(out1), "--out2", out2]) == 2
    assert not out1.exists()


@pytest.mark.parametrize("command", ["train", "track", "separate", "denoise"])
def test_too_short_input_names_the_file(tmp_path, capsys, command):
    # 10 samples: shorter than the 1024 (train), 128 (track) and 16 (model)
    # sample FFT frames.
    args = _separate_args(tmp_path, np.random.default_rng(15), 10)
    wav, model = args[2], args[4]
    out = str(tmp_path / "out")
    if command == "train":
        args = ["train", wav, "--rank", "2", "--out", out]
    elif command == "track":
        args = ["track", wav, "--out", out]
    elif command == "separate":
        args += ["--out1", out, "--out2", out + "2"]
    else:
        args = ["denoise", "--input", wav, "--speech-model", model,
                "--noise-model", model, "--out", out]
    assert main(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {wav}: 10 samples, shorter than fft_size")


def test_train_overflow_is_one_numerical_failure_line(tmp_path, capsys):
    # The input is finite and nonnegative; float64 overflows while training.
    csv = tmp_path / "big.csv"
    np.savetxt(csv, np.full((4, 6), 1e308), delimiter=",")
    out = tmp_path / "m.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["train", str(csv), "--rank", "2", "--order", "1",
                     "--iters", "4", "--m", "2", "--out", str(out)])
    assert code == 3
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:")
    assert not out.exists()


def test_train_command_on_a_count_below_an_ulp_of_the_pole(tmp_path, capsys):
    # Valid sparse data whose training reaches a normalizer count that
    # rounds away next to its pole: it trains like the API, exit 0.
    x, rank, order = _sparse_problem(117)
    csv = tmp_path / "sparse.csv"
    np.savetxt(csv, x, delimiter=",")
    out = tmp_path / "m.json"
    assert main(["train", str(csv), "--rank", str(rank), "--order", str(order),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    loaded, _, _ = load_model(str(out))
    want, _ = train(x, rank, order, TrainConfig())
    np.testing.assert_array_equal(loaded.basis, want.basis)


@pytest.mark.parametrize(
    "sizes", [["--rank", str(10**15)], ["--rank", "2", "--order", str(10**15)]]
)
def test_oversized_rank_or_order_is_one_error_line(tmp_path, capsys, sizes):
    # Each size asks for petabytes, beyond any address space, so the first
    # allocation request fails at once and nothing is allocated.
    csv = tmp_path / "tiny.csv"
    np.savetxt(csv, np.ones((4, 6)), delimiter=",")
    out = tmp_path / "m.json"
    code = main(["train", str(csv), *sizes, "--iters", "2", "--m", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
    assert not out.exists()


@pytest.mark.parametrize("command", ["separate", "denoise"])
def test_filter_overflow_is_one_numerical_failure_line(tmp_path, capsys, command):
    # Finite lag entries near 1e308 overflow the prediction.
    args = _separate_args(tmp_path, np.random.default_rng(16), 800)
    doc = json.loads(Path(args[4]).read_text())
    doc["A"] = [np.full((doc["I"], doc["I"]), 1e308).tolist()]
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    outs = [tmp_path / "o1.wav", tmp_path / "o2.wav"]
    if command == "separate":
        args = args[:4] + [str(huge)] + args[5:] + ["--out1", str(outs[0]),
                                                    "--out2", str(outs[1])]
    else:
        args = ["denoise", "--input", args[2], "--speech-model", str(huge),
                "--noise-model", args[4], "--out", str(outs[0])]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 3
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure:")
    assert not any(p.exists() for p in outs)


def test_denoise_inverts_only_the_speech_estimate(tmp_path, monkeypatch):
    mix_path, model_a, model_b, _ = _write_separation_fixture(tmp_path)
    sep1, sep2, den = (str(tmp_path / f"{n}.wav") for n in ("s1", "s2", "d"))
    assert main(["separate", "--mixture", mix_path, "--model1", model_a,
                 "--model2", model_b, "--q", "0.3", "--out1", sep1, "--out2", sep2]) == 0
    calls = []

    def counting_istft(*args, **kwargs):
        calls.append(1)
        return istft(*args, **kwargs)

    monkeypatch.setattr(dnmf.experiments, "istft", counting_istft)
    assert main(["denoise", "--input", mix_path, "--speech-model", model_a,
                 "--noise-model", model_b, "--out", den]) == 0
    assert len(calls) == 1
    # The speech estimate is the first output of `separate` at the same q.
    assert Path(den).read_bytes() == Path(sep1).read_bytes()


def test_save_model_writes_the_bytes_of_json_dump(tmp_path):
    rng = np.random.default_rng(17)
    model = _small_model(rng, order=2)
    model.basis[0, 0] += 5e-324  # subnormal-scale digits must survive too
    path = tmp_path / "m.json"
    metadata = {"source": "x.wav", "iters": "3"}
    save_model(model, str(path), train_q=np.float64(0.15), metadata=metadata)
    want = io.StringIO()
    json.dump({
        "format_version": 1,
        "K": 9,
        "I": 3,
        "J": 2,
        "W": model.basis.tolist(),
        "A": [a.tolist() for a in model.lags],
        "train_q": np.float64(0.15),
        "metadata": metadata,
    }, want)
    want.write("\n")
    assert path.read_bytes() == want.getvalue().encode("utf-8")


def _model_doc_mutations():
    """A mutation of a saved model document: (kind, field, value)."""
    junk = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 600), st.text(max_size=3),
        st.floats(allow_nan=True, allow_infinity=True),
        st.lists(st.floats(-1.0, 2.0), max_size=3),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    )
    fields = st.sampled_from(["format_version", "K", "I", "J", "W", "A", "train_q",
                              "metadata"])
    entry = st.sampled_from([np.nan, np.inf, -np.inf, -0.5, 1e308, 0.0])
    return st.one_of(
        st.tuples(st.just("none"), st.none(), st.none()),
        st.tuples(st.just("drop"), fields, st.none()),
        st.tuples(st.just("type"), fields, junk),
        st.tuples(st.just("entry"), st.sampled_from(["W", "A"]), entry),
        st.tuples(st.just("extra_lag"), st.booleans(), st.none()),
        st.tuples(st.just("size"), st.sampled_from(["K", "I", "J"]), st.integers(0, 12)),
        st.tuples(st.just("shape"), st.sampled_from(["W", "A"]), st.none()),
    )


def _mutate(doc, kind, field, value):
    doc = json.loads(json.dumps(doc))
    if kind == "drop":
        del doc[field]
    elif kind in ("type", "size"):
        doc[field] = value
    elif kind == "entry":
        target = doc["W"] if field == "W" else doc["A"][0]
        target[1][1] = value
    elif kind == "extra_lag":
        doc["A"].append(doc["A"][0])
        if field:  # keep J consistent: the order then differs from the other model's
            doc["J"] += 1
    elif kind == "shape":
        target = doc["W"] if field == "W" else doc["A"][0]
        target.pop()
    return doc


@settings(max_examples=100, deadline=None)
@given(mutation=_model_doc_mutations(), command=st.sampled_from(["separate", "denoise"]),
       second=st.booleans())
def test_mutated_model_documents_fail_cleanly(mutation, command, second):
    rng = np.random.default_rng(18)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        args = _separate_args(tmp, rng, 800)
        good = args[4]
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(_mutate(json.loads(Path(good).read_text()), *mutation)))
        first_model, second_model = (good, str(bad)) if second else (str(bad), good)
        outs = [tmp / "o1.wav", tmp / "o2.wav"]
        if command == "separate":
            argv = ["separate", "--mixture", args[2], "--model1", first_model,
                    "--model2", second_model, "--out1", str(outs[0]), "--out2", str(outs[1])]
        else:
            outs = outs[:1]
            argv = ["denoise", "--input", args[2], "--speech-model", first_model,
                    "--noise-model", second_model, "--out", str(outs[0])]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        if code == 0:
            assert all(p.exists() for p in outs)
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(("error:", "numerical failure:"))
            assert not any(p.exists() for p in outs)


def _wav_header_mutations():
    """A cut length and header bit flips for an 8 kHz, 800-sample WAV (44-byte header)."""
    return st.tuples(
        st.one_of(st.none(), st.integers(0, 60), st.integers(0, 44 + 2 * 800)),
        st.lists(st.integers(0, 44 * 8 - 1), max_size=3),
    )


@settings(max_examples=60, deadline=None)
@given(mutation=_wav_header_mutations(), command=st.sampled_from(["train", "track", "denoise"]))
def test_mutated_wav_headers_fail_cleanly(mutation, command):
    cut, flips = mutation
    rng = np.random.default_rng(20)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        args = _separate_args(tmp, rng, 800)
        wav, model = Path(args[2]), args[4]
        raw = bytearray(wav.read_bytes()[:cut])
        for bit in flips:
            if bit // 8 < len(raw):
                raw[bit // 8] ^= 1 << (bit % 8)
        wav.write_bytes(bytes(raw))
        out = tmp / "out"
        if command == "train":
            argv = ["train", str(wav), "--rank", "2", "--iters", "2", "--m", "1",
                    "--fft", "64", "--hop", "32", "--out", str(out)]
        elif command == "track":
            argv = ["track", str(wav), "--out", str(out)]
        else:
            argv = ["denoise", "--input", str(wav), "--speech-model", model,
                    "--noise-model", model, "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3)
        if code == 0:
            assert out.exists()
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(("error:", "numerical failure:"))
            assert not out.exists()


_BAD_CSVS = {
    "empty": b"",
    "comment-only": b"# no data rows\n",
    "not-a-number": b"1,2\na,b\n",
    "ragged": b"1,2\n3\n",
    "trailing-comma": b"1,2,\n",
    "negative": b"1,-2\n",
    "nan": b"1,nan\n",
    "overflowing-literal": b"1e400,1\n",
    "not-utf8": b"\xff\xfe1,2\n",
}


@pytest.mark.parametrize("content", list(_BAD_CSVS.values()), ids=list(_BAD_CSVS))
def test_bad_csv_is_one_error_line_naming_the_file(tmp_path, capsys, content):
    csv = tmp_path / "bad.csv"
    csv.write_bytes(content)
    out = tmp_path / "m.json"
    code = main(["train", str(csv), "--rank", "1", "--iters", "2", "--m", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {csv}: ")
    assert not out.exists()


_CSV_ALPHABET = st.sampled_from(list("0123456789.,-+eE#naif \t\r\n"))


@settings(max_examples=150, deadline=None)
@given(content=st.one_of(
    st.text(_CSV_ALPHABET, max_size=48).map(str.encode),
    st.text(max_size=24).map(lambda s: s.encode("utf-8", "surrogatepass")),
    st.binary(max_size=24),
))
def test_random_csv_input_fails_cleanly(content):
    # Whatever the file holds, `dnmf train` ends with a documented exit code,
    # and a failure is one stderr line and leaves no model behind.
    with tempfile.TemporaryDirectory() as tmp:
        csv, out = Path(tmp) / "in.csv", Path(tmp) / "m.json"
        csv.write_bytes(content)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", str(csv), "--rank", "1", "--iters", "2", "--m", "1",
                         "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            assert out.exists()
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(("error:", "numerical failure:"))
            assert not out.exists()


# Numeric flag values around every boundary the commands check: signed zeros,
# the smallest subnormal, +-3100 dB (beyond 10 ** (snr / 10) in float64),
# +-1e308, the infinities and NaN.
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 0.5, 1.0, -1.0, 3100.0, -3100.0,
                   1e308, -1e308, float("inf"), float("-inf"), float("nan")]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()).map(repr)
# Hops around the fft-16 window (15 is the largest without gaps), and huge.
_HOPS = st.one_of(
    st.sampled_from([0, -1, 1, 4, 15, 16, 17, 3100, -3100, 10**18, -(10**308)]),
    st.integers(-20, 40),
).map(str)
# Count flags are requested work: only values that start no long run.
_COUNTS = st.one_of(st.integers(-3, 3), st.sampled_from([-3100, -(10**308)])).map(str)


def _run_flags(args, flags):
    """Run ``main(args + --flag=value ...)``; return its exit code and the
    lines it wrote to stderr."""
    err = io.StringIO()
    argv = args + [f"--{name}={value}" for name, value in flags.items()]
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().splitlines()


def _assert_clean_exit(code, err, outputs):
    # The contract of every command: a documented exit code, and a failure
    # is one stderr line that leaves no output file behind.
    assert code in (0, 2, 3)
    if code == 0:
        assert all(p.exists() for p in outputs)
    else:
        assert len(err) == 1, err
        assert err[0].startswith(("error:", "numerical failure:")), err
        assert not any(p.exists() for p in outputs)


@settings(max_examples=40, deadline=None)
@given(flags=st.fixed_dictionaries({}, optional={"q": _FLOATS, "hop": _HOPS, "iters": _COUNTS}))
def test_train_numeric_flags_fail_cleanly(flags):
    with tempfile.TemporaryDirectory() as tmp:
        wav, out = Path(tmp) / "in.wav", Path(tmp) / "m.json"
        write_wav(str(wav), 0.1 * np.random.default_rng(16).standard_normal(200), 8000)
        code, err = _run_flags(
            ["train", str(wav), "--rank", "1", "--m", "1", "--iters", "2",
             "--fft", "16", "--out", str(out)], flags)
        _assert_clean_exit(code, err, [out])


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(["separate", "denoise"]),
       flags=st.fixed_dictionaries({}, optional={"q": _FLOATS, "hop": _HOPS}))
def test_separate_and_denoise_numeric_flags_fail_cleanly(command, flags):
    with tempfile.TemporaryDirectory() as tmp:
        rng = np.random.default_rng(17)
        args, written = _model_command(Path(tmp), command, rng, n_samples=200)
        code, err = _run_flags(args, flags)
        outputs = [Path(p) for p in written]
        _assert_clean_exit(code, err, outputs)
        if code == 0 and command == "separate":
            # The two sources rebuild the mixture on every sample at least
            # one fft (16) from either end: a hop that leaves gaps would
            # write silence there.
            mix, _ = read_wav(args[2])
            y1, _ = read_wav(str(outputs[0]))
            y2, _ = read_wav(str(outputs[1]))
            span = slice(16, mix.shape[0] - 16)
            assert np.max(np.abs(y1[span] + y2[span] - mix[span])) <= 2.0 / 32768.0


# The experiment flags are checked on scaled-down scenarios, so that each
# example runs in milliseconds.  Subclasses, not partials: the frame grid is a
# class constant, and the parser reads the `separate --q` default from the class.
@dataclasses.dataclass
class _TinyTracking(TrackingScenario):
    fft_size = 16
    hop = 16
    n_frames: int = 8
    peak_frame: int = 4
    snr_grid: tuple = (0.0, 10.0)
    runs: int = 2


@dataclasses.dataclass
class _TinySeparation(SeparationScenario):
    duration: float = 0.1
    rank: int = 2
    orders: tuple = (1,)


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(["tracking", "separation"]),
       flags=st.fixed_dictionaries({}, optional={
           "snr": st.lists(_FLOATS, min_size=1, max_size=2).map(",".join),
           "runs": _COUNTS,
       }))
def test_experiment_numeric_flags_fail_cleanly(scenario, flags):
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "out.csv"
        with mock.patch.object(dnmf.cli, "TrackingScenario", _TinyTracking), \
                mock.patch.object(dnmf.cli, "SeparationScenario", _TinySeparation):
            code, err = _run_flags(
                ["experiment", "--scenario", scenario, "--csv", str(csv)], flags)
        _assert_clean_exit(code, err, [csv])


# Text that no int flag accepts: float spellings, the empty string, hex.
_NOT_INTS = st.sampled_from(["nan", "inf", "1e308", "5e-324", "", "0x10"])


def _ints(values, lo, hi):
    """An int flag's text: small integers, the given extremes, or non-integers."""
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(values).map(str), _NOT_INTS)


@settings(max_examples=60, deadline=None)
@given(flags=st.fixed_dictionaries({}, optional={
    # --fft above the 200-sample input is rejected before anything is allocated,
    # a --rank or --order of 10**15 fails its first allocation request at once.
    "fft": _ints([0, -1, 1, 2, 3, 10**18, -(10**308)], -3, 40),
    "rank": _ints([0, -1, 10**15, -(10**308)], -2, 6),
    "order": _ints([-1, 10**15, -(10**308)], -2, 3),
    "m": _ints([0, -1, 10**18, -(10**308)], -3, 4),
    "seed": _ints([-1, 2**64, 10**40, -(10**308)], -3, 3),
}))
def test_train_size_and_seed_flags_fail_cleanly(flags):
    with tempfile.TemporaryDirectory() as tmp:
        wav, out = Path(tmp) / "in.wav", Path(tmp) / "m.json"
        write_wav(str(wav), 0.1 * np.random.default_rng(18).standard_normal(200), 8000)
        code, err = _run_flags(
            ["train", str(wav), "--rank", "1", "--iters", "2", "--m", "1",
             "--fft", "16", "--hop", "4", "--out", str(out)], flags)
        _assert_clean_exit(code, err, [out])


@settings(max_examples=40, deadline=None)
@given(flags=st.fixed_dictionaries({}, optional={"q": _FLOATS}))
def test_track_numeric_flags_fail_cleanly(flags):
    with tempfile.TemporaryDirectory() as tmp:
        wav, out = Path(tmp) / "in.wav", Path(tmp) / "track.csv"
        write_wav(str(wav), 0.1 * np.random.default_rng(19).standard_normal(640), 8000)
        code, err = _run_flags(["track", str(wav), "--out", str(out)], flags)
        _assert_clean_exit(code, err, [out])


@pytest.mark.parametrize("argv, message", [
    (["train", "x.wav", "--rank=nan", "--out", "m.json"],
     "error: dnmf train: argument --rank: invalid int value: 'nan'"),
    (["train", "x.wav", "--rank", "2", "--fft=1e308", "--out", "m.json"],
     "error: dnmf train: argument --fft: invalid int value: '1e308'"),
    (["train", "x.wav", "--rank", "2", "--seed=inf", "--out", "m.json"],
     "error: dnmf train: argument --seed: invalid int value: 'inf'"),
    (["track", "x.wav", "--q=0x10", "--out", "t.csv"],
     "error: dnmf track: argument --q: invalid float value: '0x10'"),
    (["train", "x.wav", "--out", "m.json"],
     "error: dnmf train: the following arguments are required: --rank"),
    (["separate", "--mixture", "x.wav"], "error: dnmf separate: the following arguments"),
    (["train", "x.wav", "--rank", "2", "--out", "m.json", "--bogus"],
     "error: dnmf: unrecognized arguments: --bogus"),
    ([], "error: dnmf: the following arguments are required: command"),
])
def test_bad_command_line_is_one_error_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(message), err
    assert list(tmp_path.iterdir()) == []


def test_no_setting_without_a_caller(tmp_path, capsys, monkeypatch):
    # The scenarios take only the fields some caller sets: frame grids,
    # sweeps and annealing are class constants, and the commands that filter
    # run one refinement per frame, with no --inner-iters.
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert fields(TrackingScenario) == ["n_frames", "peak_frame", "snr_grid", "runs"]
    assert fields(SeparationScenario) == ["duration", "rank", "orders", "mix_snr_db"]
    assert fields(ExperimentReport) == [] and ExperimentReport().rows == []
    for make in (lambda: TrackingScenario(fft_size=256), lambda: ExperimentReport(rows=[]),
                 lambda: SeparationScenario(sample_rate=8000)):
        with pytest.raises(TypeError):
            make()
    assert TrackingScenario().fft_size == 128 and SeparationScenario.anneal == 0.1
    monkeypatch.chdir(tmp_path)
    for argv in (["separate", "--mixture", "x.wav", "--model1", "a.json", "--model2",
                  "b.json", "--out1", "1.wav", "--out2", "2.wav"],
                 ["denoise", "--input", "x.wav", "--speech-model", "a.json",
                  "--noise-model", "b.json", "--out", "1.wav"],
                 ["track", "x.wav", "--out", "t.csv"]):
        assert main(argv + ["--inner-iters", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: dnmf: unrecognized arguments: --inner-iters 2"], argv


@pytest.mark.parametrize("command", ["train", "separate", "denoise", "experiment", "track"])
def test_help_still_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: dnmf {command}")


def test_denoise_help_names_its_own_flags(capsys):
    # denoise stores its flags under separate's names; the help keeps its own.
    with pytest.raises(SystemExit):
        main(["denoise", "--help"])
    out = capsys.readouterr().out
    for flag in ("--input INPUT", "--speech-model SPEECH_MODEL",
                 "--noise-model NOISE_MODEL", "--out OUT"):
        assert flag in out
    assert "--out2" not in out and "--mixture" not in out


def test_separate_to_empty_second_path_leaves_no_first_output(tmp_path, capsys):
    # An empty --out2 is a path that cannot be opened, not a missing one.
    args = _separate_args(tmp_path, np.random.default_rng(20), 800)
    out1 = tmp_path / "o1.wav"
    assert main(args + ["--out1", str(out1), "--out2", ""]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out1.exists()


@pytest.mark.parametrize("out2", ["a.wav", "./a.wav", "sub/../a.wav", "link.wav"])
def test_separate_to_one_path_twice_is_one_error_line(tmp_path, capsys, monkeypatch, out2):
    # Both outputs resolving to one file would leave only source 2 in it.
    monkeypatch.chdir(tmp_path)
    args = _separate_args(tmp_path, np.random.default_rng(23), 800)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.wav").symlink_to(tmp_path / "a.wav")
    assert main(args + ["--out1", "a.wav", "--out2", out2]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "same file" in err[0], err
    assert not (tmp_path / "a.wav").exists()


def test_train_prior_start_above_iters_names_both_values(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    np.savetxt(csv, np.random.default_rng(21).uniform(0.1, 1.0, size=(4, 6)), delimiter=",")
    out = tmp_path / "m.json"
    assert main(["train", str(csv), "--rank", "1", "--iters", "30", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: prior_start 50 must lie in [0, iters=30]"]
    assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(flags=st.fixed_dictionaries({}, optional={
    # Sizes stay small by value: a 10**15 --rank or --order fails its first
    # allocation at once, and --iters never asks for a long run.
    "rank": _ints([0, -1, 10**15, -(10**308)], -2, 5),
    "order": _ints([-1, 10**15, -(10**308)], -2, 3),
    "iters": _ints([0, -1, -(10**308)], -2, 4),
    "m": _ints([0, -1, 10**18, -(10**308)], -3, 5),
    "q": _FLOATS,
    "seed": _ints([-1, 2**64, 10**40, -(10**308)], -3, 3),
}))
def test_train_flags_on_csv_fail_cleanly(flags):
    with tempfile.TemporaryDirectory() as tmp:
        csv, out = Path(tmp) / "in.csv", Path(tmp) / "m.json"
        np.savetxt(csv, np.random.default_rng(22).uniform(0.0, 1.0, size=(4, 6)), delimiter=",")
        code, err = _run_flags(
            ["train", str(csv), "--rank", "1", "--iters", "2", "--m", "1",
             "--out", str(out)], flags)
        _assert_clean_exit(code, err, [out])
