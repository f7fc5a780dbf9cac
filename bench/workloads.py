"""The three benchmark workloads: inputs from a seed, one CLI call, output checks.

Every workload is a closed loop with one caller: the benchmark calls
``dnmf.cli.main`` in-process, waits for it to return, checks the output, and
only then starts the next call.  All calls of one run use identical inputs, so
their output files must be byte-identical; the benchmark checks that too.

Inputs are synthesized here and written with the standard library (never with
the program's own WAV writer), so a defect in ``dnmf.wav`` cannot hide in the
inputs.
"""
from __future__ import annotations

import hashlib
import os
import re
import wave

import numpy as np

RATE = 16000
FFT = 1024
HOP = 256


def write_pcm16(path: str, samples: np.ndarray, rate: int = RATE) -> None:
    pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def read_pcm16(path: str) -> np.ndarray:
    with wave.open(path, "rb") as fh:
        if fh.getsampwidth() != 2 or fh.getnchannels() != 1:
            raise ValueError(f"{path}: not 16-bit mono PCM")
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def snr_db(reference: np.ndarray, estimate: np.ndarray) -> float:
    err = estimate - reference
    return float(10.0 * np.log10(np.sum(reference ** 2) / np.sum(err ** 2)))


def stft_frames(n_samples: int) -> int:
    return (n_samples - FFT) // HOP + 1


def spectral_mass(samples: np.ndarray) -> float:
    """Sum of the STFT magnitude (periodic Hann, no padding), computed here
    independently of ``dnmf.dsp``."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FFT) / FFT)
    starts = np.arange(stft_frames(samples.shape[0]))[:, None] * HOP
    frames = samples[starts + np.arange(FFT)] * window
    return float(np.abs(np.fft.rfft(frames, axis=1)).sum())


class TrainWav:
    """``dnmf train`` on a 30 s harmonic melody with light noise."""

    name = "train_wav"
    seconds = 30.0
    rank, order, iters, prior_start = 40, 2, 20, 10
    loss_ratio_ceiling = 0.5

    def __init__(self):
        self.frames = stft_frames(int(self.seconds * RATE))
        # frames x iterations: every iteration touches every frame once.
        self.work_frames = self.frames * self.iters

    def setup(self, workdir: str, seed: int, cli) -> dict:
        rng = np.random.default_rng([seed, 1])
        n = int(self.seconds * RATE)
        note = RATE // 4
        scale = 220.0 * 2.0 ** (np.array([0, 2, 4, 5, 7, 9, 11, 12, 14, 16]) / 12.0)
        f0 = np.repeat(rng.choice(scale, size=n // note), note)
        pos = np.arange(n) % note / RATE
        env = np.minimum(pos / 0.01, 1.0) * np.exp(-3.0 * pos)
        x = np.zeros(n)
        for h in range(1, 7):
            phase = 2.0 * np.pi * np.cumsum(h * f0) / RATE + rng.uniform(0, 2 * np.pi)
            x += (0.3 / h) * np.sin(phase)
        x = x * env + 0.003 * rng.standard_normal(n)
        path = os.path.join(workdir, "melody.wav")
        write_pcm16(path, x)
        return {"input": path, "seed": seed, "mass": spectral_mass(read_pcm16(path))}

    def argv(self, ctx: dict, opdir: str) -> list[str]:
        return ["train", ctx["input"], "--rank", str(self.rank), "--order", str(self.order),
                "--iters", str(self.iters), "--m", str(self.prior_start),
                "--fft", str(FFT), "--hop", str(HOP), "--seed", str(ctx["seed"]),
                "--out", os.path.join(opdir, "model.json")]

    def check(self, ctx: dict, opdir: str, stdout: str, cli) -> tuple[list[str], dict, dict]:
        """Return (problems, quality, {output file: sha256})."""
        problems = []
        path = os.path.join(opdir, "model.json")
        model, _, _ = cli.load_model(path)
        if (model.n_features, model.n_components, model.order) != (FFT // 2 + 1, self.rank, self.order):
            problems.append(f"model has shape {(model.n_features, model.n_components, model.order)}")
        quality = {}
        for key, pattern in (("train_objective", r"^objective: (\S+)$"),
                             ("lag_fit_is_div", r"^lag_fit_is_divergence: (\S+)$")):
            m = re.search(pattern, stdout, re.MULTILINE)
            if m is None:
                problems.append(f"no {key} in train output")
            else:
                quality[key] = float(m.group(1))
        if f"frames: {self.frames}" not in stdout:
            problems.append(f"expected {self.frames} frames in train output")
        if "train_objective" in quality:
            # MAP loss relative to a model that spreads every frame uniformly
            # over the K bins; about 0.47 on these inputs whatever the seed.
            ratio = -quality["train_objective"] / (ctx["mass"] * np.log(FFT // 2 + 1))
            quality["train_loss_ratio"] = ratio
            if not ratio < self.loss_ratio_ceiling:
                problems.append(f"train_loss_ratio {ratio:.4f} not below {self.loss_ratio_ceiling}")
        return problems, quality, {"model.json": sha256(path)}

    def expected_calls(self) -> dict:
        dynamic_iters = self.iters - self.prior_start
        return {
            "statespace.train": 1,
            "statespace.solve_beta": self.frames * dynamic_iters,
            "statespace.filter_frame": 0,
            "dsp.stft": 1,
        }


class SeparateWav:
    """``dnmf separate`` on a 120 s mixture of a sawtooth up-sweep and its reversal.

    Each source is two tones whose frequencies ramp up linearly once a
    second (a sawtooth in frequency); the second source is the exact time
    reversal of the first, so the two share every spectrum and differ only in
    their dynamics.  Set-up trains one model per source on a clean 1 s excerpt.
    """

    name = "separate_wav"
    seconds = 120.0
    period = 1.0
    rank, order = 30, 2
    snr_floor_db = 6.0  # a trivial half-and-half split scores about 3 dB

    def __init__(self):
        self.frames = stft_frames(int(self.seconds * RATE))
        self.work_frames = self.frames

    def setup(self, workdir: str, seed: int, cli) -> dict:
        rng = np.random.default_rng([seed, 2])
        n = int(self.seconds * RATE)
        ramp = (np.arange(n) / RATE) % self.period / self.period
        s1 = np.zeros(n)
        for lo, hi in ((500.0, 3000.0), (1500.0, 5000.0)):
            lo, hi = lo * rng.uniform(0.97, 1.03), hi * rng.uniform(0.97, 1.03)
            freq = lo + (hi - lo) * ramp
            s1 += 0.2 * np.sin(2.0 * np.pi * np.cumsum(freq) / RATE + rng.uniform(0, 2 * np.pi))
        s2 = s1[::-1].copy()
        ctx = {"mixture": os.path.join(workdir, "mixture.wav"), "refs": (s1, s2)}
        write_pcm16(ctx["mixture"], s1 + s2)
        excerpt = int(self.period * RATE)
        for k, src in ((1, s1), (2, s2)):
            wav = os.path.join(workdir, f"clean{k}.wav")
            write_pcm16(wav, src[:excerpt])
            ctx[f"model{k}"] = os.path.join(workdir, f"model{k}.json")
            code = cli.main(["train", wav, "--rank", str(self.rank), "--order", str(self.order),
                             "--seed", str(seed), "--out", ctx[f"model{k}"]])
            if code != 0:
                raise RuntimeError(f"training model {k} failed with exit code {code}")
        return ctx

    def argv(self, ctx: dict, opdir: str) -> list[str]:
        return ["separate", "--mixture", ctx["mixture"], "--model1", ctx["model1"],
                "--model2", ctx["model2"], "--out1", os.path.join(opdir, "est1.wav"),
                "--out2", os.path.join(opdir, "est2.wav")]

    def check(self, ctx: dict, opdir: str, stdout: str, cli) -> tuple[list[str], dict, dict]:
        problems = []
        expected_len = FFT + (self.frames - 1) * HOP
        snrs, prints = [], {}
        for k, ref in ((1, ctx["refs"][0]), (2, ctx["refs"][1])):
            path = os.path.join(opdir, f"est{k}.wav")
            est = read_pcm16(path)
            prints[f"est{k}.wav"] = sha256(path)
            if est.shape[0] != expected_len or not np.all(np.isfinite(est)):
                problems.append(f"est{k}.wav has {est.shape[0]} samples, expected {expected_len}")
                continue
            snrs.append(snr_db(ref[:expected_len], est))
        quality = {}
        if len(snrs) == 2:
            quality["sep_snr_db"] = float(np.mean(snrs))
            quality["sep_snr_db_sources"] = snrs
            if quality["sep_snr_db"] < self.snr_floor_db:
                problems.append(f"sep_snr_db {quality['sep_snr_db']:.3f} below {self.snr_floor_db}")
        return problems, quality, prints

    def expected_calls(self) -> dict:
        return {
            "statespace.train": 0,
            "statespace.filter_frame": self.frames,
            "statespace.solve_beta": self.frames,
            "dsp.stft": 1,
            "dsp.istft": 2,
            "cli.load_model": 2,
        }


class TrackMc:
    """``dnmf experiment --scenario tracking``: many short K=65 streams."""

    name = "track_mc"
    runs = 2
    snrs = (-10.0, -5.0, 0.0, 5.0)
    stream_frames = 254  # TrackingScenario.n_frames
    static_inner = 50  # run_tracking's static refinements per frame
    max_mse_ratio = 0.5

    def __init__(self):
        self.streams = self.runs * len(self.snrs)
        self.frames = self.stream_frames * self.streams
        # Both methods filter every frame of every stream.
        self.work_frames = 2 * self.frames

    def setup(self, workdir: str, seed: int, cli) -> dict:
        return {"seed": seed}

    def argv(self, ctx: dict, opdir: str) -> list[str]:
        return ["experiment", "--scenario", "tracking", "--runs", str(self.runs),
                "--snr=" + ",".join(f"{s:g}" for s in self.snrs), "--seed", str(ctx["seed"]),
                "--csv", os.path.join(opdir, "tracking.csv")]

    def check(self, ctx: dict, opdir: str, stdout: str, cli) -> tuple[list[str], dict, dict]:
        problems = []
        path = os.path.join(opdir, "tracking.csv")
        with open(path, encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        if len(rows) != 2 * self.streams:
            problems.append(f"{len(rows)} CSV rows, expected {2 * self.streams}")
        mse = {"static": [], "dnmf": []}
        for row in rows:
            if len(row) == 7 and row[1] in mse and row[4] == "mse_rad2":
                mse[row[1]].append(float(row[5]))
        quality = {}
        if all(len(v) == self.streams for v in mse.values()):
            # Every stream has the same frame count, so the mean of per-stream
            # MSEs is the MSE pooled over all frames.
            quality["track_mse_dnmf"] = float(np.mean(mse["dnmf"]))
            quality["track_mse_static"] = float(np.mean(mse["static"]))
            # The paper's claim at this size: dynamic filtering tracks with a
            # fraction of the static baseline's error (at most 0.17 of it
            # over seeds 1-10).
            if not quality["track_mse_dnmf"] < self.max_mse_ratio * quality["track_mse_static"]:
                problems.append("dynamic tracking MSE not below half the static MSE")
        else:
            problems.append("CSV lacks one mse_rad2 row per stream and method")
        return problems, quality, {"tracking.csv": sha256(path)}

    def expected_calls(self) -> dict:
        return {
            "statespace.train": 0,
            "statespace.filter_frame": 2 * self.frames,
            "statespace.solve_beta": self.frames * (self.static_inner + 1),
            "statespace.solve_beta.uniform_calls": self.frames * self.static_inner,
            "experiments.run_tracking": 1,
        }


WORKLOADS = {w.name: w for w in (TrainWav, SeparateWav, TrackMc)}
