"""Command-line entry point: train, separate, denoise, experiment, track.

Exit codes: 0 on success, 2 on usage or input errors, 3 on numerical
failures.  Every command is deterministic for a fixed ``--seed``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .core import EPS, is_divergence
from .dsp import _unit_phase, istft, stft
from .experiments import (
    SeparationScenario,
    TrackingScenario,
    run_separation,
    run_tracking,
    separate_sources,
    tracking_model,
    track_frequency,
)
from .statespace import (
    ConvergenceError,
    DnmfModel,
    FilterState,
    TrainConfig,
    _predict_all,
    filter_stream,
    map_objective,
    train,
)
from .wav import read_wav, write_wav

__all__ = ["main", "save_model", "load_model"]

FORMAT_VERSION = 1


def save_model(
    model: DnmfModel, path: str, train_q: float, metadata: dict | None = None
) -> None:
    """Serialize a model to JSON (floats keep full round-trip precision)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "K": model.n_features,
        "I": model.n_components,
        "J": model.order,
        "W": model.basis.tolist(),
        "A": [a.tolist() for a in model.lags],
        "train_q": train_q,
        "metadata": dict(metadata or {}),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path: str) -> tuple[DnmfModel, float, dict]:
    """Load a model saved by :func:`save_model`, validating its invariants.

    :class:`DnmfModel` checks shapes, signs, finiteness and the column sums
    of the basis; drift in those sums between 1e-9 and its 1e-6 tolerance is
    renormalized away with a warning.  Any malformed document raises
    ``ValueError`` naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model document must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format_version {doc.get('format_version')!r}"
        )
    try:
        model = DnmfModel(basis=doc["W"], lags=list(doc["A"]))
        sizes = (doc["K"], doc["I"], doc["J"])
        train_q = float(doc["train_q"])
        metadata = dict(doc.get("metadata", {}))
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if (model.n_features, model.n_components, model.order) != sizes:
        raise ValueError(f"{path}: model sizes do not match the K/I/J fields")
    err = np.max(np.abs(model.basis.sum(axis=0) - 1.0))
    if err > 1e-9:
        warnings.warn(
            f"{path}: renormalizing basis columns (deviation {err:.3e})",
            stacklevel=2,
        )
        model.basis = model.basis / model.basis.sum(axis=0)
    return model, train_q, metadata


def _load_training_matrix(path: str, fft_size: int, hop: int) -> np.ndarray:
    if path.lower().endswith(".csv"):
        mat = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
        if mat.size == 0:
            raise ValueError(f"{path}: empty matrix")
        return mat
    samples, _ = read_wav(path)
    return np.abs(stft(samples, fft_size, hop))


def cmd_train(args: argparse.Namespace) -> int:
    mag = _load_training_matrix(args.input, args.fft, args.hop)
    cfg = TrainConfig(
        iters=args.iters, prior_start=args.m, anneal=args.q, seed=args.seed
    )
    model, h = train(mag, args.rank, args.order, cfg)
    objective = map_objective(mag, model, h)
    print(f"components: {args.rank}  order: {args.order}  frames: {mag.shape[1]}")
    print(f"objective: {objective:.10g}")
    if model.order >= 1:
        div = is_divergence(np.maximum(h, EPS), _predict_all(model.lags, h))
        print(f"lag_fit_is_divergence: {div:.10g}")
    save_model(
        model,
        args.out,
        train_q=args.q,
        metadata={"source": os.path.basename(args.input), "iters": str(args.iters),
                  "seed": str(args.seed)},
    )
    print(f"model written to {args.out}")
    return 0


def _separate_pipeline(
    mixture_path: str,
    model_a_path: str,
    model_b_path: str,
    q: float,
    hop: int | None,
    inner_iters: int,
):
    samples, rate = read_wav(mixture_path)
    model_a, _, _ = load_model(model_a_path)
    model_b, _, _ = load_model(model_b_path)
    fft_size = 2 * (model_a.n_features - 1)
    if fft_size < 2 or fft_size & (fft_size - 1):
        raise ValueError(
            f"model spectrum size {model_a.n_features} does not correspond "
            "to a power-of-two FFT"
        )
    hop = hop if hop is not None else max(1, fft_size // 4)
    if hop < 1:
        raise ValueError("hop must be positive")
    n = samples.shape[0]
    tail = (fft_size - n) % hop
    if n >= fft_size and tail:
        # Zero-pad so the last frame ends on the final sample or after it;
        # the outputs are trimmed back to n.  Shorter inputs stay an error.
        samples = np.pad(samples, (0, tail))
    spec = stft(samples, fft_size, hop)
    del samples
    mag = np.abs(spec)
    est_a, est_b = separate_sources(
        mag, model_a, model_b, anneal=q, inner_iters=inner_iters
    )
    # The phase overwrites the spectrogram, and each array is dropped once
    # used, so resynthesis holds at most two complex spectrograms.
    phase = _unit_phase(spec, mag)
    del spec, mag
    frames = est_a * phase
    del est_a
    out_a = istft(frames, hop)
    del frames
    phase *= est_b
    del est_b
    out_b = istft(phase, hop)
    return out_a[:n], out_b[:n], rate


def cmd_separate(args: argparse.Namespace) -> int:
    out1, out2, rate = _separate_pipeline(
        args.mixture, args.model1, args.model2, args.q, args.hop, args.inner_iters
    )
    write_wav(args.out1, out1, rate)
    write_wav(args.out2, out2, rate)
    print(f"wrote {args.out1} and {args.out2}")
    return 0


def cmd_denoise(args: argparse.Namespace) -> int:
    speech, _, rate = _separate_pipeline(
        args.input,
        args.speech_model,
        args.noise_model,
        args.q,
        args.hop,
        args.inner_iters,
    )
    write_wav(args.out, speech, rate)
    print(f"wrote {args.out}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.scenario == "tracking":
        scenario = TrackingScenario(runs=args.runs)
        if args.snr:
            scenario.snr_grid = tuple(args.snr)
        report = run_tracking(scenario, seed=args.seed)
    else:
        scenario = SeparationScenario()
        if args.snr:
            scenario.mix_snr_db = args.snr[0]
        report = run_separation(scenario, seed=args.seed)
    report.write_csv(args.csv)
    print(f"{len(report.rows)} rows written to {args.csv}")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    samples, rate = read_wav(args.input)
    if rate != 8000:
        raise ValueError(f"{args.input}: tracking expects 8000 Hz, got {rate}")
    mag = np.abs(stft(samples, 128, 128))
    state = FilterState(tracking_model(), anneal=args.q, inner_iters=args.inner_iters)
    omega = track_frequency(filter_stream(state, mag), 128)
    rows = np.column_stack((np.arange(omega.size), omega))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, rows, fmt=("%d", "%.10g"), delimiter=",",
                   header="frame,omega_rad_per_sample", comments="")
    print(f"{mag.shape[1]} frames written to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnmf",
        description="Dynamic NMF: training, filtering, separation, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model to a WAV or CSV matrix")
    p.add_argument("input", help="WAV file or CSV magnitude matrix (K rows)")
    p.add_argument("--rank", type=int, required=True, help="number of components")
    p.add_argument("--order", type=int, default=1, help="autoregressive order")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--m", type=int, default=50, help="iteration enabling the prior")
    p.add_argument("--q", type=float, default=0.15, help="annealing exponent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fft", type=int, default=1024, help="FFT size for WAV input")
    p.add_argument("--hop", type=int, default=256, help="hop size for WAV input")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("separate", help="split a mixture with two models")
    p.add_argument("--mixture", required=True)
    p.add_argument("--model1", required=True)
    p.add_argument("--model2", required=True)
    p.add_argument("--q", type=float, default=0.1, help="annealing exponent")
    p.add_argument("--hop", type=int, default=None, help="default: fft/4, at least 1")
    p.add_argument("--inner-iters", type=int, default=1)
    p.add_argument("--out1", required=True)
    p.add_argument("--out2", required=True)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("denoise", help="extract the speech estimate from noisy audio")
    p.add_argument("--input", required=True)
    p.add_argument("--speech-model", required=True)
    p.add_argument("--noise-model", required=True)
    p.add_argument("--q", type=float, default=0.3, help="annealing exponent")
    p.add_argument("--hop", type=int, default=None, help="default: fft/4, at least 1")
    p.add_argument("--inner-iters", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("experiment", help="run a benchmark scenario to CSV")
    p.add_argument("--scenario", choices=("tracking", "separation"), required=True)
    p.add_argument("--runs", type=int, default=50, help="Monte Carlo runs")
    p.add_argument(
        "--snr",
        type=lambda s: [float(v) for v in s.split(",")],
        default=None,
        help="comma-separated SNR grid (tracking) or mixture SNR (separation)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", required=True, help="output CSV path")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("track", help="dominant-frequency track of an 8 kHz WAV")
    p.add_argument("input", help="8 kHz mono WAV")
    p.add_argument("--q", type=float, default=0.25, help="annealing exponent")
    p.add_argument("--inner-iters", type=int, default=1)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_track)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
