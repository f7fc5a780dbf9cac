"""Command-line entry point: train, separate, denoise, experiment, track.

Exit codes: 0 on success, 2 on usage or input errors, 3 on numerical failures.
Same ``--seed``, numpy/BLAS build and BLAS thread count: same output bytes.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .core import _checked_exponent, _checked_int, nonneg_matrix
from .dsp import _check_fft_size, _check_hop, stft
from .experiments import (
    _TRACK_ANNEAL,
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
    filter_stream,
    lag_fit_divergence,
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
        "train_q": _checked_exponent(train_q, "train_q"),
        "metadata": dict(metadata or {}),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        # json.dumps runs the C encoder; json.dump would run the pure-Python
        # one, for the same bytes.
        fh.write(json.dumps(doc))
        fh.write("\n")


def load_model(path: str) -> tuple[DnmfModel, float, dict]:
    """Load a model saved by :func:`save_model`, validating its invariants.

    :class:`DnmfModel` checks the basis and lags (renormalizing small drift in
    the column sums with a warning); this function checks the file format:
    ``format_version``, ``K``, ``I`` and ``J`` must be JSON integers and
    ``train_q`` a number in (0, 1] (``true``, ``9.0`` and ``"0.5"`` are
    neither).  Any malformed document raises ``ValueError`` naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model document must be a JSON object")
    try:
        version = doc.get("format_version")
        if _checked_int(version, "format_version") != FORMAT_VERSION:
            raise ValueError(f"unsupported format_version {version!r}")
        model = DnmfModel(basis=doc["W"], lags=list(doc["A"]))
        sizes = tuple(_checked_int(doc[key], key) for key in "KIJ")
        train_q = _checked_exponent(doc["train_q"], "train_q")
        metadata = dict(doc.get("metadata", {}))
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if (model.n_features, model.n_components, model.order) != sizes:
        raise ValueError(f"{path}: model sizes do not match the K/I/J fields")
    return model, train_q, metadata


def _load_training_matrix(path: str, fft_size: int, hop: int) -> np.ndarray:
    if path.lower().endswith(".csv"):
        try:
            with warnings.catch_warnings():
                # A file without data rows is rejected below; numpy would
                # first warn about it.
                warnings.simplefilter("ignore", UserWarning)
                mat = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
            return nonneg_matrix(mat, name="data")
        except ValueError as exc:  # unparsable text, invalid UTF-8, bad values
            raise ValueError(f"{path}: {exc}") from None
    _check_fft_size(fft_size)
    if hop > fft_size:
        raise ValueError(f"--hop {hop} above --fft {fft_size} would skip samples")
    samples, _ = _read_signal(path, fft_size)
    return np.abs(stft(samples, fft_size, hop))


def _read_signal(path: str, fft_size: int) -> tuple[np.ndarray, int]:
    """:func:`read_wav`, rejecting a signal shorter than one FFT frame."""
    samples, rate = read_wav(path)
    if len(samples) < fft_size:
        raise ValueError(f"{path}: {len(samples)} samples, shorter than fft_size {fft_size}")
    return samples, rate


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
        print(f"lag_fit_is_divergence: {lag_fit_divergence(model, h):.10g}")
    save_model(
        model,
        args.out,
        train_q=args.q,
        metadata={"source": os.path.basename(args.input), "iters": str(args.iters),
                  "seed": str(args.seed)},
    )
    print(f"model written to {args.out}")
    return 0


def cmd_separate(args: argparse.Namespace) -> int:
    """``separate``, and ``denoise``, which is ``separate`` with ``out2=None``."""
    if args.out2 is not None and os.path.realpath(args.out1) == os.path.realpath(args.out2):
        raise ValueError(f"--out1 {args.out1} and --out2 {args.out2} are the same file")
    model_a, _, _ = load_model(args.model1)
    model_b, _, _ = load_model(args.model2)
    fft_size = _check_fft_size(2 * (model_a.n_features - 1))
    hop = args.hop if args.hop is not None else max(1, fft_size // 4)
    _check_hop(fft_size, hop)
    samples, rate = _read_signal(args.mixture, fft_size)
    n = samples.shape[0]
    # Zero-pad so the last frame reaches the final sample; outputs are trimmed to n.
    samples = np.pad(samples, (0, (fft_size - n) % hop))
    spec = stft(samples, fft_size, hop)
    del samples  # no signal-length array stays alive across the inverse transforms
    out1, out2 = separate_sources(spec, model_a, model_b, hop, args.q, both=args.out2 is not None)
    del spec  # freed before write_wav makes its temporaries
    write_wav(args.out1, out1[:n], rate)
    if out2 is None:
        print(f"wrote {args.out1}")
        return 0
    try:
        write_wav(args.out2, out2[:n], rate)
    except BaseException:
        os.remove(args.out1)  # leave no half of a failed separation behind
        raise
    print(f"wrote {args.out1} and {args.out2}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if args.scenario == "tracking":
        given = {"runs": args.runs, "snr_grid": args.snr}
        scenario = TrackingScenario(**{k: v for k, v in given.items() if v is not None})
        report = run_tracking(scenario, seed=args.seed)
    else:
        if args.runs is not None:
            raise ValueError("--runs applies to --scenario tracking only")
        if args.snr and len(args.snr) > 1:
            raise ValueError(f"--scenario separation takes one --snr value, got {len(args.snr)}")
        scenario = SeparationScenario(**({"mix_snr_db": args.snr[0]} if args.snr else {}))
        report = run_separation(scenario, seed=args.seed)
    report.write_csv(args.csv)
    print(f"{len(report.rows)} rows written to {args.csv}")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    sc = TrackingScenario()
    samples, rate = _read_signal(args.input, sc.fft_size)
    if rate != 8000:
        raise ValueError(f"{args.input}: tracking expects 8000 Hz, got {rate}")
    mag = np.abs(stft(samples, sc.fft_size, sc.hop))
    model = tracking_model(sc.fft_size // 2 + 1)
    state = FilterState(model, anneal=args.q)
    omega = track_frequency(filter_stream(state, mag), sc.fft_size)
    rows = np.column_stack((np.arange(omega.size), omega))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        np.savetxt(fh, rows, fmt=("%d", "%.10g"), delimiter=",",
                   header="frame,omega_rad_per_sample", comments="")
    print(f"{mag.shape[1]} frames written to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raise a bad command line as ``ValueError``, for :func:`main` to report
    as one ``error:`` line; the subcommand parsers inherit this class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dnmf",
        description="Dynamic NMF: training, filtering, separation, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model to a WAV or CSV matrix")
    p.add_argument("input", help="WAV file or CSV magnitude matrix (K rows)")
    p.add_argument("--rank", type=int, required=True, help="number of components")
    p.add_argument("--order", type=int, default=1, help="autoregressive order")
    p.add_argument("--iters", type=int, default=TrainConfig.iters)
    p.add_argument("--m", type=int, default=TrainConfig.prior_start,
                   help="iteration enabling the prior (default %(default)s, at most --iters)")
    p.add_argument("--q", type=float, default=TrainConfig.anneal, help="annealing exponent")
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--fft", type=int, default=1024, help="FFT size for WAV input")
    p.add_argument("--hop", type=int, default=256, help="hop size for WAV input")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("separate", help="split a mixture with two models")
    p.add_argument("--mixture", required=True)
    p.add_argument("--model1", required=True)
    p.add_argument("--model2", required=True)
    p.add_argument("--q", type=float, default=SeparationScenario.anneal, help="annealing exponent")
    p.add_argument("--hop", type=int, default=None, help="default: fft/4, at least 1")
    p.add_argument("--out1", required=True)
    p.add_argument("--out2", required=True)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("denoise", help="extract the speech estimate from noisy audio")
    p.add_argument("--input", dest="mixture", metavar="INPUT", required=True)
    p.add_argument("--speech-model", dest="model1", metavar="SPEECH_MODEL", required=True)
    p.add_argument("--noise-model", dest="model2", metavar="NOISE_MODEL", required=True)
    p.add_argument("--q", type=float, default=0.3, help="annealing exponent")
    p.add_argument("--hop", type=int, default=None, help="default: fft/4, at least 1")
    p.add_argument("--out", dest="out1", metavar="OUT", required=True)
    p.set_defaults(func=cmd_separate, out2=None)

    p = sub.add_parser("experiment", help="run a benchmark scenario to CSV")
    p.add_argument("--scenario", choices=("tracking", "separation"), required=True)
    p.add_argument("--runs", type=int, default=None,
                   help="Monte Carlo runs, tracking only (default 50)")
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
    p.add_argument("--q", type=float, default=_TRACK_ANNEAL, help="annealing exponent")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_track)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # Finite input can still overflow float64 (data or lag entries near
        # 1e308); stop at the first such operation rather than warn and carry
        # inf/NaN on until some later check misreports it as bad input.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    # MemoryError: a size flag (--rank, --order) beyond the machine's memory.
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
