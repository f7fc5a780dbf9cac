"""Synthetic benchmark scenarios: frequency tracking and source separation.

Both experiments compare causal dynamic filtering against a static per-frame
baseline on fully synthetic signals, and collect their metrics into a small
CSV-serializable report (one row per run and condition).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Array, _checked_arrays, _checked_int, _checked_real, _checked_tuple
from .dsp import _BLOCK, _soft_mask, istft, mix_at_snr, output_snr, stft
from .statespace import DnmfModel, FilterState, TrainConfig, concat_models, filter_stream, train

__all__ = [
    "TrackingScenario",
    "SeparationScenario",
    "ReportRow",
    "ExperimentReport",
    "gen_swept_sinusoid",
    "tracking_model",
    "track_frequency",
    "tracking_mse",
    "run_tracking",
    "gen_chirp_pair",
    "separate_sources",
    "run_separation",
]

CSV_HEADER = "scenario,method,J,input_snr_db,metric,value,seed"

# EM refinements per frame in both scenarios, for dynamic filtering and for
# the static baseline, and the annealing exponent of the tracking filters.
_DNMF_INNER = 1
_STATIC_INNER = 50
_TRACK_ANNEAL = 0.25


@dataclass
class TrackingScenario:
    """Sinusoid with a piecewise-linear frequency ramp, tracked in noise.

    The instantaneous frequency rises from ``freq_lo`` to ``freq_hi`` (radians
    per sample) and back, peaking at the center of frame ``peak_frame``
    (1-based) out of ``n_frames`` non-overlapping analysis frames.  An
    ``n_frames`` that is not an integer of at least 1, a ``peak_frame`` that
    is not an integer in ``[1, n_frames]``, a ``runs`` that is not an
    integer of at least 1 or an ``snr_grid`` that is not a non-empty sequence
    of finite reals (stored as a tuple of floats) raises ``ValueError``.
    """

    fft_size = 128
    hop = 128
    freq_lo = 0.24
    freq_hi = 2.9
    n_frames: int = 254
    peak_frame: int = 127
    snr_grid: tuple = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0)
    runs: int = 50

    def __post_init__(self) -> None:
        self.n_frames = _checked_int(self.n_frames, "n_frames", 1)
        self.peak_frame = _checked_int(self.peak_frame, "peak_frame", 1)
        if self.peak_frame > self.n_frames:
            raise ValueError(f"peak_frame {self.peak_frame} must lie in "
                             f"[1, n_frames={self.n_frames}]")
        self.snr_grid = _checked_tuple(self.snr_grid, "snr_grid", _checked_real)
        self.runs = _checked_int(self.runs, "runs", 1)


@dataclass
class SeparationScenario:
    """Two crossing two-tone chirps, one the time reversal of the other.

    The default duration puts roughly one spectrogram frame on each of the
    ``rank`` learned templates.  At that pace every template is visited once
    and handed off immediately, so the lag matrices must encode the actual
    template-to-template progression -- which is exactly what separating the
    time-reversed copy requires.  Longer signals leave each template active
    for many frames, and the learned dynamics collapse toward self-loops that
    carry no ordering information.  An ``orders`` that is not a non-empty
    sequence of integers of at least 0 (stored as a tuple) raises
    ``ValueError``.
    """

    sample_rate = 16000
    fft_size = 1024
    hop = 256
    sweeps_hz = ((500.0, 3000.0), (1500.0, 5000.0))
    anneal = 0.1
    duration: float = 1.0
    rank: int = 50
    orders: tuple = (0, 1, 2, 3, 4, 5)
    mix_snr_db: float = 0.0

    def __post_init__(self) -> None:
        self.orders = _checked_tuple(self.orders, "orders", _checked_int)


@dataclass
class ReportRow:
    scenario: str
    method: str
    order: int
    input_snr_db: float
    metric: str
    value: float
    seed: int


@dataclass
class ExperimentReport:
    rows: list[ReportRow] = field(default_factory=list, init=False)

    def add(self, **kwargs) -> None:
        self.rows.append(ReportRow(**kwargs))

    def values(self, **filters) -> list[float]:
        """Values of rows matching every given field (e.g. method="static")."""
        out = []
        for row in self.rows:
            if all(getattr(row, k) == v for k, v in filters.items()):
                out.append(row.value)
        return out

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in self.rows:
                fh.write(
                    f"{r.scenario},{r.method},{r.order},{r.input_snr_db:.10g},"
                    f"{r.metric},{r.value:.10g},{r.seed}\n"
                )


def _frame_centers(scenario: TrackingScenario) -> Array:
    # 0-based sample index of each frame's center, frames starting at t*hop.
    t = np.arange(scenario.n_frames)
    return t * scenario.hop + (scenario.fft_size - 1) / 2.0


def gen_swept_sinusoid(scenario: TrackingScenario) -> tuple[Array, Array]:
    """Unit sinusoid with an up-down frequency ramp, plus per-frame truth.

    Returns
    -------
    (signal, truths) : tuple of np.ndarray
        ``signal`` has ``n_frames * hop`` samples; ``truths[t]`` is the
        instantaneous frequency (radians per sample) at the center of
        frame ``t``.
    """
    centers = _frame_centers(scenario)
    anchors = np.array(
        [centers[0], centers[scenario.peak_frame - 1], centers[-1]]
    )
    levels = np.array([scenario.freq_lo, scenario.freq_hi, scenario.freq_lo])
    n = scenario.n_frames * scenario.hop
    omega = np.interp(np.arange(n), anchors, levels)
    signal = np.sin(np.cumsum(omega))
    truths = np.interp(centers, anchors, levels)
    return signal, truths


def tracking_model(n_bins: int) -> DnmfModel:
    """Fixed identity-basis model whose single lag smooths across neighbors.

    The basis maps component i to frequency bin i one-to-one; the lag matrix
    is tridiagonal with 1/3 on all three diagonals, so the predicted activity
    of a bin averages the previous frame's activity of that bin and its two
    neighbors (edge rows keep only their in-range entries).
    """
    lag = (
        np.eye(n_bins) + np.eye(n_bins, k=1) + np.eye(n_bins, k=-1)
    ) / 3.0
    return DnmfModel(basis=np.eye(n_bins), lags=[lag])


def track_frequency(h: Array, fft_size: int) -> float | Array:
    """Frequency readout: the bin of the largest coefficient, in radians per
    sample (ties resolve to the lower bin).

    ``h`` is one coefficient vector, giving one frequency, or a (bins,
    frames) array, giving one frequency per column.
    """
    return 2.0 * np.pi * np.argmax(h, axis=0) / fft_size


def tracking_mse(estimates: Array, truths: Array) -> float:
    """Mean squared frequency error, pooled over every run and frame, of
    finite arrays of one shape (else ``ValueError`` naming the argument)."""
    estimates, truths = _checked_arrays(estimates=estimates, truths=truths)
    diff = estimates - truths
    return float(np.mean(diff * diff))


def _run_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def run_tracking(scenario: TrackingScenario, seed: int = 0) -> ExperimentReport:
    """Monte Carlo frequency tracking: static argmax versus dynamic filtering.

    For every SNR level and run, white Gaussian noise from a derived seed is
    mixed onto the swept sinusoid; both methods then see the same magnitude
    frames.  The static baseline estimates each frame independently with the
    identity basis (50 EM refinements, uniform prior); the dynamic method
    filters with :func:`tracking_model`, one refinement per frame and
    predictions annealed by 0.25.  One MSE row is recorded per run, method,
    and SNR.
    """
    signal, truths = gen_swept_sinusoid(scenario)
    n_bins = scenario.fft_size // 2 + 1
    static = DnmfModel(basis=np.eye(n_bins), lags=[])
    dynamic = tracking_model(n_bins)
    report = ExperimentReport()
    for si, snr in enumerate(scenario.snr_grid):
        for run in range(scenario.runs):
            rseed = _run_seed(seed, si, run)
            rng = np.random.default_rng(rseed)
            noisy = mix_at_snr(signal, rng.standard_normal(signal.shape[0]), snr)
            mag = np.abs(stft(noisy, scenario.fft_size, scenario.hop))
            for method, model, inner in (
                ("static", static, _STATIC_INNER),
                ("dnmf", dynamic, _DNMF_INNER),
            ):
                state = FilterState(model, anneal=_TRACK_ANNEAL, inner_iters=inner)
                est = track_frequency(filter_stream(state, mag), scenario.fft_size)
                report.add(
                    scenario="tracking",
                    method=method,
                    order=model.order,
                    input_snr_db=float(snr),
                    metric="mse_rad2",
                    value=tracking_mse(est, truths),
                    seed=rseed,
                )
    return report


def gen_chirp_pair(scenario: SeparationScenario) -> tuple[Array, Array]:
    """Two-tone linear chirp and its exact time reversal."""
    n = int(round(scenario.duration * scenario.sample_rate))
    t = np.arange(n) / scenario.sample_rate
    ramp = t / scenario.duration
    s1 = np.zeros(n)
    for f0, f1 in scenario.sweeps_hz:
        freq = f0 + (f1 - f0) * ramp
        s1 += 0.4 * np.sin(2.0 * np.pi * np.cumsum(freq) / scenario.sample_rate)
    return s1, s1[::-1].copy()


def separate_sources(
    spec: Array,
    model1: DnmfModel,
    model2: DnmfModel,
    hop: int,
    anneal: float = SeparationScenario.anneal,
    inner_iters: int = 1,
    both: bool = True,
) -> tuple[Array, Array | None]:
    """Separate the complex (bins, frames) mixture STFT ``spec`` into the
    signals ``(y1, y2)`` with two concatenated models.

    One pass over 128-frame blocks filters each block's magnitudes (the
    filter history carries from block to block) and masks the block in place
    by ``dsp._soft_mask``'s ``W1 h1 / max(W1 h1 + W2 h2, EPS)``, a real gain
    in [0, 1] that keeps the mixture phase.  ``y1`` is the ``istft`` of the
    masked frames left in ``spec``; ``y2`` is the mixture's inverse minus
    ``y1`` (mixture consistency, Wisdom et al. 2019), or ``None`` if not ``both``.
    """
    y2 = istft(spec, hop) if both else None  # before the frames are masked
    state = FilterState(concat_models(model1, model2), anneal=anneal, inner_iters=inner_iters)
    n1 = model1.n_components
    for b in range(0, spec.shape[1], _BLOCK):
        cols = slice(b, b + _BLOCK)
        h = filter_stream(state, np.abs(spec[:, cols]))
        spec[:, cols] *= _soft_mask(model1.basis @ h[:n1], model2.basis @ h[n1:])
        del h
    del state  # the filter and the last block's arrays are freed before the inverse
    y1 = istft(spec, hop)
    if y2 is not None:
        y2 -= y1
    return y1, y2


def run_separation(scenario: SeparationScenario, seed: int = 0) -> ExperimentReport:
    """Train per-source models for each order and separate the 0 dB mixture.

    Order 0 is the static baseline: no dynamics, so filtering reduces to
    50 uniform-prior EM refinements per frame.  Higher orders filter causally
    with the learned lag matrices and one refinement per frame.  Each
    source's training seed depends only on the source (not the order), so
    all orders factor the same dictionaries and differ purely in their
    dynamics.  :func:`separate_sources` reconstructs both sources, and each
    source's time-domain output SNR goes into the report.
    """
    s1, s2 = gen_chirp_pair(scenario)
    mixture = mix_at_snr(s1, s2, scenario.mix_snr_db)
    s2ref = mixture - s1
    nfft, hop = scenario.fft_size, scenario.hop
    mix_spec = stft(mixture, nfft, hop)
    mag1 = np.abs(stft(s1, nfft, hop))
    mag2 = np.abs(stft(s2ref, nfft, hop))

    report = ExperimentReport()
    for order in scenario.orders:
        models = []
        for src, mag in ((1, mag1), (2, mag2)):
            cfg = TrainConfig(seed=_run_seed(seed, src))
            model, _ = train(mag, scenario.rank, order, cfg)
            models.append(model)
        method = "dnmf" if order >= 1 else "static"
        inner = _DNMF_INNER if order >= 1 else _STATIC_INNER
        y1, y2 = separate_sources(mix_spec.copy(), *models, hop, scenario.anneal, inner)
        for tag, y, ref in (("source1", y1, s1), ("source2", y2, s2ref)):
            # The frame grid may not cover the last few samples; score the
            # span both signals share.
            n = min(y.shape[0], ref.shape[0])
            report.add(
                scenario="separation",
                method=method,
                order=order,
                input_snr_db=scenario.mix_snr_db,
                metric=f"output_snr_db_{tag}",
                value=output_snr(ref[:n], y[:n]),
                seed=seed,
            )
    return report
