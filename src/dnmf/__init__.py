"""Dynamic nonnegative matrix factorization.

A probabilistic NMF whose coefficients follow a nonnegative vector-
autoregression: multinomial observations over a column-stochastic basis,
exponential innovations around the predicted coefficients, EM training, and
causal per-frame filtering with annealed predictions.

The package root exports the user API.  Solver internals and helpers stay
importable from the modules that define them (``dnmf.core``, ``dnmf.plca``,
``dnmf.statespace``, ``dnmf.dsp``).
"""
from .core import EPS, is_divergence
from .dsp import istft, mix_at_snr, output_snr, stft
from .statespace import (
    ConvergenceError,
    DnmfModel,
    FilterState,
    TrainConfig,
    concat_models,
    filter_stream,
    lag_fit_divergence,
    map_objective,
    train,
)
from .wav import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "EPS",
    "__version__",
    "is_divergence",
    "ConvergenceError",
    "DnmfModel",
    "TrainConfig",
    "FilterState",
    "train",
    "filter_stream",
    "map_objective",
    "lag_fit_divergence",
    "concat_models",
    "stft",
    "istft",
    "output_snr",
    "mix_at_snr",
    "read_wav",
    "write_wav",
]
