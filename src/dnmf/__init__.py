"""Dynamic nonnegative matrix factorization.

A probabilistic NMF whose coefficients follow a nonnegative vector-
autoregression: multinomial observations over a column-stochastic basis,
exponential innovations around the predicted coefficients, EM training, and
causal per-frame filtering with annealed predictions.
"""
from .core import EPS, is_divergence, nonneg_matrix, normalize_columns, stochastic_matrix
from .dsp import (
    input_snr,
    istft,
    mix_at_snr,
    output_snr,
    stft,
    wiener_reconstruct,
)
from .plca import (
    fit_static_plca,
    is_nmf_update_h,
    is_nmf_update_w,
    reconstruct,
)
from .statespace import (
    ConvergenceError,
    DnmfModel,
    FilterState,
    TrainConfig,
    build_lag_matrix,
    concat_models,
    estimate_nvar,
    filter_frame,
    filter_stream,
    map_objective,
    solve_beta,
    train,
)
from .wav import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "EPS",
    "__version__",
    "nonneg_matrix",
    "stochastic_matrix",
    "normalize_columns",
    "is_divergence",
    "is_nmf_update_h",
    "is_nmf_update_w",
    "fit_static_plca",
    "reconstruct",
    "ConvergenceError",
    "DnmfModel",
    "TrainConfig",
    "FilterState",
    "solve_beta",
    "build_lag_matrix",
    "estimate_nvar",
    "train",
    "filter_frame",
    "filter_stream",
    "map_objective",
    "concat_models",
    "stft",
    "istft",
    "wiener_reconstruct",
    "input_snr",
    "output_snr",
    "mix_at_snr",
    "read_wav",
    "write_wav",
]
