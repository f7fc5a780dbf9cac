"""
Tracking a swept sinusoid through heavy noise
=============================================

A sinusoid sweeps up and back down in frequency while buried in white
noise.  Estimating the frequency from each spectrogram frame on its own
falls apart at low SNR; a filter that carries a one-step prediction from
frame to frame keeps the track.  This demo first walks one noisy run
through both estimators, then averages squared error over several runs
and noise levels.
"""

import numpy as np

from dnmf import DnmfModel, FilterState, filter_stream, mix_at_snr, stft
from dnmf.experiments import (
    TrackingScenario,
    gen_swept_sinusoid,
    run_tracking,
    track_frequency,
    tracking_model,
)

scenario = TrackingScenario(runs=3, snr_grid=(-10.0, -5.0, 0.0, 5.0))
signal, truths = gen_swept_sinusoid(scenario)
n_bins = scenario.fft_size // 2 + 1

# One run at -10 dB, side by side.  The static estimator refines each
# frame from a uniform prior with the identity basis; the dynamic one
# predicts each frame from the last and nudges the prediction toward the
# data.
rng = np.random.default_rng(123)
noisy = mix_at_snr(signal, rng.standard_normal(signal.shape[0]), -10.0)
mag = np.abs(stft(noisy, scenario.fft_size, scenario.hop))

static = FilterState(DnmfModel(basis=np.eye(n_bins), lags=[]), inner_iters=50)
dynamic = FilterState(tracking_model(n_bins), anneal=0.25, inner_iters=1)
f_static = track_frequency(filter_stream(static, mag), scenario.fft_size)
f_dynamic = track_frequency(filter_stream(dynamic, mag), scenario.fft_size)
print("single run at -10 dB (frequency in radians/sample):")
print("  frame   truth   static  dynamic")
for t in range(0, mag.shape[1], 25):
    print(f"  {t:5d}  {truths[t]:6.3f}  {f_static[t]:7.3f}  {f_dynamic[t]:7.3f}")

# Monte Carlo comparison.  Each row of the report is one run's mean
# squared error; averaging over runs gives the per-method curve.
report = run_tracking(scenario, seed=0)
print("\nmean squared error (radians^2) over "
      f"{scenario.runs} runs per SNR:")
print("  SNR (dB)   static    dynamic")
for snr in scenario.snr_grid:
    m_static = np.mean(report.values(method="static", input_snr_db=snr))
    m_dnmf = np.mean(report.values(method="dnmf", input_snr_db=snr))
    print(f"  {snr:8.0f}  {m_static:8.4f}  {m_dnmf:9.4f}")
print("\nthe dynamic filter wins where the noise drowns single frames and"
      "\nmatches the static estimator once frames are clean on their own")
