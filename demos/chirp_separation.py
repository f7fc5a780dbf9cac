"""
Separating two crossing chirps with learned dynamics
====================================================

Two two-tone chirps, one the exact time reversal of the other, are mixed
at 0 dB.  Their spectra cross, so frame-by-frame factorization cannot
tell them apart where they overlap -- but their template-to-template
motion runs in opposite directions.  Training one model per source and
filtering the mixture with the pair shows how much the learned dynamics
buy over the static baseline, and writes the separated audio to disk.
"""

import os

from dnmf import (
    TrainConfig,
    istft,
    mix_at_snr,
    output_snr,
    stft,
    train,
    write_wav,
)
import numpy as np

from dnmf.experiments import (
    SeparationScenario,
    gen_chirp_pair,
    run_separation,
    separate_sources,
)

scenario = SeparationScenario()
report = run_separation(scenario, seed=0)

# One row per source and autoregressive order; order 0 is the static
# baseline.  Average the two sources for the headline number.
print("output SNR (dB) by autoregressive order:")
print("  order   source1   source2      mean")
for order in scenario.orders:
    v1 = report.values(order=order, metric="output_snr_db_source1")[0]
    v2 = report.values(order=order, metric="output_snr_db_source2")[0]
    print(f"  {order:5d}  {v1:8.2f}  {v2:8.2f}  {(v1 + v2) / 2:8.2f}")
static_mean = np.mean(report.values(order=0))
dyn_means = [np.mean(report.values(order=j)) for j in scenario.orders if j >= 1]
print(f"\ndynamic-vs-static gap: {max(dyn_means) - static_mean:+.2f} dB at the "
      "best order")

# Rebuild the best single-lag separation and save the audio.  Training
# sees each isolated source; only filtering sees the mixture.
s1, s2 = gen_chirp_pair(scenario)
mixture = mix_at_snr(s1, s2, scenario.mix_snr_db)
sr, nfft, hop = scenario.sample_rate, scenario.fft_size, scenario.hop
mix_spec = stft(mixture, nfft, hop)
models = []
for src, ref in ((1, s1), (2, mixture - s1)):
    mag = np.abs(stft(ref, nfft, hop))
    model, _ = train(mag, scenario.rank, 1, TrainConfig(seed=src * 9973))
    models.append(model)
est1, est2 = separate_sources(np.abs(mix_spec), models[0], models[1], scenario.anneal)

out_dir = "separated"
os.makedirs(out_dir, exist_ok=True)
phase = np.exp(1j * np.angle(mix_spec))
peak = np.abs(mixture).max()
write_wav(os.path.join(out_dir, "mixture.wav"), mixture / (2 * peak), sr)
for name, est, ref in (("source1", est1, s1), ("source2", est2, mixture - s1)):
    y = istft(est * phase, hop)
    n = min(y.shape[0], ref.shape[0])
    snr = output_snr(ref[:n], y[:n])
    path = os.path.join(out_dir, f"{name}.wav")
    write_wav(path, y / (2 * peak), sr)
    print(f"wrote {path}  (output SNR {snr:.2f} dB)")
