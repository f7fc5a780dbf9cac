"""
Factoring a nonnegative matrix into parts and gains
===================================================

A short tour of the static model, ``train`` at order 0 (no temporal
prior): synthesize a spectrogram-like matrix from two known spectral
prototypes with smoothly varying gains, factor it blind, and check that
EM drives the divergence down and recovers the prototypes.
"""

import numpy as np

from dnmf import TrainConfig, is_divergence, train

# Two overlapping Gaussian bumps over 48 frequency bins play the role of
# spectral prototypes; their gains trade off sinusoidally over 120 frames.
rng = np.random.default_rng(7)
bins = np.arange(48, dtype=float)
proto1 = np.exp(-0.5 * ((bins - 12.0) / 3.0) ** 2)
proto2 = np.exp(-0.5 * ((bins - 30.0) / 5.0) ** 2)
frames = 120
phase = np.linspace(0.0, 2.0 * np.pi, frames)
x = np.outer(proto1, 1.2 + np.sin(phase)) + np.outer(proto2, 1.2 + np.cos(phase))
x += rng.uniform(0.0, 0.02, x.shape)  # light measurement noise

# Fit at increasing iteration counts and watch the objective fall.  The
# divergence is computed against the expected data, i.e. the factorization
# rescaled to each frame's observed mass.
mass = x.sum(axis=0)
print("EM progress (rank 2):")
for iters in (1, 5, 25, 100):
    model, h = train(x, 2, 0, TrainConfig(iters=iters, prior_start=0))
    div = is_divergence(x, (model.basis @ h) * mass)
    print(f"  iters={iters:3d}  divergence={div:10.4f}")

# The learned dictionary columns should line up with the prototypes (in
# some order -- the factorization has no preferred component ordering).
model, h = train(x, 2, 0, TrainConfig(iters=100, prior_start=0))
w = model.basis
truth = np.stack([proto1 / proto1.sum(), proto2 / proto2.sum()], axis=1)
corr = np.corrcoef(w.T, truth.T)[:2, 2:]
print("\nlearned component vs. true prototype correlations:")
for k in range(2):
    j = int(corr[k].argmax())
    print(f"  component {k} matches prototype {j}: corr = {corr[k, j]:.4f}")

# The coefficients live on the simplex, so each frame's column of h is a
# distribution over components; the gain crossover shows up as the point
# where the two component weights swap dominance.
lead = h.argmax(axis=0)
swaps = int(np.sum(lead[1:] != lead[:-1]))
print(f"\ndominant component changes {swaps} time(s) across {frames} frames")
