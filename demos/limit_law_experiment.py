"""Replicated check of the joint limit law of scaled modulated sums.

A circular white field is sampled R times on a 32 x 32 box; at three
separated frequencies the scaled real/imag parts should be jointly normal
with covariance diag(f/2), the periodogram ordinates exponential with mean
f and asymptotically independent across frequencies.
"""

import math

import numpy as np

from specfield.domain import BoxDims
from specfield.frequencies import FrequencyScheme
from specfield.model import CIRCULAR_GAUSSIAN, white_noise
from specfield.stats import run_clt_experiment

spec = white_noise(2, CIRCULAR_GAUSSIAN, 1.0)
dims = (32, 32)
scheme = FrequencyScheme.separated((math.pi / 2, math.pi / 2), 3, 0.2, 1,
                                   [BoxDims(dims)])

report = run_clt_experiment(spec, scheme, dims, 2000, seed=101)

print("frequencies:")
for f in report.frequencies:
    print(f"  ({f[0]:.4f}, {f[1]:.4f})")
print(f"\ntarget diagonal f/2 = {report.target_diagonal}")
print("empirical covariance of (Re S_1, Im S_1, ..., Im S_3)/sqrt(V):")
with np.printoptions(precision=3, suppress=True):
    print(report.covariance)
print(f"max |covariance - diag(f/2)| = {report.max_cov_error:.4f}")

print("\nKS against N(0, f/2), per coordinate:")
print("  " + "  ".join(f"p={p:.3f}" for _, p in report.coordinate_ks))
print("KS of I against Exponential(mean f), per frequency:")
print("  " + "  ".join(f"p={p:.3f}" for _, p in report.periodogram_ks))
print(f"max cross-frequency |correlation| = "
      f"{report.max_cross_correlation:.4f}")
