"""Index-product truncation: the oracle of the split that the negligibility
report makes, and the exact second moments of its two halves.

Truncation splits the demodulated field at each index k into a bounded
part and a tail at the level <k>^q, where <k> is the product of the
(absolute, positive) coordinates of k.  Centering constants vanish exactly
for centered Gaussian innovations; the bounded/tail second moments have
closed Gaussian forms used by the reports.

The Bernstein blocking itself lives in ``bernstein`` and the negligibility
report in ``stats``.  ``plan``, ``MixingProfile``, ``replication_seeds`` and
``negligibility_report`` are re-exported here, where the benchmark reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bernstein import MixingProfile as MixingProfile, plan as plan
from .fieldgen import FieldSample, LinearFieldSpec, replication_seeds as replication_seeds
from .periodogram import index_products, phase_grid
from .stats import _normal_cdf, negligibility_report as negligibility_report


@dataclass(frozen=True)
class TruncatedField:
    """Demodulated sample split at the index-product threshold <k>^q:
    bounded + tail reproduces exp(-i k.lam) X_k exactly."""

    bounded: np.ndarray
    tail: np.ndarray


def truncate(sample: FieldSample, lam, q: float) -> TruncatedField:
    """Split the demodulated field at |X_k| <= <k>^q.

    Both halves keep mean zero without explicit centering: negating the
    sample's values negates both halves (the truncation sets are symmetric),
    and a centered Gaussian field has the same law as its negation, so the
    centering constants are exactly zero.
    """
    q = float(q)
    if not (0.0 < q < 0.25):
        raise ValueError(f"q must satisfy 0 < q < 1/4, got {q}")
    coords = sample.axis_coords()
    thresholds = index_products(coords) ** q
    phases = phase_grid(coords, lam).reshape(sample.values.shape)
    demod = phases * sample.values
    keep = np.abs(sample.values) <= thresholds
    return TruncatedField(bounded=np.where(keep, demod, 0.0),
                          tail=np.where(keep, 0.0, demod))


def truncated_second_moments(spec: LinearFieldSpec, thresholds):
    """Exact marginal second moments (E|bounded|^2, E|tail|^2) at given levels.

    For the real field, with sigma^2 = r(0) and a = t/sigma,
        E[X^2; |X| > t] = 2 sigma^2 (a phi(a) + Q(a)),
    and for the circular field, with b = (t/sigma)^2,
        E[|X|^2; |X| > t] = sigma^2 (1 + b) exp(-b).
    """
    t = np.asarray(thresholds, dtype=float)
    sigma2 = spec.variance
    if sigma2 <= 0.0:
        zero = np.zeros_like(t)
        return zero, zero.copy()
    if spec.is_real:
        a = t / math.sqrt(sigma2)
        pdf = np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
        upper = _normal_cdf(-a)    # Q(a) = Phi(-a)
        tail = 2.0 * sigma2 * (a * pdf + upper)
    else:
        b = (t * t) / sigma2
        tail = sigma2 * (1.0 + b) * np.exp(-b)
    return sigma2 - tail, tail
