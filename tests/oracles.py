"""Reference implementations that the tests compare the library against.

``truncate`` splits one sample at the index-product levels <k>^q that the
negligibility report's replication loop applies to whole batches;
``dense_part_sums`` sums those parts of a batch drawn whole, with no
innovation left out; and ``fejer_product`` is the d-dimensional Fejer kernel
that the expected periodogram concentrates with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from specfield.fieldgen import generate_batch
from specfield.kernels import fejer
from specfield.model import FieldSample
from specfield.periodogram import index_products, phase_grid
from specfield.stats import _part_sums


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
    thresholds = index_products(sample.dims, sample.shift) ** q
    phases = phase_grid(sample.dims, lam, sample.shift).reshape(sample.values.shape)
    demod = phases * sample.values
    keep = np.abs(sample.values) <= thresholds
    return TruncatedField(bounded=np.where(keep, demod, 0.0),
                          tail=np.where(keep, 0.0, demod))


def dense_part_sums(spec, box, leftover, q, freqs, seeds) -> list[np.ndarray]:
    """The (tail, leftover) sums, each (R, m), that the negligibility report's
    replication loop takes of the seeds' fields on ``box``, from the whole
    draw: ``generate_batch`` with every innovation, then ``stats._part_sums``."""
    values = generate_batch(spec, box, None, seeds)
    phases = [phase_grid(box, lam) for lam in freqs]
    return list(_part_sums(box, leftover, q)(values, np.empty_like(values), phases))


def fejer_product(theta, v) -> float:
    """Product over axes of Fejer kernels: prod_s K(theta_s, v_s).

    ``theta`` and ``v`` must have the same length; this is the d-dimensional
    concentration kernel attached to a box of dims ``v``.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    sides = [int(x) for x in np.atleast_1d(v)]
    if theta.shape[0] != len(sides):
        raise ValueError(
            f"dimension mismatch: {theta.shape[0]} angles vs {len(sides)} box sides"
        )
    out = 1.0
    for t, n in zip(theta, sides):
        out *= fejer(t, n)
    return float(out)
