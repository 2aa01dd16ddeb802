"""Index-product truncation, and the negligibility diagnostics that justify
dropping both remainders of the Bernstein blocking.

The blocking itself, the integers (s, p, r) along the first axis and the
block and leftover slabs, is exact integer arithmetic and lives in
``bernstein``, which loads no numpy; ``plan``, ``block_index_sets`` and
``MixingProfile`` are importable from here too.

Truncation splits the demodulated field at each index k into a bounded
part and a tail at the level <k>^q, where <k> is the product of the
(absolute, positive) coordinates of k.  Centering constants vanish exactly
for centered Gaussian innovations; the bounded/tail second moments have
closed Gaussian forms used by the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bernstein
from .bernstein import block_index_sets, plan
from .fieldgen import FieldSample, LinearFieldSpec, autocovariance, replication_seeds
from .frequencies import _validated_freqs
from .mixing import dependence_profile
from .periodogram import _row_sums, _separable_grid, phase_grid
from .rng import RNG_STREAM
from .stats import _entry, _normal_cdf, _replicated_sums, g_functional

# the benchmark's workloads import MixingProfile from here, where it was
# found before ``bernstein`` held it
MixingProfile = bernstein.MixingProfile


@dataclass(frozen=True)
class TruncatedField:
    """Demodulated sample split at the index-product threshold <k>^q:
    bounded + tail reproduces exp(-i k.lam) X_k exactly."""

    bounded: np.ndarray
    tail: np.ndarray


def index_products(coords) -> np.ndarray:
    """<k> = prod_i k_i over the box, from per-axis absolute coordinates
    (all required >= 1), such as ``FieldSample.axis_coords()``."""
    coords = [np.asarray(c, dtype=np.int64) for c in coords]
    if any(c.min() < 1 for c in coords):
        raise ValueError("index products need every box coordinate >= 1 "
                         "(use a nonnegative shift)")
    return _separable_grid([c.astype(np.float64) for c in coords])


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
    sigma2 = autocovariance(spec, (0,) * spec.dim).real
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


@dataclass(frozen=True)
class NegligibilityRow:
    index: int
    dims: tuple[int, ...]
    v1: int
    s: int
    p: int
    r: int
    leftover_cardinality: int
    leftover_mean: float
    leftover_se: float
    tail_mean: float
    tail_se: float


@dataclass(frozen=True)
class NegligibilityReport:
    rows: tuple[NegligibilityRow, ...]
    q: float
    replications: int
    seed: int
    rng_stream: int = field(default=RNG_STREAM, init=False)


def _part_sums(box, leftover, q):
    """The replication loop's sums of a batch, shape (2, rows, m): of the tail
    parts over the box, then of the bounded parts over the leftover set.  Each
    row's part is its own sites, gathered in index order and summed by
    ``periodogram._row_sums``, the kernel of every other S."""
    thresholds = index_products([np.arange(1, v + 1) for v in box.v]) ** q
    # the leftover cells' flat indices in order; a slab is one run of them
    rest = math.prod(box.v[1:])
    left = np.concatenate([np.arange((sl.first_lo - 1) * rest, sl.first_hi * rest)
                           for sl in leftover])

    def sums(vals, scratch, phases):
        # |x| goes into the loop's scratch buffer
        tail = (np.abs(vals, out=scratch.real) > thresholds).reshape(len(vals), -1)
        kept = ~tail[:, left]
        out = np.empty((2, len(vals), len(phases)), dtype=np.complex128)
        for r, row in enumerate(vals.reshape(len(vals), -1)):
            for part, sites in enumerate((np.flatnonzero(tail[r]), left[kept[r]])):
                out[part, r] = _row_sums(row[sites], [ph[sites] for ph in phases])
        return out

    return sums


def negligibility_report(spec: LinearFieldSpec, scheme, dims_sequence, q: float,
                         weights, replications: int, seed: int) -> NegligibilityReport:
    """Monte Carlo second moments of the two discarded pieces, per dims entry.

    Column one: E[G(b, S_left)^2] / V, where S_left are the modulated sums
    of the bounded parts over the leftover set and G(b, z) = sum_j a_j Re z_j
    + b_j Im z_j.  Column two: mean over the scheme's frequencies of
    E |sum over the box of the tail parts|^2 / V.  Standard errors accompany
    both.  The blocking plan uses the field's own m-dependence profile.
    """
    weights = np.asarray(weights, dtype=float)
    entries, plans = [], []
    for index, dims in enumerate(dims_sequence, start=1):
        box, freqs = _validated_freqs(spec, scheme, dims)
        if weights.size != 2 * len(freqs):
            raise ValueError(f"need {2 * len(freqs)} weights, got {weights.size}")
        pl = plan(box.v[0], dependence_profile(spec), q)
        _, leftover = block_index_sets(pl, box)
        seeds = replication_seeds(seed, replications, offset=index * replications)
        entries.append(_entry(spec, box, freqs, seeds, _part_sums(box, leftover, q),
                              3 + len(freqs)))
        plans.append((pl, sum(sl.cardinality for sl in leftover)))
    rows = []
    for index, (e, (pl, cardinality), (tail, left)) in enumerate(
            zip(entries, plans, _replicated_sums(spec, entries)), start=1):
        vol = e.box.volume
        g_sq = (g_functional(weights, left) / math.sqrt(vol)) ** 2
        z_sq = ((tail.real ** 2 + tail.imag ** 2) / vol).mean(axis=1)
        rows.append(NegligibilityRow(
            index=index, dims=e.box.v, v1=pl.v1, s=pl.s, p=pl.p, r=pl.r,
            leftover_cardinality=cardinality,
            leftover_mean=float(g_sq.mean()),
            leftover_se=float(g_sq.std(ddof=1) / math.sqrt(replications)),
            tail_mean=float(z_sq.mean()),
            tail_se=float(z_sq.std(ddof=1) / math.sqrt(replications)),
        ))
    return NegligibilityReport(rows=tuple(rows), q=q,
                               replications=replications, seed=seed)
