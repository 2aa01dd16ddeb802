"""Monte Carlo verification of the joint limit law of modulated sums.

At m separated admissible frequencies, the scaled real/imag parts

    (Re S(lam_1), Im S(lam_1), ..., Re S(lam_m), Im S(lam_m)) / sqrt(V)

converge to a centered Gaussian vector with covariance diag(f(lam)/2) —
each of the 2m coordinates gets HALF the spectral density, which is what
makes the periodogram I(lam) = |S|^2/V asymptotically Exponential with
mean f(lam) (sum of two independent N(0, f/2) squares), the ordinates at
distinct frequencies being asymptotically independent.

The weighted-functional route goes through

    G(b, z) = sum_j a_j Re z_j + b_j Im z_j,   b = (a_1, b_1, ..., a_m, b_m),

whose second moment per unit volume tends to (1/2) f(lam) ||b||^2; the
``miller_check`` table tracks that convergence along a dims sequence.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from ._util import check_replication, replication_batch, replication_chunks, run_chunked
from .fieldgen import (LinearFieldSpec, _batch_workspace, _workspace_sizes, generate_batch,
                       replication_seeds, spectral_density)
from .frequencies import FrequencyScheme, _validated_freqs
from .periodogram import batched_modulated_sums, phase_grid
from .rng import RNG_STREAM, replication_seed


def g_functional(weights, z):
    """G(b, z) = sum_j a_j Re z_j + b_j Im z_j with b = (a_1, b_1, a_2, b_2, ...).

    ``z`` is one vector of m entries (a float comes back) or an (R, m) batch
    (an array of R values comes back, one per row).
    """
    w = np.asarray(weights, dtype=float)
    zv = np.asarray(z, dtype=complex)
    entries = zv.shape[-1] if zv.ndim else 1
    if w.ndim != 1 or zv.ndim not in (1, 2) or w.size != 2 * entries:
        raise ValueError(
            f"need exactly two weights per complex entry: {w.size} weights "
            f"for {entries} entries")
    g = zv.real @ w[0::2] + zv.imag @ w[1::2]
    return float(g) if zv.ndim == 1 else g


def ks_statistic(samples, cdf) -> tuple[float, float]:
    """Kolmogorov-Smirnov distance against a named null, with asymptotic p-value.

    ``cdf`` is a tag tuple: ("exponential", mean) or ("normal", mean, variance).
    Returns (D, p) where p is the limiting Kolmogorov tail probability
    P(sup|B(F)| > t) at t = sqrt(n) * D, from ``scipy.special.kolmogorov``.
    """
    from scipy import special

    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 1:
        raise ValueError("need at least one sample")
    kind = cdf[0]
    if kind == "exponential":
        mean = float(cdf[1])
        if mean <= 0:
            raise ValueError(f"exponential mean must be > 0, got {mean}")
        f = 1.0 - np.exp(-np.maximum(x, 0.0) / mean)
    elif kind == "normal":
        mean, variance = float(cdf[1]), float(cdf[2])
        if variance <= 0:
            raise ValueError(f"normal variance must be > 0, got {variance}")
        f = 0.5 * special.erfc(-(x - mean) / math.sqrt(2.0 * variance))
    else:
        raise ValueError(f"unknown distribution tag {kind!r}")
    grid = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    d = max(d_plus, d_minus)
    return d, float(special.kolmogorov(math.sqrt(n) * d))


def cross_frequency_independence(periodograms) -> float:
    """Largest |correlation| between periodogram columns (replications x m)."""
    p = np.asarray(periodograms, dtype=float)
    if p.ndim != 2 or p.shape[0] < 2 or p.shape[1] < 2:
        raise ValueError("need a (replications >= 2) x (frequencies >= 2) array")
    if np.any(p.std(axis=0) == 0.0):
        raise ValueError("a periodogram column is constant; correlation undefined")
    cov = _sample_covariance(p)
    sd = np.sqrt(np.diag(cov))
    corr = np.clip(cov / sd[:, None] / sd, -1.0, 1.0)
    off = corr[~np.eye(corr.shape[0], dtype=bool)]
    return float(np.max(np.abs(off)))


def _sample_covariance(x) -> np.ndarray:
    """Sample covariance of the columns of an (R, n) array: each entry is one
    ``np.add.reduce`` of a product of two centred columns, with no BLAS call."""
    c = (x - x.mean(axis=0)).T
    return np.array([[np.add.reduce(a * b) for b in c] for a in c]) / (len(x) - 1)


# the largest field variance the Monte Carlo reports accept: their second
# moments then stay below about 1e100 * V, far from overflow
_MAX_VARIANCE = 1e100


# one dims entry of a report, with the replications a batch of it holds
_Entry = namedtuple("_Entry", "box freqs seeds sums rows")


def _entry(spec, box, freqs, seeds, sums=None, workspace=3) -> _Entry:
    """An entry of ``_replicated_sums``, with its ``sums`` hook, refused before
    any draw when it has fewer than 2 replications, too large a field variance,
    or one replication over the chunk budget at 16 * V * ``workspace`` bytes.
    A batch holds the replications whose lattice and field rows fit the batch
    budget."""
    if len(seeds) < 2:
        raise ValueError("need at least 2 replications")
    if spec.variance > _MAX_VARIANCE:
        raise ValueError(f"the field variance innovation_std^2 * sum |tap|^2 = "
                         f"{spec.variance:.6g} exceeds {_MAX_VARIANCE:g}, the largest "
                         f"the Monte Carlo reports accept")
    check_replication(box.volume, 16 * workspace)
    lattice, values, _ = _workspace_sizes(spec, box, 1)
    return _Entry(box, freqs, seeds, sums, replication_batch(lattice + values))


def _replicated_sums(spec, entries) -> list:
    """The one replication loop of the clt, miller and negligibility reports.

    Draws the field once per seed of each ``_entry`` and returns, for each
    entry and each part of its field, the (R, m) modulated sums at its
    frequencies.  ``sums(values, scratch, phases)`` returns the (rows, m) sums
    of each part of a batch's values (by default the one part is the field
    itself, summed by ``batched_modulated_sums``).  All entries'
    ``replication_chunks`` go to one ``run_chunked`` call, so a report forks
    at most once.  A worker draws, filters and sums its chunks a batch at a
    time, each batch in one workspace sized for the largest and kept for this
    call only; ``scratch`` is the batch's lattice, free once filtered.
    """
    phases = [[phase_grid([np.arange(1, v + 1, dtype=np.int64) for v in e.box.v], lam)
               for lam in e.freqs] for e in entries]
    per_entry = [replication_chunks(len(e.seeds)) for e in entries]
    chunks = [(k, lo, hi) for k, bounds in enumerate(per_entry) for lo, hi in bounds]
    size = max((sum(_workspace_sizes(spec, entries[k].box, min(hi - lo, entries[k].rows)))
                for k, lo, hi in chunks), default=0)
    buffer = None

    def chunk_sums(k, lo, hi):
        nonlocal buffer
        if buffer is None:
            buffer = np.empty(size, np.uint8)
        e = entries[k]
        batches = []
        for b0 in range(lo, hi, e.rows):
            b1 = min(hi, b0 + e.rows)
            out = _batch_workspace(spec, e.box, b1 - b0, buffer)
            vals = generate_batch(spec, e.box, None, e.seeds[b0:b1], out=out)
            scratch = out[0].reshape(-1).view(vals.dtype)[:vals.size].reshape(vals.shape)
            batches.append(e.sums(vals, scratch, phases[k]) if e.sums
                           else [batched_modulated_sums(vals, phases[k])])
        return batches

    sums = iter(run_chunked(chunks, chunk_sums))
    return [[np.concatenate(parts) for parts in zip(*[b for _ in bounds for b in next(sums)])]
            for bounds in per_entry]


@dataclass(frozen=True)
class CltReport:
    """Joint-normality diagnostics of scaled modulated sums at m frequencies."""

    dims: tuple[int, ...]
    frequencies: tuple
    target_diagonal: float            # f(base)/2
    covariance: np.ndarray            # empirical 2m x 2m, (Re1, Im1, Re2, ...)
    max_cov_error: float              # sup |cov - diag(f/2)|
    coordinate_ks: tuple              # 2m (D, p) pairs vs N(0, f/2)
    periodogram_ks: tuple             # m (D, p) pairs vs Exponential(mean f)
    max_cross_correlation: float | None
    replications: int
    seed: int
    raw_sums: np.ndarray = field(repr=False, compare=False)
    raw_periodograms: np.ndarray = field(repr=False, compare=False)
    rng_stream: int = field(default=RNG_STREAM, init=False)

    def to_json(self) -> str:
        doc = {
            "dims": list(self.dims),
            "frequencies": [list(f) for f in self.frequencies],
            "target_diagonal": self.target_diagonal,
            "covariance": [[float(c) for c in row] for row in self.covariance],
            "max_cov_error": self.max_cov_error,
            "coordinate_ks": [{"d": d, "p": p} for d, p in self.coordinate_ks],
            "periodogram_ks": [{"d": d, "p": p} for d, p in self.periodogram_ks],
            "max_cross_correlation": self.max_cross_correlation,
            "replications": self.replications,
            "seed": self.seed,
            "rng_stream": self.rng_stream,
        }
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def run_clt_experiment(spec: LinearFieldSpec, scheme: FrequencyScheme, dims,
                       replications: int, seed: int) -> CltReport:
    """Replicate the field, collect scaled sums at the scheme's frequencies,
    and compare against the Gaussian/exponential limit laws.

    Fails fast when the base frequency's spectral density vanishes (the
    limit would be degenerate) or the scheme is not separated at ``dims``.
    """
    box, freqs = _validated_freqs(spec, scheme, dims)
    f_base = spectral_density(spec, scheme.base)
    if f_base <= 0.0:
        raise ValueError("spectral density vanishes at the base frequency; "
                         "the limit law is degenerate")
    m = len(freqs)
    (sums,), = _replicated_sums(spec, [_entry(spec, box, freqs,
                                              replication_seeds(seed, replications))])
    scale = math.sqrt(box.volume)
    coords = np.empty((replications, 2 * m), dtype=float)
    coords[:, 0::2] = sums.real / scale
    coords[:, 1::2] = sums.imag / scale
    periodograms = (sums.real ** 2 + sums.imag ** 2) / box.volume

    target = f_base / 2.0
    cov = _sample_covariance(coords)
    max_err = float(np.max(np.abs(cov - target * np.eye(2 * m))))
    coord_ks = tuple(ks_statistic(coords[:, i], ("normal", 0.0, target))
                     for i in range(2 * m))
    per_ks = tuple(ks_statistic(periodograms[:, j], ("exponential", f_base))
                   for j in range(m))
    cross = (cross_frequency_independence(periodograms) if m >= 2 else None)
    return CltReport(dims=box.v, frequencies=tuple(tuple(f) for f in freqs),
                     target_diagonal=target, covariance=cov, max_cov_error=max_err,
                     coordinate_ks=coord_ks, periodogram_ks=per_ks,
                     max_cross_correlation=cross, replications=replications,
                     seed=seed, raw_sums=sums, raw_periodograms=periodograms)


@dataclass(frozen=True)
class MillerRow:
    index: int
    dims: tuple[int, ...]
    estimate: float      # mean of G(b, S)^2 / V over replications
    target: float        # (1/2) f(base) ||b||^2
    discrepancy: float   # |estimate - target|
    std_error: float     # standard error of the estimate


@dataclass(frozen=True)
class MillerReport:
    rows: tuple[MillerRow, ...]
    weights: tuple[float, ...]
    replications: int
    seed: int
    rng_stream: int = field(default=RNG_STREAM, init=False)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False)


def miller_check(spec: LinearFieldSpec, scheme: FrequencyScheme, weights,
                 dims_sequence, replications: int, seed: int) -> MillerReport:
    """Track E[G(b, S)^2]/V against (1/2) f ||b||^2 along a dims sequence.

    Each entry draws its own replications (seeds derived from the master
    seed and the entry index) and reports the Monte Carlo discrepancy with
    its standard error; the discrepancy should shrink as the box grows.
    """
    w = np.asarray(weights, dtype=float)
    f_base = spectral_density(spec, scheme.base)
    if f_base <= 0.0:
        raise ValueError("spectral density vanishes at the base frequency")
    target = 0.5 * f_base * float(np.dot(w, w))
    entries = []
    for index, dims in enumerate(dims_sequence, start=1):
        box, freqs = _validated_freqs(spec, scheme, dims)
        if w.size != 2 * len(freqs):
            raise ValueError(f"need {2 * len(freqs)} weights, got {w.size}")
        seeds = replication_seeds(replication_seed(seed, index), replications)
        entries.append(_entry(spec, box, freqs, seeds))
    rows = []
    for index, (e, (sums,)) in enumerate(zip(entries, _replicated_sums(spec, entries)), start=1):
        g = g_functional(w, sums)
        g_sq = g * g / e.box.volume
        estimate = float(g_sq.mean())
        rows.append(MillerRow(
            index=index, dims=e.box.v, estimate=estimate, target=target,
            discrepancy=abs(estimate - target),
            std_error=float(g_sq.std(ddof=1) / math.sqrt(replications))))
    return MillerReport(rows=tuple(rows), weights=tuple(float(x) for x in w),
                        replications=replications, seed=seed)
