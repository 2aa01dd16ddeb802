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
``negligibility_report`` tracks the second moments of the two pieces that
the Bernstein blocking discards.  All three reports share one replication loop.
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _util
from ._util import run_chunked, worker_count
from .fieldgen import (_batch_workspace, _tail_pruning, _tap_windows, _workspace_sizes,
                       draw_innovations, generate_batch, replication_seeds)
from .frequencies import FrequencyScheme, _validated_freqs
from .model import LinearFieldSpec, spectral_density
from .periodogram import (_periodograms, _row_sums, batched_modulated_sums, index_products,
                          phase_grid)
from .rng import RNG_STREAM


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


def _g_squared(weights, sums, volume: int) -> np.ndarray:
    """G(b, S)^2 / V of each row of (R, m) sums, formed as (G / sqrt(V))^2."""
    return (g_functional(weights, sums) / math.sqrt(volume)) ** 2


def _checked_weights(weights, m: int) -> np.ndarray:
    """The weights b of m frequencies as a float array, refused by name unless
    they are 2m finite reals in one dimension."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or not np.isfinite(w).all():
        raise ValueError(f"weights must be finite reals in one dimension, got {w.tolist()}")
    if w.size != 2 * m:
        raise ValueError(f"need {2 * m} weights, got {w.size}")
    return w


def _mean_and_se(x) -> tuple[float, float]:
    """The mean of R Monte Carlo values and its standard error."""
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def _normal_cdf(x, mean=0.0, variance=1.0) -> np.ndarray:
    """P(N(mean, variance) <= x) elementwise, as 0.5 erfc(-(x - mean) / sqrt(2 variance))
    with ``math.erfc``, which is within 2 ulp of erfc at its argument."""
    z = -(np.asarray(x, dtype=float) - mean) / math.sqrt(2.0 * variance)
    return 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


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


def _kolmogorov_sf(t: float) -> float:
    """P(sup|B| > t) for the Brownian bridge B on [0, 1]: the Kolmogorov tail.

    Below t = 1 it is one minus the Jacobi theta form of the distribution
    function, (sqrt(2 pi) / t) sum_k exp(-(2k - 1)^2 pi^2 / (8 t^2)); from t = 1
    on it is the alternating series 2 sum_k (-1)^(k-1) exp(-2 k^2 t^2).  Each
    sum stops once the next term is below 1e-20 on its range.  Below t = 0.1
    the distribution function is under 1e-50, so the tail is 1.
    """
    if t < 0.1:
        return 1.0
    if t < 1.0:
        w = math.pi ** 2 / (8.0 * t * t)
        cdf = math.sqrt(2.0 * math.pi) / t * sum(math.exp(-(2 * k - 1) ** 2 * w)
                                                  for k in (3, 2, 1))
        return 1.0 - cdf
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * t * t) for k in (4, 3, 2, 1))


def ks_statistic(samples, cdf) -> tuple[float, float]:
    """Kolmogorov-Smirnov distance against a named null, with asymptotic p-value.

    ``cdf`` is a tag tuple: ("exponential", mean) or ("normal", mean, variance).
    Returns (D, p) where p is the limiting Kolmogorov tail probability
    P(sup|B(F)| > t) at t = sqrt(n) * D, summed from its two classical series
    (``_kolmogorov_sf``).  Refuses an empty or non-finite sample, a mean or
    variance that is not finite, and a mean (exponential) or variance (normal)
    that is not > 0.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 1:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"samples must be finite, got {x[~np.isfinite(x)][0]}")
    kind = cdf[0]
    if kind == "exponential":
        mean = float(cdf[1])
        if not (mean > 0 and math.isfinite(mean)):
            raise ValueError(f"exponential mean must be > 0 and finite, got {mean}")
        f = 1.0 - np.exp(-np.maximum(x, 0.0) / mean)
    elif kind == "normal":
        mean, variance = float(cdf[1]), float(cdf[2])
        if not math.isfinite(mean):
            raise ValueError(f"normal mean must be finite, got {mean}")
        if not (variance > 0 and math.isfinite(variance)):
            raise ValueError(f"normal variance must be > 0 and finite, got {variance}")
        f = _normal_cdf(x, mean, variance)
    else:
        raise ValueError(f"unknown distribution tag {kind!r}")
    grid = np.arange(1, n + 1, dtype=float) / n
    d_plus = float(np.max(grid - f))
    d_minus = float(np.max(f - (grid - 1.0 / n)))
    d = max(d_plus, d_minus)
    return d, _kolmogorov_sf(math.sqrt(n) * d)


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


# one dims entry of a report: its box and seeds, the replications a batch holds,
# whether a batch filters a field, and ``sums(seeds, out)``, which draws a batch into
# the arrays ``out`` of ``_batch_workspace`` and returns the (rows, m) sums of each part
_Entry = namedtuple("_Entry", "box seeds rows field sums")


def _batch_rows(spec, box, seeds, workspace: int, field: bool) -> int:
    """The replications a batch of an entry holds: as many as have lattice rows,
    and field rows with ``field``, that fit the batch budget.  Refuses the
    entry, before any draw, when it has fewer than 2 replications, too large
    a field variance, or one replication over the chunk budget at
    16 * V * ``workspace`` bytes."""
    if len(seeds) < 2:
        raise ValueError("need at least 2 replications")
    if spec.variance > _MAX_VARIANCE:
        raise ValueError(f"the field variance innovation_std^2 * sum |tap|^2 = "
                         f"{spec.variance:.6g} exceeds {_MAX_VARIANCE:g}, the largest "
                         f"the Monte Carlo reports accept")
    # the budgets are read from _util at each call, so a patched one is seen
    chunk, need = _util._CHUNK_BYTES, box.volume * 16 * workspace
    if need > chunk:
        raise ValueError(f"one replication of the {box.volume}-site box needs {need}"
                         f" bytes, over the {chunk}-byte chunk budget; boxes of up to "
                         f"{chunk // (16 * workspace)} sites fit")
    lattice, values, _ = _workspace_sizes(spec, box, 1, field)
    return max(1, _util._BATCH_BYTES // (lattice + values))


def _entry(spec, box, freqs, seeds) -> _Entry:
    """A clt or miller entry of ``_replicated_sums``, checked by ``_batch_rows``:
    the one part of a batch is the field, summed as its innovation rows
    against their ``_innovation_grid``s, with no filter."""
    rows = _batch_rows(spec, box, seeds, 3, False)
    grids = [_innovation_grid(spec, box, lam) for lam in freqs]

    def sums(seeds, out):
        return [batched_modulated_sums(draw_innovations(spec, box, None, seeds, out=out), grids)]

    return _Entry(box, seeds, rows, False, sums)


def _innovation_grid(spec, box, lam) -> np.ndarray:
    """c_t(lam) = sum_j a_j exp(-i (t + j).lam) over the taps j whose site t + j is
    in the box, flat over the innovations of ``draw_innovations``: S(lam) is
    ``_row_sums`` of an innovation row against it, as S = sum_t eps_t c_t(lam)."""
    lo, hi = np.array(spec.lag_bounds()).T
    grid, phase = np.zeros(hi - lo + box.v, np.complex128), phase_grid(box, lam).reshape(box.v)
    for coeff, window in zip(spec.taps.values(), _tap_windows(spec, box.v)):
        grid[window] += coeff * phase
    return grid.ravel()


def _replicated_sums(spec, entries) -> list:
    """The one replication loop of the clt, miller and negligibility reports.

    Draws the innovations once per seed of each ``_entry`` and returns, for
    each entry and each part of its field, the (R, m) modulated sums at its
    frequencies, as the entry's ``sums`` takes them of each batch.  Every
    entry's batches go to one ``run_chunked`` call, so a report forks at
    most once; a worker draws and sums each batch it is handed in one
    workspace, sized for the largest batch and kept for this call only.
    """
    # a batch holds at most a worker's share of its entry, so each has work at small R
    workers = worker_count()
    per_entry = [[(k, lo, min(lo + rows, len(e.seeds))) for lo in range(0, len(e.seeds), rows)]
                 for k, e in enumerate(entries)
                 for rows in [min(e.rows, -(-len(e.seeds) // workers))]]
    batches = [batch for bounds in per_entry for batch in bounds]
    size = max((sum(_workspace_sizes(spec, entries[k].box, hi - lo, entries[k].field))
                for k, lo, hi in batches), default=0)
    # made on a worker's first batch, so that the caller allocates none for its workers
    workspace = functools.cache(lambda: np.empty(size, np.uint8))

    def batch_sums(k, lo, hi):
        e = entries[k]
        return e.sums(e.seeds[lo:hi], _batch_workspace(spec, e.box, hi - lo, workspace(), e.field))

    sums = iter(run_chunked(batches, batch_sums))
    return [[np.concatenate(parts) for parts in zip(*[next(sums) for _ in bounds])]
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
    periodograms = _periodograms(sums, box.volume)

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
    w = _checked_weights(weights, len(scheme.per_n[0]))
    f_base = spectral_density(spec, scheme.base)
    if f_base <= 0.0:
        raise ValueError("spectral density vanishes at the base frequency")
    target = 0.5 * f_base * float(np.dot(w, w))
    entries = []
    for index, dims in enumerate(dims_sequence, start=1):
        box, freqs = _validated_freqs(spec, scheme, dims)
        seeds = replication_seeds(replication_seeds(seed, 1, offset=index)[0], replications)
        entries.append(_entry(spec, box, freqs, seeds))
    rows = []
    for index, (e, (sums,)) in enumerate(zip(entries, _replicated_sums(spec, entries)), start=1):
        estimate, std_error = _mean_and_se(_g_squared(w, sums, e.box.volume))
        rows.append(MillerRow(index=index, dims=e.box.v, estimate=estimate, target=target,
                              discrepancy=abs(estimate - target), std_error=std_error))
    return MillerReport(rows=tuple(rows), weights=tuple(float(x) for x in w),
                        replications=replications, seed=seed)


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


def _part_sums(vals, scratch, phases, levels, kept) -> np.ndarray:
    """The sums of a negligibility batch ``vals`` at ``phases``, shape (2, rows, m):
    of the tail parts, past ``levels``, over the box, then of the bounded
    parts over the sites of the bool mask ``kept``, the leftover set.  Each
    row's part is its own sites, gathered in index order and summed by
    ``periodogram._row_sums``, the kernel of every other S.  |x| goes into
    ``scratch``, shaped like ``vals``."""
    tail = np.abs(vals, out=scratch.real) > levels
    out = np.empty((2, len(vals), len(phases)), dtype=np.complex128)
    for r, row in enumerate(vals.reshape(len(vals), -1)):
        # the tail sites, then the leftover sites outside the tail
        for part, sites in enumerate((np.flatnonzero(tail[r]), np.flatnonzero(kept > tail[r]))):
            out[part, r] = _row_sums(row[sites], [ph[sites] for ph in phases])
    return out


def _tail_entry(spec, box, freqs, seeds, leftover, q) -> _Entry:
    """A negligibility entry of ``_replicated_sums``, checked by ``_batch_rows``:
    a batch is drawn under ``fieldgen._tail_pruning`` of the levels <k>^q and
    the leftover set, filtered, and summed by ``_part_sums``."""
    rows = _batch_rows(spec, box, seeds, 3 + len(freqs), True)
    levels = index_products(box) ** q
    kept = np.zeros(box.v, np.bool_)
    for sl in leftover:
        kept[sl.first_slice] = True
    prune = _tail_pruning(spec, box, levels, kept)
    phases = [phase_grid(box, lam) for lam in freqs]

    def sums(seeds, out):
        vals = generate_batch(spec, box, None, seeds, out=out, prune=prune)
        # the lattice is free once the field is filtered
        scratch = out[0].reshape(-1).view(vals.dtype)[:vals.size].reshape(vals.shape)
        return _part_sums(vals, scratch, phases, levels, kept)

    return _Entry(box, seeds, rows, True, sums)


def negligibility_report(spec: LinearFieldSpec, scheme, dims_sequence, q: float,
                         weights, replications: int, seed: int) -> NegligibilityReport:
    """Monte Carlo second moments of the two discarded pieces, per dims entry.

    Column one: E[G(b, S_left)^2] / V, where S_left are the modulated sums
    of the bounded parts over the leftover set and G(b, z) = sum_j a_j Re z_j
    + b_j Im z_j.  Column two: mean over the scheme's frequencies of
    E |sum over the box of the tail parts|^2 / V.  Standard errors accompany
    both.  The blocking plan uses the field's own m-dependence profile.
    """
    # imported here, so that the clt and miller reports load neither module
    from .bernstein import block_index_sets, plan
    from .mixing import dependence_profile

    weights = _checked_weights(weights, len(scheme.per_n[0]))
    entries, plans = [], []
    for index, dims in enumerate(dims_sequence, start=1):
        box, freqs = _validated_freqs(spec, scheme, dims)
        pl = plan(box.v[0], dependence_profile(spec), q)
        _, leftover = block_index_sets(pl, box)
        seeds = replication_seeds(seed, replications, offset=index * replications)
        entries.append(_tail_entry(spec, box, freqs, seeds, leftover, q))
        plans.append((pl, sum(sl.cardinality for sl in leftover)))
    rows = []
    for index, (e, (pl, cardinality), (tail, left)) in enumerate(
            zip(entries, plans, _replicated_sums(spec, entries)), start=1):
        leftover_mean, leftover_se = _mean_and_se(_g_squared(weights, left, e.box.volume))
        tail_mean, tail_se = _mean_and_se(_periodograms(tail, e.box.volume).mean(axis=1))
        rows.append(NegligibilityRow(
            index=index, dims=e.box.v, v1=pl.v1, s=pl.s, p=pl.p, r=pl.r,
            leftover_cardinality=cardinality, leftover_mean=leftover_mean,
            leftover_se=leftover_se, tail_mean=tail_mean, tail_se=tail_se))
    return NegligibilityReport(rows=tuple(rows), q=q,
                               replications=replications, seed=seed)
