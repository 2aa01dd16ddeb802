"""Maximal correlation between blocks of a Gaussian field.

For jointly Gaussian vectors, the maximal correlation between the
sigma-fields of two finite index sets equals the largest canonical
correlation of the corresponding (real) coordinate vectors: whiten each
block of the joint covariance and take the top singular value of the
cross block.  Complex field values contribute two real coordinates each;
for circular fields the real/imag covariance structure follows from the
autocovariance alone since the pseudo-covariance vanishes.

rho'(n) is the supremum of that quantity over ALL pairs of finite sets
separated by at least n in some coordinate (interlacing elsewhere — and
even within the separation axis — is allowed).  A supremum over all
finite sets cannot be enumerated, so the profile below reports certified
lower bounds from an exhaustive search over a window, together with the
exact zero beyond the moving-average dependence range, as a
``MixingProfile`` (defined in ``bernstein``, which plans with it).

Covariances come from ``model``'s autocovariance table, vectorised over
all point pairs.  The search keeps one pair per translation class, builds
the covariance of the points those pairs use, and scores each shape in one
stacked kernel call; a call warns once, with the count of ridged pairs.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bernstein import MixingProfile
from .domain import as_int
from .model import LinearFieldSpec, _lag_arrays

_BUDGET = 250_000  # pairs, subsets or separations one profile may list; read at call time
_SEARCH_BYTES = 1 << 24  # bytes of point differences one block of the pair search holds
# ridge added to a (near-)singular block covariance before whitening
RIDGE = 1e-12
# eigenvalues below this relative level mark the block as singular
_SINGULAR_REL = 1e-10


def dependence_profile(spec: LinearFieldSpec) -> MixingProfile:
    """The m-dependence profile of a finite moving average: rho' vanishes
    exactly once the separation clears the filter support diameter."""
    return MixingProfile(values={}, dependence_range=spec.dependence_range)


@dataclass(frozen=True)
class IndexSetPair:
    """Two disjoint finite index sets with their axis separation.

    ``separation`` is the smallest |k_u - l_u| over cross pairs in the
    declared axis; the sets may interlace in every other coordinate (and
    even in the axis itself, as long as each cross pair keeps its gap).
    """

    left: tuple
    right: tuple
    axis: int
    separation: int = field(default=0, init=False)

    def __post_init__(self):
        left, right = (tuple(tuple(as_int(x, "index set coordinate") for x in point)
                             for point in points) for points in (self.left, self.right))
        if not left or not right:
            raise ValueError("both index sets must be non-empty")
        dims = {len(point) for point in left} | {len(point) for point in right}
        if len(dims) != 1:
            raise ValueError("all points must share one dimension")
        d = dims.pop()
        object.__setattr__(self, "axis", as_int(self.axis, "axis"))
        if not (0 <= self.axis < d):
            raise ValueError(f"axis {self.axis} out of range for dimension {d}")
        if set(left) & set(right):
            raise ValueError("index sets must be disjoint")
        gap = min(abs(k[self.axis] - l[self.axis]) for k in left for l in right)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "separation", gap)


def _real_coordinate_cov(spec: LinearFieldSpec, points):
    """Real covariance matrix of the stacked coordinates of X at the points.

    Real field: one coordinate per point, cov r(k - l).  Circular field:
    (Re, Im) per point with E[Re_i Re_j] = E[Im_i Im_j] = Re r(k_i-k_j)/2,
    E[Re_i Im_j] = -Im r(k_i-k_j)/2 and E[Im_i Re_j] = +Im r(k_i-k_j)/2.
    """
    pts = np.asarray(points, dtype=np.int64)
    lags, r = _lag_arrays(spec)
    diff = pts[:, np.newaxis, :] - pts[np.newaxis, :, :]
    # one-hot match of each point difference against the table's lags
    c = np.all(diff[:, :, np.newaxis, :] == lags, axis=-1) @ r
    if spec.is_real:
        return c.real
    # each entry c becomes the 2x2 block [[Re c, -Im c], [Im c, Re c]] / 2
    return (np.kron(c.real, np.eye(2)) + np.kron(c.imag, [[0.0, -1.0], [1.0, 0.0]])) / 2.0


def _inv_sqrt(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse square roots of a stack of PSD blocks, and which were ridged."""
    w, u = np.linalg.eigh(blocks)
    singular = w.min(axis=-1) <= _SINGULAR_REL * np.maximum(w.max(axis=-1), 1.0)
    w = np.where(singular[:, np.newaxis], w + RIDGE, w)
    return (u / np.sqrt(w)[:, np.newaxis, :]) @ u.swapaxes(-1, -2), singular


def _top_canonical(covs: np.ndarray, cut: int) -> tuple[np.ndarray, int]:
    """Top canonical correlations of [:cut] vs [cut:] in a (P, n, n) stack; ridged count."""
    isq_l, reg_l = _inv_sqrt(covs[:, :cut, :cut])
    isq_r, reg_r = _inv_sqrt(covs[:, cut:, cut:])
    sv = np.linalg.svd(isq_l @ covs[:, :cut, cut:] @ isq_r, compute_uv=False)
    return np.clip(sv[:, 0], 0.0, 1.0), int(np.count_nonzero(reg_l | reg_r))


def _warn_ridged(count: int):
    if count:
        warnings.warn(f"singular block covariance: ridge regularization applied "
                      f"to {count} pair(s)", RuntimeWarning, stacklevel=3)


def canonical_rho(spec: LinearFieldSpec, pair: IndexSetPair) -> float:
    """Largest canonical correlation between the two blocks, in [0, 1].

    Equals the Gaussian maximal correlation between the sigma-fields of the
    two index sets.  A singular block covariance is ridged by RIDGE and
    flagged with a RuntimeWarning.
    """
    cov = _real_coordinate_cov(spec, pair.left + pair.right)
    width = 1 if spec.is_real else 2
    rho, ridged = _top_canonical(cov[np.newaxis], width * len(pair.left))
    _warn_ridged(ridged)
    return float(rho[0])


def rho_prime_profile(spec: LinearFieldSpec, window_radius: int,
                      max_set_size: int, n_max: int) -> MixingProfile:
    """Certified lower bounds for rho'(1..n_max) by exhaustive window search.

    Covers every pair of disjoint non-empty subsets (sizes up to
    ``max_set_size``) of the window [-window_radius, window_radius]^d and
    maximizes the canonical correlation among pairs separated by >= n in
    some axis.  Values are exact zeros for n beyond the dependence range
    and lower bounds elsewhere (the true sup ranges over all finite sets).
    Scores one pair per translation class and raises, reporting the count so
    far, as soon as more than ``_BUDGET`` are found.  It raises before any
    work when ``n_max`` exceeds ``_BUDGET``, or when the window has more
    than ``_BUDGET`` subsets, a count taken from binomials; one
    RuntimeWarning counts ridging.
    """
    window_radius = as_int(window_radius, "window_radius")
    max_set_size = as_int(max_set_size, "max_set_size")
    n_max = as_int(n_max, "n_max")
    if window_radius < 0:
        raise ValueError("window_radius must be >= 0")
    if max_set_size < 1 or n_max < 1:
        raise ValueError("max_set_size and n_max must be >= 1")
    if n_max > _BUDGET:
        raise ValueError(f"n_max {n_max} exceeds the mixing budget {_BUDGET}: "
                         f"the profile lists one value per separation")
    # no subset is larger than the window
    sites = (2 * window_radius + 1) ** spec.dim
    max_set_size = min(max_set_size, sites)
    count = 0
    for size in range(1, max_set_size + 1):
        count += math.comb(sites, size)
        if count > _BUDGET:
            raise ValueError(f"mixing enumeration budget exceeded: {math.comb(count, 2)} pairs "
                             f"of {count} subsets of 1 to {size} of the {sites} window sites "
                             f"to compare, more subsets than the budget {_BUDGET}; "
                             f"shrink the window or the set size")
    dep = spec.dependence_range
    points = np.argwhere(np.ones((2 * window_radius + 1,) * spec.dim)) - window_radius
    subsets = [c for size in range(1, max_set_size + 1)
               for c in itertools.combinations(range(len(points)), size)]
    sizes = np.array([len(c) for c in subsets])
    # point indices padded by repeating the last point, which changes neither
    # a subset's gaps to other subsets nor its lowest coordinates
    padded = np.array([c + c[-1:] * (max_set_size - len(c)) for c in subsets])
    coords = points[padded]

    # each left subset against every later one: keep (left, right, gap) if
    # 1 <= gap <= dependence range (so disjoint; past it rho is 0) and the
    # union touches the window's lower face on every axis (one per class). A block of
    # left subsets goes at once, against only later subsets on every face it misses
    miss = (coords.min(axis=1) > -window_radius) @ (1 << np.arange(spec.dim))
    cands = {need: np.flatnonzero((miss & need) == 0) for need in np.unique(miss)}
    later = np.zeros(len(subsets) + 1, dtype=np.int64)
    for need, c in cands.items():  # later[k]: candidates compared with the subsets before k
        later[1:][miss == need] = len(c) - np.searchsorted(c, np.flatnonzero(miss == need), "right")
    later = np.cumsum(later)
    # a block [a, b) compares each row with the candidates after its group's first row,
    # at most (row - a) more than its own: bound the pairs it holds by the byte budget
    cap = _SEARCH_BYTES // (8 * max_set_size ** 2 * spec.dim)
    span = np.arange(1, math.isqrt(2 * cap) + 2)
    found, total, b = [], 0, 0
    while b < len(subsets):
        a, lens = b, span[:len(subsets) - b]
        b += max(1, np.searchsorted(later[a + lens] - later[a] + lens * (lens - 1) // 2, cap,
                                    side="right"))
        block = []
        for need in np.unique(miss[a:b]):
            i = a + np.flatnonzero(miss[a:b] == need)
            j = cands[need][np.searchsorted(cands[need], i[0], side="right"):]
            gap = np.abs(coords[i, None, :, None] - coords[None, j, None, :]).min((2, 3)).max(-1)
            left, right = np.nonzero((gap >= 1) & (gap <= dep) & (j > i[:, None]))
            block.append(np.column_stack([i[left], j[right], gap[left, right]]))
        block = np.concatenate(block)
        block = block[np.lexsort((block[:, 1], block[:, 0]))]  # i ascending, then j
        if total + len(block) > _BUDGET:  # count through the subset that passes it
            total += np.searchsorted(block[:, 0], block[_BUDGET - total, 0], side="right")
            raise ValueError(f"mixing enumeration budget exceeded: {total} pairs counted "
                             f"so far > budget {_BUDGET}; shrink the window or the set size")
        total += len(block)
        found.append(block)
    found = np.concatenate(found)

    # translates slice the same r(k - l) out of the covariance of the points that found
    # pairs use; rows go left then right points, Re/Im interleaved; one kernel call a shape
    used = np.unique(padded[found[:, :2]])
    cov = _real_coordinate_cov(spec, points[used])
    width = 1 if spec.is_real else 2
    shape = sizes[found[:, :2]]
    rhos, ridged = np.zeros(len(found)), 0
    for a, b in np.unique(shape, axis=0):
        sel = (shape == (a, b)).all(axis=1)
        idx = np.hstack([padded[found[sel, 0], :a], padded[found[sel, 1], :b]])
        idx = np.searchsorted(used, idx)  # window point index -> row of cov
        rows = (width * idx[..., np.newaxis] + np.arange(width)).reshape(len(idx), -1)
        rhos[sel], count = _top_canonical(cov[rows[..., np.newaxis], rows[:, np.newaxis]],
                                          width * a)
        ridged += count
    _warn_ridged(ridged)
    values = {n: float(rhos[found[:, 2] >= n].max(initial=0.0)) if n <= dep else 0.0
              for n in range(1, n_max + 1)}
    return MixingProfile(values=values, dependence_range=dep)
