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
exact zero beyond the moving-average dependence range.

Covariances are looked up in the autocovariance table, vectorised over
all point pairs.  The search builds the covariance of the whole window
once and scores each pair of index sets on a slice of it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blocking import MixingProfile
from .fieldgen import LinearFieldSpec, _lag_arrays

# ridge added to a (near-)singular block covariance before whitening
RIDGE = 1e-12
# eigenvalues below this relative level mark the block as singular
_SINGULAR_REL = 1e-10


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
    separation: int = 0

    def __post_init__(self):
        left = tuple(tuple(int(x) for x in point) for point in self.left)
        right = tuple(tuple(int(x) for x in point) for point in self.right)
        if not left or not right:
            raise ValueError("both index sets must be non-empty")
        dims = {len(point) for point in left} | {len(point) for point in right}
        if len(dims) != 1:
            raise ValueError("all points must share one dimension")
        d = dims.pop()
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


def _inv_sqrt(block: np.ndarray) -> tuple[np.ndarray, bool]:
    """Inverse square root of a symmetric PSD block, ridged when singular."""
    w, u = np.linalg.eigh(block)
    regularized = False
    if w.min() <= _SINGULAR_REL * max(w.max(), 1.0):
        w = w + RIDGE
        regularized = True
    return (u / np.sqrt(w)) @ u.T, regularized


def _top_canonical(cov: np.ndarray, cut: int) -> float:
    """Largest canonical correlation between coordinates [:cut] and [cut:]."""
    isq_l, reg_l = _inv_sqrt(cov[:cut, :cut])
    isq_r, reg_r = _inv_sqrt(cov[cut:, cut:])
    if reg_l or reg_r:
        warnings.warn("singular block covariance: ridge regularization applied",
                      RuntimeWarning, stacklevel=3)
    sv = np.linalg.svd(isq_l @ cov[:cut, cut:] @ isq_r, compute_uv=False)
    return float(min(max(sv[0], 0.0), 1.0))


def canonical_rho(spec: LinearFieldSpec, pair: IndexSetPair) -> float:
    """Largest canonical correlation between the two blocks, in [0, 1].

    Equals the Gaussian maximal correlation between the sigma-fields of the
    two index sets.  A singular block covariance is ridged by RIDGE and
    flagged with a RuntimeWarning.
    """
    cov = _real_coordinate_cov(spec, pair.left + pair.right)
    width = 1 if spec.is_real else 2
    return _top_canonical(cov, width * len(pair.left))


def _window_points(dim: int, radius: int):
    axis = range(-radius, radius + 1)
    return [tuple(p) for p in itertools.product(axis, repeat=dim)]


def _axis_gap(left, right, axis: int) -> int:
    return min(abs(k[axis] - l[axis]) for k in left for l in right)


def rho_prime_profile(spec: LinearFieldSpec, window_radius: int,
                      max_set_size: int, n_max: int,
                      budget: int = 250_000) -> MixingProfile:
    """Certified lower bounds for rho'(1..n_max) by exhaustive window search.

    Enumerates every pair of disjoint non-empty subsets (sizes up to
    ``max_set_size``) of the window [-window_radius, window_radius]^d and
    maximizes the canonical correlation among pairs separated by >= n in
    some axis.  Values are exact zeros for n beyond the dependence range
    and lower bounds elsewhere (the true sup ranges over all finite sets).
    Raises when the number of pairs to score exceeds ``budget``, reporting
    the count.
    """
    if window_radius < 0:
        raise ValueError("window_radius must be >= 0")
    if max_set_size < 1 or n_max < 1:
        raise ValueError("max_set_size and n_max must be >= 1")
    dep = spec.dependence_range
    points = _window_points(spec.dim, window_radius)
    subsets = []
    for size in range(1, max_set_size + 1):
        subsets.extend(itertools.combinations(points, size))

    # pairs worth scoring: disjoint, separated by >= 1 in some axis,
    # and not past the dependence range (beyond it the value is exactly 0)
    candidates = []
    for left, right in itertools.combinations(subsets, 2):
        if set(left) & set(right):
            continue
        gap = max(_axis_gap(left, right, u) for u in range(spec.dim))
        if 1 <= gap <= dep:
            candidates.append((gap, left, right))
    if len(candidates) > budget:
        raise ValueError(
            f"mixing enumeration budget exceeded: {len(candidates)} pairs to "
            f"score > budget {budget}; shrink the window or the set size")

    # each pair's covariance is a slice of the window's, rows in the order
    # canonical_rho stacks them: left points, then right, Re/Im interleaved
    cov = _real_coordinate_cov(spec, points)
    width = 1 if spec.is_real else 2
    position = {point: i for i, point in enumerate(points)}
    best_at_gap = {}
    for gap, left, right in candidates:
        rows = [width * position[point] + c for point in left + right for c in range(width)]
        rho = _top_canonical(cov[np.ix_(rows, rows)], width * len(left))
        if rho > best_at_gap.get(gap, 0.0):
            best_at_gap[gap] = rho

    # best over all pairs separated by >= n; no scored pair is separated
    # past the dependence range, so the value there is the default 0
    values = {n: max((rho for gap, rho in best_at_gap.items() if gap >= n), default=0.0)
              for n in range(1, n_max + 1)}
    return MixingProfile(values=values, dependence_range=dep)
