"""Linear moving-average random fields on the integer lattice.

A field spec is a finite set of filter taps ``a_j`` (complex, indexed by
integer lags j in Z^d) driving i.i.d. Gaussian innovations:

    X_k = sum_j a_j * eps_{k - j}.

Closed forms used throughout:

* autocovariance   r(h) = std^2 * sum_t a_t * conj(a_{t-h})
* spectral density f(lam) = std^2 * |sum_j a_j exp(-i j.lam)|^2

Innovations are a pure function of (seed, absolute lattice index) — see
``rng`` — so samples over overlapping or shifted boxes agree wherever the
boxes intersect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import BoxDims, as_dims, as_frequency, as_shift
from .rng import _BLOCK_SITES, _replication_hash, check_seed, gaussian_lattice

REAL_GAUSSIAN = "real-gaussian"
CIRCULAR_GAUSSIAN = "circular-complex-gaussian"
_KINDS = (REAL_GAUSSIAN, CIRCULAR_GAUSSIAN)


@dataclass(frozen=True)
class LinearFieldSpec:
    """Finite moving-average filter over i.i.d. Gaussian innovations.

    ``taps`` maps d-dimensional integer lags to complex coefficients.  A
    real-gaussian innovation kind requires real taps so the field itself is
    real; the circular kind drives circularly-symmetric complex innovations
    (zero pseudo-covariance).
    """

    dim: int
    taps: dict = field(default_factory=dict)
    innovation_kind: str = CIRCULAR_GAUSSIAN
    innovation_std: float = 1.0

    def __post_init__(self):
        if int(self.dim) < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "dim", int(self.dim))
        if not self.taps:
            raise ValueError("taps must be non-empty")
        norm = {}
        for lag, coeff in self.taps.items():
            lag = tuple(int(x) for x in (lag if isinstance(lag, tuple) else tuple(lag)))
            if len(lag) != self.dim:
                raise ValueError(f"lag {lag} is not {self.dim}-dimensional")
            norm[lag] = complex(coeff)
        object.__setattr__(self, "taps", norm)
        if self.innovation_kind not in _KINDS:
            raise ValueError(
                f"innovation_kind must be one of {_KINDS}, got {self.innovation_kind!r}"
            )
        if self.innovation_kind == REAL_GAUSSIAN:
            for lag, coeff in norm.items():
                if coeff.imag != 0.0:
                    raise ValueError(
                        f"real-gaussian innovations require real taps; tap {lag} = {coeff}"
                    )
        std = float(self.innovation_std)
        if std < 0:
            raise ValueError("innovation_std must be >= 0")
        object.__setattr__(self, "innovation_std", std)

    @property
    def is_real(self) -> bool:
        return self.innovation_kind == REAL_GAUSSIAN

    def lag_bounds(self) -> list[tuple[int, int]]:
        """Per-axis (min, max) of the tap support."""
        lags = np.asarray(sorted(self.taps), dtype=np.int64)
        return [(int(lags[:, s].min()), int(lags[:, s].max())) for s in range(self.dim)]

    @property
    def dependence_range(self) -> int:
        """Largest per-axis diameter of the tap support.

        Field values whose index sets are separated by more than this in
        some coordinate share no innovations, hence are independent.
        """
        return max(hi - lo for lo, hi in self.lag_bounds())


def spectral_density(spec: LinearFieldSpec, lam) -> float:
    """f(lam) = std^2 * |sum_j a_j exp(-i j.lam)|^2, nonnegative and even-symmetric."""
    freq = as_frequency(lam, spec.dim)
    lamv = freq.as_array()
    amp = 0j
    for lag, coeff in spec.taps.items():
        amp += coeff * np.exp(-1j * np.dot(lag, lamv))
    return float(spec.innovation_std ** 2 * (amp.real ** 2 + amp.imag ** 2))


def autocovariance(spec: LinearFieldSpec, h) -> complex:
    """r(h) = E[X_{k+h} conj(X_k)] = std^2 * sum_t a_t conj(a_{t-h})."""
    lag = tuple(int(x) for x in h)
    if len(lag) != spec.dim:
        raise ValueError(f"lag {lag} is not {spec.dim}-dimensional")
    return autocovariance_table(spec).get(lag, 0j)


def autocovariance_table(spec: LinearFieldSpec):
    """All nonzero-lag candidates: dict lag -> r(lag) over the support difference set.

    One pass over tap pairs (t, u): the pair adds a_t conj(a_u) to r(t - u).
    """
    sums = {}
    for t, coeff in spec.taps.items():
        for u, mate in spec.taps.items():
            h = tuple(ti - ui for ti, ui in zip(t, u))
            sums[h] = sums.get(h, 0j) + coeff * mate.conjugate()
    var = spec.innovation_std ** 2
    return {h: complex(var * total) for h, total in sums.items()}


def _lag_arrays(spec: LinearFieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """The autocovariance table as lags (H, d) int64 and r (H,) complex128."""
    table = autocovariance_table(spec)
    lags = np.array(list(table), dtype=np.int64)
    return lags, np.array(list(table.values()), dtype=np.complex128)


@dataclass(frozen=True)
class FieldSample:
    """One realization over a shifted box; ``values[i1, ..., id]`` sits at
    absolute index ``(shift_1 + i1 + 1, ..., shift_d + id + 1)``."""

    dims: BoxDims
    shift: tuple[int, ...]
    values: np.ndarray
    seed: int

    @property
    def dim(self) -> int:
        return self.dims.dim

    def axis_coords(self) -> list[np.ndarray]:
        """Absolute integer coordinates along each axis."""
        return [
            np.arange(w + 1, w + v + 1, dtype=np.int64)
            for w, v in zip(self.shift, self.dims)
        ]


def _innovation_ranges(spec, dims, shift):
    bounds = spec.lag_bounds()
    ranges = []
    for s in range(spec.dim):
        lo_lag, hi_lag = bounds[s]
        ranges.append((shift[s] + 1 - hi_lag, shift[s] + dims[s] - lo_lag))
    return bounds, ranges


def _filter_batch(spec, dims, eps, bounds):
    """Apply the moving-average filter to an innovation block (leading batch axis).

    The result has the dtype of ``eps``: float64 for real specs, whose taps
    enter as their real parts, and complex128 for circular ones.  Rows are
    filtered a few at a time through one reused product buffer, so the
    working set stays in cache.
    """
    taps = [(coeff.real if spec.is_real else coeff,
             tuple(slice(hi - j, hi - j + v) for (_, hi), j, v in zip(bounds, lag, dims)))
            for lag, coeff in spec.taps.items()]
    out = np.empty(eps.shape[:1] + tuple(dims), dtype=eps.dtype)
    step = max(1, _BLOCK_SITES // math.prod(dims))
    term = np.empty((min(step, len(out)),) + tuple(dims), dtype=eps.dtype)
    for r0 in range(0, len(out), step):
        rows = slice(r0, r0 + step)
        acc = out[rows]
        prod = term[:len(acc)]
        acc.fill(0.0)
        for coeff, window in taps:
            np.multiply(coeff, eps[(rows,) + window], out=prod)
            acc += prod
    return out


def generate(spec: LinearFieldSpec, dims, shift=None, seed: int = 0) -> FieldSample:
    """Draw the field over the box of side lengths ``dims`` anchored at ``shift``.

    The innovation at each absolute lattice index is a pure function of
    ``(seed, index)``, so two samples with the same seed agree exactly on
    any overlap of their (shifted) boxes.
    """
    box = as_dims(dims, spec.dim)
    w = as_shift(shift, spec.dim)
    seed = check_seed(seed)
    return FieldSample(dims=box, shift=w, values=generate_batch(spec, box, w, [seed])[0],
                       seed=seed)


def generate_batch(spec: LinearFieldSpec, dims, shift, seeds) -> np.ndarray:
    """Values for many seeds at once, shape (len(seeds), v_1, ..., v_d).

    Row i is ``generate(spec, dims, shift, seeds[i]).values``, which is this
    function on a batch of one; the batch exists because hashing the
    innovation lattice vectorizes across seeds, which replication loops need.
    """
    box = as_dims(dims, spec.dim)
    w = as_shift(shift, spec.dim)
    seeds = [check_seed(s) for s in seeds]
    bounds, ranges = _innovation_ranges(spec, box.v, w)
    eps = gaussian_lattice(seeds, ranges, spec.innovation_kind, spec.innovation_std)
    return _filter_batch(spec, box.v, eps, bounds)


def replication_seeds(master_seed, count: int, offset: int = 0) -> list[int]:
    """Per-replication seeds derived from a master seed (pure, collision-resistant)."""
    return _replication_hash(master_seed, np.arange(offset, offset + count)).tolist()


# ---------------------------------------------------------------------------
# JSON model format: {"dim": d, "taps": [{"lag": [...], "re": x, "im": y}],
#                     "innovation_kind": ..., "innovation_std": ...}

def spec_to_json(spec: LinearFieldSpec) -> str:
    doc = {
        "dim": spec.dim,
        "taps": [
            {"lag": list(lag), "re": c.real, "im": c.imag}
            for lag, c in sorted(spec.taps.items())
        ],
        "innovation_kind": spec.innovation_kind,
        "innovation_std": spec.innovation_std,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def spec_from_json(text: str) -> LinearFieldSpec:
    return _spec_from_doc(json.loads(text))


def _spec_from_doc(doc) -> LinearFieldSpec:
    try:
        dim = doc["dim"]
        taps = {
            tuple(entry["lag"]): complex(entry["re"], entry.get("im", 0.0))
            for entry in doc["taps"]
        }
        kind = doc["innovation_kind"]
        std = doc["innovation_std"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed field spec document: {exc}") from exc
    return LinearFieldSpec(dim=dim, taps=taps, innovation_kind=kind, innovation_std=std)


def white_noise(dim: int = 1, kind: str = CIRCULAR_GAUSSIAN, std: float = 1.0) -> LinearFieldSpec:
    """i.i.d. field: a single unit tap at lag zero."""
    return LinearFieldSpec(dim=dim, taps={(0,) * dim: 1.0}, innovation_kind=kind,
                           innovation_std=std)


def first_axis_ma1(dim: int = 1, kind: str = CIRCULAR_GAUSSIAN, std: float = 1.0,
                   coeff: complex = 1.0) -> LinearFieldSpec:
    """Order-1 moving average along the first axis: X_k = eps_k + coeff*eps_{k-e1}."""
    zero = (0,) * dim
    e1 = (1,) + (0,) * (dim - 1)
    return LinearFieldSpec(dim=dim, taps={zero: 1.0, e1: coeff},
                           innovation_kind=kind, innovation_std=std)
