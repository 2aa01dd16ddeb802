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

import cmath
import functools
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .domain import (BoxDims, _json_int, _json_list, _json_object, _json_real, as_dims,
                     as_frequency, as_shift)
from .rng import (_BLOCK_SITES, _SCRATCH_BYTES, _lattice_size, _replication_hash, check_seed,
                  gaussian_lattice)

REAL_GAUSSIAN = "real-gaussian"
CIRCULAR_GAUSSIAN = "circular-complex-gaussian"
_KINDS = (REAL_GAUSSIAN, CIRCULAR_GAUSSIAN)


@dataclass(frozen=True)
class LinearFieldSpec:
    """Finite moving-average filter over i.i.d. Gaussian innovations.

    ``taps`` maps d-dimensional integer lags to complex coefficients.  A
    real-gaussian innovation kind requires real taps so the field itself is
    real; the circular kind drives circularly-symmetric complex innovations
    (zero pseudo-covariance).  ``taps`` is read-only after construction,
    because the lag table derived from it is cached on the spec.
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
            if not cmath.isfinite(norm[lag]):
                raise ValueError(f"tap {lag} = {norm[lag]} is not finite")
        object.__setattr__(self, "taps", MappingProxyType(norm))
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
        if not 0.0 <= std < math.inf:
            raise ValueError(f"innovation_std must be finite and >= 0, got {std}")
        object.__setattr__(self, "innovation_std", std)
        if not math.isfinite(self.variance):
            raise ValueError("the field variance innovation_std^2 * sum |tap|^2 overflows")

    def __reduce__(self):
        # pickle and deepcopy rebuild the spec from a plain dict of taps
        return (type(self), (self.dim, dict(self.taps), self.innovation_kind,
                             self.innovation_std))

    @property
    def variance(self) -> float:
        """E|X_k|^2 = innovation_std^2 * sum |tap|^2 (inf if that overflows)."""
        # products, not powers: a float power that overflows raises
        std = self.innovation_std
        return std * std * sum(c.real * c.real + c.imag * c.imag for c in self.taps.values())

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

    @functools.cached_property
    def _lag_table(self) -> tuple[np.ndarray, np.ndarray]:
        # built on first use and kept with the spec, which is immutable
        table = autocovariance_table(self)
        lags = np.array(list(table), dtype=np.int64)
        r = np.array(list(table.values()), dtype=np.complex128)
        lags.flags.writeable = r.flags.writeable = False
        return lags, r


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
    lags, r = _lag_arrays(spec)
    hit = np.flatnonzero(np.all(lags == lag, axis=1))
    return complex(r[hit[0]]) if hit.size else 0j


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
    """The autocovariance table as lags (H, d) int64 and r (H,) complex128.

    Built once per spec and cached on it, so both arrays are read-only.
    """
    return spec._lag_table


@dataclass(frozen=True)
class FieldSample:
    """One realization over a shifted box; ``values[i1, ..., id]`` sits at
    absolute index ``(shift_1 + i1 + 1, ..., shift_d + id + 1)``."""

    dims: BoxDims
    shift: tuple[int, ...]
    values: np.ndarray
    seed: int

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


def _filter_batch(spec, dims, eps, bounds, *, out=None, scratch=None):
    """Apply the moving-average filter to an innovation block (leading batch axis).

    The result has the dtype of ``eps``: float64 for real specs, whose taps
    enter as their real parts, and complex128 for circular ones.  A circular
    spec whose taps are all real filters the float64 views of ``eps`` and of
    the result, two reals per site, so its last-axis windows are twice as
    long; that gives the complex products' values with real multiplies.
    Rows are filtered a few at a time: the first tap's product is written
    into them and the others are added through one reused product buffer,
    so the working set stays in cache.  Given ``out``, it is the leading rows;
    given ``scratch``, the product rows are carved from it.
    """
    real_taps = all(coeff.imag == 0.0 for coeff in spec.taps.values())
    pairs = real_taps and not spec.is_real
    # floats per site along each axis of the filtered arrays
    width = [1] * (len(dims) - 1) + [2 if pairs else 1]
    taps = [(coeff.real if real_taps else coeff,
             tuple(slice(k * (hi - j), k * (hi - j + v))
                   for (_, hi), j, v, k in zip(bounds, lag, dims, width)))
            for lag, coeff in spec.taps.items()]
    out = np.empty(eps.shape[:1] + tuple(dims), eps.dtype) if out is None else out[:len(eps)]
    src, dst = (eps.view(np.float64), out.view(np.float64)) if pairs else (eps, out)
    step = max(1, _BLOCK_SITES // math.prod(dims))
    size = min(step, len(out)) * math.prod(dst.shape[1:])
    term = (np.empty(size, dst.dtype) if scratch is None
            else scratch.view(dst.dtype)[:size]).reshape((-1,) + dst.shape[1:])
    (lead, lead_window), rest = taps[0], taps[1:]
    for r0 in range(0, len(out), step):
        rows = slice(r0, r0 + step)
        acc = dst[rows]
        prod = term[:len(acc)]
        np.multiply(lead, src[(rows,) + lead_window], out=acc)
        for coeff, window in rest:
            np.multiply(coeff, src[(rows,) + window], out=prod)
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


def generate_batch(spec: LinearFieldSpec, dims, shift, seeds, *,
                   out=(None, None, None)) -> np.ndarray:
    """Values for many seeds at once, shape (len(seeds), v_1, ..., v_d).

    Row i is ``generate(spec, dims, shift, seeds[i]).values``, which is this
    function on a batch of one; the batch exists because hashing the
    innovation lattice vectorizes across seeds, which replication loops need.
    ``out``, the (lattice, field, scratch) arrays of ``_batch_workspace``,
    receives the innovations and the values and holds both stages' scratch,
    in place of new arrays.
    """
    box = as_dims(dims, spec.dim)
    w = as_shift(shift, spec.dim)
    seeds = [check_seed(s) for s in seeds]
    bounds, ranges = _innovation_ranges(spec, box.v, w)
    lattice, values, scratch = out
    eps = gaussian_lattice(seeds, ranges, spec.innovation_kind, spec.innovation_std,
                           out=lattice, scratch=scratch)
    return _filter_batch(spec, box.v, eps, bounds, out=values, scratch=scratch)


def _workspace_sizes(spec: LinearFieldSpec, box: BoxDims, rows: int) -> list[int]:
    """Bytes of the lattice, the field and the scratch of a batch of ``rows`` seeds;
    the scratch holds the lattice's block arrays, then the filter's product rows."""
    _, ranges = _innovation_ranges(spec, box.v, (0,) * spec.dim)
    return [16 * rows * _lattice_size(ranges, spec.is_real),
            rows * box.volume * (8 if spec.is_real else 16),
            max(_SCRATCH_BYTES, 16 * max(_BLOCK_SITES, box.volume))]


def _batch_workspace(spec: LinearFieldSpec, box: BoxDims, rows: int, buffer: np.ndarray):
    """The (lattice, field, scratch) arrays of a batch of ``rows`` seeds, carved in
    turn from the front of the uint8 ``buffer``, which holds ``_workspace_sizes``."""
    lattice, values, scratch, _ = np.split(buffer, np.cumsum(_workspace_sizes(spec, box, rows)))
    return (lattice.view(np.complex128).reshape(rows, -1),
            values.view(np.float64 if spec.is_real else np.complex128).reshape((rows,) + box.v),
            scratch)


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
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)


def spec_from_json(text: str) -> LinearFieldSpec:
    return _spec_from_doc(json.loads(text))


def _spec_from_doc(doc, where: str = "") -> LinearFieldSpec:
    """A spec from its JSON document; ``where`` (``spec.`` in a config) prefixes names."""
    tap = functools.partial(_json_object, keys=("lag", "re", "im"))
    try:
        doc = _json_object(doc, where[:-1], ("dim", "taps", "innovation_kind", "innovation_std"))
        dim = _json_int(doc["dim"], f"{where}dim")
        taps = {}
        for i, entry in enumerate(_json_list(doc["taps"], f"{where}taps", tap)):
            at = f"{where}taps[{i}]"
            lag = tuple(_json_list(entry["lag"], f"{at}.lag", _json_int))
            if lag in taps:
                raise ValueError(f"field {at!r} repeats the lag {list(lag)} of an earlier tap")
            taps[lag] = complex(_json_real(entry["re"], f"{at}.re"),
                                _json_real(entry.get("im", 0.0), f"{at}.im"))
        kind = doc["innovation_kind"]
        std = _json_real(doc["innovation_std"], f"{where}innovation_std")
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
