"""Moving-average fields on Z^d: the spec and its second-order theory.

A field spec is a finite set of filter taps ``a_j`` (complex, indexed by
integer lags j in Z^d) driving i.i.d. Gaussian innovations:

    X_k = sum_j a_j * eps_{k - j}.

Closed forms used throughout:

* autocovariance   r(h) = std^2 * sum_t a_t * conj(a_{t-h})
* spectral density f(lam) = std^2 * |sum_j a_j exp(-i j.lam)|^2

Nothing here draws or imports ``rng``: ``fieldgen`` samples these fields.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .domain import (BoxDims, _json_int, _json_list, _json_object, _json_real, as_frequency,
                     as_int)

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
        object.__setattr__(self, "dim", as_int(self.dim, "dim"))
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.taps:
            raise ValueError("taps must be non-empty")
        norm = {}
        for lag, coeff in self.taps.items():
            lag = tuple(as_int(x, "tap lag coordinate") for x in lag)
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
        return [(min(axis), max(axis)) for axis in zip(*self.taps)]

    @property
    def dependence_range(self) -> int:
        """Largest per-axis diameter of the tap support.

        Field values whose index sets are separated by more than this in
        some coordinate share no innovations, hence are independent.
        """
        return max(hi - lo for lo, hi in self.lag_bounds())


def spectral_density(spec: LinearFieldSpec, lam) -> float:
    """f(lam) = std^2 * |sum_j a_j exp(-i j.lam)|^2, nonnegative and even-symmetric."""
    lamv = np.asarray(as_frequency(lam, spec.dim).coords, dtype=float)
    amp = 0j
    for lag, coeff in spec.taps.items():
        amp += coeff * np.exp(-1j * np.dot(lag, lamv))
    return float(spec.innovation_std ** 2 * (amp.real ** 2 + amp.imag ** 2))


def autocovariance(spec: LinearFieldSpec, h) -> complex:
    """r(h) = E[X_{k+h} conj(X_k)] = std^2 * sum_t a_t conj(a_{t-h})."""
    lag = tuple(as_int(x, "lag coordinate") for x in h)
    if len(lag) != spec.dim:
        raise ValueError(f"lag {lag} is not {spec.dim}-dimensional")
    lags, r = _lag_arrays(spec)
    hit = np.flatnonzero(np.all(lags == lag, axis=1))
    return complex(r[hit[0]]) if hit.size else 0j


def _lag_arrays(spec: LinearFieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """The autocovariance table: the lags h of the support difference set as
    (H, d) int64 and r(h) as (H,) complex128, from one pass over tap pairs
    (t, u), each adding a_t conj(a_u) to r(t - u).  Built on the first call for
    a spec and cached on it, which is immutable, so both arrays are read-only.
    """
    table = getattr(spec, "_lags", None)
    if table is not None:
        return table
    sums = {}
    for t, coeff in spec.taps.items():
        for u, mate in spec.taps.items():
            h = tuple(ti - ui for ti, ui in zip(t, u))
            sums[h] = sums.get(h, 0j) + coeff * mate.conjugate()
    var = spec.innovation_std ** 2
    lags = np.array(list(sums), dtype=np.int64)
    r = np.array([complex(var * total) for total in sums.values()], dtype=np.complex128)
    lags.flags.writeable = r.flags.writeable = False
    object.__setattr__(spec, "_lags", (lags, r))
    return lags, r


@dataclass(frozen=True)
class FieldSample:
    """One realization over a shifted box; ``values[i1, ..., id]`` sits at
    absolute index ``(shift_1 + i1 + 1, ..., shift_d + id + 1)``."""

    dims: BoxDims
    shift: tuple[int, ...]
    values: np.ndarray
    seed: int


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
