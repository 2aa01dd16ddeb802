"""Admissible frequencies and asymptotically separated frequency schemes.

A frequency is admissible when at least one coordinate avoids {-pi, 0, pi}
exactly — those are the points where real and imaginary parts of the
modulated sum degenerate.  A family of frequencies indexed by a growing
dims sequence is "separated" when every pair eventually differs, in some
coordinate s, by more than v_s^{-(1/2 - delta)}: slower than the Fourier
spacing 1/v_s, which is what keeps distinct periodogram ordinates
asymptotically independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import Frequency, as_dims, as_frequency, as_int

# The builder separates neighbours by margin * v^{-(1/2-delta)}; any factor
# > 1 satisfies the strict separation inequality with room to spare.
SEPARATION_MARGIN = 2.0

_EXCLUDED = (0.0, math.pi, -math.pi)


def is_admissible(lam) -> bool:
    """True when some coordinate of lam differs from -pi, 0 and pi.

    Membership is exact equality on the stored float — no tolerance — so
    e.g. pi/2 + 1e-17 is simply a different (admissible) number.
    """
    freq = as_frequency(lam)
    return any(c not in _EXCLUDED for c in freq)


def separation_gap(v_axis: int, delta: float) -> float:
    """The minimal-separation scale v^{-(1/2-delta)} for one axis."""
    if not (0.0 < delta < 0.5):
        raise ValueError(f"delta must satisfy 0 < delta < 1/2, got {delta}")
    if v_axis < 1:
        raise ValueError("axis length must be >= 1")
    return float(v_axis) ** (-(0.5 - delta))


def _circle_distance(a: float, b: float) -> float:
    """Distance of two coordinates in (-pi, pi] on the circle R / 2 pi Z."""
    x = abs(a - b)
    return min(x, 2.0 * math.pi - x)


def build_separated(lam, m: int, delta: float, axis: int, dims) -> list[Frequency]:
    """m frequencies fanning out from lam along one axis, pairwise separated.

    Neighbour j+1 sits SEPARATION_MARGIN * v_axis^{-(1/2-delta)} beyond
    neighbour j, so every pair beats the separation threshold strictly.
    Raises if lam is inadmissible, delta is out of range, the fan exits
    (-pi, pi] on that axis, or its ends come within the threshold of each
    other across +-pi on the circle.
    """
    base = as_frequency(lam)
    box = as_dims(dims, base.dim)
    m = as_int(m, "m")
    axis = as_int(axis, "axis")
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (0 <= axis < base.dim):
        raise ValueError(f"axis {axis} out of range for dimension {base.dim}")
    if not is_admissible(base):
        raise ValueError(f"base frequency {tuple(base)} is not admissible")
    gap = separation_gap(box.v[axis], delta)
    step = SEPARATION_MARGIN * gap
    top = base[axis] + (m - 1) * step
    if top > math.pi:
        raise ValueError(
            f"separated fan exits (-pi, pi]: coordinate reaches {top:.6f} > pi; "
            f"lower m or delta, or move the base frequency"
        )
    # the ends are closest the other way round the circle, across +-pi
    wrap = 2.0 * math.pi - (top - base[axis])
    if m >= 2 and wrap <= gap:
        raise ValueError(
            f"the fan's ends violate separation at pair (1, {m}) across +-pi: "
            f"{wrap:.6f} apart on the circle, within the gap {gap:.6f}; "
            f"lower m or delta"
        )
    out = []
    for j in range(m):
        coords = list(base.coords)
        coords[axis] = base[axis] + j * step
        out.append(Frequency(tuple(coords)))
    return out


@dataclass(frozen=True)
class SeparationSpec:
    """Per-pair separation demands: exponent delta(j,k) and onset index N(j,k).

    Pairs are unordered, keyed by (min(j, k), max(j, k)) with 1-based labels.
    """

    m: int
    delta: dict
    onset: dict

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        delta = {}
        onset = {}
        for (j, k) in self._pairs(self.m):
            d = self.delta.get((j, k))
            if d is None:
                raise ValueError(f"missing delta for pair ({j},{k})")
            if not (0.0 < d < 0.5):
                raise ValueError(f"delta must satisfy 0 < delta < 1/2, got {d}")
            delta[(j, k)] = float(d)
            n0 = as_int(self.onset.get((j, k), 1), "onset index")
            if n0 < 1:
                raise ValueError("onset indices are 1-based")
            onset[(j, k)] = n0
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "onset", onset)

    @staticmethod
    def _pairs(m: int):
        return [(j, k) for j in range(1, m + 1) for k in range(j + 1, m + 1)]

    @classmethod
    def uniform(cls, m: int, delta: float, onset: int = 1) -> "SeparationSpec":
        pairs = cls._pairs(m)
        return cls(m=m, delta=dict.fromkeys(pairs, delta), onset=dict.fromkeys(pairs, onset))


@dataclass(frozen=True)
class FrequencyScheme:
    """A frequency family per entry of a dims sequence.

    ``per_n[i]`` lists the m frequencies used with ``dims_sequence[i]``;
    ``base`` is the common anchor.  Schemes made by ``separated`` remember
    their construction delta, the default of the separation check
    downstream.
    """

    base: Frequency
    per_n: tuple
    dims_sequence: tuple
    delta: float | None = None

    def __post_init__(self):
        if len(self.per_n) != len(self.dims_sequence):
            raise ValueError("per_n and dims_sequence must have equal length")
        if not self.per_n:
            raise ValueError("scheme must cover at least one dims entry")
        sizes = {len(freqs) for freqs in self.per_n}
        if len(sizes) != 1:
            raise ValueError("every entry must carry the same number of frequencies")
        object.__setattr__(self, "per_n", tuple(tuple(f) for f in self.per_n))
        object.__setattr__(self, "dims_sequence",
                           tuple(as_dims(d, self.base.dim) for d in self.dims_sequence))

    @property
    def m(self) -> int:
        return len(self.per_n[0])

    def freqs_for(self, dims) -> tuple:
        """The frequency family attached to one dims entry of the sequence."""
        box = as_dims(dims, self.base.dim)
        for d, freqs in zip(self.dims_sequence, self.per_n):
            if d.v == box.v:
                return freqs
        raise ValueError(f"dims {box.v} not part of this scheme")

    @classmethod
    def separated(cls, lam, m: int, delta: float, axis: int,
                  dims_sequence) -> "FrequencyScheme":
        base = as_frequency(lam)
        per_n = [build_separated(base, m, delta, axis, dims) for dims in dims_sequence]
        return cls(base=base, per_n=tuple(per_n), dims_sequence=tuple(dims_sequence),
                   delta=float(delta))


@dataclass(frozen=True)
class SeparationCheck:
    ok: bool
    # (j, k, n) of the first violation, or None
    witness: tuple | None


def check_separation(scheme: FrequencyScheme, sep: SeparationSpec,
                     real: bool = False) -> SeparationCheck:
    """Verify the separation condition for every pair past its onset index.

    Pair (j, k) passes at sequence entry n when SOME coordinate s satisfies
    dist(lam_s^{(j,n)}, lam_s^{(k,n)}) > v_s^{-(1/2 - delta(j,k))} strictly,
    where dist is the distance on the circle, min(|x|, 2 pi - |x|) for
    x = lam_s - mu_s: the kernels are 2 pi-periodic, so frequencies near
    pi and near -pi are close.  For a real field S(-mu) = conj S(mu), so
    ``real`` also demands the same of lam and -mu, i.e. of lam + mu against
    0.  Returns the first violating (j, k, n) as a witness, 1-based.
    """
    if sep.m != scheme.m:
        raise ValueError(f"separation spec is for m={sep.m}, scheme has m={scheme.m}")
    signs = (1.0, -1.0) if real else (1.0,)
    for n, (dims, freqs) in enumerate(zip(scheme.dims_sequence, scheme.per_n), start=1):
        for (j, k), delta in sep.delta.items():
            if n < sep.onset[(j, k)]:
                continue
            fj, fk = freqs[j - 1], freqs[k - 1]
            gaps = [separation_gap(v, delta) for v in dims.v]
            for sign in signs:
                if not any(_circle_distance(a, sign * b) > gap
                           for a, b, gap in zip(fj, fk, gaps)):
                    return SeparationCheck(ok=False, witness=(j, k, n))
    return SeparationCheck(ok=True, witness=None)


def _validated_freqs(spec, scheme: FrequencyScheme, dims):
    """The box and the scheme's frequencies for it, for a field ``spec``.

    Refuses an inadmissible base and a family that ``check_separation``
    refuses at the scheme's delta (0.25 when it has none), measured against
    -mu as well when the spec is real.
    """
    box = as_dims(dims, spec.dim)
    freqs = scheme.freqs_for(box)
    if not is_admissible(scheme.base):
        raise ValueError("scheme base frequency is not admissible")
    if len(freqs) >= 2:
        single = FrequencyScheme(base=scheme.base, per_n=(freqs,), dims_sequence=(box,))
        sep = SeparationSpec.uniform(len(freqs),
                                     scheme.delta if scheme.delta is not None else 0.25)
        for real in (False, True) if spec.is_real else (False,):
            verdict = check_separation(single, sep, real)
            if not verdict.ok:
                against = " against -mu (a real field has S(-mu) = conj S(mu))" if real else ""
                raise ValueError(
                    f"frequencies for dims {box.v} violate separation at pair "
                    f"{verdict.witness[:2]}{against}")
    return box, freqs
