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

import itertools
import math
import numbers
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


def _as_delta(delta) -> float:
    """A separation exponent as a float; anything but a real in (0, 1/2) is refused."""
    if not (isinstance(delta, numbers.Real) and 0.0 < delta < 0.5):
        raise ValueError(f"delta must satisfy 0 < delta < 1/2, got {delta}")
    return float(delta)


def separation_gap(v_axis: int, delta: float) -> float:
    """The minimal-separation scale v^{-(1/2-delta)} for one axis."""
    delta = _as_delta(delta)
    v_axis = as_int(v_axis, "axis length")
    if v_axis < 1:
        raise ValueError("axis length must be >= 1")
    return float(v_axis) ** (-(0.5 - delta))


def _circle_distance(a: float, b: float) -> float:
    """Distance of two coordinates in (-pi, pi] on the circle R / 2 pi Z."""
    x = abs(a - b)
    return min(x, 2.0 * math.pi - x)


def _separation_witness(freqs, box, delta: float, real: bool):
    """The first pair (j, k) of ``freqs``, 1-based, with no coordinate s where
    dist(lam_s, mu_s) > v_s^{-(1/2 - delta)} at ``box``, and whether it failed
    against -mu; None when every pair is separated.  dist is the distance on
    the circle, as the kernels are 2 pi-periodic; a real field has
    S(-mu) = conj S(mu), so ``real`` demands the same of lam and -mu."""
    gaps = [separation_gap(v, delta) for v in box.v]
    for j, k in itertools.combinations(range(len(freqs)), 2):
        for sign in (1.0, -1.0) if real else (1.0,):
            if not any(_circle_distance(a, sign * b) > gap
                       for a, b, gap in zip(freqs[j], freqs[k], gaps)):
                return (j + 1, k + 1), sign < 0
    return None


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
        if len({len(freqs) for freqs in self.per_n}) != 1:
            raise ValueError("every entry must carry the same number of frequencies")
        base = as_frequency(self.base)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "per_n", tuple(tuple(as_frequency(f, base.dim) for f in freqs)
                                                for freqs in self.per_n))
        object.__setattr__(self, "dims_sequence",
                           tuple(as_dims(d, base.dim) for d in self.dims_sequence))
        if self.delta is not None:
            object.__setattr__(self, "delta", _as_delta(self.delta))

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
        per_n = [build_separated(lam, m, delta, axis, dims) for dims in dims_sequence]
        return cls(base=lam, per_n=tuple(per_n), dims_sequence=tuple(dims_sequence),
                   delta=delta)


def _validated_freqs(spec, scheme: FrequencyScheme, dims):
    """The box and the scheme's frequencies for it, for a field ``spec``.

    Refuses an inadmissible base and a family that is not separated at the
    scheme's delta (0.25 when it has none): first as it stands, then, when
    the spec is real, against -mu as well.
    """
    box = as_dims(dims, spec.dim)
    freqs = scheme.freqs_for(box)
    if not is_admissible(scheme.base):
        raise ValueError("scheme base frequency is not admissible")
    delta = scheme.delta if scheme.delta is not None else 0.25
    for real in (False, True) if spec.is_real else (False,):
        witness = _separation_witness(freqs, box, delta, real)
        if witness is not None:
            against = " against -mu (a real field has S(-mu) = conj S(mu))" if witness[1] else ""
            raise ValueError(
                f"frequencies for dims {box.v} violate separation at pair {witness[0]}{against}")
    return box, freqs
