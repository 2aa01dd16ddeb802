"""Bernstein blocking integers along the first axis, the block and leftover
index slabs they lay out, and the rho' profile they are planned with.

The block layout for a box with first-axis length v1 is driven by three
integers computed from v1 and the field's mixing profile:

    s = floor(v1^(1/3))                     block gap
    p = min(s, floor(1 / sqrt(rho'(s))))    number of big blocks
    r = the unique positive integer with (r-1+s)p <= v1 < (r+s)p

Big block l occupies first coordinates (l-1)(r+s)+1 .. lr+(l-1)s (width r);
consecutive blocks are s apart, and everything not covered is the leftover
set, of first-axis width v1 - pr <= v1^(2/3).  All arithmetic is exact on
Python integers — the cube root in particular is an integer cube root, not
a float power.  The module imports no numpy, so a process that only plans
(``specfield blocking-plan``) loads none; ``mixing`` and ``stats`` take
these names from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _util
from .domain import as_dims, as_int


@dataclass(frozen=True)
class MixingProfile:
    """Upper or certified lower bounds of rho'(n), keyed by n, and the range
    beyond which axis-separated sets of the field are exactly independent."""

    values: dict
    dependence_range: int | None = None

    def __post_init__(self):
        vals = {}
        for n, rho in sorted(self.values.items()):
            n = as_int(n, "profile separation")
            rho = float(rho)
            if n < 1:
                raise ValueError("profile separations are 1-based")
            if not (0.0 <= rho <= 1.0):
                raise ValueError(f"rho'({n}) = {rho} outside [0, 1]")
            vals[n] = rho
        keys = sorted(vals)
        for a, b in zip(keys, keys[1:]):
            if vals[b] > vals[a] + 1e-12:
                raise ValueError("rho' profile must be nonincreasing")
        object.__setattr__(self, "values", vals)
        if self.dependence_range is not None:
            object.__setattr__(self, "dependence_range",
                               as_int(self.dependence_range, "dependence_range"))

    def value_at(self, n: int) -> float:
        """rho'(n): exact zero beyond the dependence range, else the value at the
        largest recorded separation <= n (an upper bound on rho'(n) only if that
        value is one, rho' being nonincreasing), else the trivial bound 1."""
        n = int(n)
        if self.dependence_range is not None and n > self.dependence_range:
            return 0.0
        below = [k for k in self.values if k <= n]
        return self.values[max(below)] if below else 1.0


@dataclass(frozen=True)
class BlockingPlan:
    v1: int
    s: int
    p: int
    r: int
    q: float

    @property
    def leftover_width(self) -> int:
        return self.v1 - self.p * self.r


def _integer_cuberoot(n: int) -> int:
    """floor(n^(1/3)) exactly (float powers round: 1000**(1/3) < 10)."""
    x = round(n ** (1.0 / 3.0))
    while x ** 3 > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def plan(v1: int, profile: MixingProfile, q: float) -> BlockingPlan:
    """Compute the blocking integers for first-axis length v1.

    Requires 8 <= v1 < 2^63 (so s >= 2) and 0 < q < 1/4.  rho'(s) = 0 yields
    p = s (the floor(1/sqrt(0)) = infinity convention, capped by s).
    """
    v1 = as_int(v1, "v1")
    if not 8 <= v1 < 2 ** 63:
        raise ValueError(f"v1 must be in [8, 2^63), got {v1}")
    q = float(q)
    if not (0.0 < q < 0.25):
        raise ValueError(f"q must satisfy 0 < q < 1/4, got {q}")
    s = _integer_cuberoot(v1)
    rho = profile.value_at(s)
    if rho == 0.0:
        p = s
    else:
        p = min(s, int(math.floor(1.0 / math.sqrt(rho))))
    r = v1 // p - s + 1
    if r < 1:
        raise ValueError(
            f"no positive block width exists for v1={v1}, s={s}, p={p}"
        )
    if not ((r - 1 + s) * p <= v1 < (r + s) * p):
        raise ValueError(
            f"internal blocking inconsistency at v1={v1}: s={s}, p={p}, r={r}"
        )
    if (v1 - p * r) ** 3 > v1 ** 2:
        raise ValueError(
            f"leftover width {v1 - p * r} exceeds v1^(2/3) for v1={v1}"
        )
    return BlockingPlan(v1=v1, s=s, p=p, r=r, q=q)


@dataclass(frozen=True)
class IndexSlab:
    """A run of consecutive first coordinates crossed with the full box in
    the remaining axes; cardinalities stay exact Python integers."""

    first_lo: int
    first_hi: int
    dims: tuple[int, ...]

    @property
    def width(self) -> int:
        return self.first_hi - self.first_lo + 1

    @property
    def cardinality(self) -> int:
        return self.width * math.prod(self.dims[1:])

    @property
    def first_slice(self) -> slice:
        """Slice of the first array axis for a zero-shift sample."""
        return slice(self.first_lo - 1, self.first_hi)


# a listed block, its leftover run and their JSON take about 1 KiB, so the
# replication workspace budget bounds the listing at 2^16 blocks
_MAX_BLOCKS = _util._CHUNK_BYTES >> 10


def block_index_sets(pl: BlockingPlan, dims) -> tuple[list[IndexSlab], list[IndexSlab]]:
    """Big blocks and leftover runs for a box whose first side is pl.v1.

    Returns (blocks, leftover): p blocks of first-axis width r, and the
    leftover runs (the s-wide gaps between consecutive blocks plus the tail
    after the last one) whose total cardinality is (v1 - p*r) * v2...vd.
    More than ``_MAX_BLOCKS`` blocks are refused before listing.
    """
    box = as_dims(dims)
    if box.v[0] != pl.v1:
        raise ValueError(f"plan is for v1={pl.v1}, box has first side {box.v[0]}")
    if pl.p > _MAX_BLOCKS:
        raise ValueError(f"blocking plan has p={pl.p} blocks, more than the {_MAX_BLOCKS} "
                         f"that the workspace budget lists; use a smaller v1")
    blocks = []
    leftover = []
    for l in range(1, pl.p + 1):
        lo = (l - 1) * (pl.r + pl.s) + 1
        hi = l * pl.r + (l - 1) * pl.s
        blocks.append(IndexSlab(first_lo=lo, first_hi=hi, dims=box.v))
        gap_hi = l * (pl.r + pl.s) if l < pl.p else pl.v1
        if gap_hi >= hi + 1:
            leftover.append(IndexSlab(first_lo=hi + 1, first_hi=gap_hi, dims=box.v))
    return blocks, leftover
