"""Shared value types: rectangular index boxes and torus frequencies, and
the strict readers of JSON integers, reals, arrays and objects used by
every input document.

Index boxes live on the d-dimensional integer lattice.  A box of dims
``v = (v_1, ..., v_d)`` anchored at shift ``w`` is the set of lattice
points ``k`` with ``w_j + 1 <= k_j <= w_j + v_j``.  Frequencies live on
the d-torus, one coordinate per lattice axis, each in ``(-pi, pi]``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BoxDims:
    """Side lengths of a rectangular index box; ``volume`` is their product."""

    v: tuple[int, ...]

    def __post_init__(self):
        if len(self.v) == 0:
            raise ValueError("box must have at least one axis")
        for side in self.v:
            if not isinstance(side, (int, np.integer)) or isinstance(side, bool):
                raise ValueError(f"box sides must be integers, got {side!r}")
            if not 1 <= side < 2 ** 63:
                raise ValueError(f"box sides must be in [1, 2^63), got {side}")
        object.__setattr__(self, "v", tuple(int(side) for side in self.v))

    @property
    def dim(self) -> int:
        return len(self.v)

    @property
    def volume(self) -> int:
        return math.prod(self.v)

    def __iter__(self):
        return iter(self.v)


@dataclass(frozen=True)
class Frequency:
    """A point on the d-torus with every coordinate in (-pi, pi]."""

    coords: tuple[float, ...]

    def __post_init__(self):
        if len(self.coords) == 0:
            raise ValueError("frequency must have at least one coordinate")
        coords = tuple(float(c) for c in self.coords)
        for c in coords:
            if not (-math.pi < c <= math.pi):
                raise ValueError(
                    f"frequency coordinate {c} outside (-pi, pi]"
                )
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


def as_dims(dims, dim: int | None = None) -> BoxDims:
    """Coerce a BoxDims or a plain int sequence, optionally checking its dimension."""
    box = dims if isinstance(dims, BoxDims) else BoxDims(tuple(dims))
    if dim is not None and box.dim != dim:
        raise ValueError(f"expected {dim}-dimensional box, got {box.dim}")
    return box


def as_frequency(lam, dim: int | None = None) -> Frequency:
    """Coerce a Frequency or a plain float sequence, optionally checking its dimension."""
    freq = lam if isinstance(lam, Frequency) else Frequency(tuple(lam))
    if dim is not None and freq.dim != dim:
        raise ValueError(f"expected {dim}-dimensional frequency, got {freq.dim}")
    return freq


def as_shift(shift, dim: int) -> tuple[int, ...]:
    """Coerce an integer shift vector of the given dimension (default zeros)."""
    if shift is None:
        return (0,) * dim
    out = tuple(int(w) for w in shift)
    if len(out) != dim:
        raise ValueError(f"expected {dim}-dimensional shift, got {len(out)}")
    return out


def _json_int(value, name: str) -> int:
    """A JSON integer as is; floats and bools are refused, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {name!r} must be an integer, got {json.dumps(value)}")
    return value


def _json_real(value, name: str) -> float:
    """A finite JSON number as a float; bools, strings, NaN and infinities are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not -sys.float_info.max <= value <= sys.float_info.max):
        raise ValueError(f"field {name!r} must be a real number, got {json.dumps(value)}")
    return float(value)


def _json_list(value, name: str, read) -> list:
    """Each entry of a JSON array through ``read(entry, "name[i]")``."""
    if not isinstance(value, list):
        raise TypeError(f"field {name!r} must be an array, got {json.dumps(value)}")
    return [read(x, f"{name}[{i}]") for i, x in enumerate(value)]


def _json_object(value, name: str, keys=None) -> dict:
    """A JSON object with no key outside ``keys`` (None allows any); ``name`` is
    its path, "" for a whole document.  Refusals are TypeErrors naming the
    field or the unknown key."""
    if not isinstance(value, dict):
        what = f"field {name!r}" if name else "the document"
        raise TypeError(f"{what} must be an object, got {json.dumps(value)}")
    for key in value:
        if keys is not None and key not in keys:
            raise TypeError(f"unknown key {(f'{name}.' if name else '') + key!r}")
    return value
