"""Counter-based deterministic Gaussian noise on the integer lattice.

Every innovation is a pure function of ``(seed, absolute lattice index)``:
the same index always yields the same draw no matter which box it is
generated inside, which is what makes overlapping or shifted boxes agree
sample-path-wise.  Stock generators hand out a stream, not a function of
the index, so we hash instead: a splitmix64-style avalanche over the seed
and the coordinates, then Box-Muller.

All integer work is done on uint64 ndarrays (numpy wraps silently for
arrays; scalars would warn on overflow).
"""

from __future__ import annotations

import numpy as np

# splitmix64 constants (Steele, Lea & Flood's mixer; also used by xorshift-family seeders)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT_B = np.uint64(0xBF58476D1CE4E5B9)
_MULT_C = np.uint64(0x94D049BB133111EB)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)

# domain-separation salts, arbitrary odd constants
_FIELD_SALT = np.uint64(0xA5A5A5A5A5A5A5A5)
_AXIS_SALT = np.uint64(0xC2B2AE3D27D4EB4F)
_REP_SALT = np.uint64(0x165667B19E3779F9)
_U1_SALT = np.uint64(0x27220A95FE7A0A5B)
_U2_SALT = np.uint64(0x9FB21C651E98DF25)

_INV_2_53 = float(2.0 ** -53)
_TWO_PI = 2.0 * np.pi


def _mix64(x: np.ndarray) -> np.ndarray:
    """Bijective 64-bit avalanche: add the golden gamma, then splitmix64 finalize."""
    z = x + _GAMMA
    z = (z ^ (z >> _SH30)) * _MULT_B
    z = (z ^ (z >> _SH27)) * _MULT_C
    return z ^ (z >> _SH31)


def _as_u64(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr.astype(np.uint64, copy=False) if arr.dtype != np.uint64 else arr
    raise ValueError("expected integer values")


def check_seed(seed) -> int:
    """Validate a 64-bit master seed and return it as a Python int."""
    s = int(seed)
    if not (0 <= s < 2 ** 64):
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return s


def _replication_hash(master_seed, index: np.ndarray) -> np.ndarray:
    """Per-replication seeds for an int64 index array: a pure hash of (master seed, index)."""
    s = np.uint64(check_seed(master_seed))
    return _mix64(s ^ _mix64(index.astype(np.uint64) ^ _REP_SALT))


def replication_seed(master_seed, index) -> int:
    """Derive the per-replication seed: a pure hash of (master seed, index)."""
    return int(_replication_hash(master_seed, np.asarray([int(index)], dtype=np.int64))[0])


def _hash_lattice(seeds: np.ndarray, axis_coords: list[np.ndarray]) -> np.ndarray:
    """Hash every (seed, coordinate tuple) pair on the product grid.

    ``seeds`` has shape (R,), each ``axis_coords[s]`` is a 1-d int array; the
    result is a uint64 array of shape (R, n_1, ..., n_d) built by chaining
    per-axis hashes with broadcasting, so no (R*V, d) intermediate is formed.
    """
    d = len(axis_coords)
    h = _mix64(_as_u64(seeds) ^ _FIELD_SALT)
    h = h.reshape((-1,) + (1,) * d)
    for s, coords in enumerate(axis_coords):
        salt = _mix64(np.asarray([s + 1], dtype=np.uint64) ^ _AXIS_SALT)
        g = _mix64(np.asarray(coords, dtype=np.int64).astype(np.uint64) ^ salt)
        shape = (1,) * (1 + s) + (len(coords),) + (1,) * (d - 1 - s)
        h = _mix64(h ^ g.reshape(shape))
    return h


def _uniforms(h: np.ndarray, salt: np.uint64) -> np.ndarray:
    """Turn hashes into doubles in [0, 1) using the top 53 bits."""
    return ((_mix64(h ^ salt) >> _SH11)).astype(np.float64) * _INV_2_53


def gaussian_lattice(seeds, axis_ranges, kind: str, std: float) -> np.ndarray:
    """Deterministic Gaussian draws on a lattice box, one layer per seed.

    Parameters
    ----------
    seeds : int or sequence of ints
        Master seed(s); a scalar yields an array without the leading axis.
    axis_ranges : sequence of (lo, hi) inclusive absolute coordinate ranges.
    kind : "real-gaussian" or "circular-complex-gaussian"
        Real N(0, std^2) draws, or circularly-symmetric complex draws with
        E|z|^2 = std^2 (independent real and imaginary parts of variance
        std^2 / 2).
    std : float
        Innovation standard deviation (>= 0).

    Returns
    -------
    ndarray of shape (R, n_1, ..., n_d), or (n_1, ..., n_d) for scalar seed;
    float64 for real draws, complex128 for circular ones.
    """
    scalar = np.ndim(seeds) == 0
    # build the uint64 array with an explicit dtype: inferring it from a list
    # that contains values >= 2^63 would silently promote to float64 and
    # truncate the seeds
    seed_list = [check_seed(seeds)] if scalar else [check_seed(s) for s in seeds]
    seed_arr = np.asarray(seed_list, dtype=np.uint64)
    if std < 0:
        raise ValueError("std must be >= 0")
    coords = []
    for lo, hi in axis_ranges:
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty axis range ({lo}, {hi})")
        if max(abs(lo), abs(hi)) > 2 ** 62:
            raise ValueError("lattice coordinates overflow 64-bit index arithmetic")
        coords.append(np.arange(lo, hi + 1, dtype=np.int64))

    h = _hash_lattice(seed_arr, coords)
    u1 = _uniforms(h, _U1_SALT)
    u2 = _uniforms(h, _U2_SALT)
    # Box-Muller; 1 - u1 lies in (0, 1] so the log is finite.
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = _TWO_PI * u2
    z0 = radius * np.cos(angle)
    if kind == "real-gaussian":
        out = std * z0
    elif kind == "circular-complex-gaussian":
        z1 = radius * np.sin(angle)
        out = (std / np.sqrt(2.0)) * (z0 + 1j * z1)
    else:
        raise ValueError(f"unknown innovation kind {kind!r}")
    return out[0] if scalar else out
