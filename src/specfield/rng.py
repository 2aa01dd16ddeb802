"""Counter-based deterministic Gaussian noise on the integer lattice.

Every innovation is a pure function of ``(seed, absolute lattice index)``:
the same index always yields the same draw no matter which box it is
generated inside, which is what makes overlapping or shifted boxes agree
sample-path-wise.  Stock generators hand out a stream, not a function of
the index, so we hash instead: a splitmix64-style avalanche over the seed
and the coordinates (Steele, Lea & Flood, OOPSLA'14; used counter-style as
in Salmon et al., SC'11), then Box-Muller.  With u1, u2 from the top 53
bits of two salted hashes of the site, r = sqrt(-2 log1p(-u1)) and
t = 2 pi u2, a real draw is ``std * r cos t`` and a circular one is
``(std / sqrt 2) * (r cos t + 1j * r sin t)`` in complex arithmetic.

``gaussian_lattice`` hashes the seed and every axis but the last up front, then
walks the box in blocks of ``_BLOCK_SITES`` sites: whole rows of the last
axis, or pieces of one row longer than a block.  Each block is hashed and
transformed in place, in six block-sized scratch arrays allocated per call,
and written straight into the output.  Beyond the output, memory is
therefore a few uint64 per row plus a fixed budget, even for a single
replication of millions of sites.  Every step is elementwise and exactly
rounded the same way at any block size, so blocking moves no bit of the
stream; the tests pin sha256 digests of it.

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

# sites hashed and transformed per block; the scratch is six arrays this long.
# 2^14 to 2^16 run alike in perfbench's mc_clt2d and mc_neglig1d traces;
# 2^12 pays for per-call overhead and 2^17 falls out of the core's L2.
_BLOCK_SITES = 1 << 15


def _mix64(x: np.ndarray, out: np.ndarray | None = None,
           tmp: np.ndarray | None = None) -> np.ndarray:
    """Bijective 64-bit avalanche: add the golden gamma, then splitmix64 finalize.

    With ``out`` and ``tmp`` (uint64 arrays shaped like ``x``; ``out`` may be
    ``x`` itself) the result is written into ``out`` and nothing is allocated.
    """
    z = np.add(x, _GAMMA, out=out)
    for shift, mult in ((_SH30, _MULT_B), (_SH27, _MULT_C)):
        tmp = np.right_shift(z, shift, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    tmp = np.right_shift(z, _SH31, out=tmp)
    return np.bitwise_xor(z, tmp, out=z)


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


def _axis_key(axis: int, coords: np.ndarray) -> np.ndarray:
    """Hash of each coordinate along one axis, salted by the axis position."""
    salt = _mix64(np.asarray([axis + 1], dtype=np.uint64) ^ _AXIS_SALT)
    return _mix64(coords.astype(np.uint64) ^ salt)


def _hash_rows(seeds: np.ndarray, axis_coords: list[np.ndarray]) -> np.ndarray:
    """Chain the hash of the uint64 seeds through the given axes, shape (R, n_1, ..., n_k).

    Each axis mixes in its coordinate hash by broadcasting, so no (R*V, d)
    intermediate is formed.  ``gaussian_lattice`` chains every axis but the
    last here and mixes the last one in block by block.
    """
    h = _mix64(seeds ^ _FIELD_SALT)
    for s, coords in enumerate(axis_coords):
        h = _mix64(h[..., None] ^ _axis_key(s, coords))
    return h


def _uniforms(h: np.ndarray, salt: np.uint64, factor: float, bits: np.ndarray,
              tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``factor * u`` for u in [0, 1) from the top 53 bits k of mix(h ^ salt).

    u = k * 2^-53 is exact, so ``k * (factor * 2^-53)`` rounds once, to the
    same double as ``factor * u``.  Below 2^53 the int64 view of k holds the
    same value, and numpy converts it several times faster than uint64.
    """
    _mix64(np.bitwise_xor(h, salt, out=bits), out=bits, tmp=tmp)
    np.right_shift(bits, _SH11, out=bits)
    return np.multiply(bits.view(np.int64), factor * _INV_2_53, out=out)


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
    if kind == "real-gaussian":
        dtype, scale = np.float64, std
    elif kind == "circular-complex-gaussian":
        dtype, scale = np.complex128, std / np.sqrt(2.0)
    else:
        raise ValueError(f"unknown innovation kind {kind!r}")
    bounds = []
    for lo, hi in axis_ranges:
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty axis range ({lo}, {hi})")
        if max(abs(lo), abs(hi)) > 2 ** 62:
            raise ValueError("lattice coordinates overflow 64-bit index arithmetic")
        bounds.append((lo, hi))
    if not bounds:
        raise ValueError("need at least one axis range")

    *lead, (lo, hi) = bounds
    rows = _hash_rows(seed_arr, [np.arange(a, b + 1, dtype=np.int64) for a, b in lead])
    n = hi - lo + 1
    out = np.empty(rows.shape + (n,), dtype=dtype)
    rows, grid = rows.reshape(-1), out.reshape(-1, n)
    # a block is a run of whole rows, or a piece of one row longer than the block
    cols = min(n, _BLOCK_SITES)
    step = max(1, _BLOCK_SITES // n)
    ints = [np.empty(step * cols, dtype=np.uint64) for _ in range(3)]
    floats = [np.empty(step * cols) for _ in range(3)]
    for c0 in range(0, n, cols):
        c1 = min(n, c0 + cols)
        key = _axis_key(len(lead), np.arange(lo + c0, lo + c1, dtype=np.int64))
        for r0 in range(0, rows.size, step):
            r1 = min(rows.size, r0 + step)
            size = (r1 - r0) * (c1 - c0)
            h, bits, tmp, radius, angle, trig = (
                buf[:size].reshape(r1 - r0, c1 - c0) for buf in ints + floats)
            _mix64(np.bitwise_xor(rows[r0:r1, None], key, out=h), out=h, tmp=tmp)
            # Box-Muller; 1 - u1 lies in (0, 1] so the log is finite.
            np.log1p(_uniforms(h, _U1_SALT, -1.0, bits, tmp, radius), out=radius)
            np.multiply(radius, -2.0, out=radius)
            np.sqrt(radius, out=radius)
            _uniforms(h, _U2_SALT, _TWO_PI, bits, tmp, angle)
            block = grid[r0:r1, c0:c1]
            np.cos(angle, out=trig)
            if dtype is np.float64:
                np.multiply(radius, trig, out=block)
            else:
                np.multiply(radius, trig, out=block.real)
                np.sin(angle, out=trig)
                np.multiply(radius, trig, out=block.imag)
                if not radius.all():
                    # the complex sum z0 + 1j * z1 moves the sign of a zero
                    # part, and the stream is defined by that sum
                    block[...] = block.real + 1j * block.imag
            # scale last, as the formula does: for circular draws a complex
            # times real multiply, which also sets the signed zeros at std = 0
            np.multiply(block, scale, out=block)
    return out[0] if scalar else out
