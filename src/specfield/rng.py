"""Counter-based deterministic Gaussian noise on the integer lattice.

Every innovation is a pure function of ``(seed, absolute lattice index)``:
the same index always yields the same draw no matter which box it is
generated inside, which is what makes overlapping or shifted boxes agree
sample-path-wise.  Stock generators hand out a stream, not a function of
the index, so we hash instead: a splitmix64-style avalanche over the seed
and the coordinates (Steele, Lea & Flood, OOPSLA'14; used counter-style as
in Salmon et al., SC'11), then Box-Muller (Box & Muller, 1958).

Stream 4 (``RNG_STREAM``) is defined as follows.  Two salted hashes of a
site give 53-bit integers k1 and k, the radius r = sqrt(-2 log1p(-u1)) with
u1 = k1 2^-53 and the angle t = 2 pi k 2^-53.  With rho = scale * r, a
circular draw is ``rho * cos t + 1j * rho * sin t``, each part written on
its own (scale = std / sqrt 2).  A real draw at last coordinate j is
``rho * cos t`` (j even) or ``rho * sin t`` (j odd) of the site whose last
coordinate is j >> 1 (floor), with scale = std and a field salt of its own.
cos t and sin t come from ``_angle_factors``, which reduces t exactly in
integers to phi in [0, pi/4] and evaluates fdlibm's polynomial kernels on
phi in numpy multiplies and adds (``_sincos``): with z = phi^2,

    sin phi = phi + phi z S(z),   cos phi = w + (((1 - w) - z/2) + z^2 C(z)),

where w = 1 - z/2, 1 - w is exact, and S and C are the degree-5 minimax
polynomials of fdlibm's ``__kernel_sin`` and ``__kernel_cos``.  Circular
draws are the same bits in streams 3 and 4.  Streams 1 to 3 drew one real
value per site, ``rho * cos t`` from the site's own hashes; each of them
differs from the next only in rounding, within about 1e-14 * std.

``gaussian_lattice`` hashes the seed and every axis but the last up front, then
walks the box in blocks of ``_BLOCK_SITES`` sites: whole rows of the last
axis, or pieces of one row longer than a block.  Each block is hashed and
transformed in place, in six block-sized scratch arrays (carved from the
caller's ``scratch``, or allocated per call without one), and written
straight into the output.  A real box is drawn as the complex box of its
pair sites and returned as a slice of that box's float64 view, whose rows
carry at most two float64 of padding.  Beyond the output, memory
is therefore a few uint64 per row plus a fixed budget, even for a single
replication of millions of sites.  Every step is elementwise and exactly
rounded the same way at any block size, so blocking moves no bit of the
stream; the tests pin sha256 digests of it.

All integer work is done on uint64 ndarrays and their int64 views (numpy
wraps silently for arrays; scalars would warn on overflow).
"""

from __future__ import annotations

import numpy as np

# version of the innovation stream, recorded in the clt, miller and
# negligibility reports; it changes whenever a draw changes in any bit
RNG_STREAM = 4

# splitmix64 constants (Steele, Lea & Flood's mixer; also used by xorshift-family seeders)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT_B = np.uint64(0xBF58476D1CE4E5B9)
_MULT_C = np.uint64(0x94D049BB133111EB)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_SH1 = np.uint64(1)
_SH2 = np.uint64(2)
_SH13 = np.uint64(13)
_SH63 = np.int64(63)

# domain-separation salts, odd constants; the real lattice's is _mix64(3), as CHANGES.md
# explains: the two salts tried before it failed a statistical acceptance test by chance
_FIELD_SALT = np.uint64(0xA5A5A5A5A5A5A5A5)
_REAL_SALT = np.uint64(0x1D0B14E4DB018FED)
_AXIS_SALT = np.uint64(0xC2B2AE3D27D4EB4F)
_REP_SALT = np.uint64(0x165667B19E3779F9)
_U1_SALT = np.uint64(0x27220A95FE7A0A5B)
_U2_SALT = np.uint64(0x9FB21C651E98DF25)

_INV_2_53 = float(2.0 ** -53)
# one step of k in angle, 2 pi 2^-53 = pi 2^-52: the double nearest pi times a
# power of two, so f * _PI_2_52 rounds once
_PI_2_52 = float(np.pi * 2.0 ** -52)
# adding these to a hash adds 1 to its top 3 bits (the octant) or 2 bits (the quadrant)
_OCTANT = np.uint64(1 << 61)
_QUADRANT = np.uint64(1 << 62)
_SIGN = np.uint64(1 << 63)

# fdlibm's minimax coefficients (k_sin.c and k_cos.c, Sun Microsystems 1993),
# highest power first.  On 0 <= phi <= pi/4, with z = phi^2, these doubles give
#   |sin(phi)/phi - (1 + z S(z))| < 3.5e-18   and   |cos(phi) - (1 - z/2 + z^2 C(z))| < 1e-18
# (fdlibm states 2^-58 = 3.47e-18 for both; the tests hold them to these bounds)
_S = (1.58969099521155010221e-10, -2.50507602534068634195e-08, 2.75573137070700676789e-06,
      -1.98412698298579493134e-04, 8.33333333332248946124e-03, -1.66666666666666324348e-01)
_C = (-1.13596475577881948265e-11, 2.08757232129817482790e-09, -2.75573143513906633035e-07,
      2.48015872894767294178e-05, -1.38888888888741095749e-03, 4.16666666666666019037e-02)

# sites hashed and transformed per block (pair sites for a real box, two
# draws each); the scratch is six arrays this long.
# 2^14 to 2^16 run alike in perfbench's mc_clt2d and mc_neglig1d traces;
# 2^12 pays for per-call overhead and 2^17 falls out of the core's L2.
_BLOCK_SITES = 1 << 15
# the most bytes of block scratch one call uses
_SCRATCH_BYTES = 6 * 8 * _BLOCK_SITES


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


def _hash_rows(seeds: np.ndarray, salt: np.uint64,
               axis_coords: list[np.ndarray]) -> np.ndarray:
    """Chain the hash of the salted uint64 seeds through the given axes, shape (R, n_1, ..., n_k).

    Each axis mixes in its coordinate hash by broadcasting, so no (R*V, d)
    intermediate is formed.  ``gaussian_lattice`` chains every axis but the
    last here and mixes the last one in block by block.
    """
    h = _mix64(seeds ^ salt)
    for s, coords in enumerate(axis_coords):
        h = _mix64(h[..., None] ^ _axis_key(s, coords))
    return h


def _sincos(phi: np.ndarray, z: np.ndarray, c: np.ndarray, s: np.ndarray) -> None:
    """cos phi into ``c`` and sin phi into ``s`` for phi in [0, pi/4], by
    fdlibm's ``__kernel_cos`` and ``__kernel_sin`` with a zero tail.

    Horner's rule on z = phi^2 in place: ``z`` is float64 scratch and ``phi``
    is overwritten.  1 - w, for w = 1 - z/2 rounded, is formed as
    (z/2 + 1/2) - 1/2: both round z/2 to the same multiple of 2^-53, so it
    is the same double, and no slot holds w while it is needed.
    """
    np.multiply(phi, phi, out=z)
    np.multiply(z, _S[0], out=s)
    for coef in _S[1:]:
        np.multiply(np.add(s, coef, out=s), z, out=s)
    np.add(np.multiply(s, phi, out=s), phi, out=s)
    np.multiply(z, _C[0], out=c)
    for coef in _C[1:]:
        np.multiply(np.add(c, coef, out=c), z, out=c)
    np.multiply(c, z, out=c)
    hz = np.multiply(z, 0.5, out=phi)
    one_minus_w = np.subtract(np.add(hz, 0.5, out=z), 0.5, out=z)
    np.add(np.subtract(one_minus_w, hz, out=phi), c, out=c)
    np.add(np.subtract(1.0, one_minus_w, out=z), c, out=c)


def _angle_factors(w: np.ndarray, tmp: np.ndarray, phi: np.ndarray, x: np.ndarray,
                   y: np.ndarray) -> None:
    """cos t into ``x`` and sin t into ``y``, for t = 2 pi k 2^-53.

    k is the top 53 bits of the uint64 hashes ``w``.  The angle is reduced
    exactly in integers: the top 3 bits of k pick an octant and the rest is
    the offset f inside it, so t = octant * pi/4 + f * pi 2^-52.  Odd octants
    reflect f to 2^50 - f, ``_sincos`` evaluates cos and sin on phi in
    [0, pi/4], and the octant then swaps the pair and sets the signs, as bit
    operations on the float64 views.  ``w`` and ``tmp`` (uint64) are
    overwritten; ``phi`` is float64 scratch; all five arrays have the same
    shape.
    """
    half = np.int64(1 << 50)
    # g: the low 51 bits of k, the octant's parity bit and f;
    # half - |g - half| is f in even octants and 2^50 - f in odd ones
    g = np.right_shift(np.left_shift(w, _SH2, out=tmp), _SH13, out=tmp).view(np.int64)
    np.subtract(g, half, out=g)
    np.abs(g, out=g)
    np.subtract(half, g, out=g)
    _sincos(np.multiply(g, _PI_2_52, out=phi), tmp.view(np.float64), x, y)
    xb, yb = x.view(np.uint64), y.view(np.uint64)
    # octants 1, 2, 5 and 6 swap cos and sin: bit 1 of (octant + 1)
    swap = np.left_shift(np.add(w, _OCTANT, out=tmp), _SH1, out=tmp)
    np.right_shift(swap.view(np.int64), _SH63, out=swap.view(np.int64))
    np.bitwise_and(swap, np.bitwise_xor(xb, yb, out=phi.view(np.uint64)), out=swap)
    np.bitwise_xor(xb, swap, out=xb)
    np.bitwise_xor(yb, swap, out=yb)
    # sin t < 0 in octants 4 to 7, the top bit of k
    np.bitwise_xor(yb, np.bitwise_and(w, _SIGN, out=tmp), out=yb)
    # cos t < 0 in quadrants 1 and 2: bit 1 of (quadrant + 1)
    np.bitwise_xor(xb, np.bitwise_and(np.add(w, _QUADRANT, out=w), _SIGN, out=w), out=xb)


def _lattice_size(axis_ranges, real: bool) -> int:
    """complex128 entries per seed that ``gaussian_lattice`` draws into."""
    *lead, (lo, hi) = axis_ranges
    last = (hi >> 1) - (lo >> 1) if real else hi - lo
    return int(np.prod([b - a + 1 for a, b in lead])) * (last + 1)


def gaussian_lattice(seeds, axis_ranges, kind: str, std: float, *, out=None,
                     scratch=None) -> np.ndarray:
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
    out : complex128 ndarray, optional
        Receives the draws in its leading rows, of ``_lattice_size`` entries each.
    scratch : 1-d contiguous ndarray, optional
        Holds the block scratch, at most ``_SCRATCH_BYTES``, in place of new arrays.

    Returns
    -------
    ndarray of shape (R, n_1, ..., n_d), or (n_1, ..., n_d) for scalar seed;
    float64 for real draws, complex128 for circular ones.  A real result is
    a view of its pair rows, so it need not be contiguous.
    """
    scalar = np.ndim(seeds) == 0
    # build the uint64 array with an explicit dtype: inferring it from a list
    # that contains values >= 2^63 would silently promote to float64 and
    # truncate the seeds
    seed_list = [check_seed(seeds)] if scalar else [check_seed(s) for s in seeds]
    seed_arr = np.asarray(seed_list, dtype=np.uint64)
    if std < 0:
        raise ValueError("std must be >= 0")
    real = kind == "real-gaussian"
    if real:
        salt, scale = _REAL_SALT, std
    elif kind == "circular-complex-gaussian":
        salt, scale = _FIELD_SALT, std / np.sqrt(2.0)
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
    # a real box is drawn on the pair sites of its last axis: the cosine of
    # the pair at j >> 1 goes to the even site j and the sine to the odd one
    first, last = (lo >> 1, hi >> 1) if real else (lo, hi)
    rows = _hash_rows(seed_arr, salt, [np.arange(a, b + 1, dtype=np.int64) for a, b in lead])
    n = last - first + 1
    shape = rows.shape + (n,)
    out = np.empty(shape, np.complex128) if out is None else out[:len(seed_arr)].reshape(shape)
    rows, grid = rows.reshape(-1), out.reshape(-1, n)
    # a block is a run of whole rows, or a piece of one row longer than the block
    cols = min(n, _BLOCK_SITES)
    step = max(1, _BLOCK_SITES // n)
    size = 6 * step * cols
    blocks = (np.empty(size, np.uint64) if scratch is None
              else scratch.view(np.uint64)[:size]).reshape(6, -1)
    ints, floats = list(blocks[:3]), [b.view(np.float64) for b in blocks[3:]]
    for c0 in range(0, n, cols):
        c1 = min(n, c0 + cols)
        key = _axis_key(len(lead), np.arange(first + c0, first + c1, dtype=np.int64))
        for r0 in range(0, rows.size, step):
            r1 = min(rows.size, r0 + step)
            size = (r1 - r0) * (c1 - c0)
            h, bits, tmp, radius, phi, x = (
                buf[:size].reshape(r1 - r0, c1 - c0) for buf in ints + floats)
            _mix64(np.bitwise_xor(rows[r0:r1, None], key, out=h), out=h, tmp=tmp)
            # Box-Muller radius times scale; u1 = k1 * 2^-53 is exact and
            # 1 - u1 lies in (0, 1], so the log is finite.  k1 < 2^53 is read
            # through its int64 view, which numpy converts faster than uint64
            _mix64(np.bitwise_xor(h, _U1_SALT, out=bits), out=bits, tmp=tmp)
            np.right_shift(bits, _SH11, out=bits)
            np.log1p(np.multiply(bits.view(np.int64), -_INV_2_53, out=radius), out=radius)
            np.multiply(radius, -2.0, out=radius)
            np.sqrt(radius, out=radius)
            np.multiply(radius, scale, out=radius)
            # the angle's hash; h is free after it and holds sin t
            _mix64(np.bitwise_xor(h, _U2_SALT, out=bits), out=bits, tmp=tmp)
            block = grid[r0:r1, c0:c1]
            y = h.view(np.float64)
            _angle_factors(bits, tmp, phi, x, y)
            np.multiply(radius, x, out=block.real)
            np.multiply(radius, y, out=block.imag)
    if real:
        out = out.view(np.float64)[..., lo & 1:(lo & 1) + hi - lo + 1]
    return out[0] if scalar else out
