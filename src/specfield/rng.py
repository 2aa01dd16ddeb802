"""Counter-based deterministic Gaussian noise on the integer lattice.

Every innovation is a pure function of ``(seed, absolute lattice index)``:
the same index always yields the same draw no matter which box it is
generated inside, which is what makes overlapping or shifted boxes agree
sample-path-wise.  Stock generators hand out a stream, not a function of
the index, so we hash instead: a splitmix64-style avalanche over the seed
and the coordinates (Steele, Lea & Flood, OOPSLA'14; used counter-style as
in Salmon et al., SC'11), then Box-Muller (Box & Muller, 1958).

Stream 5 (``RNG_STREAM``) is defined as follows.  Two salted hashes of a
site give 53-bit integers k1 and k, the radius r = sqrt(-2 log1p(-u1)) with
u1 = k1 2^-53 and the angle t = 2 pi k 2^-53.  With rho = scale * r, a
circular draw is ``rho * cos t + 1j * rho * sin t``, each part written on
its own (scale = std / sqrt 2).  A real draw at last coordinate j is
``rho * cos t`` (j even) or ``rho * sin t`` (j odd) of the site whose last
coordinate is j >> 1 (floor), with scale = std and a field salt of its own.
cos t and sin t come from ``_angle_factors``, which splits k exactly in
integers into the nearest of 1,024 nodes t_j = 2 pi j / 1024 and an offset
|theta| <= pi/1024, and corrects the node's cos and sin, C_j and S_j, with
Taylor polynomials for sin theta and cos theta - 1:

    cos t = C_j + (C_j (cos theta - 1) - S_j sin theta),
    sin t = S_j + (S_j (cos theta - 1) + C_j sin theta).

The nodes are built on the first draw by stream 4's kernel: an exact octant
reduction to phi in [0, pi/4] and fdlibm's ``__kernel_sin`` and
``__kernel_cos`` (``_S`` and ``_C``).  So a draw at offset 0 has stream 4's
bits, every cos t and sin t is within 2 ulp, and the kernel, being integer
operations, ``np.take`` and real multiplies and adds, has the same bytes at
any numpy SIMD level.  Each stream differs from the one before only in
rounding, within about 1e-14 * std, except that stream 4 drew real values
from pairs on a salt of their own; streams 1 to 3 drew one real value per
site, and stream 3 drew the circular bits of stream 4.

``gaussian_lattice`` hashes the seed and every axis but the last up front, then
walks the box (``_walk``, the one loop over blocks) in blocks of at most
``_BLOCK_SITES`` sites: whole rows of the last axis, or, for a row longer than
a block, ceil(n / ``_BLOCK_SITES``) pieces of balanced width.  Each block is
hashed and transformed in place, in seven block-sized scratch arrays (carved
from the caller's ``scratch``, or allocated per call without one), and written
straight into the output.  A real box is drawn as the complex box of its pair
sites and returned as a slice of that box's float64 view, whose rows carry at
most two float64 of padding.  Beyond the output, memory is therefore a few
uint64 per row plus a fixed budget, even for a single replication of millions
of sites.  Every step is elementwise and exactly rounded the same way at any
block size, so blocking moves no bit of the stream; the tests pin sha256
digests of it.

``pruned_lattice`` runs the same formulas in three stages, for the pruned
draw of ``fieldgen._tail_pruning``.  The same walk hashes every site, and one
contiguous integer compare of each block's k1 against its cuts of
``_hot_cuts`` marks the hot sites in a byte mask; nothing else is kept.  The
caller widens the mask to the needed sites.  Last, the hashes of each needed
site are derived again from its flat index i, a pure function of it as in a
counter-based stream: its row hash is ``rows[i // n]`` and its last-axis key
that of coordinate ``first + i % n``; the radius and angle then run on the
needed sites alone.  A needed site's draw has the bits of
``gaussian_lattice``; the other sites are 0.

All integer work is done on uint64 ndarrays and their int64 views (numpy
wraps silently for arrays; scalars would warn on overflow).
"""

from __future__ import annotations

import functools

import numpy as np

from .domain import as_int

# version of the innovation stream, recorded in the clt, miller and
# negligibility reports; it changes whenever a draw changes in any bit
RNG_STREAM = 5

# splitmix64 constants (Steele, Lea & Flood's mixer; also used by xorshift-family seeders)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MULT_B = np.uint64(0xBF58476D1CE4E5B9)
_MULT_C = np.uint64(0x94D049BB133111EB)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_SH10 = np.uint64(10)
_SH21 = np.int64(21)
_SH54 = np.uint64(54)

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
# adding this to a hash rounds its top 10 bits to the nearest angle node j
_HALF_NODE = np.uint64(1 << 53)
# Taylor coefficients of sin(theta)/theta - 1 and (cos(theta) - 1)/z in z = theta^2, highest
# power first; for |theta| <= pi/1024 the omitted terms are below 6e-22 and 1.2e-18
_SIN_T = (1 / 120, -1 / 6)
_COS_T = (1 / 24, -0.5)

# fdlibm's minimax coefficients (k_sin.c and k_cos.c, Sun Microsystems 1993),
# highest power first.  On 0 <= phi <= pi/4, with z = phi^2, these doubles give
#   |sin(phi)/phi - (1 + z S(z))| < 3.5e-18   and   |cos(phi) - (1 - z/2 + z^2 C(z))| < 1e-18
# (fdlibm states 2^-58 = 3.47e-18 for both; the tests hold them to these bounds)
_S = (1.58969099521155010221e-10, -2.50507602534068634195e-08, 2.75573137070700676789e-06,
      -1.98412698298579493134e-04, 8.33333333332248946124e-03, -1.66666666666666324348e-01)
_C = (-1.13596475577881948265e-11, 2.08757232129817482790e-09, -2.75573143513906633035e-07,
      2.48015872894767294178e-05, -1.38888888888741095749e-03, 4.16666666666666019037e-02)

# sites hashed and transformed per block (pair sites for a real box, two
# draws each); the scratch is seven arrays this long.
# 2^14 to 2^16 run alike in perfbench's mc_clt2d and mc_neglig1d traces;
# 2^12 pays for per-call overhead and 2^17 falls out of the core's L2.
_BLOCK_SITES = 1 << 15
# the most bytes of block scratch one call uses
_SCRATCH_BYTES = 7 * 8 * _BLOCK_SITES


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
    s = as_int(seed, "seed")
    if not (0 <= s < 2 ** 64):
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    return s


def _replication_hash(master_seed, index: np.ndarray) -> np.ndarray:
    """Per-replication seeds for an int64 index array: a pure hash of (master seed, index)."""
    s = np.uint64(check_seed(master_seed))
    return _mix64(s ^ _mix64(index.astype(np.uint64) ^ _REP_SALT))


def _axis_key(axis: int, coords: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """Hash of each coordinate along one axis, salted by the axis position,
    written over the int64 ``coords``; ``tmp`` is the mixer's scratch."""
    salt = _mix64(np.asarray([axis + 1], dtype=np.uint64) ^ _AXIS_SALT)
    key = np.bitwise_xor(coords.view(np.uint64), salt, out=coords.view(np.uint64))
    return _mix64(key, out=key, tmp=tmp)


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


@functools.cache
def _angle_nodes() -> np.ndarray:
    """The rows cos t_j and sin t_j at the 1,024 nodes t_j = 2 pi j / 1024, as
    stream 4 drew them: the octant of j and its offset f in steps of pi/512
    give phi = f or 128 - f (odd octants) steps in [0, pi/4], fdlibm's kernels
    give cos phi and sin phi, and the octant swaps them and sets the signs."""
    octant, f = np.divmod(np.arange(1024), 128)
    phi = (np.where(octant % 2, 128 - f, f) << 43) * _PI_2_52
    z = phi * phi
    s, c = z * _S[0], z * _C[0]
    for a, b in zip(_S[1:], _C[1:]):
        s, c = (s + a) * z, (c + b) * z
    w = 1.0 - 0.5 * z
    c, s = w + (((1.0 - w) - 0.5 * z) + c * z), phi + s * phi
    swap = np.isin(octant, (1, 2, 5, 6))
    c, s = np.where(swap, s, c), np.where(swap, c, s)
    nodes = np.array([np.where(np.isin(octant, (2, 3, 4, 5)), -c, c),
                      np.where(octant >= 4, -s, s)])
    nodes.flags.writeable = False  # every draw reads the one table
    return nodes


def _angle_factors(w: np.ndarray, tmp: np.ndarray, phi: np.ndarray, x: np.ndarray,
                   y: np.ndarray, t: np.ndarray) -> None:
    """cos t into ``x`` and sin t into ``y``, for t = 2 pi k 2^-53.

    k is the top 53 bits of the uint64 hashes ``w``.  The nearest node
    t_j = 2 pi j / 1024 is j = (w + 2^53) >> 54 (mod 1024), and the offset
    theta = t - t_j is the signed low 43 bits of k times pi 2^-52, exact in
    integers, so |theta| <= pi/1024.  With sin theta and cos theta - 1 from
    short Taylor polynomials, cos t = C_j + (C_j (cos theta - 1) - S_j sin theta)
    and sin t = S_j + (S_j (cos theta - 1) + C_j sin theta).  ``w`` and
    ``tmp`` (uint64) are overwritten; ``phi`` and ``t`` are float64 scratch;
    all six arrays have the same shape.
    """
    cos_j, sin_j = _angle_nodes()
    j = np.right_shift(np.add(w, _HALF_NODE, out=tmp), _SH54, out=tmp).view(np.int64)
    np.take(cos_j, j, out=x, mode="clip")
    np.take(sin_j, j, out=y, mode="clip")
    f = np.left_shift(w, _SH10, out=w).view(np.int64)
    theta = np.multiply(np.right_shift(f, _SH21, out=f), _PI_2_52, out=phi)
    z = np.multiply(theta, theta, out=tmp.view(np.float64))
    sin = np.multiply(z, _SIN_T[0], out=w.view(np.float64))
    np.multiply(np.add(sin, _SIN_T[1], out=sin), z, out=sin)
    np.add(np.multiply(sin, theta, out=sin), theta, out=sin)
    cos = np.multiply(z, _COS_T[0], out=phi)
    for coef in _COS_T[1:]:
        np.multiply(np.add(cos, coef, out=cos), z, out=cos)
    # cos t and sin t in correction form: C_j and S_j plus a term below pi/1024
    np.subtract(np.multiply(x, cos, out=z), np.multiply(y, sin, out=t), out=z)
    np.add(np.multiply(y, cos, out=cos), np.multiply(x, sin, out=sin), out=cos)
    np.add(x, z, out=x)
    np.add(y, cos, out=y)


def _lattice_size(axis_ranges, real: bool) -> int:
    """complex128 entries per seed that ``gaussian_lattice`` draws into."""
    *lead, (lo, hi) = axis_ranges
    last = (hi >> 1) - (lo >> 1) if real else hi - lo
    return int(np.prod([b - a + 1 for a, b in lead])) * (last + 1)


def _pieces(n: int) -> list[tuple[int, int]]:
    """(start, stop) of the ceil(n / ``_BLOCK_SITES``) pieces of balanced width
    that cut n >= 1 sites, so that no piece is a sliver."""
    width = -(-n // -(-n // _BLOCK_SITES))
    return [(c0, min(n, c0 + width)) for c0 in range(0, n, width)]


def _block_arrays(scratch, sites: int) -> list[np.ndarray]:
    """Seven arrays of ``sites`` entries, three uint64 and four float64, carved
    in turn from the start of the uint8 ``scratch`` (new without it)."""
    nbytes = 7 * 8 * sites
    blocks = (np.empty(nbytes, np.uint8) if scratch is None else scratch[:nbytes]
              ).view(np.uint64).reshape(7, sites)
    return list(blocks[:3]) + [b.view(np.float64) for b in blocks[3:]]


def _scale(kind: str, std: float) -> float:
    """The scale of a draw of ``kind``: std for a real draw, and std / sqrt 2 for
    each part of a circular one, so that E|eps|^2 = std^2 either way."""
    if kind == "real-gaussian":
        return std
    if kind == "circular-complex-gaussian":
        return std / np.sqrt(2.0)
    raise ValueError(f"unknown innovation kind {kind!r}")


def _radius_below(levels, kind: str, std: float) -> np.ndarray:
    """P(scale * r < level) = 1 - exp(-level^2 / (2 scale^2)) for the Box-Muller
    radius r of a draw of ``kind``, at each of the float64 ``levels`` (1 where
    the scale is 0)."""
    scale = _scale(kind, std)
    with np.errstate(over="ignore"):
        ratio = np.divide(levels, scale) if scale else np.full_like(levels, np.inf)
        return -np.expm1(-0.5 * np.square(ratio))


def _draw_span(lo: int, hi: int, real: bool) -> slice:
    """The draws lo..hi of a lattice row; a real one, as float64, has lo & 1 before them."""
    start = lo & 1 if real else 0
    return slice(start, start + hi - lo + 1)


def _layout(seeds, axis_ranges, kind: str, std: float, out):
    """The checked arguments of a lattice draw: whether ``seeds`` is a scalar and
    the lattice real, the scale, the hashes of every seed and lead axis row, in
    one flat array, the first site of the last axis, the last axis's (lo, hi),
    and the (seeds, lead axes..., sites) output (new without ``out``)."""
    scalar = np.ndim(seeds) == 0
    # build the uint64 array with an explicit dtype: inferring it from a list
    # that contains values >= 2^63 would silently promote to float64 and
    # truncate the seeds
    seed_list = [check_seed(seeds)] if scalar else [check_seed(s) for s in seeds]
    seed_arr = np.asarray(seed_list, dtype=np.uint64)
    if std < 0:
        raise ValueError("std must be >= 0")
    scale = _scale(kind, std)
    real = kind == "real-gaussian"
    salt = _REAL_SALT if real else _FIELD_SALT
    bounds = []
    for lo, hi in axis_ranges:
        lo, hi = as_int(lo, "axis range bound"), as_int(hi, "axis range bound")
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
    shape = rows.shape + (last - first + 1,)
    out = np.empty(shape, np.complex128) if out is None else out[:len(seed_arr)].reshape(shape)
    return scalar, real, scale, rows.reshape(-1), first, (lo, hi), out


def _values(out, scalar: bool, real: bool, lo: int, hi: int) -> np.ndarray:
    """The draws of a lattice output: a real one's sites lo..hi of its pair rows."""
    out = (out.view(np.float64) if real else out)[..., _draw_span(lo, hi, real)]
    return out[0] if scalar else out


def _site_hashes(rows, key, h, bits, tmp) -> None:
    """The hash of each site, from its row's hash and its last-axis key, which
    broadcast to the shape of ``h``, into ``h``, and k1, the top 53 bits of its
    radius hash, into ``bits``."""
    _mix64(np.bitwise_xor(rows, key, out=h), out=h, tmp=tmp)
    _mix64(np.bitwise_xor(h, _U1_SALT, out=bits), out=bits, tmp=tmp)
    np.right_shift(bits, _SH11, out=bits)


def _radius(bits, scale: float, out) -> np.ndarray:
    """The Box-Muller radius times scale of each k1 in ``bits``, into ``out``.
    u1 = k1 * 2^-53 is exact and 1 - u1 lies in (0, 1], so the log is finite;
    k1 < 2^53 is read through its int64 view, which numpy converts faster than
    uint64.  The radius grows with k1, up to rounding."""
    np.log1p(np.multiply(bits.view(np.int64), -_INV_2_53, out=out), out=out)
    np.multiply(out, -2.0, out=out)
    np.sqrt(out, out=out)
    return np.multiply(out, scale, out=out)


def _draw(h, bits, tmp, radius, phi, x, t, scale: float, re, im) -> None:
    """The draws of site hashes ``h`` with radius hashes k1 in ``bits``: radius
    times cos t into ``re`` and times sin t into ``im``.  The other five arrays
    are scratch; ``h`` and ``bits`` are overwritten, and ``re`` and ``im`` may
    be ``x`` and ``t``."""
    _radius(bits, scale, radius)
    # the angle's hash; h is free after it and holds sin t
    _mix64(np.bitwise_xor(h, _U2_SALT, out=bits), out=bits, tmp=tmp)
    y = h.view(np.float64)
    _angle_factors(bits, tmp, phi, x, y, t)
    np.multiply(radius, x, out=re)
    np.multiply(radius, y, out=im)


def _walk(rows, n: int, first: int, axis: int, scratch):
    """The one walk over a lattice of ``rows.size`` rows of n sites, the last
    axis (``axis``) starting at ``first``, in blocks of at most ``_BLOCK_SITES``
    sites: the ``_pieces`` of a row, and spans of whole rows.  Yields each
    block's index into the (rows, n) grid and its seven ``_block_arrays``,
    shaped like the block: the site hashes, k1 (``_site_hashes``) and five free."""
    cols = _pieces(n)
    step = max(1, _BLOCK_SITES // cols[0][1])
    spans = [(r0, min(rows.size, r0 + step)) for r0 in range(0, rows.size, step)]
    arrays = _block_arrays(scratch, cols[0][1] * (spans[0][1] - spans[0][0]))
    for c0, c1 in cols:
        key = _axis_key(axis, np.arange(first + c0, first + c1, dtype=np.int64),
                        arrays[2][:c1 - c0])
        for r0, r1 in spans:
            block = [a[:(r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0) for a in arrays]
            _site_hashes(rows[r0:r1, None], key, *block[:3])
            yield np.s_[r0:r1, c0:c1], block


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
    scratch : 1-d contiguous uint8 ndarray, optional
        Holds the block scratch, at most ``_SCRATCH_BYTES``, in place of new arrays.

    Returns
    -------
    ndarray of shape (R, n_1, ..., n_d), or (n_1, ..., n_d) for scalar seed;
    float64 for real draws, complex128 for circular ones.  A real result is
    a view of its pair rows, so it need not be contiguous.
    """
    scalar, real, scale, rows, first, (lo, hi), out = _layout(seeds, axis_ranges, kind, std, out)
    grid = out.reshape(rows.size, -1)
    for index, arrays in _walk(rows, grid.shape[1], first, out.ndim - 2, scratch):
        _draw(*arrays, scale, grid[index].real, grid[index].imag)
    return _values(out, scalar, real, lo, hi)


# the relative slack of a hot cut below its level: far above the rounding of
# cos t and sin t (2 ulp), of a draw's product, and of a filter's sums and |x|
# over fewer than a million taps
_CUT_MARGIN = 1e-9


def _hot_cuts(levels, axis_ranges, kind: str, std: float) -> np.ndarray:
    """The integer cuts K of ``pruned_lattice``: a site whose k1 < K draws a
    radius times scale below its level, less ``_CUT_MARGIN``.

    ``levels`` holds one level per innovation of one seed's box (inf where none
    binds); a real lattice's pair site takes the lower of its two.  K starts at
    ceil(2^53 ``_radius_below(level)``), the inverse of the radius, and steps
    until ``_radius`` itself puts k1 = K - 1 below the level and k1 = K at or
    above it (K = 2^53 where no k1 reaches it).  Returns uint64 cuts shaped
    (lead axis rows, pair or complex sites).
    """
    real, scale = kind == "real-gaussian", _scale(kind, std)
    *_, (lo, hi) = axis_ranges
    levels = np.asarray(levels, np.float64).reshape(-1, hi - lo + 1)
    level = np.full((len(levels), 2 * _lattice_size([(lo, hi)], True) if real else hi - lo + 1),
                    np.inf)
    level[:, _draw_span(lo, hi, real)] = levels
    if real:
        level = np.minimum(level[:, 0::2], level[:, 1::2])
    level *= 1.0 - _CUT_MARGIN
    work = _radius_below(level, kind, std)
    cut = np.ceil(np.multiply(work, 2.0 ** 53, out=work), out=work).astype(np.int64)
    k1 = np.empty_like(cut)
    while True:
        np.maximum(np.subtract(cut, 1, out=k1), 0, out=k1)
        down = (_radius(k1.view(np.uint64), scale, work) >= level) & (cut > 0)
        np.minimum(cut, 2 ** 53 - 1, out=k1)
        up = (_radius(k1.view(np.uint64), scale, work) < level) & (cut < 2 ** 53) & ~down
        if not (down.any() or up.any()):
            return cut.view(np.uint64)
        cut += up
        cut -= down


def pruned_lattice(seeds, axis_ranges, kind: str, std: float, cuts, widen, *, out=None,
                   scratch) -> np.ndarray:
    """``gaussian_lattice``'s draws at the sites a caller needs, and 0 elsewhere.

    Three stages, on the same formulas.  First ``gaussian_lattice``'s walk
    hashes every site, block by block, and marks it hot, a byte in a mask,
    where its k1 >= its entry of ``cuts`` (``_hot_cuts``, one per site of a
    seed); nothing is stored in ``out``.  Then ``widen(mask, free)`` turns the
    hot mask in place into the mask of needed sites; ``mask`` is a bool view
    shaped like the draws, and ``free`` is uint8 scratch.  Last, the needed
    sites are hashed again from their flat indices, in pieces of at most
    ``_BLOCK_SITES``, and drawn; the others are zeroed.  A real lattice marks
    and draws whole pair sites.  ``scratch`` holds the block arrays
    (``_SCRATCH_BYTES``), then the mask (a byte a site of each seed, two a
    real pair site), then ``free``, a byte a site.  Returns what
    ``gaussian_lattice`` returns.
    """
    scalar, real, scale, rows, first, (lo, hi), out = _layout(seeds, axis_ranges, kind, std, out)
    grid = out.reshape(rows.size, -1)
    n, axis = grid.shape[1], out.ndim - 2
    # hot sites, a byte each, or both bytes of a real pair site: both its draws are hot
    size = grid.size * (2 if real else 1)
    mask = scratch[_SCRATCH_BYTES:_SCRATCH_BYTES + size].view(np.uint16 if real else np.bool_)
    # the grid's rows run over the seeds, and within a seed over the cuts' rows
    lead = np.arange(rows.size) % len(cuts)
    for index, (h, bits, *_) in _walk(rows, n, first, axis, scratch):
        cut = cuts[:, index[1]] if len(cuts) == 1 else cuts[lead[index[0]], index[1]]
        np.greater_equal(bits, cut, out=mask.reshape(grid.shape)[index])
    if real:
        np.multiply(mask, 257, out=mask)
    # a real row's bytes outside its draws keep the mark of their pair site,
    # which is needed anyway when hot: a hot draw feeds a site that reads it
    free = scratch[_SCRATCH_BYTES + size:]
    widen(mask.view(np.bool_).reshape(out.shape[:-1] + (-1,))[..., _draw_span(lo, hi, real)],
          free)
    # numpy finds a bool array's nonzero entries three times as fast as a uint16 one's
    needed = np.flatnonzero(np.not_equal(mask, 0, out=free[:grid.size].view(np.bool_)))
    flat, arrays = grid.reshape(-1), _block_arrays(scratch, _BLOCK_SITES)
    done = 0  # the slots before this are drawn or zeroed
    for p0, p1 in _pieces(needed.size) if needed.size else ():
        part = needed[p0:p1]
        h, bits, tmp, radius, phi, x, t = (a[:p1 - p0] for a in arrays)
        # site i's row hash is rows[i // n], and its last coordinate first + i % n;
        # numpy divides by a scalar several times as fast as it takes divmod or %
        row = np.floor_divide(part, n, out=t.view(np.int64))
        col = np.subtract(part, np.multiply(row, n, out=x.view(np.int64)), out=x.view(np.int64))
        row_hashes = np.take(rows, row, out=radius.view(np.uint64), mode="clip")
        _site_hashes(row_hashes, _axis_key(axis, np.add(col, first, out=col), tmp), h, bits, tmp)
        flat[done:part[-1] + 1] = 0
        _draw(h, bits, tmp, radius, phi, x, t, scale, x, t)
        flat.real[part] = x
        flat.imag[part] = t
        done = part[-1] + 1
    flat[done:] = 0
    return _values(out, scalar, real, lo, hi)
