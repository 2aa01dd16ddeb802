"""The lattice innovation stream: pinned digests, block invariance, bounded scratch."""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from specfield import rng
from specfield.model import CIRCULAR_GAUSSIAN, REAL_GAUSSIAN
from specfield.rng import gaussian_lattice

# sha256 of gaussian_lattice(*args).tobytes(), recorded on stream 5 with the
# whole-array evaluation of the stream (the two std-0 cases keep their stream 4
# digests: their zeros carry only the signs of cos t and sin t); the last two
# cases span several blocks
PINNED = {
    "real-1d-scalar": ((0, [(-5, 40)], REAL_GAUSSIAN, 1.0),
                       "8acf96a0e7aa0542bcc1274d488669d5bf32f68bc218f488de5971d46045ef06"),
    "circ-2d-batch": (([1, 2, 2**64 - 1], [(-3, 7), (-10, 12)], CIRCULAR_GAUSSIAN, 1.7),
                      "ba1ab16aa833c74942baf0f162ed528e3d2fd7c48bd16db92f1450237103ea12"),
    "circ-3d-maxseed": ((2**64 - 1, [(-2, 3), (0, 4), (-7, -1)], CIRCULAR_GAUSSIAN, 0.5),
                        "14905c3bbd6f976eace0c70a03ba5b818abfefa7d61a447502bfe1d447f75811"),
    "real-3d-batch": (([5, 6], [(-1, 2), (-3, 3), (4, 9)], REAL_GAUSSIAN, 2.0),
                      "e3902824f8aefa03d47e125e1791b316b9666d210cf455964fc2c03d6964c893"),
    "circ-2d-std0": (([3, 4], [(-2, 5), (-1, 9)], CIRCULAR_GAUSSIAN, 0.0),
                     "22ef2ac2390ecb83379e4a8a9a9d7d2b9fe88ac9a1c45e4c9eb2fff6926ae4b8"),
    "real-1d-std0": ((9, [(-20, 20)], REAL_GAUSSIAN, 0.0),
                     "f4efbd9fd058b99b31d66d002bf303426798b3d74eaa772dfcfade7f2b2136ac"),
    "circ-1d-long": ((11, [(-40000, 60000)], CIRCULAR_GAUSSIAN, 1.0),
                     "1e59b128f3a52552723a4e042fe220898d5e0cfdcbacd21bf7ee439df43e0d0e"),
    "real-2d-wide": (([12, 13, 14, 15], [(0, 299), (-150, 149)], REAL_GAUSSIAN, 0.75),
                     "782b87947e98e5dc6ec7bbf381cced567582cb825a77e94b7bad4689ebc22fcb"),
}
SMALL = ["real-1d-scalar", "circ-2d-batch", "circ-3d-maxseed", "real-3d-batch",
         "circ-2d-std0", "real-1d-std0"]

# seeds whose draw at coordinate 0 of a 1-d box has u1 = 0 exactly, found by
# inverting the mixer: a zero radius, where the zero parts take the signs
# of cos t and sin t
ZERO_RADIUS_SEEDS = [778968244261077030, 15983577244521280148, 6332314581139372613,
                     11474959887424836914, 2259259785936663301, 8018576334471034043]


def _digest(args) -> str:
    return hashlib.sha256(gaussian_lattice(*args).tobytes()).hexdigest()


def _site_hashes(seeds, ranges, salt=rng._FIELD_SALT):
    h = rng._mix64(np.asarray(seeds, dtype=np.uint64) ^ salt)
    for s, (lo, hi) in enumerate(ranges):
        salt = rng._mix64(np.asarray([s + 1], dtype=np.uint64) ^ rng._AXIS_SALT)
        key = rng._mix64(np.arange(lo, hi + 1, dtype=np.int64).astype(np.uint64) ^ salt)
        h = rng._mix64(h[..., None] ^ key)
    return h


def _numpy_kernel(phi):
    return np.cos(phi), np.sin(phi)


def _fdlibm_kernel(phi):
    """Stream 3's cos and sin on [0, pi/4], written as fdlibm's formulas."""
    z = phi * phi
    s = z * rng._S[0]
    for coef in rng._S[1:]:
        s = (s + coef) * z
    c = z * rng._C[0]
    for coef in rng._C[1:]:
        c = (c + coef) * z
    w = 1.0 - 0.5 * z
    return w + (((1.0 - w) - 0.5 * z) + c * z), phi + s * phi


def _v2_factors(k, circular, kernel=_numpy_kernel):
    """cos and sin of t = 2 pi k 2^-53 by the stream's exact sector reduction,
    written from the octant (quadrant) table with np.where; sin is None for
    a real draw of streams 2 and 3, whose cos t is numpy's sin on the
    quadrant-reduced angle.  ``kernel`` gives cos and sin on [0, pi/4]:
    numpy's in stream 2, fdlibm's polynomials from stream 3 on
    (``_v3_factors``)."""
    low = 50 if circular else 51
    sector = (k >> np.uint64(low)).astype(np.int64)
    f = (k & np.uint64((1 << low) - 1)).astype(np.int64)
    step = np.pi * 2.0 ** -52
    if not circular:
        # cos t = +-sin(phi), phi = pi/2 - theta in quadrants 0 and 2, theta in 1 and 3
        s = np.sin(np.where(sector % 2 == 0, (1 << low) - f, f) * step)
        return np.where(np.isin(sector, [1, 2]), -s, s), None
    phi = np.where(sector % 2 == 1, (1 << low) - f, f) * step
    c, s = kernel(phi)
    swap = np.isin(sector, [1, 2, 5, 6])
    x, y = np.where(swap, s, c), np.where(swap, c, s)
    return np.where(np.isin(sector, [2, 3, 4, 5]), -x, x), np.where(sector >= 4, -y, y)


def _v3_factors(k, circular):
    return _v2_factors(k, circular, _fdlibm_kernel)


def _radius_and_angle(seeds, ranges, salt=rng._FIELD_SALT):
    """r = sqrt(-2 log1p(-u1)) and the 53-bit angle integer k of every site."""
    h = _site_hashes(np.atleast_1d(np.asarray(seeds, dtype=np.uint64)), ranges, salt)
    u1 = (rng._mix64(h ^ rng._U1_SALT) >> rng._SH11).astype(np.float64) * rng._INV_2_53
    return np.sqrt(-2.0 * np.log1p(-u1)), rng._mix64(h ^ rng._U2_SALT) >> rng._SH11


def _per_site_lattice(seeds, ranges, kind, std, factors):
    """One draw per site from that site's hashes, as streams 1 to 3 drew real
    and circular values, with the stream's ``factors``, on whole arrays."""
    radius, k = _radius_and_angle(seeds, ranges)
    circular = kind == CIRCULAR_GAUSSIAN
    rho = (std / np.sqrt(2.0) if circular else std) * radius
    x, y = factors(k, circular)
    if circular:
        out = np.empty(rho.shape, dtype=np.complex128)
        out.real, out.imag = rho * x, rho * y
    else:
        out = rho * x
    return out[0] if np.ndim(seeds) == 0 else out


def _v5_factors(k):
    """Stream 5's cos and sin of t = 2 pi k 2^-53: the node t_j = 2 pi j / 1024
    nearest t, with stream 4's cos t_j and sin t_j (``_v3_factors``), corrected
    by the offset theta = t - t_j through the Taylor polynomials of rng."""
    k = k.astype(np.int64)
    j = (k + 2**42) >> 43
    theta = (k - (j << 43)) * rng._PI_2_52
    c_j, s_j = _v3_factors(np.arange(1024, dtype=np.uint64) << np.uint64(43), circular=True)
    c, s = c_j[j % 1024], s_j[j % 1024]
    z = theta * theta
    sin = ((z * rng._SIN_T[0] + rng._SIN_T[1]) * z) * theta + theta
    cos_m1 = (z * rng._COS_T[0] + rng._COS_T[1]) * z
    return c + (c * cos_m1 - s * sin), s + (s * cos_m1 + c * sin)


def _pair_lattice(seeds, ranges, kind, std, factors):
    """Streams 4 and 5 on whole arrays, without blocks, with the stream's
    ``factors(k)``: a circular draw per site, and a real draw at last
    coordinate j from the cosine (j even) or sine (j odd) of the pair at
    j >> 1, drawn on the real salt with scale std."""
    if kind == CIRCULAR_GAUSSIAN:
        return _per_site_lattice(seeds, ranges, kind, std, lambda k, _: factors(k))
    *lead, (lo, hi) = ranges
    radius, k = _radius_and_angle(seeds, [*lead, (lo >> 1, hi >> 1)], rng._REAL_SALT)
    x, y = factors(k)
    j = np.arange(lo, hi + 1)
    pair = (j >> 1) - (lo >> 1)
    out = (std * radius)[..., pair] * np.where(j % 2 == 0, x[..., pair], y[..., pair])
    return out[0] if np.ndim(seeds) == 0 else out


def _v4_reference(seeds, ranges, kind, std):
    """Stream 4: stream 3's circular draws, and real draws from pairs."""
    return _pair_lattice(seeds, ranges, kind, std, lambda k: _v3_factors(k, circular=True))


def _reference_lattice(seeds, ranges, kind, std):
    """The stream's defining formula (v5) evaluated on whole arrays."""
    return _pair_lattice(seeds, ranges, kind, std, _v5_factors)


def _v1_reference(seeds, ranges, kind, std):
    """Stream v1: cos and sin of t = 2 pi u2 over the whole circle, scaled last."""
    radius, k = _radius_and_angle(seeds, ranges)
    angle = 2.0 * np.pi * (k.astype(np.float64) * rng._INV_2_53)
    z0 = radius * np.cos(angle)
    if kind == REAL_GAUSSIAN:
        out = std * z0
    else:
        out = (std / np.sqrt(2.0)) * (z0 + 1j * (radius * np.sin(angle)))
    return out[0] if np.ndim(seeds) == 0 else out


@pytest.mark.parametrize("name", sorted(PINNED))
def test_lattice_stream_is_pinned(name):
    args, digest = PINNED[name]
    assert _digest(args) == digest


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("name", SMALL)
def test_lattice_bytes_do_not_depend_on_block_size(monkeypatch, name, block):
    """Blocks of 1 site, and of 7 sites (which divides no row here but one)."""
    monkeypatch.setattr(rng, "_BLOCK_SITES", block)
    args, digest = PINNED[name]
    assert _digest(args) == digest


@pytest.mark.parametrize("block", [1, 7, 64, None])
def test_lattice_matches_whole_array_formula(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(rng, "_BLOCK_SITES", block)
    gen = np.random.default_rng(20240611)
    for _ in range(12):
        d = int(gen.integers(1, 4))
        ranges = []
        for _ in range(d):
            lo = int(gen.integers(-20, 20))
            ranges.append((lo, lo + int(gen.integers(0, 12))))
        seeds = [int(s) for s in gen.integers(0, 2**63, size=int(gen.integers(1, 4)),
                                               dtype=np.uint64)]
        kind = REAL_GAUSSIAN if gen.uniform() < 0.5 else CIRCULAR_GAUSSIAN
        std = float(gen.choice([0.0, 1.0, gen.uniform(0.1, 3.0)]))
        got = gaussian_lattice(seeds, ranges, kind, std)
        assert got.tobytes() == _reference_lattice(seeds, ranges, kind, std).tobytes()


@pytest.mark.parametrize("std", [1.0, 0.0])
def test_zero_radius_draws_keep_their_signed_zeros(std):
    for seed in ZERO_RADIUS_SEEDS:
        u1_bits = rng._mix64(_site_hashes([seed], [(0, 0)]) ^ rng._U1_SALT) >> rng._SH11
        assert int(u1_bits.ravel()[0]) == 0
        for ranges in ([(0, 0)], [(-3, 5)]):
            got = gaussian_lattice(seed, ranges, CIRCULAR_GAUSSIAN, std)
            want = _reference_lattice(seed, ranges, CIRCULAR_GAUSSIAN, std)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [REAL_GAUSSIAN, CIRCULAR_GAUSSIAN])
def test_stream_v2_is_v1_with_better_rounding(kind):
    """Same hashes, radius and angle integer: over 10^5 draws the two streams'
    formulas differ only by the rounding of cos and sin."""
    std = 1.7
    args = ([3, 2**64 - 1], [(-50, 49), (0, 499)], kind, std)
    v2 = _per_site_lattice(*args, _v2_factors)
    assert v2.size == 100_000
    assert np.max(np.abs(v2 - _v1_reference(*args))) <= 1e-14 * std


@pytest.mark.parametrize("kind", [REAL_GAUSSIAN, CIRCULAR_GAUSSIAN])
def test_stream_v3_is_v2_up_to_rounding(kind):
    """Real draws keep their bits; over 10^5 circular draws the polynomial
    kernel moves a draw by at most 1e-14 * std (the streams' formulas)."""
    std = 1.7
    args = ([5, 2**63 + 3], [(-40, 59), (7, 506)], kind, std)
    v3 = _per_site_lattice(*args, _v3_factors)
    v2 = _per_site_lattice(*args, _v2_factors)
    assert v3.size == 100_000
    if kind == REAL_GAUSSIAN:
        assert v3.tobytes() == v2.tobytes()
    else:
        assert 0.0 < np.max(np.abs(v3 - v2)) <= 1e-14 * std


@pytest.mark.parametrize("kind", [REAL_GAUSSIAN, CIRCULAR_GAUSSIAN])
def test_stream_v5_is_v4_up_to_rounding(kind):
    """Same hashes, radius and angle integer: over 10^5 draws the node table
    moves a draw by at most 1e-14 * std, and moves some."""
    std = 1.7
    args = ([7, 2**64 - 5], [(-30, 69), (11, 510)], kind, std)
    v5 = gaussian_lattice(*args)
    assert v5.size == 100_000
    assert 0.0 < np.max(np.abs(v5 - _v4_reference(*args))) <= 1e-14 * std


def test_kernel_coefficients_meet_their_bound():
    """fdlibm's S and C, as the committed doubles, against mpmath on a dense
    grid of [0, pi/4]: the errors stay within the bounds stated in rng."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(128):
        worst_s = worst_c = mpmath.mpf(0)
        quarter = mpmath.pi / 4
        for i in range(1, 4097):
            phi = quarter * i / 4096
            z = phi * phi
            s = c = mpmath.mpf(0)
            for a, b in zip(rng._S, rng._C):
                s, c = s * z + mpmath.mpf(a), c * z + mpmath.mpf(b)
            worst_s = max(worst_s, abs(mpmath.sin(phi) / phi - (1 + z * s)))
            worst_c = max(worst_c, abs(mpmath.cos(phi) - (1 - z / 2 + z * z * c)))
    assert worst_s < 3.5e-18 and worst_c < 1e-18


def _angle(w):
    """cos t and sin t from ``rng._angle_factors`` on a copy of the hashes ``w``."""
    x, y = np.empty(w.size), np.empty(w.size)
    rng._angle_factors(w.copy(), np.empty_like(w), np.empty(w.size), x, y, np.empty(w.size))
    return x, y


def _assert_within_two_ulp(ks):
    """cos t and sin t, t = 2 pi k 2^-53, within 2 ulp of mpmath at each k of
    ``ks``; at the exact zeros they are +-0."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 128
    x, y = _angle(np.asarray(ks, dtype=np.uint64) << np.uint64(11))
    for got, exact in ((x, mpmath.cos), (y, mpmath.sin)):
        for kk, value in zip(ks, got.tolist()):
            want = exact(2 * mpmath.pi * kk / mpmath.mpf(2) ** 53)
            if kk % 2**51 == 0 and abs(want) < 1e-30:
                assert value == 0.0, kk
            else:
                ulp = np.spacing(abs(float(want)))
                assert abs(mpmath.mpf(value) - want) <= 2 * ulp, kk


def test_angle_factors_are_within_two_ulp():
    """The helper's cos t and sin t against mpmath at the sector edges and at
    random k."""
    edges = {0, 2**53 - 1} | {j * 2**50 + e for j in range(1, 8) for e in (-1, 0, 1)}
    _assert_within_two_ulp(sorted(edges) + [int(k) for k in np.random.default_rng(53).integers(
        0, 2**53, size=20_000, dtype=np.uint64)])


def test_angle_factors_are_within_two_ulp_at_cell_edges_and_zeros():
    """Where the nearest node changes, k = (j + 1/2) 2^43, and so |theta| is
    largest, and near the four exact zeros k = q 2^51, at distances up to 2."""
    cells = [j * 2**43 + 2**42 + e for j in range(1024) for e in range(-2, 3)]
    zeros = [(q * 2**51 + e) % 2**53 for q in range(4) for e in range(-2, 3)]
    _assert_within_two_ulp(cells + zeros)


def test_angle_factors_at_the_nodes_are_stream_4s():
    """At theta = 0, k a multiple of 2^43 (the 11 hash bits below k vary),
    cos t and sin t equal stream 4's under ==."""
    k = np.arange(1024, dtype=np.uint64) << np.uint64(43)
    x, y = _angle((k << np.uint64(11)) | np.arange(1024, dtype=np.uint64) * np.uint64(2))
    want_x, want_y = _v3_factors(k, circular=True)
    assert np.all(x == want_x) and np.all(y == want_y)


def test_offset_polynomials_meet_their_bound():
    """sin theta and cos theta - 1 from the committed Taylor doubles, against
    mpmath on a dense grid of [-pi/1024, pi/1024]: the errors stay within the
    bounds stated in rng."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(128):
        worst_s = worst_c = mpmath.mpf(0)
        for i in range(-2048, 2049):
            theta = mpmath.pi / 1024 * i / 2048
            z = theta * theta
            s = c = mpmath.mpf(0)
            for a in rng._SIN_T:
                s = s * z + mpmath.mpf(a)
            for b in rng._COS_T:
                c = c * z + mpmath.mpf(b)
            worst_s = max(worst_s, abs(mpmath.sin(theta) - theta * (1 + z * s)))
            worst_c = max(worst_c, abs(mpmath.cos(theta) - 1 - z * c))
    assert worst_s < 6e-22 and worst_c < 1.2e-18


# numpy's dispatched SIMD targets switched off in a child process: the AVX-512
# ones, then AVX2's (X86_V3) as well, which leaves the baseline loops
NUMPY_SETTINGS = {"no-avx512": "X86_V4 AVX512_ICL AVX512_SPR",
                  "baseline": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


def angle_digest():
    """sha256 of cos t and sin t from ``_angle_factors`` on 2^16 fixed hashes."""
    w = np.random.default_rng(2024).integers(0, 2**64 - 1, size=1 << 16, dtype=np.uint64,
                                            endpoint=True)
    x, y = _angle(w)
    return hashlib.sha256(x.tobytes() + y.tobytes()).hexdigest()


@pytest.mark.parametrize("setting", sorted(NUMPY_SETTINGS))
def test_angle_bytes_do_not_depend_on_numpy_simd(setting):
    """The angle kernel's bytes, recomputed in a child process with numpy's
    SIMD targets switched off, are this process's; skipped by name where a
    target is not dispatched or the CPU lacks it."""
    from numpy._core import _multiarray_umath as umath

    names = NUMPY_SETTINGS[setting].split()
    absent = [n for n in names if not umath.__cpu_features__.get(n)
              or n not in umath.__cpu_dispatch__]
    if absent:
        pytest.skip(f"NPY_DISABLE_CPU_FEATURES={' '.join(names)!r}: {absent} not in use here")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(names),
               PYTHONPATH=os.pathsep.join(sys.path))
    probe = ("import json, test_rng as t; from numpy._core import _multiarray_umath as u; "
             "print(json.dumps([t.angle_digest(), [n for n in u.__cpu_dispatch__ "
             "if u.__cpu_features__[n]]]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    digest, enabled = json.loads(proc.stdout)
    assert not set(names) & set(enabled)
    assert digest == angle_digest()


def test_stream_version_is_pinned_and_reported():
    from specfield.frequencies import FrequencyScheme
    from specfield.model import first_axis_ma1
    from specfield.stats import miller_check, negligibility_report, run_clt_experiment

    assert rng.RNG_STREAM == 5
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 0.5)
    dims = [(16,)]
    scheme = FrequencyScheme.separated((1.5,), 1, 0.2, 0, dims)
    clt = json.loads(run_clt_experiment(spec, scheme, dims[0], 8, 1).to_json())
    miller = json.loads(miller_check(spec, scheme, [1.0, 0.0], dims, 8, 1).to_json())
    neglig = dataclasses.asdict(negligibility_report(spec, scheme, dims, 0.2,
                                                     [1.0, 0.0], 8, 1))
    assert clt["rng_stream"] == miller["rng_stream"] == neglig["rng_stream"] == 5


def test_lattice_scratch_is_bounded():
    """One 1-d replication of 2^20 sites, circular (16 MiB of output) or real
    (8 MiB, on 2^19 + 1 pair sites), is hashed in blocks: the traced peak
    stays within the output plus 4 MiB."""
    for kind, nbytes in ((CIRCULAR_GAUSSIAN, 16 << 20), (REAL_GAUSSIAN, 8 << 20)):
        tracemalloc.start()
        try:
            out = gaussian_lattice(7, [(1, 1 << 20)], kind, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == nbytes
        assert peak - out.nbytes < 4 << 20


@pytest.mark.parametrize("block", [1, 7, None])
def test_real_boxes_are_slices_of_one_wider_box(monkeypatch, block):
    """Real boxes in d = 1, 2 and 3 whose last axis starts and ends on even
    or odd coordinates, negative ones included, hold bit for bit their
    sites of one wider box."""
    if block is not None:
        monkeypatch.setattr(rng, "_BLOCK_SITES", block)
    seeds = [8, 2**64 - 1]
    for lead in ([], [(-1, 1)], [(-2, 0), (1, 2)]):
        wide = gaussian_lattice(seeds, [(-4, 3)] * len(lead) + [(-9, 8)], REAL_GAUSSIAN, 1.3)
        for lo, hi in [(-8, 6), (-8, 5), (-7, 6), (-7, 5), (-6, -6), (-5, -5), (3, 8), (-9, 8)]:
            got = gaussian_lattice(seeds, lead + [(lo, hi)], REAL_GAUSSIAN, 1.3)
            window = tuple(slice(a + 4, b + 5) for a, b in lead) + (slice(lo + 9, hi + 10),)
            assert got.tobytes() == wide[(slice(None),) + window].tobytes(), (lead, lo, hi)


def test_real_pairs_are_independent_normals_on_their_own_salt(monkeypatch):
    """4 * 10^5 real draws at std 1.7: the two halves of each pair are
    uncorrelated, each half has variance std^2, and the draws are
    uncorrelated with the circular lattice's parts on the same pair sites.
    Sharing the circular salt would make them equal up to scale."""
    std, (lo, hi) = 1.7, (-200_000, 199_999)

    def circular_parts():
        circ = gaussian_lattice(31, [(lo >> 1, hi >> 1)], CIRCULAR_GAUSSIAN, std)
        return np.sqrt(2.0) * circ.view(np.float64)

    x = gaussian_lattice(31, [(lo, hi)], REAL_GAUSSIAN, std)
    even, odd = x[0::2], x[1::2]
    pairs = even.size
    assert pairs == 200_000
    assert abs(np.corrcoef(even, odd)[0, 1]) < 5 / np.sqrt(pairs)
    for half in (even, odd):
        assert abs(np.mean(half ** 2) - std ** 2) < 5 * std ** 2 * np.sqrt(2 / pairs)
    assert abs(np.corrcoef(x, circular_parts())[0, 1]) < 5 / np.sqrt(x.size)
    monkeypatch.setattr(rng, "_REAL_SALT", rng._FIELD_SALT)
    shared = gaussian_lattice(31, [(lo, hi)], REAL_GAUSSIAN, std)
    assert np.corrcoef(shared, circular_parts())[0, 1] > 0.999


def test_lattice_refuses_bad_arguments():
    with pytest.raises(ValueError, match="unknown innovation kind"):
        gaussian_lattice(1, [(0, 3)], "uniform", 1.0)
    with pytest.raises(ValueError, match="std"):
        gaussian_lattice(1, [(0, 3)], REAL_GAUSSIAN, -1.0)
    with pytest.raises(ValueError, match="empty axis range"):
        gaussian_lattice(1, [(3, 0)], REAL_GAUSSIAN, 1.0)
    with pytest.raises(ValueError, match="at least one axis"):
        gaussian_lattice(1, [], REAL_GAUSSIAN, 1.0)
