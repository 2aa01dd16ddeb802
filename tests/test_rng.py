"""The lattice innovation stream: pinned digests, block invariance, bounded scratch."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from specfield import rng
from specfield.fieldgen import CIRCULAR_GAUSSIAN, REAL_GAUSSIAN
from specfield.rng import gaussian_lattice

# sha256 of gaussian_lattice(*args).tobytes(), recorded with the whole-array
# evaluation of the stream; the last two cases span several blocks
PINNED = {
    "real-1d-scalar": ((0, [(-5, 40)], REAL_GAUSSIAN, 1.0),
                       "e89dd6d8680e0a0a63db097a27ee4c5f6de1161fb2911d99c164ef50d031bd64"),
    "circ-2d-batch": (([1, 2, 2**64 - 1], [(-3, 7), (-10, 12)], CIRCULAR_GAUSSIAN, 1.7),
                      "061c7a3f8bc844e5e1c8d069e24d01e8af1e8c31ad88784ed696b6622d8b2b1f"),
    "circ-3d-maxseed": ((2**64 - 1, [(-2, 3), (0, 4), (-7, -1)], CIRCULAR_GAUSSIAN, 0.5),
                        "013ec7448ea13c679c59bbf8f4afa4aca9c4c245618be2c7d71ae0df92811feb"),
    "real-3d-batch": (([5, 6], [(-1, 2), (-3, 3), (4, 9)], REAL_GAUSSIAN, 2.0),
                      "820888d940746c3884c0228be73409291109a8a7f9c0ac9c22ef55cd8eb93d16"),
    "circ-2d-std0": (([3, 4], [(-2, 5), (-1, 9)], CIRCULAR_GAUSSIAN, 0.0),
                     "7e10aedc50aeccc559cbefaf5ee542e4461747362482761452d6aade460dd2d1"),
    "real-1d-std0": ((9, [(-20, 20)], REAL_GAUSSIAN, 0.0),
                     "239e6c544f8c4e07999b55ca44073f3f26e77bca5e06b880897588044fe1ae1d"),
    "circ-1d-long": ((11, [(-40000, 60000)], CIRCULAR_GAUSSIAN, 1.0),
                     "afc1d6e8c404039fb7826009d7cd606a07fa3eecf4f256a653dd2a53da110200"),
    "real-2d-wide": (([12, 13, 14, 15], [(0, 299), (-150, 149)], REAL_GAUSSIAN, 0.75),
                     "91014adcd86d76e7c91f928c2db83586955f4eb567fa2fe9263f282a5bd31dfb"),
}
SMALL = ["real-1d-scalar", "circ-2d-batch", "circ-3d-maxseed", "real-3d-batch",
         "circ-2d-std0", "real-1d-std0"]

# seeds whose draw at coordinate 0 of a 1-d box has u1 = 0 exactly, found by
# inverting the mixer: a zero radius, where the signs of the zero parts
# depend on how z0 + 1j * z1 is evaluated
ZERO_RADIUS_SEEDS = [778968244261077030, 15983577244521280148, 6332314581139372613,
                     11474959887424836914, 2259259785936663301, 8018576334471034043]


def _digest(args) -> str:
    return hashlib.sha256(gaussian_lattice(*args).tobytes()).hexdigest()


def _site_hashes(seeds, ranges):
    h = rng._mix64(np.asarray(seeds, dtype=np.uint64) ^ rng._FIELD_SALT)
    for s, (lo, hi) in enumerate(ranges):
        salt = rng._mix64(np.asarray([s + 1], dtype=np.uint64) ^ rng._AXIS_SALT)
        key = rng._mix64(np.arange(lo, hi + 1, dtype=np.int64).astype(np.uint64) ^ salt)
        h = rng._mix64(h[..., None] ^ key)
    return h


def _reference_lattice(seeds, ranges, kind, std):
    """The stream's defining formula evaluated on whole arrays, without blocks."""
    h = _site_hashes(np.atleast_1d(np.asarray(seeds, dtype=np.uint64)), ranges)
    u1 = (rng._mix64(h ^ rng._U1_SALT) >> rng._SH11).astype(np.float64) * rng._INV_2_53
    u2 = (rng._mix64(h ^ rng._U2_SALT) >> rng._SH11).astype(np.float64) * rng._INV_2_53
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = rng._TWO_PI * u2
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


def test_lattice_scratch_is_bounded():
    """One 1-d circular replication of 2^20 sites (16 MiB of output) is
    hashed in blocks: the traced peak stays within the output plus 4 MiB."""
    tracemalloc.start()
    try:
        out = gaussian_lattice(7, [(1, 1 << 20)], CIRCULAR_GAUSSIAN, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 16 << 20
    assert peak - out.nbytes < 4 << 20


def test_lattice_refuses_bad_arguments():
    with pytest.raises(ValueError, match="unknown innovation kind"):
        gaussian_lattice(1, [(0, 3)], "uniform", 1.0)
    with pytest.raises(ValueError, match="std"):
        gaussian_lattice(1, [(0, 3)], REAL_GAUSSIAN, -1.0)
    with pytest.raises(ValueError, match="empty axis range"):
        gaussian_lattice(1, [(3, 0)], REAL_GAUSSIAN, 1.0)
    with pytest.raises(ValueError, match="at least one axis"):
        gaussian_lattice(1, [], REAL_GAUSSIAN, 1.0)
