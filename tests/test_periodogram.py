import importlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from specfield import _util, stats
from specfield.domain import BoxDims, Frequency
from specfield.fieldgen import generate, generate_batch, replication_seeds
from specfield.frequencies import FrequencyScheme, build_separated
from specfield.model import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN, FieldSample, first_axis_ma1,
                             white_noise)
from specfield.periodogram import (batched_modulated_sums, modulated_sum,
                                   periodogram, periodogram_vector, phase_grid)
from specfield.stats import negligibility_report

from oracles import fejer_product

# two evaluation orders of the same O(V) sum
SUM_TOL = 1e-10


def make_sample(values, shift=None):
    """Wrap a raw array as a FieldSample anchored at the given shift."""
    values = np.asarray(values, dtype=np.complex128)
    shift = tuple(shift) if shift is not None else (0,) * values.ndim
    return FieldSample(dims=BoxDims(values.shape), shift=shift, values=values,
                       seed=0)


def wave_sample(mu, dims, shift=None):
    """Deterministic plane wave X_k = exp(i k.mu) over the (shifted) box."""
    shift = tuple(shift) if shift is not None else (0,) * len(dims)
    grids = np.meshgrid(*[np.arange(w + 1, w + v + 1) for w, v in zip(shift, dims)],
                        indexing="ij")
    phase = sum(m * g for m, g in zip(mu, grids))
    return make_sample(np.exp(1j * phase), shift)


def test_zero_frequency_is_plain_sum():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(5, 6)) + 1j * rng.normal(size=(5, 6))
    sample = make_sample(vals)
    assert modulated_sum(sample, (0.0, 0.0)) == pytest.approx(vals.sum(),
                                                              abs=SUM_TOL)


def test_zero_field():
    sample = make_sample(np.zeros((4, 4)))
    assert modulated_sum(sample, (1.0, 2.0)) == 0
    assert periodogram(sample, (1.0, 2.0)) == 0


def test_plane_wave_matches_kernel_product():
    """|S|^2 of the wave exp(i k.mu) equals V * prod K(mu_s - lam_s, v_s):
    the geometric sum evaluated through the kernels module."""
    dims = (4, 3)
    mu = (1.0, 0.5)
    lam = (0.2, -0.7)
    sample = wave_sample(mu, dims)
    s = modulated_sum(sample, lam)
    v = 12
    expected = v * fejer_product((mu[0] - lam[0], mu[1] - lam[1]), dims)
    assert abs(s) ** 2 == pytest.approx(expected, rel=1e-12)
    assert periodogram(sample, lam) == pytest.approx(expected / v, rel=1e-12)


def test_single_spike():
    vals = np.zeros((3, 5))
    vals[0, 0] = 1.0  # the spike sits at absolute index (1, 1)
    sample = make_sample(vals)
    assert periodogram(sample, (0.9, -2.1)) == pytest.approx(1.0 / 15, rel=1e-12)


def test_probe_at_own_frequency():
    dims = (6, 4)
    lam = (1.1, -0.3)
    sample = wave_sample(lam, dims)
    assert periodogram(sample, lam) == pytest.approx(24.0, rel=1e-12)


def test_iid_mean_periodogram():
    # E I = sigma^2 exactly for iid fields; 3-standard-error gate at R = 2000
    spec = white_noise(2, CIRCULAR_GAUSSIAN, 1.0)
    seeds = replication_seeds(424242, 2000)
    vals = generate_batch(spec, (32, 32), None, seeds)
    coords = [np.arange(1, 33, dtype=np.int64)] * 2
    sums = batched_modulated_sums(vals, [phase_grid(coords, Frequency((0.7, -1.9)))])
    periods = (np.abs(sums[:, 0]) ** 2) / 1024.0
    se = periods.std(ddof=1) / math.sqrt(len(periods))
    assert abs(periods.mean() - 1.0) < 3 * se


def test_vector_matches_scalars_bitwise():
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 1.0)
    sample = generate(spec, (16, 16), seed=5)
    # fan upward from -pi/2 so the delta = 0.25 gaps stay inside (-pi, pi]
    freqs = build_separated((-math.pi / 2, -math.pi / 2), 3, 0.25, 1,
                            BoxDims((16, 16)))
    entries = periodogram_vector(sample, freqs)
    assert len(entries) == 3
    for freq, (s, i) in zip(freqs, entries):
        assert s == modulated_sum(sample, freq)
        assert i == periodogram(sample, freq)


def test_vector_empty_and_duplicate():
    sample = make_sample(np.ones((3, 3)))
    assert periodogram_vector(sample, []) == []
    f = Frequency((0.4, 0.4))
    a, b = periodogram_vector(sample, [f, f])
    assert a == b


def test_batched_sums_match_scalar_path():
    spec = first_axis_ma1(1, CIRCULAR_GAUSSIAN, 1.0, 0.3)
    seeds = replication_seeds(8, 7)
    vals = generate_batch(spec, (20,), None, seeds)
    coords = [np.arange(1, 21, dtype=np.int64)]
    freqs = [Frequency((0.5,)), Frequency((2.5,))]
    table = batched_modulated_sums(vals, [phase_grid(coords, f) for f in freqs])
    assert table.shape == (7, 2)
    for i, s in enumerate(seeds):
        sample = generate(spec, (20,), seed=int(s))
        for j, freq in enumerate(freqs):
            assert table[i, j] == modulated_sum(sample, freq)


def test_real_rows_are_summed_in_real_arithmetic():
    """A float64 batch: each row, on an odd volume over 10^4 (rows start at
    every 8-byte alignment), equals the row summed alone bit for bit, and
    the complex-cast sum within rounding."""
    v = 10_007
    vals = np.random.default_rng(5).standard_normal((4, v))
    phases = [phase_grid([np.arange(1, v + 1)], (lam,)) for lam in (0.5, 2.5)]
    table = batched_modulated_sums(vals, phases)
    for r, row in enumerate(vals):
        assert table[r].tobytes() == batched_modulated_sums(row.copy()[None], phases).tobytes()
        cast = [np.dot(row.astype(np.complex128), ph) for ph in phases]
        assert np.allclose(table[r], cast, rtol=0, atol=1e-12 * np.abs(row).sum())


# one digest per line: a real batch, then a complex one
_BLAS_THREADS_PROBE = """
import hashlib, numpy as np
from specfield.periodogram import batched_modulated_sums, phase_grid
v = 65_537
rng = np.random.default_rng(6)
vals = rng.standard_normal((3, v))
phases = [phase_grid([np.arange(1, v + 1)], (lam,)) for lam in (0.5, 2.5)]
for batch in (vals, vals + 1j * rng.standard_normal((3, v))):
    print(hashlib.sha256(batched_modulated_sums(batch, phases).tobytes()).hexdigest())
"""


def test_real_sums_do_not_depend_on_blas_threads():
    """Real and complex batches of 65,537 sites give the same bytes at one and
    at two BLAS threads.  The sums use no BLAS; this guards against a BLAS
    dot, which OpenBLAS splits across its threads past 10^4 entries, coming
    back into them."""
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        digests.add(tuple(proc.stdout.split()))
    assert len(digests) == 1


def test_shift_preserves_modulus_for_translated_wave():
    """Translating a deterministic field and its box together changes S only
    by a unimodular factor, so |S| is exactly preserved."""
    mu = (0.8, -1.2)
    base = wave_sample(mu, (7, 5))
    moved = wave_sample(mu, (7, 5), shift=(9, 3))
    lam = (0.3, 0.9)
    assert abs(modulated_sum(base, lam)) == pytest.approx(
        abs(modulated_sum(moved, lam)), rel=1e-12)


def test_scaling_quadratic():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=(6, 6))
    lam = (1.0, 1.0)
    base = periodogram(make_sample(vals), lam)
    scaled = periodogram(make_sample(2.5 * vals), lam)
    assert scaled == pytest.approx(2.5 ** 2 * base, rel=1e-12)


def test_periodogram_bounds():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    sample = make_sample(vals)
    for lam in [(0.0, 0.0), (2.0, -2.0), (math.pi, 0.5)]:
        i = periodogram(sample, lam)
        assert 0 <= i <= 32 * np.abs(vals).max() ** 2 * (1 + 1e-12)


def test_dimension_mismatch():
    sample = make_sample(np.ones((4, 4)))
    with pytest.raises(ValueError):
        modulated_sum(sample, (0.5,))


def test_pairwise_accumulation_accuracy():
    # n large enough that naive left-to-right summation would drift; compare
    # against math.fsum on the real part
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(256, 256))
    sample = make_sample(vals)
    lam = (1e-3, -2e-3)
    s = modulated_sum(sample, lam)
    coords = np.arange(1, 257)
    phases = np.exp(-1j * lam[0] * coords)[:, None] * np.exp(
        -1j * lam[1] * coords)[None, :]
    exact = math.fsum((vals * phases).real.ravel())
    assert abs(s.real - exact) < 1e-9 * max(1.0, abs(exact))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("batch_bytes", [_util._BATCH_BYTES, 1 << 14], ids=["one-chunk", "small"])
def test_phase_grids_are_built_once_per_box(monkeypatch, threads, batch_bytes):
    """Each driver builds its m grids once per dims entry, before the chunk
    loop, whatever the batch size and thread count; the negligibility tail
    and leftover sums share one set."""
    built = []

    def spy(coords, lam):
        built.append(tuple(len(c) for c in coords))
        return phase_grid(coords, lam)

    # the package exports a function named periodogram, so fetch the module
    for module in (importlib.import_module("specfield.periodogram"), stats):
        monkeypatch.setattr(module, "phase_grid", spy, raising=False)
    monkeypatch.setenv("SPECFIELD_THREADS", threads)
    monkeypatch.setattr(_util, "_BATCH_BYTES", batch_bytes)

    circ = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    seq = [BoxDims((8, 6)), BoxDims((16, 8))]
    scheme = FrequencyScheme.separated((math.pi / 2, -math.pi / 2), 3, 0.25, 1, seq)
    stats.run_clt_experiment(circ, scheme, seq[1], 30, 17)
    assert built == [(16, 8)] * 3
    built.clear()
    stats.miller_check(circ, scheme, [1.0, 0.5, -0.3, 0.8, 0.2, 0.1], seq, 30, 23)
    assert built == [(8, 6)] * 3 + [(16, 8)] * 3

    real = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    seq = [BoxDims((64,)), BoxDims((128,))]
    scheme = FrequencyScheme.separated((math.pi / 2,), 2, 0.25, 0, seq)
    built.clear()
    negligibility_report(real, scheme, seq, 0.2, [1.0, -0.5, 0.3, 2.0], 30, 23)
    assert built == [(64,)] * 2 + [(128,)] * 2
