import hashlib
import itertools
import math
import sys
import threading

import numpy as np
import pytest

from specfield import _util, spectral
from specfield.domain import BoxDims, Frequency
from specfield.fieldgen import generate_batch, replication_seeds
from specfield.model import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN, LinearFieldSpec, autocovariance,
                             first_axis_ma1, white_noise)
from specfield.periodogram import batched_modulated_sums, phase_grid
from specfield.spectral import (_cross_moment, covariance_of_sums,
                                expected_periodogram_exact,
                                expected_periodogram_quadrature,
                                product_of_sums, sum_covariance,
                                uniform_convergence_report)
from test_acceptance import _exact_weighted_second_moment

# exact lag-domain sums vs O(V^2) brute force: both are finite sums of the
# same terms, so only accumulation rounding separates them
BRUTE_TOL = 1e-10
# trapezoid quadrature of a trig-polynomial integrand on a torus grid is
# exact up to rounding; the contract allows 1e-6
QUAD_TOL = 1e-6


def box_indices(dims):
    return list(itertools.product(*[range(1, v + 1) for v in dims]))


def brute_covariance(spec, lam, mu, dims):
    """Oracle: (1/V) sum_{j,k in box} e^{-i j.lam + i k.mu} r(j - k)."""
    idx = box_indices(dims)
    total = 0j
    for j in idx:
        for k in idx:
            h = tuple(a - b for a, b in zip(j, k))
            r = autocovariance(spec, h)
            if r != 0:
                total += np.exp(-1j * np.dot(j, lam) + 1j * np.dot(k, mu)) * r
    return total / math.prod(dims)


def brute_product(spec, lam, mu, dims):
    """Oracle: (1/V) sum_{j,k} e^{-i j.lam - i k.mu} p(j - k), p = pseudo-cov."""
    if not spec.is_real:
        return 0j
    idx = box_indices(dims)
    total = 0j
    for j in idx:
        for k in idx:
            h = tuple(a - b for a, b in zip(j, k))
            p = autocovariance(spec, h)  # real field: p(h) = r(h)
            if p != 0:
                total += np.exp(-1j * (np.dot(j, lam) + np.dot(k, mu))) * p
    return total / math.prod(dims)


def random_ma_spec(rng, d, kind=CIRCULAR_GAUSSIAN, reach=3):
    taps = {}
    for _ in range(int(rng.integers(1, 4))):
        lag = tuple(int(x) for x in rng.integers(0, reach, size=d))
        if kind == REAL_GAUSSIAN:
            taps[lag] = float(rng.normal())
        else:
            taps[lag] = complex(rng.normal(), rng.normal())
    return LinearFieldSpec(dim=d, taps=taps, innovation_kind=kind,
                           innovation_std=float(rng.uniform(0.5, 1.5)))


def test_iid_expectation_is_flat():
    spec = white_noise(2, CIRCULAR_GAUSSIAN, 1.3)
    for lam in [(0.0, 0.0), (1.0, -1.0), (math.pi, 0.5)]:
        for dims in [(2, 2), (5, 3), (16, 16)]:
            got = expected_periodogram_exact(spec, lam, dims)
            assert got == pytest.approx(1.69, abs=1e-12)


def test_ma1_tiny_box_hand_value():
    # E|S|^2 = 2 r(0) + 2 Re r(1) = 6 over v = (2) at lam = 0, so E I = 3
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    assert expected_periodogram_exact(spec, (0.0,), (2,)) == pytest.approx(
        3.0, abs=1e-12)


def test_exact_matches_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(8):
        d = int(rng.integers(1, 3))
        spec = random_ma_spec(rng, d)
        dims = tuple(int(x) for x in rng.integers(2, 5, size=d))
        lam = tuple(rng.uniform(-math.pi, math.pi, size=d))
        got = expected_periodogram_exact(spec, lam, dims)
        want = brute_covariance(spec, lam, lam, dims)
        assert abs(want.imag) < BRUTE_TOL
        assert abs(got - want.real) < BRUTE_TOL


def test_exact_matches_quadrature():
    rng = np.random.default_rng(13)
    for _ in range(6):
        d = int(rng.integers(1, 3))
        spec = random_ma_spec(rng, d)
        dims = tuple(int(x) for x in rng.integers(2, 9, size=d))
        lam = tuple(rng.uniform(-math.pi, math.pi, size=d))
        exact = expected_periodogram_exact(spec, lam, dims)
        quad = expected_periodogram_quadrature(spec, lam, dims,
                                               4 * max(dims))
        assert abs(exact - quad) < QUAD_TOL


def test_quadrature_iid():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 0.9)
    got = expected_periodogram_quadrature(spec, (0.3,), (6,), 64)
    assert got == pytest.approx(0.81, abs=QUAD_TOL)


def test_quadrature_grid_too_coarse():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    with pytest.raises(ValueError):
        expected_periodogram_quadrature(spec, (0.3,), (16,), 63)


def test_quadrature_grid_beyond_the_workspace_budget(monkeypatch):
    """The default grid of 4*max(v) = 32 per axis needs 32^2 complex points;
    a 4 KiB budget holds 256 of them, 16 per axis, so it is refused before
    any grid is allocated."""
    monkeypatch.setattr(_util, "_CHUNK_BYTES", 1 << 12)
    spec = white_noise(2, CIRCULAR_GAUSSIAN, 1.0)
    with pytest.raises(ValueError, match=r"too large: 32\^2 points .* at most 16 per axis"):
        expected_periodogram_quadrature(spec, (0.3, 0.4), (8, 8))


def test_quadrature_linear_in_density():
    """Adding a flat unit level to the density adds exactly 1 to the integral.

    The MA(1) density 2 + 2cos(lam) plus a unit level equals the density of
    taps (1, b) with b = (3 - sqrt(5))/2 and std^2 = 1/b, so the two
    quadratures must differ by the kernel mass, i.e. by 1.
    """
    ma1 = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    b = (3.0 - math.sqrt(5.0)) / 2.0
    lifted = LinearFieldSpec(dim=1, taps={(0,): 1.0, (1,): b},
                             innovation_kind=REAL_GAUSSIAN,
                             innovation_std=math.sqrt(1.0 / b))
    for lam in (0.0, 1.0, -2.5):
        low = expected_periodogram_quadrature(ma1, (lam,), (8,), 64)
        high = expected_periodogram_quadrature(lifted, (lam,), (8,), 64)
        assert high - low == pytest.approx(1.0, abs=1e-8)


def test_covariance_at_equal_frequencies_is_expectation():
    rng = np.random.default_rng(14)
    for _ in range(6):
        d = int(rng.integers(1, 3))
        spec = random_ma_spec(rng, d)
        dims = tuple(int(x) for x in rng.integers(2, 7, size=d))
        lam = tuple(rng.uniform(-math.pi, math.pi, size=d))
        cov = covariance_of_sums(spec, lam, lam, dims)
        assert abs(cov.imag) < 1e-10
        assert cov.real >= -1e-10
        assert cov.real == pytest.approx(
            expected_periodogram_exact(spec, lam, dims), abs=1e-10)


def test_covariance_matches_brute_force():
    rng = np.random.default_rng(15)
    for _ in range(6):
        d = int(rng.integers(1, 3))
        spec = random_ma_spec(rng, d)
        dims = tuple(int(x) for x in rng.integers(2, 5, size=d))
        lam = tuple(rng.uniform(-math.pi, math.pi, size=d))
        mu = tuple(rng.uniform(-math.pi, math.pi, size=d))
        got = covariance_of_sums(spec, lam, mu, dims)
        want = brute_covariance(spec, lam, mu, dims)
        assert abs(got - want) < BRUTE_TOL


def test_iid_fourier_grid_orthogonality():
    """On the Fourier grid of the box, demodulated iid sums are exactly
    uncorrelated; the geometric sums vanish identically."""
    spec = white_noise(2, CIRCULAR_GAUSSIAN, 1.0)
    dims = (4, 4)
    lam = (2 * math.pi * 1 / 4, 2 * math.pi * 1 / 4)
    mu = (2 * math.pi * 1 / 4 - 2 * math.pi * 2 / 4, 2 * math.pi * 1 / 4)
    got = covariance_of_sums(spec, lam, mu, dims)
    assert abs(got) < 1e-13
    # cross-checked against the O(V^2) definition
    assert abs(brute_covariance(spec, lam, mu, dims)) < 1e-13


def test_covariance_hermitian_symmetry():
    rng = np.random.default_rng(16)
    for _ in range(6):
        d = int(rng.integers(1, 3))
        spec = random_ma_spec(rng, d)
        dims = tuple(int(x) for x in rng.integers(2, 8, size=d))
        lam = tuple(rng.uniform(-math.pi, math.pi, size=d))
        mu = tuple(rng.uniform(-math.pi, math.pi, size=d))
        ab = covariance_of_sums(spec, lam, mu, dims)
        ba = covariance_of_sums(spec, mu, lam, dims)
        assert ab == pytest.approx(np.conj(ba), abs=1e-12)


def test_separated_covariance_decays():
    # exact covariance between separated frequencies shrinks as the box grows
    spec = first_axis_ma1(1, CIRCULAR_GAUSSIAN, 1.0, 1.0)
    lam = math.pi / 2
    values = []
    for v1 in (16, 32, 64):
        mu = lam + 2.0 * v1 ** (-0.25)
        values.append(abs(covariance_of_sums(spec, (lam,), (mu,), (v1,))))
    assert values[0] > values[1] > values[2]


def test_product_is_zero_for_circular_fields():
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.8)
    got = product_of_sums(spec, (0.5, 0.5), (1.0, -0.5), (6, 6))
    assert got == 0j


@pytest.mark.parametrize("lam, mu, dims", [
    ((0.5, 0.5), (1.0, -0.5), (6, 0)),
    ((0.5, 0.5), (1.0, -0.5), (6,)),
    ((0.5, 0.5), (1.0, -0.5), (6.0, 6)),
    ((0.5,), (1.0, -0.5), (6, 6)),
    ((0.5, 0.5), (1.0, 4.0), (6, 6)),
    ((0.5, -math.pi), (1.0, -0.5), (6, 6)),
], ids=["side-0", "dims-1d", "side-float", "lam-1d", "mu-outside", "lam-minus-pi"])
def test_circular_product_still_refuses_malformed_input(lam, mu, dims):
    """The circular product is a known 0j, returned without the cross
    moment, but its input is validated as for real fields."""
    for kind in (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN):
        with pytest.raises(ValueError):
            product_of_sums(first_axis_ma1(2, kind, 1.0, 0.8), lam, mu, dims)


def test_product_matches_brute_force_real_fields():
    rng = np.random.default_rng(17)
    for _ in range(6):
        d = int(rng.integers(1, 3))
        spec = random_ma_spec(rng, d, kind=REAL_GAUSSIAN)
        dims = tuple(int(x) for x in rng.integers(2, 5, size=d))
        lam = tuple(rng.uniform(-math.pi, math.pi, size=d))
        mu = tuple(rng.uniform(-math.pi, math.pi, size=d))
        got = product_of_sums(spec, lam, mu, dims)
        want = brute_product(spec, lam, mu, dims)
        assert abs(got - want) < BRUTE_TOL


def test_product_real_iid_tiny_box():
    # d = 1, v = 2, lam = mu = pi/2: (1/2) sum_j e^{-i pi j} r(0) = 0 by hand;
    # the diagonal j = k phases alternate and cancel pairwise
    spec = white_noise(1, REAL_GAUSSIAN, 1.0)
    got = product_of_sums(spec, (math.pi / 2,), (math.pi / 2,), (2,))
    want = brute_product(spec, (math.pi / 2,), (math.pi / 2,), (2,))
    assert abs(got - want) < 1e-14
    assert got == pytest.approx((np.exp(-2j * (math.pi / 2))
                                 + np.exp(-4j * (math.pi / 2))) / 2, abs=1e-14)


def test_product_real_ma1_decays():
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    lam = (math.pi / 2,)
    small = abs(product_of_sums(spec, lam, lam, (16,)))
    large = abs(product_of_sums(spec, lam, lam, (64,)))
    assert large < small / 2


def test_uniform_report_iid():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.1)
    report = uniform_convergence_report(spec, [(4,), (8,), (16,)], 32)
    assert len(report.rows) == 3
    for row in report.rows:
        assert row.sup_err < 1e-10


def test_uniform_report_ma1_trend():
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    report = uniform_convergence_report(spec, [(8,), (64,)], 128)
    sups = report.sup_errors()
    assert sups[1] < sups[0]
    # the grid contains pi where f vanishes; values must still be finite
    assert all(np.isfinite(s) for s in sups)


def test_monte_carlo_agrees_with_exact_expectation():
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.6)
    dims = (8, 8)
    lam = Frequency((1.2, -0.4))
    seeds = replication_seeds(20240201, 2000)
    vals = generate_batch(spec, dims, None, seeds)
    sums = batched_modulated_sums(vals, [phase_grid(dims, lam)])
    periods = np.abs(sums[:, 0]) ** 2 / 64.0
    se = periods.std(ddof=1) / math.sqrt(len(periods))
    want = expected_periodogram_exact(spec, lam, dims)
    assert abs(periods.mean() - want) < 3 * se


def _pinned_moment_pairs(rng):
    """Seeded (spec, lam, mu, dims) calls: d = 1..3, real and circular, boxes
    with a side of 1, mu = lam, mu = -lam, Fourier-grid pairs and random
    pairs; each spec is revisited on its first box after a second one.
    Half the specs reach lags up to 5, where h.lam rounds."""
    calls = []
    for i in range(240):
        d = 1 + i % 3
        kind = REAL_GAUSSIAN if (i // 3) % 2 else CIRCULAR_GAUSSIAN
        spec = random_ma_spec(rng, d, kind, reach=3 + 3 * (i // 6 % 2))
        first = tuple(int(x) for x in rng.integers(1, 12, size=d))
        second = tuple(int(x) for x in rng.integers(1, 12, size=d))
        for dims in (first, second, first):
            lam = tuple(float(x) for x in -rng.uniform(-math.pi, math.pi, size=d))
            fourier = [2 * math.pi * int(rng.integers(0, v)) / v for v in dims]
            grid_lam = tuple(x - 2 * math.pi if x > math.pi else x for x in fourier)
            for mu in (lam, tuple(-x for x in lam),
                       tuple(float(x) for x in -rng.uniform(-math.pi, math.pi, size=d))):
                calls.append((spec, lam, mu, dims))
            calls.append((spec, grid_lam, lam, dims))
    return calls


# sha256 of the complex128 bytes of covariance_of_sums then product_of_sums
# per pinned call, recorded while both rebuilt the lag table on every call
MOMENT_DIGEST = "6df12aec48297bc7fec0cfedfd64dfd2140dc03f8c460f4c6f6b5aa6b6c4804f"


def test_cross_moments_are_pinned_by_digest():
    values = []
    for spec, lam, mu, dims in _pinned_moment_pairs(np.random.default_rng(2718)):
        values.append(covariance_of_sums(spec, lam, mu, dims))
        values.append(product_of_sums(spec, lam, mu, dims))
    blob = np.array(values, dtype=np.complex128).tobytes()
    assert hashlib.sha256(blob).hexdigest() == MOMENT_DIGEST


def test_lag_table_is_built_once_per_spec(monkeypatch):
    built = []
    table = spectral._lag_arrays

    def spy(spec):
        built.append(table(spec))
        return built[-1]

    monkeypatch.setattr(spectral, "_lag_arrays", spy)
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.7)
    rng = np.random.default_rng(31)
    for i in range(100):
        lam = tuple(rng.uniform(-math.pi, math.pi, size=2))
        mu = tuple(rng.uniform(-math.pi, math.pi, size=2))
        covariance_of_sums(spec, lam, mu, [(8, 8), (5, 3)][i % 2])
    uniform_convergence_report(spec, [(4, 4), (8, 8)], 16)
    assert len(built) > 1
    assert all(lags is built[0][0] and r is built[0][1] for lags, r in built)


def test_batched_cross_moment_rows_equal_single_pairs():
    """Row p of one batched call is bit for bit the pair p evaluated alone,
    and the public scalar functions are that batch of one."""
    rng = np.random.default_rng(41)
    for i in range(30):
        d = 1 + i % 3
        spec = random_ma_spec(rng, d, REAL_GAUSSIAN if i % 2 else CIRCULAR_GAUSSIAN,
                              reach=6)
        dims = tuple(int(x) for x in rng.integers(1, 12, size=d))
        box = BoxDims(dims)
        lam = -rng.uniform(-math.pi, math.pi, size=(7, d))
        mu = -rng.uniform(-math.pi, math.pi, size=(7, d))
        mu[1], mu[2] = lam[1], -lam[2]
        for sign, scalar in ((1, covariance_of_sums), (-1, product_of_sums)):
            batch = _cross_moment(spec, box, lam, lam - sign * mu)
            for p in range(len(lam)):
                alone = _cross_moment(spec, box, lam[p:p + 1], lam[p:p + 1] - sign * mu[p:p + 1])
                assert batch[p].tobytes() == alone[0].tobytes()
                if spec.is_real or sign == 1:
                    assert scalar(spec, lam[p], mu[p], dims) == complex(batch[p])


def test_sum_covariance_matches_the_scalar_assembly():
    """Each 2x2 block comes from covariance_of_sums and product_of_sums at
    (lam_j, lam_k) by the same arithmetic, so the entries agree exactly; the
    matrix is symmetric and its quadratic forms equal the acceptance oracle."""
    rng = np.random.default_rng(43)
    for kind in (REAL_GAUSSIAN, CIRCULAR_GAUSSIAN):
        for d in (1, 2):
            spec = random_ma_spec(rng, d, kind)
            dims = tuple(int(x) for x in rng.integers(3, 12, size=d))
            freqs = [tuple(-rng.uniform(-math.pi, math.pi, size=d)) for _ in range(3)]
            cov = sum_covariance(spec, freqs, dims)
            assert cov.shape == (6, 6)
            for j, k in itertools.product(range(3), repeat=2):
                c = covariance_of_sums(spec, freqs[j], freqs[k], dims)
                p = product_of_sums(spec, freqs[j], freqs[k], dims)
                assert cov[2 * j, 2 * k] == (c + p).real / 2.0
                assert cov[2 * j + 1, 2 * k + 1] == (c - p).real / 2.0
                assert cov[2 * j, 2 * k + 1] == (p.imag - c.imag) / 2.0
                assert cov[2 * j + 1, 2 * k] == (c.imag + p.imag) / 2.0
            assert np.allclose(cov, cov.T, rtol=0.0, atol=1e-12)
            for _ in range(3):
                b = rng.normal(size=6)
                oracle = _exact_weighted_second_moment(spec, freqs, b, dims)
                assert abs(b @ cov @ b - oracle) < 1e-12


def test_sum_covariance_refuses_an_empty_family():
    with pytest.raises(ValueError, match="at least one frequency"):
        sum_covariance(white_noise(1, REAL_GAUSSIAN, 1.0), [], (8,))


def test_box_geometry_cache_is_consistent_across_threads():
    """Threads alternating two boxes on one spec keep replacing its cached
    geometry; every value still equals the serial one, bit for bit."""
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.7)
    cases = [((0.4, 1.1), (1.0, -0.3), dims) for dims in ((8, 8), (5, 3), (1, 9))]
    want = [covariance_of_sums(spec, *case) for case in cases]
    mismatches = []

    def work():
        for i in range(1000):
            case = i % len(cases)
            if covariance_of_sums(spec, *cases[case]) != want[case]:
                mismatches.append(case)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


def _generated_spec(rng):
    """d = 1 or 2, real or circular, 1-4 taps at lags within +-2 with
    coefficients within +-2 (complex for circular fields), and a box of sides
    up to 16."""
    d = int(rng.integers(1, 3))
    kind = (REAL_GAUSSIAN, CIRCULAR_GAUSSIAN)[int(rng.integers(2))]
    taps = {}
    for _ in range(int(rng.integers(1, 5))):
        coeff = rng.uniform(-2, 2) + (1j * rng.uniform(-2, 2) if kind == CIRCULAR_GAUSSIAN else 0)
        taps[tuple(int(j) for j in rng.integers(-2, 3, d))] = coeff
    spec = LinearFieldSpec(d, taps, kind, float(rng.uniform(0.5, 2.0)))
    return spec, tuple(int(v) for v in rng.integers(1, 17, d))


@pytest.mark.parametrize("case", range(24))
def test_innovation_grids_give_the_exact_cross_moments(case):
    """A third exact route: S(lam) = sum_t eps_t c_t(lam) over the innovations,
    with c the grid that the clt and miller reports sum against, so
    E S(lam) conj S(mu) / V = sigma^2 sum_t c_t(lam) conj c_t(mu) / V and, for a
    real field, E S(lam) S(mu) / V = sigma^2 sum_t c_t(lam) c_t(mu) / V.  It
    uses no lag table and no Dirichlet kernel, and agrees with both within
    1e-13 of the trace of ``sum_covariance``."""
    from specfield.stats import _innovation_grid

    rng = np.random.default_rng(8100 + case)
    spec, dims = _generated_spec(rng)
    box = BoxDims(dims)
    freqs = [Frequency(tuple(rng.uniform(-math.pi, math.pi, box.dim))) for _ in range(3)]
    grids = [_innovation_grid(spec, box, lam) for lam in freqs]
    scale = spec.innovation_std ** 2 / box.volume
    tol = 1e-13 * np.trace(sum_covariance(spec, freqs, dims))
    for (lam, c), (mu, b) in itertools.product(zip(freqs, grids), repeat=2):
        assert abs(scale * np.vdot(b, c) - covariance_of_sums(spec, lam, mu, dims)) <= tol
        if spec.is_real:
            assert abs(scale * (c @ b) - product_of_sums(spec, lam, mu, dims)) <= tol
