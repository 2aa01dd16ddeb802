"""Desk-scale acceptance suite: one test per criterion, one verdict line each.

Every test prints exactly one line

    ACCEPTANCE <n>: PASS|FAIL - <measured quantities>

(run pytest with -s to see the PASS lines; a FAIL line is also the assertion
message).  All randomness flows from fixed master seeds chosen at development
time, so the suite is reproducible run to run.
"""

import itertools
import math

import numpy as np

from specfield.bernstein import MixingProfile, block_index_sets, plan
from specfield.domain import BoxDims
from specfield.fieldgen import generate_batch, replication_seeds
from specfield.frequencies import FrequencyScheme
from specfield.kernels import dirichlet_mod, fejer
from specfield.mixing import IndexSetPair, canonical_rho, dependence_profile, rho_prime_profile
from specfield.model import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN, LinearFieldSpec, first_axis_ma1,
                             white_noise)
from specfield.periodogram import index_products, phase_grid
from specfield.spectral import (covariance_of_sums, expected_periodogram_exact,
                                expected_periodogram_quadrature,
                                product_of_sums, uniform_convergence_report)
from specfield.stats import (miller_check, negligibility_report, run_clt_experiment,
                             truncated_second_moments)


def _verdict(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_acceptance_01_kernel_identities():
    """Modulus identity |D|^2 = K, the K <= pi/(n alpha^2) bound, and unit
    mean of K over one period.

    The bound check is expected to FAIL: the pi constant is simply too
    small (K(alpha, 1) = 1 everywhere while pi/alpha^2 < 1 once
    |alpha| > sqrt(pi)); the sharp constant is pi^2, and test_kernels
    verifies that version.  The check is kept at pi here to document the
    discrepancy rather than silently repairing it.
    """
    rng = np.random.default_rng(1001)
    alphas = rng.uniform(-math.pi, math.pi, size=10_000)
    orders = rng.integers(1, 513, size=10_000)
    worst_identity = 0.0
    violations = 0
    first_bad = None
    for n in np.unique(orders):
        a = alphas[orders == n]
        k = fejer(a, int(n))
        d = dirichlet_mod(a, int(n))
        worst_identity = max(worst_identity,
                             float(np.max(np.abs(np.abs(d) ** 2 - k))))
        bound = math.pi / (int(n) * a ** 2)
        bad = k > bound
        violations += int(np.count_nonzero(bad))
        if first_bad is None and bad.any():
            i = int(np.argmax(bad))
            first_bad = (float(a[i]), int(n), float(k[i]), float(bound[i]))
    grid = -math.pi + 2.0 * math.pi * (np.arange(4096) + 0.5) / 4096
    worst_mean = max(abs(float(np.mean(fejer(grid, n))) - 1.0)
                     for n in range(1, 65))
    identity_ok = worst_identity < 1e-10
    mean_ok = worst_mean < 1e-6
    bound_ok = violations == 0
    detail = (f"| |D|^2 - K | worst {worst_identity:.2e}; mean-one worst "
              f"{worst_mean:.2e}; K <= pi/(n alpha^2) violated on "
              f"{violations}/10000 draws")
    if first_bad:
        a, n, k, b = first_bad
        detail += (f", e.g. alpha={a:.6f}, n={n}: K={k:.6e} > {b:.6e} "
                   f"(the sharp constant is pi^2, not pi)")
    _verdict(1, identity_ok and mean_ok and bound_ok, detail)


def _random_ma_case(rng):
    d = int(rng.integers(1, 3))
    dims = tuple(int(rng.integers(4, 33)) for _ in range(d))
    kind = REAL_GAUSSIAN if rng.uniform() < 0.5 else CIRCULAR_GAUSSIAN
    taps = {}
    for _ in range(int(rng.integers(1, 4))):
        lag = tuple(int(rng.integers(-2, 3)) for _ in range(d))
        if kind == REAL_GAUSSIAN:
            taps[lag] = float(rng.normal())
        else:
            taps[lag] = complex(rng.normal(), rng.normal())
    spec = LinearFieldSpec(dim=d, taps=taps, innovation_kind=kind,
                           innovation_std=float(rng.uniform(0.5, 1.5)))
    lam = tuple(float(rng.uniform(-math.pi, math.pi)) for _ in range(d))
    return spec, dims, lam


def _mc_mean_periodogram(spec, dims, lam, reps, seed):
    box = BoxDims(dims)
    vals = generate_batch(spec, box, None,
                          replication_seeds(seed, reps)).reshape(reps, -1)
    i_vals = np.abs(vals @ phase_grid(box, lam)) ** 2 / box.volume
    return float(i_vals.mean()), float(i_vals.std(ddof=1) / math.sqrt(reps))


def test_acceptance_02_expectation_oracles():
    """Exact expected periodogram vs trapezoid quadrature (1e-6) and vs the
    Monte Carlo mean (3 standard errors) on 20 random moving averages."""
    rng = np.random.default_rng(90210)
    worst_quad, worst_z = 0.0, 0.0
    ok = True
    for _ in range(20):
        spec, dims, lam = _random_ma_case(rng)
        exact = expected_periodogram_exact(spec, lam, dims)
        quad = expected_periodogram_quadrature(spec, lam, dims, 4 * max(dims))
        worst_quad = max(worst_quad, abs(exact - quad))
        mc, se = _mc_mean_periodogram(spec, dims, lam, 2000,
                                      int(rng.integers(2 ** 32)))
        worst_z = max(worst_z, abs(mc - exact) / se)
        ok = ok and abs(exact - quad) < 1e-6 and abs(mc - exact) < 3 * se
    _verdict(2, ok, f"20 random cases: worst |exact - quadrature| "
                    f"{worst_quad:.2e}, worst Monte Carlo |z| {worst_z:.2f}")


def test_acceptance_03_uniform_convergence_trend():
    """sup over a 128-point grid of |E I - f| strictly decreases as the
    box grows for the two-tap (1, 1) moving average."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    report = uniform_convergence_report(spec, [(8,), (16,), (32,), (64,),
                                               (128,)], 128)
    sups = [row.sup_err for row in report.rows]
    ok = all(b < a for a, b in zip(sups, sups[1:]))
    _verdict(3, ok, "sup |E I - f| along v = 8,16,32,64,128: "
                    + ", ".join(f"{s:.4f}" for s in sups))


def test_acceptance_04_second_moment_decay():
    """The no-conjugate product at lam = mu = pi/2 and the cross covariance
    at separated frequencies each shrink by >= 2x from v1 = 16 to 64."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    lam = (math.pi / 2,)
    prods = [abs(product_of_sums(spec, lam, lam, (v,))) for v in (16, 64)]
    covs = []
    for v in (16, 64):
        scheme = FrequencyScheme.separated(lam, 2, 0.25, 0, [BoxDims((v,))])
        f1, f2 = scheme.freqs_for(BoxDims((v,)))
        covs.append(abs(covariance_of_sums(spec, f1, f2, (v,))))
    ok = prods[1] <= prods[0] / 2 and covs[1] <= covs[0] / 2
    _verdict(4, ok, f"|E S S|/V: {prods[0]:.5f} -> {prods[1]:.5f} "
                    f"(x{prods[0]/prods[1]:.1f}); separated |E S conj(S)|/V: "
                    f"{covs[0]:.5f} -> {covs[1]:.5f} (x{covs[0]/covs[1]:.1f})")


# Fan step chosen so the frequencies sit 3 DFT cells apart on the 32-point
# grid (step = 3*pi/16): cross-frequency covariance then vanishes exactly
# and the covariance gate measures pure Monte Carlo noise.  The fan runs
# along the second axis, where the first-axis filter's density is flat.
CLT_DELTA = 0.5 + math.log(3 * math.pi / 32) / math.log(32)
CLT_SEED = 20240509
CLT_OTHER_SEED = 20240510


def _clt_scheme():
    return FrequencyScheme.separated((math.pi / 2, math.pi / 2), 3, CLT_DELTA,
                                     1, [BoxDims((32, 32))])


def test_acceptance_05_joint_limit_law():
    """Covariance within 0.05 of diag(f/2), per-coordinate normal KS
    p > 0.01, per-frequency exponential KS p > 0.01, and cross-frequency
    |correlation| < 0.1, for a circular white field and a real two-tap
    moving average, at three separated frequencies, R = 5000."""
    scheme = _clt_scheme()
    details, ok = [], True
    for name, spec in (("circular-iid", white_noise(2, CIRCULAR_GAUSSIAN, 1.0)),
                       ("real-ma1", first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 1.0))):
        rep = run_clt_experiment(spec, scheme, (32, 32), 5000, CLT_SEED)
        min_coord_p = min(p for _, p in rep.coordinate_ks)
        min_per_p = min(p for _, p in rep.periodogram_ks)
        ok = (ok and rep.max_cov_error < 0.05 and min_coord_p > 0.01
              and min_per_p > 0.01 and rep.max_cross_correlation < 0.1)
        details.append(f"{name}: cov err {rep.max_cov_error:.4f}, min KS p "
                       f"{min(min_coord_p, min_per_p):.3f}, xcorr "
                       f"{rep.max_cross_correlation:.4f}")
    _verdict(5, ok, "; ".join(details))


def _exact_weighted_second_moment(spec, freqs, weights, dims):
    """E G^2 / V from the exact covariance and no-conjugate product."""
    total = 0.0
    for j, k in itertools.product(range(len(freqs)), repeat=2):
        c = covariance_of_sums(spec, freqs[j], freqs[k], dims)
        p = product_of_sums(spec, freqs[j], freqs[k], dims)
        eaa = (c.real + p.real) / 2
        ebb = (c.real - p.real) / 2
        eab = (-c.imag + p.imag) / 2
        eba = (c.imag + p.imag) / 2
        aj, bj = weights[2 * j], weights[2 * j + 1]
        ak, bk = weights[2 * k], weights[2 * k + 1]
        total += aj * ak * eaa + aj * bk * eab + bj * ak * eba + bj * bk * ebb
    return total


def test_acceptance_06_weighted_functional_trend():
    """|(1/2) f ||b||^2 - E G^2| shrinks from v1 = 8 to v1 = 64 by more than
    three combined standard errors, and both estimates agree with the exact
    second-moment oracle."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    weights = [1.0, 1.0, 1.0, 1.0]
    dims_seq = [(8,), (64,)]
    scheme = FrequencyScheme.separated((math.pi / 2,), 2, 0.25, 0,
                                       [BoxDims(d) for d in dims_seq])
    rep = miller_check(spec, scheme, weights, dims_seq, 20_000, 424242)
    r8, r64 = rep.rows
    combined = math.hypot(r8.std_error, r64.std_error)
    trend_ok = r64.discrepancy < r8.discrepancy - 3 * combined
    oracle_ok = True
    for row, dims in zip(rep.rows, dims_seq):
        exact = _exact_weighted_second_moment(
            spec, scheme.freqs_for(BoxDims(dims)), weights, dims)
        oracle_ok = oracle_ok and abs(row.estimate - exact) < 3 * row.std_error
    _verdict(6, trend_ok and oracle_ok,
             f"discrepancy {r8.discrepancy:.4f} -> {r64.discrepancy:.4f}, "
             f"3 x combined se {3 * combined:.4f}; estimates within 3 se of "
             f"the exact oracle: {oracle_ok}")


def test_acceptance_07_blocking_integer_exactness():
    """Blocking integers for 200 random (v1, profile): the defining
    inequality chain, the leftover bound, exact cardinalities, and the
    m-dependent coverage ratio, all in integer arithmetic."""
    rng = np.random.default_rng(7007)
    ok = True
    worst_leftover = 0.0
    for _ in range(200):
        v1 = int(rng.integers(8, 10 ** 6))
        m_dependent = rng.uniform() < 0.5
        if m_dependent:
            profile = MixingProfile(values={},
                                    dependence_range=int(rng.integers(0, 5)))
        else:
            profile = MixingProfile(values={1: float(rng.uniform(0.01, 1.0))})
        pl = plan(v1, profile, 0.2)
        leftover = v1 - pl.p * pl.r
        ok = (ok and (pl.r - 1 + pl.s) * pl.p <= v1 < (pl.r + pl.s) * pl.p
              and leftover ** 3 <= v1 ** 2
              and (not m_dependent or pl.p == pl.s))
        worst_leftover = max(worst_leftover, leftover / v1 ** (2 / 3))
        cross = tuple(int(rng.integers(1, 5))
                      for _ in range(int(rng.integers(0, 3))))
        blocks, rest = block_index_sets(pl, (v1,) + cross)
        unit = math.prod(cross) if cross else 1
        ok = (ok and all(b.cardinality == pl.r * unit for b in blocks)
              and sum(z.cardinality for z in rest) == leftover * unit)
    _verdict(7, ok, f"200 random plans: inequality chain, cardinalities and "
                    f"coverage exact; worst leftover/v1^(2/3) = "
                    f"{worst_leftover:.3f}")


def test_acceptance_08_negligibility_trend():
    """Leftover and tail second moments per unit volume at v1 = 4096 sit
    below their v1 = 64 values, and the leftover column matches the exact
    independent-sites formula within 3 standard errors."""
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    q = 0.2
    scheme = FrequencyScheme.separated((math.pi / 2,), 1, 0.25, 0,
                                       [BoxDims((64,)), BoxDims((4096,))])
    rep = negligibility_report(spec, scheme, [(64,), (4096,)], q,
                               [1.0, 0.0], 400, 777001)
    r64, r4096 = rep.rows
    oracle_ok = True
    for row, v1 in ((r64, 64), (r4096, 4096)):
        thresholds = index_products((v1,)) ** q
        bounded_m2, _ = truncated_second_moments(spec, thresholds)
        pl = plan(v1, dependence_profile(spec), q)
        _, leftover = block_index_sets(pl, (v1,))
        mask = np.zeros(v1, dtype=bool)
        for z in leftover:
            mask[z.first_slice] = True
        exact = bounded_m2[mask].sum() / 2.0 / v1
        oracle_ok = oracle_ok and abs(row.leftover_mean - exact) < 3 * row.leftover_se
    trend_ok = (r4096.leftover_mean < r64.leftover_mean
                and r4096.tail_mean < r64.tail_mean)
    _verdict(8, trend_ok and oracle_ok,
             f"leftover {r64.leftover_mean:.4f} -> {r4096.leftover_mean:.4f}, "
             f"tail {r64.tail_mean:.4f} -> {r4096.tail_mean:.4f}; leftover "
             f"within 3 se of the exact formula: {oracle_ok}")


def test_acceptance_09_mixing_lower_bounds():
    """The (1, 1) moving average has maximal correlation >= 1/2 at
    separation 1 (singleton witness) and exactly 0 beyond; a white field's
    profile is identically 0."""
    ma1 = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    witness = canonical_rho(ma1, IndexSetPair(left=((0,),), right=((1,),),
                                              axis=0))
    prof = rho_prime_profile(ma1, window_radius=1, max_set_size=2, n_max=3)
    iid_prof = rho_prime_profile(white_noise(1, CIRCULAR_GAUSSIAN, 1.0),
                                 window_radius=2, max_set_size=2, n_max=3)
    ok = (abs(witness - 0.5) < 1e-12 and prof.value_at(1) >= 0.5 - 1e-12
          and prof.value_at(2) == 0.0 and prof.value_at(3) == 0.0
          and all(iid_prof.value_at(n) == 0.0 for n in (1, 2, 3)))
    _verdict(9, ok, f"singleton witness {witness:.12f}, profile(1) "
                    f"{prof.value_at(1):.4f}, profile(2) {prof.value_at(2)}, "
                    f"white-field profile max "
                    f"{max(iid_prof.value_at(n) for n in (1, 2, 3))}")


def test_acceptance_10_determinism():
    """Same master seed -> byte-identical reports; different seeds differ."""
    spec = white_noise(2, CIRCULAR_GAUSSIAN, 1.0)
    scheme = _clt_scheme()
    a = run_clt_experiment(spec, scheme, (32, 32), 5000, CLT_SEED).to_json()
    b = run_clt_experiment(spec, scheme, (32, 32), 5000, CLT_SEED).to_json()
    c = run_clt_experiment(spec, scheme, (32, 32), 5000,
                           CLT_OTHER_SEED).to_json()
    ok = a == b and a != c
    _verdict(10, ok, f"repeat run identical: {a == b}; different seed "
                     f"differs: {a != c}")
