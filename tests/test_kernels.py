import math

import mpmath
import numpy as np
import pytest

from specfield.kernels import dirichlet_mod, fejer

from oracles import fejer_product

# |D|^2 - K cancellation stays ~1e-13 even at the worst sampled angles;
# 1e-10 leaves two orders of headroom.
IDENTITY_TOL = 1e-10
# trapezoid on a periodic band-limited integrand is exact up to rounding;
# 1e-6 is the contract, the observed error is ~1e-14
NORMALIZATION_TOL = 1e-6


def fejer_mp(alpha, n, dps=50):
    """High-precision reference evaluation, no series shortcuts."""
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        if mpmath.sin(a / 2) == 0:
            return float(n)
        val = mpmath.sin(n * a / 2) ** 2 / (n * mpmath.sin(a / 2) ** 2)
        return float(val)


def dirichlet_mp(alpha, n, dps=50):
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        den = 1 - mpmath.e ** (-1j * a)
        if den == 0:
            return complex(mpmath.sqrt(n))
        val = (1 - mpmath.e ** (-1j * n * a)) / den / mpmath.sqrt(n)
        return complex(val)


def test_fejer_order_one_is_constant():
    assert fejer(1.3, 1) == 1.0


def test_fejer_zero_angle_limit():
    assert fejer(0.0, 7) == 7.0


def test_fejer_zero_at_pi_even_order():
    assert fejer(math.pi, 2) == pytest.approx(0.0, abs=1e-30)


def test_dirichlet_zero_angle_limit():
    assert dirichlet_mod(0.0, 4) == 2.0 + 0.0j


def test_dirichlet_zero_at_pi_even_order():
    assert abs(dirichlet_mod(math.pi, 2)) < 1e-15


def test_matches_high_precision_reference():
    """Spot plain and series-path angles against mpmath."""
    rng = np.random.default_rng(7)
    angles = list(rng.uniform(-math.pi, math.pi, size=40))
    angles += [1e-7, -1e-7, 1e-9, 5e-7, 1e-5, 2e-6]
    for alpha in angles:
        for n in (1, 2, 3, 17, 64):
            ref = fejer_mp(alpha, n)
            got = fejer(alpha, n)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12), (alpha, n)
            refd = dirichlet_mp(alpha, n)
            gotd = dirichlet_mod(alpha, n)
            assert abs(gotd - refd) < 1e-12 * max(1.0, abs(refd)), (alpha, n)


def test_singularity_window_snaps_to_limit():
    # inside |1 - e^{-i a}| < 1e-12 both kernels return the limit exactly;
    # the absolute error committed is O(n^{3/2} * 1e-12), invisible downstream
    for alpha in (-3e-13, 1e-13, 4.9e-13):
        assert fejer(alpha, 17) == 17.0
        assert dirichlet_mod(alpha, 17) == complex(math.sqrt(17))


def test_modulus_identity_random():
    rng = np.random.default_rng(101)
    alphas = rng.uniform(-math.pi, math.pi, size=1000)
    orders = rng.integers(1, 200, size=1000)
    for alpha, n in zip(alphas, orders):
        d = dirichlet_mod(alpha, int(n))
        k = fejer(alpha, int(n))
        assert abs(abs(d) ** 2 - k) < IDENTITY_TOL


def test_upper_bound_random():
    # K(alpha, n) <= pi^2 / (n alpha^2) away from zero: sin(x) >= 2x/pi on
    # [0, pi/2] gives sin^2(alpha/2) >= alpha^2/pi^2, and the constant pi^2
    # is sharp (approached at |alpha| -> pi).
    rng = np.random.default_rng(55)
    for _ in range(500):
        alpha = rng.uniform(1e-4, math.pi - 1e-9) * rng.choice([-1.0, 1.0])
        n = int(rng.integers(1, 300))
        assert fejer(alpha, n) <= math.pi ** 2 / (n * alpha * alpha) * (1 + 1e-12)


def test_upper_bound_constant_pi_is_too_small():
    """The same bound with constant pi instead of pi^2 is false.

    K(alpha, 1) = 1 identically, while pi/alpha^2 < 1 once |alpha| > sqrt(pi);
    alpha = 2 is a concrete counterexample.  Larger orders violate it on
    roughly a third of the torus (wherever sin^2(n*alpha/2) > pi/4 with
    alpha small).  Guards against "tightening" the pi^2 constant above.
    """
    assert fejer(2.0, 1) == 1.0 > math.pi / (1 * 2.0 ** 2)
    assert fejer(2.6146141194255397, 261) > math.pi / (261 * 2.6146141194255397 ** 2)


def test_mean_over_period_is_one():
    """(1/2pi) integral of K over (-pi, pi] equals 1 for n up to 64.

    K(., n) is a trigonometric polynomial of degree n-1, so the uniform-grid
    trapezoid rule with >= 2n points integrates it exactly; we use 4096.
    """
    grid = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    for n in range(1, 65):
        mean = fejer(grid, n).mean()
        assert abs(mean - 1.0) < NORMALIZATION_TOL, n


def test_even_in_alpha():
    rng = np.random.default_rng(3)
    for alpha in rng.uniform(0, math.pi, size=50):
        for n in (2, 5, 31):
            assert fejer(alpha, n) == fejer(-alpha, n)


def test_two_pi_periodic():
    rng = np.random.default_rng(8)
    for alpha in rng.uniform(-math.pi, math.pi, size=30):
        assert fejer(alpha + 2 * math.pi, 9) == pytest.approx(fejer(alpha, 9),
                                                              rel=1e-9)
    # the lattice points of the singularity all give the limit value
    for mult in (-2, 0, 2, 4):
        assert fejer(mult * math.pi, 5) == 5.0
        assert dirichlet_mod(mult * math.pi, 9) == pytest.approx(3.0)


def test_vectorized_evaluation_matches_scalar():
    alphas = np.array([0.0, 1e-8, 0.5, -2.0, math.pi])
    vals = fejer(alphas, 12)
    for i, a in enumerate(alphas):
        assert vals[i] == fejer(float(a), 12)
    dvals = dirichlet_mod(alphas, 12)
    for i, a in enumerate(alphas):
        assert dvals[i] == dirichlet_mod(float(a), 12)


def test_product_at_origin():
    assert fejer_product((0.0, 0.0), (3, 5)) == 15.0


def test_product_zero_factor():
    assert fejer_product((math.pi, 1.234), (2, 11)) == pytest.approx(0.0,
                                                                     abs=1e-28)


def test_product_single_order_one():
    assert fejer_product((1.3,), (1,)) == 1.0


def test_product_dimension_mismatch():
    with pytest.raises(ValueError):
        fejer_product((0.1, 0.2, 0.3), (4, 4))


def test_product_is_product_of_factors():
    rng = np.random.default_rng(21)
    for _ in range(25):
        d = int(rng.integers(1, 4))
        theta = rng.uniform(-math.pi, math.pi, size=d)
        v = rng.integers(1, 30, size=d)
        expected = 1.0
        for t, n in zip(theta, v):
            expected *= fejer(float(t), int(n))
        assert fejer_product(theta, tuple(int(n) for n in v)) == pytest.approx(
            expected, rel=1e-13)


@pytest.mark.parametrize("n", [0, -1, 2**63, 10**20, -2**63 - 1, [3, 10**20]])
def test_orders_outside_int64_are_refused_like_zero(n):
    """An order int64 cannot hold is refused by the ValueError of order 0,
    not raised as an OverflowError from the conversion."""
    for kernel in (fejer, dirichlet_mod):
        with pytest.raises(ValueError, match="kernel order must be a positive 64-bit integer"):
            kernel(0.5, n)
