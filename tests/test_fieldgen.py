import copy
import math
import pickle

import numpy as np
import pytest

from specfield import fieldgen
from specfield.bernstein import BlockingPlan, IndexSlab, MixingProfile, plan
from specfield.domain import BoxDims
from specfield.fieldgen import generate, generate_batch, replication_seeds
from specfield.frequencies import build_separated, separation_gap
from specfield.kernels import dirichlet_mod, fejer
from specfield.mixing import IndexSetPair, rho_prime_profile
from specfield.model import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN, LinearFieldSpec, _lag_arrays,
                             autocovariance, first_axis_ma1, spec_from_json, spec_to_json,
                             spectral_density, white_noise)
from specfield.periodogram import index_products, phase_grid
from specfield.rng import gaussian_lattice
from specfield.spectral import expected_periodogram_quadrature, uniform_convergence_report

# finite tap sums evaluated two ways differ only by rounding
CONSISTENCY_TOL = 1e-10


def lag_sum_density(spec, lam):
    """Oracle: f(lam) = sum_h r(h) exp(-i h.lam) over the full lag support."""
    total = 0j
    for h, r in zip(*_lag_arrays(spec)):
        total += r * np.exp(-1j * np.dot(h, lam))
    return total


def brute_autocovariance(spec, h):
    """Oracle: r(h) = sigma^2 sum_t a_t conj(a_{t-h}) by direct dictionary walk."""
    total = 0j
    for t, at in spec.taps.items():
        shifted = tuple(ti - hi for ti, hi in zip(t, h))
        if shifted in spec.taps:
            total += at * np.conj(spec.taps[shifted])
    return spec.innovation_std ** 2 * total


def ma1_real(std=1.0):
    return LinearFieldSpec(dim=1, taps={(0,): 1.0, (1,): 1.0},
                           innovation_kind=REAL_GAUSSIAN, innovation_std=std)


def test_iid_density_is_flat():
    spec = white_noise(2, CIRCULAR_GAUSSIAN, 1.0)
    for lam in [(0.0, 0.0), (1.0, -2.0), (math.pi, math.pi)]:
        assert spectral_density(spec, lam) == pytest.approx(1.0, abs=1e-15)


def test_ma1_density_endpoints():
    spec = ma1_real()
    assert spectral_density(spec, (0.0,)) == pytest.approx(4.0, abs=1e-12)
    assert spectral_density(spec, (math.pi,)) == pytest.approx(0.0, abs=1e-12)


def test_density_matches_lag_sum_oracle():
    spec = ma1_real()
    # 64 evenly spaced frequencies inside (-pi, pi]
    for lam in -math.pi + 2 * math.pi * np.arange(1, 65) / 64:
        oracle = lag_sum_density(spec, (lam,))
        assert abs(oracle.imag) < CONSISTENCY_TOL
        assert abs(spectral_density(spec, (lam,)) - oracle.real) < CONSISTENCY_TOL


def test_density_matches_lag_sum_oracle_random_specs():
    rng = np.random.default_rng(42)
    for _ in range(10):
        d = int(rng.integers(1, 3))
        taps = {}
        for _ in range(int(rng.integers(1, 5))):
            lag = tuple(int(x) for x in rng.integers(-2, 3, size=d))
            taps[lag] = complex(rng.normal(), rng.normal())
        spec = LinearFieldSpec(dim=d, taps=taps,
                               innovation_kind=CIRCULAR_GAUSSIAN,
                               innovation_std=float(rng.uniform(0.5, 2.0)))
        lam = tuple(rng.uniform(-math.pi, math.pi, size=d))
        oracle = lag_sum_density(spec, lam)
        assert abs(spectral_density(spec, lam) - oracle.real) < CONSISTENCY_TOL
        assert abs(oracle.imag) < CONSISTENCY_TOL


def test_autocovariance_iid():
    spec = white_noise(3, REAL_GAUSSIAN, 1.5)
    assert autocovariance(spec, (0, 0, 0)) == pytest.approx(2.25)
    assert autocovariance(spec, (1, 0, 0)) == 0
    assert autocovariance(spec, (0, -2, 5)) == 0


def test_autocovariance_ma1_values():
    spec = ma1_real()
    assert autocovariance(spec, (0,)) == pytest.approx(2.0)
    assert autocovariance(spec, (1,)) == pytest.approx(1.0)
    assert autocovariance(spec, (2,)) == 0


def test_autocovariance_conjugate_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        taps = {tuple(int(x) for x in rng.integers(-2, 3, size=d)):
                complex(rng.normal(), rng.normal())
                for _ in range(int(rng.integers(1, 6)))}
        spec = LinearFieldSpec(dim=d, taps=taps,
                               innovation_kind=CIRCULAR_GAUSSIAN,
                               innovation_std=1.0)
        h = tuple(int(x) for x in rng.integers(-3, 4, size=d))
        neg = tuple(-x for x in h)
        assert autocovariance(spec, neg) == pytest.approx(
            np.conj(autocovariance(spec, h)), abs=1e-14)
        assert autocovariance(spec, h) == pytest.approx(
            brute_autocovariance(spec, h), abs=1e-13)


def test_autocovariance_table_covers_support():
    spec = ma1_real()
    lags, r = _lag_arrays(spec)
    table = dict(zip(map(tuple, lags.tolist()), r))
    assert set(table) == {(-1,), (0,), (1,)}
    assert table[(0,)] == pytest.approx(2.0)
    assert table[(-1,)] == pytest.approx(1.0)


def test_zero_std_gives_zero_field():
    spec = LinearFieldSpec(dim=2, taps={(0, 0): 1.0},
                           innovation_kind=REAL_GAUSSIAN, innovation_std=0.0)
    sample = generate(spec, (5, 4), seed=123)
    assert np.all(sample.values == 0)


def test_generation_is_deterministic():
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.7)
    a = generate(spec, (6, 7), seed=99)
    b = generate(spec, (6, 7), seed=99)
    assert np.array_equal(a.values, b.values)
    c = generate(spec, (6, 7), seed=100)
    assert not np.array_equal(a.values, c.values)


def test_real_kind_has_zero_imaginary_part():
    spec = ma1_real()
    sample = generate(spec, (32,), seed=5)
    assert np.all(sample.values.imag == 0)


def test_shifted_box_is_subarray_of_enlarged_box():
    """Innovations are functions of the absolute index, so a shifted box read
    equals the corresponding window of a bigger unshifted read."""
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    seed = 2024
    big = generate(spec, (12, 10), shift=None, seed=seed)
    shifted = generate(spec, (5, 6), shift=(3, 2), seed=seed)
    # box with shift w covers absolute coords w+1 .. w+v; the unshifted box
    # starts at 1, so the window is offset by the shift
    window = big.values[3:3 + 5, 2:2 + 6]
    assert np.array_equal(shifted.values, window)


def test_shifted_box_negative_shift():
    spec = white_noise(1, REAL_GAUSSIAN, 1.0)
    seed = 7
    wide = generate(spec, (20,), shift=(-10,), seed=seed)
    narrow = generate(spec, (4,), shift=(-3,), seed=seed)
    assert np.array_equal(narrow.values, wide.values[7:11])


def test_batch_rows_match_single_generation():
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.3, -0.4)
    seeds = replication_seeds(31415, 5)
    batch = generate_batch(spec, (8, 9), None, seeds)
    assert batch.shape == (5, 8, 9)
    for i, s in enumerate(seeds):
        single = generate(spec, (8, 9), seed=int(s))
        assert np.array_equal(batch[i], single.values)


def test_replication_seeds_distinct_and_stable():
    a = replication_seeds(1, 100)
    b = replication_seeds(1, 100)
    assert np.array_equal(a, b)
    assert len(set(int(x) for x in a)) == 100
    offset = replication_seeds(1, 90, offset=10)
    assert np.array_equal(a[10:], offset)


def test_replication_seed_stream_is_pinned():
    """Literal seeds of the replication stream, so a rewrite cannot move it."""
    seeds = replication_seeds(1, 3)
    assert seeds == [766489192633917258, 13690400545418608802, 12240389883498891173]
    assert all(type(s) is int for s in seeds)
    assert replication_seeds(2**64 - 1, 2, offset=10**12) == [8732650323363371725,
                                                              1877724064946046700]
    assert replication_seeds(7, 1, offset=5) == [3367921537479359684]
    assert replication_seeds(7, 3, offset=4)[1] == 3367921537479359684


def test_monte_carlo_moments_iid():
    """Pooled mean within 3 sigma/sqrt(R*V) of 0, |X|^2 mean within 5% of
    sigma^2, for the circular iid field on a 64x64 box with 200 reps."""
    spec = white_noise(2, CIRCULAR_GAUSSIAN, 1.0)
    seeds = replication_seeds(8675309, 200)
    batch = generate_batch(spec, (64, 64), None, seeds)
    pooled = batch.ravel()
    n = pooled.size
    assert abs(pooled.mean()) < 3.0 / math.sqrt(n)
    assert abs(np.mean(np.abs(pooled) ** 2) - 1.0) < 0.05


def test_monte_carlo_autocovariance_ma1():
    # empirical lag-1 covariance over a long row against the exact r(1)
    spec = ma1_real()
    seeds = replication_seeds(5150, 50)
    batch = generate_batch(spec, (4096,), None, seeds)
    r0 = np.mean(np.abs(batch) ** 2)
    r1 = np.mean(batch[:, 1:] * np.conj(batch[:, :-1])).real
    n = batch[:, 1:].size
    assert abs(r0 - 2.0) < 5 * 2.0 / math.sqrt(n) * 3  # loose 3-sigma-ish gate
    assert abs(r1 - 1.0) < 5 * 2.0 / math.sqrt(n) * 3


def test_beyond_support_is_uncorrelated():
    spec = ma1_real()
    seeds = replication_seeds(77, 50)
    batch = generate_batch(spec, (4096,), None, seeds)
    # lag 2 exceeds the MA(1) support diameter, so correlation is a mean of
    # n i.i.d.-ish products with null expectation
    r2 = np.mean(batch[:, 2:] * np.conj(batch[:, :-2])).real
    n = batch[:, 2:].size
    assert abs(r2) < 3 * 2.5 / math.sqrt(n)


def test_json_round_trip():
    spec = LinearFieldSpec(dim=2,
                           taps={(0, 0): 1 + 2j, (1, -1): -0.5j},
                           innovation_kind=CIRCULAR_GAUSSIAN,
                           innovation_std=0.75)
    again = spec_from_json(spec_to_json(spec))
    assert again == spec
    sample = generate(spec, (4, 4), seed=3)
    sample2 = generate(again, (4, 4), seed=3)
    assert np.array_equal(sample.values, sample2.values)


def test_spec_validation():
    with pytest.raises(ValueError):
        LinearFieldSpec(dim=1, taps={}, innovation_kind=REAL_GAUSSIAN,
                        innovation_std=1.0)
    with pytest.raises(ValueError):
        # complex tap under the real innovation kind
        LinearFieldSpec(dim=1, taps={(0,): 1j}, innovation_kind=REAL_GAUSSIAN,
                        innovation_std=1.0)
    with pytest.raises(ValueError):
        LinearFieldSpec(dim=1, taps={(0, 0): 1.0},
                        innovation_kind=REAL_GAUSSIAN, innovation_std=1.0)
    with pytest.raises(ValueError):
        LinearFieldSpec(dim=1, taps={(0,): 1.0},
                        innovation_kind="uniform", innovation_std=1.0)
    with pytest.raises(ValueError):
        LinearFieldSpec(dim=1, taps={(0,): 1.0},
                        innovation_kind=REAL_GAUSSIAN, innovation_std=-1.0)


@pytest.mark.parametrize("seed", [3.9, 3.0, np.float64(3.0), True, "3"])
def test_a_non_integral_seed_is_refused_not_truncated(seed):
    spec = white_noise(1, REAL_GAUSSIAN, 1.0)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got "):
        generate(spec, (8,), seed=seed)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got "):
        replication_seeds(seed, 2)


@pytest.mark.parametrize("shift", [[1.7], [1.0], [np.float32(2.0)], [True]])
def test_a_non_integral_shift_is_refused_not_truncated(shift):
    spec = white_noise(1, REAL_GAUSSIAN, 1.0)
    with pytest.raises(ValueError, match=r"^shift coordinate must be an integer, got "):
        generate(spec, (8,), shift, 3)


def test_numpy_integer_seeds_and_shifts_stay_accepted():
    spec = white_noise(2, REAL_GAUSSIAN, 1.0)
    want = generate(spec, (4, 3), (1, -2), 3).values
    got = generate(spec, (4, 3), np.array([1, -2]), np.uint64(3)).values
    assert got.tobytes() == want.tobytes()
    assert replication_seeds(np.int64(1), 3) == replication_seeds(1, 3)


# (field the refusal names, the call with x in an integer's place, a valid x)
_INTEGER_SITES = [
    ("kernel order", lambda x: fejer(0.3, x), 3),
    ("kernel order", lambda x: dirichlet_mod(0.3, x), 3),
    ("v1", lambda x: plan(x, MixingProfile(values={}, dependence_range=1), 0.2), 9),
    ("dim", lambda x: LinearFieldSpec(dim=x, taps={(0,): 1.0}), 1),
    ("tap lag coordinate", lambda x: LinearFieldSpec(dim=1, taps={(x,): 1.0, (0,): 2.0}), 3),
    ("lag coordinate", lambda x: autocovariance(ma1_real(), (x,)), 1),
    ("profile separation", lambda x: MixingProfile(values={x: 0.5}), 2),
    ("dependence_range", lambda x: MixingProfile(values={}, dependence_range=x), 2),
    ("index set coordinate", lambda x: IndexSetPair(((x,),), ((5,),), 0), 2),
    ("box side", lambda x: BoxDims((4, x)), 2),
    ("shift coordinate", lambda x: generate(ma1_real(), (4,), (x,), 3).values.tobytes(), 2),
    ("m", lambda x: build_separated((1.0,), x, 0.25, 0, (64,)), 2),
    ("grid_points_per_dim",
     lambda x: expected_periodogram_quadrature(ma1_real(), (1.0,), (4,), x), 16),
    ("lambda_grid_size", lambda x: uniform_convergence_report(ma1_real(), [(4,)], x), 2),
    ("count", lambda x: replication_seeds(3, x), 3),
    ("offset", lambda x: replication_seeds(3, 2, offset=x), 2),
    ("window_radius", lambda x: rho_prime_profile(ma1_real(), x, 1, 2), 1),
    ("max_set_size", lambda x: rho_prime_profile(ma1_real(), 1, x, 2), 2),
    ("n_max", lambda x: rho_prime_profile(ma1_real(), 1, 1, x), 2),
    ("axis", lambda x: IndexSetPair(((0, 0),), ((0, 3),), x), 1),
    ("axis", lambda x: build_separated((1.0, 1.0), 2, 0.25, x, (64, 64)), 1),
    ("axis length", lambda x: separation_gap(x, 0.25), 16),
    ("axis range bound", lambda x: gaussian_lattice(3, [(x, 5)], REAL_GAUSSIAN, 1.0).tobytes(),
     2, "axis_range_lo"),
    ("axis range bound", lambda x: gaussian_lattice(3, [(0, x)], REAL_GAUSSIAN, 1.0).tobytes(),
     3, "axis_range_hi"),
    ("separation", lambda x: MixingProfile(values={1: 0.5, 2: 0.3}).value_at(x), 2),
    ("v1", lambda x: BlockingPlan(v1=x, s=4, p=2, r=28, q=0.2), 64, "blocking_plan_v1"),
    ("s", lambda x: BlockingPlan(v1=64, s=x, p=2, r=28, q=0.2), 4),
    ("p", lambda x: BlockingPlan(v1=64, s=4, p=x, r=28, q=0.2), 2),
    ("r", lambda x: BlockingPlan(v1=64, s=4, p=2, r=x, q=0.2), 28),
    ("first_lo", lambda x: IndexSlab(first_lo=x, first_hi=3, dims=(8,)), 1),
    ("first_hi", lambda x: IndexSlab(first_lo=1, first_hi=x, dims=(8,)), 3),
    ("box side", lambda x: phase_grid((x,), (0.5,)).tobytes(), 2, "phase_grid_box"),
    ("shift coordinate", lambda x: phase_grid((4,), (0.5,), shift=(x,)).tobytes(), 2,
     "phase_grid_shift"),
    ("box side", lambda x: index_products((x,)).tobytes(), 4, "index_products_box"),
]


# a site's test id is its field, or the fourth entry where fields repeat
@pytest.mark.parametrize("field, call, good", [site[:3] for site in _INTEGER_SITES],
                         ids=[site[3] if len(site) > 3 else site[0].replace(" ", "_")
                              for site in _INTEGER_SITES])
def test_a_non_integral_count_or_index_is_refused_not_truncated(field, call, good):
    """Each count or lattice index is read as an integer: 2.7 and True are
    refused by a ValueError naming the field, never truncated to 2 or read as 1,
    and a numpy integer gives what the same Python int gives."""
    for bad in (2.7, True):
        with pytest.raises(ValueError,
                           match=f"^{field} must be (an|a positive 64-bit) integer, got "):
            call(bad)
    assert call(np.int64(good)) == call(good)


@pytest.mark.parametrize("taps, std, message", [
    ({(0,): math.nan}, 1.0, r"tap \(0,\) = \(nan\+0j\) is not finite"),
    ({(0,): 1.0, (1,): complex(0.0, math.inf)}, 1.0, r"tap \(1,\) = .* is not finite"),
    ({(0,): 1.0}, math.nan, "innovation_std must be finite and >= 0, got nan"),
    ({(0,): 1.0}, math.inf, "innovation_std must be finite and >= 0, got inf"),
    ({(0,): 1.0}, 1e200, r"variance innovation_std\^2 \* sum \|tap\|\^2 overflows"),
    ({(0,): 1e300, (1,): 1.0}, 1.0, r"variance innovation_std\^2 \* sum \|tap\|\^2 overflows"),
], ids=["tap-nan", "tap-inf", "std-nan", "std-inf", "std-overflow", "tap-overflow"])
def test_non_finite_specs_are_refused(taps, std, message):
    with pytest.raises(ValueError, match=message):
        LinearFieldSpec(dim=1, taps=taps, innovation_kind=CIRCULAR_GAUSSIAN,
                        innovation_std=std)


def test_spec_to_json_refuses_nan():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    object.__setattr__(spec, "innovation_std", math.nan)   # past the validation
    with pytest.raises(ValueError, match="not JSON compliant"):
        spec_to_json(spec)


def test_dependence_range():
    assert white_noise(2, REAL_GAUSSIAN, 1.0).dependence_range == 0
    assert ma1_real().dependence_range == 1
    spec = LinearFieldSpec(dim=2, taps={(0, 0): 1.0, (3, -1): 2.0},
                           innovation_kind=REAL_GAUSSIAN, innovation_std=1.0)
    assert spec.dependence_range == 3


def test_sample_metadata():
    spec = ma1_real()
    sample = generate(spec, (6,), shift=(4,), seed=11)
    assert sample.dims == BoxDims((6,))
    assert sample.shift == (4,)
    assert sample.seed == 11
    assert list(index_products(sample.dims, sample.shift)) == [5, 6, 7, 8, 9, 10]


def test_real_specs_generate_float64():
    real = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.5)
    circ = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    assert generate(real, (5, 4), seed=1).values.dtype == np.float64
    assert generate_batch(real, (5, 4), None, [1, 2]).dtype == np.float64
    assert generate(circ, (5, 4), seed=1).values.dtype == np.complex128
    assert generate_batch(circ, (5, 4), None, [1, 2]).dtype == np.complex128


def test_real_field_is_the_real_part_of_the_complex_filter():
    """Real taps on float64 innovations give, bit for bit, the real part of
    the complex accumulation sum_j a_j eps_{k-j}, whose imaginary part is 0."""
    spec = LinearFieldSpec(dim=2, taps={(0, 0): 1.0, (1, -1): -0.7, (0, 2): 0.3},
                           innovation_kind=REAL_GAUSSIAN, innovation_std=1.3)
    dims, shift, seeds = (6, 7), (-2, 3), [4, 5, 6]
    bounds, ranges = spec.lag_bounds(), fieldgen._innovation_ranges(spec, dims, shift)
    eps = gaussian_lattice(seeds, ranges, REAL_GAUSSIAN, 1.3)
    want = np.zeros((len(seeds),) + dims, dtype=np.complex128)
    for lag, coeff in spec.taps.items():
        window = tuple(slice(hi - j, hi - j + v) for (_, hi), j, v in zip(bounds, lag, dims))
        want += coeff * eps[(slice(None),) + window]
    got = generate_batch(spec, dims, shift, seeds)
    assert got.tobytes() == np.ascontiguousarray(want.real).tobytes()
    assert not np.any(want.imag)


def _complex_accumulation(spec, dims, shift, seeds):
    """sum_j a_j eps_{k-j}, tap by tap in complex arithmetic, from a zero start."""
    bounds, ranges = spec.lag_bounds(), fieldgen._innovation_ranges(spec, dims, shift)
    eps = gaussian_lattice(seeds, ranges, spec.innovation_kind, spec.innovation_std)
    want = np.zeros((len(seeds),) + dims, dtype=np.complex128)
    for lag, coeff in spec.taps.items():
        window = tuple(slice(hi - j, hi - j + v) for (_, hi), j, v in zip(bounds, lag, dims))
        want += coeff * eps[(slice(None),) + window]
    return want


def _same_bits_where_nonzero(got, want):
    a, b = got.view(np.float64), want.view(np.float64)
    nonzero = b != 0
    return np.array_equal(got, want) and a[nonzero].tobytes() == b[nonzero].tobytes()


@pytest.mark.parametrize("d, dims, shift", [(1, (13,), (-5,)), (2, (6, 7), (-2, 3)),
                                            (3, (4, 3, 5), (1, -4, 2))])
def test_real_circular_taps_filter_on_float_pairs(d, dims, shift):
    """Real taps of both signs on circular innovations are filtered on the
    (re, im) float64 view: the values equal the complex accumulation, with
    the same bits wherever a part is nonzero.  A zero part may keep the
    first tap's -0.0, where 0.0 + x gives +0.0."""
    taps = {(0,) * d: 1.0, (1,) + (-1,) * (d - 1): -0.7, (0,) * (d - 1) + (2,): 0.3,
            (-1,) + (0,) * (d - 1): -1.2}
    seeds = [4, 5, 6]
    for std in (1.3, 0.0):
        spec = LinearFieldSpec(dim=d, taps=taps, innovation_kind=CIRCULAR_GAUSSIAN,
                               innovation_std=std)
        got = generate_batch(spec, dims, shift, seeds)
        want = _complex_accumulation(spec, dims, shift, seeds)
        assert got.dtype == np.complex128
        assert _same_bits_where_nonzero(got, want)
        assert np.any(want) == (std > 0)


@pytest.mark.parametrize("coeff", [0.4 - 0.9j, 0.5j])
def test_complex_taps_keep_the_complex_filter(coeff):
    """One tap with an imaginary part sends the spec down the complex path:
    the cross terms Re a Im eps + Im a Re eps are in the imaginary part."""
    spec = LinearFieldSpec(dim=2, taps={(0, 0): 1.0, (1, 0): coeff, (0, -1): -0.6},
                           innovation_kind=CIRCULAR_GAUSSIAN, innovation_std=1.1)
    dims, shift, seeds = (5, 6), (3, -1), [7, 8]
    got = generate_batch(spec, dims, shift, seeds)
    assert _same_bits_where_nonzero(got, _complex_accumulation(spec, dims, shift, seeds))


def test_taps_are_read_only():
    """The lag table is cached on the spec, so a tap assigned afterwards would
    reach ``generate`` but not r(h); the assignment is refused instead."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN)
    assert autocovariance(spec, (0,)) == 2
    with pytest.raises(TypeError):
        spec.taps[(1,)] = 3.0
    with pytest.raises(TypeError):
        del spec.taps[(0,)]
    assert autocovariance(spec, (0,)) == 2
    assert dict(spec.taps) == {(0,): 1.0, (1,): 1.0}


@pytest.mark.parametrize("kind, coeff", [(REAL_GAUSSIAN, 0.5), (CIRCULAR_GAUSSIAN, 0.3 - 0.8j)])
def test_specs_pickle_and_deepcopy(kind, coeff):
    spec = first_axis_ma1(2, kind, 1.5, coeff)
    autocovariance(spec, (1, 0))  # the cached table must not get in the way
    want = generate_batch(spec, (6, 5), (1, -2), [3, 4]).tobytes()
    for twin in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert twin == spec and twin is not spec
        assert generate_batch(twin, (6, 5), (1, -2), [3, 4]).tobytes() == want
        with pytest.raises(TypeError):
            twin.taps[(0, 0)] = 2.0


@pytest.mark.parametrize("offset", [0, 16, 32, 48])
def test_batch_workspace_arrays_start_on_cache_lines(offset):
    """Wherever a buffer of ``_workspace_sizes`` bytes starts (at each 16-byte
    offset mod 64), the lattice, field and scratch carved from it each start
    on a 64-byte boundary, in order and apart: for the circular 64 x 64 box
    and for real 1-d boxes whose pair rows are 16 (V/2 + 1) = 16 mod 64
    bytes long."""
    circular = (first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5), (64, 64), [1, 7, 31])
    real = [(first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0), (v,), [1, 3])
            for v in (4096, 16384, 65536)]
    for spec, dims, batches in [circular] + real:
        box = BoxDims(dims)
        for rows in batches:
            sizes = fieldgen._workspace_sizes(spec, box, rows)
            raw = np.empty(sum(sizes) + 64, np.uint8)
            start = (offset - raw.ctypes.data) % 64
            buffer = raw[start:start + sum(sizes)]
            lattice, values, scratch = fieldgen._batch_workspace(spec, box, rows, buffer)
            assert [a.ctypes.data % 64 for a in (lattice, values, scratch)] == [0, 0, 0]
            assert [lattice.nbytes, values.nbytes] == sizes[:2]
            assert lattice.ctypes.data + lattice.nbytes <= values.ctypes.data
            assert values.ctypes.data + values.nbytes <= scratch.ctypes.data
            assert scratch.nbytes >= sizes[2] - 3 * 64
            if spec.is_real:
                assert lattice.strides[0] % 64 == 16
