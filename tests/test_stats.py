import hashlib
import json
import math

import numpy as np
import pytest
from scipy import stats as sps

from specfield import _util, stats
from specfield.domain import BoxDims, Frequency
from specfield.fieldgen import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN,
                                first_axis_ma1, spectral_density, white_noise)
from specfield.frequencies import FrequencyScheme
from specfield.stats import (cross_frequency_independence, g_functional,
                             ks_statistic, miller_check, run_clt_experiment)

EXACT_TOL = 1e-12


def scheme_for(base, m, delta, dims_seq, axis=0):
    return FrequencyScheme.separated(base, m, delta, axis,
                                     [BoxDims(d) for d in dims_seq])


def test_g_functional_values():
    assert g_functional([0.0, 0.0], [3 + 4j]) == 0.0
    assert g_functional([1.0, 0.0], [3 + 4j]) == 3.0
    assert g_functional([0.0, 1.0], [3 + 4j]) == 4.0
    assert g_functional([2.0, -1.0, 0.5, 0.0], [1 + 1j, 4 - 2j]) == 3.0


def test_g_functional_real_linear():
    rng = np.random.default_rng(11)
    w = rng.normal(size=6)
    z1 = rng.normal(size=3) + 1j * rng.normal(size=3)
    z2 = rng.normal(size=3) + 1j * rng.normal(size=3)
    a = 1.7
    lhs = g_functional(w, z1 + a * z2)
    rhs = g_functional(w, z1) + a * g_functional(w, z2)
    assert abs(lhs - rhs) < EXACT_TOL


def test_g_functional_length_mismatch():
    with pytest.raises(ValueError, match="two weights per complex entry"):
        g_functional([1.0, 0.0, 1.0], [1 + 1j, 2j])


def test_ks_single_sample_exact():
    # F(ln 2) = 1/2 under Exponential(1), so D = max(1 - 1/2, 1/2 - 0) = 1/2
    d, p = ks_statistic([math.log(2.0)], ("exponential", 1.0))
    assert d == 0.5
    assert 0.0 <= p <= 1.0


def test_ks_inverse_cdf_grid_is_tight():
    """Samples placed at the (i - 1/2)/n quantiles realize D = 1/(2n)."""
    n = 100
    u = (np.arange(1, n + 1) - 0.5) / n
    x_exp = -2.0 * np.log1p(-u)
    d, _ = ks_statistic(x_exp, ("exponential", 2.0))
    assert abs(d - 0.5 / n) < EXACT_TOL
    x_norm = sps.norm.ppf(u, loc=0.3, scale=1.5)
    d, _ = ks_statistic(x_norm, ("normal", 0.3, 2.25))
    assert abs(d - 0.5 / n) < 1e-9  # ppf is itself only ~1e-12 accurate


def test_ks_validation():
    with pytest.raises(ValueError, match="mean must be > 0"):
        ks_statistic([1.0], ("exponential", 0.0))
    with pytest.raises(ValueError, match="variance must be > 0"):
        ks_statistic([1.0], ("normal", 0.0, -1.0))
    with pytest.raises(ValueError, match="unknown distribution"):
        ks_statistic([1.0], ("uniform", 0.0, 1.0))
    with pytest.raises(ValueError, match="at least one"):
        ks_statistic([], ("exponential", 1.0))


def test_kolmogorov_pvalue_against_scipy():
    """The p-value is scipy's asymptotic two-sided KS p-value, for both nulls."""
    rng = np.random.default_rng(61)
    for n in (5, 40, 400):
        x = rng.exponential(1.5, size=n)
        _, p = ks_statistic(x, ("exponential", 1.5))
        want = sps.kstest(x, sps.expon(scale=1.5).cdf, method="asymp").pvalue
        assert abs(p - want) < EXACT_TOL
        y = rng.normal(0.3, 1.2, size=n)
        _, p = ks_statistic(y, ("normal", 0.3, 1.44))
        want = sps.kstest(y, sps.norm(loc=0.3, scale=1.2).cdf, method="asymp").pvalue
        assert abs(p - want) < EXACT_TOL


def test_cross_frequency_extremes():
    col = np.array([1.0, 2.0, 5.0, 3.0])
    dup = np.stack([col, col], axis=1)
    assert cross_frequency_independence(dup) == pytest.approx(1.0, abs=EXACT_TOL)
    anti = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert cross_frequency_independence(anti) == pytest.approx(1.0, abs=EXACT_TOL)


def test_cross_frequency_independent_streams():
    rng = np.random.default_rng(97)
    p = rng.exponential(scale=1.0, size=(10_000, 3))
    assert cross_frequency_independence(p) < 0.05


def test_cross_frequency_validation():
    with pytest.raises(ValueError, match="constant"):
        cross_frequency_independence(np.ones((5, 2)))
    with pytest.raises(ValueError):
        cross_frequency_independence(np.ones(5))
    with pytest.raises(ValueError):
        cross_frequency_independence(np.ones((5, 1)))


def test_clt_report_structure():
    spec = white_noise(2, CIRCULAR_GAUSSIAN, 1.0)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 16)])
    report = run_clt_experiment(spec, scheme, (16, 16), 200, 7)
    m = len(report.frequencies)
    assert m == 2
    assert report.dims == (16, 16)
    assert report.target_diagonal == 0.5
    assert report.covariance.shape == (2 * m, 2 * m)
    assert np.allclose(report.covariance, report.covariance.T, atol=EXACT_TOL)
    assert len(report.coordinate_ks) == 2 * m
    assert len(report.periodogram_ks) == m
    assert all(0.0 <= p <= 1.0 for _, p in report.coordinate_ks)
    assert all(0.0 <= p <= 1.0 for _, p in report.periodogram_ks)
    assert report.raw_sums.shape == (200, m)
    assert report.raw_periodograms.shape == (200, m)
    assert np.allclose(report.raw_periodograms,
                       np.abs(report.raw_sums) ** 2 / 256, atol=EXACT_TOL)
    doc = json.loads(report.to_json())
    assert doc["replications"] == 200
    assert "raw_sums" not in doc


def test_clt_iid_converges():
    spec = white_noise(2, CIRCULAR_GAUSSIAN, 1.0)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(32, 32)])
    report = run_clt_experiment(spec, scheme, (32, 32), 500, 321)
    # sample-covariance entries have standard error ~ (f/2) sqrt(2/R) = 0.03,
    # so 0.15 leaves a 5-sigma margin
    assert report.max_cov_error < 0.15
    assert all(p > 0.01 for _, p in report.coordinate_ks)
    assert all(p > 0.01 for _, p in report.periodogram_ks)
    assert report.max_cross_correlation < 0.2


def test_clt_determinism():
    spec = first_axis_ma1(1, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2,), 2, 0.25, [(64,)])
    a = run_clt_experiment(spec, scheme, (64,), 100, 42)
    b = run_clt_experiment(spec, scheme, (64,), 100, 42)
    assert a.to_json() == b.to_json()
    assert np.array_equal(a.raw_sums, b.raw_sums)
    c = run_clt_experiment(spec, scheme, (64,), 100, 43)
    assert not np.array_equal(a.raw_sums, c.raw_sums)


def test_clt_scale_equivariance():
    """Doubling the innovation scale quadruples every second moment exactly
    (scaling by a power of two commutes with rounding), and the KS
    statistics — computed from the matching rescaled null — do not move."""
    scheme = scheme_for((math.pi / 2,), 1, 0.25, [(64,)])
    base = run_clt_experiment(white_noise(1, CIRCULAR_GAUSSIAN, 1.0),
                              scheme, (64,), 150, 9)
    scaled = run_clt_experiment(white_noise(1, CIRCULAR_GAUSSIAN, 2.0),
                                scheme, (64,), 150, 9)
    assert np.array_equal(scaled.covariance, 4.0 * base.covariance)
    assert scaled.target_diagonal == 4.0 * base.target_diagonal
    assert scaled.coordinate_ks == base.coordinate_ks
    assert scaled.periodogram_ks == base.periodogram_ks


def test_clt_rejects_vanishing_density():
    # a zero-variance field has f = 0 exactly, at every frequency
    spec = white_noise(1, REAL_GAUSSIAN, 0.0)
    assert spectral_density(spec, (math.pi / 2,)) == 0.0
    scheme = scheme_for((math.pi / 2,), 1, 0.25, [(16,)])
    with pytest.raises(ValueError, match="vanishes"):
        run_clt_experiment(spec, scheme, (16,), 10, 0)
    with pytest.raises(ValueError, match="vanishes"):
        miller_check(spec, scheme, [1.0, 0.0], [(16,)], 10, 0)


def test_clt_rejects_few_replications():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    scheme = scheme_for((math.pi / 2,), 1, 0.25, [(16,)])
    with pytest.raises(ValueError, match="replications"):
        run_clt_experiment(spec, scheme, (16,), 1, 0)


def test_clt_report_independent_of_threads_and_chunks(monkeypatch):
    """One seed gives the same report bytes and raw sums at 1 and 2 worker
    threads, with one chunk or with the replications split into several."""
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 8)])
    chunk_counts = []
    run_chunked = stats.run_chunked

    def counting(chunks, task):
        chunk_counts.append(len(chunks))
        run_chunked(chunks, task)

    monkeypatch.setattr(stats, "run_chunked", counting)
    results = []
    for threads, chunk_bytes in [("1", _util._CHUNK_BYTES), ("2", _util._CHUNK_BYTES),
                                 ("1", 1 << 15), ("2", 1 << 15)]:
        monkeypatch.setenv("SPECFIELD_THREADS", threads)
        monkeypatch.setattr(_util, "_CHUNK_BYTES", chunk_bytes)
        report = run_clt_experiment(spec, scheme, (16, 8), 30, 17)
        results.append((report.to_json(), report.raw_sums.tobytes()))
    assert chunk_counts[:2] == [1, 1] and min(chunk_counts[2:]) >= 3
    assert all(r == results[0] for r in results[1:])


def test_miller_report_independent_of_threads_and_chunks(monkeypatch):
    """One seed gives the same miller report bytes at 1 and 2 worker threads,
    with one chunk or with the replications split into several."""
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    dims_seq = [(8, 6), (16, 8)]
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, dims_seq)
    chunk_counts = []
    run_chunked = stats.run_chunked

    def counting(chunks, task):
        chunk_counts.append(len(chunks))
        run_chunked(chunks, task)

    monkeypatch.setattr(stats, "run_chunked", counting)
    results = []
    for threads, chunk_bytes in [("1", _util._CHUNK_BYTES), ("2", _util._CHUNK_BYTES),
                                 ("1", 1 << 15), ("2", 1 << 15)]:
        monkeypatch.setenv("SPECFIELD_THREADS", threads)
        monkeypatch.setattr(_util, "_CHUNK_BYTES", chunk_bytes)
        report = miller_check(spec, scheme, [1.0, 0.5, -0.3, 0.8], dims_seq, 30, 23)
        results.append(report.to_json())
    assert len(json.loads(results[0])["rows"]) == 2
    assert chunk_counts[:4] == [1, 1, 1, 1] and min(chunk_counts[4:]) >= 3
    assert all(r == results[0] for r in results[1:])


def test_miller_rejects_few_replications():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    scheme = scheme_for((math.pi / 2,), 1, 0.25, [(16,)])
    with pytest.raises(ValueError, match="need at least 2 replications"):
        miller_check(spec, scheme, [1.0, 0.0], [(16,)], 1, 0)


def test_miller_iid_single_frequency():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    scheme = scheme_for((math.pi / 2,), 1, 0.25, [(64,)])
    report = miller_check(spec, scheme, [1.0, 0.0], [(64,)], 500, 77)
    row = report.rows[0]
    assert row.target == 0.5
    assert abs(row.estimate - row.target) < 3 * row.std_error + 1e-3
    assert row.discrepancy == abs(row.estimate - row.target)


def test_miller_zero_weights():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    scheme = scheme_for((math.pi / 2,), 1, 0.25, [(16,)])
    report = miller_check(spec, scheme, [0.0, 0.0], [(16,)], 20, 5)
    assert report.rows[0].estimate == 0.0
    assert report.rows[0].target == 0.0
    assert report.rows[0].std_error == 0.0


def test_miller_rows_and_determinism():
    spec = first_axis_ma1(1, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2,), 2, 0.25, [(16,), (64,)])
    report = miller_check(spec, scheme, [1.0, 1.0, 1.0, 1.0],
                          [(16,), (64,)], 100, 13)
    assert [row.index for row in report.rows] == [1, 2]
    assert [row.dims for row in report.rows] == [(16,), (64,)]
    again = miller_check(spec, scheme, [1.0, 1.0, 1.0, 1.0],
                         [(16,), (64,)], 100, 13)
    assert report.to_json() == again.to_json()


def test_miller_weight_length_mismatch():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    scheme = scheme_for((math.pi / 2,), 2, 0.25, [(16,)])
    with pytest.raises(ValueError, match="weights"):
        miller_check(spec, scheme, [1.0, 0.0], [(16,)], 10, 0)


# sha256 of to_json() plus raw_sums bytes (clt) or of to_json() (miller),
# recorded while real fields were carried as complex128 through the filter
@pytest.mark.parametrize("kind, digest", [
    (REAL_GAUSSIAN, "b56d3f480bdfc3aea17441c53324d786186b6443c8486c8e757a0975e6337e22"),
    (CIRCULAR_GAUSSIAN, "15af709998be64ed5445e787d61fb9a5f34cde1e3a557cb6824c209166f42105"),
], ids=["real", "circular"])
def test_clt_report_bytes_are_pinned(kind, digest):
    spec = first_axis_ma1(2, kind, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, 0.5), 2, 0.2, [(16, 16)])
    report = run_clt_experiment(spec, scheme, (16, 16), 200, 7)
    assert report.raw_sums.dtype == np.complex128
    blob = report.to_json().encode() + report.raw_sums.tobytes()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_miller_report_bytes_are_pinned():
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.5)
    dims = [(8, 8), (16, 16)]
    scheme = scheme_for((math.pi / 2, 0.5), 2, 0.2, dims)
    report = miller_check(spec, scheme, [1.0, 0.0, 0.5, -1.0], dims, 100, 3)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "1bf7399b0199f39490ce31a34523739cd0ac42121df0d3a35af8cd2a3d883d2c")


def test_clt_refuses_frequencies_close_across_pi():
    """pi - 0.01 and -pi + 0.01 are 0.02 apart on the circle, far inside the
    64^(-1/4) gap, so the scheme is refused with its witness pair."""
    box = BoxDims((64,))
    lam, mu = Frequency((math.pi - 0.01,)), Frequency((-math.pi + 0.01,))
    scheme = FrequencyScheme(base=lam, per_n=((lam, mu),), dims_sequence=(box,))
    with pytest.raises(ValueError, match=r"violate separation at pair \(1, 2\)"):
        run_clt_experiment(white_noise(1, CIRCULAR_GAUSSIAN, 1.0), scheme, box, 50, 1)
