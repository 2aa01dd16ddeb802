import ctypes
import functools
import glob
import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

import test_blocking

from specfield import _util, fieldgen, stats
from specfield.domain import BoxDims, Frequency
from specfield.fieldgen import _workspace_sizes, draw_innovations, replication_seeds
from specfield.frequencies import FrequencyScheme
from specfield.model import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN, first_axis_ma1, spectral_density,
                             white_noise)
from specfield.periodogram import _row_sums
from specfield.spectral import sum_covariance
from specfield.stats import (cross_frequency_independence, g_functional,
                             ks_statistic, miller_check, negligibility_report,
                             run_clt_experiment)

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


def test_g_functional_batch_matches_rows():
    """An (R, m) batch gives one G per row, equal to the 1-d value of that
    row up to rounding (a matrix-vector product against per-row dots)."""
    rng = np.random.default_rng(5)
    w = rng.normal(size=6)
    z = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    batch = g_functional(w, z)
    rows = np.array([g_functional(w, row) for row in z])
    assert batch.shape == (40,)
    np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=0.0)
    with pytest.raises(ValueError, match="two weights per complex entry"):
        g_functional(w[:4], z)


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


@pytest.mark.parametrize("samples, cdf, match", [
    ([math.nan, 1.0], ("exponential", 1.0), "samples must be finite"),
    ([1.0, -math.inf], ("normal", 0.0, 1.0), "samples must be finite"),
    ([1.0], ("exponential", math.nan), "exponential mean"),
    ([1.0], ("exponential", math.inf), "exponential mean"),
    ([1.0], ("normal", math.nan, 1.0), "normal mean"),
    ([1.0], ("normal", -math.inf, 1.0), "normal mean"),
    ([1.0], ("normal", 0.0, math.inf), "normal variance"),
    ([1.0], ("normal", 0.0, math.nan), "normal variance"),
])
def test_ks_refuses_non_finite_inputs(samples, cdf, match):
    """A non-finite sample, mean or variance is refused by name, never
    answered with (nan, nan) or a p-value of a degenerate null."""
    with pytest.raises(ValueError, match=match):
        ks_statistic(samples, cdf)


def test_kolmogorov_series_against_scipy():
    """Both series of the Kolmogorov tail agree with ``scipy.special.kolmogorov``
    to 1e-14, from t <= 0 across the cutover at t = 1 out to where it is 0."""
    one = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
    t = np.concatenate([np.linspace(-1.0, 30.0, 62_001), one, [np.inf]])
    ours = np.array([stats._kolmogorov_sf(float(v)) for v in t])
    np.testing.assert_allclose(ours, special.kolmogorov(t), rtol=0.0, atol=1e-14)
    assert ours[t <= 0.0].tolist() == [1.0] * int(np.sum(t <= 0.0))
    assert ours[t >= 20.0].tolist() == [0.0] * int(np.sum(t >= 20.0))


def test_normal_cdf_matches_erfc():
    """The normal CDF is 0.5 erfc(z) at z = -x / sqrt 2 from ``math.erfc``:
    within 2 ulp of mpmath's erfc at that z wherever the value is a normal
    float, and within 2 ulp of 1 of scipy's, whose erfc is up to about 20 ulp
    off in the lower tail."""
    x = np.linspace(-37.0, 9.0, 4_601)
    z = -x / math.sqrt(2.0)
    ours = stats._normal_cdf(x)
    exact = np.array([float(mpmath.erfc(mpmath.mpf(float(v))) / 2) for v in z])
    np.testing.assert_array_max_ulp(ours, exact, maxulp=2)
    np.testing.assert_allclose(ours, 0.5 * special.erfc(z), rtol=0.0,
                               atol=2 * np.finfo(float).eps)
    assert stats._normal_cdf(x[:4_600].reshape(46, 100), 0.3, 2.25).shape == (46, 100)


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


def test_sample_covariance_matches_numpy():
    """The fixed-order covariance is exactly symmetric and agrees with
    ``np.cov`` to rounding; the largest cross correlation agrees with
    ``np.corrcoef``'s."""
    rng = np.random.default_rng(4)
    x = rng.exponential(scale=1.0, size=(500, 4))
    x[:, 1] += 0.5 * x[:, 0]
    cov = stats._sample_covariance(x)
    assert np.array_equal(cov, cov.T)
    assert np.allclose(cov, np.cov(x, rowvar=False), rtol=1e-12, atol=0)
    corr = np.corrcoef(x, rowvar=False)
    want = np.max(np.abs(corr[~np.eye(4, dtype=bool)]))
    assert cross_frequency_independence(x) == pytest.approx(want, rel=1e-12)


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
    # the same S as each replication's innovation row summed against the
    # report's innovation grids, bit for bit
    box = BoxDims((16, 16))
    grids = [stats._innovation_grid(spec, box, lam) for lam in report.frequencies]
    rows = draw_innovations(spec, box, None, replication_seeds(7, 200))
    sums = np.array([_row_sums(row.ravel(), grids) for row in rows])
    assert sums.tobytes() == report.raw_sums.tobytes()
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


def replication_bytes(spec, dims):
    """The workspace bytes of one clt or miller replication: its lattice row,
    which it sums with no field row."""
    lattice, values, _ = _workspace_sizes(spec, BoxDims(dims), 1, field=False)
    return lattice + values


def batch_budgets(spec):
    """One replication a batch, four of the 16 x 8 box, and a worker's whole
    share, each at 1 and at 2 workers."""
    four = 4 * replication_bytes(spec, (16, 8))
    return [("1", 1), ("2", 1), ("1", four), ("2", four), ("1", 1 << 40), ("2", 1 << 40)]


def test_clt_report_independent_of_threads_and_chunks(monkeypatch, drawn_fields):
    """One seed gives the same report bytes and raw sums at 1 and 2 workers,
    with one replication a batch, several, or a worker's whole share; the
    report makes one runner call of one task a batch."""
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 8)])
    batch_counts, draws = [], []
    run_chunked = stats.run_chunked

    def counting(batches, task):
        batch_counts.append(len(batches))
        return run_chunked(batches, task)

    monkeypatch.setattr(stats, "run_chunked", counting)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    results = []
    for threads, batch_bytes in batch_budgets(spec):
        monkeypatch.setenv("SPECFIELD_THREADS", threads)
        monkeypatch.setattr(_util, "_BATCH_BYTES", batch_bytes)
        drawn_fields.clear()
        report = run_clt_experiment(spec, scheme, (16, 8), 30, 17)
        draws.append(len(drawn_fields.records()))
        results.append((report.to_json(), report.raw_sums.tobytes()))
    assert batch_counts == [30, 30, 8, 8, 1, 2]
    assert draws == [30, 30, 8, 8, 1, 2]
    assert all(r == results[0] for r in results[1:])


def test_miller_report_independent_of_threads_and_chunks(monkeypatch, drawn_fields):
    """One seed gives the same miller report bytes at 1 and 2 workers, with
    one replication a batch, several, or a worker's whole share; both dims
    entries go to one runner call, one task a batch."""
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    dims_seq = [(8, 6), (16, 8)]
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, dims_seq)
    batch_counts, draws = [], []
    run_chunked = stats.run_chunked

    def counting(batches, task):
        batch_counts.append(len(batches))
        return run_chunked(batches, task)

    monkeypatch.setattr(stats, "run_chunked", counting)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    results = []
    for threads, batch_bytes in batch_budgets(spec):
        monkeypatch.setenv("SPECFIELD_THREADS", threads)
        monkeypatch.setattr(_util, "_BATCH_BYTES", batch_bytes)
        drawn_fields.clear()
        report = miller_check(spec, scheme, [1.0, 0.5, -0.3, 0.8], dims_seq, 30, 23)
        draws.append(len(drawn_fields.records()))
        results.append(report.to_json())
    assert len(json.loads(results[0])["rows"]) == 2
    assert batch_counts == [60, 60, 11, 11, 2, 4]
    # at the middle budget the 48-site box holds 10 replications a batch
    assert draws == [60, 60, 3 + 8, 3 + 8, 2, 4]
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("threads, batch_bytes", [("1", 1), ("2", 1), ("1", 1 << 40),
                                                 ("2", 1 << 40)])
def test_only_the_negligibility_report_filters_a_field(monkeypatch, tmp_path, drawn_fields,
                                                       threads, batch_bytes):
    """The clt and miller reports sum each innovation row against grids built
    once per (box, frequency) of the report, and never reach the filter; the
    negligibility report, which truncates |X_k|, filters every batch it draws
    and builds no innovation grid.  At one replication a batch and at a
    worker's whole share, at 1 and 2 workers."""
    log = tmp_path / "calls.txt"
    filter_batch, innovation_grid = fieldgen._filter_batch, stats._innovation_grid

    def note(line):
        with open(log, "a") as fh:
            fh.write(line + "\n")

    def filtering(*args, **kwargs):
        note("filter")
        return filter_batch(*args, **kwargs)

    def building(spec, box, lam):
        note(f"grid {box.v} {tuple(lam)}")
        return innovation_grid(spec, box, lam)

    def calls():
        """The calls logged since the last look, and the batches drawn."""
        lines = log.read_text().splitlines() if log.exists() else []
        draws = len(drawn_fields.records())
        log.write_text("")
        drawn_fields.clear()
        return sorted(lines), draws

    monkeypatch.setattr(fieldgen, "_filter_batch", filtering)
    monkeypatch.setattr(stats, "_innovation_grid", building)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", threads)
    monkeypatch.setattr(_util, "_BATCH_BYTES", batch_bytes)
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.5)
    dims_seq = [(8, 6), (16, 8)]
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, dims_seq)

    def grids(*boxes):
        return sorted(f"grid {box} {tuple(lam)}" for box in boxes
                      for lam in scheme.freqs_for(BoxDims(box)))

    batches = 20 if batch_bytes == 1 else int(threads)
    run_clt_experiment(spec, scheme, (16, 8), 20, 17)
    assert calls() == (grids((16, 8)), batches)
    miller_check(spec, scheme, [1.0, 0.5, -0.3, 0.8], dims_seq, 20, 23)
    assert calls() == (grids(*dims_seq), 2 * batches)
    line = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    scheme = test_blocking.make_scheme(2, 0.25, [(64,), (128,)])
    negligibility_report(line, scheme, [(64,), (128,)], 0.2, [1.0, -0.5, 0.3, 2.0], 20, 23)
    assert calls() == (["filter"] * 2 * batches, 2 * batches)


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


def test_miller_estimate_is_the_mean_of_g_over_root_v_squared():
    """A row's estimate and standard error are those of (G(b, S) / sqrt(V))^2
    over its draws, bit for bit, on a box whose volume is not a square; each
    S is ``_row_sums`` of a draw's innovation row against its innovation grids."""
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    box = BoxDims((8, 6))
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [box.v])
    weights = [1.0, 0.5, -0.3, 0.8]
    row, = miller_check(spec, scheme, weights, [box.v], 400, 23).rows
    seeds = replication_seeds(replication_seeds(23, 1, offset=1)[0], 400)
    grids = [stats._innovation_grid(spec, box, lam) for lam in scheme.freqs_for(box)]
    sums = np.array([_row_sums(eps.ravel(), grids)
                     for eps in draw_innovations(spec, box, None, seeds)])
    g_sq = (g_functional(weights, sums) / math.sqrt(48)) ** 2
    assert (row.estimate, row.std_error) == (g_sq.mean(), g_sq.std(ddof=1) / math.sqrt(400))


@pytest.mark.parametrize("weights", [[1.0, math.nan, 0.0, 1.0], [1.0, 0.0, math.inf, 1.0],
                                     [[1.0, 0.0], [1.0, 0.0]]], ids=["nan", "inf", "2d"])
def test_reports_refuse_weights_that_are_not_finite_or_not_one_dimensional(weights):
    """Weights are refused by name before any draw: a NaN or infinity would
    reach the report's means, and 2-d weights would reach ``g_functional``."""
    spec = white_noise(1, REAL_GAUSSIAN, 1.0)
    scheme = scheme_for((math.pi / 2,), 2, 0.25, [(64,)])
    message = "^weights must be finite reals in one dimension, got "
    with pytest.raises(ValueError, match=message):
        miller_check(spec, scheme, weights, [(64,)], 10, 0)
    with pytest.raises(ValueError, match=message):
        negligibility_report(spec, scheme, [(64,)], 0.2, weights, 10, 0)


def test_miller_weight_length_mismatch():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    scheme = scheme_for((math.pi / 2,), 2, 0.25, [(16,)])
    with pytest.raises(ValueError, match="weights"):
        miller_check(spec, scheme, [1.0, 0.0], [(16,)], 10, 0)


# sha256 of to_json() plus raw_sums bytes (clt) or of to_json() (miller),
# recorded on innovation stream 5 with every S summed by
# ``periodogram._row_sums`` (of the innovation row against its innovation
# grids), the covariances reduced by ``np.add.reduce``, and the clt KS
# statistics from ``math.erfc`` and the Kolmogorov series
CLT_DIGESTS = {"real": "120c0ea745fd15aa8918ac2a910245a9b31f6c95babf49559a3dbcd15a36145d",
               "circular": "dd67faa3a0abb6182cec6e43a8cc339dba4cdae5a9438e8093949354fa6b1d92"}
MILLER_DIGEST = "42d47c488d9ebe31c404fc797b3711cdd037552d8055b06b36c0b665baec6780"


def clt_digest(kind):
    """sha256 of a pinned clt report on a real or a circular field."""
    spec = first_axis_ma1(2, {"real": REAL_GAUSSIAN, "circular": CIRCULAR_GAUSSIAN}[kind],
                          1.0, 0.5)
    scheme = scheme_for((math.pi / 2, 0.5), 2, 0.2, [(16, 16)])
    report = run_clt_experiment(spec, scheme, (16, 16), 200, 7)
    assert report.raw_sums.dtype == np.complex128
    return hashlib.sha256(report.to_json().encode() + report.raw_sums.tobytes()).hexdigest()


def miller_digest():
    """sha256 of a pinned 2-entry miller report."""
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.5)
    dims = [(8, 8), (16, 16)]
    scheme = scheme_for((math.pi / 2, 0.5), 2, 0.2, dims)
    report = miller_check(spec, scheme, [1.0, 0.0, 0.5, -1.0], dims, 100, 3)
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.mark.parametrize("kind", ["real", "circular"])
def test_clt_report_bytes_are_pinned(kind):
    assert clt_digest(kind) == CLT_DIGESTS[kind]


def test_miller_report_bytes_are_pinned():
    assert miller_digest() == MILLER_DIGEST


PINNED_DIGESTS = {"clt-real": CLT_DIGESTS["real"], "clt-circular": CLT_DIGESTS["circular"],
                  "miller": MILLER_DIGEST, "negligibility": test_blocking.NEGLIGIBILITY_DIGEST}


def pinned_digests():
    """Each report of ``PINNED_DIGESTS`` recomputed, by name."""
    return {"clt-real": clt_digest("real"), "clt-circular": clt_digest("circular"),
            "miller": miller_digest(), "negligibility": test_blocking.negligibility_digest()}


def openblas_core():
    """The kernel core of numpy's bundled OpenBLAS, or None where numpy bundles none."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    corename = libs and getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None)
    if not corename:
        return None
    corename.restype = ctypes.c_char_p
    return corename().decode()


@functools.cache
def _digests_on_core(core):
    """(core, ``pinned_digests()``) from a child process whose OpenBLAS is told
    to take ``core``; the core is the one it really took."""
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(sys.path))
    probe = ("import json, test_stats as t; "
             "print(json.dumps([t.openblas_core(), t.pinned_digests()]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
@pytest.mark.parametrize("report", list(PINNED_DIGESTS))
def test_report_bytes_do_not_depend_on_the_blas_core(report, core):
    """Each pinned report, recomputed in a child process whose OpenBLAS is
    forced onto another kernel core, has its one pinned digest; skipped by
    name where the host's OpenBLAS does not take the setting."""
    ran, digests = _digests_on_core(core)
    if ran in (None, openblas_core()):
        pytest.skip(f"OPENBLAS_CORETYPE={core} is not taken here: the core stays {ran}")
    assert digests[report] == PINNED_DIGESTS[report]


def test_clt_refuses_frequencies_close_across_pi():
    """pi - 0.01 and -pi + 0.01 are 0.02 apart on the circle, far inside the
    64^(-1/4) gap, so the scheme is refused with its witness pair."""
    box = BoxDims((64,))
    lam, mu = Frequency((math.pi - 0.01,)), Frequency((-math.pi + 0.01,))
    scheme = FrequencyScheme(base=lam, per_n=((lam, mu),), dims_sequence=(box,))
    with pytest.raises(ValueError, match=r"violate separation at pair \(1, 2\)"):
        run_clt_experiment(white_noise(1, CIRCULAR_GAUSSIAN, 1.0), scheme, box, 50, 1)


@pytest.mark.parametrize("kind, coeff", [(REAL_GAUSSIAN, 0.8), (CIRCULAR_GAUSSIAN, 0.6 - 0.5j)])
def test_clt_covariance_matches_exact_sum_covariance(kind, coeff):
    """The sums of a Gaussian field are exactly Gaussian, so the sample
    covariance of R draws is Wishart around the exact finite-box matrix:
    Var(C_ij) = (S_ij^2 + S_ii S_jj) / (R - 1).  Unlike the limit diag(f/2),
    that target carries no finite-V bias, so 5 SEs hold entrywise."""
    spec = first_axis_ma1(2, kind, 1.0, coeff)
    dims = (12, 10)
    scheme = scheme_for((1.1, 0.4), 3, 0.2, [dims])
    report = run_clt_experiment(spec, scheme, dims, 2000, 8080)
    exact = sum_covariance(spec, scheme.freqs_for(BoxDims(dims)), dims)
    diag = np.diag(exact)
    se = np.sqrt((exact ** 2 + np.outer(diag, diag)) / (report.replications - 1))
    assert np.all(np.abs(report.covariance - exact) < 5 * se)


@pytest.mark.parametrize("kind, coeff", [(REAL_GAUSSIAN, 0.8), (CIRCULAR_GAUSSIAN, 0.6 - 0.5j)])
def test_miller_estimate_matches_exact_weighted_moment(kind, coeff):
    """E G(b, S)^2 / V is exactly b' Sigma b at every finite box, with Sigma
    from ``sum_covariance``; each row's Monte Carlo mean lies within 4 of
    its standard errors of it."""
    spec = first_axis_ma1(2, kind, 1.0, coeff)
    dims_seq = [(8, 6), (12, 10)]
    scheme = scheme_for((-1.0, 0.4), 3, 0.2, dims_seq)
    weights = np.array([1.0, -0.5, 0.3, 0.8, -1.2, 0.4])
    report = miller_check(spec, scheme, weights, dims_seq, 2000, 9090)
    for row, dims in zip(report.rows, dims_seq):
        exact = sum_covariance(spec, scheme.freqs_for(BoxDims(dims)), dims)
        assert abs(row.estimate - weights @ exact @ weights) < 4 * row.std_error


def test_real_clt_refuses_lambda_against_minus_mu():
    """Real MA(1), v = 64, lambda = 1 and mu = -1: S(mu) = conj S(lambda), so
    the pair is one ordinate twice and is refused with its witness; the same
    frequencies are distinct ordinates of a circular field."""
    box = BoxDims((64,))
    lam, mu = Frequency((1.0,)), Frequency((-1.0,))
    scheme = FrequencyScheme(base=lam, per_n=((lam, mu),), dims_sequence=(box,))
    with pytest.raises(ValueError, match=r"violate separation at pair \(1, 2\) against -mu"):
        run_clt_experiment(first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 0.5), scheme, box, 50, 1)
    report = run_clt_experiment(first_axis_ma1(1, CIRCULAR_GAUSSIAN, 1.0, 0.5), scheme,
                                box, 50, 1)
    assert report.replications == 50


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kind", [REAL_GAUSSIAN, CIRCULAR_GAUSSIAN])
def test_clt_chunks_reuse_one_workspace_per_worker(monkeypatch, drawn_fields, kind, threads):
    spec = first_axis_ma1(2, kind, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 8)])
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", threads)
    # 5 replications a batch, 8 batches
    monkeypatch.setattr(_util, "_BATCH_BYTES", 5 * replication_bytes(spec, (16, 8)))
    run_clt_experiment(spec, scheme, (16, 8), 40, 17)
    assert len(drawn_fields.records()) == 8
    drawn_fields.assert_one_workspace_per_worker(int(threads))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", [REAL_GAUSSIAN, CIRCULAR_GAUSSIAN])
def test_replication_peak_is_one_chunk_workspace_per_worker(monkeypatch, kind, threads):
    """Under tracemalloc a call's peak stays within one batch's workspace,
    the results and a fixed slack (the lattice's block scratch and the
    filter's product rows), though it runs 5 batches.  Forked workers run
    the same batch code outside this process's trace, which then holds
    little more than the results."""
    spec = first_axis_ma1(2, kind, 1.0, 0.5)
    dims = (128, 64)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [dims])
    budget = 8 << 20
    monkeypatch.setattr(_util, "_CHUNK_BYTES", budget)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", str(threads))
    replications = 100  # 21 a batch
    # the pool's modules, imported before the trace starts
    import multiprocessing.connection  # noqa: F401
    import multiprocessing.popen_fork  # noqa: F401
    import multiprocessing.sharedctypes  # noqa: F401
    tracemalloc.start()
    try:
        run_clt_experiment(spec, scheme, dims, replications, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    results = 16 * replications * 2 * 8
    workspace = budget + (2 << 20) if threads == 1 else 0
    assert peak < workspace + results + (1 << 20), peak


def test_replication_over_the_chunk_budget_is_refused_first():
    """One replication needing more than the chunk budget is refused, by
    name, before the field or its phase grids are allocated."""
    dims = (2_000_000,)
    scheme = scheme_for((math.pi / 2,), 2, 0.25, [dims])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="one replication of the 2000000-site box needs "
                                             "96000000 bytes, .* up to 1398101 sites fit"):
            run_clt_experiment(white_noise(1, CIRCULAR_GAUSSIAN, 1.0), scheme, dims, 50, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_replication_batches_split_the_replications_in_order(monkeypatch, workers):
    """Each entry's batches cover range(R) in order, in entry order; none holds
    more than the batch budget or ceil(R / workers) replications, and there
    are at least min(R, workers) of them."""
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    box, freqs = BoxDims((16, 8)), [Frequency((math.pi / 2, math.pi / 2))]
    monkeypatch.setattr(_util, "usable_cpus", lambda: workers)
    monkeypatch.setenv("SPECFIELD_THREADS", str(workers))
    calls = []

    def in_process(batches, task):
        calls.append(batches)
        return [task(*batch) for batch in batches]

    monkeypatch.setattr(stats, "run_chunked", in_process)
    for budget in (5, 1 << 40):
        monkeypatch.setattr(_util, "_BATCH_BYTES", budget * replication_bytes(spec, (16, 8)))
        for total in (2, 3, 7, 8, 100, 4001):
            calls.clear()
            stats._replicated_sums(spec, [stats._entry(spec, box, freqs, replication_seeds(1, r))
                                          for r in (total, 3)])
            (batches,) = calls
            assert [k for k, _, _ in batches] == sorted(k for k, _, _ in batches)
            for k, r in enumerate((total, 3)):
                bounds = [(lo, hi) for j, lo, hi in batches if j == k]
                assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
                assert bounds[-1][1] == r
                sizes = [hi - lo for lo, hi in bounds]
                assert min(sizes) >= 1 and max(sizes) <= min(budget, -(-r // workers))
                assert len(bounds) >= min(r, workers)


def test_replication_batch_fills_the_budget(monkeypatch):
    """A batch holds max(1, budget // bytes per replication) replications,
    so one over the budget runs alone; only one replication over the chunk
    budget is refused."""
    spec, seeds = white_noise(1, REAL_GAUSSIAN, 1.0), replication_seeds(1, 2)
    # at the default workspace of 3, a replication is charged 48 bytes a site
    stats._entry(spec, BoxDims((_util._CHUNK_BYTES // 48,)), [], seeds)
    with pytest.raises(ValueError, match="over the 67108864-byte chunk budget"):
        stats._entry(spec, BoxDims((_util._CHUNK_BYTES // 48 + 1,)), [], seeds)
    monkeypatch.setattr(_util, "_BATCH_BYTES", 1000)
    rows = []
    for b in (1, 16, 80, 500, 501, 1000, 1001, 10 ** 9):
        # a replication of b bytes: a lattice row of b bytes and no field row
        monkeypatch.setattr(stats, "_workspace_sizes", lambda spec, box, n, field: [b * n, 0, 0])
        rows.append(stats._entry(spec, BoxDims((8,)), [], seeds).rows)
    assert rows == [1000, 62, 12, 2, 1, 1, 1, 1]


def test_miller_refuses_an_entry_outside_its_scheme_before_any_draw(drawn_fields):
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(8, 6)])
    with pytest.raises(ValueError, match=r"dims \(16, 8\) not part of this scheme"):
        miller_check(spec, scheme, [1.0, 0.5, -0.3, 0.8], [(8, 6), (16, 8)], 30, 23)
    assert drawn_fields.records() == []


def test_miller_on_an_empty_dims_sequence_has_no_rows():
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(8, 6)])
    assert miller_check(spec, scheme, [1.0, 0.5, -0.3, 0.8], [], 30, 23).rows == ()


def test_repeated_reports_keep_their_peak():
    """In one fresh interpreter at 1 worker, three clt reports on a 64 x 64
    box at R = 700 leave the peak RSS within 8 MiB of the first report's:
    each report reuses a batch-sized workspace, so no report's chunk buffers
    pile up in the heap."""
    code = """if True:
        import math, resource
        from specfield.domain import BoxDims
        from specfield.frequencies import FrequencyScheme
        from specfield.model import CIRCULAR_GAUSSIAN, first_axis_ma1
        from specfield.stats import run_clt_experiment
        spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
        scheme = FrequencyScheme.separated((math.pi / 2, 0.5), 2, 0.2, 0, [BoxDims((64, 64))])
        for seed in range(3):
            run_clt_experiment(spec, scheme, (64, 64), 700, seed)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """
    env = {k: v for k, v in os.environ.items() if k != "SPECFIELD_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    first, _, third = map(int, proc.stdout.split())  # KiB
    assert third - first < 8 << 10, proc.stdout


def test_workers_never_share_a_workspace(monkeypatch, drawn_fields, count_started):
    """Four forked workers, and no more, draw 20 batches into their own buffers: the sums equal a one-worker run's bit for bit, every batch
    ran in a child, and each child kept one buffer."""
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 8)])
    monkeypatch.setattr(_util, "_BATCH_BYTES", 2 * replication_bytes(spec, (16, 8)))
    want = run_clt_experiment(spec, scheme, (16, 8), 40, 29).raw_sums
    drawn_fields.clear()
    started = count_started(4)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 4)
    monkeypatch.setenv("SPECFIELD_THREADS", "4")
    got = run_clt_experiment(spec, scheme, (16, 8), 40, 29).raw_sums
    assert got.tobytes() == want.tobytes()
    assert len(drawn_fields.records()) == 20
    drawn_fields.assert_one_workspace_per_worker(4)
    assert len(started) == 4


def test_workers_exit_with_the_call_and_pass_errors_on(monkeypatch):
    """No worker process outlives a 2-worker report, nor one whose worker
    raised; that worker's error reaches the caller with its type and message."""
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 8)])
    monkeypatch.setenv("SPECFIELD_THREADS", "2")
    # 5 replications a batch, 8 batches
    monkeypatch.setattr(_util, "_BATCH_BYTES", 5 * replication_bytes(spec, (16, 8)))
    run_clt_experiment(spec, scheme, (16, 8), 40, 17)
    assert multiprocessing.active_children() == []

    def failing(*args, **kwargs):
        raise ValueError(f"draw failed in process {os.getpid()}")

    monkeypatch.setattr(stats, "draw_innovations", failing)
    with pytest.raises(ValueError, match=r"^draw failed in process \d+$") as caught:
        run_clt_experiment(spec, scheme, (16, 8), 40, 17)
    assert str(os.getpid()) not in str(caught.value)
    assert multiprocessing.active_children() == []


def _refuse_the_third(index):
    if index == 2:
        raise ValueError(f"batch {index} refused")
    return index


def test_a_worker_error_carries_the_worker_traceback(monkeypatch):
    """A 4-batch call at 2 workers whose task raises: the caller's error keeps
    its one-line message, and its traceback names the task, from the
    worker's frames that it gives as the error's cause."""
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", "2")
    with pytest.raises(ValueError, match="^batch 2 refused$") as caught:
        _util.run_chunked([(k,) for k in range(4)], _refuse_the_third)
    assert "in _refuse_the_third" in "".join(traceback.format_exception(caught.value))
    assert multiprocessing.active_children() == []


def test_an_error_ends_the_call_while_a_worker_holds_its_sums(monkeypatch):
    """At 2 workers, the worker of the last batch fails at once while the
    other, slowed on the batch before, will hold 80,000 bytes of sums, more
    than a pipe buffers: the error reaches the caller within seconds, and no
    worker is left."""
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 8)])
    # 2,500 replications of 32 bytes of sums a batch: batches end at 2,500, 5,000, 7,500, 8,000
    monkeypatch.setattr(_util, "_BATCH_BYTES", 2500 * replication_bytes(spec, (16, 8)))
    run_chunked = stats.run_chunked

    def failing_last(batches, task):
        def task_or_fail(k, lo, hi):
            if hi == 8000:
                raise ValueError("the last batch failed")
            if hi == 7500:
                time.sleep(0.5)
            return task(k, lo, hi)

        return run_chunked(batches, task_or_fail)

    def too_long(signum, frame):
        pytest.fail("the call still runs after 20 s")

    monkeypatch.setattr(stats, "run_chunked", failing_last)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", "2")
    previous = signal.signal(signal.SIGALRM, too_long)
    signal.alarm(20)
    try:
        with pytest.raises(ValueError, match="^the last batch failed$"):
            run_clt_experiment(spec, scheme, (16, 8), 8000, 17)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def test_a_two_worker_report_starts_no_thread(monkeypatch):
    """The pool forks from a single-threaded caller: a 2-worker report starts
    no thread in this process, and its sums are a one-worker run's."""
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 8)])
    # 5 replications a batch, 8 batches
    monkeypatch.setattr(_util, "_BATCH_BYTES", 5 * replication_bytes(spec, (16, 8)))
    want = run_clt_experiment(spec, scheme, (16, 8), 40, 17).raw_sums
    started = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", "2")
    got = run_clt_experiment(spec, scheme, (16, 8), 40, 17).raw_sums
    assert started == []
    assert got.tobytes() == want.tobytes()


def test_workers_never_outnumber_the_chunks(monkeypatch, count_started):
    """SPECFIELD_THREADS=8 on 3 replications, so 3 batches, forks at most 3
    workers, and the sums equal a one-worker run's."""
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 8)])
    want = run_clt_experiment(spec, scheme, (16, 8), 3, 17).raw_sums
    started = count_started(3)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 8)
    monkeypatch.setenv("SPECFIELD_THREADS", "8")
    got = run_clt_experiment(spec, scheme, (16, 8), 3, 17).raw_sums
    assert got.tobytes() == want.tobytes()
    assert 2 <= len(started) <= 3
    assert multiprocessing.active_children() == []


def test_workers_never_outnumber_the_usable_cpus(monkeypatch, count_started):
    """SPECFIELD_THREADS=1000000 on 40 replications, on 2 usable CPUs, forks 2
    workers, and the sums equal a one-worker run's."""
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 8)])
    want = run_clt_experiment(spec, scheme, (16, 8), 40, 17).raw_sums
    started = count_started(2)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", "1000000")
    got = run_clt_experiment(spec, scheme, (16, 8), 40, 17).raw_sums
    assert got.tobytes() == want.tobytes()
    assert len(started) == 2
    assert multiprocessing.active_children() == []


def test_an_oversized_setting_splits_by_the_usable_cpus(monkeypatch, count_started):
    """A circular clt report at R = 4,000 under SPECFIELD_THREADS=1000000, on 2
    usable CPUs, makes one runner call of 3 budget-sized batches, not 4,000
    one-replication batches, and its raw sums are a one-worker run's bytes."""
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 8)])
    want = run_clt_experiment(spec, scheme, (16, 8), 4000, 5).raw_sums
    batch_counts = []
    run_chunked = stats.run_chunked

    def counting(batches, task):
        batch_counts.append(len(batches))
        return run_chunked(batches, task)

    monkeypatch.setattr(stats, "run_chunked", counting)
    started = count_started(2)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", "1000000")
    got = run_clt_experiment(spec, scheme, (16, 8), 4000, 5).raw_sums
    assert batch_counts == [3]
    assert got.tobytes() == want.tobytes()
    assert len(started) == 2


def test_a_slowed_worker_leaves_its_share_to_the_free_one(monkeypatch, drawn_fields, tmp_path):
    """At 2 workers and 8 batches, the task of batch 0 sleeps 0.3 s before it
    draws: the pool hands the other batches to the free worker, so the
    slowed one draws at most 2 of them, and the sums are a one-worker run's."""
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.5)
    scheme = scheme_for((math.pi / 2, math.pi / 2), 2, 0.25, [(16, 8)])
    # 5 replications a batch, 8 batches
    monkeypatch.setattr(_util, "_BATCH_BYTES", 5 * replication_bytes(spec, (16, 8)))
    want = run_clt_experiment(spec, scheme, (16, 8), 40, 17).raw_sums
    drawn_fields.clear()
    slowed = tmp_path / "slowed.txt"
    run_chunked = stats.run_chunked

    def slowing(batches, task):
        def slow_first(k, lo, hi):
            if lo == 0:
                slowed.write_text(str(os.getpid()))
                time.sleep(0.3)
            return task(k, lo, hi)

        return run_chunked(batches, slow_first)

    monkeypatch.setattr(stats, "run_chunked", slowing)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", "2")
    got = run_clt_experiment(spec, scheme, (16, 8), 40, 17).raw_sums
    assert got.tobytes() == want.tobytes()
    pids = [pid for pid, *_ in drawn_fields.records()]
    assert len(pids) == 8 and int(slowed.read_text()) != os.getpid()
    assert pids.count(int(slowed.read_text())) <= 2, pids


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    """The CPUs in this process's affinity mask, or os.cpu_count() where the
    OS has no such mask."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert _util.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert _util.usable_cpus() == 6
