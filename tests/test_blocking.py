import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from specfield import _util, bernstein, fieldgen, rng, stats
from specfield.bernstein import BlockingPlan, IndexSlab, MixingProfile, block_index_sets, plan
from specfield.domain import BoxDims, Frequency
from specfield.fieldgen import _workspace_sizes, generate, generate_batch, replication_seeds
from specfield.frequencies import FrequencyScheme
from specfield.mixing import dependence_profile
from specfield.model import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN, FieldSample, LinearFieldSpec,
                             first_axis_ma1, white_noise)
from specfield.periodogram import batched_modulated_sums, index_products, phase_grid
from specfield.stats import negligibility_report, truncated_second_moments

from oracles import dense_part_sums, truncate


def gaussian_tail_quad(sigma2, t):
    """Oracle: E[X^2; |X| > t] for X ~ N(0, sigma2), by direct quadrature."""
    sigma = math.sqrt(sigma2)
    val, _ = integrate.quad(
        lambda x: x * x * math.exp(-x * x / (2 * sigma2)) / math.sqrt(
            2 * math.pi * sigma2), t, 12 * sigma)
    return 2.0 * val


def enumerate_blocks(pl, v1):
    """Oracle: first coordinates of each block straight from the inequalities
    (l-1)(r+s) < k <= l*r + (l-1)*s."""
    blocks = []
    for l in range(1, pl.p + 1):
        blocks.append([k for k in range(1, v1 + 1)
                       if (l - 1) * (pl.r + pl.s) < k <= l * pl.r + (l - 1) * pl.s])
    covered = set(itertools.chain.from_iterable(blocks))
    leftover = [k for k in range(1, v1 + 1) if k not in covered]
    return blocks, leftover


def test_plan_example_with_quarter_mixing():
    profile = MixingProfile(values={4: 0.25})
    pl = plan(100, profile, 0.2)
    assert (pl.s, pl.p, pl.r) == (4, 2, 47)
    assert (pl.r - 1 + pl.s) * pl.p <= 100 < (pl.r + pl.s) * pl.p


def test_plan_example_m_dependent():
    profile = MixingProfile(values={}, dependence_range=1)
    pl = plan(1000, profile, 0.1)
    assert (pl.s, pl.p, pl.r) == (10, 10, 91)


def test_plan_validation():
    profile = MixingProfile(values={}, dependence_range=0)
    with pytest.raises(ValueError):
        plan(7, profile, 0.2)
    with pytest.raises(ValueError, match=r"v1 must be in \[8, 2\^63\), got 10{400}$"):
        plan(10 ** 400, profile, 0.2)
    with pytest.raises(ValueError):
        plan(100, profile, 0.3)
    with pytest.raises(ValueError):
        plan(100, profile, 0.0)


def test_plan_invariants_random():
    """Integer inequality chain, leftover bound, and the coverage ratio for
    m-dependent profiles, across random first-axis lengths."""
    rng = np.random.default_rng(6)
    for _ in range(200):
        v1 = int(rng.integers(8, 10 ** 6))
        if rng.uniform() < 0.5:
            profile = MixingProfile(values={}, dependence_range=int(rng.integers(0, 5)))
            m_dependent = True
        else:
            rho = float(rng.uniform(0.01, 1.0))
            profile = MixingProfile(values={1: rho})
            m_dependent = False
        pl = plan(v1, profile, 0.2)
        assert (pl.r - 1 + pl.s) * pl.p <= v1 < (pl.r + pl.s) * pl.p
        assert pl.s ** 3 <= v1 < (pl.s + 1) ** 3
        # v1 - p*r <= v1^(2/3), compared in integers by cubing
        assert (v1 - pl.p * pl.r) ** 3 <= v1 ** 2
        if m_dependent:
            # p = s and coverage p*r/v1 >= 1 - v1^(-1/3)
            assert pl.p == pl.s
            assert (v1 - pl.p * pl.r) * pl.s <= v1


def test_plan_invariants_exhaustive():
    """``plan`` states no check of its own integers, so this one holds them:
    s^3 <= v1 < (s+1)^3, r >= 1, (r-1+s)p <= v1 < (r+s)p and leftover^3 <= v1^2
    for every v1 in 8..4096, 2^63 - 1 and each perfect cube +-1 up to 10^6, at
    rho'(s) from 0 (p = s) to 1 (p = 1)."""
    cubes = {n ** 3 + e for n in range(2, 101) for e in (-1, 0, 1)}
    lengths = sorted(set(range(8, 4097)) | {2 ** 63 - 1} | {v for v in cubes if v >= 8})
    for rho in (0.0, 1e-300, 0.01, 0.25, 1.0):
        profile = MixingProfile(values={1: rho})
        for v1 in lengths:
            pl = plan(v1, profile, 0.2)
            s, p, r = pl.s, pl.p, pl.r
            assert s ** 3 <= v1 < (s + 1) ** 3 and 1 <= p <= s and r >= 1
            assert (r - 1 + s) * p <= v1 < (r + s) * p
            assert pl.leftover_width ** 3 <= v1 ** 2


def test_block_enumeration_hand_case():
    # v = (10,), s = 2, p = 2, r = 3 (a hand layout, not a plan() output)
    pl = BlockingPlan(v1=10, s=2, p=2, r=3, q=0.2)
    blocks, leftover = block_index_sets(pl, (10,))
    assert [list(range(b.first_lo, b.first_hi + 1)) for b in blocks] == [
        [1, 2, 3], [6, 7, 8]]
    flat = sorted(itertools.chain.from_iterable(
        range(z.first_lo, z.first_hi + 1) for z in leftover))
    assert flat == [4, 5, 9, 10]


def test_blocks_match_inequality_oracle():
    rng = np.random.default_rng(23)
    for _ in range(40):
        v1 = int(rng.integers(8, 2000))
        profile = MixingProfile(values={}, dependence_range=int(rng.integers(0, 4)))
        pl = plan(v1, profile, 0.15)
        blocks, leftover = block_index_sets(pl, (v1,))
        want_blocks, want_leftover = enumerate_blocks(pl, v1)
        got_blocks = [list(range(b.first_lo, b.first_hi + 1)) for b in blocks]
        assert got_blocks == want_blocks
        got_leftover = sorted(itertools.chain.from_iterable(
            range(z.first_lo, z.first_hi + 1) for z in leftover))
        assert got_leftover == want_leftover


def test_block_cardinalities_exact():
    profile = MixingProfile(values={2: 0.5})
    pl = plan(50, profile, 0.2)
    dims = BoxDims((50, 3, 4))
    blocks, leftover = block_index_sets(pl, dims)
    for b in blocks:
        assert b.cardinality == pl.r * 12
    assert sum(z.cardinality for z in leftover) == (50 - pl.p * pl.r) * 12
    # partition: blocks and leftover tile the box disjointly
    total = sum(b.cardinality for b in blocks) + sum(z.cardinality for z in leftover)
    assert total == dims.volume


def test_consecutive_blocks_gap_is_s():
    profile = MixingProfile(values={}, dependence_range=2)
    pl = plan(500, profile, 0.2)
    blocks, _ = block_index_sets(pl, (500,))
    for a, b in zip(blocks, blocks[1:]):
        assert b.first_lo - a.first_hi - 1 == pl.s


def test_block_count_beyond_the_budget_is_refused(monkeypatch):
    """With the listing bound at 7 blocks, a plan of p = 7 blocks is listed
    and p = 8 is refused before any block is."""
    monkeypatch.setattr(bernstein, "_MAX_BLOCKS", 7)
    profile = MixingProfile(values={}, dependence_range=2)
    assert len(block_index_sets(plan(343, profile, 0.2), (343,))[0]) == 7
    with pytest.raises(ValueError, match="p=8 blocks, more than the 7 "):
        block_index_sets(plan(512, profile, 0.2), (512,))


def test_mixing_profile_validation():
    with pytest.raises(ValueError):
        MixingProfile(values={1: 1.5})
    with pytest.raises(ValueError):
        MixingProfile(values={1: 0.2, 2: 0.6})  # increasing
    with pytest.raises(ValueError):
        MixingProfile(values={0: 0.2})
    prof = MixingProfile(values={1: 0.8, 3: 0.2}, dependence_range=5)
    assert prof.value_at(1) == 0.8
    assert prof.value_at(2) == 0.8  # nonincreasing bound carried forward
    assert prof.value_at(4) == 0.2
    assert prof.value_at(6) == 0.0  # beyond the dependence range


def test_index_products():
    sample = generate(white_noise(2, REAL_GAUSSIAN, 1.0), (3, 2), seed=0)
    prods = index_products(sample.dims, sample.shift)
    assert prods.shape == (3, 2)
    assert prods[0, 0] == 1.0
    assert prods[2, 1] == 6.0
    bad = generate(white_noise(1, REAL_GAUSSIAN, 1.0), (4,), shift=(-2,), seed=0)
    with pytest.raises(ValueError):
        index_products(bad.dims, bad.shift)
    with pytest.raises(ValueError, match=r"^box side must be an integer, got 4\.0$"):
        index_products((4.0,))


def test_truncation_reconstructs_demodulated_field():
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    sample = generate(spec, (9, 7), seed=77)
    lam = (0.4, -1.0)
    parts = truncate(sample, lam, 0.2)
    coords = [np.arange(1, 10), np.arange(1, 8)]
    phases = np.exp(-1j * lam[0] * coords[0])[:, None] * np.exp(
        -1j * lam[1] * coords[1])[None, :]
    demod = phases * sample.values
    assert np.max(np.abs(parts.bounded + parts.tail - demod)) < 1e-12


def test_truncation_bounded_input_has_no_tail():
    vals = np.full((5, 5), 0.5 + 0.0j)  # |X| = 0.5 <= <k>^q always
    sample = FieldSample(dims=BoxDims((5, 5)), shift=(0, 0), values=vals, seed=0)
    parts = truncate(sample, (0.3, 0.3), 0.2)
    assert np.all(parts.tail == 0)


def test_truncation_q_validation():
    spec = white_noise(1, REAL_GAUSSIAN, 1.0)
    sample = generate(spec, (8,), seed=1)
    for q in (0.0, 0.25, 0.3, -0.1):
        with pytest.raises(ValueError):
            truncate(sample, (0.0,), q)


def test_truncated_mean_is_zero():
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    lam = (0.7, -0.4)
    # deterministic half of the argument: negating the values negates both
    # parts, and the centered field has the same law as its negation
    sample = generate(spec, (16, 16), seed=8)
    parts = truncate(sample, lam, 0.2)
    flipped = truncate(FieldSample(dims=sample.dims, shift=sample.shift,
                                   values=-sample.values, seed=sample.seed), lam, 0.2)
    assert np.array_equal(flipped.bounded, -parts.bounded)
    assert np.array_equal(flipped.tail, -parts.tail)
    # Monte Carlo half: the mean of the bounded part over a batch is 0, with
    # the SE taken across replications so neighbour correlation is counted
    means = np.array([truncate(generate(spec, (16, 16), seed=s), lam, 0.2).bounded.mean()
                      for s in replication_seeds(3, 40)])
    se = math.sqrt(np.mean(np.abs(means - means.mean()) ** 2) / (means.size - 1))
    assert abs(means.mean()) < 4 * se


def test_truncated_second_moments_match_quadrature():
    spec = white_noise(1, REAL_GAUSSIAN, 1.3)
    for t in (0.1, 0.9, 1.7, 4.0):
        bounded, tail = truncated_second_moments(spec, t)
        want_tail = gaussian_tail_quad(1.69, t)
        assert tail == pytest.approx(want_tail, abs=1e-10)
        assert bounded + tail == pytest.approx(1.69, abs=1e-12)


def test_truncated_second_moments_circular():
    # |X|^2 is Exponential(mean sigma^2) for the circular field, so the tail
    # mass above t is (t^2 + sigma^2) exp(-t^2 / sigma^2)
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 0.9)
    s2 = 0.81
    for t in (0.2, 1.0, 2.5):
        _, tail = truncated_second_moments(spec, t)
        assert tail == pytest.approx((t * t + s2) * math.exp(-t * t / s2),
                                     abs=1e-12)


def test_truncation_tail_moment_monte_carlo():
    """Empirical E|T_k|^2 at several thresholds against the closed form, and
    the decay as the index product grows."""
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    q = 0.2
    vals = generate_batch(spec, (512,), None,
                          replication_seeds(99, 400))
    thresholds = index_products((512,)) ** q
    tails = np.where(np.abs(vals) > thresholds, vals, 0.0)
    emp = np.mean(np.abs(tails) ** 2, axis=0)
    _, want = truncated_second_moments(spec, thresholds)
    # pooled over blocks of 64 indices to tame the per-index noise
    emp_block = emp.reshape(8, 64).mean(axis=1)
    want_block = want.reshape(8, 64).mean(axis=1)
    se = np.abs(tails).reshape(400, 8, 64).std() / math.sqrt(400 * 64)
    assert np.all(np.abs(emp_block - want_block) < 5 * se + 1e-3)
    assert want_block[-1] < want_block[0]


def test_dependence_profile():
    assert dependence_profile(white_noise(2, REAL_GAUSSIAN, 1.0)).value_at(1) == 0
    prof = dependence_profile(first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0))
    assert prof.value_at(1) == 1.0  # no information below the range: bound 1
    assert prof.value_at(2) == 0.0


def make_scheme(m, delta, dims_seq):
    return FrequencyScheme.separated(
        (math.pi / 2,), m, delta, 0, [BoxDims(d) for d in dims_seq])


def test_negligibility_zero_weights():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    scheme = make_scheme(2, 0.25, [(64,)])
    report = negligibility_report(spec, scheme, [(64,)], 0.2,
                                  [0.0, 0.0, 0.0, 0.0], 50, 5)
    assert report.rows[0].leftover_mean == 0.0
    assert report.rows[0].leftover_se == 0.0
    assert report.rows[0].tail_mean > 0.0


def test_negligibility_iid_oracle():
    """Independence across sites makes E|sum over the leftover set|^2 equal
    to the site count times one site's second moment; with weights (1,0)
    the functional keeps Re of the demodulated bounded part, variance
    E|B|^2/2 per site for the circular field."""
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    scheme = make_scheme(1, 0.25, [(64,)])
    report = negligibility_report(spec, scheme, [(64,)], 0.2, [1.0, 0.0],
                                  2000, 31)
    row = report.rows[0]
    thresholds = index_products((64,)) ** 0.2
    bounded_m2, _ = truncated_second_moments(spec, thresholds)
    pl = plan(64, dependence_profile(spec), 0.2)
    _, leftover = block_index_sets(pl, (64,))
    mask = np.zeros(64, dtype=bool)
    for z in leftover:
        mask[z.first_slice] = True
    want = bounded_m2[mask].sum() / 2.0 / 64.0
    assert abs(row.leftover_mean - want) < 3 * row.leftover_se
    assert row.leftover_cardinality == int(mask.sum())


def test_negligibility_trend():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    scheme = make_scheme(1, 0.25, [(64,), (512,)])
    report = negligibility_report(spec, scheme, [(64,), (512,)], 0.2,
                                  [1.0, 0.0], 300, 11)
    assert report.rows[1].leftover_mean < report.rows[0].leftover_mean
    assert report.rows[1].tail_mean < report.rows[0].tail_mean


def test_negligibility_rejects_few_replications():
    spec = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
    scheme = make_scheme(1, 0.25, [(64,)])
    with pytest.raises(ValueError, match="need at least 2 replications"):
        negligibility_report(spec, scheme, [(64,)], 0.2, [1.0, 0.0], 1, 5)


def test_negligibility_2d_oracle_with_imaginary_weights():
    """A d=2 MA(1) with a complex coefficient and b != 0.  Every row value
    equals a per-replication recomputation through ``generate`` and
    ``truncate``: the bounded parts summed over the leftover set feed
    G(b, z) = sum_j a_j Re z_j + b_j Im z_j, the tails are summed over the box."""
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.6 + 0.3j)
    box = BoxDims((27, 5))
    scheme = FrequencyScheme.separated((1.0, 0.5), 2, 0.2, 0, [box])
    weights = np.array([0.7, -1.3, 0.4, 0.9])
    q, reps, seed = 0.2, 6, 19
    row = negligibility_report(spec, scheme, [box], q, weights, reps, seed).rows[0]

    _, leftover = block_index_sets(plan(27, dependence_profile(spec), q), box)
    mask = np.zeros(box.v, dtype=bool)
    for z in leftover:
        mask[z.first_slice] = True
    assert row.leftover_cardinality == int(mask.sum())
    g_sq, z_sq = [], []
    for s in replication_seeds(seed, reps, offset=reps):
        sample = generate(spec, box, seed=s)
        parts = [truncate(sample, lam, q) for lam in scheme.freqs_for(box)]
        g = sum(a * w.real + b * w.imag for a, b, w in
                zip(weights[0::2], weights[1::2], [tf.bounded[mask].sum() for tf in parts]))
        g_sq.append(g * g / box.volume)
        z_sq.append(np.mean([abs(tf.tail.sum()) ** 2 / box.volume for tf in parts]))
    se = math.sqrt(reps)
    want = (np.mean(g_sq), np.std(g_sq, ddof=1) / se,
            np.mean(z_sq), np.std(z_sq, ddof=1) / se)
    got = (row.leftover_mean, row.leftover_se, row.tail_mean, row.tail_se)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def replication_bytes(spec, dims):
    """The workspace bytes of one replication: its lattice and field rows."""
    lattice, values, _ = _workspace_sizes(spec, BoxDims(dims), 1)
    return lattice + values


def test_negligibility_independent_of_threads_and_chunks(monkeypatch, drawn_fields):
    """One seed gives identical rows at 1 and 2 workers, with one replication
    a batch, several, or a worker's whole share; both dims entries go to one
    runner call, one task a batch."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    dims_seq = [(64,), (128,)]
    scheme = make_scheme(2, 0.25, dims_seq)
    batch_counts, draws = [], []
    run_chunked = stats.run_chunked

    def counting(batches, task):
        batch_counts.append(len(batches))
        return run_chunked(batches, task)

    monkeypatch.setattr(stats, "run_chunked", counting)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    results = []
    # the middle budget holds 4 replications of the 128-site box and 7 of the 64-site one
    four = 4 * replication_bytes(spec, (128,))
    for threads, batch_bytes in [("1", 1), ("2", 1), ("1", four), ("2", four),
                                 ("1", 1 << 40), ("2", 1 << 40)]:
        monkeypatch.setenv("SPECFIELD_THREADS", threads)
        monkeypatch.setattr(_util, "_BATCH_BYTES", batch_bytes)
        drawn_fields.clear()
        results.append(negligibility_report(spec, scheme, dims_seq, 0.2,
                                            [1.0, -0.5, 0.3, 2.0], 40, 23).rows)
        draws.append(len(drawn_fields.records()))
    assert batch_counts == [80, 80, 16, 16, 2, 4]
    assert draws == [80, 80, 6 + 10, 6 + 10, 2, 4]
    assert all(r == results[0] for r in results[1:])


def test_negligibility_report_forks_once(monkeypatch, count_started):
    """A 3-entry report at 2 workers starts exactly 2 worker processes, for
    all its entries, and leaves none behind."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    dims_seq = [(64,), (128,), (256,)]
    scheme = make_scheme(2, 0.25, dims_seq)
    args = (spec, scheme, dims_seq, 0.2, [1.0, -0.5, 0.3, 2.0], 20, 23)
    want = negligibility_report(*args).rows
    started = count_started(2)
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", "2")
    assert negligibility_report(*args).rows == want
    assert len(started) == 2
    assert multiprocessing.active_children() == []


def test_negligibility_refuses_an_entry_over_the_budget_before_any_draw(drawn_fields):
    """The second entry's one replication exceeds the chunk budget: the
    report is refused by name before the first entry draws anything."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    dims_seq = [(64,), (1_000_000,)]
    scheme = make_scheme(2, 0.25, dims_seq)
    with pytest.raises(ValueError, match="one replication of the 1000000-site box"):
        negligibility_report(spec, scheme, dims_seq, 0.2, [1.0, 0.0, 1.0, 0.0], 20, 5)
    assert drawn_fields.records() == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_negligibility_chunks_reuse_one_workspace_per_worker(monkeypatch, drawn_fields,
                                                             threads):
    """Each worker draws every batch into one workspace; the split's
    temporaries live in the batch's lattice buffer, and the rows equal those
    drawn in one batch."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    scheme = make_scheme(2, 0.25, [(128,)])
    args = (spec, scheme, [(128,)], 0.2, [1.0, -0.5, 0.3, 2.0], 40, 23)
    whole = negligibility_report(*args).rows
    drawn_fields.clear()
    monkeypatch.setattr(_util, "usable_cpus", lambda: 2)
    monkeypatch.setenv("SPECFIELD_THREADS", threads)
    # 5 replications a batch, 8 batches
    monkeypatch.setattr(_util, "_BATCH_BYTES", 5 * replication_bytes(spec, (128,)))
    assert negligibility_report(*args).rows == whole
    assert len(drawn_fields.records()) == 8
    drawn_fields.assert_one_workspace_per_worker(int(threads))


NEGLIGIBILITY_DIGEST = "3f260419cb29a569b5d414a3fcc6b59ed81b8a3da87b4483f78f986daa8b6454"


def negligibility_digest():
    """sha256 of the JSON of a pinned 2-entry negligibility report."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    dims = [BoxDims((64,)), BoxDims((512,))]
    scheme = FrequencyScheme.separated((math.pi / 2,), 2, 0.2, 0, dims)
    report = negligibility_report(spec, scheme, dims, 0.2, [1.0, 0.0, 1.0, 0.0], 50, 5)
    return hashlib.sha256(json.dumps(dataclasses.asdict(report), sort_keys=True).encode()
                          ).hexdigest()


def test_negligibility_report_bytes_are_pinned():
    """sha256 of the report's JSON, recorded on innovation stream 5 with each
    row's tail and leftover parts summed over their own sites, in index order,
    in real arithmetic."""
    assert negligibility_digest() == NEGLIGIBILITY_DIGEST


@pytest.mark.parametrize("kind", [REAL_GAUSSIAN, CIRCULAR_GAUSSIAN])
@pytest.mark.parametrize("dims", [(27,), (4097,), (27, 5)])
def test_negligibility_sums_of_a_batch_equal_its_rows_summed_alone(kind, dims):
    """Each row's tail and leftover sums from a batch equal those of the row
    summed alone, bit for bit.  Real rows of odd length start at every 8-byte
    alignment in the batch, and the 4,097-site box has 241 leftover sites."""
    spec = first_axis_ma1(len(dims), kind, 1.0, 0.5)
    box = BoxDims(dims)
    _, leftover = block_index_sets(plan(dims[0], dependence_profile(spec), 0.2), box)
    sums = stats._part_sums(box, leftover, 0.2)
    phases = [phase_grid(box, (lam,) * len(dims)) for lam in (0.5, 2.5)]
    vals = generate_batch(spec, box, None, replication_seeds(3, 5))
    batch = sums(vals, np.empty_like(vals), phases)
    assert np.all(batch != 0)
    for r in range(len(vals)):
        row = vals[r:r + 1].copy()
        assert sums(row, np.empty_like(row), phases).tobytes() == batch[:, r:r + 1].tobytes()


@pytest.mark.parametrize("kind", [REAL_GAUSSIAN, CIRCULAR_GAUSSIAN])
def test_a_full_tail_is_summed_as_the_whole_row(kind):
    """White noise of std 1e12 puts every site past its threshold, so the tail
    is the whole row; its tail sums equal ``batched_modulated_sums`` of the
    row, bit for bit, because one kernel sums both."""
    spec = white_noise(1, kind, 1e12)
    box = BoxDims((4097,))
    _, leftover = block_index_sets(plan(4097, dependence_profile(spec), 0.2), box)
    phases = [phase_grid(box, (lam,)) for lam in (0.5, 2.5)]
    vals = generate_batch(spec, box, None, replication_seeds(7, 1))
    assert np.all(np.abs(vals) > index_products(box) ** 0.2)
    tail, _ = stats._part_sums(box, leftover, 0.2)(vals, np.empty_like(vals), phases)
    assert tail.tobytes() == batched_modulated_sums(vals, phases).tobytes()


def test_negligibility_dense_tail_matches_truncation_oracle():
    """Real white noise of std 1e3 puts nearly every site past its threshold
    <k>^q <= 5.3; the rows equal a per-replication recomputation through
    ``generate`` and ``truncate``, as in the sparse 2-d oracle test."""
    spec = white_noise(1, REAL_GAUSSIAN, 1e3)
    box = BoxDims((4097,))
    scheme = make_scheme(2, 0.25, [box.v])
    weights = np.array([0.7, -1.3, 0.4, 0.9])
    q, reps, seed = 0.2, 6, 41
    row = negligibility_report(spec, scheme, [box], q, weights, reps, seed).rows[0]

    _, leftover = block_index_sets(plan(box.v[0], dependence_profile(spec), q), box)
    mask = np.zeros(box.v, dtype=bool)
    for z in leftover:
        mask[z.first_slice] = True
    g_sq, z_sq = [], []
    for s in replication_seeds(seed, reps, offset=reps):
        sample = generate(spec, box, seed=s)
        assert np.mean(np.abs(sample.values) > 5.3) > 0.99
        parts = [truncate(sample, lam, q) for lam in scheme.freqs_for(box)]
        g = sum(a * w.real + b * w.imag for a, b, w in
                zip(weights[0::2], weights[1::2], [tf.bounded[mask].sum() for tf in parts]))
        g_sq.append(g * g / box.volume)
        z_sq.append(np.mean([abs(tf.tail.sum()) ** 2 / box.volume for tf in parts]))
    se = math.sqrt(reps)
    want = (np.mean(g_sq), np.std(g_sq, ddof=1) / se,
            np.mean(z_sq), np.std(z_sq, ddof=1) / se)
    got = (row.leftover_mean, row.leftover_se, row.tail_mean, row.tail_se)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind, lam, mu, needle", [
    (CIRCULAR_GAUSSIAN, math.pi - 0.01, -math.pi + 0.01, "pair (1, 2)"),
    (REAL_GAUSSIAN, 1.0, -1.0, "pair (1, 2) against -mu"),
])
def test_negligibility_refuses_unseparated_frequencies(kind, lam, mu, needle):
    """The report validates its frequencies as the clt and miller runs do:
    on the circle, and against -mu for real fields."""
    box = BoxDims((64,))
    pair = (Frequency((lam,)), Frequency((mu,)))
    scheme = FrequencyScheme(base=pair[0], per_n=(pair,), dims_sequence=(box,))
    with pytest.raises(ValueError, match=re.escape(f"violate separation at {needle}")):
        negligibility_report(first_axis_ma1(1, kind, 1.0, 0.5), scheme, [box], 0.2,
                             [1.0, 0.0, 1.0, 0.0], 10, 5)


_COEFF = st.floats(-2.0, 2.0)


@st.composite
def _pruned_draw_cases(draw):
    """A field in d = 1 or 2, real or circular, with 1-3 taps at lags within
    +-2 (complex for a circular field), a box of sides 1-70, leftover runs
    anywhere along its first axis, at least one, q, 1 or 2 frequencies and 2-6 seeds."""
    d, kind = draw(st.integers(1, 2)), draw(st.sampled_from([REAL_GAUSSIAN, CIRCULAR_GAUSSIAN]))
    lags = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=3,
                         unique=True))
    taps = {lag: complex(draw(_COEFF), 0.0 if kind == REAL_GAUSSIAN else draw(_COEFF))
            for lag in lags}
    spec = LinearFieldSpec(d, taps, kind, draw(st.sampled_from([0.0, 1.0, 1e3])))
    box = BoxDims(tuple(draw(st.integers(1, 70)) for _ in range(d)))
    # a plan's leftover set is never empty, and ``_part_sums`` needs a run
    flags = draw(st.lists(st.booleans(), min_size=box.v[0], max_size=box.v[0]).filter(any))
    runs = itertools.groupby(range(1, box.v[0] + 1), key=lambda k: flags[k - 1])
    leftover = [IndexSlab(first_lo=run[0], first_hi=run[-1], dims=box.v)
                for flag, run in ((flag, list(run)) for flag, run in runs) if flag]
    freqs = [tuple(draw(st.floats(-3.0, 3.0)) for _ in range(d))
             for _ in range(draw(st.integers(1, 2)))]
    seeds = replication_seeds(draw(st.integers(0, 2 ** 64 - 1)), draw(st.integers(2, 6)))
    return spec, box, leftover, draw(st.sampled_from([0.05, 0.2, 0.5])), freqs, seeds


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_pruned_draw_cases())
def test_the_pruned_draw_gives_the_sums_of_the_whole_draw(case):
    """The replication loop draws a negligibility entry's innovations only
    where its tail or leftover set can reach them; its tail and leftover sums
    equal those of the whole draw, bit for bit."""
    spec, box, leftover, q, freqs, seeds = case
    with pytest.MonkeyPatch.context() as patch:  # prune whatever share is expected
        patch.setattr(fieldgen, "_PRUNED_SHARE", 1.0)
        entry = stats._tail_entry(spec, box, freqs, seeds, leftover, q)
    assert entry.prune is not None
    (got,) = stats._replicated_sums(spec, [entry])
    want = dense_part_sums(spec, box, leftover, q, freqs, seeds)
    assert [part.tobytes() for part in got] == [part.tobytes() for part in want]


@pytest.mark.parametrize("std, pruned", [(1.0, True), (1e3, False)])
def test_a_draw_expected_to_need_most_innovations_is_drawn_whole(std, pruned):
    """On a 65,536-site real box at q = 0.2, unit white noise needs about 2.5%
    of its innovations, nearly all of them its 2.4% of leftover sites, and is
    pruned; at std 1e3 nearly every innovation is hot, so the draw is left whole."""
    box = BoxDims((65536,))
    spec = white_noise(1, REAL_GAUSSIAN, std)
    _, leftover = block_index_sets(plan(box.v[0], dependence_profile(spec), 0.2), box)
    entry = stats._tail_entry(spec, box, [], replication_seeds(5, 2), leftover, 0.2)
    assert (entry.prune is not None) == pruned


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(-30.0, 4.0), st.sampled_from([REAL_GAUSSIAN, CIRCULAR_GAUSSIAN]),
       st.sampled_from([1e-3, 1.0, 1e3]))
def test_a_hot_cut_puts_every_radius_below_it_under_its_level(log_ratio, kind, std):
    """For a level tau from 2^-30 to 2^4 times the scale (the largest radius is
    8.6 times it), the lattice's own radius at k1 = K - 1 is below tau, and at
    k1 = K it reaches tau, less the margin: the cut is the least such k1."""
    scale = std if kind == REAL_GAUSSIAN else std / math.sqrt(2.0)
    level = scale * 2.0 ** log_ratio
    (cut,), = rng._hot_cuts(np.array([level]), [(0, 0)], kind, std)
    radius = rng._radius(np.array([max(int(cut) - 1, 0), min(int(cut), 2 ** 53 - 1)], np.uint64),
                         scale, np.empty(2))
    assert cut == 0 or radius[0] < level
    assert cut == 2 ** 53 or radius[1] >= level * (1.0 - rng._CUT_MARGIN)
