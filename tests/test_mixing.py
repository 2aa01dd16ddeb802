import itertools
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from specfield import mixing
from specfield.mixing import IndexSetPair, canonical_rho, rho_prime_profile
from specfield.model import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN, LinearFieldSpec, autocovariance,
                             first_axis_ma1, white_noise)

# closed-form canonical correlations are linear algebra on tiny exact
# matrices, so machine precision is the right bar
EXACT_TOL = 1e-12


def test_pair_validation():
    with pytest.raises(ValueError, match="disjoint"):
        IndexSetPair(left=((0,), (1,)), right=((1,),), axis=0)
    with pytest.raises(ValueError, match="non-empty"):
        IndexSetPair(left=(), right=((1,),), axis=0)
    with pytest.raises(ValueError, match="dimension"):
        IndexSetPair(left=((0, 0),), right=((1,),), axis=0)
    with pytest.raises(ValueError, match="axis"):
        IndexSetPair(left=((0,),), right=((1,),), axis=1)
    pair = IndexSetPair(left=((0,), (5,)), right=((2,), (9,)), axis=0)
    assert pair.separation == 2  # min over cross pairs: |5 - 2| beats |0 - 2|? no: 2


def test_singleton_rho_is_correlation_ratio():
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    pair = IndexSetPair(left=((0,),), right=((1,),), axis=0)
    assert abs(canonical_rho(spec, pair) - 0.5) < EXACT_TOL


def test_singleton_rho_circular_matches_real():
    spec = first_axis_ma1(1, CIRCULAR_GAUSSIAN, 1.0, 1.0)
    pair = IndexSetPair(left=((0,),), right=((1,),), axis=0)
    assert abs(canonical_rho(spec, pair) - 0.5) < EXACT_TOL


def test_singleton_rho_random_specs():
    # for two single sites the canonical correlation is |r(h)| / r(0)
    rng = np.random.default_rng(314)
    for _ in range(10):
        taps = {(j,): complex(rng.normal(), rng.normal()) for j in range(3)}
        spec = LinearFieldSpec(dim=1, taps=taps,
                               innovation_kind=CIRCULAR_GAUSSIAN,
                               innovation_std=float(rng.uniform(0.5, 2.0)))
        h = int(rng.integers(1, 3))
        pair = IndexSetPair(left=((0,),), right=((h,),), axis=0)
        want = abs(autocovariance(spec, (h,))) / autocovariance(spec, (0,)).real
        assert abs(canonical_rho(spec, pair) - want) < EXACT_TOL


def test_rho_zero_beyond_dependence_range():
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 0.7)
    pair = IndexSetPair(left=((0, 0), (0, 5)), right=((2, 0), (2, 5)), axis=0)
    assert canonical_rho(spec, pair) == 0.0


def test_rho_symmetry():
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 0.6)
    left, right = ((0,), (2,)), ((1,), (3,))
    fwd = canonical_rho(spec, IndexSetPair(left=left, right=right, axis=0))
    rev = canonical_rho(spec, IndexSetPair(left=right, right=left, axis=0))
    assert abs(fwd - rev) < EXACT_TOL


def test_rho_monotone_under_set_growth():
    """Maximal correlation can only grow when either index set is enlarged."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 0.8)
    rng = np.random.default_rng(2718)
    for _ in range(20):
        pts = rng.choice(np.arange(-6, 7), size=6, replace=False)
        left_small = tuple((int(k),) for k in pts[:1])
        left_big = tuple((int(k),) for k in pts[:3])
        right_small = tuple((int(k),) for k in pts[3:4])
        right_big = tuple((int(k),) for k in pts[3:])
        small = canonical_rho(spec, IndexSetPair(left_small, right_small, 0))
        big = canonical_rho(spec, IndexSetPair(left_big, right_big, 0))
        assert big >= small - EXACT_TOL


def test_rho_in_unit_interval():
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.3, 0.9)
    rng = np.random.default_rng(55)
    for _ in range(10):
        pts = [tuple(int(x) for x in p)
               for p in rng.integers(-3, 4, size=(6, 2))]
        pts = list(dict.fromkeys(pts))
        left, right = tuple(pts[:2]), tuple(pts[2:4])
        if set(left) & set(right) or not left or not right:
            continue
        rho = canonical_rho(spec, IndexSetPair(left, right, 0))
        assert 0.0 <= rho <= 1.0


def test_singular_block_warns_and_ridges():
    spec = white_noise(1, REAL_GAUSSIAN, 0.0)  # degenerate: all values 0
    pair = IndexSetPair(left=((0,),), right=((1,),), axis=0)
    with pytest.warns(RuntimeWarning, match="ridge"):
        rho = canonical_rho(spec, pair)
    assert rho == 0.0


def test_profile_iid_is_zero():
    prof = rho_prime_profile(white_noise(1, CIRCULAR_GAUSSIAN, 1.0),
                             window_radius=2, max_set_size=2, n_max=3)
    assert all(prof.value_at(n) == 0.0 for n in (1, 2, 3))


def test_profile_ma1_lower_bound():
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    prof = rho_prime_profile(spec, window_radius=2, max_set_size=2, n_max=3)
    # the singleton pair (0,),(1,) alone certifies 1/2 at separation 1
    assert prof.value_at(1) >= 0.5 - EXACT_TOL
    assert prof.value_at(1) <= 1.0
    assert prof.value_at(2) == 0.0
    assert prof.value_at(3) == 0.0


def test_profile_singletons_exact_half():
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    prof = rho_prime_profile(spec, window_radius=1, max_set_size=1, n_max=1)
    assert abs(prof.value_at(1) - 0.5) < EXACT_TOL


def test_profile_nonincreasing():
    taps = {(0,): 1.0, (1,): 0.8, (2,): 0.3}
    spec = LinearFieldSpec(dim=1, taps=taps, innovation_kind=REAL_GAUSSIAN)
    prof = rho_prime_profile(spec, window_radius=2, max_set_size=2, n_max=4)
    vals = [prof.value_at(n) for n in range(1, 5)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[3] == 0.0  # past the dependence range


def test_budget_error_reports_count(monkeypatch):
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    monkeypatch.setattr(mixing, "_BUDGET", 3)
    with pytest.raises(ValueError, match=r"budget exceeded: \d+ pairs"):
        rho_prime_profile(spec, window_radius=2, max_set_size=2, n_max=1)


def test_budget_stops_the_search_early():
    """Window 14 with sets of up to 4 points has tens of millions of pairs;
    the search stops at the first subset that passes the budget."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"budget exceeded: (\d+) pairs") as info:
        rho_prime_profile(spec, window_radius=14, max_set_size=4, n_max=2)
    assert int(re.search(r"(\d+) pairs", str(info.value)).group(1)) < 1_000_000


def test_subsets_beyond_budget_are_refused_before_the_search(monkeypatch):
    """The subset count is a sum of binomials, checked before any list is
    built: 7 + 21 subsets of a 7-site window pass a budget of 20, and the
    1,752,381 subsets of 1 to 4 of 81 sites pass the default."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    monkeypatch.setattr(np, "argwhere", None)  # reached only past the check
    with monkeypatch.context() as patch:
        patch.setattr(mixing, "_BUDGET", 20)
        with pytest.raises(ValueError, match="of 28 subsets of 1 to 2 of the 7 window sites"):
            rho_prime_profile(spec, window_radius=3, max_set_size=2, n_max=1)
    with pytest.raises(ValueError, match=r"budget exceeded: \d+ pairs of 1752381 subsets "
                                         r"of 1 to 4 of the 81 window sites"):
        rho_prime_profile(spec, window_radius=40, max_set_size=4, n_max=2)
    plane = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.5)
    monkeypatch.setattr(mixing, "_BUDGET", 324)
    with pytest.raises(ValueError, match="of 325 subsets of 1 to 2 of the 25 window sites"):
        rho_prime_profile(plane, window_radius=2, max_set_size=2, n_max=1)


def test_set_size_beyond_the_window_is_capped():
    """No subset has more points than the window: a huge set size gives the
    profile of the whole window's subsets."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 0.5)
    want = rho_prime_profile(spec, window_radius=1, max_set_size=3, n_max=2)
    assert rho_prime_profile(spec, window_radius=1, max_set_size=10**20, n_max=2) == want


def test_profile_memory_covers_only_the_scored_points():
    """At set size 1 a window has thousands of sites but few scored pairs;
    the covariance covers only the points those pairs use, so the peak stays
    far below a whole-window covariance (hundreds of MB here)."""
    plane = LinearFieldSpec(dim=2, taps={(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.4},
                            innovation_kind=REAL_GAUSSIAN)
    cases = [(first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0), 1000),
             (first_axis_ma1(1, CIRCULAR_GAUSSIAN, 1.0, 1.0), 1000), (plane, 30)]
    for spec, window in cases:
        tracemalloc.start()
        try:
            rho_prime_profile(spec, window_radius=window, max_set_size=1, n_max=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, (spec.dim, spec.innovation_kind, peak)


def test_profile_past_the_dependence_range_needs_no_rescan():
    """Every found pair has gap <= dependence range, so each larger n is an
    exact 0 without another pass over the pairs: n_max at the budget is fast."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    start = time.perf_counter()
    prof = rho_prime_profile(spec, window_radius=8, max_set_size=3, n_max=250_000)
    elapsed = time.perf_counter() - start
    short = rho_prime_profile(spec, window_radius=8, max_set_size=3, n_max=2)
    assert {n: prof.values[n] for n in (1, 2)} == short.values
    assert len(prof.values) == 250_000
    assert all(prof.values[n] == 0.0 for n in range(3, 250_001))
    assert elapsed < 6.0


def _reference_pair_counts(spec, window, set_size):
    """Kept pairs counted through each left subset, by the per-pair rule:
    1 <= gap <= dependence range, and the union touches the window's lower
    face on every axis."""
    points = np.argwhere(np.ones((2 * window + 1,) * spec.dim)) - window
    subsets = [points[list(c)] for size in range(1, set_size + 1)
               for c in itertools.combinations(range(len(points)), size)]
    counts, total = [], 0
    for i, left in enumerate(subsets):
        for right in subsets[i + 1:]:
            gap = np.abs(left[:, None] - right[None]).min(axis=(0, 1)).max()
            low = np.minimum(left.min(axis=0), right.min(axis=0))
            total += bool(1 <= gap <= spec.dependence_range and (low == -window).all())
        counts.append(total)
    return counts


@pytest.mark.parametrize("search_bytes", [1, 3000, mixing._SEARCH_BYTES])
def test_budget_refusal_counts_through_the_first_subset_past_it(monkeypatch, search_bytes):
    """Blocks of left subsets of any size report the count that the pair
    rule gives through the first subset whose pairs pass the budget."""
    monkeypatch.setattr(mixing, "_SEARCH_BYTES", search_bytes)
    # 389 pairs of 63 subsets, and 249 pairs of 45: budgets of 64 and up
    # pass the subset count and reach the pair search
    cases = [(LinearFieldSpec(dim=1, taps={(0,): 1.0, (1,): 0.8, (3,): 0.5},
                              innovation_kind=REAL_GAUSSIAN), 3, 3),
             (LinearFieldSpec(dim=2, taps={(0, 0): 1.0, (1, 0): 0.5, (0, 1): 0.4},
                              innovation_kind=CIRCULAR_GAUSSIAN), 1, 2)]
    for spec, window, set_size in cases:
        counts = _reference_pair_counts(spec, window, set_size)
        for budget in (64, counts[-1] // 2, counts[-1] - 1):
            monkeypatch.setattr(mixing, "_BUDGET", budget)
            want = next(c for c in counts if c > budget)
            with pytest.raises(ValueError, match=f"budget exceeded: {want} pairs counted"):
                rho_prime_profile(spec, window, set_size, 1)
        monkeypatch.setattr(mixing, "_BUDGET", counts[-1])
        rho_prime_profile(spec, window, set_size, 1)


def test_wide_window_search_skips_unanchored_pairs():
    """At set size 1 only pairs through the window's lower corner faces are
    compared: 40,001 sites take well under the 4 s that comparing every
    pair of them took."""
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    start = time.perf_counter()
    prof = rho_prime_profile(spec, window_radius=20_000, max_set_size=1, n_max=2)
    assert time.perf_counter() - start < 1.5
    assert prof.values == rho_prime_profile(spec, 1, 1, 2).values


def test_n_max_beyond_budget_is_refused(monkeypatch):
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)
    monkeypatch.setattr(mixing, "_BUDGET", 3)
    with pytest.raises(ValueError, match="n_max 4 exceeds the mixing budget 3"):
        rho_prime_profile(spec, window_radius=1, max_set_size=1, n_max=4)


def test_profile_argument_validation():
    spec = white_noise(1, REAL_GAUSSIAN, 1.0)
    with pytest.raises(ValueError):
        rho_prime_profile(spec, window_radius=-1, max_set_size=1, n_max=1)
    with pytest.raises(ValueError):
        rho_prime_profile(spec, window_radius=1, max_set_size=0, n_max=1)
    with pytest.raises(ValueError):
        rho_prime_profile(spec, window_radius=1, max_set_size=1, n_max=0)


def test_profile_circular_slices_match_canonical_rho():
    """The profile scores pairs on slices of one window covariance; with a
    complex coefficient the Re/Im interleaving matters, so it must agree
    with canonical_rho over a brute enumeration of the same pairs."""
    spec = first_axis_ma1(2, CIRCULAR_GAUSSIAN, 1.0, 0.6 + 0.5j)
    prof = rho_prime_profile(spec, window_radius=1, max_set_size=2, n_max=2)
    points = list(itertools.product(range(-1, 2), repeat=2))
    subsets = [s for size in (1, 2) for s in itertools.combinations(points, size)]
    best = {}
    for left, right in itertools.combinations(subsets, 2):
        if set(left) & set(right):
            continue
        gaps = [min(abs(k[u] - l[u]) for k in left for l in right) for u in (0, 1)]
        gap = max(gaps)
        if not 1 <= gap <= spec.dependence_range:
            continue
        rho = canonical_rho(spec, IndexSetPair(left, right, axis=gaps.index(gap)))
        best[gap] = max(best.get(gap, 0.0), rho)
    for n in (1, 2):
        want = max((rho for gap, rho in best.items() if gap >= n), default=0.0)
        assert abs(prof.value_at(n) - want) < EXACT_TOL
    assert prof.value_at(1) > 0.5


def _spy_stack_lengths(monkeypatch):
    lengths = []
    top_canonical = mixing._top_canonical

    def spy(covs, cut):
        lengths.append(len(covs))
        return top_canonical(covs, cut)

    monkeypatch.setattr(mixing, "_top_canonical", spy)
    return lengths


def test_profile_scores_one_pair_per_translation_class(monkeypatch):
    """Translates of a pair have the same rho and gap, so the search scores
    exactly one pair per translation class, one stacked call per shape, and
    still equals the best canonical_rho over every candidate bit for bit."""
    spec = first_axis_ma1(2, REAL_GAUSSIAN, 1.0, 1.0)
    lengths = _spy_stack_lengths(monkeypatch)
    prof = rho_prime_profile(spec, window_radius=1, max_set_size=2, n_max=2)
    scored, calls = sum(lengths), len(lengths)
    points = list(itertools.product(range(-1, 2), repeat=2))
    subsets = [s for size in (1, 2) for s in itertools.combinations(points, size)]
    candidates, classes, best = 0, set(), {1: 0.0, 2: 0.0}
    for left, right in itertools.combinations(subsets, 2):
        gap = max(min(abs(k[u] - l[u]) for k in left for l in right) for u in (0, 1))
        if 1 <= gap <= spec.dependence_range:
            candidates += 1
            low = np.min(left + right, axis=0)
            classes.add((tuple(map(tuple, np.subtract(left, low))),
                         tuple(map(tuple, np.subtract(right, low)))))
            rho = canonical_rho(spec, IndexSetPair(left, right, axis=0))
            best = {n: max(v, rho) if gap >= n else v for n, v in best.items()}
    assert (candidates, len(classes)) == (389, 249)
    assert scored == 249
    assert calls <= 3  # shapes (1, 1), (1, 2) and (2, 2)
    assert prof.values == best


def test_profile_singular_spec_warns_once_with_count():
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 0.0, 1.0)  # all values 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prof = rho_prime_profile(spec, window_radius=1, max_set_size=2, n_max=2)
    assert [issubclass(w.category, RuntimeWarning) for w in caught] == [True]
    assert re.search(r"ridge .* to \d+ pair", str(caught[0].message))
    assert prof.values == {1: 0.0, 2: 0.0}
