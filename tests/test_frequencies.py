import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specfield.domain import BoxDims, Frequency
from specfield.frequencies import (FrequencyScheme, _separation_witness, _validated_freqs,
                                   build_separated, is_admissible, separation_gap)
from specfield.model import REAL_GAUSSIAN, first_axis_ma1


def test_admissible_examples():
    assert not is_admissible((0.0, 0.0))
    assert is_admissible((math.pi / 2, 0.0))
    assert not is_admissible((math.pi, math.pi))
    assert is_admissible((0.0, 0.0, 0.1))
    assert not is_admissible((0.0,))
    assert is_admissible((1e-300,))  # tiny but not exactly zero


def test_admissible_permutation_invariant():
    rng = np.random.default_rng(4)
    for _ in range(20):
        coords = [float(rng.choice([0.0, math.pi, rng.uniform(-3, 3)]))
                  for _ in range(3)]
        perm = list(np.array(coords)[rng.permutation(3)])
        assert is_admissible(coords) == is_admissible(perm)


def test_gap_hand_value():
    # 16^(-1/4) = 1/2, margin 2 -> gap exactly 1
    assert separation_gap(16, 0.25) * 2.0 == 1.0


def test_build_single_frequency():
    out = build_separated((1.0, 1.0), 1, 0.25, 0, (16, 16))
    assert out == [Frequency((1.0, 1.0))]


def test_build_two_frequencies_hand_case():
    out = build_separated((math.pi / 2,), 2, 0.25, 0, (16,))
    assert out[0] == Frequency((math.pi / 2,))
    assert out[1].coords[0] == pytest.approx(math.pi / 2 + 1.0, abs=1e-15)


def test_build_passes_separation_check():
    dims_seq = [BoxDims((16,)), BoxDims((32,)), BoxDims((64,))]
    scheme = FrequencyScheme.separated(Frequency((math.pi / 2,)), 2, 0.25, 0,
                                       dims_seq)
    for box in dims_seq:
        assert _separation_witness(scheme.freqs_for(box), box, 0.25, False) is None


def test_build_rejects_exiting_fan():
    with pytest.raises(ValueError, match="exits"):
        build_separated((math.pi / 2,), 3, 0.25, 0, (16,))


def test_build_rejects_bad_delta():
    with pytest.raises(ValueError, match="0 < delta < 1/2"):
        build_separated((math.pi / 2,), 2, 0.7, 0, (16,))
    with pytest.raises(ValueError, match="0 < delta < 1/2"):
        build_separated((math.pi / 2,), 2, 0.0, 0, (16,))


def test_build_rejects_inadmissible_base():
    with pytest.raises(ValueError, match="admissible"):
        build_separated((0.0, 0.0), 2, 0.25, 0, (16, 16))


def test_build_rejects_bad_axis():
    with pytest.raises(ValueError):
        build_separated((0.5, 0.5), 2, 0.25, 5, (16, 16))


def test_identical_sequences_fail_with_witness():
    lam = Frequency((0.5,))
    for box in (BoxDims((8,)), BoxDims((16,))):
        assert _separation_witness((lam, lam), box, 0.2, False) == ((1, 2), False)


def test_decaying_gap_fails_eventually():
    """Gap n^{-0.4} loses to the n^{-0.3} threshold from the very first box:
    at n = 1 the gap equals the threshold (1 > 1 is false)."""
    for n in range(1, 6):
        pair = (Frequency((0.5,)), Frequency((0.5 + n ** -0.4,)))
        assert _separation_witness(pair, BoxDims((n,)), 0.2, False) == ((1, 2), False)


def test_scheme_freqs_for_box():
    dims_seq = [BoxDims((16,)), BoxDims((64,))]
    scheme = FrequencyScheme.separated(Frequency((math.pi / 2,)), 2, 0.25, 0,
                                       dims_seq)
    freqs16 = scheme.freqs_for(BoxDims((16,)))
    freqs64 = scheme.freqs_for(BoxDims((64,)))
    assert freqs16[1].coords[0] == pytest.approx(math.pi / 2 + 1.0)
    assert freqs64[1].coords[0] == pytest.approx(math.pi / 2 + 2 * 64 ** -0.25)
    with pytest.raises(ValueError):
        scheme.freqs_for(BoxDims((17,)))


def test_scheme_converges_to_base():
    dims_seq = [BoxDims((2 ** k,)) for k in range(4, 13)]
    scheme = FrequencyScheme.separated(Frequency((-1.0,)), 3, 0.1, 0, dims_seq)
    gaps = [max(abs(f.coords[0] - (-1.0)) for f in scheme.freqs_for(d))
            for d in dims_seq]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0] / 8


@pytest.mark.parametrize("change, message", [
    ({"base": (0.5,), "per_n": (((0.5,), (1.5,)),)}, None),
    ({"per_n": (((0.5,), (5.0,)),)}, "frequency coordinate 5.0 outside (-pi, pi]"),
    ({"per_n": (((0.5,), (1.5, 0.5)),)}, "expected 1-dimensional frequency, got 2"),
    ({"delta": 0.7}, "delta must satisfy 0 < delta < 1/2, got 0.7"),
    ({"delta": "x"}, "delta must satisfy 0 < delta < 1/2, got x"),
], ids=["tuple-base", "frequency-outside", "frequency-2d", "delta-0.7", "delta-str"])
def test_a_scheme_reads_its_frequencies_and_refuses_a_bad_delta(change, message):
    """A scheme reads its base and every frequency as a Frequency of the base's
    dimension, and refuses a delta outside (0, 1/2) or not a real by name."""
    lam, mu = Frequency((0.5,)), Frequency((1.5,))
    fields = dict(base=lam, per_n=((lam, mu),), dims_sequence=(BoxDims((64,)),), delta=0.25)
    fields.update(change)
    if message is None:
        scheme = FrequencyScheme(**fields)
        assert (scheme.base, scheme.freqs_for((64,))) == (lam, (lam, mu))
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FrequencyScheme(**fields)


def test_a_real_family_is_refused_at_its_first_plain_pair_before_any_against_minus_mu():
    """lambda = (1.0, -1.0, 1.1) on a 64-site real MA(1): pair (1, 2) fails
    only against -mu, pair (1, 3) fails as it stands (0.1 apart, inside the
    64^(-1/4) gap), and the plain pass comes first."""
    freqs = tuple(Frequency((c,)) for c in (1.0, -1.0, 1.1))
    scheme = FrequencyScheme(base=freqs[0], per_n=(freqs,), dims_sequence=(BoxDims((64,)),))
    with pytest.raises(ValueError) as info:
        _validated_freqs(first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 0.5), scheme, (64,))
    assert str(info.value) == "frequencies for dims (64,) violate separation at pair (1, 3)"


def test_frequency_domain_validation():
    with pytest.raises(ValueError):
        Frequency((4.0,))  # outside (-pi, pi]
    with pytest.raises(ValueError):
        Frequency((-math.pi,))  # open at -pi
    assert Frequency((math.pi,)).coords == (math.pi,)


def test_separation_is_measured_on_the_circle():
    """pi - 0.01 and -pi + 0.01 are 6.26 apart on the line but 0.02 apart on
    the circle, below the 64^(-1/4) = 0.354 gap."""
    lam, mu = Frequency((math.pi - 0.01,)), Frequency((-math.pi + 0.01,))
    box = BoxDims((64,))
    assert _separation_witness((lam, mu), box, 0.25, False) == ((1, 2), False)
    # a pair apart by more than the gap both ways round still passes
    far = Frequency((-math.pi + 0.5,))
    assert _separation_witness((lam, far), box, 0.25, False) is None


def test_fan_whose_ends_meet_across_pi_is_not_built():
    """v = 1, delta = 0.25 gives a step of 2: the fan -3.1, ..., 2.9 has its
    ends 0.28 apart across +-pi, inside the gap of 1.  One frequency fewer
    leaves them 2.28 apart, and that fan is built."""
    with pytest.raises(ValueError, match=r"violate separation at pair \(1, 4\)"):
        build_separated((-3.1,), 4, 0.25, 0, (1,))
    fan = build_separated((-3.1,), 3, 0.25, 0, (1,))
    assert _separation_witness(fan, BoxDims((1,)), 0.25, False) is None


def test_real_separation_compares_lambda_with_minus_mu():
    """For a real field S(-mu) = conj S(mu): lambda = 1 and mu = -1 are 2
    apart, but lambda + mu = 0 sits inside the 64^(-1/4) gap."""
    lam, mu = Frequency((1.0,)), Frequency((-1.0,))
    box = BoxDims((64,))
    assert _separation_witness((lam, mu), box, 0.25, False) is None
    assert _separation_witness((lam, mu), box, 0.25, True) == ((1, 2), True)


# whole coordinates meet the gap 1 of a side of 1 exactly, which tests the strict "<"
_COORD = st.one_of(st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True),
                   st.integers(-3, 3).map(float))


@st.composite
def _separation_cases(draw):
    """m arbitrary frequencies on a box in d = 1 or 2, one delta and the real flag."""
    d, m = draw(st.integers(1, 2)), draw(st.integers(2, 4))
    box = BoxDims(tuple(draw(st.sampled_from([1, 2, 7, 64, 256])) for _ in range(d)))
    freqs = [Frequency(tuple(draw(_COORD) for _ in range(d))) for _ in range(m)]
    delta = draw(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    return freqs, box, delta, draw(st.booleans())


def _torus_witness(freqs, box, delta, real):
    """Brute force: the first (j, k), and whether against -mu, where lam_j and
    sign * lam_k come within the gap in every coordinate, the distance being
    the least |x + 2 pi t| over the translates t = -1, 0, 1."""
    for j in range(1, len(freqs) + 1):
        for k in range(j + 1, len(freqs) + 1):
            for sign in ((1.0, -1.0) if real else (1.0,)):
                if all(min(abs(a - sign * b + 2.0 * math.pi * t) for t in (-1, 0, 1))
                       <= separation_gap(v, delta)
                       for a, b, v in zip(freqs[j - 1], freqs[k - 1], box.v)):
                    return (j, k), sign == -1.0
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_separation_cases())
def test_check_separation_agrees_with_a_brute_force_torus_check(case):
    assert _separation_witness(*case) == _torus_witness(*case)
