import math

import numpy as np
import pytest

from specfield.domain import BoxDims, Frequency
from specfield.frequencies import (FrequencyScheme, SeparationSpec,
                                   build_separated, check_separation,
                                   is_admissible, separation_gap)


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
    result = check_separation(scheme, SeparationSpec.uniform(2, 0.25))
    assert result.ok
    assert result.witness is None


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
    dims_seq = [BoxDims((8,)), BoxDims((16,))]
    lam = Frequency((0.5,))
    scheme = FrequencyScheme(base=lam, per_n=((lam, lam), (lam, lam)),
                             dims_sequence=tuple(dims_seq))
    result = check_separation(scheme, SeparationSpec.uniform(2, 0.2))
    assert not result.ok
    assert result.witness == (1, 2, 1)


def test_decaying_gap_fails_eventually():
    """Gap n^{-0.4} loses to the n^{-0.3} threshold from the very first box."""
    dims_seq = [BoxDims((n,)) for n in range(1, 6)]
    per_n = tuple(
        (Frequency((0.5,)), Frequency((0.5 + n ** -0.4,)))
        for n in range(1, 6)
    )
    scheme = FrequencyScheme(base=Frequency((0.5,)), per_n=per_n,
                             dims_sequence=tuple(dims_seq))
    result = check_separation(scheme, SeparationSpec.uniform(2, 0.2))
    assert not result.ok
    # at n = 1 the gap equals the threshold (1 > 1 is false), so the first
    # violating index is already 1
    assert result.witness == (1, 2, 1)


def test_onset_index_skips_early_boxes():
    # same sequences as above but demand separation only from n = 6 onward,
    # where no boxes remain to check
    dims_seq = [BoxDims((n,)) for n in range(1, 6)]
    per_n = tuple(
        (Frequency((0.5,)), Frequency((0.5 + n ** -0.4,)))
        for n in range(1, 6)
    )
    scheme = FrequencyScheme(base=Frequency((0.5,)), per_n=per_n,
                             dims_sequence=tuple(dims_seq))
    result = check_separation(scheme, SeparationSpec.uniform(2, 0.2, onset=6))
    assert result.ok


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


def test_separation_spec_validation():
    with pytest.raises(ValueError):
        SeparationSpec.uniform(2, 0.6)
    with pytest.raises(ValueError):
        SeparationSpec.uniform(2, 0.2, onset=0)
    spec = SeparationSpec.uniform(3, 0.2)
    assert spec.m == 3
    assert spec.delta[(1, 2)] == 0.2
    assert spec.onset[(2, 3)] == 1


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
    scheme = FrequencyScheme(base=lam, per_n=((lam, mu),), dims_sequence=(BoxDims((64,)),))
    result = check_separation(scheme, SeparationSpec.uniform(2, 0.25))
    assert not result.ok
    assert result.witness == (1, 2, 1)
    # a pair apart by more than the gap both ways round still passes
    far = Frequency((-math.pi + 0.5,))
    scheme = FrequencyScheme(base=lam, per_n=((lam, far),), dims_sequence=(BoxDims((64,)),))
    assert check_separation(scheme, SeparationSpec.uniform(2, 0.25)).ok
