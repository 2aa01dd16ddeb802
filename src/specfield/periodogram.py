"""Modulated sums and periodograms over rectangular boxes.

For a sample on a (possibly shifted) box and a torus frequency lam,

    S(lam) = sum_k exp(-i k.lam) X_k      (k runs over absolute indices)
    I(lam) = |S(lam)|^2 / V               (V = box volume)

Sums are taken by direct summation — never an FFT — because the
frequencies of interest are off the Fourier grid.  Only
``batched_modulated_sums`` forms S, with one ``np.dot`` per (row, frequency),
and single samples go through it as a batch of one, so a sample and a batch
row agree bit for bit.  A BLAS matrix product would not: its last bits
change with the batch size or the number of frequencies.
"""

from __future__ import annotations

import numpy as np

from .domain import BoxDims, Frequency, as_frequency
from .fieldgen import FieldSample

__all__ = [
    "BoxDims",
    "Frequency",
    "modulated_sum",
    "periodogram",
    "periodogram_vector",
    "phase_grid",
]


def phase_grid(sample_or_coords, lam) -> np.ndarray:
    """exp(-i k.lam) over the box, as a flat (volume,) complex array.

    Accepts a FieldSample or a list of per-axis absolute coordinate arrays.
    The grid is the outer product of per-axis phase vectors, flattened in C
    order to match ``values.ravel()``.
    """
    if isinstance(sample_or_coords, FieldSample):
        coords = sample_or_coords.axis_coords()
    else:
        coords = [np.asarray(c, dtype=np.int64) for c in sample_or_coords]
    freq = as_frequency(lam, len(coords))
    grid = np.ones((1,) * len(coords), dtype=np.complex128)
    for s, (c, w) in enumerate(zip(coords, freq)):
        axis_phase = np.exp(-1j * w * c.astype(np.float64))
        shape = (1,) * s + (len(c),) + (1,) * (len(coords) - 1 - s)
        grid = grid * axis_phase.reshape(shape)
    return grid.ravel()


def modulated_sum(sample: FieldSample, lam) -> complex:
    """S(lam) = sum over the box of exp(-i k.lam) X_k, absolute indices."""
    return periodogram_vector(sample, [lam])[0][0]


def periodogram(sample: FieldSample, lam) -> float:
    """I(lam) = |S(lam)|^2 / volume; nonnegative, invariant to box shifts in law."""
    return periodogram_vector(sample, [lam])[0][1]


def periodogram_vector(sample: FieldSample, freqs) -> list[tuple[complex, float]]:
    """(S, I) pairs for several frequencies of one sample.

    ``modulated_sum`` and ``periodogram`` are this function at one frequency;
    all three call ``batched_modulated_sums`` on the sample as a batch of one.
    """
    sums = batched_modulated_sums(sample.values[None], sample.axis_coords(), freqs)
    vol = sample.dims.volume
    return [(s, (s.real * s.real + s.imag * s.imag) / vol) for s in map(complex, sums[0])]


def batched_modulated_sums(values: np.ndarray, coords, freqs) -> np.ndarray:
    """S for a batch of realizations, shape (R, len(freqs)).

    ``values`` has shape (R, v_1, ..., v_d) and ``coords`` are the per-axis
    absolute coordinates.  Each phase grid is built once per call; entry
    (r, j) is ``np.dot`` of row r with grid j, so it is bit-identical to the
    same row summed alone.
    """
    phases = [phase_grid(coords, lam) for lam in freqs]
    flat = values.reshape(values.shape[0], -1)
    out = np.empty((flat.shape[0], len(phases)), dtype=np.complex128)
    for j, ph in enumerate(phases):
        for r, row in enumerate(flat):
            out[r, j] = np.dot(row, ph)
    return out
