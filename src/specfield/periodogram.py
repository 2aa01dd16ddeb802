"""Modulated sums and periodograms over rectangular boxes.

For a sample on a (possibly shifted) box and a torus frequency lam,

    S(lam) = sum_k exp(-i k.lam) X_k      (k runs over absolute indices)
    I(lam) = |S(lam)|^2 / V               (V = box volume)

Sums are taken by direct summation — never an FFT — because the
frequencies of interest are off the Fourier grid.  Drivers build each grid
exp(-i k.lam) once per box with ``phase_grid``; ``batched_modulated_sums``
forms each S from one (row, grid) pair alone, so a sample and a batch row
agree bit for bit.  A BLAS matrix product over the whole batch would not:
its last bits change with the batch size or the number of frequencies.
"""

from __future__ import annotations

import numpy as np

from .domain import as_frequency
from .fieldgen import FieldSample

_DOT_CHUNK = 8192


def _separable_grid(axis_vectors) -> np.ndarray:
    """prod_s vec_s[k_s] over the box, shape (v_1, ..., v_d), in axis order."""
    d = len(axis_vectors)
    grid = np.ones((1,) * d, dtype=np.result_type(*axis_vectors))
    for s, vec in enumerate(axis_vectors):
        grid = grid * vec.reshape((1,) * s + (len(vec),) + (1,) * (d - 1 - s))
    return grid


def phase_grid(coords, lam) -> np.ndarray:
    """exp(-i k.lam) over the box, as a flat (volume,) complex array.

    ``coords`` are per-axis absolute coordinates, e.g. ``sample.axis_coords()``;
    the grid is flattened in C order to match ``values.ravel()``.
    """
    coords = [np.asarray(c, dtype=np.int64) for c in coords]
    freq = as_frequency(lam, len(coords))
    return _separable_grid([np.exp(-1j * w * c.astype(np.float64))
                            for c, w in zip(coords, freq)]).ravel()


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
    phases = [phase_grid(sample.axis_coords(), lam) for lam in freqs]
    sums = batched_modulated_sums(sample.values[None], phases)
    vol = sample.dims.volume
    return [(s, (s.real * s.real + s.imag * s.imag) / vol) for s in map(complex, sums[0])]


def batched_modulated_sums(values: np.ndarray, phases) -> np.ndarray:
    """S for a batch of realizations, shape (R, len(phases)).

    ``values`` has shape (R, v_1, ..., v_d) and ``phases`` are flat grids
    from ``phase_grid`` over the same box.  Entry (r, j) is one sum of row r
    with grid j, bit-identical to the row summed alone and at any number of
    BLAS threads.  A complex row is dotted in chunks of ``_DOT_CHUNK``
    entries added in order, since OpenBLAS splits a dot of more than 10^4
    entries across its threads.  A real row is multiplied, with no cast and
    no copy, by the grid viewed as a (volume, 2) real matrix of (re, im) pairs.
    """
    flat = values.reshape(values.shape[0], -1)
    out = np.empty((flat.shape[0], len(phases)), dtype=np.complex128)
    real = not np.iscomplexobj(flat)
    for j, ph in enumerate(phases):
        if real:
            pairs = ph.view(np.float64).reshape(-1, 2)
            for r, row in enumerate(flat):
                out[r, j] = complex(*(row @ pairs))
        else:
            for r, row in enumerate(flat):
                out[r, j] = np.dot(row[:_DOT_CHUNK], ph[:_DOT_CHUNK])
                for lo in range(_DOT_CHUNK, len(row), _DOT_CHUNK):
                    out[r, j] += np.dot(row[lo:lo + _DOT_CHUNK], ph[lo:lo + _DOT_CHUNK])
    return out
