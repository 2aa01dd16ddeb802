"""Modulated sums and periodograms over rectangular boxes.

For a sample on a (possibly shifted) box and a torus frequency lam,

    S(lam) = sum_k exp(-i k.lam) X_k      (k runs over absolute indices)
    I(lam) = |S(lam)|^2 / V               (V = box volume)

Sums are taken by direct summation — never an FFT — because the
frequencies of interest are off the Fourier grid.  Drivers build each grid
exp(-i k.lam) once per box with ``phase_grid``.  Every S of the library,
of a single sample, a batch row or a part of one, is summed by
``_row_sums``: one row against each grid, in index order, by numpy
multiplies and ``np.add.reduce``, so no batch size, BLAS kernel or thread
count reaches its bits.
"""

from __future__ import annotations

import numpy as np

from .domain import as_dims, as_frequency, as_shift
from .model import FieldSample


def _separable_grid(axis_vectors) -> np.ndarray:
    """prod_s vec_s[k_s] over the box, shape (v_1, ..., v_d), in axis order."""
    d = len(axis_vectors)
    grid = np.ones((1,) * d, dtype=np.result_type(*axis_vectors))
    for s, vec in enumerate(axis_vectors):
        grid = grid * vec.reshape((1,) * s + (len(vec),) + (1,) * (d - 1 - s))
    return grid


def _coords(dims, shift) -> list[np.ndarray]:
    """The absolute coordinates w_s+1 .. w_s+v_s of each axis of the box of ``dims``
    at ``shift`` (default zeros), int64 cast to float64: exact to 2^53, refused past."""
    box = as_dims(dims)
    shift = as_shift(shift, box.dim)
    if any(max(-w - 1, w + v) > 2 ** 53 for w, v in zip(shift, box.v)):
        raise ValueError(f"shift {list(shift)} puts a box coordinate past 2^53 in absolute value")
    return [np.arange(w + 1, w + v + 1, dtype=np.int64).astype(np.float64)
            for w, v in zip(shift, box.v)]


def index_products(dims, shift=None) -> np.ndarray:
    """<k> = prod_i k_i over the box of ``dims`` at ``shift`` (default zeros),
    whose coordinates must all be >= 1."""
    coords = _coords(dims, shift)
    if any(c[0] < 1 for c in coords):
        raise ValueError("index products need every box coordinate >= 1 "
                         "(use a nonnegative shift)")
    return _separable_grid(coords)


def phase_grid(dims, lam, shift=None) -> np.ndarray:
    """exp(-i k.lam) over the box of ``dims`` at ``shift`` (default zeros), as
    a flat (volume,) complex array in C order, to match ``values.ravel()``."""
    coords = _coords(dims, shift)
    freq = as_frequency(lam, len(coords))
    return _separable_grid([np.exp(-1j * w * c) for c, w in zip(coords, freq)]).ravel()


def modulated_sum(sample: FieldSample, lam) -> complex:
    """S(lam) = sum over the box of exp(-i k.lam) X_k, absolute indices."""
    return periodogram_vector(sample, [lam])[0][0]


def periodogram(sample: FieldSample, lam) -> float:
    """I(lam) = |S(lam)|^2 / volume; nonnegative, invariant to box shifts in law."""
    return periodogram_vector(sample, [lam])[0][1]


def periodogram_vector(sample: FieldSample, freqs) -> list[tuple[complex, float]]:
    """(S, I) pairs for several frequencies of one sample.

    ``modulated_sum`` and ``periodogram`` are this function at one frequency;
    all three sum the sample with ``_row_sums``, as a batch row is summed.
    """
    phases = [phase_grid(sample.dims, lam, sample.shift) for lam in freqs]
    sums = np.array(_row_sums(sample.values.ravel(), phases), dtype=np.complex128)
    return [(complex(s), float(i)) for s, i in zip(sums, _periodograms(sums, sample.dims.volume))]


def _periodograms(sums: np.ndarray, volume: int) -> np.ndarray:
    """I = |S|^2 / V elementwise, of an array of modulated sums over a box of
    ``volume`` sites: the one form of I of every sample, report and part."""
    return (sums.real * sums.real + sums.imag * sums.imag) / volume


def _row_sums(x, phases) -> list:
    """S of one flat row ``x`` against each equally long grid of ``phases``, in
    index order: each product with the grid (with its real and imaginary parts
    for a real row) is summed by ``np.add.reduce``, so equal values in equal
    order give equal bits, be they a whole row or a part's gathered sites."""
    if np.iscomplexobj(x):
        return [np.add.reduce(x * ph) for ph in phases]
    return [complex(np.add.reduce(x * ph.real), np.add.reduce(x * ph.imag)) for ph in phases]


def batched_modulated_sums(values: np.ndarray, phases) -> np.ndarray:
    """S for a batch of realizations, shape (R, len(phases)).

    ``values`` has shape (R, v_1, ..., v_d) and ``phases`` are flat grids
    from ``phase_grid`` over the same box.  Row r is ``_row_sums`` of that
    row alone, so it is bit-identical to the row summed as a sample.
    """
    flat = values.reshape(values.shape[0], -1)
    return np.array([_row_sums(row, phases) for row in flat],
                    dtype=np.complex128).reshape(len(flat), len(phases))
