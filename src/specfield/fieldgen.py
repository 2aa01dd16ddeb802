"""Sampling the fields of ``model`` on shifted boxes.  Innovations are a pure
function of (seed, absolute lattice index) — see ``rng`` — so samples over
overlapping or shifted boxes agree wherever the boxes intersect."""

from __future__ import annotations

import math

import numpy as np

from .domain import BoxDims, as_dims, as_int, as_shift
from .model import FieldSample, LinearFieldSpec
from .model import (CIRCULAR_GAUSSIAN as CIRCULAR_GAUSSIAN, REAL_GAUSSIAN as REAL_GAUSSIAN,
                    first_axis_ma1 as first_axis_ma1, spec_to_json as spec_to_json,
                    white_noise as white_noise)  # perfbench's workloads import these from here
from .rng import (_BLOCK_SITES, _SCRATCH_BYTES, _lattice_size, _replication_hash, check_seed,
                  gaussian_lattice)


def _innovation_ranges(spec, dims, shift):
    return [(w + 1 - hi, w + v - lo) for (lo, hi), v, w in zip(spec.lag_bounds(), dims, shift)]


def _filter_batch(spec, dims, eps, bounds, *, out=None, scratch=None):
    """Apply the moving-average filter to an innovation block (leading batch axis).

    The result has the dtype of ``eps``: float64 for real specs, whose taps
    enter as their real parts, and complex128 for circular ones.  A circular
    spec whose taps are all real filters the float64 views of ``eps`` and of
    the result, two reals per site, so its last-axis windows are twice as
    long; that gives the complex products' values with real multiplies.
    Rows are filtered a few at a time: the first tap's product is written
    into them and the others are added through one reused product buffer,
    so the working set stays in cache.  Given ``out``, it is the leading rows;
    given ``scratch``, the product rows are carved from it.
    """
    real_taps = all(coeff.imag == 0.0 for coeff in spec.taps.values())
    pairs = real_taps and not spec.is_real
    # floats per site along each axis of the filtered arrays
    width = [1] * (len(dims) - 1) + [2 if pairs else 1]
    taps = [(coeff.real if real_taps else coeff,
             tuple(slice(k * (hi - j), k * (hi - j + v))
                   for (_, hi), j, v, k in zip(bounds, lag, dims, width)))
            for lag, coeff in spec.taps.items()]
    out = np.empty(eps.shape[:1] + tuple(dims), eps.dtype) if out is None else out[:len(eps)]
    src, dst = (eps.view(np.float64), out.view(np.float64)) if pairs else (eps, out)
    step = max(1, _BLOCK_SITES // math.prod(dims))
    size = min(step, len(out)) * math.prod(dst.shape[1:])
    term = (np.empty(size, dst.dtype) if scratch is None
            else scratch.view(dst.dtype)[:size]).reshape((-1,) + dst.shape[1:])
    (lead, lead_window), rest = taps[0], taps[1:]
    for r0 in range(0, len(out), step):
        rows = slice(r0, r0 + step)
        acc = dst[rows]
        prod = term[:len(acc)]
        np.multiply(lead, src[(rows,) + lead_window], out=acc)
        for coeff, window in rest:
            np.multiply(coeff, src[(rows,) + window], out=prod)
            acc += prod
    return out


def generate(spec: LinearFieldSpec, dims, shift=None, seed: int = 0) -> FieldSample:
    """Draw the field over the box of side lengths ``dims`` anchored at ``shift``.

    The innovation at each absolute lattice index is a pure function of
    ``(seed, index)``, so two samples with the same seed agree exactly on
    any overlap of their (shifted) boxes.
    """
    box = as_dims(dims, spec.dim)
    w = as_shift(shift, spec.dim)
    seed = check_seed(seed)
    return FieldSample(dims=box, shift=w, values=generate_batch(spec, box, w, [seed])[0],
                       seed=seed)


def generate_batch(spec: LinearFieldSpec, dims, shift, seeds, *,
                   out=(None, None, None)) -> np.ndarray:
    """Values for many seeds at once, shape (len(seeds), v_1, ..., v_d).

    Row i is ``generate(spec, dims, shift, seeds[i]).values``, which is this
    function on a batch of one; the batch exists because hashing the
    innovation lattice vectorizes across seeds, which replication loops need.
    ``out``, the (lattice, field, scratch) arrays of ``_batch_workspace``,
    receives the innovations and the values and holds both stages' scratch,
    in place of new arrays.
    """
    box = as_dims(dims, spec.dim)
    eps = draw_innovations(spec, box, shift, seeds, out=out)
    return _filter_batch(spec, box.v, eps, spec.lag_bounds(), out=out[1], scratch=out[2])


def draw_innovations(spec: LinearFieldSpec, dims, shift, seeds, *,
                     out=(None, None, None)) -> np.ndarray:
    """The innovations eps_{k-j} that the taps j read at the sites k of the box,
    one row per seed, from w_s + 1 - max j_s to w_s + v_s - min j_s on axis s:
    the first stage of ``generate_batch``, with the same ``out``."""
    box = as_dims(dims, spec.dim)
    ranges = _innovation_ranges(spec, box.v, as_shift(shift, spec.dim))
    # a list, so that a scalar seed is refused here; the lattice checks each seed
    return gaussian_lattice(list(seeds), ranges, spec.innovation_kind, spec.innovation_std,
                            out=out[0], scratch=out[2])


def _workspace_sizes(spec: LinearFieldSpec, box: BoxDims, rows: int, field=True) -> list[int]:
    """Bytes of the lattice, the field (none without ``field``) and the scratch of a
    batch of ``rows`` seeds; the scratch holds the lattice's block arrays and the
    filter's product rows, plus up to 64 bytes before each array for alignment."""
    ranges = _innovation_ranges(spec, box.v, (0,) * spec.dim)
    return [16 * rows * _lattice_size(ranges, spec.is_real),
            rows * box.volume * (8 if spec.is_real else 16) * field,
            max(_SCRATCH_BYTES, 16 * box.volume * field) + 3 * 64]


def _batch_workspace(spec: LinearFieldSpec, box: BoxDims, rows: int, buffer, field=True):
    """The (lattice, field, scratch) arrays of a batch of ``rows`` seeds, carved in
    turn from the uint8 ``buffer``, which holds ``_workspace_sizes``; without
    ``field`` the field has no rows.  Each starts on a 64-byte boundary, so the
    passes over them run at one speed wherever the allocator put the buffer."""
    lattice, values, _ = _workspace_sizes(spec, box, rows, field)
    a = -buffer.ctypes.data % 64
    b = a + lattice + -lattice % 64
    c = b + values + -values % 64
    return (buffer[a:a + lattice].view(np.complex128).reshape(rows, -1),
            buffer[b:b + values].view(np.float64 if spec.is_real else np.complex128
                                      ).reshape((rows * field,) + box.v),
            buffer[c:])


def replication_seeds(master_seed, count: int, offset: int = 0) -> list[int]:
    """Per-replication seeds derived from a master seed (pure, collision-resistant)."""
    count, start = as_int(count, "count"), as_int(offset, "offset")
    return _replication_hash(master_seed, np.arange(start, start + count)).tolist()
