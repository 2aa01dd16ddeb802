"""Sampling the fields of ``model`` on shifted boxes.  Innovations are a pure
function of (seed, absolute lattice index) — see ``rng`` — so samples over
overlapping or shifted boxes agree wherever the boxes intersect."""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .domain import BoxDims, as_dims, as_int, as_shift
from .model import FieldSample, LinearFieldSpec
from .model import (CIRCULAR_GAUSSIAN as CIRCULAR_GAUSSIAN, REAL_GAUSSIAN as REAL_GAUSSIAN,
                    first_axis_ma1 as first_axis_ma1, spec_to_json as spec_to_json,
                    white_noise as white_noise)  # perfbench's workloads import these from here
from .rng import (_BLOCK_SITES, _SCRATCH_BYTES, _hot_cuts, _lattice_size, _radius_below,
                  _replication_hash, check_seed, gaussian_lattice, pruned_lattice)


def _innovation_ranges(spec, dims, shift):
    return [(w + 1 - hi, w + v - lo) for (lo, hi), v, w in zip(spec.lag_bounds(), dims, shift)]


def _tap_windows(spec, dims) -> list[tuple[slice, ...]]:
    """The innovations eps_{k-j} that each tap j reads at the sites k of the box
    of ``dims``, as slices of a row of ``draw_innovations``, in tap order."""
    return [tuple(slice(hi - j, hi - j + v) for (_, hi), j, v in zip(spec.lag_bounds(), lag, dims))
            for lag in spec.taps]


def _filter_batch(spec, dims, eps, *, out=None, scratch=None):
    """Apply the moving-average filter to an innovation block (leading batch axis).

    The result has the dtype of ``eps``: float64 for real specs, whose taps
    enter as their real parts, and complex128 for circular ones.  Rows are
    filtered a few at a time: the first tap's product is written into them
    and the others are added through one reused product buffer, so the
    working set stays in cache.  Given ``out``, it is the leading rows; given
    ``scratch``, the product rows are carved from it.
    """
    taps = [(coeff.real if spec.is_real else coeff, window)
            for coeff, window in zip(spec.taps.values(), _tap_windows(spec, dims))]
    out = np.empty(eps.shape[:1] + tuple(dims), eps.dtype) if out is None else out[:len(eps)]
    step = max(1, _BLOCK_SITES // math.prod(dims))
    size = min(step, len(out)) * math.prod(dims)
    term = (np.empty(size, out.dtype) if scratch is None
            else scratch.view(out.dtype)[:size]).reshape((-1,) + tuple(dims))
    (lead, lead_window), rest = taps[0], taps[1:]
    for r0 in range(0, len(out), step):
        rows = slice(r0, r0 + step)
        acc = out[rows]
        prod = term[:len(acc)]
        np.multiply(lead, eps[(rows,) + lead_window], out=acc)
        for coeff, window in rest:
            np.multiply(coeff, eps[(rows,) + window], out=prod)
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
                   out=(None, None, None), prune=None) -> np.ndarray:
    """Values for many seeds at once, shape (len(seeds), v_1, ..., v_d).

    Row i is ``generate(spec, dims, shift, seeds[i]).values``, which is this
    function on a batch of one; the batch exists because hashing the
    innovation lattice vectorizes across seeds, which replication loops need.
    ``out``, the (lattice, field, scratch) arrays of ``_batch_workspace``,
    receives the innovations and the values and holds both stages' scratch,
    in place of new arrays.  ``prune`` is passed on to ``draw_innovations``.
    """
    box = as_dims(dims, spec.dim)
    eps = draw_innovations(spec, box, shift, seeds, out=out, prune=prune)
    return _filter_batch(spec, box.v, eps, out=out[1], scratch=out[2])


def draw_innovations(spec: LinearFieldSpec, dims, shift, seeds, *,
                     out=(None, None, None), prune=None) -> np.ndarray:
    """The innovations eps_{k-j} that the taps j read at the sites k of the box,
    one row per seed, from w_s + 1 - max j_s to w_s + v_s - min j_s on axis s:
    the first stage of ``generate_batch``, with the same ``out``.

    Without ``prune`` it calls ``rng.gaussian_lattice``.  With one, the
    pruned draw of ``_tail_pruning`` on the box at zero shift, it calls
    ``rng.pruned_lattice``, in the scratch of ``out``, which it then needs.
    """
    box = as_dims(dims, spec.dim)
    ranges = _innovation_ranges(spec, box.v, as_shift(shift, spec.dim))
    # a list, so that a scalar seed is refused here; the lattice checks each seed
    seeds, kind, std = list(seeds), spec.innovation_kind, spec.innovation_std
    if prune is None:
        return gaussian_lattice(seeds, ranges, kind, std, out=out[0], scratch=out[2])
    windows = _tap_windows(spec, box.v)

    def widen(mask, free):
        # the sites that a hot innovation feeds, and the kept ones ...
        sites = free[:len(seeds) * box.volume].view(np.bool_).reshape((len(seeds),) + box.v)
        np.copyto(sites, prune.kept)
        for window in windows:
            np.logical_or(sites, mask[(slice(None),) + window], out=sites)
        # ... and every innovation that those sites read
        mask[...] = False
        for window in windows:
            needed = mask[(slice(None),) + window]
            np.logical_or(needed, sites, out=needed)

    return pruned_lattice(seeds, ranges, kind, std, prune.cuts, widen, out=out[0],
                          scratch=out[2])


# the pruned draw of ``draw_innovations``: the hot cuts of each lattice site of
# one seed, and the bool mask of the box sites whose values it keeps exact
_Pruning = namedtuple("_Pruning", "cuts kept")


# the expected share of a box's innovations above which ``_tail_pruning``
# leaves the draw whole: gathering and scattering the needed draws then costs
# more than the angles it saves (65,536-site real and 256 x 128 circular
# boxes broke even at expected shares of 1/2 to 2/3)
_PRUNED_SHARE = 0.5


def _tail_pruning(spec: LinearFieldSpec, dims, levels, kept) -> _Pruning | None:
    """The pruning under which ``draw_innovations`` draws the innovations that the
    sites with |X_k| > ``levels`` (an array over the box) and the sites of the
    bool mask ``kept`` read, on the box of ``dims`` at zero shift; None where
    it would be expected to draw more than ``_PRUNED_SHARE`` of them.

    Each drawn |eps_s| is at most its radius times scale, rho_s, so
    |X_k| <= sum_j |a_j| rho_{k-j}, and X_k can pass its level only if some
    innovation s = k - j that it reads is hot: rho_s >= tau_s, where tau_s is
    the least level / sum_j |a_j| over the sites that s feeds.  ``rng._hot_cuts``
    turns each tau_s, less a margin for rounding, into an integer cut of k1.
    The draw marks the hot innovations, widens them by the tap windows to the
    sites they feed, adds the kept sites, and widens those to the innovations
    they read; only these are drawn, and the others are 0.  A site fed by no
    hot innovation stays within its level however its innovations are
    zeroed, so the sites past their levels and the kept ones get the values
    of the whole draw, bit for bit.  The expected share takes each s as hot
    on its own, with P(rho_s < tau_s) from ``rng._radius_below``.
    """
    box = as_dims(dims, spec.dim)
    ranges = _innovation_ranges(spec, box.v, (0,) * spec.dim)
    windows = _tap_windows(spec, box.v)
    tau = np.full([hi - lo + 1 for lo, hi in ranges], np.inf)
    for window in windows:
        np.minimum(tau[window], levels, out=tau[window])
    # taps all 0, or nearly, or no scale (``_radius_below`` is then 1): nothing is hot
    with np.errstate(divide="ignore", over="ignore"):
        tau /= sum(abs(coeff) for coeff in spec.taps.values())
    cold = _radius_below(tau, spec.innovation_kind, spec.innovation_std)
    # the chance that no hot innovation feeds a site and it is not kept, and
    # that no such site reads an innovation
    quiet = np.where(kept, 0.0, 1.0)
    for window in windows:
        quiet *= cold[window]
    idle = np.ones_like(tau)
    for window in windows:
        idle[window] *= quiet
    if 1.0 - idle.mean() > _PRUNED_SHARE:
        return None
    return _Pruning(_hot_cuts(tau, ranges, spec.innovation_kind, spec.innovation_std), kept)


def _workspace_sizes(spec: LinearFieldSpec, box: BoxDims, rows: int, field=True) -> list[int]:
    """Bytes of the lattice, the field (none without ``field``) and the scratch of a
    batch of ``rows`` seeds; the scratch holds the lattice's block arrays and,
    with ``field``, the masks of a pruned draw, or the filter's product rows,
    plus up to 64 bytes before each array for alignment."""
    ranges = _innovation_ranges(spec, box.v, (0,) * spec.dim)
    sites = _lattice_size(ranges, spec.is_real)
    # the lattice's mask (a byte a site, two a real pair site), then a byte a site for
    # the box's or the lattice's, in whole 64-byte lines, so the scratch views as the field's dtype
    masks = -(-rows * (sites * (2 if spec.is_real else 1) + max(box.volume, sites)) // 64) * 64
    return [16 * rows * sites,
            rows * box.volume * (8 if spec.is_real else 16) * field,
            max(_SCRATCH_BYTES + masks * field, 16 * box.volume * field) + 3 * 64]


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
