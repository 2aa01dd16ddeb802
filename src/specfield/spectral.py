"""Exact second-moment theory for modulated sums over boxes.

Everything here comes from one identity: for a stationary field with
autocovariance r and a box of dims v,

    E I(lam) = sum_{|h_s| < v_s} prod_s (1 - |h_s|/v_s) * r(h) * e^{-i h.lam}
             = integral over the torus of prod_s K(theta_s, v_s) * f(theta + lam)

with K the Fejer kernel and the torus measure normalized.  The lag-domain
route is exact for finite moving averages (finitely many nonzero r(h));
the frequency-domain route is evaluated by trapezoid quadrature and, since
the integrand is a trigonometric polynomial, is itself exact once the grid
out-resolves the degree.  Keeping both routes callable is the point: they
check each other.

The lag table r(h) is built once per spec and cached on it.  The lag
route evaluates a whole array of frequencies with one matrix product; the
same product gives f = sum_h r(h) e^{-i h.lam} on the grid of the
convergence report.

The covariance between two modulated sums at frequencies lam and mu over
the same box factorizes per axis into shifted geometric sums, handled by
the modulated Dirichlet kernel at lam - mu; the no-conjugate pairing is the
same sum at lam + mu, driven by the pseudo-covariance, which equals r for
real fields and vanishes identically for circular ones.  The lag geometry
of the box (in-box lags, run starts and lengths) is cached on the spec for
the last box used, and one call evaluates a batch of (lam, mu) pairs:
``covariance_of_sums`` and ``product_of_sums`` are batches of one, and
``sum_covariance`` assembles the 2m x 2m covariance of the scaled real and
imaginary parts from one batch per pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _util
from .domain import as_dims, as_frequency
from .fieldgen import LinearFieldSpec, _lag_arrays
from .kernels import _dirichlet, _wrap_angle, fejer

# imaginary residue of the lag sum: expected below 1e-10, fatal at 1e-8
IMAG_RESIDUAL_FATAL = 1e-8


class InternalConsistencyError(Exception):
    """A quantity that must be real/nonnegative by theory failed to be, beyond roundoff."""


def _fejer_lag_sums(spec: LinearFieldSpec, box, freqs):
    """E I and f at every row of ``freqs`` (N, d), from one lag table.

    E I weights r(h) by prod_s (1 - |h_s|/v_s), which is zero for lags that
    pair no box points; f weights every lag by one.  Both columns come from
    one (N, H) x (H, 2) product.
    """
    lags, r = _lag_arrays(spec)
    weight = np.prod(np.maximum(1.0 - np.abs(lags) / np.asarray(box.v), 0.0), axis=1)
    sums = np.exp(-1j * (freqs @ lags.T)) @ np.stack([weight * r, r], axis=1)
    expected = sums[:, 0]
    residual = float(np.max(np.abs(expected.imag)))
    if residual >= IMAG_RESIDUAL_FATAL:
        raise InternalConsistencyError(
            f"expected periodogram has imaginary residual {residual:.3e}"
        )
    lowest = float(np.min(expected.real))
    if lowest < -IMAG_RESIDUAL_FATAL:
        raise InternalConsistencyError(
            f"expected periodogram is negative: {lowest:.3e}"
        )
    return np.maximum(expected.real, 0.0), sums[:, 1].real


def expected_periodogram_exact(spec: LinearFieldSpec, lam, dims) -> float:
    """E I(lam) over the box, via the Fejer-weighted lag sum (exact, no quadrature)."""
    box = as_dims(dims, spec.dim)
    freq = as_frequency(lam, spec.dim).as_array()
    expected, _ = _fejer_lag_sums(spec, box, freq[np.newaxis, :])
    return float(expected[0])


def expected_periodogram_quadrature(spec: LinearFieldSpec, lam, dims,
                                    grid_points_per_dim: int | None = None) -> float:
    """E I(lam) via trapezoid quadrature of the Fejer-smoothed spectral density.

    The grid must carry at least ``4 * max(v)`` points per axis; being a
    uniform grid on a full period, the rule integrates the (trigonometric
    polynomial) integrand exactly once that resolution is met.
    """
    box = as_dims(dims, spec.dim)
    freq = as_frequency(lam, spec.dim).as_array()
    required = 4 * max(box.v)
    n_grid = required if grid_points_per_dim is None else int(grid_points_per_dim)
    if n_grid < required:
        raise ValueError(
            f"quadrature grid too coarse: {n_grid} < 4*max(v) = {required}"
        )
    d = spec.dim
    cap = _util._CHUNK_BYTES // 16  # complex128 grid points in the workspace budget
    if n_grid ** d > cap:
        fit = round(cap ** (1.0 / d))
        fit -= fit ** d > cap  # round() may land one above the floor
        raise ValueError(f"quadrature grid too large: {n_grid}^{d} points exceed the "
                         f"workspace budget; at most {fit} per axis fits")
    theta = -np.pi + 2.0 * np.pi * np.arange(n_grid) / n_grid

    amp = np.zeros((n_grid,) * d, dtype=np.complex128)
    for tap_lag, coeff in spec.taps.items():
        contrib = np.full((1,) * d, coeff, dtype=np.complex128)
        for s in range(d):
            axis = np.exp(-1j * tap_lag[s] * (theta + freq[s]))
            contrib = contrib * axis.reshape((1,) * s + (n_grid,) + (1,) * (d - 1 - s))
        amp += contrib
    integrand = spec.innovation_std ** 2 * (amp.real ** 2 + amp.imag ** 2)
    for s in range(d):
        kern = fejer(theta, box.v[s])
        integrand *= kern.reshape((1,) * s + (n_grid,) + (1,) * (d - 1 - s))
    # normalized torus measure: the integral is the grid mean
    return float(integrand.mean())


def _box_geometry(spec: LinearFieldSpec, box):
    """The lags that pair points of ``box`` and their runs, cached on the spec.

    Returns the in-box lags h (as float64), r(h), -i times the run starts
    max(1, 1 - h), and for the run lengths n = v - |h| the factors 0.5 n,
    -0.5i (n - 1) and sqrt(n) of their Dirichlet kernels.  The spec
    keeps one entry, the tuple (box.v, arrays): memory stays bounded, and a
    new box replaces the entry in one assignment, so a reader on another
    thread sees the old entry or the new one, never a mix.
    """
    entry = getattr(spec, "_geometry", None)
    if entry is not None and entry[0] == box.v:
        return entry[1]
    lags, r = _lag_arrays(spec)
    inside = np.all(np.abs(lags) < np.asarray(box.v), axis=1)
    lags, r = lags[inside], r[inside]
    length = np.asarray(box.v) - np.abs(lags)
    geometry = (lags.astype(float), r, -1j * np.maximum(1, 1 - lags), 0.5 * length,
                -0.5j * (length - 1), np.sqrt(length))
    object.__setattr__(spec, "_geometry", (box.v, geometry))
    return geometry


def _cross_moment(spec: LinearFieldSpec, box, lam, phi) -> np.ndarray:
    """(1/V) sum_h r(h) e^{-i h.lam} prod_s G_s(h_s) for each row of (P, d) lam and phi.

    G_s(h_s) sums e^{-i k phi_s} over the k with k and k + h_s both in
    1..v_s: a run of v_s - |h_s| terms starting at max(1, 1 - h_s), which
    is the modulated Dirichlet kernel up to a phase and sqrt(length).  With
    phi = lam - mu this is the covariance, with phi = lam + mu the product.
    """
    lags, r, neg_i_start, half_length, phase_rate, root = _box_geometry(spec, box)
    phi = phi[:, np.newaxis, :]
    geometric = (np.exp(neg_i_start * phi) * root
                 * _dirichlet(_wrap_angle(phi), half_length, phase_rate, root))
    # a stack of (H, d) @ (d, 1) products, one matrix-vector product per row;
    # a (P, d) @ (d, H) matrix product rounds h.lam differently, and a row
    # would no longer equal the same pair alone
    phase = np.exp(-1j * (lags @ lam[:, :, np.newaxis])[:, :, 0])
    terms = r * phase * geometric.prod(axis=-1)
    return terms.sum(axis=-1) / box.volume


def _moments_of_sums(spec: LinearFieldSpec, lams, mus, dims, sign: int) -> np.ndarray:
    """_cross_moment at phi = lam - sign * mu on paired rows, each read by
    ``as_frequency``; a circular field's product (sign -1) is exactly 0."""
    box = as_dims(dims, spec.dim)
    rows = np.array([as_frequency(f, spec.dim).coords for f in (*lams, *mus)])
    if not rows.size:
        raise ValueError("need at least one frequency")
    lam, mu = rows[:len(lams)], rows[len(lams):]
    if sign < 0 and not spec.is_real:
        return np.zeros(len(lam), dtype=np.complex128)
    return _cross_moment(spec, box, lam, lam - sign * mu)


def covariance_of_sums(spec: LinearFieldSpec, lam, mu, dims) -> complex:
    """E[S(lam) conj(S(mu))] / V over the box; reduces to E I at mu = lam."""
    return complex(_moments_of_sums(spec, [lam], [mu], dims, sign=1)[0])


def product_of_sums(spec: LinearFieldSpec, lam, mu, dims) -> complex:
    """E[S(lam) S(mu)] / V — no conjugate.

    Driven by the pseudo-covariance E[X_{l+h} X_l]: identically zero for
    circular fields (returned exactly), equal to r(h) for real ones.
    """
    return complex(_moments_of_sums(spec, [lam], [mu], dims, sign=-1)[0])


def sum_covariance(spec: LinearFieldSpec, freqs, dims) -> np.ndarray:
    """Exact 2m x 2m covariance of (Re S_1, Im S_1, ..., Re S_m, Im S_m) / sqrt(V).

    S_j = S(freqs[j]) over the box.  The blocks come from c = E S_j conj(S_k) / V
    and p = E S_j S_k / V, one batched cross moment per sign over the m^2
    ordered pairs: E Re Re = Re(c + p)/2, E Im Im = Re(c - p)/2,
    E Re_j Im_k = Im(p - c)/2 and E Im_j Re_k = Im(c + p)/2.
    """
    freqs = list(freqs)
    m = len(freqs)
    left = [f for f in freqs for _ in freqs]
    c, p = (_moments_of_sums(spec, left, freqs * m, dims, s).reshape(m, m) for s in (1, -1))
    cov = np.empty((2 * m, 2 * m))
    cov[0::2, 0::2] = (c + p).real / 2.0
    cov[1::2, 1::2] = (c - p).real / 2.0
    cov[0::2, 1::2] = (p.imag - c.imag) / 2.0
    cov[1::2, 0::2] = (c.imag + p.imag) / 2.0
    return cov


@dataclass(frozen=True)
class ExpectationRow:
    index: int
    dims: tuple[int, ...]
    sup_err: float


@dataclass(frozen=True)
class ExpectationReport:
    """Sup-norm gap between E I and f along a dims sequence, on a frequency grid."""

    rows: tuple[ExpectationRow, ...]
    lambda_grid_size: int

    def sup_errors(self) -> list[float]:
        return [row.sup_err for row in self.rows]


def uniform_convergence_report(spec: LinearFieldSpec, dims_sequence,
                               lambda_grid_size: int = 128) -> ExpectationReport:
    """sup over a uniform frequency grid of |E I(lam) - f(lam)|, per dims.

    The grid puts ``lambda_grid_size`` equispaced points per axis on
    (-pi, pi] (full tensor grid in dimension d).
    """
    n_grid = int(lambda_grid_size)
    if n_grid < 1:
        raise ValueError("lambda_grid_size must be >= 1")
    axis = -np.pi + 2.0 * np.pi * np.arange(1, n_grid + 1) / n_grid
    grid = np.stack(np.meshgrid(*([axis] * spec.dim), indexing="ij"),
                    axis=-1).reshape(-1, spec.dim)
    rows = []
    for index, dims in enumerate(dims_sequence, start=1):
        box = as_dims(dims, spec.dim)
        expected, density = _fejer_lag_sums(spec, box, grid)
        rows.append(ExpectationRow(index=index, dims=box.v,
                                   sup_err=float(np.max(np.abs(expected - density)))))
    return ExpectationReport(rows=tuple(rows), lambda_grid_size=n_grid)
