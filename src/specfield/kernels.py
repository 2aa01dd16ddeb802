"""Fejer and modulated Dirichlet kernels on the torus.

The Fejer kernel of order n,

    K(alpha, n) = sin(n*alpha/2)^2 / (n * sin(alpha/2)^2),

is the squared modulus of the modulated Dirichlet kernel

    D(alpha, n) = n^{-1/2} * (1 - exp(-i*n*alpha)) / (1 - exp(-i*alpha)),

and both extend continuously across alpha = 0 (mod 2*pi) with limits n
and sqrt(n).  K integrates to 2*pi over a period and is bounded by
pi^2 / (n * alpha^2) away from the singularity (sin(x) >= 2x/pi on
[0, pi/2]), which is what makes the expected periodogram concentrate.

Both kernels accept scalars or arrays in ``alpha`` and reduce the angle
to (-pi, pi] first, so any real argument is accepted; the modulated
Dirichlet kernel also broadcasts over an array of orders ``n``.
"""

from __future__ import annotations

import numpy as np

# Below this distance of |1 - exp(-i*alpha)| the ratio is treated as the
# removable singularity and replaced by its analytic limit.
SINGULARITY_EPS = 1e-12

_TWO_PI = 2.0 * np.pi


def _wrap_angle(alpha):
    """Reduce an angle to (-pi, pi]."""
    a = np.asarray(alpha, dtype=float)
    wrapped = a - _TWO_PI * np.rint(a / _TWO_PI)
    # rint() sends pi to -pi; fold the boundary back to +pi
    return np.where(wrapped <= -np.pi, wrapped + _TWO_PI, wrapped)


def _check_order(n):
    orders = np.asarray(n)
    # a float, bool or object (an int beyond 64 bits) array is refused, never
    # truncated; a uint64 from 2^63 on wraps below 1 and is refused too
    if orders.dtype.kind not in "iu" or orders.astype(np.int64).min(initial=1) < 1:
        raise ValueError(f"kernel order must be a positive 64-bit integer, got {n}")
    orders = orders.astype(np.int64, copy=False)
    return orders if orders.ndim else int(orders)


def fejer(alpha, n):
    """Fejer kernel K(alpha, n); returns the limit n at alpha = 0 (mod 2*pi).

    Vectorized over ``alpha``; scalar in, scalar out.
    """
    n = _check_order(n)
    a = _wrap_angle(alpha)
    sh = np.sin(0.5 * a)
    near_zero = 2.0 * np.abs(sh) < SINGULARITY_EPS  # |1 - exp(-i a)| = 2|sin(a/2)|
    denom = np.where(near_zero, 1.0, sh * sh)
    num = np.sin(0.5 * n * a) ** 2
    out = np.where(near_zero, float(n), num / (n * denom))
    return out if np.ndim(alpha) else float(out)


def dirichlet_mod(alpha, n):
    """Modulated Dirichlet kernel D(alpha, n) = n^{-1/2} (1-e^{-in a})/(1-e^{-ia}).

    Satisfies |D|^2 = K exactly in exact arithmetic; at alpha = 0 (mod 2*pi)
    the removable singularity is replaced by the limit sqrt(n).  Factoring
    e^{-it/2} out of both 1 - e^{-it} terms gives the cancellation-free form

        D(alpha, n) = n^{-1/2} * sin(n*alpha/2)/sin(alpha/2) * e^{-i(n-1)alpha/2},

    good at every angle (the naive difference quotient loses ~5 digits of
    the imaginary part near alpha ~ 1e-6 through 1 - cos(alpha)).
    """
    n = _check_order(n)
    out = _dirichlet(_wrap_angle(alpha), 0.5 * n, -0.5j * (n - 1), np.sqrt(n))
    return out if np.ndim(out) else complex(out)


def _dirichlet(a, half_n, phase_rate, root):
    """D(a, n) on angles ``a`` in (-pi, pi], from 0.5 n, -0.5i (n - 1) and
    sqrt(n) of valid orders n, which callers reusing the orders compute once."""
    phase = np.exp(phase_rate * a)
    sh = np.sin(0.5 * a)
    if np.abs(sh).min(initial=1.0) >= 0.5 * SINGULARITY_EPS:
        # every angle is off the singularity: nothing to patch
        return np.sin(half_n * a) / (sh * root) * phase
    near_zero = 2.0 * np.abs(sh) < SINGULARITY_EPS
    ratio = np.sin(half_n * a) / (np.where(near_zero, 1.0, sh) * root)
    return np.where(near_zero, root + 0j, ratio * phase)
