"""Expected periodogram of a two-tap moving average vs its spectral density.

Prints the exact finite-box expectation next to the limiting density on a
small frequency grid, the quadrature cross-check, and the sup-error table
showing uniform convergence as the box grows (the error is exactly 2/v1
for this filter).
"""

import math

from specfield.model import REAL_GAUSSIAN, first_axis_ma1, spectral_density
from specfield.spectral import (expected_periodogram_exact,
                                expected_periodogram_quadrature,
                                uniform_convergence_report)


def main():
    spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)  # X_k = e_k + e_{k-1}
    v = (32,)

    print(f"box v = {v}")
    print(f"{'lambda':>8} {'E I (exact)':>12} {'f':>10} {'quadrature':>12}")
    for frac in (-0.75, -0.25, 0.25, 0.5, 0.75):
        lam = (frac * math.pi,)
        exact = expected_periodogram_exact(spec, lam, v)
        quad = expected_periodogram_quadrature(spec, lam, v, 4 * v[0])
        f = spectral_density(spec, lam)
        print(f"{lam[0]:8.4f} {exact:12.6f} {f:10.6f} {quad:12.6f}")

    report = uniform_convergence_report(spec, [(8,), (16,), (32,), (64,),
                                               (128,)], 128)
    print("\nsup over a 128-point grid of |E I - f|:")
    for row in report.rows:
        print(f"  v1 = {row.dims[0]:4d}: {row.sup_err:.6f}")


if __name__ == "__main__":
    main()
