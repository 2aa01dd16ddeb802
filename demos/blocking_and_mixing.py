"""Bernstein blocking layout, truncation moments, and mixing lower bounds
for a two-tap moving average."""

from specfield.blocking import (BlockingPlan, block_index_sets, plan,
                                truncated_second_moments)
from specfield.fieldgen import (CIRCULAR_GAUSSIAN, REAL_GAUSSIAN,
                                first_axis_ma1, white_noise)
from specfield.mixing import dependence_profile, rho_prime_profile


def show_plan(v1, profile, q):
    pl = plan(v1, profile, q)
    covered = pl.p * pl.r
    print(f"  v1 = {v1}: s = {pl.s}, p = {pl.p}, r = {pl.r}; "
          f"covered {covered}/{v1}, leftover {v1 - covered}")


spec = first_axis_ma1(1, REAL_GAUSSIAN, 1.0, 1.0)

print("blocking integers (m-dependent profile from the filter support):")
profile = dependence_profile(spec)
for v1 in (100, 1000, 10_000, 1_000_000):
    show_plan(v1, profile, 0.2)

print("\nblock layout for a small hand case (v1 = 10, s = 2, p = 2, r = 3):")
hand = BlockingPlan(v1=10, s=2, p=2, r=3, q=0.2)
blocks, leftover = block_index_sets(hand, (10,))
print("  blocks:  ", [list(range(b.first_lo, b.first_hi + 1)) for b in blocks])
print("  leftover:", [list(range(z.first_lo, z.first_hi + 1)) for z in leftover])

print("\ntruncated second moments, circular white field, threshold t:")
iid = white_noise(1, CIRCULAR_GAUSSIAN, 1.0)
for t in (0.5, 1.0, 2.0, 4.0):
    bounded, tail = truncated_second_moments(iid, t)
    print(f"  t = {t}: bounded {bounded:.6f} + tail {tail:.6f} "
          f"= {bounded + tail:.6f}")

print("\nmaximal-correlation lower bounds (exhaustive window search):")
prof = rho_prime_profile(spec, window_radius=2, max_set_size=2, n_max=3)
for n in (1, 2, 3):
    print(f"  rho'({n}) >= {prof.value_at(n):.4f}")
