"""Shadowing: steering toward the real axis beats sparse interference.

A driver moves a point of the upper half-plane straight down at unit
hyperbolic speed; on a set of bad times an adversary steers instead.  If
the bad times have vanishing density, the trajectory still lands at a
boundary point and the time-averaged distance to the vertical line there
tends to zero.  The backward-orbit analog compares a branch-consistent
inverse orbit to the radial ray at its landing angle.
"""

import numpy as np

from innerlab import lamination as lam
from innerlab.innerfn import InnerModel

T = 10 ** 4
for label, bad, adversary in [
    ("no bad times", [], "up_right"),
    ("bad times U [2^k, 2^k + k]", lam.bad_times_pow2(T), "up_right"),
    ("bad everywhere (horizontal)", [(0.0, T)], "right"),
]:
    run = lam.shadowing_simulation(bad, T, adversary=adversary, start=2 + 1j)
    frac = sum(b - a for a, b in bad) / T
    print(f"{label} (density {frac:.3f}): "
          f"avg min(1, dist) = {run.final_avg:.4f}, landing x = {run.zeta:.4f}")

print("\nbackward-orbit analog for z -> z^2:")
SQ = InnerModel.power_map(2)
orb = lam.branch_orbit(SQ, 0.4, 80, lambda roots: int(np.argmax(roots.real)))
st = lam.radial_shadowing_stat(SQ, orb)
print(f"  branch-consistent orbit (positive roots): stat = {st.value:.2e}, "
      f"landing angle {st.limit_angle:.3f}, conclusive = {st.conclusive}")

F = InnerModel.from_zeros(0, 0.5)
orb = lam.sample_interior_orbit(F, 0.3, 200, seed=17)
st = lam.radial_shadowing_stat(F, orb)
print(f"  random-branch orbit: stat = {st.value:.3f}, "
      f"conclusive = {st.conclusive}")
print("  (random branches equidistribute over the solenoid, so the raw")
print("   coordinate path has no limit angle; the flag reports exactly that)")
