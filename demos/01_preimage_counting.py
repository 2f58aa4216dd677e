"""Counting repeated preimages inside hyperbolic balls.

Enumerates the backward tree of F(z) = z (1/2 - z)/(1 - z/2) below the
base point z = 0.3, then compares the raw count N(z, R) e^{-R} and its
exact Cesaro average against the limit constant
(1/2) log(1/|z|) / chi predicted by the counting theory.
"""

import numpy as np

from innerlab import counting, lyapunov, preimage
from innerlab.innerfn import InnerModel

F = InnerModel.from_zeros(0, 0.5)
z = 0.3
chi = lyapunov.chi_jensen_oracle(F).value
print(f"model: zeros {{0, 0.5}}, chi = {chi:.6f}")

tree = preimage.enumerate_ball(F, z, R=12.0)
print(f"tree: {tree.size()} preimages inside radius 12 "
      f"({tree.explored} solves, {tree.generations} generations)")
print(f"worst defining-equation residual: {tree.max_residual():.2e}")

profile = counting.CountingProfile.from_tree(tree)
target = counting.target_constant(z, chi)
print(f"\ntarget constant (1/2) log(1/|z|)/chi = {target:.6f}")
print(f"{'R':>4} {'N(z,R)':>8} {'N e^-R / target':>16} {'cesaro / target':>16}")
for R in range(2, 13, 2):
    n = counting.count(profile, R)
    ratio = n * np.exp(-R) / target
    ces = counting.cesaro(profile, R) / target
    print(f"{R:>4} {n:>8} {ratio:>16.4f} {ces:>16.4f}")

print("\nPower maps are the exception: preimages of z -> z^2 arrive in")
print("packets, so the count is a step function.")
sq = InnerModel.power_map(2)
sq_tree = preimage.enumerate_ball(sq, np.exp(-1.0), R=6.0)
sq_profile = counting.CountingProfile.from_tree(sq_tree)
for n in range(5):
    r = np.exp(-(0.5 ** n))
    d = np.log((1 + r) / (1 - r))
    if d > 6:
        break
    print(f"  packet at radius {d:.4f}: count jumps "
          f"{counting.count(sq_profile, d - 1e-9):>4} -> "
          f"{counting.count(sq_profile, d + 1e-9):<4} (+2^{n})")

gamma = counting.estimate_schwarz_gap(F)
print(f"\ncertified lower bound on the Schwarz gap gamma(F) = {gamma:.4f} "
      "(minimal translation toward the origin, over d(0,z) >= 1)")
