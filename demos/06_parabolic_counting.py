"""Strip counting for the doubly-parabolic map F(z) = z - 1/z.

Lebesgue measure on the real line is invariant; heights Im w replace the
disk heights log(1/|w|), and the window I x [e^-R, 1] replaces the
hyperbolic ball.  The boundary Lyapunov exponent is the closed-form
int log(1 + 1/x^2) dx = 2 pi.

Height is decided by the translation term b = beta - sum c_k x_k of
F(z) = z + b + O(1/z) at infinity: b = 0 is infinite height, whether or
not the atoms are symmetric.
"""

import numpy as np

from innerlab import counting
from innerlab import parabolic as pb

F = pb.HalfPlaneInner(beta=0.0, atoms=((0.0, 1.0),))
chi = pb.chi_ell(F, tol=1e-9)
print(f"chi_ell = {chi:.9f} (2 pi = {2 * np.pi:.9f})")
print(pb.height_classify(F))
print(pb.height_classify(pb.HalfPlaneInner(beta=3.0, atoms=((0.0, 1.0),))))
# Asymmetric atoms with b = 0.5 - 0.5 * 1 = 0: infinite height.
print(pb.height_classify(pb.HalfPlaneInner(beta=0.5, atoms=((1.0, 0.5),))))

z, I, R = 0.5j, (-1.0, 1.0), 10.0
profile = pb.enumerate_strip(F, z, I, R)
print(f"\nstrip tree below z = {z}: {profile.explored} solves, "
      f"{len(profile.counted_points)} points in I x [e^-{R:g}, 1] "
      f"({profile.farfield_pruned} far-field chains cut)")

print(f"\n{'R':>4} {'N_I':>7} {'N_I e^-R':>10} {'cesaro':>9} "
      f"{'/ (Im z |I|/chi)':>17}")
corrected = z.imag * (I[1] - I[0]) / chi
heights = counting.CountingProfile.from_strip(profile)
for R_val in (4.0, 6.0, 8.0, 10.0):
    n = counting.count(heights, R_val)
    ces = counting.cesaro(heights, R_val)
    print(f"{R_val:>4} {n:>7} {n * np.exp(-R_val):>10.5f} {ces:>9.5f} "
          f"{n * np.exp(-R_val) / corrected:>17.4f}")

print(f"\nthe pointwise count settles on Im(z) |I| / chi_ell = "
      f"{corrected:.5f} x e^R;")
print("the transverse mass below z is Im(z) (the height identity "
      "sum Im w = Im z),")
print("mirroring the log(1/|z|) factor of the disk theorems.")
