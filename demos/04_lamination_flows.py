"""Backward orbits, the exponential map, and the natural measure.

A solenoid orbit is a consistent choice of boundary preimages; pulling a
radial perturbation through it realizes exponential coordinates E(u, t),
which intertwine the geodesic flow with scaling of t.  The natural
measure assigns each box a mass that grows to a limit under backward
iteration, and the total mass over a fundamental annulus recovers the
Lyapunov exponent.
"""

import numpy as np

from innerlab import lamination as lam
from innerlab import lyapunov
from innerlab.innerfn import InnerModel

F = InnerModel.from_zeros(0, 0.5)
SQ = InnerModel.power_map(2)

print("solenoid sampling pushes forward to Lebesgue measure:")
u = lam.solenoid_orbits(F, 6, paths=20000, seed=11)[:, -1]
ang = np.sort(np.angle(u) % (2 * np.pi)) / (2 * np.pi)
n = len(ang)
ks = np.max(np.maximum(np.arange(1, n + 1) / n - ang, ang - np.arange(n) / n))
print(f"  KS statistic of u_-6 angles: {ks:.4f} "
      f"(1% uniformity threshold {1.63 / np.sqrt(n):.4f})")

print("\nexponential map on the fixed-point orbit of z^2: "
      "E(u, t) = lim (1 - t/2^n)^(2^n) = e^-t")
const = np.ones(40, dtype=complex)
for t in (0.25, 0.5, 0.75):
    E = lam.exponential_map(SQ, const, t, 30)
    print(f"  t = {t}: E = {E.real:.9f}, e^-t = {np.exp(-t):.9f}")

orb = lam.solenoid_orbits(SQ, 45, seed=5)[0]
d = lam.geodesic_intertwining_check(SQ, orb, t=0.3, s=-0.5, n_approx=30)
print(f"\ngeodesic intertwining g_s E(u,t) = E(u, e^s t): "
      f"discrepancy {d:.2e} on a random orbit")
g = lam.gh_commutation_discrepancy(2, 0.4 + 0.1j, s=0.3, t=0.25)
print(f"commutation g_-t h_s = h_(e^t s) g_-t on the fixed-point leaf: "
      f"discrepancy {g:.2e}")

print("\nbox masses of the natural measure grow to their limit:")
box = lam.AnnularBox(0.5, 0.7, 0.3, 1.1)
for est in lam.xi_box_mass(F, box, 4, grid=(16, 16)):
    print(f"  depth {est.depth}: {est.value:.6f}")

chi = lyapunov.chi_jensen_oracle(F).value
print(f"\ntotal mass over the fundamental annulus vs chi = {chi:.6f}:")
for r0 in (0.9, 0.99):
    res = lam.total_mass_check(F, r0, samples=10 ** 6, seed=7)
    print(f"  r0 = {r0}: mass = {res.mass:.6f} (+- {res.stderr:.1e})")
