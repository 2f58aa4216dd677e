"""The boundary Lyapunov exponent chi = (1/2pi) int log |F'| d theta,
computed three independent ways.

Quadrature integrates the angular-derivative sum; the Jensen oracle uses
Jensen's formula on F' (a closed-form leading term plus the critical
points, rooted from F's factors); the Birkhoff route averages log |F'|
along a boundary orbit.
"""

from innerlab import lyapunov
from innerlab.innerfn import InnerModel

for label, F in [
    ("z^2", InnerModel.power_map(2)),
    ("z^3", InnerModel.power_map(3)),
    ("zeros {0, 0.5}", InnerModel.from_zeros(0, 0.5)),
    ("zeros {0, 0.5, -0.3+0.4i}", InnerModel.from_zeros(0, 0.5, -0.3 + 0.4j)),
]:
    quad = lyapunov.chi_quadrature(F, 1e-10)
    jensen = lyapunov.chi_jensen_oracle(F)
    birk = lyapunov.chi_birkhoff(F, 0.7, 2 * 10 ** 5, seed=1)
    sigma = abs(birk.value - jensen.value) / birk.error if birk.error else 0.0
    print(f"{label}:")
    print(f"  quadrature {quad.value:.10f}  (err est {quad.error:.1e})")
    print(f"  jensen     {jensen.value:.10f}")
    print(f"  birkhoff   {birk.value:.10f}  (+- {birk.error:.1e} std err, "
          f"{sigma:.1f} sigma off)")

print("\nAngular derivatives explode along the truncation family "
      "a_k = 1 - 2^-k at zeta = 1:")
for K in (2, 4, 6, 8):
    F = InnerModel.from_zeros(*[1 - 2.0 ** -k for k in range(1, K + 1)])
    print(f"  K = {K}: |F'(1)| = {F.boundary_deriv_modulus(0.0):.1f}")
