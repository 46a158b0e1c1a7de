"""P1 finite elements for the surface Dirichlet-to-Neumann spectrum.

The solver condenses the P1 stiffness of the tank onto the free surface (a
Schur complement; on the rectangle one Fourier mode at a time, with no mesh
built) and solves the generalized eigenvalue problem there against the
surface mass.  Conforming elements approach the
true eigenvalues FROM ABOVE, and the error decays at second order in the
mesh size -- both visible on the rectangle, where the answer is known.
"""

import math
import time

import numpy as np

from steklov import fem, geometry, spectra

L, H = math.pi, 1.0
dom = geometry.rectangle_domain(L, H)
exact = spectra.rectangle_sn(L, H, 11).values[1:]   # skip the zero mode

print("SN eigenvalues 1..10 on the rectangle, FEM vs exact")
print(f"{'h':>6} {'max rel err':>12} {'order':>7} {'time':>8}")
prev = None
for h in (0.16, 0.08, 0.04, 0.02):
    t0 = time.perf_counter()
    s = fem.dtn_spectrum(dom, "SN", 11, target_h=h)
    dt = time.perf_counter() - t0
    err = float(np.max(np.abs(s.values[1:] - exact) / exact))
    order = "" if prev is None else f"{math.log2(prev / err):7.2f}"
    print(f"{h:>6.2f} {err:>12.3e} {order:>7} {dt:>7.2f}s")
    prev = err

# one-sided convergence: every discrete eigenvalue sits above the true one
assert np.all(s.values[1:] >= exact * (1 - 1e-12))
print("\ndiscrete eigenvalues bound the true ones from above  (checked)")

# a two-mesh run certifies the error: |nu_h - nu_(h/2)| over-estimates the
# distance of the fine value to the limit, because the error drops ~4x
s_fine, cert = fem.dtn_with_error(dom, "SN", 11, target_h=0.04)
true_err = np.abs(s_fine.values[1:] - exact)
print("\ncertificates vs true error (fine mesh at h = 0.02):")
for k in range(0, 10, 3):
    print(f"  mode {k+1}: certificate {cert[k+1]:.2e}, true {true_err[k]:.2e}")
assert np.all(cert[1:] >= true_err)

# the same machinery runs on any polygon; mesh statistics for a trapezoid
trap = geometry.trapezoid_domain(2.0, math.pi / 3, 0.5)
mesh = fem.triangulate(trap, 0.05)
print(f"\ntrapezoid mesh at target 0.05: {len(mesh.nodes)} nodes, "
      f"{len(mesh.triangles)} triangles, h = {mesh.mesh_size:.4f}")
s_trap = fem.dtn_spectrum(trap, "SD", 5, target_h=0.05)
print("first clamped-wall eigenvalues:",
      np.array2string(s_trap.values, precision=5))
