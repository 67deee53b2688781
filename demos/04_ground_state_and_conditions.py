# The field-free ground state and the admissibility conditions on B.
#
# Shooting on the radial equation gives the limit profile and its level;
# everything about the magnetic problem is then measured against it: the
# smallness number sigma, the field threshold, and the vanishing of the
# corrected potential at infinity.

import numpy as np

from magnls.calculus import FunctionalParams, Grid
from magnls.field import field_library
from magnls.solver import condition_report, minimize_constrained, radial_ground_state

print("shooting (N=3, p=4, lambda=1):")
gs = radial_ground_state(3, 4.0, 1.0)
print("  u(0)        =", gs.u0)
print("  ||w||_2^2   =", gs.norm2**2)
print("  ||w||_4^4   =", gs.normp**4)
print("  Nehari rel. =", gs.nehari_residual())
print("  level c     =", gs.c_inf, " = (p-2)/(2p) ||w||_p^p")

print("the 1D profile is the exact soliton sqrt(2) sech(x):")
gs1 = radial_ground_state(1, 4.0, 1.0)
print("  sup |w - sqrt(2) sech| =", np.max(np.abs(gs1.w - np.sqrt(2) / np.cosh(gs1.r))))

print("conditions on the field (2D ground state):")
gs2 = radial_ground_state(2, 4.0, 1.0)
params = FunctionalParams(p=4.0, lam=1.0, dim=2)
# a small grid: the probes' moving frames are sampled on it, B over its box
# [-2, 2]^2, which holds the largest |B| of both fields, and the report's
# lambda0 (not read here) is estimated on it
probe = Grid(2.0, 9, dim=2)
for b in (0.3, 0.9):
    rep = condition_report(field_library("landau", b=b), gs2, params, probe)
    print(f"  landau b={b}: sigma = {rep.sigma:.4f}, smallness holds: {rep.holds_B} "
          f"(threshold b = {rep.threshold_B:.4f}), vanishes at infinity: {rep.holds_A}")
rep = condition_report(field_library("gaussian_decay", b0=0.4, s=1.0), gs2, params, probe)
print(f"  decaying field: sigma = {rep.sigma:.4f}, vanishes at infinity: {rep.holds_A}")

print("constrained minimization vs the shooting value (2D):")
C_cont = (gs2.energy + gs2.norm2**2) / gs2.normp**2
res = minimize_constrained(field_library("zero"), params, Grid(8.0, 129, dim=2), max_iters=3000)
print(f"  grid minimum {res.value:.6f} vs continuum {C_cont:.6f} "
      f"({(res.value - C_cont) / C_cont:+.2%})")
res_b = minimize_constrained(field_library("landau", b=0.2), params, Grid(8.0, 129, dim=2), max_iters=3000)
print(f"  with a field (b=0.2): {res_b.value:.6f}  (strictly above the free value)")
