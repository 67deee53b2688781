# The discrete covariant calculus and its guaranteed inequalities.
#
# Closed-form Gaussian integrals pin the energies; the diamagnetic and
# sandwich inequalities hold nodewise, and the weighted-adjoint Laplacian
# reproduces the energy exactly (the variational backbone).

import numpy as np

from magnls.calculus import (
    ComplexField,
    FunctionalParams,
    Grid,
    bump,
    diamagnetic_check,
    el_residual,
    energy_EA,
    functional_I,
    functional_J,
    inner,
    lp_norm,
    magnetic_laplacian,
    pointwise_bounds_check,
)
from magnls.field import field_library

grid = Grid(6.0, 289, dim=2)
u = bump(grid, width=1.0)  # exp(-|x|^2 / 2)
zero = field_library("zero")
landau = field_library("landau", b=1.0)

print("Gaussian oracles (2D, u = exp(-|x|^2/2)):")
print("  E_0(u)  = %.6f  (pi      = %.6f)" % (energy_EA(u, zero), np.pi))
print("  E_A(u)  = %.6f  (3 pi/2  = %.6f)" % (energy_EA(u, landau), 1.5 * np.pi))
print("  |u|_2   = %.6f  (sqrt pi = %.6f)" % (lp_norm(u, 2.0), np.sqrt(np.pi)))

params = FunctionalParams(p=4.0, lam=1.0, dim=2)
print("  J(u)    = %.6f  (2 pi    = %.6f)" % (functional_J(u, zero, params), 2 * np.pi))
print("  I(u)    = %.6f  (pi-pi/8 = %.6f)" % (functional_I(u, zero, params), np.pi - np.pi / 8))

print("diamagnetic inequality |grad_A u| >= |grad |u||:")
rep = diamagnetic_check(u, landau)
print("  min pointwise margin:", rep["min_margin"], " violations:", rep["violations"])
print("  integrated gap E_A - E_0(|u|) = %.6f  (b^2 pi/2 = %.6f)" % (rep["integrated_gap"], np.pi / 2))

print("sandwich bounds between |grad_A u|^2 and |grad u|^2:")
pb = pointwise_bounds_check(bump(grid, width=1.0, wave=(1.0, 0.0)), landau)
print("  worst slacks:", pb["worst_slack_lower"], pb["worst_slack_upper"])
print("  local energy-ratio interval: [%.3f, %.3f]" % (pb["ratio_min"], pb["ratio_max"]))

print("variational exactness <S*S u, u> = E_A(u):")
rng = np.random.default_rng(0)
g = Grid(4.0, 65, dim=2)
w = ComplexField(g, rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
E = energy_EA(w, landau)
print("  relative defect:", abs(inner(g, magnetic_laplacian(w, landau), w.values).real - E) / E)

print("Euler-Lagrange residual of the exact 1D solution w = sqrt(2) sech x:")
params1 = FunctionalParams(p=4.0, lam=1.0, dim=1)
for n in (513, 1025):
    g1 = Grid(16.0, n, dim=1)
    w1 = ComplexField(g1, np.sqrt(2.0) / np.cosh(g1.axes[0]))
    _, nrm = el_residual(w1, field_library("zero", dim=1), params1)
    print(f"  n = {n}: residual norm = {nrm:.3e}  (quarters when h halves)")
