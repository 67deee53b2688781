# Re-phasing, corrected potentials, and magnetic shifts.
#
# The staircase line integral builds a phase phi_y whose gradient cancels A
# at the base point: the corrected potential A_y vanishes at y and grows at
# most linearly with slope ||B||_inf.  Magnetic shifts are the gauge-aware
# translations built from that phase.

import numpy as np

from magnls.calculus import Grid, bump, energy_EA
from magnls.field import curl, field_library
from magnls.gauge import (
    composition_constant,
    corrected_potential,
    linear_bound_check,
    make_shift,
    potential_at_infinity,
    rephase_field,
    shift_apply,
    shift_invert,
)

grid = Grid(8.0, 129, dim=2)
A = field_library("landau", b=1.0)
y = (1.0, 2.0)

phase = rephase_field(A, y, grid)
print("phase for the constant field:")
print("  phi_y(x) = -b y1 (x2 - y2); checking at x = (3, 5):")
i = np.argmin(np.abs(grid.axes[0] - 3.0))
j = np.argmin(np.abs(grid.axes[1] - 5.0))
print("  quadrature:", phase.samples.values[i, j], " closed form:", -3.0)

cp = corrected_potential(A, phase)
print("corrected potential A_y = A + grad(phi):")
print("  sup |(A_y)_1| =", np.max(np.abs(cp.samples[0])), " (vanishes identically)")
print("  A_y at the base point:", cp.samples[:, i, j], "at x=(3,5):", 1.0 * (3.0 - 1.0))

bound = linear_bound_check(cp, curl(A, 8.0, 129))
print("linear bound |A_y(x)| <= ||B||_inf |x-y|: violations =", bound["violating_nodes"])

# Magnetic shifts transport energy between gauges
u = bump(grid, center=(-2.0, 0.0), width=0.8, wave=(0.5, 0.0))
g = make_shift(A, (0.0, 2.0), grid)
moved = shift_apply(g, u)
print("shift along the field's invariant direction:")
print("  E_A(u)      =", energy_EA(u, A))
print("  E_A(g_y u)  =", energy_EA(moved, A))
back = shift_invert(g, moved)
print("  round trip max err:", np.max(np.abs(back.values - u.values)))

# The frame potential stabilizes along diverging trajectories
gauss = field_library("gaussian_decay", b0=0.5, s=1.0)
window = Grid(2.0, 17, dim=2)
traj = [np.array([4.0 * k, 0.0]) for k in range(1, 5)]
a_inf, rep = potential_at_infinity(gauss, traj, window)
print("potential at infinity for the decaying field:")
print("  consecutive sup distances:", ["%.2e" % d for d in rep["distances"]])
print("  converged:", rep["converged"], " sup of the limit:", rep["sup_last"])

# Composition of shifts is a shift up to a constant phase
rep = composition_constant(A, (1.0, 0.0), (0.0, 1.0), grid)
print("composition constant gamma((1,0),(0,1)) =", rep["gamma"], " spread:", rep["spread"])
print("closed form (b/2)(v1 u2 - u1 v2) =", -0.5)
