"""Fixtures shared across test modules."""

import numpy as np
import pytest

from magnls.calculus import FunctionalParams, Grid, bump
from magnls.field import PotentialField, field_library
from magnls.solver import minimize_constrained, radial_ground_state


# The radial ground states for p=4, lambda=1 in N = 1, 2, 3: shot once per
# session and shared by every test that reads them.
@pytest.fixture(scope="session")
def gs1():
    return radial_ground_state(1, 4.0, 1.0)


@pytest.fixture(scope="session")
def gs2():
    return radial_ground_state(2, 4.0, 1.0)


@pytest.fixture(scope="session")
def gs3():
    return radial_ground_state(3, 4.0, 1.0)


@pytest.fixture(scope="session")
def first_axis_field():
    """Builder of a field, in any dim >= 2, whose first component does not
    vanish: its phase tables keep a nonzero C_1, so its shift phases span the
    whole grid, as for no built-in field but ``symmetric``.  It declares no
    zero components, so all dim tables are built, the zero C_3 of 3-D
    among them, and it has no jacobian."""

    def build(dim):
        def ev(p):
            out = np.zeros_like(p)
            out[..., 0] = 0.4 * p[..., 1] - 0.2 * np.sin(p[..., 0]) * p[..., -1]
            out[..., 1] = 0.3 * np.cos(p[..., 0])
            return out

        return PotentialField(dim, ev)

    return build


@pytest.fixture(scope="session")
def nonattainment_runs():
    """Constrained minima for gaussian b0=0.5, s=1 on three growing windows.

    L/n = 4/65, 6/97 and 8/129, p=4, lambda=1, each seeded by a bump at
    (1, 0) (breaking the mirror symmetry) with max_iters=4000.  Returns the
    minimum values and the centroid radii of the last iterates, window by
    window.  The three minimizations are the slowest work in the suite, so
    they run once per session.
    """
    A = field_library("gaussian_decay", b0=0.5, s=1.0)
    params = FunctionalParams(p=4.0, lam=1.0, dim=2)
    values = []
    drifts = []
    for L, n in ((4.0, 65), (6.0, 97), (8.0, 129)):
        grid = Grid(L, n, dim=2)
        seed = bump(grid, center=(1.0, 0.0), width=1.0)
        res = minimize_constrained(A, params, grid, seed=seed, max_iters=4000)
        values.append(res.value)
        drifts.append(float(np.linalg.norm(res.trace[-1][1])))
    return values, drifts
