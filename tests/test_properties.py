"""Randomized checks of two exact discrete identities.

The inputs are odd-sized grids in 2-D and 3-D, library fields with random
parameters, and random complex u drawn from a seeded generator.  The runs
are derandomized, so every run draws the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from magnls.calculus import ComplexField, Grid, energy_EA, inner, magnetic_laplacian
from magnls.field import field_library
from magnls.gauge import make_shift, shift_apply, shift_invert

PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)

# per tag: the strategies of its parameters
FIELD_PARAMS = {
    "zero": {},
    "landau": {"b": st.floats(-2.0, 2.0)},
    "symmetric": {"b": st.floats(-2.0, 2.0)},
    "gaussian_decay": {"b0": st.floats(-1.0, 1.0), "s": st.floats(0.5, 3.0)},
    "lattice_periodic": {"b": st.floats(-2.0, 2.0), "period": st.floats(0.5, 4.0)},
}


@st.composite
def cases(draw):
    """A grid, a library field on it, and a random complex u."""
    dim = draw(st.sampled_from((2, 3)))
    half_max = 16 if dim == 2 else 6  # at most 33 nodes per axis in 2-D, 13 in 3-D
    n = [2 * draw(st.integers(1, half_max)) + 1 for _ in range(dim)]
    L = [draw(st.floats(1.0, 6.0)) for _ in range(dim)]
    grid = Grid(L, n, dim=dim)
    tag = draw(st.sampled_from(sorted(FIELD_PARAMS)))
    params = {name: draw(strategy) for name, strategy in FIELD_PARAMS[tag].items()}
    A = field_library(tag, dim=dim, **params)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = ComplexField(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    return grid, A, u


@PROPERTY_SETTINGS
@given(cases())
def test_laplacian_form_equals_energy(case):
    grid, A, u = case
    energy = energy_EA(u, A)
    form = inner(grid, magnetic_laplacian(u, A), u.values)
    assert abs(form - energy) <= 1e-12 * energy


@PROPERTY_SETTINGS
@given(cases(), st.data())
def test_shift_invert_undoes_shift_apply(case, data):
    grid, A, u = case
    steps = [data.draw(st.integers(-(n - 1), n - 1)) for n in grid.n]
    g = make_shift(A, np.array(steps) * np.array(grid.h), grid, max_loss=1.0)
    back = shift_invert(g, shift_apply(g, u))
    # the nodes whose image stays inside the window
    kept = tuple(slice(max(0, -k), n - max(0, k)) for k, n in zip(steps, grid.n))
    assert np.max(np.abs(back.values[kept] - u.values[kept])) <= 1e-14 * np.max(np.abs(u.values))
