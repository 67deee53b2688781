"""Randomized checks of exact discrete identities and inequalities, of the
shift mass check and of the landscape scan against its brute-force path.

The inputs are odd-sized grids in 2-D and 3-D, library fields with random
parameters, and random complex u drawn from a seeded generator.  The runs
are derandomized, so every run draws the same examples.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnls.calculus import (
    ComplexField,
    FunctionalParams,
    Grid,
    RealField,
    bump,
    diamagnetic_check,
    energy_EA,
    eta_map,
    functional_J,
    inner,
    lp_norm,
    magnetic_laplacian,
    pointwise_bounds_check,
)
from magnls.field import field_library
from magnls.gauge import MassLossError, make_shift, shift_apply, shift_invert
from magnls.solver import RayRisingError, _ray_peak, _surface_scan

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
def cases(draw, tags=tuple(sorted(FIELD_PARAMS))):
    """A grid, a library field (one of ``tags``) on it, and a random complex u."""
    dim = draw(st.sampled_from((2, 3)))
    half_max = 16 if dim == 2 else 6  # at most 33 nodes per axis in 2-D, 13 in 3-D
    n = [2 * draw(st.integers(1, half_max)) + 1 for _ in range(dim)]
    L = [draw(st.floats(1.0, 6.0)) for _ in range(dim)]
    grid = Grid(L, n, dim=dim)
    tag = draw(st.sampled_from(tags))
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
@given(cases())
def test_edge_inequalities_hold_to_rounding(case):
    # Kato and both sandwich bounds are exact algebra on each staggered edge
    grid, A, u = case
    bounds = pointwise_bounds_check(u, A)
    assert diamagnetic_check(u, A)["min_margin"] >= -1e-12
    assert bounds["worst_slack_lower"] >= -1e-12
    assert bounds["worst_slack_upper"] >= -1e-12


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


@PROPERTY_SETTINGS
@given(cases(), st.data())
def test_mass_loss_error_exactly_when_dropped_share_exceeds_max_loss(case, data):
    grid, A, u = case
    # steps reach past the window, where a move keeps no node at all
    steps = [data.draw(st.integers(-(n + 3), n + 3)) for n in grid.n]
    max_loss = data.draw(st.one_of(st.sampled_from((1e-6, 0.5, 0.9, 1.0)), st.floats(0.0, 1.0)))
    g = make_shift(A, np.array(steps) * np.array(grid.h), grid, max_loss=max_loss)
    dens = grid.weights() * np.abs(u.values) ** 2
    index = np.indices(grid.shape)
    for move, k in ((shift_apply, steps), (shift_invert, [-s for s in steps])):
        # brute force: the share of W|u|^2 on nodes alpha whose image alpha + k leaves the window
        leaves = np.zeros(grid.shape, dtype=bool)
        for axis, (ka, n) in enumerate(zip(k, grid.n)):
            leaves |= (index[axis] + ka < 0) | (index[axis] + ka >= n)
        lost = float(np.sum(dens[leaves]) / np.sum(dens))
        if abs(lost - max_loss) <= 1e-12:
            continue  # a tie at rounding level may go either way
        if lost > max_loss:
            with pytest.raises(MassLossError):
                move(g, u)
        else:
            move(g, u)


def brute_scan(A, w, params, y_points):
    """The landscape scan through ``make_shift``, ``shift_apply`` and the
    functionals on ``ComplexField``: the reference for ``_surface_scan``."""
    rows = []
    for y in y_points:
        gu = shift_apply(make_shift(A, y, w.grid, max_loss=0.5), w)
        tbar, peak = _ray_peak(functional_J(gu, A, params), lp_norm(gu, params.p) ** params.p, params.p)
        rows.append((tbar, peak, eta_map(gu, params), gu.boundary_mass_fraction()))
    t_max, values, etas, fractions = zip(*rows)
    return np.array(t_max), np.array(values), np.array(etas), max(fractions)


@pytest.mark.parametrize("tag", sorted(FIELD_PARAMS) + ["first_axis"])
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_surface_scan_matches_brute_force(tag, first_axis_field, data):
    grid, A, w = data.draw(cases(tags=(tag if tag in FIELD_PARAMS else "zero",)), label="case")
    if tag == "first_axis":
        A = first_axis_field(grid.dim)
    p = data.draw(st.sampled_from((3.0, 4.0)), label="p")
    V = None
    if data.draw(st.booleans(), label="sampled V"):
        V = RealField(grid, 0.5 + np.random.default_rng(1).random(grid.shape))
    params = FunctionalParams(p=p, lam=data.draw(st.floats(0.5, 2.0), label="lam"), V=V, dim=grid.dim)
    # lattice points within a sixth of the window, where less than half of
    # the mass leaves; now and then one more that may reach beyond it
    count = data.draw(st.integers(1, 4), label="points")
    steps = [[data.draw(st.integers(-(n // 6), n // 6)) for n in grid.n] for _ in range(count)]
    if data.draw(st.integers(0, 3), label="far point") == 0:
        steps.append([data.draw(st.integers(-(n + 3), n + 3)) for n in grid.n])
    y_points = np.array(steps) * np.array(grid.h)

    def outcome(scan):
        try:
            return scan()
        except MassLossError as exc:
            return str(exc)

    got = outcome(lambda: _surface_scan(A, w, params, y_points, np.inf))
    want = outcome(lambda: brute_scan(A, w, params, y_points))
    if isinstance(want, str):
        assert got == want  # the same first offending shift, the same fraction
        return
    # one factor rule for every field: the same factor, products and
    # summation order, to the bit
    for a, b in zip(got[:3], want[:3]):
        assert a.tobytes() == b.tobytes()
    assert got[3] == want[3]


def test_surface_scan_mass_loss_error():
    grid = Grid(4.0, 33, dim=2)
    A = field_library("landau", b=0.5)
    w = bump(grid, width=1.0)
    params = FunctionalParams(p=4.0, lam=1.0, dim=2)
    # the second point moves the bump's centre off the window
    y_points = np.array([[0.0, 0.0], [4.5, 0.0], [0.25, 0.0]])
    with pytest.raises(MassLossError) as want:
        shift_apply(make_shift(A, y_points[1], grid, max_loss=0.5), w)
    with pytest.raises(MassLossError) as got:
        _surface_scan(A, w, params, y_points, np.inf)
    assert str(got.value) == str(want.value)


def test_surface_scan_names_first_rising_y():
    grid = Grid(4.0, 33, dim=2)
    A = field_library("gaussian_decay", b0=0.6, s=1.0)
    w = bump(grid, width=1.0)
    params = FunctionalParams(p=4.0, lam=1.0, dim=2)
    y_points = np.array([[1.0, 0.25], [0.5, 0.0], [0.0, 0.0], [-0.75, 0.5], [0.0, 1.0]])
    t_max = brute_scan(A, w, params, y_points)[0]
    # a T that the first ray stays below and at least two others pass
    T = float(np.median(t_max))
    rising = np.flatnonzero(t_max > T)
    assert t_max[0] <= T and len(rising) >= 2
    first = y_points[rising[0]]
    with pytest.raises(RayRisingError, match=rf"ray through y={re.escape(str(first.tolist()))} still rising"):
        _surface_scan(A, w, params, y_points, T)
