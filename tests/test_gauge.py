import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magnls.calculus import (
    ComplexField,
    FunctionalParams,
    Grid,
    _edge_values,
    _stencil_apply,
    bump,
    el_residual,
    energy_EA,
    prepare_potential,
)
from magnls.field import PotentialField, _mesh_points, curl, curl_of_samples, field_library
from magnls import gauge
from magnls.gauge import (
    MassLossError,
    QUAD_TOL,
    QuadratureError,
    _line_integrals,
    _phase_values,
    composition_constant,
    corrected_potential,
    corrected_potential_samples,
    linear_bound_check,
    make_shift,
    potential_at_infinity,
    rephase_field,
    shift_apply,
    shift_invert,
    shifted_corrected_samples,
)

GRID = Grid(8.0, 129, dim=2)


def phase_on(A, y, grid=GRID, **kw):
    return rephase_field(A, y, grid, **kw)


# ---------------------------------------------------------------------------
# Re-phasing
# ---------------------------------------------------------------------------

def test_phase_zero_field_is_zero():
    ph = phase_on(field_library("zero"), (1.0, -2.0))
    assert np.all(ph.samples.values == 0.0)


def test_phase_at_origin_is_zero_for_any_field():
    ph = phase_on(field_library("landau", b=1.0), (0.0, 0.0))
    assert np.all(ph.samples.values == 0.0)


def test_phase_landau_closed_form():
    # phi_y(x) = -b y1 (x2 - y2); at y=(1,2), x=(3,5) the value is -3
    A = field_library("landau", b=1.0)
    ph = phase_on(A, (1.0, 2.0))
    X = GRID.nodes()
    exact = -1.0 * (X[..., 1] - 2.0)
    assert np.max(np.abs(ph.samples.values - exact)) <= 1e-8
    i = np.argmin(np.abs(GRID.axes[0] - 3.0))
    j = np.argmin(np.abs(GRID.axes[1] - 5.0))
    assert ph.samples.values[i, j] == pytest.approx(-3.0, abs=1e-10)


def test_phase_at_half_normalization():
    # closed form under at_half: phi_y(x) = -b y1 x2 + b y1 y2 / 2
    A = field_library("landau", b=0.7)
    y = (1.0, 2.0)
    ph = phase_on(A, y, normalization="at_half")
    X = GRID.nodes()
    exact = -0.7 * y[0] * X[..., 1] + 0.7 * y[0] * y[1] / 2.0
    assert np.max(np.abs(ph.samples.values - exact)) <= 1e-9


def test_phase_slab_derivative_relations():
    # on the slab x1 = y1 the x2-derivative of phi equals -A2(y1, x2)
    A = field_library("gaussian_decay", b0=0.5, s=1.0)
    y = np.array([0.5, -0.25])
    grid = Grid(4.0, 129, dim=2)
    ph = rephase_field(A, y, grid)
    i = np.argmin(np.abs(grid.axes[0] - y[0]))
    assert abs(grid.axes[0][i] - y[0]) < 1e-12  # y lies on the lattice
    col = ph.samples.values[i, :]
    d2 = np.gradient(col, grid.h[1])
    pts = np.stack([np.full_like(grid.axes[1], y[0]), grid.axes[1]], axis=-1)
    expected = -A(pts)[:, 1]
    assert np.max(np.abs(d2[2:-2] - expected[2:-2])) <= 1e-3  # O(h^2)


# ---------------------------------------------------------------------------
# Phase tables
# ---------------------------------------------------------------------------

TABLE_FIELDS = {
    "landau": dict(tag="landau", b=0.5),
    "symmetric": dict(tag="symmetric", b=0.5),
    "gaussian": dict(tag="gaussian_decay", b0=0.4, s=1.0),
    "periodic": dict(tag="lattice_periodic", b=0.5, period=4.0),
}
# Simpson is exact on these integrands, so tables and staircases differ only
# by the summation order of the 128-segment sums (up to 3.6e-15 observed)
EXACT_TOL = 1e-14


@pytest.mark.parametrize(
    "name, grid, steps",
    [
        (name, GRID, [(1, 0), (0, -1), (10, 7), (-64, 64), (64, -23), (-37, -64)])
        for name in TABLE_FIELDS
    ]
    + [
        (name, Grid(6.0, 65, dim=3), [(1, 0, 0), (0, -1, 1), (32, -32, 5), (-7, 19, -32), (3, 3, 32)])
        for name in ("landau", "gaussian")
    ],
)
def test_table_phase_matches_staircase(name, grid, steps):
    spec = dict(TABLE_FIELDS[name])
    A = field_library(spec.pop("tag"), dim=grid.dim, **spec)
    tol = EXACT_TOL if name != "gaussian" else 1e-9
    for k in steps:
        y = np.array(k) * np.array(grid.h)
        direct = _phase_values(A, y, grid.axes)
        tabled = rephase_field(A, y, grid).samples.values
        assert np.max(np.abs(tabled - direct)) <= tol, (name, k)
    assert ("phase_tables", id(A)) in grid._cache


def test_phase_outside_window_keeps_staircase():
    A = field_library("gaussian_decay", b0=0.4, s=1.0)
    g = Grid(2.0, 17, dim=2)
    for y in [(3.0, 0.25), (0.5, -2.25), (0.3, 0.1)]:  # beyond the window, or off the lattice
        ph = rephase_field(A, y, g)
        assert np.array_equal(ph.samples.values, _phase_values(A, np.array(y), g.axes))
    assert not any(key[0] == "phase_tables" for key in getattr(g, "_cache", {}))


def test_tables_built_once_per_field_and_grid():
    g = Grid(4.0, 33, dim=2)
    gauss = field_library("gaussian_decay", b0=0.4, s=1.0)
    calls = []

    def ev(p):
        calls.append(p.shape)
        return gauss.eval_fn(p)

    A = PotentialField(2, ev, gauss.jac_fn)
    make_shift(A, (1.0, 0.5), g)
    built = len(calls)
    assert built > 0
    g2 = make_shift(A, (-0.75, 2.0), g)
    assert len(calls) == built
    # a distinct field on the same grid gets its own tables
    B = field_library("landau", b=0.5)
    gB = make_shift(B, (-0.75, 2.0), g)
    assert {("phase_tables", id(A)), ("phase_tables", id(B))} <= set(g._cache)
    phase_B = rephase_field(B, gB.y, g).samples.values
    phase_A = rephase_field(A, g2.y, g).samples.values
    assert len(calls) == built
    # landau has A_1 = 0: the factor is e^{i phi_y} to the bit
    assert gB.factor.tobytes() == np.exp(1j * phase_B).tobytes()
    assert np.max(np.abs(phase_B - _phase_values(B, gB.y, g.axes))) <= EXACT_TOL
    assert np.max(np.abs(phase_A - _phase_values(A, g2.y, g.axes))) <= 1e-9


# ---------------------------------------------------------------------------
# Corrected potential
# ---------------------------------------------------------------------------

def test_corrected_potential_landau_closed_form():
    A = field_library("landau", b=0.6)
    y = (1.0, 2.0)
    ph = phase_on(A, y)
    X = GRID.nodes()
    # the jacobian-stripped copy of A takes the phase-gradient path
    for field, construction in ((A, "direct_formula"), (PotentialField(A.dim, A.eval_fn), "grad_of_phase")):
        cp = corrected_potential(field, ph)
        assert cp.construction == construction
        assert np.max(np.abs(cp.samples[0])) <= 1e-8
        assert np.max(np.abs(cp.samples[1] - 0.6 * (X[..., 0] - 1.0))) <= 1e-8


def test_corrected_vanishes_at_base_point():
    A = field_library("gaussian_decay", b0=0.5, s=1.0)
    y = np.array([0.75, -1.25])
    samples = corrected_potential_samples(A, y, [np.array([y[0]]), np.array([y[1]])])
    assert np.max(np.abs(samples)) <= 1e-12


def test_corrected_zero_field_stays_zero():
    A = field_library("zero")
    ph = phase_on(A, (2.0, -1.0))
    cp = corrected_potential(A, ph)
    assert np.max(np.abs(cp.samples)) <= 1e-14


def test_corrected_constructions_agree():
    A = field_library("gaussian_decay", b0=0.5, s=1.0)
    grid = Grid(4.0, 129, dim=2)
    ph = rephase_field(A, (0.5, 1.0), grid)
    direct = corrected_potential(A, ph)
    grad = corrected_potential(PotentialField(A.dim, A.eval_fn), ph)
    assert (direct.construction, grad.construction) == ("direct_formula", "grad_of_phase")
    h2 = grid.h[0] ** 2
    assert np.max(np.abs(direct.samples - grad.samples)) <= 5.0 * h2


def test_direct_formula_requires_jacobian():
    A = field_library("landau", b=1.0)
    A_nojac = PotentialField(2, A.eval_fn, None, tag="custom")
    with pytest.raises(ValueError, match="jacobian"):
        corrected_potential_samples(A_nojac, (1.0, 0.0), GRID.axes)


@pytest.mark.parametrize("tag,dim", [("symmetric", 2), ("symmetric", 3), ("lattice_periodic", 3)])
def test_corrected_component_one_is_exact_zero(tag, dim):
    # (A_y)_1 = A_1(x) - A_1(x) is zero without a second full-mesh evaluation
    A = field_library(tag, b=0.7, dim=dim)
    axes = [np.linspace(-2.0, 2.0, 9 + 2 * k) for k in range(dim)]
    shape = tuple(len(ax) for ax in axes)
    meshes = []

    def ev(p):
        meshes.append(p.shape[:-1])
        return A.eval_fn(p)

    samples = corrected_potential_samples(PotentialField(dim, ev, A.jac_fn), np.full(dim, 0.5), axes)
    assert np.array_equal(samples[0], np.zeros(shape)) and not np.signbit(samples[0]).any()
    assert meshes.count(shape) == 1
    assert np.array_equal(samples, corrected_potential_samples(A, np.full(dim, 0.5), axes))


def test_slab_vanishing_gaussian():
    # (A_y)_2 vanishes on the slab x1 = y1; (A_y)_1 vanishes everywhere
    A = field_library("gaussian_decay", b0=0.5, s=1.0)
    y = np.array([0.5, -0.75])
    grid = Grid(4.0, 65, dim=2)
    cp = corrected_potential(A, rephase_field(A, y, grid))
    assert np.max(np.abs(cp.samples[0])) <= 1e-8
    slab = corrected_potential_samples(A, y, [np.array([y[0]]), grid.axes[1]])
    assert np.max(np.abs(slab[1])) <= 1e-8


def test_gauge_invariance_of_curl():
    # curl(A_y) equals curl(A) within O(h^2), factor-4 on halving h
    A = field_library("gaussian_decay", b0=0.5, s=1.0)
    y = (0.5, 0.25)
    errs = []
    for n in (65, 129):
        grid = Grid(4.0, n, dim=2)
        cp = corrected_potential(A, rephase_field(A, y, grid))
        sampled = curl_of_samples(cp.samples, grid.h)
        jac = A.jacobian(grid.nodes())
        exact = jac[..., 0, 1] - jac[..., 1, 0]
        errs.append(np.max(np.abs(sampled[(1, 2)] - exact)))
    ratio = errs[0] / errs[1]
    assert 3.4 <= ratio <= 4.6


# ---------------------------------------------------------------------------
# Linear bound
# ---------------------------------------------------------------------------

def test_linear_bound_landau_point_value():
    # |A_y(x)| = 2 at y=(1,2), x=(3,5) with bound 1 * sqrt(13)
    A = field_library("landau", b=1.0)
    y = np.array([1.0, 2.0])
    samples = corrected_potential_samples(A, y, [np.array([3.0]), np.array([5.0])])
    mag = float(np.sqrt(np.sum(samples**2)))
    assert mag == pytest.approx(2.0, abs=1e-10)
    assert mag <= 1.0 * np.sqrt(13.0)


@pytest.mark.parametrize("tag,kw", [
    ("landau", {"b": 1.0}),
    ("symmetric", {"b": 1.0}),
    ("gaussian_decay", {"b0": 0.5, "s": 1.0}),
])
def test_linear_bound_zero_violations(tag, kw):
    A = field_library(tag, **kw)
    B = curl(A, 8.0, 129)
    for y in [(0.0, 0.0), (1.0, 2.0), (-2.0, 0.5), (0.25, -0.25), (-1.5, -1.5)]:
        cp = corrected_potential(A, rephase_field(A, y, GRID))
        rep = linear_bound_check(cp, B)
        assert rep["violating_nodes"] == 0
        assert rep["max_violation"] <= 1e-8
        assert rep["max_violation_componentwise"] <= 1e-8


# ---------------------------------------------------------------------------
# Shifts
# ---------------------------------------------------------------------------

def test_shift_roundtrip_plain_translation_exact():
    A = field_library("zero")
    u = bump(GRID, center=(1.0, -1.0), width=0.8, wave=(0.7, -0.3))
    g = make_shift(A, (1.0, 0.5), GRID)
    back = shift_invert(g, shift_apply(g, u))
    steps = GRID.is_lattice_vector(np.array([1.0, 0.5]))
    inner = (slice(0, GRID.n[0] - steps[0]), slice(0, GRID.n[1] - steps[1]))
    assert np.array_equal(back.values[inner], u.values[inner])


def test_shift_identity_at_zero():
    A = field_library("landau", b=1.0)
    u = bump(GRID, width=1.0)
    g = make_shift(A, (0.0, 0.0), GRID)
    assert np.array_equal(shift_apply(g, u).values, u.values)


def test_shift_modulus_preservation():
    A = field_library("landau", b=1.0)
    u = bump(GRID, width=0.8, wave=(0.4, 0.0))
    g = make_shift(A, (1.0, 2.0), GRID)
    moved = shift_apply(g, u)
    from magnls.gauge import _shift_values

    expected = np.abs(_shift_values(u.values, g.steps))
    assert np.max(np.abs(np.abs(moved.values) - expected)) <= 1e-14


def test_shift_roundtrip_generic_phase_near_exact():
    A = field_library("landau", b=1.0)
    u = bump(GRID, width=0.8)
    g = make_shift(A, (1.0, 1.0), GRID)
    back = shift_invert(g, shift_apply(g, u))
    steps = g.steps
    inner = (slice(0, GRID.n[0] - steps[0]), slice(0, GRID.n[1] - steps[1]))
    err = np.max(np.abs(back.values[inner] - u.values[inner]))
    assert err <= 2e-15  # a couple of ulps of the unit phase rotation


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", ["landau", "gaussian", "symmetric", "custom", "zero", "periodic"])
def test_shift_factor_matches_full_exponential(name, dim, first_axis_field):
    # one factor rule for every field: e^{i(theta + phi_y)} of rephase_field's
    # phase, to the bit, whether or not A_1 vanishes
    if name == "custom":
        A = first_axis_field(dim)
    elif name == "zero":
        A = field_library("zero", dim=dim)
    else:
        spec = dict(TABLE_FIELDS[name])
        A = field_library(spec.pop("tag"), dim=dim, **spec)
    grid = Grid(2.0, 33 if dim == 2 else 13, dim=dim)
    # inside the window (some with zero components), the origin, and beyond
    # the window along axis 0
    cases = [(3, -5, 1), (-16, 16, 6), (0, 4, 0), (5, 0, -3), (0, 0, 0), (40, 3, -2)]
    for k, theta, normalization in itertools.product(cases, (0.0, 0.7), ("at_base", "at_half")):
        y = np.array(k[:dim]) * np.array(grid.h)
        g = make_shift(A, y, grid, theta=theta, normalization=normalization, max_loss=1.0)
        phase = rephase_field(A, g.y, grid, normalization).samples.values
        full = np.broadcast_to(np.exp(1j * (theta + phase)), grid.shape)
        assert g.factor.shape == grid.shape
        assert g.factor.tobytes() == full.tobytes(), (k, theta, normalization)
    # the cache holds one entry for the field, and keeps no C_1 table where A_1 = 0
    assert [key for key in grid._cache if isinstance(key, tuple) and key[1] == id(A)] == [("phase_tables", id(A))]
    C1, *rest = gauge._phase_tables(A, grid)
    assert len(rest) == dim - 1
    assert (C1 is None) == (name not in ("symmetric", "custom"))
    assert [C is None for C in rest] == [m in A.zero_components for m in range(1, dim)]


BUILTINS = dict(TABLE_FIELDS, zero=dict(tag="zero"))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_declared_zero_components_change_no_bit(name, dim):
    # a twin that declares nothing integrates every component; skipping the
    # declared ones must leave every phase, factor and potential bit-identical
    spec = dict(BUILTINS[name])
    A = field_library(spec.pop("tag"), dim=dim, **spec)
    twin = PotentialField(A.dim, A.eval_fn, A.jac_fn)
    assert twin.zero_components == frozenset()
    grid = Grid(2.0, 33 if dim == 2 else 13, dim=dim)
    cases = [(3, -5, 1), (-16, 16, 6), (0, 4, 0), (5, 0, -3), (0, 0, 0), (40, 3, -2)]
    for k, theta, normalization in itertools.product(cases, (0.0, 0.7), ("at_base", "at_half")):
        y = np.array(k[:dim]) * np.array(grid.h)
        factors = [make_shift(F, y, grid, theta, normalization, max_loss=1.0).factor for F in (A, twin)]
        assert factors[0].tobytes() == factors[1].tobytes(), (k, theta, normalization)
        phases = [rephase_field(F, y, grid, normalization).samples.values for F in (A, twin)]
        assert phases[0].tobytes() == phases[1].tobytes(), (k, theta, normalization)
    y = np.array([0.3, -0.45, 0.2][:dim])  # off the lattice
    assert _phase_values(A, y, grid.axes).tobytes() == _phase_values(twin, y, grid.axes).tobytes()
    # every first piece from y_m down to the window's edge runs backwards
    y = np.array([0.5, -0.25, 0.125][:dim])
    assert all(y[m] > grid.axes[m][0] for m in range(dim))
    direct, twin_direct = (corrected_potential_samples(F, y, grid.axes) for F in (A, twin))
    assert direct.tobytes() == twin_direct.tobytes()
    moving, twin_moving = (shifted_corrected_samples(F, y, grid) for F in (A, twin))
    assert moving.tobytes() == twin_moving.tobytes()
    window = Grid(2.0, 17 if dim == 2 else 9, dim=dim)
    traj = [np.array([1.5 * k, -0.5 * k, 0.25 * k][:dim]) for k in range(1, 5)]
    (last, report), (twin_last, twin_report) = (potential_at_infinity(F, traj, window) for F in (A, twin))
    assert last.tobytes() == twin_last.tobytes() and report == twin_report
    # prepared on the grid, a declared component is the real 1/h broadcast to
    # its edge mesh, and every edge value, stencil, energy and residual keeps
    # its bits
    prep, twin_prep = prepare_potential(A, grid), prepare_potential(twin, grid)
    for m in range(dim):
        declared = m in A.zero_components
        assert prep.a[m].shape == twin_prep.a[m].shape
        assert prep.a[m].dtype == (float if declared else complex)
        assert (prep.a[m].strides == (0,) * dim) == declared
    rng = np.random.default_rng(dim)
    params = FunctionalParams(p=4.0, lam=1.0, dim=dim)
    for vals in (rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape), bump(grid, width=0.8).values):
        edges, twin_edges = _edge_values(vals, prep), _edge_values(vals, twin_prep)
        assert [G.tobytes() for G in edges] == [G.tobytes() for G in twin_edges]
        assert _stencil_apply(vals, prep.stencil).tobytes() == _stencil_apply(vals, twin_prep.stencil).tobytes()
        u = ComplexField(grid, vals)
        assert energy_EA(u, A) == energy_EA(u, twin)
        (r, norm), (twin_r, twin_norm) = (el_residual(u, F, params) for F in (A, twin))
        assert r.values.tobytes() == twin_r.values.tobytes() and norm == twin_norm


def test_make_shift_splits_the_phase_once(monkeypatch):
    # beyond the window the phase is a staircase quadrature; make_shift runs
    # it once for the factor and builds no phase samples through rephase_field
    from magnls import gauge

    calls = {"quadrature": 0, "rephase": 0}
    phase_values, rephase = gauge._phase_values, gauge.rephase_field

    def counted_phase_values(*args):
        calls["quadrature"] += 1
        return phase_values(*args)

    def counted_rephase(*args, **kwargs):
        calls["rephase"] += 1
        return rephase(*args, **kwargs)

    monkeypatch.setattr(gauge, "_phase_values", counted_phase_values)
    monkeypatch.setattr(gauge, "rephase_field", counted_rephase)
    A = field_library("gaussian_decay", b0=0.5, s=1.0)
    grid = Grid(2.0, 33, dim=2)
    g = make_shift(A, np.array([40, 3]) * np.array(grid.h), grid, theta=0.7, max_loss=1.0)
    assert calls == {"quadrature": 1, "rephase": 0}
    assert g.factor.tobytes() == np.exp(1j * (0.7 + rephase(A, g.y, grid).samples.values)).tobytes()


def test_corrected_potential_skips_declared_jacobian_integrals(monkeypatch):
    # A_1 = 0 for the gaussian field, so the one integral of d_2 A_1 is skipped
    calls = []
    jacobian = PotentialField.jacobian

    def counted(self, points):
        calls.append(1)
        return jacobian(self, points)

    monkeypatch.setattr(PotentialField, "jacobian", counted)
    A = field_library("gaussian_decay", b0=0.5, s=1.0)
    grid = Grid(2.0, 33, dim=2)
    corrected_potential_samples(A, (0.5, -0.25), grid.axes)
    assert calls == []
    # its twin, which declares nothing, integrates d_2 A_1 = 0
    corrected_potential_samples(PotentialField(2, A.eval_fn, A.jac_fn), (0.5, -0.25), grid.axes)
    assert calls


@pytest.mark.parametrize(
    "tag, dim, built", [("landau", 3, [False, True, False]), ("symmetric", 2, [True, True])]
)
def test_phase_tables_build_only_undeclared_components(tag, dim, built, monkeypatch):
    calls = []
    line_integrals = gauge._line_integrals

    def counted(*args):
        calls.append(1)
        return line_integrals(*args)

    monkeypatch.setattr(gauge, "_line_integrals", counted)
    A = field_library(tag, b=0.5, dim=dim)
    tables = gauge._phase_tables(A, Grid(2.0, 13, dim=dim))
    assert [C is not None for C in tables] == built
    assert len(calls) == sum(built)


def test_surface_scan_tests_each_point_once(gs2, monkeypatch):
    # the scan holds each point's steps; the phase split does not test again
    from magnls.solver import _surface_scan

    calls = []
    is_lattice_vector = Grid.is_lattice_vector

    def counted(self, y):
        calls.append(1)
        return is_lattice_vector(self, y)

    grid = Grid(8.0, 65, dim=2)
    y_points = np.array([[0.0, 0.0], [0.25, -0.5], [-1.0, 0.75]])
    monkeypatch.setattr(Grid, "is_lattice_vector", counted)
    _surface_scan(field_library("symmetric", b=0.5), gs2.on_grid(grid), FunctionalParams(p=4.0, lam=1.0), y_points, 3.0)
    assert len(calls) == len(y_points)


def test_surface_scan_makes_one_shift_per_point(gs2, monkeypatch):
    # the scan moves w with the same ShiftOp that shift_apply takes
    from magnls import solver

    made = []
    make_shift = solver.make_shift

    def counted(*args, **kwargs):
        made.append(make_shift(*args, **kwargs))
        return made[-1]

    grid = Grid(8.0, 65, dim=2)
    y_points = np.array([[0.0, 0.0], [0.25, -0.5], [-1.0, 0.75]])
    monkeypatch.setattr(solver, "make_shift", counted)
    solver._surface_scan(field_library("landau", b=0.5), gs2.on_grid(grid), FunctionalParams(p=4.0, lam=1.0), y_points, 3.0)
    assert [g.y.tolist() for g in made] == y_points.tolist()
    assert all(g.max_loss == 0.5 and g.theta == 0.0 for g in made)


def test_shift_rejects_non_lattice():
    A = field_library("zero")
    with pytest.raises(ValueError, match="multiple"):
        make_shift(A, (0.3, 0.0), GRID)


@pytest.mark.parametrize("y", [(20.0, 0.0), (-20.0, 0.0), (0.0, 20.0)])
def test_shift_beyond_window_loses_all_mass(y):
    # a move longer than the window keeps no node of u
    A = field_library("zero")
    u = bump(GRID, width=1.0)
    g = make_shift(A, y, GRID)
    for move in (shift_apply, shift_invert):
        with pytest.raises(MassLossError, match=r"fraction 1\.000e\+00"):
            move(g, u)


def test_shift_mass_loss_error_names_fraction():
    A = field_library("zero")
    u = bump(GRID, center=(6.0, 0.0), width=1.0)
    g = make_shift(A, (4.0, 0.0), GRID, max_loss=1e-6)
    with pytest.raises(MassLossError, match="fraction"):
        shift_apply(g, u)


def test_energy_transport_identity():
    # E_A(g_y u) = E_{A_y(.+y)}(u) exactly when the staircase phase vanishes
    from magnls.gauge import ShiftedCorrectedField

    u = bump(GRID, center=(-3.0, 0.0), width=0.7, wave=(0.5, 0.2))
    cases = [
        (field_library("landau", b=1.0), (0.0, 2.0)),
        (field_library("gaussian_decay", b0=0.5, s=1.0), (6.0, 0.0)),
        (field_library("lattice_periodic", b=0.5, period=2.0), (2.0, 0.5)),
    ]
    for A, y in cases:
        g = make_shift(A, y, GRID, max_loss=1e-4)
        lhs = energy_EA(shift_apply(g, u), A)
        rhs = energy_EA(u, prepare_potential(ShiftedCorrectedField(A, y), GRID))
        assert abs(lhs - rhs) / lhs <= 1e-8, (A.tag, y)


def test_periodic_energy_isometry():
    A = field_library("lattice_periodic", b=0.5, period=2.0)
    u = bump(GRID, width=0.8, wave=(0.3, -0.2))
    for y in [(2.0, 0.0), (4.0, 2.0), (2.0, 1.0)]:
        g = make_shift(A, y, GRID, max_loss=1e-6)
        assert abs(energy_EA(shift_apply(g, u), A) - energy_EA(u, A)) / energy_EA(u, A) <= 1e-8


def test_commutation_within_discretization_tolerance():
    # on the staggered edges S_A(g_y u) = <Z> (S_{A_y(.+y)} u)(. - y) to O(h^2),
    # with <Z> = (Z_+ + Z_-)/2 the edge mean of the shift factor
    from magnls.calculus import _edge_mean, staggered_gradient
    from magnls.gauge import _shift_values

    A = field_library("landau", b=0.5)
    y = np.array([1.0, 1.0])
    u = bump(GRID, width=0.8)
    g = make_shift(A, y, GRID)
    lhs = staggered_gradient(shift_apply(g, u), A)
    rhs_frame = staggered_gradient(u, shifted_corrected_samples(A, y, GRID))
    err = 0.0
    for m in range(2):
        rhs = _edge_mean(g.factor, m) * _shift_values(rhs_frame[m], g.steps)
        interior = (slice(16, -16), slice(16, -16))
        err = max(err, np.max(np.abs(lhs[m] - rhs)[interior]))
    assert err <= GRID.h[0] ** 2


# ---------------------------------------------------------------------------
# Potential at infinity
# ---------------------------------------------------------------------------

def test_potential_at_infinity_gaussian_vanishes():
    A = field_library("gaussian_decay", b0=0.4, s=1.0)
    window = Grid(2.0, 17, dim=2)
    traj = [np.array([4.0 * k, 0.0]) for k in range(1, 5)]
    a_inf, rep = potential_at_infinity(A, traj, window)
    assert rep["converged"]
    assert rep["sup_last"] <= 1e-8


def test_potential_at_infinity_landau_constant():
    A = field_library("landau", b=0.5)
    window = Grid(2.0, 17, dim=2)
    traj = [np.array([3.0 * k, 2.0 * k]) for k in range(1, 5)]
    a_inf, rep = potential_at_infinity(A, traj, window)
    assert rep["converged"]
    assert max(rep["distances"]) <= 1e-10
    x1 = window.nodes()[..., 0]
    assert np.max(np.abs(a_inf[1] - 0.5 * x1)) <= 1e-10
    assert np.max(np.abs(a_inf[0])) <= 1e-10


def test_potential_at_infinity_zero_field():
    A = field_library("zero")
    window = Grid(2.0, 9, dim=2)
    traj = [np.array([2.0**k, 0.0]) for k in range(1, 5)]
    a_inf, rep = potential_at_infinity(A, traj, window)
    assert rep["converged"] and rep["sup_last"] == 0.0


def test_potential_at_infinity_rejects_bounded_trajectory():
    A = field_library("zero")
    with pytest.raises(ValueError, match="increase strictly"):
        potential_at_infinity(A, [np.array([2.0, 0.0]), np.array([1.0, 0.0])], Grid(2.0, 9, dim=2))


# ---------------------------------------------------------------------------
# Composition law
# ---------------------------------------------------------------------------

def test_composition_constant_zero_field():
    rep = composition_constant(field_library("zero"), (1.0, 0.0), (0.0, 1.0), GRID)
    assert rep["gamma"] == pytest.approx(0.0, abs=1e-12)
    assert rep["spread"] <= 1e-12


def test_composition_constant_landau_value():
    # gamma(u, v) = (b/2)(v1 u2 - u1 v2); b=1, y1=(1,0), y2=(0,1) gives -1/2
    A = field_library("landau", b=1.0)
    rep = composition_constant(A, (1.0, 0.0), (0.0, 1.0), GRID)
    assert rep["spread"] <= 1e-8
    assert rep["gamma"] == pytest.approx(-0.5, abs=1e-8)
    assert rep["admissible"]
    assert abs(rep["gamma_inverse_pair"]) <= 1e-8
    assert rep["roundtrip_error"] <= 1e-12


def test_composition_antisymmetry():
    A = field_library("landau", b=0.8)
    y1, y2 = (1.0, 0.5), (-0.5, 1.0)
    r12 = composition_constant(A, y1, y2, GRID)
    r21 = composition_constant(A, y2, y1, GRID)
    assert r12["gamma"] == pytest.approx(-r21["gamma"], abs=1e-8)


def test_composition_gamma_y_minus_y_zero():
    for tag in ("landau", "symmetric"):
        A = field_library(tag, b=1.0)
        rep = composition_constant(A, (1.5, -1.0), (-1.5, 1.0), GRID)
        assert rep["gamma"] == pytest.approx(0.0, abs=1e-8)
        assert abs(rep["gamma_inverse_pair"]) <= 1e-12


@pytest.mark.parametrize("y1, y2", [((3.0, 0.0), (20.0, 0.0)), ((20.0, 0.0), (3.0, 0.0))], ids=["y2", "y1"])
def test_composition_constant_rejects_empty_overlap(y1, y2):
    # a move by y2 or by -y1 past the window leaves no node to average over
    with pytest.raises(ValueError, match="keeps no node"):
        composition_constant(field_library("landau", b=1.0), y1, y2, GRID)


# ---------------------------------------------------------------------------
# Line integrals against the per-piece reference
# ---------------------------------------------------------------------------

# The per-piece quadrature the one-pass ``_line_integrals`` replaced, kept as
# it was: one scalar adaptive-Simpson call per piece on one shared mesh.

def _adaptive_segment(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if float(np.max(np.abs(delta))) <= 15.0 * tol or depth <= 0:
        if depth <= 0 and float(np.max(np.abs(delta))) > 15.0 * tol:
            raise QuadratureError(
                f"segment [{a:.6g}, {b:.6g}] did not converge; worst residual "
                f"{float(np.max(np.abs(delta))):.3e} at tolerance {tol:.3e}"
            )
        return left + right + delta / 15.0
    return _adaptive_segment(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _adaptive_segment(
        f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def _adaptive_simpson(f, a: float, b: float):
    """Integral of a (possibly array-valued) integrand from a to b to ``QUAD_TOL``, at most 40 bisections deep."""
    if a == b:
        return np.zeros_like(np.asarray(f(a), dtype=float))
    if b < a:
        return -_adaptive_simpson(f, b, a)
    fa = np.asarray(f(a), dtype=float)
    fm = np.asarray(f(0.5 * (a + b)), dtype=float)
    fb = np.asarray(f(b), dtype=float)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive_segment(f, a, b, fa, fm, fb, whole, QUAD_TOL, 40)


def _per_piece_line_integrals(integrand, head, axis_values, tail, start: float) -> np.ndarray:
    m = len(head) + 1
    pts = _mesh_points([*head, np.zeros(1), *tail])

    def f(t):
        pts[..., m - 1] = t
        return integrand(pts)

    acc = _adaptive_simpson(f, start, float(axis_values[0]))
    out = [acc]
    for lo, hi in zip(axis_values[:-1], axis_values[1:]):
        acc = acc + _adaptive_simpson(f, float(lo), float(hi))
        out.append(acc)
    return np.concatenate(out, axis=m - 1)


def _integrands(A):
    """(m, integrand) pairs: A_m for the phases, d_n A_m for the corrected potentials."""
    dim = A.dim
    pairs = [(m, lambda pts, m=m: A(pts)[..., m - 1]) for m in range(1, dim + 1)]
    pairs += [
        (m, lambda pts, m=m, n=n: A.jacobian(pts)[..., m - 1, n - 1])
        for m in range(1, dim + 1)
        for n in range(1, dim + 1)
    ]
    return pairs


def _assert_line_integrals_match(integrand, head, axis_values, tail, start):
    got = _line_integrals(integrand, head, axis_values, tail, start)
    ref = _per_piece_line_integrals(integrand, head, axis_values, tail, start)
    assert got.flags.c_contiguous
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def _gauss_1d(s):
    def ev(p):
        return np.exp(-((p / s) ** 2))

    def jac(p):
        return (-2.0 * p / s**2 * np.exp(-((p / s) ** 2)))[..., None]

    return PotentialField(1, ev, jac, tag="custom")


LINE_CASES = [
    (field_library("zero", dim=1), Grid(2.0, 9)),
    (_gauss_1d(0.05), Grid(1.0, 9)),
    (field_library("landau", b=0.7), Grid(2.0, 9, dim=2)),
    (field_library("symmetric", b=-1.3), Grid(2.0, 9, dim=2)),
    (field_library("gaussian_decay", b0=0.5, s=1.0), Grid(2.0, 9, dim=2)),
    (field_library("gaussian_decay", b0=0.8, s=0.05), Grid(1.0, 7, dim=2)),
    (field_library("lattice_periodic", b=0.9, period=1.5), Grid(2.0, 9, dim=2)),
    (field_library("landau", b=0.4, dim=3), Grid((1.5, 1.0, 1.5), (5, 5, 7))),
    (field_library("symmetric", b=0.6, dim=3), Grid(1.5, 5, dim=3)),
    (field_library("gaussian_decay", b0=0.5, s=0.7, dim=3), Grid(1.5, 5, dim=3)),
    (field_library("gaussian_decay", b0=0.8, s=0.05, dim=3), Grid(0.5, 5, dim=3)),
    (field_library("lattice_periodic", b=0.5, period=1.0, dim=3), Grid(1.5, 5, dim=3)),
]


@pytest.mark.parametrize("A, grid", LINE_CASES, ids=[f"{A.tag}-{A.dim}d-{g.n}" for A, g in LINE_CASES])
def test_line_integrals_match_per_piece_reference(A, grid):
    # every phase and jacobian integrand, staircase (singleton) and table
    # (full-axis) heads, and starts below, inside, above and at the first
    # abscissa: a forward, a backwards, a long backwards and an empty first piece
    axes = grid.axes
    y = np.array([0.02, -0.03, 0.01][: grid.dim])  # near the s = 0.05 bumps, which then refine deeply
    for m, integrand in _integrands(A):
        ax = axes[m - 1]
        span = ax[-1] - ax[0]
        for head in ([np.array([yi]) for yi in y[: m - 1]], axes[: m - 1]):
            for start in (ax[0] - 0.37 * span, ax[0] + 0.3 * span, ax[-1] + 0.21 * span, ax[0]):
                _assert_line_integrals_match(integrand, head, ax, axes[m:], float(start))


def test_line_integrals_refine_some_pieces_deeply_and_others_not():
    # on the coarse grid the s = 0.05 bump makes the reference bisect the
    # pieces next to it several levels deep and accept the others at once
    A = field_library("gaussian_decay", b0=0.8, s=0.05)
    ax = Grid(1.0, 7).axes[0]

    def evaluations(lo, hi):
        ts = []
        _adaptive_simpson(lambda t: ts.append(t) or A(np.array([[0.0, t]]))[..., 1], lo, hi)
        return len(ts)

    counts = [evaluations(lo, hi) for lo, hi in zip(ax[:-1], ax[1:])]
    assert min(counts) == 5  # the ends, the midpoint and one unrefined halving
    assert max(counts) >= 5 + 2 * (2 + 4)  # three more levels, fully bisected
    _assert_line_integrals_match(lambda pts: A(pts)[..., 1], [np.array([0.0])], ax, [], float(ax[0]))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_line_integrals_match_per_piece_reference_on_drawn_grids(data):
    dim = data.draw(st.sampled_from((1, 2, 3)))
    n = [2 * data.draw(st.integers(1, 5)) + 1 for _ in range(dim)]
    L = [data.draw(st.floats(0.25, 3.0)) for _ in range(dim)]
    grid = Grid(L, n, dim=dim)
    if dim == 1:
        A = _gauss_1d(data.draw(st.floats(0.05, 2.0)))
    else:
        params = {
            "landau": {"b": 0.7},
            "symmetric": {"b": 0.7},
            "gaussian_decay": {"b0": 0.6, "s": data.draw(st.floats(0.05, 2.0))},
            "lattice_periodic": {"b": 0.7, "period": 1.3},
        }
        tag = data.draw(st.sampled_from(sorted(params)))
        A = field_library(tag, dim=dim, **params[tag])
    m, integrand = data.draw(st.sampled_from(_integrands(A)))
    axes = grid.axes
    ax = axes[m - 1]
    if data.draw(st.booleans()):
        head = axes[: m - 1]
    else:
        head = [np.array([data.draw(st.floats(-2.0, 2.0))]) for _ in range(m - 1)]
    start = data.draw(st.one_of(st.sampled_from(ax.tolist()), st.floats(-2.0 * L[m - 1], 2.0 * L[m - 1])))
    _assert_line_integrals_match(integrand, head, ax, axes[m:], start)


def test_quadrature_error_carries_worst_segment():
    # a discontinuous component defeats adaptive subdivision within budget
    from magnls.field import PotentialField
    from magnls.gauge import QuadratureError

    def ev(p):
        out = np.zeros_like(p)
        out[..., 0] = np.where(p[..., 0] > 0.03, 1.0, -1.0)  # jump along the path
        return out

    A = PotentialField(2, ev, tag="custom")
    g = Grid(1.0, 9, dim=2)
    for _ in range(2):  # a failed table build is not cached, so it fails again
        with pytest.raises(QuadratureError, match="segment"):
            rephase_field(A, (0.5, 0.5), g)
        assert not any(key[0] == "phase_tables" for key in getattr(g, "_cache", {}))


def test_composition_reports_non_admissible_field():
    # a field with non-constant curl has no composition constant; the spread
    # is reported rather than raised
    A = field_library("gaussian_decay", b0=0.8, s=1.0)
    rep = composition_constant(A, (1.0, 0.0), (0.0, 1.0), Grid(4.0, 65, dim=2))
    assert rep["spread"] > 1e-8
    assert not rep["admissible"]
