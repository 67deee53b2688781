import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator
from scipy.sparse.linalg import minres as scipy_minres

from magnls.calculus import (
    ComplexField,
    FunctionalParams,
    Grid,
    bump,
    functional_I,
    functional_J,
    lp_norm,
    magnetic_laplacian,
    prepare_potential,
)
from magnls.field import field_library
from magnls.gauge import make_shift, shift_apply
from magnls import solver
from magnls.solver import (
    _R0,
    _block_preconditioner,
    _final_mesh,
    _poisson_solver,
    _shot_sign,
    condition_report,
    critical_point_search,
    landscape_eval,
    landscape_seed,
    minimize_constrained,
    minres,
    nehari_scale,
    radial_ground_state,
    two_bump_diagnostic,
)

PARAMS2 = FunctionalParams(p=4.0, lam=1.0, dim=2)
PARAMS3 = FunctionalParams(p=4.0, lam=1.0, dim=3)


# ---------------------------------------------------------------------------
# Shooting
# ---------------------------------------------------------------------------

def test_soliton_oracle_1d(gs1):
    # closed form sqrt(2) sech(x): checked by substitution into -w'' + w = w^3
    assert gs1.u0 == pytest.approx(np.sqrt(2.0), abs=1e-9)
    exact = np.sqrt(2.0) / np.cosh(gs1.r)
    assert np.max(np.abs(gs1.w - exact)) <= 1e-6
    # closed-form norms: ||w||_2^2 = 4, ||w||_4^4 = 16/3, E = 4/3
    assert gs1.norm2**2 == pytest.approx(4.0, rel=1e-8)
    assert gs1.normp**4 == pytest.approx(16.0 / 3.0, rel=1e-8)
    assert gs1.energy == pytest.approx(4.0 / 3.0, rel=1e-7)
    assert gs1.c_inf == pytest.approx(4.0 / 3.0, rel=1e-8)
    # the DOP853 shots hold the closed form much tighter than the 1e-9 above
    assert abs(gs1.u0 - np.sqrt(2.0)) <= 1e-12
    assert gs1.c_inf == pytest.approx(4.0 / 3.0, rel=1e-11)


@pytest.mark.parametrize("N, shots", [(1, 13), (2, 18), (3, 24)])
def test_shot_count(N, shots, monkeypatch):
    from magnls import solver

    calls = []
    solve_ivp = solver.solve_ivp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_ivp", counted)
    radial_ground_state(N, 4.0, 1.0)
    assert len(calls) == shots


# u0 and c_inf from the bisection on u(0) that Brent's method replaced
BISECTION = {
    1: (1.414213562372743, 1.3333333333399844),
    2: (2.206200864636834, 5.850448220059866),
    3: (4.3373876799823226, 18.897251302477763),
}


@pytest.mark.parametrize("N", [1, 2, 3])
def test_ground_state_matches_bisection(N, request):
    gs = request.getfixturevalue(f"gs{N}")
    u0, c_inf = BISECTION[N]
    assert gs.u0 == pytest.approx(u0, rel=1e-12, abs=0)
    assert gs.c_inf == pytest.approx(c_inf, rel=1e-12, abs=0)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_shot_sign_changes_sign_continuously_at_u0(N, request):
    # brentq needs s continuous with one sign change: opposite signs just
    # below and above u0, and |s| shrinking as the height nears u0
    u0 = request.getfixturevalue(f"gs{N}").u0

    def s(rel):
        return _shot_sign(u0 * (1.0 + rel), N, 4.0)

    for side in (-1.0, 1.0):
        near, far = s(side * 1e-6), s(side * 1e-4)
        assert np.sign(near) == np.sign(far) == side
        assert abs(near) < abs(far)


def test_same_sign_bracket_is_numerical_failure(monkeypatch):
    # a bracket whose low end does not turn back up is a RuntimeError, not
    # brentq's ValueError (which the CLI would report as a validation error)
    from magnls import solver

    monkeypatch.setattr(solver, "_shot_sign", lambda *args: 1.0)
    with pytest.raises(RuntimeError, match="no undershoot bracket"):
        radial_ground_state(2, 4.0, 1.0)


def test_nehari_identity_3d(gs3):
    assert gs3.nehari_residual() <= 1e-6
    assert gs3.c_inf == pytest.approx((4.0 - 2.0) / 8.0 * gs3.normp**4, rel=1e-12)


def test_nehari_identity_2d(gs2):
    assert gs2.nehari_residual() <= 1e-6


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
def test_nehari_identity_near_critical_exponent(lam):
    # N = 3, p = 5.9: the unit shot's core u0^{-(p-2)/2} = 0.006 spans under
    # one spacing 0.00875 of the uniform 4001-point mesh; the graded mesh
    # resolves it, and the scaling carries its residual to every lambda
    gs = radial_ground_state(3, 5.9, lam)
    assert gs.nehari_residual() <= 1e-8


@pytest.mark.parametrize("N", [1, 2, 3])
def test_final_mesh_uniform_away_from_critical_exponent(N, request):
    # at p = 4 every core spans more than 20 spacings: the mesh is the
    # uniform one, and the tail takes its spacing
    gs = request.getfixturevalue(f"gs{N}")
    mesh, spacing = _final_mesh(gs.u0, 4.0)
    assert mesh.tobytes() == np.linspace(_R0, 35.0, 4001).tobytes()
    assert spacing == mesh[1] - mesh[0]


def test_final_mesh_pairs_equal_intervals():
    # graded: Simpson's pairs of intervals over [0, _R0, mesh...] are equal
    # beyond the first, and the spacing runs from core/81 up to the outer h
    u0 = 13.796815883090098  # N = 3, p = 5.9, lambda = 1
    mesh, spacing = _final_mesh(u0, 5.9)
    core = u0 ** -1.95
    d = np.diff(mesh)
    assert np.all(d > 0)
    assert np.allclose(d[1::2], d[2::2][: d[1::2].size], rtol=1e-9, atol=0)
    assert d[1] == pytest.approx(core / 81, rel=1e-4)
    assert d[-1] == pytest.approx(spacing, rel=1e-9)
    assert spacing == pytest.approx(35.0 / 4000, rel=1e-3)


def test_monotone_profile_with_exponential_tail(gs3):
    w = gs3.w
    assert np.all(np.diff(w[gs3.r < 20.0]) <= 1e-12)
    # tail decays at least like e^{-r/2} beyond r = 5
    sel = (gs3.r > 5.0) & (gs3.r < 15.0)
    ratio = w[sel][-1] / w[sel][0]
    assert ratio < np.exp(-0.5 * (gs3.r[sel][-1] - gs3.r[sel][0]) * 0.5)


def test_lambda_scaling(request):
    # w_lam(x) = lam^{1/(p-2)} w_1(sqrt(lam) x) at p = 4: u0 scales as
    # lam^{1/2}, ||w||_2 as lam^{1/2 - N/4}, ||w||_4 as lam^{1/2 - N/8}, and
    # the energy and c_inf as lam^{2 - N/2}.  When each lambda was shot, all
    # three N failed at 1e-3 (a Nehari residual of 0.2-0.4: the shot ended at
    # r = 35 whatever the decay length), at 1e30 and at 1e100 (a lost bracket
    # or an overflow)
    for N in (1, 2, 3):
        unit = request.getfixturevalue(f"gs{N}")
        for lam in (1e-3, 0.25, 4.0, 1e30, 1e100):
            gs = radial_ground_state(N, 4.0, lam)
            powers = {"u0": 0.5, "norm2": 0.5 - N / 4, "normp": 0.5 - N / 8, "energy": 2 - N / 2, "c_inf": 2 - N / 2}
            for name, power in powers.items():
                expected = lam**power * getattr(unit, name)
                assert getattr(gs, name) == pytest.approx(expected, rel=1e-13, abs=0), (N, lam, name)
            assert gs.nehari_residual() <= solver.NEHARI_TOL
            assert gs.r[-1] == pytest.approx(unit.r[-1] / np.sqrt(lam), rel=1e-15)
            assert np.allclose(gs.w, np.sqrt(lam) * unit.w, rtol=1e-15, atol=0)
    assert radial_ground_state(3, 4.0, 1e-3).c_inf == pytest.approx(0.5975835563, rel=1e-10)


def test_shooting_input_validation():
    with pytest.raises(ValueError, match="admissible"):
        radial_ground_state(3, 7.0, 1.0)  # beyond 2* = 6
    with pytest.raises(ValueError, match="lam"):
        radial_ground_state(2, 4.0, -1.0)
    with pytest.raises(ValueError, match="lam must be finite"):
        radial_ground_state(2, 4.0, np.inf)


@pytest.mark.parametrize("p, lam", [(2.001, 1000.0), (3.0, 1e200)])
def test_overflowing_shot_raises_runtime_error(p, lam):
    # the mapping's float power lam^{1/(p-2)} overflows, and then the
    # float power ||w||_p^p, lam^2 = 1e400 times the unit one at p = 3
    with pytest.raises(RuntimeError, match="shot overflows"):
        radial_ground_state(2, p, lam)


@pytest.mark.parametrize("p, lam", [(4.0, 1e50), (4.0, 1e100)])
def test_formerly_overflowing_lambda_scales(p, lam):
    # these overflowed when each lambda was shot; the mapped unit shot
    # gives c_inf = lam * 5.8504482200588 at N = 2, p = 4
    gs = radial_ground_state(2, p, lam)
    assert gs.c_inf == pytest.approx(5.8504482200588 * lam, rel=1e-13)
    assert gs.nehari_residual() <= solver.NEHARI_TOL


def test_ode_residual_of_shooting_profile(gs3):
    # substitute the profile into the radial equation away from the endpoints
    r, w, dw = gs3.r, gs3.w, gs3.dw
    sel = slice(200, 2200)
    d2 = np.gradient(dw, r)
    res = d2 + (gs3.N - 1) / np.maximum(r, 1e-12) * dw - gs3.lam * w + np.abs(w) ** 2 * w
    assert np.max(np.abs(res[sel])) <= 1e-3


# ---------------------------------------------------------------------------
# Nehari scaling
# ---------------------------------------------------------------------------

def test_nehari_scale_on_manifold():
    g = Grid(6.0, 129, dim=2)
    u = bump(g, width=1.0)
    J = functional_J(u, field_library("zero"), PARAMS2)
    M = lp_norm(u, 4.0) ** 4
    t0 = (J / M) ** 0.5
    on = ComplexField(g, t0 * u.values)
    assert nehari_scale(on, field_library("zero"), PARAMS2) == pytest.approx(1.0, rel=1e-12)


def test_nehari_scale_homogeneity():
    g = Grid(6.0, 129, dim=2)
    u = bump(g, width=1.0, wave=(0.2, 0.0))
    A = field_library("landau", b=0.3)
    t1 = nehari_scale(u, A, PARAMS2)
    t2 = nehari_scale(ComplexField(g, 2.0 * u.values), A, PARAMS2)
    assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)


def test_nehari_scale_ground_state(gs2):
    g = Grid(8.0, 129, dim=2)
    w = gs2.on_grid(g)
    t = nehari_scale(w, field_library("zero"), PARAMS2)
    assert t == pytest.approx(1.0, abs=1e-3)


def test_nehari_scale_maximizes_ray(gs2):
    g = Grid(8.0, 129, dim=2)
    A = field_library("landau", b=0.4)
    u = bump(g, width=1.2)
    t = nehari_scale(u, A, PARAMS2)
    I_at = functional_I(ComplexField(g, t * u.values), A, PARAMS2)
    for s in np.linspace(0.05, 2.0, 24):
        I_s = functional_I(ComplexField(g, s * t * u.values), A, PARAMS2)
        assert I_s <= I_at + 1e-12
    with pytest.raises(ValueError, match="nonzero"):
        nehari_scale(ComplexField(g, np.zeros(g.shape, dtype=complex)), A, PARAMS2)


# ---------------------------------------------------------------------------
# Constrained minimization
# ---------------------------------------------------------------------------

def test_minimize_matches_shooting_2d(gs2):
    grid = Grid(8.0, 129, dim=2)
    C_cont = (gs2.energy + gs2.norm2**2) / gs2.normp**2
    res = minimize_constrained(field_library("zero"), PARAMS2, grid, max_iters=3000)
    assert res.converged
    assert abs(res.value - C_cont) / C_cont <= 0.01


def test_minimize_matches_shooting_3d(gs3):
    grid = Grid(6.0, 65, dim=3)
    params = FunctionalParams(p=4.0, lam=1.0, dim=3)
    C_cont = (gs3.energy + gs3.norm2**2) / gs3.normp**2
    res = minimize_constrained(field_library("zero", dim=3), params, grid, max_iters=2500)
    # h = 0.1875 leaves a measured 1.3% discretization offset at this desk scale
    assert abs(res.value - C_cont) / C_cont <= 0.02


def test_minimize_landau_strictly_above_free(gs2):
    grid = Grid(8.0, 129, dim=2)
    free = minimize_constrained(field_library("zero"), PARAMS2, grid, max_iters=3000)
    mag = minimize_constrained(field_library("landau", b=0.2), PARAMS2, grid, max_iters=3000)
    assert mag.value > free.value + 1e-3


@pytest.mark.parametrize(
    "tag, kwargs, mode, max_iters, reference",
    [
        # the `magnls conditions` README case; reference from 1332 raw-gradient steps
        ("gaussian_decay", {"b0": 0.3, "s": 1.0}, "lambda0", 1500, 0.07562770340594425),
        # the zero-field functional minimum; reference from 229 raw-gradient steps
        ("zero", {}, "functional", 3000, 4.830220718291926),
    ],
)
def test_minimize_preconditioned_converges_fast(tag, kwargs, mode, max_iters, reference):
    # the DST-preconditioned (Sobolev) direction reaches the unpreconditioned
    # minimizer's converged value in a few dozen steps at 129^2
    grid = Grid(8.0, 129, dim=2)
    res = minimize_constrained(field_library(tag, **kwargs), PARAMS2, grid, mode=mode, max_iters=max_iters)
    assert res.converged
    assert res.iterations <= 60
    assert abs(res.value - reference) <= 1e-8 * abs(reference)


def test_minimize_readme_lambda0_iterations():
    # the full-window DST takes 15 iterations on the README `conditions`
    # lambda0 case; the interior-block form of the search takes 37
    grid = Grid(8.0, 129, dim=2)
    A = field_library("gaussian_decay", b0=0.3, s=1.0)
    res = minimize_constrained(A, PARAMS2, grid, mode="lambda0", max_iters=1500)
    assert res.converged
    assert res.iterations <= 20


def test_minimize_trace_monotone():
    grid = Grid(8.0, 65, dim=2)
    res = minimize_constrained(field_library("zero"), PARAMS2, grid, max_iters=600)
    vals = [v for v, _ in res.trace]
    diffs = np.diff(vals)
    assert np.all(diffs <= 1e-13 * np.abs(vals[:-1]))


def test_minimize_nonattainment_drift(nonattainment_runs):
    # gaussian field: wider windows let mass drift away from the field, the
    # value decreases and the centroid distance increases
    values, drifts = nonattainment_runs
    assert values[0] > values[1] > values[2]
    assert drifts[0] < drifts[1] < drifts[2]


def test_lambda0_mode_landau():
    # bottom of the magnetic quadratic form for the constant field is near |b|
    grid = Grid(8.0, 65, dim=2)
    res = minimize_constrained(
        field_library("landau", b=0.2), PARAMS2, grid, mode="lambda0", max_iters=4000, stall_tol=1e-7
    )
    assert 0.05 < res.value < 0.4


# ---------------------------------------------------------------------------
# Condition report
# ---------------------------------------------------------------------------

def test_condition_report_zero_field(gs2):
    rep = condition_report(field_library("zero"), gs2, PARAMS2)
    assert rep.sigma == 0.0
    assert rep.holds_B
    assert rep.holds_A
    assert rep.boundary_mass is None  # no lambda0 iterate to measure


def test_condition_sigma_formula_landau(gs2):
    b = 0.3
    rep = condition_report(field_library("landau", b=b), gs2, PARAMS2)
    from magnls.solver import _second_moment

    expected = b**2 * _second_moment(gs2) / gs2.normp**4
    assert rep.sigma == pytest.approx(expected, rel=1e-6)
    # p = 4: the smallness condition is sigma < sqrt(2) - 1
    assert rep.threshold_sigma == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-12)
    assert rep.holds_B == (rep.sigma < np.sqrt(2.0) - 1.0)
    assert not rep.holds_A  # constant field does not vanish at infinity


def test_condition_largest_passing_b(gs2):
    from magnls.solver import _second_moment

    bmax = float(np.sqrt((np.sqrt(2.0) - 1.0) * gs2.normp**4 / _second_moment(gs2)))
    just_below = condition_report(field_library("landau", b=0.999 * bmax), gs2, PARAMS2)
    just_above = condition_report(field_library("landau", b=1.001 * bmax), gs2, PARAMS2)
    assert just_below.holds_B and not just_above.holds_B


def test_condition_gaussian_field_vanishes(gs2):
    rep = condition_report(field_library("gaussian_decay", b0=0.4, s=1.0), gs2, PARAMS2)
    assert rep.holds_A


def test_condition_Bprime_and_V(gs2):
    grid = Grid(8.0, 65, dim=2)
    from magnls.calculus import RealField

    r2 = np.sum(grid.nodes() ** 2, axis=-1)
    V = RealField(grid, 1.0 + 0.05 * np.exp(-r2))
    params = FunctionalParams(p=4.0, lam=1.0, V=V)
    rep = condition_report(field_library("gaussian_decay", b0=0.2, s=1.0), gs2, params)
    assert rep.holds_V
    assert rep.holds_Bprime
    # a potential dipping below its limit violates (V)
    V2 = RealField(grid, 1.0 - 0.05 * np.exp(-r2))
    rep2 = condition_report(
        field_library("gaussian_decay", b0=0.2, s=1.0), gs2, FunctionalParams(p=4.0, lam=1.0, V=V2)
    )
    assert not rep2.holds_V


def test_condition_disagreement_is_a_numerical_failure(gs2, monkeypatch, tmp_path):
    from magnls import cli, solver
    from magnls.cli import run

    # ||B||_inf a few ulps from threshold_B, where sigma < sigma_max and
    # ||B||_inf < threshold_B round to different answers.  Whether such a b
    # exists depends on the last bits of ||w||_p, so the ground state is moved
    # by a few ulps of normp until one does.
    p = PARAMS2.p
    mom2 = solver._second_moment(gs2)
    sigma_max = 2.0 ** ((p - 2.0) / p) - 1.0
    split = []
    for j in sorted(range(-32, 33), key=abs):
        gs = dataclasses.replace(gs2, normp=gs2.normp + j * np.spacing(gs2.normp))
        M = gs.normp**p
        threshold = float(np.sqrt(sigma_max * M / mom2))
        candidates = threshold + np.arange(-8, 9) * np.spacing(threshold)
        split = [float(b) for b in candidates if (b**2 * mom2 / M < sigma_max) != (b < threshold)]
        if split:
            break
    assert split
    monkeypatch.setattr(solver, "b_sup_norm", lambda B: split[0])
    with pytest.raises(RuntimeError, match="disagree"):
        condition_report(field_library("zero"), gs, PARAMS2)

    monkeypatch.setattr(cli, "radial_ground_state", lambda *args, **kwargs: gs)
    out = tmp_path / "c"
    code = run([
        "conditions", "--field", "zero", "--dim", "2", "--p", "4", "--lambda", "1",
        "--L", "8", "--n", "65", "--out", str(out),
    ])
    assert code == 2
    with open(out / "diagnostic.json") as fh:
        doc = json.load(fh)
    assert doc["type"] == "RuntimeError" and "disagree" in doc["failure"]


def test_condition_report_mismatched_params(gs2):
    with pytest.raises(ValueError, match="different"):
        condition_report(field_library("zero"), gs2, FunctionalParams(p=3.0, lam=1.0, dim=2))


# ---------------------------------------------------------------------------
# Landscape
# ---------------------------------------------------------------------------

def test_landscape_free_field_flat(gs2):
    grid = Grid(8.0, 129, dim=2)
    land = landscape_eval(field_library("zero"), gs2, PARAMS2, grid, R=2.0, T=3.0, y_step=1.0)
    assert land.sigma == 0.0
    # translation invariance: surface constant in y (windowing effects only)
    spread = np.max(land.values) - np.min(land.values)
    assert spread <= 1e-4 * gs2.c_inf
    assert land.max_value == pytest.approx(gs2.c_inf, rel=5e-3)
    assert np.all(land.seed_point == 0.0)


def test_landscape_records_largest_boundary_mass(gs2):
    grid = Grid(8.0, 129, dim=2)
    A = field_library("landau", b=0.5)
    land = landscape_eval(A, gs2, PARAMS2, grid, R=3.0, T=3.0, y_step=1.0)
    w = gs2.on_grid(grid)
    fractions = [shift_apply(make_shift(A, y, grid, max_loss=0.5), w).boundary_mass_fraction() for y in land.y_points]
    assert land.boundary_mass == {"value": max(fractions), "tol": 1e-6}


def test_landscape_bracket_landau(gs2):
    grid = Grid(8.0, 129, dim=2)
    land = landscape_eval(field_library("landau", b=0.5), gs2, PARAMS2, grid, R=3.0, T=3.0, y_step=0.5)
    # the max and seed tie rules read the points in strictly increasing lexicographic order
    assert all(tuple(a) < tuple(b) for a, b in zip(land.y_points[:-1], land.y_points[1:]))
    assert land.bracket["lower_ok"]
    assert land.bracket["upper_ok"]
    assert land.bracket["below_2c"]
    assert gs2.c_inf < land.max_value <= land.bracket["upper"] * (1.0 + 1e-6)


def test_landscape_eta_matches_only_origin(gs2):
    grid = Grid(8.0, 129, dim=2)
    land = landscape_eval(field_library("landau", b=0.4), gs2, PARAMS2, grid, R=2.0, T=3.0, y_step=1.0)
    assert len(land.eta_matches) == 1
    assert np.allclose(land.eta_matches[0]["y"], 0.0)
    assert land.eta_matches[0]["t"] == pytest.approx(1.0, abs=0.06)


def test_landscape_gaussian_max_at_origin(gs2):
    grid = Grid(8.0, 129, dim=2)
    land = landscape_eval(
        field_library("gaussian_decay", b0=0.6, s=1.0), gs2, PARAMS2, grid, R=2.0, T=3.0, y_step=1.0
    )
    # the field is concentrated at the origin, which is where the surface peaks
    assert np.all(land.max_point == 0.0)


def test_landscape_T_too_small_errors(gs2):
    grid = Grid(8.0, 129, dim=2)
    from magnls.solver import RayRisingError

    with pytest.raises(RayRisingError, match="increase T"):
        landscape_eval(field_library("zero"), gs2, PARAMS2, grid, R=1.0, T=0.5, y_step=1.0)


def test_two_bump_diagnostic(gs2):
    grid = Grid(10.0, 81, dim=2)
    diag = two_bump_diagnostic(field_library("zero"), gs2, PARAMS2, grid, R=4.0, n_mix=3)
    # pure single bumps at the ends, near-double level at the even mixture
    assert diag["max_peak"] <= 2.05 * gs2.c_inf
    assert diag["max_peak"] >= 1.5 * gs2.c_inf


# ---------------------------------------------------------------------------
# Critical point search
# ---------------------------------------------------------------------------

def test_search_free_field_recovers_ground_state(gs1):
    grid = Grid(16.0, 2049, dim=1)
    params = FunctionalParams(p=4.0, lam=1.0, dim=1)
    seed = ComplexField(grid, 1.1 * gs1.on_grid(grid).values)
    res = critical_point_search(field_library("zero", dim=1), params, seed, tol=1e-9, gs=gs1)
    assert res.converged
    assert abs(res.level - gs1.c_inf) / gs1.c_inf <= 1e-3
    # converged to the soliton itself (no translation happened from a centered seed)
    w = gs1.on_grid(grid).values
    assert np.max(np.abs(np.abs(res.u.values) - w)) <= 1e-3 * gs1.u0


def test_search_zero_seed_trivial():
    grid = Grid(8.0, 65, dim=2)
    seed = ComplexField(grid, np.zeros(grid.shape, dtype=complex))
    res = critical_point_search(field_library("zero"), PARAMS2, seed, tol=1e-8)
    assert res.trivial
    assert res.residual_norm == 0.0
    assert res.level == 0.0
    assert res.iterations == 0


def test_search_tiny_seed_is_trivial_at_once():
    # a seed whose residual is already below tol returns before the loop,
    # with the same triviality threshold as a search that iterated
    grid = Grid(8.0, 65, dim=2)
    seed = bump(grid, width=1.0, amplitude=1e-12)
    res = critical_point_search(field_library("landau", b=0.5), PARAMS2, seed, tol=1e-6)
    assert res.iterations == 0 and res.converged
    assert res.trivial


def test_search_from_converged_seed_keeps_bracket(gs2):
    # a seed already within tol takes no step, and the result still carries
    # the level bracket
    grid = Grid(8.0, 65, dim=2)
    A = field_library("landau", b=0.5)
    first = critical_point_search(A, PARAMS2, gs2.on_grid(grid), tol=1e-6)
    assert first.converged and first.iterations > 0
    res = critical_point_search(A, PARAMS2, first.u, tol=1e-6, gs=gs2)
    assert res.iterations == 0 and res.converged and not res.stalled
    assert res.level == first.level and res.residual_norm == first.residual_norm
    assert res.minres_info == []
    assert res.bracket == {"c_inf": gs2.c_inf, "level": res.level, "inside": True}


@pytest.mark.parametrize(
    "kwargs, name",
    [({"tol": v}, "tol") for v in (np.nan, np.inf, -1.0, 0.0)] + [({"max_iters": -3}, "max_iters")],
)
def test_search_rejects_bad_limits(kwargs, name):
    grid = Grid(4.0, 17, dim=2)
    with pytest.raises(ValueError, match=name):
        critical_point_search(field_library("zero"), PARAMS2, bump(grid), **kwargs)


def test_search_landau_bracket(gs2):
    grid = Grid(8.0, 129, dim=2)
    A = field_library("landau", b=0.5)
    land = landscape_eval(A, gs2, PARAMS2, grid, R=2.0, T=3.0, y_step=1.0)
    seed = landscape_seed(land, gs2, A, grid)
    res = critical_point_search(A, PARAMS2, seed, tol=1e-5, max_iters=60, gs=gs2)
    assert res.converged
    assert res.residual_norm < 1e-4
    assert gs2.c_inf < res.level < 2.0 * gs2.c_inf
    assert res.bracket["inside"]


def test_search_stops_when_the_line_search_fails(gs2):
    # below rounding level neither the Newton nor the steepest-descent step
    # lowers the residual, so the search stops and says so
    grid = Grid(8.0, 65, dim=2)
    res = critical_point_search(field_library("zero"), PARAMS2, gs2.on_grid(grid), tol=1e-15)
    assert res.stalled
    assert not res.converged
    assert res.iterations < 60
    assert res.residual_norm < 1e-12


def test_search_prepared_potential_matches_field(gs2):
    # the search reads A only through prepare_potential
    grid = Grid(8.0, 65, dim=2)
    A = field_library("landau", b=0.5)
    seed = gs2.on_grid(grid)
    res = critical_point_search(A, PARAMS2, seed, tol=1e-6)
    prep = critical_point_search(prepare_potential(A, grid), PARAMS2, seed, tol=1e-6)
    assert prep.level == res.level
    assert prep.residual_norm == res.residual_norm
    assert prep.trace == res.trace
    assert np.array_equal(prep.u.values, res.u.values)


def test_search_reports_stall_without_exception():
    # a deliberately hopeless budget must report, not raise
    grid = Grid(8.0, 65, dim=2)
    seed = bump(grid, width=1.0, amplitude=3.0)
    res = critical_point_search(field_library("landau", b=0.5), PARAMS2, seed, tol=1e-14, max_iters=2, inner_iters=1)
    assert not res.converged
    assert len(res.trace) >= 1
    # MINRES hits its one-step cap at every Newton step, and the result says so
    assert len(res.minres_info) == res.iterations
    assert sum(1 for info in res.minres_info if info != 0) > 0


def test_search_3d_newton_step_memory(monkeypatch):
    # one Newton step of a 3-D landau search, traced in complex node arrays:
    # 11.5 are held when MINRES starts, and the peak inside it is 22.7.  A
    # full-grid array kept through the solve (a real one counts half) breaks
    # the first bound, a copy of MINRES's right-hand side the second; the
    # headroom is for other numpy and scipy releases
    grid = Grid(6.0, 33, dim=3)
    unit = 16 * np.prod(grid.shape)
    seed = bump(grid, width=1.0)
    held = []

    def recorded(A, b, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] / unit)
        return minres(A, b, **kwargs)

    monkeypatch.setattr(solver, "minres", recorded)
    tracemalloc.start()
    try:
        res = critical_point_search(field_library("landau", b=0.5, dim=3), PARAMS3, seed, max_iters=1)
        peak = tracemalloc.get_traced_memory()[1] / unit
    finally:
        tracemalloc.stop()
    assert res.iterations == 1 and res.minres_info == [0]
    assert held[0] <= 11.75
    assert peak <= 23.5


# ---------------------------------------------------------------------------
# MINRES preconditioner of the search
# ---------------------------------------------------------------------------

PRECOND_GRIDS = [Grid(4.0, 17, dim=2), Grid(4.0, 9, dim=3)]


def _interleaved(x, shape):
    """MINRES's real vector written out: entries 2k and 2k+1 are Re and Im of flat node k."""
    return (x[0::2] + 1j * x[1::2]).reshape(shape)


def _flattened(z):
    return np.stack((z.real.ravel(), z.imag.ravel()), axis=-1).ravel()


def _on_vectors(apply, shape):
    """A map of complex node arrays as a map of their interleaved real vectors."""
    return lambda x: _flattened(apply(_interleaved(x, shape)))


def _packed_operator(grid, A, V):
    """K x = sqrt(W) (magnetic Laplacian + V) (x / sqrt(W)) on interleaved real vectors, as MINRES sees it."""
    prep = prepare_potential(A, grid)
    sqw = np.sqrt(grid.weights())

    def apply(x):
        z = _interleaved(x, grid.shape) / sqw
        return _flattened(sqw * (magnetic_laplacian(ComplexField(grid, z), prep) + V * z))

    return apply


@pytest.mark.parametrize("grid", PRECOND_GRIDS, ids=["2d", "3d"])
@pytest.mark.parametrize("tag, kwargs", [("zero", {}), ("landau", {"b": 0.5})])
def test_block_preconditioner_symmetric_positive(grid, tag, kwargs):
    # on random vectors and on the operator images MINRES feeds it
    V = np.full(grid.shape, PARAMS2.lam)
    P = _on_vectors(_block_preconditioner(grid, V), grid.shape)
    K = _packed_operator(grid, field_library(tag, dim=grid.dim, **kwargs), V)
    rng = np.random.default_rng(11)
    size = 2 * int(np.prod(grid.shape))
    vecs = [rng.standard_normal(size) for _ in range(4)]
    vecs += [K(v) for v in vecs]
    for x, y in zip(vecs, vecs[1:]):
        pxy, xpy = float(np.dot(P(x), y)), float(np.dot(x, P(y)))
        assert abs(pxy - xpy) <= 1e-12 * abs(pxy)
    for x in vecs:
        assert float(np.dot(P(x), x)) > 0.0


@pytest.mark.parametrize("grid", PRECOND_GRIDS, ids=["2d", "3d"])
def test_block_preconditioner_exact_on_interior(grid):
    # with A = 0 and constant V the interior block is the Dirichlet Laplacian
    # plus V, which the interior DST inverts exactly
    V = np.full(grid.shape, PARAMS2.lam)
    P = _on_vectors(_block_preconditioner(grid, V), grid.shape)
    K = _packed_operator(grid, field_library("zero", dim=grid.dim), V)
    rng = np.random.default_rng(5)
    u = np.zeros(grid.shape, dtype=complex)
    inner = (slice(1, -1),) * grid.dim
    u[inner] = rng.standard_normal(u[inner].shape) + 1j * rng.standard_normal(u[inner].shape)
    back = _interleaved(P(K(_flattened(u))), grid.shape)
    assert np.max(np.abs(back[inner] - u[inner])) <= 1e-12 * np.max(np.abs(u))


@pytest.mark.parametrize("dim, n", [(2, 17), (3, 9)])
def test_poisson_solver_on_complex_field_is_its_parts(dim, n):
    # the minimizer preconditions complex fields whole: the transforms act on
    # Re and Im separately, so only the division by the eigenvalues may round
    grid = Grid(4.0, n, dim=dim)
    solve = _poisson_solver(grid, np.full(grid.shape, PARAMS2.lam))
    rng = np.random.default_rng(17)
    z = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    whole, parts = solve(z), solve(z.real) + 1j * solve(z.imag)
    assert np.max(np.abs(whole - parts)) <= 1e-14 * np.max(np.abs(parts))


NEWTON_FIELDS = [
    ("zero", {}),
    ("landau", {"b": 0.5}),
    ("symmetric", {"b": 0.5}),
    ("gaussian_decay", {"b0": 0.5, "s": 1.0}),
]


def _packed_newton_operator(grid, A, V, u, p):
    """The Newton matvec written out on interleaved vectors: ``_packed_operator`` minus the
    packed derivative of |u|^{p-2} u, sqrt(W) (|u|^{p-2} z + (p-2)|u|^{p-4} u Re(conj(u) z))."""
    lin = _packed_operator(grid, A, V)
    sqw = np.sqrt(grid.weights())
    s = np.abs(u)
    sp2 = s ** (p - 2.0)
    sp4u = np.zeros_like(u)
    mask = s > 0
    sp4u[mask] = (p - 2.0) * s[mask] ** (p - 3.0) * (u[mask] / s[mask])

    def apply(x):
        z = _interleaved(x, grid.shape) / sqw
        nl = sqw * (sp2 * z + sp4u * np.real(np.conj(u) * z))
        return lin(x) - _flattened(nl)

    return apply


class _Captured(Exception):
    pass


def _minres_operators(monkeypatch, A, params, grid, u):
    """The operator and preconditioner ``critical_point_search`` hands MINRES at its first step from u."""

    def capture(Aop, b, **kwargs):
        raise _Captured(Aop, kwargs["M"])

    with monkeypatch.context() as patched:
        patched.setattr(solver, "minres", capture)
        with pytest.raises(_Captured) as caught:
            critical_point_search(A, params, ComplexField(grid, u))
    return caught.value.args


@pytest.mark.parametrize("grid", PRECOND_GRIDS, ids=["2d", "3d"])
@pytest.mark.parametrize("tag, kwargs", NEWTON_FIELDS)
def test_stacked_newton_operator_matches_packed_form(grid, tag, kwargs, monkeypatch):
    # the matvec MINRES calls, against the form written out entry by entry on
    # interleaved vectors, at a seed, a Newton iterate and a random field; and
    # it is symmetric
    A = field_library(tag, dim=grid.dim, **kwargs)
    params = FunctionalParams(p=4.0, lam=1.0, dim=grid.dim)
    V = np.full(grid.shape, params.lam)
    W = grid.weights()
    seed = ComplexField(grid, 1.5 * bump(grid, width=1.0, wave=0.3).values)
    iterate = critical_point_search(A, params, seed, max_iters=1).u
    rng = np.random.default_rng(3)
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    size = 2 * W.size
    P = _on_vectors(_block_preconditioner(grid, V), grid.shape)
    for u in (seed.values, iterate.values, noise):
        Aop, M = _minres_operators(monkeypatch, A, params, grid, u)
        K = Aop.matvec
        ref = _packed_newton_operator(grid, A, V, u, params.p)
        vecs = [rng.standard_normal(size) for _ in range(3)]
        assert all(np.array_equal(M.matvec(x), P(x)) for x in vecs)
        first = K(vecs[0])
        for x in vecs:
            want = ref(x)
            assert np.max(np.abs(K(x) - want)) <= 1e-13 * np.max(np.abs(want))
        # each call returns a fresh vector: no buffer is handed out twice
        assert np.array_equal(first, K(vecs[0]))
        for x, y in zip(vecs, vecs[1:]):
            kxy, xky = float(np.dot(K(x), y)), float(np.dot(x, K(y)))
            assert abs(kxy - xky) <= 1e-12 * abs(kxy)


# ---------------------------------------------------------------------------
# MINRES
# ---------------------------------------------------------------------------


def _indefinite_system(seed, n=400):
    """Random symmetric A with eigenvalues of modulus 1 to 10 and both signs,
    an SPD diagonal preconditioner, and a right-hand side."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = rng.uniform(1.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
    A = (Q * eig) @ Q.T
    return 0.5 * (A + A.T), rng.uniform(0.5, 2.0, n), rng.standard_normal(n)


def _counted(matrix):
    calls = []

    def matvec(x):
        calls.append(1)
        return matrix @ x

    return LinearOperator(matrix.shape, matvec=matvec, dtype=float), calls


def _both_minres(A, b, M, **kwargs):
    """(x, info, matvecs) from scipy's minres and from ``solver.minres``, which overwrites its b."""
    out = []
    for solve in (scipy_minres, minres):
        op, calls = _counted(A)
        x, info = solve(op, b.copy(), M=M, **kwargs)
        out.append((x, info, len(calls)))
    return out


def _diagonal(d):
    return LinearOperator((d.size, d.size), matvec=lambda x: x / d, dtype=float)


@pytest.mark.parametrize("seed", range(4))
def test_minres_matches_scipy(seed):
    # same recurrences and stopping tests: only the summation order of the
    # reductions differs, so the runs take the same steps to the same x
    A, d, b = _indefinite_system(seed)
    M = _diagonal(d)
    (x_ref, info_ref, n_ref), (x, info, n) = _both_minres(A, b, M, rtol=1e-3, maxiter=1000)
    assert n == n_ref and 20 < n < 1000
    assert info == info_ref == 0
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert np.linalg.norm(A @ x - b) <= 0.1 * np.linalg.norm(b)


def test_minres_iteration_cap_returns_maxiter():
    A, d, b = _indefinite_system(7)
    M = _diagonal(d)
    (x_ref, info_ref, n_ref), (x, info, n) = _both_minres(A, b, M, rtol=1e-3, maxiter=5)
    assert info == info_ref == 5
    assert n == n_ref == 5
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_minres_zero_rhs_returns_zero():
    A, d, _ = _indefinite_system(1, n=50)
    op, calls = _counted(A)
    x, info = minres(op, np.zeros(50), rtol=1e-3, maxiter=100, M=_diagonal(d))
    assert info == 0 and not calls
    assert np.array_equal(x, np.zeros(50))


def test_minres_indefinite_preconditioner_raises():
    A, d, b = _indefinite_system(2, n=50)
    d[::2] *= -1.0
    M = _diagonal(d)
    b = np.where(d < 0, 3.0, 1.0) * np.abs(b)
    assert float(b @ M.matvec(b)) < 0
    for solve in (scipy_minres, minres):
        with pytest.raises(ValueError, match="indefinite preconditioner"):
            solve(_counted(A)[0], b, rtol=1e-3, maxiter=100, M=M)
