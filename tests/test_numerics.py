"""The ports in ``magnls._numerics`` against the scipy routines they replace."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq as scipy_brentq

import magnls
from magnls._numerics import brentq, clamped_spline, simpson
from magnls.calculus import Grid
from magnls import solver
from magnls.solver import _R0, _R_MAX, _SHOT_TOL, _final_mesh, _shot, radial_ground_state


def _scipy_shot(a, N, p, floor, t_eval=None, r_max=_R_MAX):
    """``solver._shot`` as it was written on scipy's ``solve_ivp``."""
    c = (a - a ** (p - 1)) / (2.0 * N)

    def rhs(r, yv):
        u, du = yv
        return [du, u - np.abs(u) ** (p - 2) * u - (N - 1) / r * du]

    def fell(r, yv):
        return yv[0] - floor

    def turned(r, yv):
        return yv[1]

    fell.terminal = turned.terminal = True
    fell.direction, turned.direction = -1.0, 1.0
    return scipy_solve_ivp(
        rhs, (_R0, r_max), [a + c * _R0**2, 2.0 * c * _R0], method="DOP853", t_eval=t_eval,
        events=(fell, turned), rtol=_SHOT_TOL, atol=_SHOT_TOL * 1e-3, max_step=0.1 * r_max,
    )


@pytest.mark.parametrize("N", [1, 2, 3])
def test_shots_match_scipy_dop853(N, request):
    # the shots of the search (no t_eval, floor 0) on both sides of u0 and
    # the final dense shot at u0; every stage sum is scipy's np.dot, so the
    # event radii and sampled values agree to the bit
    u0 = request.getfixturevalue(f"gs{N}").u0
    mesh, _ = _final_mesh(u0, 4.0)
    cases = [(u0 * (1.0 + d), 0.0, None) for d in (-1e-3, -1e-7, 1e-7, 1e-3)] + [(u0, 1e-12 * u0, mesh)]
    for a, floor, t_eval in cases:
        ours = _shot(a, N, 4.0, floor, t_eval=t_eval)
        ref = _scipy_shot(a, N, 4.0, floor, t_eval=t_eval)
        assert [e.tolist() for e in ours.t_events] == [e.tolist() for e in ref.t_events], a
        assert sum(e.size for e in ours.t_events) == 1
        assert ours.t.tobytes() == ref.t.tobytes()
        assert ours.y.tobytes() == ref.y.tobytes()


def test_shot_without_event_runs_to_r_max(gs1, monkeypatch):
    # the ground state's height neither crosses the floor nor turns back up
    # by r_max = 0.5: the run ends at r_max, where t_eval ends too
    monkeypatch.setattr(solver, "_R_MAX", 0.5)
    for t_eval in (None, np.linspace(_R0, 0.5, 11)):
        ours = _shot(gs1.u0, 1, 4.0, 0.0, t_eval=t_eval)
        ref = _scipy_shot(gs1.u0, 1, 4.0, 0.0, t_eval=t_eval, r_max=0.5)
        assert [e.size for e in ours.t_events] == [0, 0]
        assert ours.t[-1] == 0.5
        assert ours.t.tobytes() == ref.t.tobytes() and ours.y.tobytes() == ref.y.tobytes()


def test_nan_state_ends_the_run():
    # a NaN state gives a NaN step size, which ends the run where it is, as a
    # size below its floor does; it was once retried without end, so the run
    # is timed in a child process
    code = (
        "from magnls._numerics import solve_ivp; nan = float('nan'); "
        "shot = solve_ivp(lambda t, u, v: (nan, nan), (0.0, 1.0), (nan, nan), "
        "events=(), rtol=1e-10, atol=1e-13, max_step=0.1); print(shot.t.tolist())"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(magnls.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["[0.0]"], proc.stderr


FUNCTIONS = [
    (lambda x: x**2 - 2.0, 0.0, 2.0),
    (lambda x: np.cos(x) - x, 0.0, 1.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: np.exp(x) - 1e4, 0.0, 20.0),
    (lambda x: np.tanh(50.0 * (x - 0.3)), -1.0, 1.0),
    (lambda x: x * np.exp(x) - 1.0, 0.0, 1.0),
]


@pytest.mark.parametrize("f, a, b", FUNCTIONS)
@pytest.mark.parametrize("xtol", [2e-12, 1e-6])
def test_brentq_matches_scipy(f, a, b, xtol):
    assert abs(brentq(f, a, b, xtol=xtol) - scipy_brentq(f, a, b, xtol=xtol)) <= xtol


def test_brentq_fails_where_scipy_fails():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x**2 + 1.0, -1.0, 1.0, xtol=1e-12)
    # a triple root: neither converges in 100 steps to xtol 2e-12
    with pytest.raises(RuntimeError, match="converge"):
        scipy_brentq(lambda x: (x - 1.0) ** 3, 0.0, 3.0, xtol=2e-12)
    with pytest.raises(RuntimeError, match="converge"):
        brentq(lambda x: (x - 1.0) ** 3, 0.0, 3.0, xtol=2e-12)


def _meshes(request):
    """The ground-state radii for N = 1, 2, 3 at p = 4 and one graded (N = 3, p = 5.9, lambda = 4) profile."""
    profiles = [request.getfixturevalue(f"gs{N}") for N in (1, 2, 3)]
    return profiles + [radial_ground_state(3, 5.9, 4.0)]


def test_simpson_matches_scipy_on_ground_state_meshes(request):
    # odd and even lengths of each mesh, with its 1e-8 first interval
    for gs in _meshes(request):
        for n in (gs.r.size, gs.r.size - 1):
            r = gs.r[:n]
            for y in (gs.w[:n] ** 2 * r ** (gs.N - 1), gs.dw[:n] ** 2 * r ** (gs.N + 1)):
                assert simpson(y, x=r) == pytest.approx(float(scipy_simpson(y, x=r)), rel=1e-14, abs=0)


def test_clamped_spline_matches_cubicspline_at_grid_radii(request):
    for gs in _meshes(request):
        ours = clamped_spline(gs.r, gs.w, 0.0, float(gs.dw[-1]))
        ref = CubicSpline(gs.r, gs.w, bc_type=((1, 0.0), (1, float(gs.dw[-1]))))
        for grid in (Grid(8.0, 129, dim=2), Grid(6.0, 65, dim=3)):
            radii = np.sqrt(np.sum(grid.nodes() ** 2, axis=-1)).ravel()
            radii = radii[radii <= gs.r[-1]]
            expected = ref(radii)
            assert np.max(np.abs(ours(radii) - expected) / np.abs(expected)) <= 1e-14
