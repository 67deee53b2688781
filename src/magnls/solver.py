"""Ground states, constrained minimization, the minimax landscape and critical-point search.

The field-free limit profile comes from shooting on the radial equation at
lam = 1, with Brent's method on a signed shooting function of u(0), and its
exact scaling to lam; the smallness condition on B and the two-sided level
bracket are phrased against it.  The critical-point search takes Newton
steps, each solved by ``minres``.

Beyond numpy this module imports only ``scipy.fft``, at module level so that
its cost falls in start-up rather than in the first preconditioner.  The
shooting integrator, root finder, quadrature and spline come from
``magnls._numerics``: ports of scipy's DOP853 ``solve_ivp``, ``brentq``,
``simpson`` and clamped ``CubicSpline`` that round as scipy does.  The
operators handed to ``minres`` are ``_Operator`` tuples in place of scipy's
``LinearOperator``.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import exp, sqrt
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.fft import dstn, idstn

from ._numerics import brentq, clamped_spline, simpson, solve_ivp
from .calculus import (
    BOUNDARY_MASS_TOL,
    ComplexField,
    FunctionalParams,
    Grid,
    bump,
    el_residual,
    energy_EA,
    functional_I,
    functional_J,
    lp_norm,
    magnetic_laplacian,
    prepare_potential,
    _boundary_fraction,
    _edge_energy,
    _edge_values,
    _eta_kernels,
    _eta_sums,
    _free,
    _stencil_apply,
    _v_samples,
)
from .field import PotentialField, _mesh_points, b_sup_norm, curl
from .gauge import VANISHING_TOL, _moved, make_shift, potential_at_infinity, shift_apply

__all__ = [
    "GroundState",
    "ConditionReport",
    "LandscapeResult",
    "SearchResult",
    "MinimizeResult",
    "DivergenceError",
    "RayRisingError",
    "radial_ground_state",
    "nehari_scale",
    "minimize_constrained",
    "condition_report",
    "check_ray_box",
    "lattice_steps",
    "landscape_eval",
    "landscape_seed",
    "two_bump_diagnostic",
    "critical_point_search",
    "minres",
]


class DivergenceError(RuntimeError):
    """Descent value increased beyond tolerance for several consecutive steps."""


class RayRisingError(RuntimeError):
    """The scaling ray is still rising at t = T; a larger T is required."""


def _sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N (2 for N = 1)."""
    from math import gamma, pi

    return 2.0 * pi ** (N / 2.0) / gamma(N / 2.0)


@dataclass
class GroundState:
    """Radial profile of the positive decaying solution of -Du + lam u = u^{p-1}."""

    N: int
    p: float
    lam: float
    u0: float
    r: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    norm2: float
    normp: float
    energy: float
    c_inf: float

    @property
    def decay_length(self) -> float:
        return 1.0 / np.sqrt(self.lam)

    def nehari_residual(self) -> float:
        """Relative defect of J(w) = ||w||_p^p; zero for the exact solution."""
        J = self.energy + self.lam * self.norm2**2
        M = self.normp**self.p
        return abs(J - M) / M

    def interpolant(self) -> Callable[[np.ndarray], np.ndarray]:
        """w as a clamped cubic spline through the profile (slopes 0 at r = 0 and dw at its last radius), zero beyond it."""
        spline = clamped_spline(self.r, self.w, 0.0, float(self.dw[-1]))
        rmax = float(self.r[-1])

        def f(radii):
            radii = np.asarray(radii, dtype=float)
            out = np.zeros_like(radii)
            mask = radii <= rmax
            out[mask] = spline(radii[mask])
            return out

        return f

    def on_grid(self, grid: Grid) -> ComplexField:
        """Radial profile sampled as a grid field centered at the origin."""
        radii = np.sqrt(np.sum(grid.nodes() ** 2, axis=-1))
        return ComplexField(grid, self.interpolant()(radii).astype(complex))


_R0 = 1e-8  # radius where the series start u(r) = a + c r^2 hands over to the ODE
_R_MAX = 35.0  # end of the unit shot, in decay lengths 1/sqrt(lam)
_SHOT_TOL = 1e-10  # the shots' rtol (atol is 1e-3 of it)


def _shot(a: float, N: int, p: float, floor: float, t_eval=None):
    """Integrate the unit radial ODE -u'' - (N-1)/r u' + u = |u|^{p-2} u from u(0) = a.

    The shot starts at r = _R0 from the series u = a + c r^2 and runs to
    ``_R_MAX``, unless one of two events stops it first: u falls through
    ``floor`` (event 0) or u' turns positive (event 1, the profile turns
    back up).  It is integrated with the 8th-order DOP853 pair, which at
    rtol ``_SHOT_TOL`` needs far fewer steps per shot than RK45.
    """
    c = (a - a ** (p - 1)) / (2.0 * N)
    q = p - 2.0
    bend = float(N - 1)

    def rhs(r, u, du):
        return du, u - abs(u) ** q * u - bend / r * du

    def fell(r, u, du):
        return u - floor

    def turned(r, u, du):
        return du

    return solve_ivp(
        rhs,
        (_R0, _R_MAX),
        (a + c * _R0**2, 2.0 * c * _R0),
        t_eval=t_eval,
        events=((fell, -1.0), (turned, 1.0)),
        rtol=_SHOT_TOL,
        atol=_SHOT_TOL * 1e-3,
        max_step=0.1 * _R_MAX,
    )


def _shot_sign(a: float, N: int, p: float) -> float:
    """Signed shooting function of the unit problem: zero at its ground state's u(0), proportional to a - a* near it.

    +e^{-2r} if the shot from u(0) = a crosses zero at r (a too high),
    -e^{-2r} if it turns back up there (a too low): near the root, the
    departure |a - a*| e^{r} meets the decay e^{-r} at r.  With no event by
    ``_R_MAX``, r = ``_R_MAX`` and u' + u gives the sign.
    """
    sol = _shot(a, N, p, 0.0)
    crossed, turned = sol.t_events
    if crossed.size:
        return exp(-2.0 * crossed[0])
    if turned.size:
        return -exp(-2.0 * turned[0])
    u, du = sol.y[0][-1], sol.y[1][-1]
    return (-1.0 if du + u > 0 else 1.0) * exp(-2.0 * _R_MAX)


# a ground state whose ``nehari_residual`` exceeds this is a numerical failure
NEHARI_TOL = 1e-6

# the final shot's mesh: 4001 uniform points, graded to _GRADED_SPACINGS
# intervals per core width where the core spans fewer than _CORE_SPACINGS
_MESH_POINTS = 4001
_CORE_SPACINGS = 20
_GRADED_SPACINGS = 80


def _final_mesh(u0: float, p: float):
    """Radii of the unit problem's final shot, and the spacing h of their uniform outer part.

    4001 uniform points over [_R0, _R_MAX], unless the core width
    ``u0^{-(p-2)/2}``, the radius over which w falls from u0, is below 20
    of their spacings h, as near the critical exponent.  Then 81 equal
    intervals span the core, the spacing grows with r as about r / 80 out
    to 80 h, and is h beyond.  Simpson's rule pairs the intervals of the
    profile ``[0, _R0, mesh...]``: both intervals of every pair are equal,
    since a pair of unequal ones loses the rule's fourth order.  On the
    uniform mesh the rule's errors cancel along the smooth decaying
    profile, which a graded mesh forgoes, hence 80 rather than 20 intervals
    (N = 3, p = 5.9: residual 1.0e-10 against 1.9e-7 with 20).
    """
    mesh = np.linspace(_R0, _R_MAX, _MESH_POINTS)
    h = mesh[1] - mesh[0]
    core = u0 ** (-(p - 2.0) / 2.0)
    if core >= _CORE_SPACINGS * h:
        return mesh, h
    k = _GRADED_SPACINGS
    inner = np.linspace(_R0, core, k + 2)  # the core at an odd index, where two pairs meet
    edges = np.geomspace(core, k * h, int(np.ceil(np.log(k * h / core) / np.log(1.0 + 2.0 / k))) + 1)
    middle = np.empty(2 * edges.size - 1)  # each pair's edges and its midpoint
    middle[0::2] = edges
    middle[1::2] = 0.5 * (edges[:-1] + edges[1:])
    outer = np.linspace(k * h, _R_MAX, int(round((_R_MAX - k * h) / h)) + 1)
    return np.concatenate((inner[:-1], middle[:-1], outer)), outer[1] - outer[0]


def radial_ground_state(N: int, p: float, lam: float) -> GroundState:
    """The positive radial decaying profile of -Du + lam u = u^{p-1}, scaled from the unit problem's.

    Only lam = 1 is shot: Brent's method on u(0) finds the root of
    ``_shot_sign`` between a shot that turns back up and one that crosses
    zero, in 13/18/24 shots for N = 1/2/3 at p = 4 (the final dense one
    included).  The final shot is sampled on ``_final_mesh``, graded where
    the core is narrow, and extended by the matched exponential tail, at
    the mesh's outer spacing, beyond the last trustworthy radius, out to
    ``_R_MAX``.  The exact scaling ``w_lam(x) = lam^{1/(p-2)} w_1(sqrt(lam) x)``
    then maps the unit profile to lam, and the unit profile's norms and
    energy take their exact powers of lam (every factor is 1.0 at lam = 1),
    so the profile spans ``_R_MAX`` decay lengths at every lam.  A shot or
    mapping that overflows, and a profile whose ``nehari_residual``
    is not within ``NEHARI_TOL``, raise ``RuntimeError``, so no caller
    takes c_inf from them.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    FunctionalParams(p=p, lam=lam, dim=N)  # p admissible for N, lam finite and > 0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            gs = _shoot_ground_state(N, p, lam)
    except ArithmeticError as exc:  # overflow, division by zero or an invalid value, in floats or numpy
        raise RuntimeError(f"the shot overflows at p = {p:g}, lam = {lam:g}: {exc}") from None
    residual = gs.nehari_residual()
    if not residual <= NEHARI_TOL:
        raise RuntimeError(f"nehari_residual {residual:.3g} exceeds its tol {NEHARI_TOL:g}")
    return gs


def _shoot_ground_state(N: int, p: float, lam: float) -> GroundState:
    """``radial_ground_state`` on validated input, before its Nehari check.

    An overflowing shot or mapping raises ``OverflowError`` or
    ``ZeroDivisionError`` from its Python floats, or numpy's
    ``FloatingPointError`` under the caller's ``np.errstate``.
    """
    # brentq evaluates its bracket ends again; the cache shoots each height once
    s = lru_cache(maxsize=None)(lambda a: _shot_sign(a, N, p))

    u_zero = (0.5 * p) ** (1.0 / (p - 2.0))  # height where the well energy balances
    lo = 0.5 * (u_zero + 1.0)
    if s(lo) >= 0:
        lo = u_zero * (1.0 - 1e-9)
        if s(lo) >= 0:
            raise RuntimeError(f"no undershoot bracket: the shot from u(0) = {lo} does not turn back up")
    hi = u_zero * 1.2
    for _ in range(80):
        if s(hi) > 0:
            break
        hi *= 1.5
    else:
        raise RuntimeError(f"no overshoot bracket: no shot up to u(0) = {hi} crosses zero")
    a_star = brentq(s, lo, hi, xtol=_SHOT_TOL * 1e-2 * u_zero)

    # stop where the shot inevitably departs from the separatrix (crossing
    # below zero or turning back up); the matched tail takes over from there
    mesh, spacing = _final_mesh(a_star, p)
    sol = _shot(a_star, N, p, 1e-12 * a_star, t_eval=mesh)
    r = np.concatenate(([0.0], sol.t))
    w = np.concatenate(([a_star], sol.y[0]))
    dw = np.concatenate(([0.0], sol.y[1]))
    if r[-1] < _R_MAX - 1e-9:
        # extend by the matched tail w ~ C r^{-(N-1)/2} e^{-r}
        r1, w1 = r[-1], max(w[-1], 1e-300)
        tail_r = np.arange(r1, _R_MAX, spacing)[1:]
        if tail_r.size:
            Ctail = w1 / (r1 ** (-(N - 1) / 2.0) * np.exp(-r1))
            tail_w = Ctail * tail_r ** (-(N - 1) / 2.0) * np.exp(-tail_r)
            tail_dw = tail_w * (-(N - 1) / (2.0 * tail_r) - 1.0)
            r = np.concatenate((r, tail_r))
            w = np.concatenate((w, tail_w))
            dw = np.concatenate((dw, tail_dw))
    w = np.maximum(w, 0.0)

    # map to lam by w_lam(x) = lam^{1/(p-2)} w(sqrt(lam) x): the profile
    # pointwise, its integrals by their exact powers of lam.  Integrating the
    # mapped samples would round them anew, and the first Simpson pair, of
    # spacings _R0 and about 9e-3, magnifies that rounding by their ratio
    # (2e-13 relative for N = 1, where r^{N-1} does not vanish at r = 0)
    height, sq = lam ** (1.0 / (p - 2.0)), sqrt(lam)
    area = _sphere_area(N)
    rpow = r ** (N - 1)
    norm2 = float(np.sqrt(area * simpson(w**2 * rpow, x=r))) * (height * sq ** (-N / 2.0))
    normp = float((area * simpson(w**p * rpow, x=r)) ** (1.0 / p)) * (height * sq ** (-N / p))
    energy = float(area * simpson(dw**2 * rpow, x=r)) * (height**2 * sq ** (2.0 - N))
    c_inf = (p - 2.0) / (2.0 * p) * normp**p
    return GroundState(
        N=N, p=p, lam=lam, u0=height * a_star, r=r / sq, w=height * w, dw=(height * sq) * dw,
        norm2=norm2, normp=normp, energy=energy, c_inf=c_inf,
    )


# ---------------------------------------------------------------------------
# Nehari scaling
# ---------------------------------------------------------------------------

def _ray_peak(J: float, M: float, p: float):
    """Peak of the ray t -> I(t u) for J = J(u), M = ||u||_p^p: its t and its value.

    t = (J/M)^{1/(p-2)}, value (1/2 - 1/p)(J/M^{2/p})^{p/(p-2)}.
    """
    t = (J / M) ** (1.0 / (p - 2.0))
    return t, (0.5 - 1.0 / p) * (J / M ** (2.0 / p)) ** (p / (p - 2.0))


def nehari_scale(u: ComplexField, A, params: FunctionalParams) -> float:
    """The unique t > 0 placing t*u on the Nehari set: t = (J(u)/||u||_p^p)^{1/(p-2)}."""
    M = lp_norm(u, params.p) ** params.p
    if M == 0.0:
        raise ValueError("nehari_scale needs a nonzero field")
    J = functional_J(u, A, params)
    return float(_ray_peak(J, M, params.p)[0])


# ---------------------------------------------------------------------------
# Constrained minimization
# ---------------------------------------------------------------------------

@dataclass
class MinimizeResult:
    u: ComplexField
    value: float
    trace: list  # (value, centroid) per iteration
    iterations: int
    converged: bool


def _centroid(u: ComplexField) -> np.ndarray:
    W = u.grid.weights()
    dens = W * np.abs(u.values) ** 2
    total = float(np.sum(dens))
    if total == 0.0:
        return np.zeros(u.grid.dim)
    pts = u.grid.nodes()
    return np.array([float(np.sum(pts[..., i] * dens)) / total for i in range(u.grid.dim)])


_STALL_TOL = 1e-6  # the minimizer's stop test on the relative projected gradient


def minimize_constrained(
    A,
    params: FunctionalParams,
    grid: Grid,
    seed: Optional[ComplexField] = None,
    max_iters: int = 4000,
    mode: str = "functional",
) -> MinimizeResult:
    """Sobolev-preconditioned projected descent for J over the unit L^p sphere.

    The J-gradient g (the quadratic part of the Euler-Lagrange residual) is
    preconditioned by P, the full-window DST inverse of the free Laplacian
    plus the shift ``max(mean(V), 1e-6)`` (``_poisson_solver``), applied to
    the complex field.  ``critical_point_search`` preconditions MINRES with
    the interior-block form instead; here that form takes 37 iterations on
    the README ``conditions`` lambda0 case against 15 (51 with a plain
    ``2 sum 1/h^2 + shift`` boundary diagonal), so the minimizer keeps the
    full window.
    The direction is P g with the P-image of the constraint normal
    n = |u|^{p-2} u projected out, ``d = P g - (<P g, n> / <P n, n>) P n``,
    so ``<d, n> = 0`` and d descends in the P metric (a Sobolev-gradient
    flow).  Each iteration steps against d and renormalizes in L^p; steps use
    a Barzilai-Borwein guess (first trial 1e-3) with monotone backtracking,
    capped at half the iterate's norm.  The stop test is on the raw
    (unpreconditioned) projected gradient: its W-norm must fall below
    ``_STALL_TOL * max(||g||, 1)``, a fixed 1e-6.  ``mode='lambda0'``
    minimizes the bare magnetic energy over the unit L^2 sphere instead,
    estimating the bottom of the quadratic form.
    """
    if mode not in ("functional", "lambda0"):
        raise ValueError(f"unknown mode '{mode}'")
    p_norm = 2.0 if mode == "lambda0" else params.p
    Avals = prepare_potential(A, grid)
    W = grid.weights()
    if mode == "lambda0":
        Vvals = np.zeros(grid.shape)
    else:
        Vvals = _v_samples(params, grid)

    if seed is None:
        width = 1.0 / np.sqrt(params.lam)
        seed = bump(grid, width=width)
    u = seed.values.astype(complex) / lp_norm(seed, p_norm)

    def value_of(vals):
        f = ComplexField(grid, vals)
        return energy_EA(f, Avals) + float(np.sum(W * Vvals * np.abs(vals) ** 2))

    def grad_of(vals):
        f = ComplexField(grid, vals)
        return 2.0 * (magnetic_laplacian(f, Avals) + Vvals * vals)

    def normalize(vals):
        return vals / lp_norm(ComplexField(grid, vals), p_norm)

    def ip(a, b):
        return float(np.sum(W * np.real(a * np.conj(b))))

    precondition = _poisson_solver(grid, Vvals)

    def directions(vals, g):
        # project the constraint normal |u|^{p-2} u out of g (the raw residual
        # the stop test measures) and, in the P metric, out of P g (the step
        # direction); either keeps the renormalization retraction first-order
        # neutral, so the step is genuinely descent
        nrm = np.abs(vals) ** (p_norm - 2.0) * vals
        raw = g - ip(g, nrm) / max(ip(nrm, nrm), 1e-300) * nrm
        pg, pn = precondition(g), precondition(nrm)
        return raw, pg - ip(pg, nrm) / max(ip(pn, nrm), 1e-300) * pn

    val = value_of(u)
    g = grad_of(u)
    raw, d = directions(u, g)
    trace = [(val, _centroid(ComplexField(grid, u)))]
    alpha = None
    bad_count = 0
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        rnorm = np.sqrt(max(ip(raw, raw), 1e-300))
        gnorm = np.sqrt(max(ip(g, g), 1e-300))
        if rnorm <= _STALL_TOL * max(gnorm, 1.0):
            converged = True
            break
        dnorm = np.sqrt(max(ip(d, d), 1e-300))
        unorm = np.sqrt(max(ip(u, u), 1e-300))
        cap = 0.5 * unorm / dnorm
        a_try = min(alpha, cap) if alpha is not None else min(1e-3, cap)
        accepted = False
        for _ in range(60):
            cand = normalize(u - a_try * d)
            cval = value_of(cand)
            # monotone acceptance keeps the value trace non-increasing
            if cval <= val + 1e-14 * abs(val):
                accepted = True
                break
            a_try *= 0.5
        if not accepted:
            bad_count += 1
            if bad_count >= 5:
                raise DivergenceError(
                    f"descent failed to decrease J for {bad_count} consecutive steps near value {val:.6g}"
                )
            alpha = None
            continue
        bad_count = 0
        g_new = grad_of(cand)
        raw_new, d_new = directions(cand, g_new)
        s = cand - u
        yv = d_new - d
        sy = ip(s, yv)
        alpha = float(np.clip(ip(s, s) / sy, 1e-14, 1e6)) if sy > 0 else a_try * 2.0
        u, g, val, raw, d = cand, g_new, cval, raw_new, d_new
        trace.append((val, _centroid(ComplexField(grid, u))))
    return MinimizeResult(
        u=ComplexField(grid, u), value=val, trace=trace, iterations=it, converged=converged
    )


# ---------------------------------------------------------------------------
# Conditions on the field
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    sigma: float
    b_sup: float
    threshold_B: float
    threshold_sigma: float
    holds_B: bool
    holds_A: Optional[bool]
    trajectory_evidence: Optional[dict]
    holds_Bprime: Optional[bool]
    holds_V: Optional[bool]
    lambda0_estimate: float
    lambda0_converged: bool  # False: the estimate stopped at the iteration cap
    moment2: float
    boundary_mass: dict  # of the lambda0 iterate, {"value", "tol"}


def _second_moment(gs: GroundState) -> float:
    """int |x|^2 w^2 dx by radial quadrature."""
    area = _sphere_area(gs.N)
    return float(area * simpson(gs.w**2 * gs.r ** (gs.N + 1), x=gs.r))


def _sigma(bsup: float, gs: GroundState, p: float):
    """sigma = ||B||_inf^2 int |x|^2 w^2 / ||w||_p^p, with the second moment it used."""
    mom2 = _second_moment(gs)
    return bsup**2 * mom2 / gs.normp**p, mom2


def condition_report(
    A: PotentialField,
    gs: GroundState,
    params: FunctionalParams,
    grid: Grid,
) -> ConditionReport:
    """Evaluate the smallness and vanishing-at-infinity conditions on B, and lambda0.

    sigma = ||B||_inf^2 int |x|^2 w^2 / ||w||_p^p; the field condition holds
    iff (1 + sigma)^{p/(p-2)} < 2, equivalently sigma < 2^{(p-2)/p} - 1, and
    both formulations are evaluated and must agree; rounding can split them at
    the threshold, which raises ``RuntimeError``.  ||B||_inf is sampled at 129
    points per axis of ``grid``'s box.  Vanishing at infinity is evidenced by
    the corrected potential along diverging probe trajectories, at distances
    R0 + 4k (k = 1..4) along each axis with R0 = 6 decay lengths: each
    moving-frame sample A_y(. + y) is taken on ``grid``.  An axis vanishes
    when its samples converge and the last one stays below
    ``gauge.VANISHING_TOL`` in sup norm.  lambda0, the bottom of the
    magnetic quadratic form, is estimated on ``grid`` by
    ``minimize_constrained(mode='lambda0')`` within 1500 iterations, with the
    boundary mass of its iterate.
    """
    if gs.p != params.p or gs.lam != params.lam:
        raise ValueError("ground state computed for different (p, lam) than params")
    p = params.p
    M = gs.normp**p
    B = curl(A, tuple((-L, L) for L in grid.extents), 129)
    bsup = b_sup_norm(B)
    sigma, mom2 = _sigma(bsup, gs, p)
    sigma_max = 2.0 ** ((p - 2.0) / p) - 1.0
    threshold_B = float(np.sqrt(sigma_max * M / mom2))
    holds_sigma = sigma < sigma_max
    holds_bthresh = bsup < threshold_B
    if holds_sigma != holds_bthresh:
        raise RuntimeError(
            f"the two formulations of the smallness condition disagree: sigma {sigma!r} vs {sigma_max!r}, "
            f"||B||_inf {bsup!r} vs {threshold_B!r}"
        )

    R0 = 6.0 * gs.decay_length
    evidence = {}
    holds_A = True
    for axis in range(A.dim):
        direction = np.zeros(A.dim)
        direction[axis] = 1.0
        traj = [direction * (R0 + 4.0 * k) for k in range(1, 5)]
        _, rep = potential_at_infinity(A, traj, grid)
        vanishes = rep["converged"] and rep["sup_last"] < VANISHING_TOL
        evidence[f"axis_{axis}"] = {
            "distances": rep["distances"],
            "sup_last": rep["sup_last"],
            "vanishes": vanishes,
        }
        holds_A = holds_A and vanishes

    holds_Bprime = None
    holds_V = None
    if params.V is not None:
        Vgrid = params.V.grid
        gsfield = gs.on_grid(Vgrid)
        W = Vgrid.weights()
        vw2 = float(np.sum(W * (params.V.values - params.lam) * np.abs(gsfield.values) ** 2))
        lhs = bsup**2 * mom2 + vw2
        rhs = sigma_max * (2.0 * p / (p - 2.0)) * gs.c_inf
        holds_Bprime = bool(lhs <= rhs)
        # V must dominate its own boundary limit lam
        holds_V = bool(np.min(params.V.values) >= params.lam - 1e-12)

    res = minimize_constrained(A, params, grid, mode="lambda0", max_iters=1500)

    return ConditionReport(
        sigma=float(sigma),
        b_sup=float(bsup),
        threshold_B=threshold_B,
        threshold_sigma=float(sigma_max),
        holds_B=bool(holds_sigma),
        holds_A=bool(holds_A),
        trajectory_evidence=evidence,
        holds_Bprime=holds_Bprime,
        holds_V=holds_V,
        lambda0_estimate=res.value,
        lambda0_converged=res.converged,
        moment2=float(mom2),
        boundary_mass={"value": res.u.boundary_mass_fraction(), "tol": BOUNDARY_MASS_TOL},
    )


# ---------------------------------------------------------------------------
# Minimax landscape along the pinned surface
# ---------------------------------------------------------------------------

@dataclass
class LandscapeResult:
    y_points: np.ndarray  # (M, dim)
    t_max: np.ndarray  # (M,)
    values: np.ndarray  # (M,)
    max_value: float
    max_index: int
    seed_index: int
    sigma: float
    bracket: dict
    eta_matches: list
    R: float
    T: float
    boundary_mass: dict  # largest over the shifted profiles g_y w, {"value", "tol"}

    @property
    def max_point(self) -> np.ndarray:
        return self.y_points[self.max_index]

    @property
    def seed_point(self) -> np.ndarray:
        """Near-max point closest to the origin; window clipping inflates the
        surface near |y| = R, so on flat surfaces the raw argmax is a boundary
        artifact and a poor search seed."""
        return self.y_points[self.seed_index]


def lattice_steps(grid: Grid, y_step: Optional[float]) -> list:
    """Per-axis steps of the landscape lattice: ``y_step`` (default the largest h)
    snapped to the grid; it must be a positive multiple of every h (else ``ValueError``)."""
    if y_step is None:
        y_step = max(grid.h)
    ms = grid.is_lattice_vector(np.full(grid.dim, y_step))
    if ms is None or min(ms) < 1:
        raise ValueError(f"y_step {y_step} is not a multiple of the grid spacing {grid.h}")
    return [m * h for m, h in zip(ms, grid.h)]


def check_ray_box(R: float, T: float) -> None:
    """Raise ``ValueError`` unless R is finite and >= 0, and T is finite and > 0."""
    if not (np.isfinite(R) and R >= 0):
        raise ValueError(f"R must be finite and >= 0, got {R}")
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and > 0, got {T}")


def _surface_scan(A: PotentialField, w: ComplexField, params: FunctionalParams, y_points: np.ndarray, T: float):
    """Ray peak t and value, eta and boundary fraction of g_y w at each y, on raw arrays.

    Per point this is ``functional_J``, ``lp_norm``, ``eta_map`` and
    ``boundary_mass_fraction`` of ``shift_apply(make_shift(A, y, grid,
    max_loss=0.5), w)``, summed in their order: the shifted array comes from
    ``gauge._moved``, the energy from the prepared edge coefficients, and
    every modulus quantity from one |g_y w|.  W|w|^2 for the mass check,
    the eta kernels and W V are built once.  Returns (t_max, values, etas,
    largest boundary fraction).
    """
    grid = w.grid
    p = params.p
    prep = prepare_potential(A, grid)
    W = grid.weights()
    WV = W * _v_samples(params, grid)
    kernels = _eta_kernels(grid)
    mass = W * np.abs(w.values) ** 2
    t_max = np.empty(len(y_points))
    values = np.empty(len(y_points))
    etas = np.empty((len(y_points), grid.dim + 1))
    bmass = 0.0
    for i, y in enumerate(y_points):
        gu = _moved(make_shift(A, y, grid, max_loss=0.5), w.values, mass)
        mod = np.abs(gu)
        mod2 = mod**2
        densp = W * mod**p
        J = _edge_energy(_edge_values(gu, prep), grid) + float(np.sum(WV * mod2))
        M = float(np.sum(densp) ** (1.0 / p)) ** p
        tbar, peak = _ray_peak(J, M, p)
        if tbar > T:
            raise RayRisingError(
                f"ray through y={y.tolist()} still rising at t = T = {T} "
                f"(peak at t = {tbar:.3f}); increase T"
            )
        t_max[i] = tbar
        values[i] = peak
        etas[i] = _eta_sums(densp, kernels)
        bmass = max(bmass, _boundary_fraction(W * mod2))
    return t_max, values, etas, bmass


def landscape_eval(
    A: PotentialField,
    gs: GroundState,
    params: FunctionalParams,
    grid: Grid,
    R: float,
    T: float = 3.0,
    y_step: Optional[float] = None,
) -> LandscapeResult:
    """Evaluate the pass functional over shifted-and-scaled ground states.

    For each lattice point y in the ball of radius R the ray t -> t g_y w is
    maximized analytically: with J = J(g_y w) and M = ||g_y w||_p^p the peak
    sits at t = (J/M)^{1/(p-2)} with value (1/2 - 1/p)(J/M^{2/p})^{p/(p-2)}.
    An error is raised when the peak falls beyond T (the ray is still rising
    at t = T, so T must be enlarged).  Under the smallness condition the
    surface maximum must sit strictly between c_inf and 2 c_inf, below
    c_inf (1 + sigma)^{p/(p-2)}.

    Each point also records eta(g_y w) and the boundary fraction of
    |g_y w|^2; the result keeps the largest fraction.  The scan works on raw
    arrays (``_surface_scan``) with the shift ``make_shift(A, y, grid,
    max_loss=0.5)``, whose phase is integrated to ``gauge.QUAD_TOL``, and
    raises its ``MassLossError`` when a shift drops more than half of the
    mass of w.  The seed point is the lattice point closest to the origin
    among those within 1e-2 (relative) of the maximum.  Eta matches scan 61
    values of t in [0, T] and accept a relative deviation up to 1e-3.  A
    negative or non-finite R and a non-positive or non-finite T raise
    ``ValueError`` (``check_ray_box``), as does a ``y_step`` that is no
    positive multiple of h (``lattice_steps``).
    """
    check_ray_box(R, T)
    steps = lattice_steps(grid, y_step)
    p = params.p
    # the lattice vectors in the closed ball of radius R, in lexicographic order
    ranges = [np.arange(-int(np.floor(R / s)), int(np.floor(R / s)) + 1) * s for s in steps]
    mesh = _mesh_points(ranges).reshape(-1, grid.dim)
    y_points = mesh[np.sqrt(np.sum(mesh**2, axis=1)) <= R + 1e-12]
    # the per-point arrays are gone on return, before the 129^dim curl
    # below, which sets peak memory in 3-D
    t_max, values, etas, bmass = _surface_scan(A, gs.on_grid(grid), params, y_points, T)

    imax = int(np.argmax(values))
    cmax = float(values[imax])
    near = np.flatnonzero(values >= cmax * (1.0 - 1e-2))
    dist = np.sqrt(np.sum(y_points[near] ** 2, axis=1))
    iseed = int(near[np.argmin(dist)])

    sigma_window = tuple((-(R + 8.0 * gs.decay_length), R + 8.0 * gs.decay_length) for _ in range(A.dim))
    bsup = b_sup_norm(curl(A, sigma_window, 129))
    sigma, _ = _sigma(bsup, gs, p)
    upper = gs.c_inf * (1.0 + sigma) ** (p / (p - 2.0))
    slack = 1e-6
    bracket = {
        "c_inf": gs.c_inf,
        "max": cmax,
        "sigma": float(sigma),
        "upper": float(upper),
        "two_c_inf": 2.0 * gs.c_inf,
        "lower_ok": bool(cmax > gs.c_inf * (1.0 + slack)),
        "upper_ok": bool(cmax <= upper * (1.0 + slack)),
        "below_2c": bool(upper < 2.0 * gs.c_inf),
        "slack": slack,
    }

    # eta along the surface: matches against (0_N, ||w||_p^p) expected only at y = 0
    eta0 = np.concatenate((np.zeros(grid.dim), [gs.normp**p]))
    scale = np.concatenate((np.full(grid.dim, gs.normp**p), [gs.normp**p]))
    matches = []
    t_grid = np.linspace(0.0, T, 61)
    for i, y in enumerate(y_points):
        tp = t_grid[1:, None] ** p  # skip t = 0
        eta_t = tp * etas[i][None, :]
        dev = np.max(np.abs(eta_t - eta0[None, :]) / scale[None, :], axis=1)
        j = int(np.argmin(dev))
        if dev[j] <= 1e-3:
            matches.append({"y": y.tolist(), "t": float(t_grid[1 + j]), "deviation": float(dev[j])})

    return LandscapeResult(
        y_points=y_points,
        t_max=t_max,
        values=values,
        max_value=cmax,
        max_index=imax,
        seed_index=iseed,
        sigma=float(sigma),
        bracket=bracket,
        eta_matches=matches,
        R=float(R),
        T=float(T),
        boundary_mass={"value": bmass, "tol": BOUNDARY_MASS_TOL},
    )


def landscape_seed(land: LandscapeResult, gs: GroundState, A: PotentialField, grid: Grid) -> ComplexField:
    """Scaled shifted profile t g_y w at the landscape's seed point; the shift's phase is integrated to ``gauge.QUAD_TOL``."""
    g = make_shift(A, land.seed_point, grid, max_loss=0.5)
    w = shift_apply(g, gs.on_grid(grid))
    return ComplexField(grid, land.t_max[land.seed_index] * w.values)


def two_bump_diagnostic(
    A: PotentialField,
    gs: GroundState,
    params: FunctionalParams,
    grid: Grid,
    R: float,
    n_mix: int = 5,
) -> dict:
    """Peak levels along the two-bump surface (diagnostic output only).

    Along each axis, mixes the profiles shifted by -R and +R (phases
    integrated to ``gauge.QUAD_TOL``) with cosine/sine weights and records
    the ray peak (1/2 - 1/p)(J/M^{2/p})^{p/(p-2)} of each mix; for a large
    separation 2R the peak approaches twice the single-bump level.
    """
    p = params.p
    w = gs.on_grid(grid)
    prep = prepare_potential(A, grid)
    rows = []
    for axis in range(grid.dim):
        d = np.zeros(grid.dim)
        d[axis] = R
        g_minus = make_shift(A, -d, grid, max_loss=0.5)
        g_plus = make_shift(A, d, grid, max_loss=0.5)
        left = shift_apply(g_minus, w).values
        right = shift_apply(g_plus, w).values
        for s in np.linspace(0.0, 1.0, n_mix):
            mix = np.cos(0.5 * np.pi * s) * left + np.sin(0.5 * np.pi * s) * right
            u = ComplexField(grid, mix)
            J = functional_J(u, prep, params)
            M = lp_norm(u, p) ** p
            _, peak = _ray_peak(J, M, p)
            rows.append({"axis": axis, "mix": float(s), "peak": float(peak)})
    return {"R": R, "rows": rows, "max_peak": max(r["peak"] for r in rows), "c_inf": gs.c_inf}


# ---------------------------------------------------------------------------
# Critical point search
# ---------------------------------------------------------------------------

# a search result whose largest |u| falls below this is the trivial solution
TRIVIAL_AMPLITUDE = 1e-10


@dataclass
class SearchResult:
    u: ComplexField
    level: float
    residual_norm: float
    trace: list  # (level, residual_norm) per iteration
    iterations: int
    converged: bool
    stalled: bool
    trivial: bool
    bracket: Optional[dict] = None
    minres_info: list = field(default_factory=list)  # MINRES exit flag per Newton step


def _mass_shift(V: np.ndarray) -> float:
    """``max(mean(V), 1e-6)``: the mass term on average, kept positive so the inverses exist."""
    return max(float(np.mean(V)), 1e-6)


def _dst_denominator(points, h, V: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Dirichlet 3-point Laplacian on ``points`` nodes per axis, plus the shift.

    DST-I of length n_m diagonalizes axis m with eigenvalues
    ``(2 - 2 cos(pi k / (n_m + 1))) / h_m^2``, k = 1..n_m; the shift is
    ``_mass_shift(V)``.
    """
    dim = len(points)
    eig = np.zeros(tuple(points))
    for m, (n_m, h_m) in enumerate(zip(points, h)):
        k = np.arange(1, n_m + 1)
        lam_ax = (2.0 - 2.0 * np.cos(np.pi * k / (n_m + 1))) / h_m**2
        eig = eig + lam_ax.reshape((1,) * m + (-1,) + (1,) * (dim - 1 - m))
    return eig + _mass_shift(V)


def _poisson_solver(grid: Grid, V: np.ndarray):
    """Fast approximate inverse of (free Laplacian + shift) via sine transforms.

    One DST-I over the whole window of the complex node values that
    ``minimize_constrained`` works in.  The interior of the composed
    staggered Laplacian is the product 3-point stencil, which DST-I
    diagonalizes per axis; the window treats the outermost node layer as
    interior too, so there the inverse is only approximate.  The minimizer
    keeps this form: routing it through ``_block_preconditioner`` raises the
    README ``conditions`` lambda0 case from 15 iterations to 37.
    """
    denom = _dst_denominator(grid.n, grid.h, V)

    def solve(z):
        spectrum = dstn(z, type=1)
        spectrum /= denom
        return idstn(spectrum, type=1, overwrite_x=True)

    return solve


def _block_preconditioner(grid: Grid, V: np.ndarray):
    """Block inverse of the free operator in MINRES's variables, for ``critical_point_search``.

    MINRES works on sqrt(W) z, where the free operator is K = W^{1/2} (free
    Laplacian + shift) W^{-1/2}.  On the (n-2)^dim interior nodes K is
    exactly the Dirichlet Laplacian plus the shift, inverted by a DST-I of
    n-2 points per axis (a 2(n-1)-point FFT, a power of two on the default
    2^k+1 grids) of the complex interior.  On the outermost node layer,
    where the sqrt(W) scaling makes K differ from that Laplacian, it divides
    by the diagonal of K.  The coupling between the two blocks is dropped,
    so the result is symmetric positive definite.  Both blocks add
    ``_mass_shift(V)``.  It maps complex node arrays to fresh ones.
    """
    denom = _dst_denominator(tuple(n - 2 for n in grid.n), grid.h, V)
    edge = _free(grid).stencil[0] / grid.weights() + _mass_shift(V)
    inner = (slice(1, -1),) * grid.dim

    def solve(z):
        out = z / edge
        spectrum = dstn(z[inner], type=1)
        spectrum /= denom
        out[inner] = idstn(spectrum, type=1, overwrite_x=True)
        return out

    return solve


def _linearized_operator(u_vals, prep, Vvals, p, W):
    """Real-linear derivative of the Euler-Lagrange residual at u, on raw node values.

    L v = S^*S v + (V - |u|^{p-2}) v - (p-2) |u|^{p-4} u Re(conj(u) v), with
    S^*S from the prepared stencil; self-adjoint in the W inner product.  The
    local arrays are built once per u; conj(u) is not kept, but formed inside
    each apply.
    """
    s = np.abs(u_vals)
    local = Vvals - s ** (p - 2.0)
    mask = s > 0
    sp4u = np.zeros_like(u_vals)
    # (p-2) |u|^{p-4} u, written via |u|^{p-3} * (u/|u|) to stay finite near zero
    sp4u[mask] = (p - 2.0) * s[mask] ** (p - 3.0) * (u_vals[mask] / s[mask])
    stencil = prep.stencil

    def apply(v_vals):
        out = _stencil_apply(v_vals, stencil)
        out /= W
        out += local * v_vals
        out -= sp4u * np.real(np.conj(u_vals) * v_vals)
        return out

    return apply


class _Operator(NamedTuple):
    """A linear map as ``minres`` reads it: ``matvec`` alone, with the ``shape`` and ``dtype`` other readers expect."""

    shape: tuple
    dtype: np.dtype
    matvec: Callable[[np.ndarray], np.ndarray]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two real vectors, in one thread: OpenBLAS ``ddot``
    wakes a worker thread above 10k entries, which then spins between calls."""
    return float(np.einsum("i,i", a, b))


def minres(A, b: np.ndarray, *, rtol: float, maxiter: int, M):
    """Preconditioned MINRES for a real symmetric A: ``(x, info)``, x0 = 0.

    The Paige-Saunders recurrences (C. C. Paige, M. A. Saunders, SIAM J.
    Numer. Anal. 12 (1975) 617-629) with the rotations, stopping tests and
    exit flag of ``scipy.sparse.linalg.minres``: info is ``maxiter`` when
    the iteration cap stops it and 0 otherwise.  It reads A and the
    symmetric positive definite M (the approximate inverse) only through
    ``.matvec``; the search hands it complex fields as their float views.
    Unlike scipy's, every inner product and norm of a full
    vector is ``_dot``, so no reduction goes to threaded BLAS, and the
    vector updates run in scipy's operation order on preallocated buffers.
    The float vector b is one of those buffers: it is overwritten, not copied.
    """
    matvec = A.matvec
    psolve = M.matvec
    n = b.shape[0]
    eps = np.finfo(float).eps

    x = np.zeros(n)
    r1 = b
    y = psolve(r1)
    beta1 = _dot(r1, y)
    if beta1 < 0:
        raise ValueError("indefinite preconditioner")
    if beta1 == 0:
        return x, 0
    beta1 = sqrt(beta1)

    istop = 0
    itn = 0
    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    tnorm2 = 0.0
    gmax = 0.0
    gmin = np.finfo(float).max
    cs = -1.0
    sn = 0.0
    r2 = r1
    v = np.empty(n)
    tmp = np.empty(n)
    w = np.zeros(n)
    w2 = np.zeros(n)

    while itn < maxiter:
        itn += 1
        np.multiply(y, 1.0 / beta, out=v)
        # A's output is never written to, and no name keeps it past this block
        y = matvec(v)
        if itn >= 2:
            np.multiply(r1, beta / oldb, out=tmp)
            y = np.subtract(y, tmp, out=r1)  # r1 is not read again
        alfa = _dot(v, y)
        np.multiply(r2, alfa / beta, out=tmp)
        y = np.subtract(y, tmp, out=y if itn >= 2 else None)
        r1 = r2
        r2 = y
        y = psolve(r2)
        oldb = beta
        beta = _dot(r2, y)
        if beta < 0:
            raise ValueError("non-symmetric matrix")
        beta = sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        if itn == 1 and beta / beta1 <= 10 * eps:
            istop = -1  # beta2 = 0: b and x are eigenvectors of M A

        # apply the previous rotation, then compute the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = sqrt(gbar * gbar + dbar * dbar)
        gamma = max(sqrt(gbar * gbar + beta * beta), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        # w = ((v - oldeps w1) - delta w2) * (1 / gamma), into the old w1 buffer
        w1, w2 = w2, w
        w1 *= oldeps
        np.subtract(v, w1, out=w1)
        np.multiply(w2, delta, out=tmp)
        w1 -= tmp
        w1 *= 1.0 / gamma
        w = w1
        np.multiply(w, phi, out=tmp)
        x += tmp

        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        Anorm = sqrt(tnorm2)
        ynorm = sqrt(_dot(x, x))
        epsx = Anorm * ynorm * eps
        test1 = np.inf if ynorm == 0 or Anorm == 0 else phibar / (Anorm * ynorm)
        test2 = np.inf if Anorm == 0 else root / Anorm
        Acond = gmax / gmin

        if istop == 0:
            if 1 + test2 <= 1:
                istop = 2
            if 1 + test1 <= 1:
                istop = 1
            if itn >= maxiter:
                istop = 6
            if Acond >= 0.1 / eps:
                istop = 4
            if epsx >= beta1:
                istop = 3
            if test2 <= rtol:
                istop = 2
            if test1 <= rtol:
                istop = 1
        if istop != 0:
            break

    return x, (maxiter if istop == 6 else 0)


def _check_search_limits(tol: float, max_iters: int) -> None:
    """Raise ``ValueError`` unless tol is finite and > 0, and max_iters >= 0."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not max_iters >= 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")


_MINRES_ITERS = 200  # MINRES's iteration cap per Newton step


def critical_point_search(
    A,
    params: FunctionalParams,
    seed: ComplexField,
    tol: float = 1e-8,
    max_iters: int = 60,
    gs: Optional[GroundState] = None,
) -> SearchResult:
    """Damped Gauss-Newton descent on the squared Euler-Lagrange residual.

    Each step solves the symmetric (indefinite) linearized system with MINRES
    and backtracks on ||residual||^2; falls back to the steepest-descent
    direction whenever the MINRES step is not a descent direction.  Stops at
    the residual tolerance, or reports ``stalled`` with the trace when 40
    halvings of the step give no sufficient (Armijo) decrease; a seed within
    tol takes 0 steps.  With ``gs`` every result carries the level bracket.
    A is any potential that ``prepare_potential`` takes.

    MINRES solves each Newton system to the relative forcing
    ``min(1e-3, max(sqrt(||r||), 1e-6))``, within ``_MINRES_ITERS`` (200)
    iterations.  A looser cap of 0.1 cut the
    residual only about 2.5x per step on the README ``solve`` case (12
    Newton steps, 77 matvecs, against 4 and 56 at 1e-3).  MINRES works on
    the float view of the complex array sqrt(W) z (C^n as R^2n: Re and Im
    interleaved), so each matvec applies the linearized operator
    (``_linearized_operator``) to the node values that vector views, with
    no copy between layouts; the Newton gradient uses the same apply.
    MINRES is preconditioned by ``_block_preconditioner``: an exact
    DST-I inverse on the interior nodes and the operator diagonal on the
    outermost layer, in those sqrt(W)-scaled variables.  The full-window
    ``_poisson_solver`` of ``minimize_constrained`` ignores that scaling and
    takes more MINRES steps here.  ``minres_info`` keeps MINRES's exit flag
    per Newton step (0 when it met its forcing tolerance).

    MINRES is this module's ``minres``, whose inner products and norms run
    in one thread.  scipy's ``minres`` took them through OpenBLAS ``ddot``,
    which on the 550k-entry vectors of the 65^3 benchmark solve woke
    a second thread that spun between calls: the benchmark's median
    ``cpu_s`` for that command fell from 9.0 to 5.7 s, with ``wall_s`` at
    4.7 s on both sides (2-vCPU VM).  The search, and so the ``solve``
    artifacts, no longer depend on the BLAS thread count.

    While MINRES runs, the search keeps only what that solve and its Newton
    step read: u and its residual, the prepared potential, V, W and sqrt(W),
    the preconditioner's tables and the linearized operator's local terms.
    Of these, an axis whose potential component the field declares zero
    holds no coefficient array (a broadcast 1/h, and a real coupling), and a
    constant V is a broadcast view of lam.  MINRES overwrites its right-hand
    side instead of copying it, and the operator forms conj(u) inside each
    apply instead of keeping it.  The gradient is formed after MINRES
    returns; a step's MINRES solution, direction and line-search candidates
    live in ``newton_step`` and die with it; the seed is copied once and not
    kept.  Kept alive instead, the previous step's solution and direction
    and a gradient formed before MINRES would be three complex arrays (13 MB
    at 65^3) in every solve.
    """
    _check_search_limits(tol, max_iters)
    grid = seed.grid
    Avals = prepare_potential(A, grid)
    Vvals = _v_samples(params, grid)
    W = grid.weights()
    sqw = np.sqrt(W)
    n = 2 * W.size

    def vector(z):  # C^n as R^2n: MINRES's vector is the float view of z, Re and Im interleaved
        return z.reshape(-1).view(float)

    def nodes(x):
        return x.view(complex).reshape(grid.shape)

    def operator(apply):  # apply on node values as MINRES reads it: views, no copies
        return _Operator((n, n), np.dtype(float), lambda x: vector(apply(nodes(x))))

    def residual(u_vals):
        r, nrm = el_residual(ComplexField(grid, u_vals), Avals, params)
        return r.values, nrm

    def level_of(u_vals):
        return functional_I(ComplexField(grid, u_vals), Avals, params)

    Mop = operator(_block_preconditioner(grid, Vvals))

    def newton_step(u, r_vals, r_norm):
        """MINRES's exit flag and the accepted ``(u, r_vals, r_norm)``, or None when the step stalls."""
        apply = _linearized_operator(u, Avals, Vvals, params.p, W)

        def scaled(z):  # the operator in the variables sqrt(W) z, where it is symmetric
            out = apply(z / sqw)
            out *= sqw
            return out

        # Newton direction J d = r via preconditioned MINRES; for symmetric J
        # the slope of 1/2 ||r||^2 along -d is -<Jr, J^{-1}r> = -||r||^2, so
        # the (inexactly solved) Newton step is a genuine descent direction
        forcing = min(1e-3, max(np.sqrt(r_norm), 1e-6))
        x, info = minres(operator(scaled), vector(r_vals * sqw), rtol=forcing, maxiter=_MINRES_ITERS, M=Mop)
        d = nodes(x) / sqw
        grad = apply(r_vals)  # gradient of 1/2 ||r||_W^2 in the W-metric
        slope = float(np.sum(W * np.real(np.conj(grad) * d)))
        gnorm2 = float(np.sum(W * np.abs(grad) ** 2))
        if not np.isfinite(slope) or slope <= 1e-10 * np.sqrt(gnorm2) * np.sqrt(
            float(np.sum(W * np.abs(d) ** 2))
        ):
            d = grad
            slope = gnorm2
            if slope <= 0:
                return info, None
        phi0 = 0.5 * r_norm**2
        alpha = 1.0
        for _ in range(40):
            cand = u - alpha * d
            c_vals, c_norm = residual(cand)
            if 0.5 * c_norm**2 <= phi0 - 1e-4 * alpha * slope:
                return info, (cand, c_vals, c_norm)
            alpha *= 0.5
        return info, None

    u = np.array(seed.values, dtype=complex)
    del seed  # the search keeps its one copy only
    r_vals, r_norm = residual(u)
    trace = [(level_of(u), r_norm)]
    minres_info = []
    converged = r_norm < tol
    stalled = False
    it = 0
    while not converged and it < max_iters:
        it += 1
        info, step = newton_step(u, r_vals, r_norm)
        minres_info.append(int(info))
        if step is None:
            stalled = True
            break
        u, r_vals, r_norm = step
        trace.append((level_of(u), r_norm))
        converged = r_norm < tol

    level = trace[-1][0]
    trivial = bool(np.max(np.abs(u)) < TRIVIAL_AMPLITUDE)
    bracket = None
    if gs is not None:
        bracket = {
            "c_inf": gs.c_inf,
            "level": level,
            "inside": bool(gs.c_inf < level < 2.0 * gs.c_inf),
        }
    return SearchResult(
        u=ComplexField(grid, u), level=level, residual_norm=r_norm, trace=trace,
        iterations=it, converged=converged, stalled=stalled,
        trivial=trivial, bracket=bracket, minres_info=minres_info,
    )
