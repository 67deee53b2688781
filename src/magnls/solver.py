"""Ground states, constrained minimization, and the minimax landscape.

The field-free limit profile is computed by shooting on the radial equation;
everything downstream (the smallness condition on B, the two-sided level
bracket, critical-point search) is phrased against that oracle.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import simpson, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.sparse.linalg import LinearOperator, minres

from .calculus import (
    BOUNDARY_MASS_TOL,
    ComplexField,
    FunctionalParams,
    Grid,
    bump,
    el_residual,
    energy_EA,
    eta_map,
    functional_I,
    functional_J,
    lp_norm,
    magnetic_laplacian,
    prepare_potential,
    _v_samples,
)
from .field import PotentialField, b_sup_norm, curl
from .gauge import MassLossError, QuadratureError, make_shift, potential_at_infinity, shift_apply, shift_invert

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
    "landscape_eval",
    "landscape_seed",
    "two_bump_diagnostic",
    "critical_point_search",
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
        spline = CubicSpline(self.r, self.w, bc_type=((1, 0.0), (1, float(self.dw[-1]))))
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


def _shot(a: float, N: int, p: float, lam: float, r_max: float, tol: float, floor: float, t_eval=None):
    """Integrate the radial ODE -u'' - (N-1)/r u' + lam u = |u|^{p-2} u from u(0) = a.

    The shot starts at r = _R0 from the series u = a + c r^2 and stops at
    the first of two events: u falls through ``floor`` (event 0) or u' turns
    positive (event 1, the profile turns back up).  It is integrated with the
    8th-order DOP853 pair: at rtol 1e-10 the bisection takes the same number
    of shots as with the default RK45 (42/44/48 for N = 1/2/3 at p = 4), but
    each shot needs far fewer steps.
    """
    c = (lam * a - a ** (p - 1)) / (2.0 * N)

    def rhs(r, yv):
        u, du = yv
        return [du, lam * u - np.abs(u) ** (p - 2) * u - (N - 1) / r * du]

    def fell(r, yv):
        return yv[0] - floor

    fell.terminal = True
    fell.direction = -1.0

    def turned(r, yv):
        return yv[1]

    turned.terminal = True
    turned.direction = 1.0

    return solve_ivp(
        rhs,
        (_R0, r_max),
        [a + c * _R0**2, 2.0 * c * _R0],
        method="DOP853",
        t_eval=t_eval,
        events=(fell, turned),
        rtol=tol,
        atol=tol * 1e-3,
        max_step=0.1 * r_max,
    )


def _classify_shot(a: float, N: int, p: float, lam: float, r_max: float, rtol: float):
    """Integrate the radial ODE from u(0) = a; return ('high'|'low', solution).

    'high' means the profile crossed zero (initial height too large), 'low'
    means it turned back up before reaching zero.
    """
    sol = _shot(a, N, p, lam, r_max, rtol, 0.0)
    if sol.t_events[0].size:
        return "high", sol
    if sol.t_events[1].size:
        return "low", sol
    # no event by r_max: classify by the linearized decay u' + sqrt(lam) u
    u, du = sol.y[0][-1], sol.y[1][-1]
    return ("low" if du + np.sqrt(lam) * u > 0 else "high"), sol


def radial_ground_state(N: int, p: float, lam: float, r_max: float = 35.0, tol: float = 1e-10) -> GroundState:
    """Shooting with bisection on u(0) for the positive radial decaying profile.

    The initial height is bracketed between 'turned back up' and 'crossed
    zero' behaviors; the final profile is integrated densely and extended by
    the matched exponential tail beyond the last trustworthy radius.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if p <= 2 or (N > 2 and p >= 2.0 * N / (N - 2)):
        raise ValueError(f"p = {p} outside the admissible range for N = {N}")
    if lam <= 0:
        raise ValueError("lam must be positive")

    u_zero = (0.5 * p * lam) ** (1.0 / (p - 2.0))  # height where the well energy balances
    lo = 0.5 * (u_zero + lam ** (1.0 / (p - 2.0)))
    kind, _ = _classify_shot(lo, N, p, lam, r_max, tol)
    if kind != "low":
        lo = u_zero * (1.0 - 1e-9)
    hi = u_zero * 1.2
    for _ in range(80):
        kind, _ = _classify_shot(hi, N, p, lam, r_max, tol)
        if kind == "high":
            break
        hi *= 1.5
    else:
        raise RuntimeError("no overshoot bracket found; increase r_max or check parameters")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < max(tol * 1e-2, 1e-14) * u_zero:
            break
        kind, _ = _classify_shot(mid, N, p, lam, r_max, tol)
        if kind == "high":
            hi = mid
        else:
            lo = mid
    a_star = 0.5 * (lo + hi)

    # stop where the shot inevitably departs from the separatrix (crossing
    # below zero or turning back up); the matched tail takes over from there
    mesh = np.linspace(_R0, r_max, 4001)
    sol = _shot(a_star, N, p, lam, r_max, tol, 1e-12 * a_star, t_eval=mesh)
    r = np.concatenate(([0.0], sol.t))
    w = np.concatenate(([a_star], sol.y[0]))
    dw = np.concatenate(([0.0], sol.y[1]))
    if r[-1] < r_max - 1e-9:
        # extend by the matched tail w ~ C r^{-(N-1)/2} e^{-sqrt(lam) r}
        r1, w1 = r[-1], max(w[-1], 1e-300)
        sq = np.sqrt(lam)
        tail_r = np.arange(r1, r_max, mesh[1] - mesh[0])[1:]
        if tail_r.size:
            Ctail = w1 / (r1 ** (-(N - 1) / 2.0) * np.exp(-sq * r1))
            tail_w = Ctail * tail_r ** (-(N - 1) / 2.0) * np.exp(-sq * tail_r)
            tail_dw = tail_w * (-(N - 1) / (2.0 * tail_r) - sq)
            r = np.concatenate((r, tail_r))
            w = np.concatenate((w, tail_w))
            dw = np.concatenate((dw, tail_dw))
    w = np.maximum(w, 0.0)

    area = _sphere_area(N)
    rpow = r ** (N - 1)
    norm2 = float(np.sqrt(area * simpson(w**2 * rpow, x=r)))
    normp = float((area * simpson(w**p * rpow, x=r)) ** (1.0 / p))
    energy = float(area * simpson(dw**2 * rpow, x=r))
    c_inf = (p - 2.0) / (2.0 * p) * normp**p
    return GroundState(
        N=N, p=p, lam=lam, u0=a_star, r=r, w=w, dw=dw,
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


def minimize_constrained(
    A,
    params: FunctionalParams,
    grid: Grid,
    seed: Optional[ComplexField] = None,
    max_iters: int = 4000,
    stall_tol: float = 1e-6,
    mode: str = "functional",
) -> MinimizeResult:
    """Sobolev-preconditioned projected descent for J over the unit L^p sphere.

    The J-gradient g (the quadratic part of the Euler-Lagrange residual) is
    preconditioned by P, the DST inverse of the free Laplacian plus the shift
    ``max(mean(V), 1e-6)`` (``_poisson_solver``, as in
    ``critical_point_search``), applied to real and imaginary parts alike.
    The direction is P g with the P-image of the constraint normal
    n = |u|^{p-2} u projected out, ``d = P g - (<P g, n> / <P n, n>) P n``,
    so ``<d, n> = 0`` and d descends in the P metric (a Sobolev-gradient
    flow).  Each iteration steps against d and renormalizes in L^p; steps use
    a Barzilai-Borwein guess (first trial 1e-3) with monotone backtracking,
    capped at half the iterate's norm.  The stop test is on the raw
    (unpreconditioned) projected gradient: its W-norm must fall below
    ``stall_tol * max(||g||, 1)``.  ``mode='lambda0'`` minimizes the bare
    magnetic energy over the unit L^2 sphere instead, estimating the bottom of
    the quadratic form.
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

    pre = _poisson_solver(grid, Vvals)

    def precondition(z):
        return pre(z.real) + 1j * pre(z.imag)

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
        if rnorm <= stall_tol * max(gnorm, 1.0):
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
    lambda0_estimate: Optional[float]
    moment2: float
    boundary_mass: Optional[dict]  # of the lambda0 iterate, {"value", "tol"}


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
    window=None,
    grid: Optional[Grid] = None,
    lambda0: bool = False,
) -> ConditionReport:
    """Evaluate the smallness and vanishing-at-infinity conditions on B.

    sigma = ||B||_inf^2 int |x|^2 w^2 / ||w||_p^p; the field condition holds
    iff (1 + sigma)^{p/(p-2)} < 2, equivalently sigma < 2^{(p-2)/p} - 1, and
    both formulations are evaluated and must agree; rounding can split them at
    the threshold, which raises ``RuntimeError``.  ||B||_inf is sampled at 129
    points per axis of the window.  Vanishing at infinity is evidenced by the
    corrected potential along diverging probe trajectories, at distances
    R0 + 4k (k = 1..4) along each axis with R0 = 6 decay lengths.
    """
    if gs.p != params.p or gs.lam != params.lam:
        raise ValueError("ground state computed for different (p, lam) than params")
    p = params.p
    M = gs.normp**p
    if window is None:
        window = 8.0
    B = curl(A, window, 129)
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

    probe_grid = grid if grid is not None else Grid(2.0, 9, dim=A.dim)
    R0 = 6.0 * gs.decay_length
    evidence = {}
    holds_A = True
    for axis in range(A.dim):
        direction = np.zeros(A.dim)
        direction[axis] = 1.0
        traj = [direction * (R0 + 4.0 * k) for k in range(1, 5)]
        _, rep = potential_at_infinity(A, traj, probe_grid)
        vanishes = rep["converged"] and rep["sup_last"] < 1e-6
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

    lam0 = None
    bmass = None
    if lambda0:
        g = grid if grid is not None else Grid(8.0, 65, dim=A.dim)
        res = minimize_constrained(A, params, g, mode="lambda0", max_iters=1500)
        lam0 = res.value
        bmass = {"value": res.u.boundary_mass_fraction(), "tol": BOUNDARY_MASS_TOL}

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
        lambda0_estimate=lam0,
        moment2=float(mom2),
        boundary_mass=bmass,
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


def _ball_lattice(grid: Grid, R: float, y_step: float) -> np.ndarray:
    """Grid-lattice vectors inside the closed ball of radius R."""
    steps = []
    for h in grid.h:
        m = int(round(y_step / h))
        if m < 1 or abs(m * h - y_step) > 1e-9:
            raise ValueError(f"y_step {y_step} is not a multiple of the grid spacing {h}")
        steps.append(m * h)
    ranges = [np.arange(-int(np.floor(R / s)), int(np.floor(R / s)) + 1) * s for s in steps]
    mesh = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1).reshape(-1, grid.dim)
    keep = np.sqrt(np.sum(mesh**2, axis=1)) <= R + 1e-12
    pts = mesh[keep]
    order = np.lexsort(tuple(pts[:, i] for i in range(grid.dim - 1, -1, -1)))
    return pts[order]


def check_ray_box(R: Optional[float], T: float) -> None:
    """Raise ``ValueError`` unless R is None or finite and >= 0, and T is finite and > 0."""
    if R is not None and not (np.isfinite(R) and R >= 0):
        raise ValueError(f"R must be finite and >= 0, got {R}")
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and > 0, got {T}")


def landscape_eval(
    A: PotentialField,
    gs: GroundState,
    params: FunctionalParams,
    grid: Grid,
    R: Optional[float] = None,
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

    Shifts use ``make_shift``'s quadrature tolerance 1e-10.  The seed point
    is the lattice point closest to the origin among those within 1e-2
    (relative) of the maximum.  Eta matches scan 61 values of t in [0, T]
    and accept a relative deviation up to 1e-3.  A negative or non-finite R
    and a non-positive or non-finite T raise ``ValueError`` (``check_ray_box``).
    """
    check_ray_box(R, T)
    if R is None:
        R = 6.0 * gs.decay_length
    if y_step is None:
        y_step = max(grid.h)
    p = params.p
    w = gs.on_grid(grid)
    prep = prepare_potential(A, grid)
    y_points = _ball_lattice(grid, R, y_step)
    t_max = np.empty(len(y_points))
    values = np.empty(len(y_points))
    etas = np.empty((len(y_points), grid.dim + 1))
    bmass = 0.0
    for i, y in enumerate(y_points):
        gu = shift_apply(make_shift(A, y, grid, max_loss=0.5), w)
        J = functional_J(gu, prep, params)
        M = lp_norm(gu, p) ** p
        tbar, peak = _ray_peak(J, M, p)
        if tbar > T:
            raise RayRisingError(
                f"ray through y={y.tolist()} still rising at t = T = {T} "
                f"(peak at t = {tbar:.3f}); increase T"
            )
        t_max[i] = tbar
        values[i] = peak
        etas[i] = eta_map(gu, params)
        bmass = max(bmass, gu.boundary_mass_fraction())
    del gu  # freed before the 129^dim curl below, which sets peak memory in 3-D

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
    """Scaled shifted profile t g_y w at the landscape's seed point (quadrature tolerance 1e-10)."""
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

    Mixes two antipodally shifted profiles (quadrature tolerance 1e-10) with
    cosine/sine weights; for a large separation 2R the peak approaches twice
    the single-bump level.
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


def _poisson_solver(grid: Grid, V: np.ndarray):
    """Fast approximate inverse of (free Laplacian + shift) via sine transforms.

    The shift is ``max(mean(V), 1e-6)`` for the potential samples V: the
    mass term on average, kept positive so the inverse exists.

    The interior of the composed staggered Laplacian is the product 3-point
    stencil, which DST-I diagonalizes per axis; boundary-weight deviations
    only degrade preconditioning quality, not correctness.
    """
    from scipy.fft import dstn, idstn

    eig = np.zeros(grid.shape)
    for m in range(grid.dim):
        k = np.arange(1, grid.n[m] + 1)
        lam_ax = (2.0 - 2.0 * np.cos(np.pi * k / (grid.n[m] + 1))) / grid.h[m] ** 2
        eig = eig + lam_ax.reshape((1,) * m + (-1,) + (1,) * (grid.dim - 1 - m))
    denom = eig + max(float(np.mean(V)), 1e-6)

    def solve(x):
        return idstn(dstn(x, type=1) / denom, type=1)

    return solve


def _residual_operator(u_vals, Avals, Vvals, p, grid):
    """Real-linear derivative of the Euler-Lagrange residual at u (self-adjoint)."""
    s = np.abs(u_vals)
    sp2 = s ** (p - 2.0)
    mask = s > 0
    sp4u = np.zeros_like(u_vals)
    # (p-2) |u|^{p-4} u, written via |u|^{p-3} * (u/|u|) to stay finite near zero
    sp4u[mask] = (p - 2.0) * s[mask] ** (p - 3.0) * (u_vals[mask] / s[mask])

    def apply(v_vals):
        f = ComplexField(grid, v_vals)
        lin = magnetic_laplacian(f, Avals) + Vvals * v_vals
        nl = sp2 * v_vals + sp4u * np.real(np.conj(u_vals) * v_vals)
        return lin - nl

    return apply


def _recentered(A: PotentialField, u: ComplexField) -> Optional[ComplexField]:
    """g_z^{-1} u for z the lattice point nearest the mass centroid of u.

    The exact inverse ``shift_invert`` undoes a bump placed at z by g_z in
    every gauge; a bare g_{-z} does so only up to a constant phase, and only
    in gauges like landau.  None when z = 0 or the shift fails.
    """
    grid = u.grid
    steps = np.round(_centroid(u) / np.array(grid.h)).astype(int)
    if np.all(steps == 0):
        return None
    try:
        return shift_invert(make_shift(A, steps * np.array(grid.h), grid, max_loss=0.5), u)
    except (MassLossError, QuadratureError):
        return None


def critical_point_search(
    A: PotentialField,
    params: FunctionalParams,
    seed: ComplexField,
    tol: float = 1e-8,
    max_iters: int = 60,
    inner_iters: int = 200,
    gs: Optional[GroundState] = None,
) -> SearchResult:
    """Damped Gauss-Newton descent on the squared Euler-Lagrange residual.

    Each step solves the symmetric (indefinite) linearized system with MINRES
    and backtracks on ||residual||^2; falls back to the steepest-descent
    direction whenever the model step fails to decrease the residual.  Stops
    at the residual tolerance or reports stagnation with the trace.  A must
    be a PotentialField, since recentering shifts the iterate by g_y.
    """
    if not isinstance(A, PotentialField):
        raise ValueError(f"critical_point_search needs a PotentialField, got {type(A).__name__}")
    grid = seed.grid
    Avals = prepare_potential(A, grid)
    Vvals = _v_samples(params, grid)
    W = grid.weights()
    sqw = np.sqrt(W)
    size = int(np.prod(grid.shape))

    def pack(z):
        zs = z * sqw
        return np.concatenate((zs.real.ravel(), zs.imag.ravel()))

    def unpack(x):
        z = x[:size].reshape(grid.shape) + 1j * x[size:].reshape(grid.shape)
        return z / sqw

    def residual(u_vals):
        r, nrm = el_residual(ComplexField(grid, u_vals), Avals, params)
        return r.values, nrm

    def level_of(u_vals):
        return functional_I(ComplexField(grid, u_vals), Avals, params)

    u = seed.values.astype(complex).copy()
    r_vals, r_norm = residual(u)
    trace = [(level_of(u), r_norm)]
    if r_norm < tol:
        trivial = bool(np.max(np.abs(u)) < 1e-14)
        return SearchResult(
            u=ComplexField(grid, u), level=trace[0][0], residual_norm=r_norm,
            trace=trace, iterations=0, converged=True, stalled=False, trivial=trivial,
        )

    def recenter(u_vals, cur_norm):
        """Jump along the symmetry orbit (``_recentered``) when that lowers the residual.

        Newton steps crawl across the near-flat translation valley; a magnetic
        shift covers the same ground in one move and is accepted only as a
        strict merit decrease.
        """
        moved = _recentered(A, ComplexField(grid, u_vals))
        if moved is None:
            return None
        c_vals, c_norm = residual(moved.values)
        if c_norm < 0.995 * cur_norm:
            return moved.values, c_vals, c_norm
        return None

    pre = _poisson_solver(grid, Vvals)

    def precondition(x):
        xr = pre(x[:size].reshape(grid.shape))
        xi = pre(x[size:].reshape(grid.shape))
        return np.concatenate((xr.ravel(), xi.ravel()))

    Mop = LinearOperator((2 * size, 2 * size), matvec=precondition, dtype=float)

    converged = False
    stalled = False
    weak = 0
    it = 0
    for it in range(1, max_iters + 1):
        op_apply = _residual_operator(u, Avals, Vvals, params.p, grid)

        # Newton direction J d = r via preconditioned MINRES; for symmetric J
        # the slope of 1/2 ||r||^2 along -d is -<Jr, J^{-1}r> = -||r||^2, so
        # the (inexactly solved) Newton step is a genuine descent direction
        def matvec(x):
            return pack(op_apply(unpack(x)))

        Aop = LinearOperator((2 * size, 2 * size), matvec=matvec, dtype=float)
        grad = op_apply(r_vals)  # gradient of 1/2 ||r||_W^2 in the W-metric
        forcing = min(0.1, max(np.sqrt(r_norm), 1e-6))
        x, _ = minres(Aop, pack(r_vals), rtol=forcing, maxiter=inner_iters, M=Mop)
        d = unpack(x)
        slope = float(np.sum(W * np.real(np.conj(grad) * d)))
        gnorm2 = float(np.sum(W * np.abs(grad) ** 2))
        if not np.isfinite(slope) or slope <= 1e-10 * np.sqrt(gnorm2) * np.sqrt(
            float(np.sum(W * np.abs(d) ** 2))
        ):
            d = grad
            slope = gnorm2
            if slope <= 0:
                stalled = True
                break
        phi0 = 0.5 * r_norm**2
        alpha = 1.0
        accepted = False
        for _ in range(40):
            cand = u - alpha * d
            c_vals, c_norm = residual(cand)
            if 0.5 * c_norm**2 <= phi0 - 1e-4 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            jump = recenter(u, r_norm)
            if jump is None:
                stalled = True
                break
            u, r_vals, r_norm = jump
            trace.append((level_of(u), r_norm))
            continue
        prev_norm = r_norm
        u, r_vals, r_norm = cand, c_vals, c_norm
        trace.append((level_of(u), r_norm))
        if r_norm < tol:
            converged = True
            break
        if r_norm > 0.98 * prev_norm:
            weak += 1
            if weak >= 3:
                weak = 0
                jump = recenter(u, r_norm)
                if jump is not None:
                    u, r_vals, r_norm = jump
                    trace.append((level_of(u), r_norm))
        else:
            weak = 0

    level = trace[-1][0]
    trivial = bool(np.max(np.abs(u)) < 1e-10)
    bracket = None
    if gs is not None:
        bracket = {
            "c_inf": gs.c_inf,
            "level": level,
            "inside": bool(gs.c_inf < level < 2.0 * gs.c_inf),
        }
    return SearchResult(
        u=ComplexField(grid, u), level=level, residual_norm=r_norm, trace=trace,
        iterations=it, converged=converged, stalled=stalled and not converged,
        trivial=trivial, bracket=bracket,
    )
