"""Discrete covariant calculus on uniform Cartesian grids.

Pointwise quantities (the covariant gradient used by the inequality
verifiers) use centered second-order differences with zero ghost values:
fields are treated as compactly supported.  The energy and all variational
operators use the staggered covariant derivative

    (S_m u)[midpoint] = a_m u_+ - b_m u_-,  a_m, b_m = 1/h_m +- i A_m(midpoint)/2,

second-order accurate at cell midpoints; ``PreparedPotential`` builds these
edge coefficients once.  The magnetic Laplacian is the quadrature-weighted
adjoint composition sum_m S_m^* S_m, applied as the 2 dim + 1 point stencil
derived from the same coefficients.  So the energy identity
<S^* S u, u> = E_A(u) holds to rounding on the grid, the quadratic form is
positive on compactly supported data, and the stencil stays compact (a naive
composition of centered differences decouples the even and odd sublattices
and admits spurious zero-energy checkerboard modes, which breaks constrained
minimization).
"""

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional

import numpy as np

from .field import _along, _mesh_points

__all__ = [
    "Grid",
    "ComplexField",
    "RealField",
    "FunctionalParams",
    "BOUNDARY_MASS_TOL",
    "PreparedPotential",
    "prepare_potential",
    "covariant_gradient",
    "staggered_gradient",
    "magnetic_laplacian",
    "energy_EA",
    "functional_J",
    "functional_I",
    "lp_norm",
    "inner",
    "diamagnetic_check",
    "pointwise_bounds_check",
    "eta_map",
    "el_residual",
    "bump",
    "default_grid",
]


def _as_tuple(value, dim, cast):
    if np.isscalar(value):
        return tuple(cast(value) for _ in range(dim))
    out = tuple(cast(v) for v in value)
    if len(out) != dim:
        raise ValueError(f"expected {dim} per-axis values, got {len(out)}")
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of the box prod_i [-L_i, L_i] with n_i nodes per axis.

    n_i must be odd and >= 3 so a center node exists; spacing is uniform per
    axis, h_i = 2 L_i / (n_i - 1).
    """

    dim: int
    extents: tuple
    n: tuple

    def __init__(self, extents, n, dim: Optional[int] = None):
        if dim is None:
            dim = 1 if np.isscalar(extents) else len(extents)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "extents", _as_tuple(extents, self.dim, float))
        object.__setattr__(self, "n", _as_tuple(n, self.dim, int))
        for L, ni in zip(self.extents, self.n):
            if L <= 0:
                raise ValueError(f"extent must be positive, got {L}")
            if ni < 3 or ni % 2 == 0:
                raise ValueError(f"nodes per axis must be odd and >= 3, got {ni}")

    @property
    def shape(self):
        return self.n

    @property
    def h(self):
        return tuple(2 * L / (ni - 1) for L, ni in zip(self.extents, self.n))

    @property
    def axes(self):
        return [np.linspace(-L, L, ni) for L, ni in zip(self.extents, self.n)]

    def _cached(self, key, builder):
        cache = getattr(self, "_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_cache", cache)
        if key not in cache:
            cache[key] = builder()
        return cache[key]

    def nodes(self) -> np.ndarray:
        """Coordinates of all nodes, shape (*shape, dim); cached."""
        return self._cached("nodes", lambda: _mesh_points(self.axes))

    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights, shape = grid shape; cached."""

        def build():
            w = np.array([1.0])
            for L, ni in zip(self.extents, self.n):
                wi = np.full(ni, 2 * L / (ni - 1))
                wi[0] *= 0.5
                wi[-1] *= 0.5
                w = np.multiply.outer(w, wi)
            return w.reshape(self.shape)

        return self._cached("weights", build)

    def is_lattice_vector(self, y, tol: float = 1e-9):
        """Offsets in grid steps when y is an integer multiple of the spacing, else None."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.dim,):
            raise ValueError(f"shift vector has shape {y.shape}, expected ({self.dim},)")
        steps = []
        for yi, hi in zip(y, self.h):
            k = yi / hi
            if abs(k - round(k)) > tol:
                return None
            steps.append(int(round(k)))
        return tuple(steps)


def default_grid(dim: int) -> Grid:
    """Desk-scale defaults: 129^2 on [-8,8]^2, 65^3 on [-6,6]^3, 2049 on [-16,16]."""
    if dim == 1:
        return Grid(16.0, 2049, dim=1)
    if dim == 2:
        return Grid(8.0, 129, dim=2)
    if dim == 3:
        return Grid(6.0, 65, dim=3)
    raise ValueError(f"no default grid for dim {dim}")


@dataclass
class _GridField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=self._dtype)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite at all nodes")

    def boundary_mass_fraction(self) -> float:
        """Share of the quadrature mass of |u|^2 on the outermost node layer."""
        w = self.grid.weights()
        dens = w * np.abs(self.values) ** 2
        total = float(np.sum(dens))
        if total == 0.0:
            return 0.0
        inner_sl = tuple(slice(1, -1) for _ in range(self.grid.dim))
        inner_mass = float(np.sum(dens[inner_sl]))
        return (total - inner_mass) / total

    def copy(self):
        return type(self)(self.grid, self.values.copy())


class ComplexField(_GridField):
    _dtype = complex


class RealField(_GridField):
    _dtype = float


def _critical_exponent(N: int) -> float:
    return 2.0 * N / (N - 2) if N > 2 else np.inf


@dataclass
class FunctionalParams:
    """Exponent p in (2, 2N/(N-2)), mass weight lam > 0, optional bounded V."""

    p: float
    lam: float
    V: Optional[RealField] = None
    dim: Optional[int] = None

    def __post_init__(self):
        if self.V is not None and self.dim is None:
            self.dim = self.V.grid.dim
        if self.dim is not None:
            pmax = _critical_exponent(self.dim)
            if not (2.0 < self.p < pmax):
                raise ValueError(f"p must lie strictly in (2, {pmax}) for dim {self.dim}, got {self.p}")
        elif self.p <= 2.0:
            raise ValueError(f"p must exceed 2, got {self.p}")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.V is not None and not np.all(np.isfinite(self.V.values)):
            raise ValueError("V must be bounded on the grid")


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------

def _centered_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered difference with zero ghost values outside the window."""
    out = np.zeros_like(values)
    at = partial(_along, values.ndim, axis)
    out[at(slice(1, -1))] = (values[at(slice(2, None))] - values[at(slice(0, -2))]) / (2 * h)
    out[at(0)] = values[at(1)] / (2 * h)
    out[at(-1)] = -values[at(-2)] / (2 * h)
    return out


def _midpoint_axes(grid: Grid, m: int) -> list:
    """Grid axes with axis m replaced by its n_m + 1 midpoints, half a step beyond each end."""
    axes = list(grid.axes)
    ax, h = axes[m], grid.h[m]
    axes[m] = np.concatenate(([ax[0] - 0.5 * h], 0.5 * (ax[:-1] + ax[1:]), [ax[-1] + 0.5 * h]))
    return axes


class PreparedPotential:
    """Node samples of a potential and the edge coefficients of S on one grid.

    Prepare once and reuse inside iteration loops; all calculus operators
    accept a PotentialField, raw node samples (dim, *shape), or this.
    """

    def __init__(self, grid: Grid, node: np.ndarray, edge_A: list):
        self.grid = grid
        self.node = node  # (dim, *shape)
        # S_m u = a_m u_+ - b_m u_- on the n_m + 1 axis-m edges (the outer two
        # reach the zero ghosts); edge_A[m] is component m at their midpoints
        self.a = [1.0 / h + 0.5j * Am for h, Am in zip(grid.h, edge_A)]
        self.b = [1.0 / h - 0.5j * Am for h, Am in zip(grid.h, edge_A)]

    @cached_property
    def stencil(self):
        """(diag, couplings) of sum_m S_m^* M_m S_m, M_m the midpoint measure; built on first use.

        With edge j between nodes j-1 and j, row j along axis m reads
        ((M|a|^2)_j + (M|b|^2)_{j+1}) u_j - c_{j+1} u_{j+1} - conj(c_j) u_{j-1},
        c = M conj(b) a on the n_m - 1 interior edges.
        """
        grid = self.grid
        diag = np.zeros(grid.shape)
        couplings = []
        for m, (a, b) in enumerate(zip(self.a, self.b)):
            M = _mid_measure(grid, m)
            at = partial(_along, grid.dim, m)
            diag += (M * np.abs(a) ** 2)[at(slice(0, -1))] + (M * np.abs(b) ** 2)[at(slice(1, None))]
            inner = at(slice(1, -1))
            couplings.append(M[inner] * np.conj(b[inner]) * a[inner])
        return diag, couplings


def prepare_potential(A, grid: Grid) -> "PreparedPotential":
    """Sample A once for ``grid``: evaluators through ``on_axes``, raw node arrays by averaging."""
    if isinstance(A, PreparedPotential):
        if A.grid.shape != grid.shape:
            raise ValueError("prepared potential belongs to a different grid")
        return A
    on_axes = getattr(A, "on_axes", None)
    if on_axes is not None:
        node = on_axes(grid.axes)
        edge_A = [on_axes(_midpoint_axes(grid, m))[m] for m in range(grid.dim)]
        return PreparedPotential(grid, node, edge_A)
    arr = np.asarray(A, dtype=float)
    if arr.shape != (grid.dim,) + grid.shape:
        raise ValueError(f"potential samples shape {arr.shape}, expected {(grid.dim,) + grid.shape}")
    edge_A = []
    for m, comp in enumerate(arr):
        at = partial(_along, grid.dim, m)
        inner_avg = 0.5 * (comp[at(slice(0, -1))] + comp[at(slice(1, None))])
        edge_A.append(np.concatenate((comp[at(slice(0, 1))], inner_avg, comp[at(slice(-1, None))]), axis=m))
    return PreparedPotential(grid, arr, edge_A)


def covariant_gradient(u: ComplexField, A) -> np.ndarray:
    """Node-centered (grad + iA)u per component; shape (dim, *grid.shape).

    Centered second-order differences with zero ghosts; this is the object
    entering the pointwise inequality verifiers.
    """
    grid = u.grid
    Avals = prepare_potential(A, grid).node
    out = np.empty((grid.dim,) + grid.shape, dtype=complex)
    vals = u.values.astype(complex, copy=False)
    for m in range(grid.dim):
        out[m] = _centered_diff(vals, m, grid.h[m]) + 1j * Avals[m] * vals
    return out


def staggered_gradient(u: ComplexField, A) -> list:
    """Per-axis midpoint values a_m u_+ - b_m u_- of the covariant derivative (axis m has n+1 entries)."""
    grid = u.grid
    prep = prepare_potential(A, grid)
    vals = u.values
    out = []
    for m, (a, b) in enumerate(zip(prep.a, prep.b)):
        lo, hi = _along(grid.dim, m, slice(0, -1)), _along(grid.dim, m, slice(1, None))
        G = np.zeros(a.shape, dtype=complex)
        np.multiply(a[lo], vals, out=G[lo])
        G[hi] -= b[hi] * vals
        out.append(G)
    return out


def _mid_measure(grid: Grid, m: int) -> np.ndarray:
    """Quadrature measure on the axis-m midpoint mesh: h_m along m, trapezoid across."""

    def build():
        w = np.array([1.0])
        for ax in range(grid.dim):
            if ax == m:
                wi = np.full(grid.n[ax] + 1, grid.h[ax])
            else:
                wi = np.full(grid.n[ax], grid.h[ax])
                wi[0] *= 0.5
                wi[-1] *= 0.5
            w = np.multiply.outer(w, wi)
        shape = tuple(ni + 1 if ax == m else ni for ax, ni in enumerate(grid.n))
        return w.reshape(shape)

    return grid._cached(("mid_measure", m), build)


def magnetic_laplacian(u: ComplexField, A) -> np.ndarray:
    """S^* S u with the quadrature-weighted adjoint of the staggered derivative.

    Applies the prepared ``2 dim + 1``-point stencil.  Positive on compactly
    supported data; <magnetic_laplacian(u), u> equals E_A(u) exactly in
    exact arithmetic.
    """
    grid = u.grid
    diag, couplings = prepare_potential(A, grid).stencil
    vals = u.values
    out = diag * vals
    for m, c in enumerate(couplings):
        lo, hi = _along(grid.dim, m, slice(0, -1)), _along(grid.dim, m, slice(1, None))
        out[lo] -= c * vals[hi]
        out[hi] -= np.conj(c) * vals[lo]
    return out / grid.weights()


def inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> complex:
    """Weighted inner product sum W f conj(g) over nodes (fixed summation order)."""
    return complex(np.sum(grid.weights() * f * np.conj(g)))


# Reports record ``boundary_mass_fraction`` against this tolerance: above it,
# the window cuts off enough of |u|^2 that the discrete energy no longer
# stands in for the energy on all of R^N.
BOUNDARY_MASS_TOL = 1e-6


def energy_EA(u: ComplexField, A) -> float:
    """Quadrature of |grad_A u|^2 over the window (staggered midpoint form)."""
    grid = u.grid
    G = staggered_gradient(u, A)
    total = 0.0
    for m in range(grid.dim):
        total += float(np.sum(_mid_measure(grid, m) * np.abs(G[m]) ** 2))
    return total


def _v_samples(params: FunctionalParams, grid: Grid) -> np.ndarray:
    if params.V is None:
        return np.full(grid.shape, params.lam)
    if params.V.grid.shape != grid.shape:
        raise ValueError("V sampled on a different grid")
    return params.V.values


def functional_J(u: ComplexField, A, params: FunctionalParams) -> float:
    """J(u) = E_A(u) + int V |u|^2, with V defaulting to the constant lam."""
    V = _v_samples(params, u.grid)
    W = u.grid.weights()
    return energy_EA(u, A) + float(np.sum(W * V * np.abs(u.values) ** 2))


def functional_I(u: ComplexField, A, params: FunctionalParams) -> float:
    """I(u) = J(u)/2 - (1/p) ||u||_p^p."""
    return 0.5 * functional_J(u, A, params) - lp_norm(u, params.p) ** params.p / params.p


def lp_norm(u: ComplexField, p: float) -> float:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    W = u.grid.weights()
    return float(np.sum(W * np.abs(u.values) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Pointwise inequality verifiers
# ---------------------------------------------------------------------------

def _interior(grid: Grid):
    return tuple(slice(1, -1) for _ in range(grid.dim))


def diamagnetic_check(u: ComplexField, A) -> dict:
    """|grad_A u| >= |grad |u|| at interior nodes, up to discretization slack.

    Reports the minimum pointwise margin and the integrated gap
    E_A(u) - E_0(|u|), which must be nonnegative.
    """
    grid = u.grid
    G = covariant_gradient(u, A)
    mod = ComplexField(grid, np.abs(u.values).astype(complex))
    Gmod = covariant_gradient(mod, np.zeros((grid.dim,) + grid.shape))
    lhs = np.sqrt(np.sum(np.abs(G) ** 2, axis=0))
    rhs = np.sqrt(np.sum(np.abs(Gmod) ** 2, axis=0))
    margin = (lhs - rhs)[_interior(grid)]
    gap = energy_EA(u, A) - energy_EA(mod, np.zeros((grid.dim,) + grid.shape))
    return {
        "min_margin": float(np.min(margin)) if margin.size else 0.0,
        "integrated_gap": gap,
        "violations": int(np.sum(margin < -1e-12 - 0.0)),
    }


def pointwise_bounds_check(u: ComplexField, A, lam: float = 1.0, n_bumps: int = 8) -> dict:
    """Nodewise sandwich bounds between |grad_A u|^2 and |grad u|^2.

    Checks |grad_A u|^2 >= |grad u|^2 / 2 - 7 |A|^2 |u|^2 and
    |grad u|^2 <= 2 |grad_A u|^2 + 14 |A|^2 |u|^2 (pointwise real algebra, so
    violations beyond rounding indicate a bug), and reports the local
    energy-ratio interval over a batch of random test bumps drawn from
    ``np.random.default_rng(0)``.
    """
    grid = u.grid
    Avals = prepare_potential(A, grid).node
    A2 = np.sum(Avals**2, axis=0)

    zero = np.zeros((grid.dim,) + grid.shape)

    def squares(w: ComplexField):
        """|grad_A w|^2, |grad w|^2 and |w|^2 at the nodes."""
        gA2 = np.sum(np.abs(covariant_gradient(w, Avals)) ** 2, axis=0)
        g02 = np.sum(np.abs(covariant_gradient(w, zero)) ** 2, axis=0)
        return gA2, g02, np.abs(w.values) ** 2

    gA2, g02, u2 = squares(u)
    s1 = float(np.min(gA2 - 0.5 * g02 + 7.0 * A2 * u2))  # >= 0
    s2 = float(np.min(2.0 * gA2 + 14.0 * A2 * u2 - g02))  # >= 0

    rng = np.random.default_rng(0)
    ratios = []
    W = grid.weights()
    for _ in range(n_bumps):
        center = rng.uniform(-0.4, 0.4, size=grid.dim) * np.array(grid.extents)
        width = rng.uniform(0.6, 1.6)
        wave = rng.uniform(-1.5, 1.5, size=grid.dim)
        gA2, g02, u2 = squares(bump(grid, center=center, width=width, wave=wave))
        num = float(np.sum(W * (gA2 + lam * u2)))
        den = float(np.sum(W * (g02 + u2)))
        ratios.append(num / den)
    return {
        "worst_slack_lower": s1,
        "worst_slack_upper": s2,
        "ratio_min": float(np.min(ratios)),
        "ratio_max": float(np.max(ratios)),
    }


def eta_map(u: ComplexField, params: FunctionalParams) -> np.ndarray:
    """Weighted |u|^p centroids in the first dim components, total |u|^p mass last."""
    grid = u.grid
    W = grid.weights()
    dens = W * np.abs(u.values) ** params.p
    pts = grid.nodes()
    r = np.sqrt(np.sum(pts**2, axis=-1))
    out = np.empty(grid.dim + 1)
    for i in range(grid.dim):
        out[i] = float(np.sum(pts[..., i] / (1.0 + r) * dens))
    out[grid.dim] = float(np.sum(dens))
    return out


def el_residual(u: ComplexField, A, params: FunctionalParams):
    """Residual of -grad_A^2 u + V u = |u|^{p-2} u and its weighted L^2 norm.

    V is the constant lam unless params carry a sampled potential.  The
    Laplacian is the adjoint composition, keeping the residual consistent
    with the discrete energy.
    """
    grid = u.grid
    V = _v_samples(params, grid)
    vals = u.values
    r = magnetic_laplacian(u, A) + V * vals - np.abs(vals) ** (params.p - 2) * vals
    norm = float(np.sqrt(np.sum(grid.weights() * np.abs(r) ** 2)))
    return ComplexField(grid, r), norm


def bump(grid: Grid, center=0.0, width: float = 1.0, amplitude: complex = 1.0, wave=None) -> ComplexField:
    """Gaussian bump amplitude * exp(-|x-c|^2 / (2 width^2)) * exp(i wave . x)."""
    pts = grid.nodes()
    c = np.broadcast_to(np.atleast_1d(np.asarray(center, dtype=float)), (grid.dim,))
    r2 = np.sum((pts - c) ** 2, axis=-1)
    vals = amplitude * np.exp(-r2 / (2.0 * width**2))
    if wave is not None:
        k = np.broadcast_to(np.atleast_1d(np.asarray(wave, dtype=float)), (grid.dim,))
        vals = vals * np.exp(1j * np.tensordot(pts, k, axes=([-1], [0])))
    return ComplexField(grid, vals.astype(complex))
