"""Discrete covariant calculus on uniform Cartesian grids.

Fields are treated as compactly supported (zero ghost values beyond the
window).  The energy, every variational operator and the pointwise
inequality verifiers use the staggered covariant derivative

    (S_m u)[midpoint] = a_m u_+ - b_m u_-,  a_m = 1/h_m + i A_m(midpoint)/2,  b_m = conj(a_m),

second-order accurate at cell midpoints; ``PreparedPotential`` builds the
coefficients a_m once, and b_m is taken as conj(a_m) where it is used.  So
the diamagnetic and sandwich inequalities hold edge by edge as exact
algebra.  The magnetic Laplacian is the quadrature-weighted adjoint
composition sum_m S_m^* S_m, applied as the 2 dim + 1 point stencil derived
from the same coefficients.  So the energy identity <S^* S u, u> = E_A(u)
holds to rounding on the grid, the quadratic form is positive on compactly
supported data, and the stencil stays compact (a naive composition of
centered differences decouples the even and odd sublattices and admits
spurious zero-energy checkerboard modes, which breaks constrained
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


def _whole(value) -> int:
    """``value`` as an int; ``ValueError`` unless it is a finite whole number."""
    if not float(value).is_integer():
        raise ValueError(f"expected a whole number, got {value}")
    return int(value)


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
        object.__setattr__(self, "dim", _whole(dim))
        object.__setattr__(self, "extents", _as_tuple(extents, self.dim, float))
        object.__setattr__(self, "n", _as_tuple(n, self.dim, _whole))
        for L, ni in zip(self.extents, self.n):
            if not (np.isfinite(L) and L > 0):
                raise ValueError(f"extent must be finite and positive, got {L}")
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
        """Coordinates of all nodes, shape (*shape, dim), built afresh on each call.

        Not cached: no hot loop reads the mesh, and a cached one (6.3 MB at
        65^3) would live through every later solve on the grid.
        """
        return _mesh_points(self.axes)

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

    def is_lattice_vector(self, y):
        """Offsets in grid steps when y is an integer multiple of the spacing, else None.

        Each entry may miss its multiple by 1e-9 steps.  A non-finite entry
        raises ``ValueError``.
        """
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.dim,):
            raise ValueError(f"shift vector has shape {y.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(y)):
            raise ValueError(f"lattice vector {y.tolist()} has a non-finite entry")
        steps = []
        for yi, hi in zip(y, self.h):
            k = yi / hi
            if abs(k - round(k)) > 1e-9:
                return None
            steps.append(int(round(k)))
        return tuple(steps)

    def node_index(self, steps) -> np.ndarray:
        """Node index of the lattice point ``steps`` grid steps from the origin.

        ``steps`` is an integer array of shape (..., dim); the result has the
        same shape and may fall outside the window.
        """
        return np.asarray(steps) + np.array([(ni - 1) // 2 for ni in self.n])


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
        return _boundary_fraction(self.grid.weights() * np.abs(self.values) ** 2)


def _boundary_fraction(dens: np.ndarray) -> float:
    """Share of the total of ``dens`` on the outermost node layer (0 for a zero total).

    The two sums round apart, so an (almost) empty outer layer can read a
    few ulps below zero; the share is clamped at 0.
    """
    total = float(np.sum(dens))
    if total == 0.0:
        return 0.0
    inner_mass = float(np.sum(dens[tuple(slice(1, -1) for _ in range(dens.ndim))]))
    return max((total - inner_mass) / total, 0.0)


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
        if self.V is not None:
            if self.dim is None:
                self.dim = self.V.grid.dim
            elif self.dim != self.V.grid.dim:
                raise ValueError(f"dim {self.dim} disagrees with the {self.V.grid.dim}-D grid of V")
        if self.dim is not None:
            pmax = _critical_exponent(self.dim)
            if not (2.0 < self.p < pmax):
                raise ValueError(f"p must lie in the admissible range (2, {pmax}) for dim {self.dim}, got {self.p}")
        elif not (np.isfinite(self.p) and self.p > 2.0):
            raise ValueError(f"p must be finite and exceed 2, got {self.p}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        if self.V is not None and not np.all(np.isfinite(self.V.values)):
            raise ValueError("V must be bounded on the grid")


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------

def _midpoint_axes(grid: Grid, m: int) -> list:
    """Grid axes with axis m replaced by its n_m + 1 midpoints, half a step beyond each end."""
    axes = list(grid.axes)
    ax, h = axes[m], grid.h[m]
    axes[m] = np.concatenate(([ax[0] - 0.5 * h], 0.5 * (ax[:-1] + ax[1:]), [ax[-1] + 0.5 * h]))
    return axes


class PreparedPotential:
    """The edge coefficients a = 1/h + i A(mid)/2 of S for one potential on one grid.

    The coefficient b = conj(a) of u_- is not stored: it is taken as
    ``np.conj(a)`` where it is used.  An axis whose component is declared
    zero (``edge_A[m]`` is None) keeps the real scalar 1/h, broadcast
    read-only to its edge mesh: as a complex number it has the bits of
    1/h + 0.5j * (+0), so no result changes, and the axis holds no array.
    Prepare once and reuse inside iteration loops; all calculus operators
    accept a PotentialField, raw node samples (dim, *shape), or this.
    """

    def __init__(self, grid: Grid, edge_A: list):
        self.grid = grid
        # S_m u = a_m u_+ - conj(a_m) u_- on the n_m + 1 axis-m edges (the outer
        # two reach the zero ghosts); edge_A[m] is component m at their
        # midpoints, or None for A_m = +0.  This line is the only one that
        # knows the edge rule.
        self.a = [
            np.broadcast_to(1.0 / h, _mid_shape(grid, m)) if Am is None else 1.0 / h + 0.5j * Am
            for m, (h, Am) in enumerate(zip(grid.h, edge_A))
        ]

    @cached_property
    def stencil(self):
        """(diag, couplings) of sum_m S_m^* M_m S_m, M_m the midpoint measure; built on first use.

        With edge j between nodes j-1 and j, row j along axis m reads
        ((M|a|^2)_j + (M|b|^2)_{j+1}) u_j - c_{j+1} u_{j+1} - conj(c_j) u_{j-1},
        b = conj(a) and c = M conj(b) a = M a^2 on the n_m - 1 interior edges.
        """
        grid = self.grid
        diag = np.zeros(grid.shape)
        couplings = []
        for m, a in enumerate(self.a):
            M = _mid_measure(grid, m)
            at = partial(_along, grid.dim, m)
            Ma2 = M * np.abs(a) ** 2  # M|b|^2 too, as b = conj(a)
            diag += Ma2[at(slice(0, -1))] + Ma2[at(slice(1, None))]
            inner = at(slice(1, -1))
            couplings.append(M[inner] * a[inner] * a[inner])
        return diag, couplings


def prepare_potential(A, grid: Grid) -> "PreparedPotential":
    """Sample A once for ``grid`` at the edge midpoints: evaluators through ``on_axes``
    (one mesh per axis), raw node arrays by ``_edge_mean`` with boundary-copy ghosts.

    An evaluator is not called on the mesh of a component it declares zero
    (``PotentialField.zero_components``); that axis keeps the real 1/h."""
    if isinstance(A, PreparedPotential):
        if A.grid.shape != grid.shape:
            raise ValueError("prepared potential belongs to a different grid")
        return A
    on_axes = getattr(A, "on_axes", None)
    if on_axes is not None:
        zero = getattr(A, "zero_components", frozenset())
        return PreparedPotential(
            grid, [None if m in zero else on_axes(_midpoint_axes(grid, m))[m] for m in range(grid.dim)]
        )
    arr = np.asarray(A, dtype=float)
    if arr.shape != (grid.dim,) + grid.shape:
        raise ValueError(f"potential samples shape {arr.shape}, expected {(grid.dim,) + grid.shape}")
    return PreparedPotential(grid, [_edge_mean(comp, m, "edge") for m, comp in enumerate(arr)])


def _free(grid: Grid) -> "PreparedPotential":
    """The zero field prepared for ``grid``: every component declared zero, every coefficient the real 1/h."""
    return PreparedPotential(grid, [None] * grid.dim)


def staggered_gradient(u: ComplexField, A) -> list:
    """Per-axis midpoint values a_m u_+ - conj(a_m) u_- of the covariant derivative (axis m has n+1 entries)."""
    return _edge_values(u.values, prepare_potential(A, u.grid))


def _edge_values(vals: np.ndarray, prep: "PreparedPotential") -> list:
    """``staggered_gradient`` on raw node values."""
    dim = prep.grid.dim
    out = []
    for m, a in enumerate(prep.a):
        lo, hi = _along(dim, m, slice(0, -1)), _along(dim, m, slice(1, None))
        G = np.zeros(a.shape, dtype=complex)
        np.multiply(a[lo], vals, out=G[lo])
        G[hi] -= np.conj(a[hi]) * vals
        out.append(G)
    return out


def _edge_mean(vals: np.ndarray, m: int, mode: str = "constant") -> np.ndarray:
    """(v_+ + v_-)/2 on the n_m + 1 axis-m edges; the ghost beyond each end follows ``np.pad``'s
    ``mode``: "constant" (zero) for fields, "edge" (a boundary copy) for potential node samples."""
    padded = np.pad(vals, [(1, 1) if ax == m else (0, 0) for ax in range(vals.ndim)], mode=mode)
    return 0.5 * (padded[_along(vals.ndim, m, slice(1, None))] + padded[_along(vals.ndim, m, slice(0, -1))])


def _mid_shape(grid: Grid, m: int) -> tuple:
    """Shape of the axis-m midpoint mesh: n_m + 1 along m, n across."""
    return tuple(ni + 1 if ax == m else ni for ax, ni in enumerate(grid.n))


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
        return w.reshape(_mid_shape(grid, m))

    return grid._cached(("mid_measure", m), build)


def magnetic_laplacian(u: ComplexField, A) -> np.ndarray:
    """S^* S u with the quadrature-weighted adjoint of the staggered derivative.

    Applies the prepared ``2 dim + 1``-point stencil.  Positive on compactly
    supported data; <magnetic_laplacian(u), u> equals E_A(u) exactly in
    exact arithmetic.
    """
    grid = u.grid
    return _stencil_apply(u.values, prepare_potential(A, grid).stencil) / grid.weights()


def _stencil_apply(vals: np.ndarray, stencil) -> np.ndarray:
    """sum_m S_m^* M_m S_m on raw node values: ``magnetic_laplacian`` times W."""
    diag, couplings = stencil
    out = diag * vals
    for m, c in enumerate(couplings):
        lo, hi = _along(vals.ndim, m, slice(0, -1)), _along(vals.ndim, m, slice(1, None))
        out[lo] -= c * vals[hi]
        out[hi] -= np.conj(c) * vals[lo]
    return out


def inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> complex:
    """Weighted inner product sum W f conj(g) over nodes (fixed summation order)."""
    return complex(np.sum(grid.weights() * f * np.conj(g)))


# Reports record ``boundary_mass_fraction`` against this tolerance: above it,
# the window cuts off enough of |u|^2 that the discrete energy no longer
# stands in for the energy on all of R^N.
BOUNDARY_MASS_TOL = 1e-6


def energy_EA(u: ComplexField, A) -> float:
    """Quadrature of |grad_A u|^2 over the window (staggered midpoint form)."""
    return _edge_energy(staggered_gradient(u, A), u.grid)


def _edge_energy(G: list, grid: Grid) -> float:
    """Sum over axes of the midpoint quadrature of |G_m|^2, G the staggered gradient."""
    total = 0.0
    for m in range(grid.dim):
        total += float(np.sum(_mid_measure(grid, m) * np.abs(G[m]) ** 2))
    return total


def _v_samples(params: FunctionalParams, grid: Grid) -> np.ndarray:
    """V on the nodes: the sampled potential, or the constant lam as a read-only broadcast view."""
    if params.V is None:
        return np.broadcast_to(params.lam, grid.shape)
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
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    W = u.grid.weights()
    return float(np.sum(W * np.abs(u.values) ** p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Pointwise inequality verifiers
# ---------------------------------------------------------------------------

def diamagnetic_check(u: ComplexField, A) -> dict:
    """|S_A u| >= |S_0 |u|| on every staggered edge, and the integrated gap.

    On an edge b = conj(a) and |a| >= 1/h, so
    |a u_+ - b u_-| >= |a| ||u_+| - |u_-|| >= |S_0 |u||: a margin below
    rounding is a bug.  Reports the minimum edge margin, the number of edges
    below -1e-12 and the integrated gap E_A(u) - E_0(|u|), which must be
    nonnegative.
    """
    grid = u.grid
    G = staggered_gradient(u, A)
    Gmod = _edge_values(np.abs(u.values), _free(grid))
    margin = np.concatenate([(np.abs(g) - np.abs(g0)).ravel() for g, g0 in zip(G, Gmod)])
    return {
        "min_margin": float(np.min(margin)),
        "integrated_gap": _edge_energy(G, grid) - _edge_energy(Gmod, grid),
        "violations": int(np.sum(margin < -1e-12)),
    }


def pointwise_bounds_check(u: ComplexField, A) -> dict:
    """Edgewise sandwich bounds between |S_A u|^2 and |S_0 u|^2.

    On an edge with b = conj(a), S_A u - S_0 u = (a - 1/h) u_+ - conj(a - 1/h) u_-.
    With d = 2 |a - 1/h| (|A(mid)| under the midpoint rule) and m = (|u_+| + |u_-|)/2,
    both |S_A u|^2 >= |S_0 u|^2 / 2 - d^2 m^2 and |S_0 u|^2 <= 2 |S_A u|^2 + 2 d^2 m^2
    are exact algebra: a slack below rounding is a bug.  Also reports the interval of
    (E_A(w) + |w|_2^2) / (E_0(w) + |w|_2^2), the squared H^1_A / H^1 norm
    ratio, over 8 test bumps w drawn from ``np.random.default_rng(0)``.
    """
    grid = u.grid
    prep = prepare_potential(A, grid)
    zero = _free(grid)
    s1 = s2 = np.inf
    edges = zip(grid.h, prep.a, _edge_values(u.values, prep), _edge_values(u.values, zero))
    for m, (h, a, gA, g0) in enumerate(edges):
        dm2 = (2.0 * np.abs(a - 1.0 / h) * _edge_mean(np.abs(u.values), m)) ** 2  # d^2 m^2
        gA2, g02 = np.abs(gA) ** 2, np.abs(g0) ** 2
        s1 = min(s1, float(np.min(gA2 - 0.5 * g02 + dm2)))  # >= 0
        s2 = min(s2, float(np.min(2.0 * gA2 + 2.0 * dm2 - g02)))  # >= 0

    rng = np.random.default_rng(0)
    ratios = []
    W = grid.weights()
    for _ in range(8):
        center = rng.uniform(-0.4, 0.4, size=grid.dim) * np.array(grid.extents)
        width = rng.uniform(0.6, 1.6)
        wave = rng.uniform(-1.5, 1.5, size=grid.dim)
        w = bump(grid, center=center, width=width, wave=wave)
        mass = float(np.sum(W * np.abs(w.values) ** 2))
        ratios.append((energy_EA(w, prep) + mass) / (energy_EA(w, zero) + mass))
    return {
        "worst_slack_lower": s1,
        "worst_slack_upper": s2,
        "ratio_min": float(np.min(ratios)),
        "ratio_max": float(np.max(ratios)),
    }


def eta_map(u: ComplexField, params: FunctionalParams) -> np.ndarray:
    """Weighted |u|^p centroids in the first dim components, total |u|^p mass last."""
    grid = u.grid
    return _eta_sums(grid.weights() * np.abs(u.values) ** params.p, _eta_kernels(grid))


def _eta_kernels(grid: Grid) -> list:
    """The centroid weights x_i / (1 + |x|) of ``eta_map``, one node array per axis."""
    pts = grid.nodes()
    r = np.sqrt(np.sum(pts**2, axis=-1))
    return [pts[..., i] / (1.0 + r) for i in range(grid.dim)]


def _eta_sums(dens: np.ndarray, kernels: list) -> np.ndarray:
    """``eta_map`` from the density W|u|^p: its kernel sums, then its total."""
    out = np.empty(len(kernels) + 1)
    for i, k in enumerate(kernels):
        out[i] = float(np.sum(k * dens))
    out[-1] = float(np.sum(dens))
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
