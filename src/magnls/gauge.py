"""Re-phasing functions, corrected potentials, and magnetic shifts.

The corrected potential A_y = A + grad(phi_y) vanishes at the base point y
and obeys the linear bound |A_y(x)| <= ||B||_inf |x - y|.  The phase phi_y is
built from axis-by-axis line integrals along a staircase path from y to x:

    phi_y(x) = -sum_m  int_{y_m}^{x_m} A_m(y_1..y_{m-1}, t, x_{m+1}..x_N) dt

(plus a free constant fixed by the normalization convention).  Magnetic
shifts g_y u = e^{i phi_y} u(. - y) then transport energies between gauges.
"""

from dataclasses import dataclass, field as _dfield

import numpy as np

from .calculus import ComplexField, Grid, RealField, bump
from .field import PotentialField, TwoForm, _mesh_points, _sample_derivative, b_sup_norm

__all__ = [
    "GaugePhase",
    "CorrectedPotential",
    "ShiftOp",
    "QuadratureError",
    "MassLossError",
    "QUAD_TOL",
    "rephase_field",
    "corrected_potential",
    "corrected_potential_samples",
    "linear_bound_check",
    "make_shift",
    "shift_apply",
    "shift_invert",
    "shifted_corrected_samples",
    "ShiftedCorrectedField",
    "potential_at_infinity",
    "composition_constant",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within the subdivision budget."""


class MassLossError(ValueError):
    """Too much of |u|^2 would be shifted out of the window."""


# Per-segment tolerance of the adaptive Simpson quadrature behind every line
# integral of A: phases, phase tables and corrected potentials.
QUAD_TOL = 1e-10


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature, vectorized over slice batches
# ---------------------------------------------------------------------------

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


def _line_integrals(integrand, head, axis_values, tail, start: float) -> np.ndarray:
    """Cumulative integrals int_start^v integrand(head, t, tail) dt for v in ``axis_values`` (ascending).

    The integration axis is m = len(head) + 1.  ``head`` holds axes 1..m-1:
    singletons [y_j] pin the staircase coordinates, full axes span a table.
    ``tail`` holds axes m+1..N.  The mesh is built once; each evaluation only
    rewrites the t column, so ``integrand`` must return a fresh array.  The
    result has shape (*head, len(axis_values), *tail).
    """
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


# ---------------------------------------------------------------------------
# Phase construction
# ---------------------------------------------------------------------------

@dataclass
class GaugePhase:
    """Sampled re-phasing scalar phi_y with its base point and normalization."""

    base_point: np.ndarray
    normalization: str
    samples: RealField


def _phase_values(A: PotentialField, y: np.ndarray, axes) -> np.ndarray:
    """phi_y on the tensor grid spanned by ``axes``: minus the staircase sum of
    the cumulative axis-m integrals of A_m, broadcast to the full mesh."""
    total = np.zeros(tuple(len(ax) for ax in axes))
    head = [np.array([yi]) for yi in y]
    for m in range(1, len(axes) + 1):
        total += _line_integrals(
            lambda pts, m=m: A(pts)[..., m - 1], head[: m - 1], axes[m - 1], axes[m:], float(y[m - 1])
        )
    return -total


def _phase_tables(A: PotentialField, grid: Grid) -> list:
    """Per-axis cumulative integrals C_m(x) = int_{x_m^min}^{x_m} A_m(.., t, ..) dt on the grid.

    Cached on the grid per field.  The cached value holds A, so
    its id cannot be reused while the entry lives; a build that raises
    caches nothing.
    """

    def build():
        axes = grid.axes
        tables = [
            _line_integrals(
                lambda pts, m=m: A(pts)[..., m - 1], axes[: m - 1], axes[m - 1], axes[m:], float(axes[m - 1][0])
            )
            for m in range(1, grid.dim + 1)
        ]
        return A, tables

    return grid._cached(("phase_tables", id(A)), build)[1]


def _first_axis_factor(A: PotentialField, grid: Grid) -> np.ndarray:
    """E0 = e^{-i C_1} on the grid: the factor every tabled shift of A shares.

    Cached next to the phase tables; the cached value holds A, as theirs does.
    """
    return grid._cached(("first_axis_factor", id(A)), lambda: (A, np.exp(-1j * _phase_tables(A, grid)[0])))[1]


def _split_phase(A: PotentialField, y: np.ndarray, steps, grid: Grid, normalization: str):
    """phi_y on the grid as ``(C, psi)`` with phi_y = psi - C, or ``(None, phi_y)``.

    ``steps`` is ``grid.is_lattice_vector(y)``, which the caller holds.

    For a lattice y whose node lies inside the window the tables give
    phi_y = -C_1(x) + psi_y(x_2..x_N): C is the table C_1, which does not
    depend on y, and psi has shape (1, n_2, .., n_N).  psi gathers

        C_1(y_1, x_>1) - sum_{m>=2} [C_m(y_<m, x_m, x_>m) - C_m(y_<=m, x_>m)].

    y = 0 (phase identically zero), off-lattice y and y beyond the window
    return the whole phase as psi.
    """
    if np.all(y == 0.0):
        return None, np.zeros(grid.shape)
    index = _window_index(grid, steps)
    if index is None:
        C, psi = None, _phase_values(A, y, grid.axes)
    else:
        tables = _phase_tables(A, grid)
        total = np.zeros((1,) + grid.shape[1:])
        total -= tables[0][index[0]]
        for m, Cm in enumerate(tables[1:], start=2):
            T = Cm[tuple(index[: m - 1])]
            total += (T - T[index[m - 1]]).reshape((1,) * (m - 1) + T.shape)
        C, psi = tables[0], -total
    if normalization == "at_half":
        psi = psi - float(_phase_values(A, y, [np.array([yi / 2.0]) for yi in y]).reshape(()))
    return C, psi


def _window_index(grid: Grid, steps):
    """Node index of the lattice point ``steps`` inside the window, else None (also for ``steps`` None)."""
    if steps is None:
        return None
    index = tuple(grid.node_index(steps).tolist())
    return index if all(0 <= j < n for j, n in zip(index, grid.n)) else None


def _base_point(y, grid: Grid, normalization: str) -> np.ndarray:
    """y as a float vector of ``grid.dim`` entries; ``ValueError`` for another
    shape or a normalization other than ``at_base`` and ``at_half``."""
    if normalization not in ("at_base", "at_half"):
        raise ValueError(f"unknown normalization '{normalization}'")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (grid.dim,):
        raise ValueError(f"base point shape {y.shape}, expected ({grid.dim},)")
    return y


def rephase_field(
    A: PotentialField,
    y,
    grid: Grid,
    normalization: str = "at_base",
) -> GaugePhase:
    """Build phi_y on the grid by adaptive Simpson quadrature (per-segment ``QUAD_TOL``).

    ``at_base`` fixes phi_y(y) = 0; ``at_half`` fixes phi_y(y/2) = 0 (the
    convention under which the shift composition law carries a clean
    antisymmetric constant).  For y = 0 the phase is identically zero and
    the shift below reduces to the identity.

    A lattice y whose node lies inside the window takes its phase from the
    per-axis tables of ``_phase_tables``, built once per (A, grid)
    and kept on the grid.  A table build integrates along every grid line,
    not only the staircase through y, so a field that defeats the quadrature
    on some other line raises ``QuadratureError`` here too.  Any other y
    integrates its own staircase.
    """
    y = _base_point(y, grid, normalization)
    C, psi = _split_phase(A, y, grid.is_lattice_vector(y), grid, normalization)
    vals = psi if C is None else psi - C
    return GaugePhase(base_point=y, normalization=normalization, samples=RealField(grid, vals))


# ---------------------------------------------------------------------------
# Corrected potential
# ---------------------------------------------------------------------------

@dataclass
class CorrectedPotential:
    """Samples of A_y = A + grad(phi_y) on a grid; vanishes at the base point."""

    base_point: np.ndarray
    grid: Grid
    samples: np.ndarray  # (dim, *grid.shape)
    construction: str


def corrected_potential_samples(A: PotentialField, y, axes) -> np.ndarray:
    """Pointwise A_y on the tensor grid spanned by ``axes`` (needs the jacobian).

    Differentiating the staircase sum gives, per component n,

        (A_y)_n(x) = A_n(x) - A_n(y_1..y_{n-1}, x_n..x_N)
                     - sum_{m<n} int_{y_m}^{x_m} d_n A_m(y_1..y_{m-1}, t, x_{m+1}..x_N) dt,

    which vanishes identically on the slab x_1 = y_1, ..., x_{n-1} = y_{n-1}.
    """
    if not A.has_jacobian:
        raise ValueError("corrected_potential_samples needs a field with an analytic jacobian")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dim = A.dim
    shape = tuple(len(ax) for ax in axes)
    Avals = A(_mesh_points(axes))  # (*shape, dim)
    head = [np.array([yi]) for yi in y]
    out = np.empty((dim,) + shape)
    for n in range(1, dim + 1):
        # A_n with the first n-1 coordinates pinned to y
        pinned = A(_mesh_points([*head[: n - 1], *axes[n - 1:]]))[..., n - 1]
        comp = Avals[..., n - 1] - pinned
        for m in range(1, n):
            comp = comp - _line_integrals(
                lambda pts, m=m, n=n: A.jacobian(pts)[..., m - 1, n - 1],
                head[: m - 1],
                axes[m - 1],
                axes[m:],
                float(y[m - 1]),
            )
        out[n - 1] = np.broadcast_to(comp, shape)
    return out


def _phase_gradient(phase: GaugePhase) -> np.ndarray:
    """Centered-difference gradient of the sampled phase, one-sided at the boundary."""
    grid = phase.samples.grid
    vals = phase.samples.values
    return np.stack([_sample_derivative(vals, axis, grid.h[axis]) for axis in range(grid.dim)])


def corrected_potential(A: PotentialField, phase: GaugePhase, grid: Grid) -> CorrectedPotential:
    """Sample A_y on the grid.

    A field with an analytic jacobian uses the closed formula
    (``corrected_potential_samples``, construction ``direct_formula``); any
    other field adds the centered-difference gradient of the sampled phase
    (``grad_of_phase``).  ``construction`` on the result records which ran.
    """
    y = phase.base_point
    if A.has_jacobian:
        construction = "direct_formula"
        samples = corrected_potential_samples(A, y, grid.axes)
    else:
        construction = "grad_of_phase"
        if phase.samples.grid.shape != grid.shape:
            raise ValueError("phase sampled on a different grid")
        Avals = np.moveaxis(A(grid.nodes()), -1, 0)
        samples = Avals + _phase_gradient(phase)
    return CorrectedPotential(base_point=y, grid=grid, samples=samples, construction=construction)


def linear_bound_check(Ay: CorrectedPotential, B: TwoForm) -> dict:
    """Verify |A_y(x)| <= ||B||_inf |x - y| nodewise, plus the componentwise form.

    Violations are reported, never thrown; a correct construction keeps the
    worst violation at quadrature-floor level.
    """
    grid = Ay.grid
    y = Ay.base_point
    pts = grid.nodes()
    dist = np.sqrt(np.sum((pts - y) ** 2, axis=-1))
    mag = np.sqrt(np.sum(Ay.samples**2, axis=0))
    bnorm = b_sup_norm(B)
    violation = mag - bnorm * dist
    comp_violation = -np.inf
    for n in range(1, grid.dim + 1):
        rhs = np.zeros(grid.shape)
        for m in range(1, n):
            rhs += B.sup_norms.get((m, n), 0.0) * np.abs(pts[..., m - 1] - y[m - 1])
        comp_violation = max(comp_violation, float(np.max(np.abs(Ay.samples[n - 1]) - rhs)))
    return {
        "b_sup_norm": bnorm,
        "max_violation": float(np.max(violation)),
        "max_violation_componentwise": comp_violation,
        "violating_nodes": int(np.sum(violation > 1e-8)),
        "nodes": int(np.prod(grid.shape)),
    }


# ---------------------------------------------------------------------------
# Magnetic shifts
# ---------------------------------------------------------------------------

@dataclass
class ShiftOp:
    """The gauge-aware translation u -> e^{i(theta + phi_y)} u(. - y).

    y is restricted to integer multiples of the grid spacing so the identity
    checks separate gauge error from interpolation error.  ``factor`` holds
    e^{i(theta + phi_y)} on the grid.
    """

    grid: Grid
    y: np.ndarray
    steps: tuple
    factor: np.ndarray = _dfield(repr=False)
    theta: float = 0.0
    max_loss: float = 1e-6


def make_shift(
    A: PotentialField,
    y,
    grid: Grid,
    theta: float = 0.0,
    normalization: str = "at_base",
    max_loss: float = 1e-6,
) -> ShiftOp:
    """The magnetic shift g_y u = e^{i(theta + phi_y)} u(. - y) on the grid.

    phi_y is the phase of ``rephase_field(A, y, grid, normalization)``, but
    only the factor is built, as E0 e^{i(theta + psi_y)} from the split of
    ``_split_phase``: per tabled y only the (dim-1)-dimensional exponential
    is taken.  Every built-in field but ``symmetric`` has A_1 = 0, so E0 is
    exactly 1 and the factor is e^{i(theta + phi_y)} to the bit.  A y that
    is no lattice vector raises ``ValueError``.  ``shift_apply`` and
    ``shift_invert`` raise ``MassLossError`` when a move would drop more
    than ``max_loss`` of the quadrature mass W|u|^2 off the window.
    """
    y = _base_point(y, grid, normalization)
    steps = grid.is_lattice_vector(y)
    if steps is None:
        raise ValueError(f"shift {y.tolist()} is not an integer multiple of the grid spacing {grid.h}")
    C, psi = _split_phase(A, y, steps, grid, normalization)
    factor = np.exp(1j * (theta + psi))
    if C is not None:
        factor = _first_axis_factor(A, grid) * factor
    return ShiftOp(grid=grid, y=y, steps=steps, factor=factor, theta=theta, max_loss=max_loss)


def _overlap(shape, steps):
    """Source and destination slices of a move by ``steps`` nodes: out[dst] = values[src].

    A move by |k| >= n nodes along some axis keeps no node, so both select nothing.
    """
    src, dst = [], []
    for k, n in zip(steps, shape):
        width = max(0, n - abs(k))
        src.append(slice(max(0, -k), max(0, -k) + width))
        dst.append(slice(max(0, k), max(0, k) + width))
    return tuple(src), tuple(dst)


def _shift_values(values: np.ndarray, steps) -> np.ndarray:
    """out[alpha] = values[alpha - steps], zero-filled outside the window."""
    out = np.zeros_like(values)
    src, dst = _overlap(values.shape, steps)
    out[dst] = values[src]
    return out


def _check_loss(dens: np.ndarray, steps, max_loss: float, name: str) -> None:
    """Raise ``MassLossError`` if a move by ``steps`` nodes drops more than
    ``max_loss`` of the quadrature mass ``dens`` = W|u|^2."""
    total = float(np.sum(dens))
    if total == 0.0:
        return
    src, _ = _overlap(dens.shape, steps)
    frac = (total - float(np.sum(dens[src]))) / total
    if frac > max_loss:
        raise MassLossError(f"{name} would drop a boundary-mass fraction {frac:.3e} > allowed {max_loss:.3e}")


def _moved(g: ShiftOp, values: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """g applied to raw node values, after ``_check_loss`` on their quadrature mass ``dens`` = W|values|^2."""
    _check_loss(dens, g.steps, g.max_loss, "shift")
    # named, so numpy does not multiply into the temporary in place: that
    # loop rounds the complex product differently
    shifted = _shift_values(values, g.steps)
    return g.factor * shifted


def shift_apply(g: ShiftOp, u: ComplexField) -> ComplexField:
    """g u = e^{i(theta + phi_y)} u(. - y) on the grid; errors on excessive mass loss."""
    if u.grid.shape != g.grid.shape:
        raise ValueError("field and shift live on different grids")
    return ComplexField(u.grid, _moved(g, u.values, u.grid.weights() * np.abs(u.values) ** 2))


def shift_invert(g: ShiftOp, v: ComplexField) -> ComplexField:
    """g^{-1} v = e^{-i(theta + phi_y(. + y))} v(. + y); exact inverse on the overlap."""
    if v.grid.shape != g.grid.shape:
        raise ValueError("field and shift live on different grids")
    neg = tuple(-k for k in g.steps)
    _check_loss(v.grid.weights() * np.abs(v.values) ** 2, neg, g.max_loss, "inverse shift")
    return ComplexField(v.grid, _shift_values(v.values * np.conj(g.factor), neg))


def shifted_corrected_samples(A: PotentialField, y, grid: Grid) -> np.ndarray:
    """Samples of A_y(. + y) on the grid: the potential seen from the moving frame."""
    return ShiftedCorrectedField(A, y).on_axes(grid.axes)


class ShiftedCorrectedField:
    """A_y(. + y) as a tensor-grid evaluator, for exact use inside energies.

    Exposes the same ``on_axes`` evaluator as a PotentialField, which the
    calculus module consumes, so midpoint samples come from the closed
    corrected-potential formula rather than from interpolation.
    """

    def __init__(self, A: PotentialField, y):
        self.A = A
        self.y = np.atleast_1d(np.asarray(y, dtype=float))

    def on_axes(self, axes) -> np.ndarray:
        shifted = [np.asarray(ax) + yi for ax, yi in zip(axes, self.y)]
        return corrected_potential_samples(self.A, self.y, shifted)


# ---------------------------------------------------------------------------
# Potential at infinity and the composition law
# ---------------------------------------------------------------------------

def potential_at_infinity(A: PotentialField, trajectory, window: Grid):
    """Follow A_{y_k}(. + y_k) along a diverging trajectory on a fixed window.

    Returns the last sample together with a convergence report on the
    sup-distances between consecutive tail samples; the trajectory counts as
    converged when the last distance is at most 1e-6.
    """
    tol = 1e-6
    traj = [np.atleast_1d(np.asarray(y, dtype=float)) for y in trajectory]
    if len(traj) < 2:
        raise ValueError("trajectory needs at least two points")
    norms = [float(np.linalg.norm(y)) for y in traj]
    if any(b <= a for a, b in zip(norms[:-1], norms[1:])):
        raise ValueError(f"trajectory norms must increase strictly, got {norms}")
    samples = [shifted_corrected_samples(A, y, window) for y in traj]
    distances = [float(np.max(np.abs(b - a))) for a, b in zip(samples[:-1], samples[1:])]
    report = {
        "distances": distances,
        "converged": bool(distances[-1] <= tol),
        "tol": tol,
        "sup_last": float(np.max(np.abs(samples[-1]))),
    }
    return samples[-1], report


def composition_constant(A: PotentialField, y1, y2, grid: Grid) -> dict:
    """Estimate gamma(y1, y2) in phi_{y1+y2} = phi_{y1}(. - y2) + phi_{y2} + gamma.

    Under the at-half normalization the constant is well defined for
    lattice-periodic or constant-curl fields; the nodewise spread reports how
    far the given field is from admissibility (admissible when the spread is
    at most 1e-8).  Also checks gamma(y, -y) = 0 and the inverse law by a
    shift round-trip on a test bump.
    A y2 or y1 so long that a move by y2 or by -y1 keeps no node of the window
    raises ``ValueError``: there is nothing to compare.
    """
    tol = 1e-8
    y1 = np.atleast_1d(np.asarray(y1, dtype=float))
    y2 = np.atleast_1d(np.asarray(y2, dtype=float))
    steps1 = grid.is_lattice_vector(y1)
    steps2 = grid.is_lattice_vector(y2)
    if steps1 is None or steps2 is None:
        raise ValueError("y1 and y2 must be lattice vectors so shifted phases are sampled exactly")
    # phi_{y1}(. - y2) is known on the destination block of a move by y2, the
    # inverse pair and the round trip on that of a move by -y1
    src2, dst2 = _overlap(grid.shape, steps2)
    src1, back = _overlap(grid.shape, tuple(-k for k in steps1))
    for name, block in (("y2", dst2), ("-y1", back)):
        if any(b.stop == b.start for b in block):
            raise ValueError(f"a move by {name} keeps no node of the window")

    def phi(y):
        return rephase_field(A, y, grid, normalization="at_half").samples.values

    phi12 = phi(y1 + y2)
    phi1 = phi(y1)
    phi2 = phi(y2)
    gamma_field = (phi12[dst2] - phi1[src2] - phi2[dst2]).ravel()
    gamma = float(np.mean(gamma_field))
    spread = float(np.max(np.abs(gamma_field - gamma)))

    # gamma(y, -y) must vanish under the at-half convention
    phi0 = phi(np.zeros(grid.dim))
    phi1_neg = phi(-y1)
    gamma_pair = float(np.mean((phi0[back] - phi1[src1] - phi1_neg[back]).ravel()))

    # inverse law: g_{-y,-theta} g_{y,theta} is the identity on the overlap
    theta = 0.7
    g_fwd = make_shift(A, y1, grid, theta=theta, normalization="at_half", max_loss=1.0)
    g_bwd = make_shift(A, -y1, grid, theta=-theta, normalization="at_half", max_loss=1.0)
    probe = bump(grid, width=min(grid.extents) / 6.0)
    roundtrip = shift_apply(g_bwd, shift_apply(g_fwd, probe))
    # nodes that never left the window: alpha + k1 stays in range
    roundtrip_error = float(np.max(np.abs(roundtrip.values - probe.values)[back]))

    return {
        "gamma": gamma,
        "spread": spread,
        "admissible": bool(spread <= tol),
        "gamma_inverse_pair": gamma_pair,
        "roundtrip_error": roundtrip_error,
        "tol": tol,
    }
