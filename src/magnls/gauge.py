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
    "VANISHING_TOL",
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


class MassLossError(RuntimeError):
    """Too much of |u|^2 would be shifted out of the window."""


# Per-segment tolerance of the adaptive Simpson quadrature behind every line
# integral of A: phases, phase tables and corrected potentials.
QUAD_TOL = 1e-10

# A potential at infinity counts as reached when consecutive moving-frame
# samples A_y(. + y) differ by at most this in sup norm, and as vanishing
# when its last sample is below it.
VANISHING_TOL = 1e-6


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature, vectorized over segments and slice batches
# ---------------------------------------------------------------------------

def _simpson(f, a, b, fa, fm, fb):
    """Adaptive Simpson integrals over the segments [a_i, b_i], one integrand row each.

    ``f`` maps abscissae to their integrand rows; ``fa``, ``fm``, ``fb`` are
    the rows at the segments' ends and midpoints.  Each level halves exactly
    the segments whose worst residual over their row exceeds 15 tol, with tol
    ``QUAD_TOL`` halved per level, and sums each split segment's halves, so
    every bit is that of one recursive adaptive Simpson per segment.  A
    segment still above tol after 40 halvings raises ``QuadratureError``.
    """
    whole = ((b - a) / 6.0)[:, None] * (fa + 4.0 * fm + fb)
    levels = []  # per level: the segments' integrals and which of them were halved
    for level, tol in enumerate(QUAD_TOL * 0.5 ** np.arange(41)):
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        left = ((m - a) / 6.0)[:, None] * (fa + 4.0 * flm + fm)
        right = ((b - m) / 6.0)[:, None] * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        worst = np.max(np.abs(delta), axis=1)
        split = worst > 15.0 * tol
        levels.append((left + right + delta / 15.0, split))
        if not split.any():
            break
        if level == 40:
            i = np.nanargmax(worst)
            raise QuadratureError(
                f"segment [{a[i]:.6g}, {b[i]:.6g}] did not converge; worst residual "
                f"{worst[i]:.3e} at tolerance {tol:.3e}"
            )
        # the left halves of the split segments, then their right halves
        pairs = ((a, m), (m, b), (fa, fm), (flm, frm), (fm, fb), (left, right))
        a, b, fa, fm, fb, whole = (np.concatenate([x[split], y[split]]) for x, y in pairs)
    # deepest level first, each split segment takes the sum of its two halves
    for (parent, split), (halves, _) in reversed(list(zip(levels, levels[1:]))):
        parent[split] = halves[: len(halves) // 2] + halves[len(halves) // 2 :]
    return levels[0][0]


def _line_integrals(integrand, head, axis_values, tail, start: float) -> np.ndarray:
    """Cumulative integrals int_start^v integrand(head, t, tail) dt for v in ``axis_values`` (ascending).

    The integration axis is m = len(head) + 1.  ``head`` holds axes 1..m-1:
    singletons [y_j] pin the staircase coordinates, full axes span a table.
    ``tail`` holds axes m+1..N.  The pieces start -> first abscissa and
    abscissa -> abscissa go through one ``_simpson`` pass as the rows of one
    array, each to ``QUAD_TOL`` and at most 40 bisections deep.  Every piece
    end is evaluated once; a backwards first piece is integrated forwards
    and negated.  The result is C-contiguous with shape
    (*head, len(axis_values), *tail).
    """
    m = len(head) + 1
    t = np.concatenate([[start], axis_values])  # piece k runs from t[k] to t[k + 1]
    lo, hi = np.arange(len(t) - 1), np.arange(1, len(t))  # each piece's lower and upper end in t
    if t[0] > t[1]:
        lo[0], hi[0] = 1, 0

    def f(x):
        # the reshape copies a strided component out of the full evaluation, which is then freed
        return np.moveaxis(integrand(_mesh_points([*head, x, *tail])), m - 1, 0).reshape(len(x), -1)

    fa, fb = f(t)[np.stack([lo, hi])]
    pieces = _simpson(f, t[lo], t[hi], fa, f(0.5 * (t[lo] + t[hi])), fb)
    if t[0] > t[1]:
        pieces[0] = -pieces[0]
    sums = np.cumsum(pieces, axis=0).reshape((len(pieces),) + tuple(len(ax) for ax in [*head, *tail]))
    return np.ascontiguousarray(np.moveaxis(sums, 0, m - 1))


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
    the cumulative axis-m integrals of A_m, broadcast to the full mesh.
    Components the field declares zero add no term."""
    total = np.zeros(tuple(len(ax) for ax in axes))
    head = [np.array([yi]) for yi in y]
    for m in range(1, len(axes) + 1):
        if m - 1 in A.zero_components:
            continue
        total += _line_integrals(
            lambda pts, m=m: A(pts)[..., m - 1], head[: m - 1], axes[m - 1], axes[m:], float(y[m - 1])
        )
    return -total


def _phase_tables(A: PotentialField, grid: Grid) -> list:
    """Per-axis cumulative integrals C_m(x) = int_{x_m^min}^{x_m} A_m(.., t, ..) dt on the grid.

    The list holds ``dim`` entries, and C_m is None, never built, where the
    field declares A_m zero (``PotentialField.zero_components``): its table
    would be +0 throughout, and adding or subtracting it changes no bit.
    Landau, gauss and periodic keep the one table C_2, ``symmetric`` keeps
    C_1 and C_2, and ``zero`` keeps none.  Cached on the grid per field until
    ``_drop_tables``.  The cached value holds A, so its id cannot be reused
    while the entry lives; a build that raises caches nothing.
    """

    def build():
        axes = grid.axes
        tables = [
            None
            if m - 1 in A.zero_components
            else _line_integrals(
                lambda pts, m=m: A(pts)[..., m - 1], axes[: m - 1], axes[m - 1], axes[m:], float(axes[m - 1][0])
            )
            for m in range(1, grid.dim + 1)
        ]
        return A, tables

    return grid._cached(("phase_tables", id(A)), build)[1]


def _drop_tables(A: PotentialField, grid: Grid) -> None:
    """Forget the cached phase tables of A on the grid.

    Only ``make_shift`` and ``rephase_field`` read them, yet the cache keeps
    them as long as the grid lives: one grid array per component the field
    does not declare zero (a single 2.2 MB table at 65^3 for landau),
    carried through a whole Newton search on the same grid.  A caller done
    making shifts of A drops them here; a later shift of A builds them
    again.
    """
    getattr(grid, "_cache", {}).pop(("phase_tables", id(A)), None)


def _grid_phase(A: PotentialField, y: np.ndarray, steps, grid: Grid, normalization: str) -> np.ndarray:
    """phi_y on the grid, as an array that broadcasts to ``grid.shape``.

    ``steps`` is ``grid.is_lattice_vector(y)``, which the caller holds: None
    for an off-lattice y.

    For a lattice y whose node lies inside the window the tables give
    phi_y = psi_y(x_2..x_N) - C_1(x), where psi_y gathers

        C_1(y_1, x_>1) - sum_{m>=2} [C_m(y_<m, x_m, x_>m) - C_m(y_<=m, x_>m)].

    A table that is None (a component the field declares zero) adds no
    term.  The result then has shape (1, n_2, .., n_N) where C_1 is None,
    and the grid's shape otherwise.  y = 0 (phase identically zero),
    off-lattice y and y beyond the window give the whole grid.
    """
    C1 = None
    index = None if steps is None else tuple(grid.node_index(steps).tolist())
    if np.all(y == 0.0):
        phase = np.zeros(grid.shape)
    elif index is None or not all(0 <= j < n for j, n in zip(index, grid.n)):
        phase = _phase_values(A, y, grid.axes)
    else:
        C1, *tables = _phase_tables(A, grid)
        total = np.zeros((1,) + grid.shape[1:])
        if C1 is not None:
            total -= C1[index[0]]
        for m, Cm in enumerate(tables, start=2):
            if Cm is None:
                continue
            T = Cm[tuple(index[: m - 1])]
            total += (T - T[index[m - 1]]).reshape((1,) * (m - 1) + T.shape)
        phase = -total
    if normalization == "at_half":
        phase = phase - float(_phase_values(A, y, [np.array([yi / 2.0]) for yi in y]).reshape(()))
    return phase if C1 is None else phase - C1


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
    phase = np.broadcast_to(_grid_phase(A, y, grid.is_lattice_vector(y), grid, normalization), grid.shape)
    return GaugePhase(base_point=y, normalization=normalization, samples=RealField(grid, phase.copy()))


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
    The integral of d_n A_m is skipped where the field declares A_m zero,
    so no 2-D built-in field but ``symmetric`` evaluates its jacobian here.
    """
    if not A.has_jacobian:
        raise ValueError("corrected_potential_samples needs a field with an analytic jacobian")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dim = A.dim
    shape = tuple(len(ax) for ax in axes)
    Avals = A(_mesh_points(axes))  # (*shape, dim)
    head = [np.array([yi]) for yi in y]
    out = np.zeros((dim,) + shape)  # component 1 is A_1(x) - A_1(x) = 0
    for n in range(2, dim + 1):
        # A_n with the first n-1 coordinates pinned to y
        pinned = A(_mesh_points([*head[: n - 1], *axes[n - 1:]]))[..., n - 1]
        comp = Avals[..., n - 1] - pinned
        for m in range(1, n):
            if m - 1 in A.zero_components:
                continue
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


def corrected_potential(A: PotentialField, phase: GaugePhase) -> CorrectedPotential:
    """Sample A_y on the grid the phase was sampled on.

    A field with an analytic jacobian uses the closed formula
    (``corrected_potential_samples``, construction ``direct_formula``); any
    other field adds the centered-difference gradient of the sampled phase
    (``grad_of_phase``).  ``construction`` on the result records which ran.
    """
    y = phase.base_point
    grid = phase.samples.grid
    if A.has_jacobian:
        construction = "direct_formula"
        samples = corrected_potential_samples(A, y, grid.axes)
    else:
        construction = "grad_of_phase"
        Avals = np.moveaxis(A(grid.nodes()), -1, 0)
        samples = Avals + _phase_gradient(phase)
    return CorrectedPotential(base_point=y, grid=grid, samples=samples, construction=construction)


def linear_bound_check(Ay: CorrectedPotential, B: TwoForm) -> dict:
    """Verify |A_y(x)| <= ||B||_inf |x - y| nodewise, plus the componentwise form.

    Violations are reported, never thrown; a correct construction keeps the
    worst violation at quadrature-floor level.  ``violating_nodes`` counts
    the nodes whose violation exceeds the returned ``tol`` (1e-8).
    """
    tol = 1e-8
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
        "violating_nodes": int(np.sum(violation > tol)),
        "nodes": int(np.prod(grid.shape)),
        "tol": tol,
    }


# ---------------------------------------------------------------------------
# Magnetic shifts
# ---------------------------------------------------------------------------

@dataclass
class ShiftOp:
    """The gauge-aware translation u -> e^{i(theta + phi_y)} u(. - y).

    y is restricted to integer multiples of the grid spacing so the identity
    checks separate gauge error from interpolation error.  ``factor`` holds
    e^{i(theta + phi_y)} on the grid as a read-only view, broadcast along
    axis 0 where phi_y does not depend on x_1.
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
    only the factor is built: e^{i(theta + phi_y)} of the phase from
    ``_grid_phase``, for every field and every y, so it keeps the bits of
    the exponential of ``rephase_field``'s samples.  Where the phase does
    not depend on x_1 (a tabled y of a field that declares A_1 zero, as
    every built-in field but ``symmetric``), only the (dim-1)-dimensional
    exponential is taken and broadcast along axis 0.
    A y that is no lattice vector raises ``ValueError``.
    ``shift_apply`` and ``shift_invert`` raise ``MassLossError`` when a move
    would drop more than ``max_loss`` of the quadrature mass W|u|^2 off the
    window.
    """
    y = _base_point(y, grid, normalization)
    steps = grid.is_lattice_vector(y)
    if steps is None:
        raise ValueError(f"shift {y.tolist()} is not an integer multiple of the grid spacing {grid.h}")
    phase = _grid_phase(A, y, steps, grid, normalization)
    factor = np.broadcast_to(np.exp(1j * (theta + phase)), grid.shape)
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
    converged when the last distance is at most ``VANISHING_TOL``.
    """
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
        "converged": bool(distances[-1] <= VANISHING_TOL),
        "tol": VANISHING_TOL,
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
