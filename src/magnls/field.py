"""Magnetic potentials A and their field strength B = dA.

A potential is a covector-valued map on R^N; the measurable object is the
antisymmetric two-form with components B_mn = d_n A_m - d_m A_n (m < n).
This module holds the built-in family of test potentials, curl sampling on
boxes, and the sup-norm aggregate used by the linear gauge bound.
"""

from dataclasses import dataclass, field
from functools import partial
from numbers import Integral
from typing import Callable, Optional

import numpy as np

__all__ = [
    "PotentialField",
    "TwoForm",
    "curl",
    "curl_of_samples",
    "b_sup_norm",
    "field_library",
    "parse_field_spec",
]


@dataclass(frozen=True)
class PotentialField:
    """Evaluator for a magnetic potential, the single source of field truth.

    ``eval_fn`` maps an array of points with shape (..., dim) to covector
    values of the same shape.  ``jac_fn``, when present, returns the
    matrix J[..., m, n] = d_n A_m.  Evaluators are pure; they may be called
    concurrently.

    ``zero_components`` holds the 0-based indices m with A_m = 0 (+0) on all
    of R^N, so that every d_n A_m vanishes too.  The line integrals behind
    phase tables, staircase phases and corrected potentials skip them, as
    exact +0 terms.  The default declares nothing, and every component is
    integrated.
    """

    dim: int
    eval_fn: Callable[[np.ndarray], np.ndarray]
    jac_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    tag: str = "custom"
    params: dict = field(default_factory=dict)
    zero_components: frozenset = frozenset()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        bad = [m for m in self.zero_components if not (isinstance(m, Integral) and 0 <= m < self.dim)]
        if bad:
            raise ValueError(f"zero_components {bad} are not component indices in range({self.dim})")
        object.__setattr__(self, "zero_components", frozenset(int(m) for m in self.zero_components))

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have last axis {pts.shape[-1]}, field dim is {self.dim}")
        return self.eval_fn(pts)

    @property
    def has_jacobian(self) -> bool:
        return self.jac_fn is not None

    def jacobian(self, points: np.ndarray) -> np.ndarray:
        if self.jac_fn is None:
            raise ValueError(f"field '{self.tag}' carries no analytic jacobian")
        pts = np.asarray(points, dtype=float)
        return self.jac_fn(pts)

    def on_axes(self, axes) -> np.ndarray:
        """Components on the tensor grid spanned by ``axes``, shape (dim, *shape)."""
        return np.moveaxis(self(_mesh_points(axes)), -1, 0)


@dataclass
class TwoForm:
    """Sampled field strength on a box window.

    Only components with m < n are stored; B_nm = -B_mn by convention.
    ``window`` records where the sup norms were estimated, since the true
    sup is global and the estimate is only as good as the window.
    """

    dim: int
    window: tuple
    axes: list
    components: dict  # (m, n) with m < n, 1-based -> ndarray over the window
    sup_norms: dict  # (m, n) -> float


def _normalize_window(window, dim: int):
    """Accept a scalar half-width or a sequence of (lo, hi) pairs."""
    if np.isscalar(window):
        w = float(window)
        return tuple((-w, w) for _ in range(dim))
    out = []
    for lo, hi in window:
        lo, hi = float(lo), float(hi)
        if not hi > lo:
            raise ValueError(f"empty window axis ({lo}, {hi})")
        out.append((lo, hi))
    if len(out) != dim:
        raise ValueError(f"window has {len(out)} axes, field dim is {dim}")
    return tuple(out)


def _mesh_points(axes) -> np.ndarray:
    """Tensor mesh of ``axes`` as a (*shape, N) point array; a singleton axis pins its coordinate.

    Each coordinate is written once into one array; the bytes and dtype are
    those of ``np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)``.
    """
    axes = [np.ravel(ax) for ax in axes]
    out = np.empty(tuple(len(ax) for ax in axes) + (len(axes),), dtype=np.result_type(*axes))
    for i, ax in enumerate(axes):
        out[..., i] = ax.reshape((-1,) + (1,) * (len(axes) - 1 - i))
    return out


def _along(ndim: int, axis: int, index) -> tuple:
    """Index tuple for an ndim array: ``index`` (int or slice) on ``axis``, everything elsewhere."""
    return tuple(index if ax == axis else slice(None) for ax in range(ndim))


def _sample_derivative(vals: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered difference of samples, one-sided second-order at the boundary."""
    d = np.empty_like(vals)
    at = partial(_along, vals.ndim, axis)
    d[at(slice(1, -1))] = (vals[at(slice(2, None))] - vals[at(slice(0, -2))]) / (2 * h)
    d[at(0)] = (-3 * vals[at(0)] + 4 * vals[at(1)] - vals[at(2)]) / (2 * h)
    d[at(-1)] = (3 * vals[at(-1)] - 4 * vals[at(-2)] + vals[at(-3)]) / (2 * h)
    return d


def curl(A: PotentialField, window, resolution: int) -> TwoForm:
    """Sample B_mn = d_n A_m - d_m A_n for all m < n on the window.

    Uses the analytic jacobian when the field has one, evaluated one axis-0
    slab at a time so no full-window mesh or jacobian is ever held; otherwise
    ``curl_of_samples`` of the samples on the whole mesh.
    """
    if resolution < 3:
        raise ValueError(f"resolution must be >= 3 to form centered differences, got {resolution}")
    win = _normalize_window(window, A.dim)
    axes = [np.linspace(lo, hi, resolution) for lo, hi in win]
    pairs = [(m, n) for m in range(1, A.dim + 1) for n in range(m + 1, A.dim + 1)]
    components = {}  # stays empty in 1-D, where B has no components
    if pairs and A.has_jacobian:
        shape = (resolution,) * A.dim
        components = {mn: np.empty(shape) for mn in pairs}
        for i in range(resolution):
            jac = A.jacobian(_mesh_points([axes[0][i : i + 1], *axes[1:]]))
            for m, n in pairs:
                components[(m, n)][i : i + 1] = jac[..., m - 1, n - 1] - jac[..., n - 1, m - 1]
    elif pairs:
        h = np.array([(hi - lo) / (resolution - 1) for lo, hi in win])
        components = curl_of_samples(A.on_axes(axes), h)
    sups = {mn: float(np.max(np.abs(b))) for mn, b in components.items()}
    return TwoForm(dim=A.dim, window=win, axes=axes, components=components, sup_norms=sups)


def b_sup_norm(B: TwoForm) -> float:
    """sqrt of the sum over m < n of squared per-component sup norms."""
    if not B.sup_norms:
        return 0.0
    return float(np.sqrt(sum(v * v for v in B.sup_norms.values())))


def curl_of_samples(samples: np.ndarray, h) -> dict:
    """B_mn from covector samples (dim, *shape) by finite differences."""
    dim = samples.shape[0]
    out = {}
    for m in range(1, dim + 1):
        for n in range(m + 1, dim + 1):
            out[(m, n)] = _sample_derivative(samples[m - 1], n - 1, h[n - 1]) - _sample_derivative(
                samples[n - 1], m - 1, h[m - 1]
            )
    return out


# ---------------------------------------------------------------------------
# Built-in family
# ---------------------------------------------------------------------------

def _zero(dim: int) -> PotentialField:
    def ev(p):
        return np.zeros_like(p)

    def jac(p):
        return np.zeros(p.shape[:-1] + (dim, dim))

    return PotentialField(dim, ev, jac, tag="zero", params={}, zero_components=frozenset(range(dim)))


def _landau(b: float, dim: int = 2) -> PotentialField:
    """A(x) = (0, b x_1, 0, ...): constant field B_12 = -b."""
    if dim < 2:
        raise ValueError("landau field needs dim >= 2")

    def ev(p):
        out = np.zeros_like(p)
        out[..., 1] = b * p[..., 0]
        return out

    def jac(p):
        J = np.zeros(p.shape[:-1] + (dim, dim))
        J[..., 1, 0] = b
        return J

    return PotentialField(dim, ev, jac, tag="landau", params={"b": b}, zero_components=frozenset(range(dim)) - {1})


def _symmetric(b: float, dim: int = 2) -> PotentialField:
    """A(x) = (-b x_2 / 2, b x_1 / 2, 0, ...): same field as landau(b)."""
    if dim < 2:
        raise ValueError("symmetric field needs dim >= 2")

    def ev(p):
        out = np.zeros_like(p)
        out[..., 0] = -0.5 * b * p[..., 1]
        out[..., 1] = 0.5 * b * p[..., 0]
        return out

    def jac(p):
        J = np.zeros(p.shape[:-1] + (dim, dim))
        J[..., 0, 1] = -0.5 * b
        J[..., 1, 0] = 0.5 * b
        return J

    return PotentialField(dim, ev, jac, tag="symmetric", params={"b": b}, zero_components=frozenset(range(2, dim)))


def _gaussian_decay(b0: float, s: float = 1.0, dim: int = 2) -> PotentialField:
    """A(x) = (0, b0 exp(-|x|^2/s^2), 0, ...): field and potential vanish at infinity."""
    if dim < 2:
        raise ValueError("gaussian_decay field needs dim >= 2")
    if s <= 0:
        raise ValueError("gaussian_decay needs s > 0")

    def ev(p):
        out = np.zeros_like(p)
        r2 = np.sum(p * p, axis=-1)
        out[..., 1] = b0 * np.exp(-r2 / s**2)
        return out

    def jac(p):
        J = np.zeros(p.shape[:-1] + (dim, dim))
        r2 = np.sum(p * p, axis=-1)
        g = b0 * np.exp(-r2 / s**2)
        for n in range(dim):
            J[..., 1, n] = -2.0 * p[..., n] / s**2 * g
        return J

    zero = frozenset(range(dim)) - {1}
    return PotentialField(dim, ev, jac, tag="gaussian_decay", params={"b0": b0, "s": s}, zero_components=zero)


def _lattice_periodic(b: float, period: float = 1.0, dim: int = 2) -> PotentialField:
    """A(x) = (0, b L/(2 pi) sin(2 pi x_1 / L), 0, ...).

    The field B_12 = -b cos(2 pi x_1 / L) is invariant under shifts by the
    lattice (L Z)^N; the potential itself happens to be periodic too, which
    keeps period shifts exactly energy-preserving on a grid.
    """
    if dim < 2:
        raise ValueError("lattice_periodic field needs dim >= 2")
    if period <= 0:
        raise ValueError("lattice_periodic needs period > 0")
    k = 2.0 * np.pi / period
    amp = b / k

    def ev(p):
        out = np.zeros_like(p)
        out[..., 1] = amp * np.sin(k * p[..., 0])
        return out

    def jac(p):
        J = np.zeros(p.shape[:-1] + (dim, dim))
        J[..., 1, 0] = b * np.cos(k * p[..., 0])
        return J

    zero = frozenset(range(dim)) - {1}
    return PotentialField(dim, ev, jac, tag="lattice_periodic", params={"b": b, "period": period}, zero_components=zero)


_BUILTINS = {
    "zero": (_zero, ()),
    "landau": (_landau, ("b",)),
    "symmetric": (_symmetric, ("b",)),
    "gaussian_decay": (_gaussian_decay, ("b0",)),
    "lattice_periodic": (_lattice_periodic, ("b",)),
}


def field_library(tag: str, dim: int = 2, **params) -> PotentialField:
    """Construct a built-in potential by tag; all built-ins carry analytic jacobians."""
    if tag not in _BUILTINS:
        raise ValueError(f"unknown field tag '{tag}'; known: {sorted(_BUILTINS)}")
    ctor, required = _BUILTINS[tag]
    for name in required:
        if name not in params:
            raise ValueError(f"field '{tag}' requires parameter '{name}'")
    if tag == "zero":
        return ctor(dim)
    return ctor(dim=dim, **params)


# CLI grammar: zero | landau:b=<f> | symmetric:b=<f> | gauss:b0=<f>,s=<f> | periodic:b=<f>,L=<f>
_SPEC_ALIASES = {
    "zero": ("zero", {}),
    "landau": ("landau", {"b": "b"}),
    "symmetric": ("symmetric", {"b": "b"}),
    "gauss": ("gaussian_decay", {"b0": "b0", "s": "s"}),
    "periodic": ("lattice_periodic", {"b": "b", "L": "period"}),
}


def _read_spec(text: str, grammar: dict, kind: str):
    """Read ``name:key=<f>,...`` against ``grammar`` (name -> accepted keys).

    Returns the name and its float parameters.  An unknown name, an unknown
    key or a value that is not a finite number raises ``ValueError``.
    """
    name, _, rest = text.strip().partition(":")
    if name not in grammar:
        raise ValueError(f"unknown {kind} '{name}'; known: {sorted(grammar)}")
    params = {}
    for item in rest.split(",") if rest else ():
        key, _, val = item.partition("=")
        key = key.strip()
        if key not in grammar[name]:
            raise ValueError(f"{kind} '{name}' does not take parameter '{key}'")
        try:
            params[key] = float(val)
        except ValueError:
            raise ValueError(f"bad numeric value '{val}' for '{key}' in {kind}") from None
        if not np.isfinite(params[key]):
            raise ValueError(f"non-finite value '{val}' for '{key}' in {kind}")
    return name, params


def parse_field_spec(spec: str, dim: int = 2) -> PotentialField:
    """Parse a field specification string like ``landau:b=0.5``."""
    grammar = {name: keymap for name, (_, keymap) in _SPEC_ALIASES.items()}
    name, params = _read_spec(spec, grammar, "field spec")
    tag, keymap = _SPEC_ALIASES[name]
    return field_library(tag, dim=dim, **{keymap[key]: val for key, val in params.items()})
